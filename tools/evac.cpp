//===- evac.cpp - The EVA compiler command-line driver --------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
// Compiles a serialized EVA program (the proto3 wire format of Figure 1)
// exactly as Algorithm 1 describes: reads the input program, runs the
// transformation and validation passes, and reports the selected encryption
// parameters and rotation steps. Optionally writes the transformed program.
//
// `evac run` additionally executes the compiled program end to end through
// the unified api/Runner surface, so every program file is a CLI-drivable
// workload on any backend — the reference semantics, the local CKKS
// executor, or the encrypted-compute service (in-process loopback by
// default, or a remote evaserve via --port).
//
// Usage:
//   evac <input.evabin> [-o <output.evabin>] [--chet] [--lazy] [--dump]
//        [--dot] [--params-json]
//   evac run <input.evabin> [--backend reference|local|service]
//        [--inputs file.json] [--in name=v1,v2,...] [--threads N]
//        [--seed S] [--port P] [--show K] [--chet] [--lazy]
//
// `evac lint` compiles with full pass-sandwich verification, then reports
// the analyzer's per-output dataflow facts (scale, level, magnitude, noise,
// precision) and the lint warnings with node provenance — the static
// analysis surface of eva/core/Analysis.h. `--json` makes the report
// machine-readable.
//
//   evac lint <input.evabin> [--chet] [--lazy] [--budget N] [--json]
//
//===----------------------------------------------------------------------===//

#include "eva/api/Runner.h"
#include "eva/core/Analysis.h"
#include "eva/core/Compiler.h"
#include "eva/math/Simd.h"
#include "eva/ir/Printer.h"
#include "eva/serialize/ProtoIO.h"
#include "eva/service/Client.h"
#include "eva/service/Server.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

using namespace eva;

static int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s <input.evabin> [-o <output.evabin>] [--chet] "
               "[--lazy] [--dump] [--dot] [--params-json]\n"
               "       %s run <input.evabin> [--backend "
               "reference|local|service] [--inputs file.json]\n"
               "                [--in name=v1,v2,...] [--threads N] [--seed "
               "S] [--port P] [--show K]\n"
               "       evac lint <input.evabin> [--chet] [--lazy] "
               "[--budget N] [--json]\n"
               "  --chet        use the CHET-baseline insertion policies\n"
               "  --lazy        use LAZY-MODSWITCH instead of EAGER\n"
               "  --dump        print the transformed program\n"
               "  --dot         print the transformed term graph as Graphviz\n"
               "  --params-json print the selected encryption parameters as "
               "JSON (for deploy tooling)\n"
               "run subcommand:\n"
               "  --backend B   reference (plaintext semantics), local\n"
               "                (encrypt/execute/decrypt in-process on the "
               "DAG schedule\n"
               "                over --threads threads), or service (the "
               "full\n"
               "                client loop; in-process loopback server "
               "unless --port)\n"
               "  --inputs F    JSON object file: {\"name\": [v, ...] | v, "
               "...}\n"
               "  --in name=vs  one input as comma-separated values\n"
               "  --seed S      key/encryption seed; runs are reproducible "
               "functions\n"
               "                of (program, seed, inputs) (default 1)\n"
               "  --show K      print only the first K slots per output "
               "(default 8,\n"
               "                0 = all)\n"
               "lint subcommand:\n"
               "  --budget N    Galois-key budget handed to the compiler "
               "(0 = unbounded)\n"
               "  --json        machine-readable facts + warnings document\n",
               Prog, Prog);
  return 1;
}

/// Program/input/output names are arbitrary bytes in the wire format; they
/// must not be able to break the JSON contract.
static std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (unsigned char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += static_cast<char>(C);
    } else if (C < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += static_cast<char>(C);
    }
  }
  return Out;
}

/// Machine-readable parameter report for deploy tooling (evacall, service
/// configuration): the selected encryption parameters plus the program's
/// I/O schema, mirroring the service's ParamSignature.
static void printParamsJson(const Program &P, const CompiledProgram &CP) {
  std::printf("{\n");
  std::printf("  \"program\": \"%s\",\n", jsonEscape(P.name()).c_str());
  std::printf("  \"vec_size\": %llu,\n",
              static_cast<unsigned long long>(P.vecSize()));
  std::printf("  \"poly_modulus_degree\": %llu,\n",
              static_cast<unsigned long long>(CP.PolyDegree));
  std::printf("  \"total_modulus_bits\": %d,\n", CP.TotalModulusBits);
  std::printf("  \"security\": \"%s\",\n",
              CP.Options.Security == SecurityLevel::TC128 ? "tc128" : "none");
  std::printf("  \"coeff_modulus_bits\": [");
  for (size_t I = 0; I < CP.BitSizes.size(); ++I)
    std::printf("%s%d", I ? ", " : "", CP.BitSizes[I]);
  std::printf("],\n");
  std::vector<int> CtxBits = CP.contextBitSizes();
  std::printf("  \"context_coeff_modulus_bits\": [");
  for (size_t I = 0; I < CtxBits.size(); ++I)
    std::printf("%s%d", I ? ", " : "", CtxBits[I]);
  std::printf("],\n");
  std::printf("  \"rotation_steps\": [");
  size_t I = 0;
  for (uint64_t S : CP.RotationSteps)
    std::printf("%s%llu", I++ ? ", " : "", static_cast<unsigned long long>(S));
  std::printf("],\n");
  std::printf("  \"needs_relin_keys\": %s,\n",
              countOps(*CP.Prog, OpCode::Relinearize) > 0 ? "true" : "false");
  std::printf("  \"inputs\": [");
  for (size_t J = 0; J < P.inputs().size(); ++J) {
    const Node *N = P.inputs()[J];
    std::printf("%s\n    {\"name\": \"%s\", \"log_scale\": %.0f, "
                "\"encrypted\": %s}",
                J ? "," : "", jsonEscape(N->name()).c_str(), N->logScale(),
                N->isCipher() ? "true" : "false");
  }
  std::printf("\n  ],\n");
  std::printf("  \"outputs\": [");
  for (size_t J = 0; J < CP.Prog->outputs().size(); ++J) {
    const Node *N = CP.Prog->outputs()[J];
    std::printf("%s\n    {\"name\": \"%s\", \"log_scale\": %.0f}",
                J ? "," : "", jsonEscape(N->name()).c_str(), N->logScale());
  }
  std::printf("\n  ]\n");
  std::printf("}\n");
}

//===----------------------------------------------------------------------===//
// `evac run`: execute a program through the unified Runner API
//===----------------------------------------------------------------------===//

namespace {

/// Minimal JSON reader for the input format `{"name": [v, ...] | v, ...}`.
/// Anything outside that shape is a diagnostic, not UB.
class JsonInputParser {
public:
  explicit JsonInputParser(std::string_view Text) : Text(Text) {}

  Expected<Valuation> parse() {
    using Result = Expected<Valuation>;
    Valuation V;
    skipSpace();
    if (!consume('{'))
      return Result::error(err("expected '{'"));
    skipSpace();
    if (consume('}'))
      return finishAtEnd(std::move(V));
    for (;;) {
      std::string Name;
      if (!parseString(Name))
        return Result::error(err("expected a string input name"));
      skipSpace();
      if (!consume(':'))
        return Result::error(err("expected ':' after \"" + Name + "\""));
      skipSpace();
      if (consume('[')) {
        std::vector<double> Values;
        skipSpace();
        if (!consume(']')) {
          for (;;) {
            double D;
            if (!parseNumber(D))
              return Result::error(err("expected a number in \"" + Name +
                                       "\""));
            Values.push_back(D);
            skipSpace();
            if (consume(']'))
              break;
            if (!consume(','))
              return Result::error(err("expected ',' or ']' in \"" + Name +
                                       "\""));
            skipSpace();
          }
        }
        V.set(Name, std::move(Values));
      } else {
        double D;
        if (!parseNumber(D))
          return Result::error(err("expected a number or array for \"" +
                                   Name + "\""));
        V.set(Name, D);
      }
      skipSpace();
      if (consume('}'))
        return finishAtEnd(std::move(V));
      if (!consume(','))
        return Result::error(err("expected ',' or '}'"));
      skipSpace();
    }
  }

private:
  Expected<Valuation> finishAtEnd(Valuation V) {
    skipSpace();
    if (Pos != Text.size())
      return Expected<Valuation>::error(err("trailing characters"));
    return V;
  }

  std::string err(const std::string &What) const {
    return "inputs JSON: " + What + " at offset " + std::to_string(Pos);
  }

  void skipSpace() {
    while (Pos < Text.size() && (Text[Pos] == ' ' || Text[Pos] == '\t' ||
                                 Text[Pos] == '\n' || Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool parseString(std::string &Out) {
    if (!consume('"'))
      return false;
    Out.clear();
    while (Pos < Text.size() && Text[Pos] != '"') {
      if (Text[Pos] == '\\' && Pos + 1 < Text.size()) {
        ++Pos; // keep the escaped byte verbatim ("\"" and "\\")
        if (Text[Pos] != '"' && Text[Pos] != '\\')
          return false; // no \n/\u escapes in input names
      }
      Out += Text[Pos++];
    }
    return consume('"');
  }

  bool parseNumber(double &Out) {
    // strtod needs a NUL-terminated buffer; numbers are short.
    size_t End = Pos;
    while (End < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[End])) ||
            Text[End] == '-' || Text[End] == '+' || Text[End] == '.' ||
            Text[End] == 'e' || Text[End] == 'E'))
      ++End;
    if (End == Pos)
      return false;
    std::string Buf(Text.substr(Pos, End - Pos));
    char *Parsed = nullptr;
    Out = std::strtod(Buf.c_str(), &Parsed);
    if (Parsed != Buf.c_str() + Buf.size())
      return false;
    Pos = End;
    return true;
  }

  std::string_view Text;
  size_t Pos = 0;
};

/// Prints the run result as a JSON document (full double precision, so two
/// backends' outputs are byte-comparable).
/// Nanoseconds as seconds with microsecond resolution.
std::string formatSeconds(uint64_t Nanos) {
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, "%.6f", static_cast<double>(Nanos) * 1e-9);
  return Buf;
}

void printRunJson(const std::string &Program, const char *Backend,
                  uint64_t VecSize, const Valuation &Outputs, size_t Show) {
  std::printf("{\n");
  std::printf("  \"program\": \"%s\",\n", jsonEscape(Program).c_str());
  std::printf("  \"backend\": \"%s\",\n", Backend);
  std::printf("  \"vec_size\": %llu,\n",
              static_cast<unsigned long long>(VecSize));
  std::printf("  \"slots_shown\": %zu,\n", Show);
  std::printf("  \"outputs\": {");
  bool FirstOut = true;
  for (const auto &[Name, Val] : Outputs) {
    (void)Val;
    std::printf("%s\n    \"%s\": [", FirstOut ? "" : ",",
                jsonEscape(Name).c_str());
    const std::vector<double> &Values = Outputs.vector(Name);
    size_t Count = Show == 0 ? Values.size() : std::min(Show, Values.size());
    for (size_t I = 0; I < Count; ++I)
      std::printf("%s%.17g", I ? ", " : "", Values[I]);
    std::printf("]");
    FirstOut = false;
  }
  std::printf("\n  }\n}\n");
}

int runCommand(int Argc, char **Argv) {
  const char *InputPath = nullptr;
  const char *InputsJsonPath = nullptr;
  const char *BackendName = "local";
  size_t Threads = 1;
  uint64_t Seed = 1;
  int Port = 0;
  size_t Show = 8;
  CompilerOptions Options = CompilerOptions::eva();
  Valuation Inputs;

  for (int I = 0; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--backend") == 0 && I + 1 < Argc) {
      BackendName = Argv[++I];
    } else if (std::strcmp(Argv[I], "--inputs") == 0 && I + 1 < Argc) {
      InputsJsonPath = Argv[++I];
    } else if (std::strcmp(Argv[I], "--in") == 0 && I + 1 < Argc) {
      if (!parseInlineInput(Argv[++I], Inputs)) {
        std::fprintf(stderr, "evac: error: bad --in spec '%s'\n", Argv[I]);
        return 1;
      }
    } else if (std::strcmp(Argv[I], "--threads") == 0 && I + 1 < Argc) {
      Threads = static_cast<size_t>(std::max(1, std::atoi(Argv[++I])));
    } else if (std::strcmp(Argv[I], "--seed") == 0 && I + 1 < Argc) {
      Seed = std::strtoull(Argv[++I], nullptr, 10);
    } else if (std::strcmp(Argv[I], "--port") == 0 && I + 1 < Argc) {
      Port = std::atoi(Argv[++I]);
    } else if (std::strcmp(Argv[I], "--show") == 0 && I + 1 < Argc) {
      Show = static_cast<size_t>(std::max(0, std::atoi(Argv[++I])));
    } else if (std::strcmp(Argv[I], "--chet") == 0) {
      Options = CompilerOptions::chet();
    } else if (std::strcmp(Argv[I], "--lazy") == 0) {
      Options.ModSwitch = ModSwitchPolicy::Lazy;
    } else if (Argv[I][0] != '-' && !InputPath) {
      InputPath = Argv[I];
    } else {
      return usage("evac");
    }
  }
  if (!InputPath || Seed == 0)
    return usage("evac");

  if (InputsJsonPath) {
    std::ifstream In(InputsJsonPath, std::ios::binary);
    if (!In) {
      std::fprintf(stderr, "evac: error: cannot open %s\n", InputsJsonPath);
      return 1;
    }
    std::string Data((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
    Expected<Valuation> FromJson = JsonInputParser(Data).parse();
    if (!FromJson) {
      std::fprintf(stderr, "evac: error: %s: %s\n", InputsJsonPath,
                   FromJson.message().c_str());
      return 1;
    }
    for (const auto &[Name, Val] : *FromJson)
      if (!Inputs.has(Name)) { // --in overrides the file
        if (const auto *Vec = std::get_if<std::vector<double>>(&Val))
          Inputs.set(Name, *Vec);
        else
          Inputs.set(Name, std::get<double>(Val));
      }
  }

  Expected<std::unique_ptr<Program>> P = loadProgram(InputPath);
  if (!P) {
    std::fprintf(stderr, "evac: error: %s\n", P.message().c_str());
    return 1;
  }

  // Build the requested backend. Runs are reproducible functions of
  // (program, seed, inputs): local and service use the same client-style
  // crypto stack with deterministic expansion seeds, so their outputs are
  // bit-identical — the interchangeability contract the golden tests pin.
  std::unique_ptr<Runner> R;
  Service Svc;               // in-process service backend state
  ServiceServer Server(Svc); // (unused unless --backend service)
  if (std::strcmp(BackendName, "reference") == 0) {
    R = Runner::reference(**P);
  } else if (std::strcmp(BackendName, "local") == 0) {
    Expected<CompiledProgram> CP = compile(**P, Options);
    if (!CP) {
      std::fprintf(stderr, "evac: compile error: %s\n", CP.message().c_str());
      return 1;
    }
    LocalRunnerOptions LO;
    LO.Threads = Threads;
    LO.Seed = Seed;
    LO.ReproducibleSeeds = true;
    Expected<std::unique_ptr<Runner>> L = Runner::local(std::move(*CP), LO);
    if (!L) {
      std::fprintf(stderr, "evac: error: %s\n", L.message().c_str());
      return 1;
    }
    R = std::move(*L);
  } else if (std::strcmp(BackendName, "service") == 0) {
    uint16_t ConnectPort;
    if (Port > 0 && Port <= 65535) {
      ConnectPort = static_cast<uint16_t>(Port);
    } else {
      // No --port: serve the program from an in-process loopback server so
      // the full wire path (framing, key upload, seed-compressed
      // ciphertexts) runs self-contained.
      if (Status S = Svc.registry().registerSource(**P, Options); !S.ok()) {
        std::fprintf(stderr, "evac: error: %s\n", S.message().c_str());
        return 1;
      }
      if (Status S = Server.start(0); !S.ok()) {
        std::fprintf(stderr, "evac: error: %s\n", S.message().c_str());
        return 1;
      }
      ConnectPort = Server.port();
    }
    Expected<std::unique_ptr<SocketTransport>> T =
        SocketTransport::connectLoopback(ConnectPort);
    if (!T) {
      std::fprintf(stderr, "evac: error: %s\n", T.message().c_str());
      return 1;
    }
    RemoteRunnerOptions RO;
    RO.KeySeed = Seed;
    RO.ReproducibleSeeds = true;
    Expected<std::unique_ptr<Runner>> Rem =
        Runner::remote(std::move(*T), (*P)->name(), RO);
    if (!Rem) {
      std::fprintf(stderr, "evac: error: %s\n", Rem.message().c_str());
      return 1;
    }
    R = std::move(*Rem);
  } else {
    std::fprintf(stderr, "evac: error: unknown backend '%s'\n", BackendName);
    return 1;
  }

  Expected<Valuation> Out = R->run(Inputs);
  if (!Out) {
    std::fprintf(stderr, "evac: error: %s\n", Out.message().c_str());
    R.reset(); // close the service session before the server stops
    return 1;
  }
  printRunJson((*P)->name(), BackendName, R->signature().VecSize, *Out,
               Show);
  // The run's cost ledger goes to stderr: stdout is the machine-readable
  // result document (golden-compared across backends), stderr is
  // diagnostics.
  if (const ExecutionStats *St = R->executionStats()) {
    std::fprintf(stderr,
                 "evac: ops: add=%zu sub=%zu negate=%zu multiply=%zu "
                 "multiply_plain=%zu relinearize=%zu rescale=%zu "
                 "modswitch=%zu rotate=%zu (hoisted=%zu in %zu batches) "
                 "decompositions=%zu\n",
                 St->Adds, St->Subs, St->Negates, St->Multiplies,
                 St->PlainMultiplies, St->Relinearizations, St->Rescales,
                 St->ModSwitches, St->Rotations, St->HoistedRotations,
                 St->HoistBatches, St->KeySwitchDecompositions);
    std::fprintf(stderr,
                 "evac: kernels: ntts=%llu mulmods=%llu arena_acquires=%llu "
                 "arena_heap_bytes=%llu (simd=%s)\n",
                 static_cast<unsigned long long>(St->Ntts),
                 static_cast<unsigned long long>(St->MulMods),
                 static_cast<unsigned long long>(St->ArenaAcquires),
                 static_cast<unsigned long long>(St->ArenaHeapBytes),
                 simdLevelName(activeSimdLevel()));
    // Wall-time sums over threads (not counts), for the opcodes that ran.
    std::string Times;
    for (size_t Op = 0; Op < St->OpNanos.size(); ++Op)
      if (St->OpNanos[Op] > 0)
        Times += std::string(" ") + opName(static_cast<OpCode>(Op)) + "=" +
                 formatSeconds(St->OpNanos[Op]);
    Times += " hoist_decompose=" + formatSeconds(St->HoistDecomposeNanos);
    std::fprintf(stderr, "evac: op_seconds:%s\n", Times.c_str());
  }
  R.reset();
  return 0;
}

//===----------------------------------------------------------------------===//
// `evac lint`: static facts + warnings over a program
//===----------------------------------------------------------------------===//

int lintCommand(int Argc, char **Argv) {
  const char *InputPath = nullptr;
  bool Json = false;
  CompilerOptions Options = CompilerOptions::eva();
  for (int I = 0; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--chet") == 0) {
      Options = CompilerOptions::chet();
    } else if (std::strcmp(Argv[I], "--lazy") == 0) {
      Options.ModSwitch = ModSwitchPolicy::Lazy;
    } else if (std::strcmp(Argv[I], "--budget") == 0 && I + 1 < Argc) {
      Options.GaloisKeyBudget =
          static_cast<size_t>(std::max(0, std::atoi(Argv[++I])));
    } else if (std::strcmp(Argv[I], "--json") == 0) {
      Json = true;
    } else if (Argv[I][0] != '-' && !InputPath) {
      InputPath = Argv[I];
    } else {
      return usage("evac");
    }
  }
  if (!InputPath)
    return usage("evac");
  // Lint is the verification surface: the pass sandwich always runs here,
  // regardless of the build default or environment.
  Options.VerifyPasses = 1;

  Expected<std::unique_ptr<Program>> P = loadProgram(InputPath);
  if (!P) {
    std::fprintf(stderr, "evac: error: %s\n", P.message().c_str());
    return 1;
  }
  if (Status S = verifyProgram(**P); !S.ok()) {
    std::fprintf(stderr, "evac: lint error: %s\n", S.message().c_str());
    return 1;
  }
  Expected<CompiledProgram> CP = compile(**P, Options);
  if (!CP) {
    std::fprintf(stderr, "evac: compile error: %s\n", CP.message().c_str());
    return 1;
  }
  if (Status S = verifyCompiled(*CP); !S.ok()) {
    std::fprintf(stderr, "evac: lint error: %s\n", S.message().c_str());
    return 1;
  }

  AnalysisOptions AO;
  AO.SfBits = Options.SfBits;
  AO.PolyDegree = CP->PolyDegree;
  Expected<AnalysisResult> AR = analyzeProgram(*CP->Prog, AO);
  if (!AR) {
    std::fprintf(stderr, "evac: lint error: %s\n", AR.message().c_str());
    return 1;
  }
  std::vector<LintWarning> Warnings = lintCompiled(*CP, *AR);

  const Program &CProg = *CP->Prog;
  if (Json) {
    std::printf("{\n");
    std::printf("  \"program\": \"%s\",\n", jsonEscape(CProg.name()).c_str());
    std::printf("  \"vec_size\": %llu,\n",
                static_cast<unsigned long long>(CProg.vecSize()));
    std::printf("  \"instructions\": %zu,\n", CProg.instructionCount());
    std::printf("  \"mult_depth\": %zu,\n", CProg.multiplicativeDepth());
    std::printf("  \"poly_modulus_degree\": %llu,\n",
                static_cast<unsigned long long>(CP->PolyDegree));
    std::printf("  \"total_modulus_bits\": %d,\n", CP->TotalModulusBits);
    std::printf("  \"rotation_keys\": %zu,\n", CP->RotationSteps.size());
    std::printf("  \"verified\": true,\n");
    std::printf("  \"outputs\": [");
    for (size_t I = 0; I < CProg.outputs().size(); ++I) {
      const Node *Out = CProg.outputs()[I];
      const Node *Src = Out->parm(0);
      std::printf("%s\n    {\"name\": \"%s\", \"log_scale\": %.1f, "
                  "\"level\": %d, \"magnitude_bits\": %.1f, "
                  "\"noise_bits\": %.1f, \"precision_bits\": %.1f}",
                  I ? "," : "", jsonEscape(Out->name()).c_str(),
                  AR->LogScale[Src->id()], AR->Level[Src->id()],
                  AR->MagBits[Src->id()],
                  AR->OutputNoise.OutputNoiseBits[I],
                  AR->OutputNoise.OutputPrecisionBits[I]);
    }
    std::printf("\n  ],\n");
    std::printf("  \"warnings\": [");
    for (size_t I = 0; I < Warnings.size(); ++I)
      std::printf("%s\n    {\"kind\": \"%s\", \"node\": %llu, "
                  "\"message\": \"%s\"}",
                  I ? "," : "", lintKindName(Warnings[I].Kind),
                  static_cast<unsigned long long>(Warnings[I].NodeId),
                  jsonEscape(Warnings[I].Message).c_str());
    std::printf("%s  ]\n}\n", Warnings.empty() ? "" : "\n");
    return 0;
  }

  std::printf("program      : %s (vec_size %llu, %zu instructions, "
              "mult depth %zu)\n",
              CProg.name().c_str(),
              static_cast<unsigned long long>(CProg.vecSize()),
              CProg.instructionCount(), CProg.multiplicativeDepth());
  std::printf("verifier     : ok (input, pass sandwich, compiled program)\n");
  std::printf("poly degree  : N = %llu\n",
              static_cast<unsigned long long>(CP->PolyDegree));
  std::printf("modulus      : r = %zu primes, log2 Q = %d bits\n",
              CP->modulusLength(), CP->TotalModulusBits);
  std::printf("rotation keys: %zu\n", CP->RotationSteps.size());
  for (size_t I = 0; I < CProg.outputs().size(); ++I) {
    const Node *Out = CProg.outputs()[I];
    const Node *Src = Out->parm(0);
    std::printf("output @%-12s scale 2^%.0f, level %d, magnitude 2^%.1f, "
                "noise 2^%.1f, precision %.1f bits\n",
                Out->name().c_str(), AR->LogScale[Src->id()],
                AR->Level[Src->id()], AR->MagBits[Src->id()],
                AR->OutputNoise.OutputNoiseBits[I],
                AR->OutputNoise.OutputPrecisionBits[I]);
  }
  if (Warnings.empty()) {
    std::printf("warnings     : none\n");
  } else {
    std::printf("warnings     : %zu\n", Warnings.size());
    for (const LintWarning &W : Warnings)
      std::printf("  [%s] %%%llu: %s\n", lintKindName(W.Kind),
                  static_cast<unsigned long long>(W.NodeId),
                  W.Message.c_str());
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc >= 2 && std::strcmp(Argv[1], "run") == 0)
    return runCommand(Argc - 2, Argv + 2);
  if (Argc >= 2 && std::strcmp(Argv[1], "lint") == 0)
    return lintCommand(Argc - 2, Argv + 2);

  const char *InputPath = nullptr;
  const char *OutputPath = nullptr;
  bool Dump = false, Dot = false, ParamsJson = false;
  CompilerOptions Options = CompilerOptions::eva();
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "-o") == 0 && I + 1 < Argc) {
      OutputPath = Argv[++I];
    } else if (std::strcmp(Argv[I], "--chet") == 0) {
      Options = CompilerOptions::chet();
    } else if (std::strcmp(Argv[I], "--lazy") == 0) {
      Options.ModSwitch = ModSwitchPolicy::Lazy;
    } else if (std::strcmp(Argv[I], "--dump") == 0) {
      Dump = true;
    } else if (std::strcmp(Argv[I], "--dot") == 0) {
      Dot = true;
    } else if (std::strcmp(Argv[I], "--params-json") == 0) {
      ParamsJson = true;
    } else if (Argv[I][0] != '-' && !InputPath) {
      InputPath = Argv[I];
    } else {
      return usage(Argv[0]);
    }
  }
  if (!InputPath)
    return usage(Argv[0]);

  // Accept both formats (loadProgram tells a textual listing from wire
  // format by its header).
  Expected<std::unique_ptr<Program>> P = loadProgram(InputPath);
  if (!P) {
    std::fprintf(stderr, "evac: error: %s\n", P.message().c_str());
    return 1;
  }
  Expected<CompiledProgram> CP = compile(**P, Options);
  if (!CP) {
    std::fprintf(stderr, "evac: compile error: %s\n", CP.message().c_str());
    return 1;
  }

  if (ParamsJson) {
    // Machine-readable mode: the JSON document is the entire stdout.
    printParamsJson(**P, *CP);
    if (OutputPath) {
      if (Status S = saveProgram(*CP->Prog, OutputPath); !S.ok()) {
        std::fprintf(stderr, "evac: error: %s\n", S.message().c_str());
        return 1;
      }
    }
    return 0;
  }

  std::printf("program      : %s (vec_size %llu, %zu instructions, "
              "mult depth %zu)\n",
              (*P)->name().c_str(),
              static_cast<unsigned long long>((*P)->vecSize()),
              (*P)->instructionCount(), (*P)->multiplicativeDepth());
  std::printf("poly degree  : N = %llu\n",
              static_cast<unsigned long long>(CP->PolyDegree));
  std::printf("modulus      : r = %zu primes, log2 Q = %d bits\n",
              CP->modulusLength(), CP->TotalModulusBits);
  std::printf("bit sizes    : ");
  for (int B : CP->BitSizes)
    std::printf("%d ", B);
  std::printf("(special, chain..., headroom...)\n");
  std::printf("rotation keys: %zu step%s { ", CP->RotationSteps.size(),
              CP->RotationSteps.size() == 1 ? "" : "s");
  for (uint64_t S : CP->RotationSteps)
    std::printf("%llu ", static_cast<unsigned long long>(S));
  std::printf("}\n");

  NoiseEstimate E = estimateNoise(*CP->Prog, CP->PolyDegree);
  for (size_t I = 0; I < CP->Prog->outputs().size(); ++I)
    std::printf("output @%-12s estimated precision %.1f bits (desired "
                "scale 2^%.0f)\n",
                CP->Prog->outputs()[I]->name().c_str(),
                E.OutputPrecisionBits[I], CP->Prog->outputs()[I]->logScale());

  if (Dump)
    std::printf("%s", printProgram(*CP->Prog).c_str());
  if (Dot)
    std::printf("%s", printDot(*CP->Prog).c_str());
  if (OutputPath) {
    if (Status S = saveProgram(*CP->Prog, OutputPath); !S.ok()) {
      std::fprintf(stderr, "evac: error: %s\n", S.message().c_str());
      return 1;
    }
    std::printf("wrote        : %s\n", OutputPath);
  }
  return 0;
}
