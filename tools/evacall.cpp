//===- evacall.cpp - The encrypted-compute client tool --------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
// Drives a running evaserve from the command line: lists served programs,
// or runs the full client loop through the unified api/Runner surface —
// fetch the program's parameter signature, derive the matching context,
// generate keys, upload the evaluation keys (seed-compressed), encrypt the
// inputs symmetrically, submit, and decrypt the results. The secret key
// never leaves this process.
//
// Two observability subcommands ride along:
//
//   evacall stats --port N [--metrics-text]
//     scrapes the live server's metrics (GET_METRICS) and prints either a
//     human summary (request counts, error causes, latency percentiles) or
//     the raw Prometheus text exposition.
//
//   evacall audit-verify --file prog.evabin (LINE | --audit-file F [--req N])
//                        [--seed S] [--in name=v1,...] [--chet] [--lazy]
//     re-executes one transcript-hash audit line locally (ReproducibleSeeds
//     bit-identity, see eva/service/Audit.h) and compares the input/output
//     hashes byte-for-byte. Exit 0 on match, 1 on mismatch.
//
// Usage:
//   evacall --port N --list
//   evacall --port N --program NAME [--in name=v1,v2,...]... [--seed S]
//           [--show K] [--reproducible]
//   evacall stats --port N [--metrics-text]
//   evacall audit-verify --file prog.evabin ...
//
//===----------------------------------------------------------------------===//

#include "eva/api/ProgramSignature.h"
#include "eva/api/Runner.h"
#include "eva/serialize/ProtoIO.h"
#include "eva/service/Audit.h"
#include "eva/service/Client.h"
#include "eva/support/Random.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

using namespace eva;

namespace {

int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s --port N --list\n"
               "       %s --port N --program NAME [--in name=v1,v2,...]... "
               "[--seed S] [--show K] [--reproducible]\n"
               "       %s stats --port N [--metrics-text]\n"
               "       %s audit-verify --file prog.evabin (LINE | "
               "--audit-file F [--req N])\n"
               "                       [--seed S] [--in name=v1,...] "
               "[--chet] [--lazy]\n"
               "  --list           print the served programs and their "
               "parameters\n"
               "  --program NAME   open a session and run NAME\n"
               "  --in name=list   comma-separated values for one input "
               "(default: uniform random in [-1,1])\n"
               "  --seed S         key/input RNG seed (default 1)\n"
               "  --show K         print only the first K slots of each "
               "output (default 8)\n"
               "  --reproducible   derive all encryption randomness from "
               "--seed (bit-reproducible runs)\n"
               "  --metrics-text   print raw Prometheus text exposition "
               "instead of the summary\n"
               "  --file PATH      (audit-verify) the .evabin the server "
               "served, compiled with the same policy flags\n"
               "  --audit-file F   (audit-verify) read the audit line from "
               "F; --req N selects a request id (default: last line)\n",
               Prog, Prog, Prog, Prog);
  return 1;
}

/// \p Given plus reproducible uniform noise in [-1, 1] for every input of
/// \p Sig it leaves out, drawn from \p Seed in signature order (given
/// names draw nothing). `evacall --program` sends these inputs and
/// `audit-verify` regenerates them from the same seed.
Valuation fillInputs(const ProgramSignature &Sig, Valuation Given,
                     uint64_t Seed) {
  RandomSource Rng(Seed * 7919 + 1);
  for (const IoSpec &In : Sig.Inputs) {
    if (Given.has(In.Name))
      continue;
    std::vector<double> V(Sig.VecSize);
    for (double &X : V)
      X = Rng.uniformReal(-1, 1);
    Given.set(In.Name, std::move(V));
  }
  return Given;
}

//===----------------------------------------------------------------------===//
// evacall stats
//===----------------------------------------------------------------------===//

void printHistogramLine(const HistogramSnapshot &H) {
  std::printf("  %-44s n=%-6llu mean=%.4gs p50=%.4gs p95=%.4gs p99=%.4gs\n",
              H.Name.c_str(), static_cast<unsigned long long>(H.Count),
              H.mean(), H.quantile(0.50), H.quantile(0.95), H.quantile(0.99));
}

int statsMain(int Argc, char **Argv) {
  int Port = -1;
  bool Raw = false;
  for (int I = 2; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--port") == 0 && I + 1 < Argc)
      Port = std::atoi(Argv[++I]);
    else if (std::strcmp(Argv[I], "--metrics-text") == 0)
      Raw = true;
    else
      return usage(Argv[0]);
  }
  if (Port <= 0 || Port > 65535)
    return usage(Argv[0]);

  Expected<std::unique_ptr<SocketTransport>> T =
      SocketTransport::connectLoopback(static_cast<uint16_t>(Port));
  if (!T) {
    std::fprintf(stderr, "evacall: error: %s\n", T.message().c_str());
    return 1;
  }
  ServiceClient Client(**T);
  Expected<MetricsSnapshot> Snap = Client.getMetrics();
  if (!Snap) {
    std::fprintf(stderr, "evacall: error: %s\n", Snap.message().c_str());
    return 1;
  }

  if (Raw) {
    std::fputs(Snap->renderText().c_str(), stdout);
    return 0;
  }

  // Human summary: the catalog is small enough to show counters and gauges
  // in full; histograms get count/mean plus the operator percentiles.
  std::printf("counters:\n");
  for (const CounterSnapshot &C : Snap->Counters)
    std::printf("  %-44s %llu\n", C.Name.c_str(),
                static_cast<unsigned long long>(C.Value));
  std::printf("gauges:\n");
  for (const GaugeSnapshot &G : Snap->Gauges)
    std::printf("  %-44s %lld\n", G.Name.c_str(),
                static_cast<long long>(G.Value));
  std::printf("latency:\n");
  for (const HistogramSnapshot &H : Snap->Histograms)
    printHistogramLine(H);
  return 0;
}

//===----------------------------------------------------------------------===//
// evacall audit-verify
//===----------------------------------------------------------------------===//

/// Load + compile exactly as evaserve's registry does (text or proto
/// source), so the replayed DAG is the one the server ran.
Expected<CompiledProgram> loadCompiled(const char *Path,
                                       const CompilerOptions &Options) {
  Expected<std::unique_ptr<Program>> P = loadProgram(Path);
  if (!P) // a parse error does not name the file; "cannot open" does
    return Status::error(P.message() == std::string("cannot open ") + Path
                             ? P.message()
                             : std::string(Path) + ": " + P.message());
  return compile(**P, Options);
}

int auditVerifyMain(int Argc, char **Argv) {
  const char *ProgramFile = nullptr;
  const char *AuditFile = nullptr;
  const char *InlineLine = nullptr;
  uint64_t WantReq = 0;
  uint64_t Seed = 1;
  CompilerOptions Options = CompilerOptions::eva();
  Valuation GivenInputs;

  for (int I = 2; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--file") == 0 && I + 1 < Argc) {
      ProgramFile = Argv[++I];
    } else if (std::strcmp(Argv[I], "--audit-file") == 0 && I + 1 < Argc) {
      AuditFile = Argv[++I];
    } else if (std::strcmp(Argv[I], "--req") == 0 && I + 1 < Argc) {
      WantReq = std::strtoull(Argv[++I], nullptr, 10);
    } else if (std::strcmp(Argv[I], "--seed") == 0 && I + 1 < Argc) {
      Seed = std::strtoull(Argv[++I], nullptr, 10);
    } else if (std::strcmp(Argv[I], "--in") == 0 && I + 1 < Argc) {
      if (!parseInlineInput(Argv[++I], GivenInputs))
        return usage(Argv[0]);
    } else if (std::strcmp(Argv[I], "--chet") == 0) {
      Options = CompilerOptions::chet();
    } else if (std::strcmp(Argv[I], "--lazy") == 0) {
      Options.ModSwitch = ModSwitchPolicy::Lazy;
    } else if (Argv[I][0] != '-' && !InlineLine) {
      InlineLine = Argv[I];
    } else {
      return usage(Argv[0]);
    }
  }
  if (!ProgramFile || (!InlineLine && !AuditFile) || (InlineLine && AuditFile))
    return usage(Argv[0]);

  // Resolve the audit line: given inline, or fished out of the audit file
  // (matching request id, or the last parseable line).
  std::string Line;
  if (InlineLine) {
    Line = InlineLine;
  } else {
    std::ifstream In(AuditFile);
    if (!In) {
      std::fprintf(stderr, "evacall: error: cannot open %s\n", AuditFile);
      return 1;
    }
    std::string Candidate;
    for (std::string L; std::getline(In, L);) {
      Expected<AuditRecord> R = parseAuditLine(L);
      if (!R)
        continue; // tolerate interleaved non-audit output
      if (WantReq == 0 || R->RequestId == WantReq)
        Candidate = L;
      if (WantReq != 0 && R->RequestId == WantReq)
        break;
    }
    if (Candidate.empty()) {
      std::fprintf(stderr,
                   "evacall: error: no matching audit line in %s%s\n",
                   AuditFile, WantReq ? " (check --req)" : "");
      return 1;
    }
    Line = Candidate;
  }

  Expected<AuditRecord> Rec = parseAuditLine(Line);
  if (!Rec) {
    std::fprintf(stderr, "evacall: error: %s\n", Rec.message().c_str());
    return 1;
  }

  Expected<CompiledProgram> CP = loadCompiled(ProgramFile, Options);
  if (!CP) {
    std::fprintf(stderr, "evacall: error: %s\n", CP.message().c_str());
    return 1;
  }

  // Reconstruct the request's plaintext inputs: anything not given on the
  // command line is regenerated as the submitting `evacall --program` run
  // generated it.
  Valuation Inputs =
      fillInputs(ProgramSignature::of(*CP), std::move(GivenInputs), Seed);
  Expected<AuditReplayResult> Replay =
      auditReplay(*Rec, *CP, Seed, Inputs.toMap());
  if (!Replay) {
    std::fprintf(stderr, "evacall: error: %s\n", Replay.message().c_str());
    return 1;
  }

  std::printf("req=%llu program=%s\n",
              static_cast<unsigned long long>(Rec->RequestId),
              Rec->Program.c_str());
  std::printf("inputs:  recorded=%016llx replayed=%016llx %s\n",
              static_cast<unsigned long long>(Rec->InputsHash),
              static_cast<unsigned long long>(Replay->InputsHash),
              Replay->InputsMatch ? "MATCH" : "MISMATCH");
  std::printf("outputs: recorded=%016llx replayed=%016llx %s\n",
              static_cast<unsigned long long>(Rec->OutputsHash),
              static_cast<unsigned long long>(Replay->OutputsHash),
              Replay->OutputsMatch ? "MATCH" : "MISMATCH");
  if (Replay->InputsMatch && Replay->OutputsMatch) {
    std::printf("audit-verify: OK (transcript reproduced bit-for-bit)\n");
    return 0;
  }
  if (!Replay->InputsMatch)
    std::printf("audit-verify: FAILED — input hash differs (wrong seed, "
                "wrong --in values, or tampered request)\n");
  else
    std::printf("audit-verify: FAILED — output hash differs (server ran a "
                "different program or tampered with the result)\n");
  return 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc > 1 && std::strcmp(Argv[1], "stats") == 0)
    return statsMain(Argc, Argv);
  if (Argc > 1 && std::strcmp(Argv[1], "audit-verify") == 0)
    return auditVerifyMain(Argc, Argv);

  int Port = -1;
  bool List = false;
  bool Reproducible = false;
  const char *ProgramName = nullptr;
  uint64_t Seed = 1;
  size_t Show = 8;
  Valuation GivenInputs;

  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--port") == 0 && I + 1 < Argc) {
      Port = std::atoi(Argv[++I]);
    } else if (std::strcmp(Argv[I], "--list") == 0) {
      List = true;
    } else if (std::strcmp(Argv[I], "--program") == 0 && I + 1 < Argc) {
      ProgramName = Argv[++I];
    } else if (std::strcmp(Argv[I], "--in") == 0 && I + 1 < Argc) {
      if (!parseInlineInput(Argv[++I], GivenInputs))
        return usage(Argv[0]);
    } else if (std::strcmp(Argv[I], "--seed") == 0 && I + 1 < Argc) {
      Seed = static_cast<uint64_t>(std::strtoull(Argv[++I], nullptr, 10));
    } else if (std::strcmp(Argv[I], "--show") == 0 && I + 1 < Argc) {
      Show = static_cast<size_t>(std::max(1, std::atoi(Argv[++I])));
    } else if (std::strcmp(Argv[I], "--reproducible") == 0) {
      Reproducible = true;
    } else {
      return usage(Argv[0]);
    }
  }
  if (Port <= 0 || Port > 65535 || (!List && !ProgramName))
    return usage(Argv[0]);

  Expected<std::unique_ptr<SocketTransport>> T =
      SocketTransport::connectLoopback(static_cast<uint16_t>(Port));
  if (!T) {
    std::fprintf(stderr, "evacall: error: %s\n", T.message().c_str());
    return 1;
  }

  if (List) {
    ServiceClient Client(**T);
    Expected<std::vector<ParamSignature>> Sigs = Client.listPrograms();
    if (!Sigs) {
      std::fprintf(stderr, "evacall: error: %s\n", Sigs.message().c_str());
      return 1;
    }
    for (const ParamSignature &Sig : *Sigs) {
      std::printf("%s: N=%llu vec_size=%llu primes=%zu security=%s%s\n",
                  Sig.ProgramName.c_str(),
                  static_cast<unsigned long long>(Sig.PolyDegree),
                  static_cast<unsigned long long>(Sig.VecSize),
                  Sig.ContextBitSizes.size(),
                  Sig.Security == SecurityLevel::TC128 ? "tc128" : "none",
                  Sig.NeedsRelin ? " relin" : "");
      for (const IoSpec &In : Sig.Inputs)
        std::printf("  input  %-16s scale 2^%.0f %s\n", In.Name.c_str(),
                    In.LogScale, In.isCipher() ? "(encrypted)" : "(plain)");
      for (const IoSpec &Out : Sig.Outputs)
        std::printf("  output %-16s scale 2^%.0f\n", Out.Name.c_str(),
                    Out.LogScale);
    }
    return 0;
  }

  // The full client loop behind one typed call: Runner::remote fetches the
  // signature, derives the context, generates keys, and opens the session.
  RemoteRunnerOptions Opts;
  Opts.KeySeed = Seed;
  Opts.ReproducibleSeeds = Reproducible;
  Expected<std::unique_ptr<Runner>> R =
      Runner::remote(std::move(*T), ProgramName, Opts);
  if (!R) {
    std::fprintf(stderr, "evacall: error: %s\n", R.message().c_str());
    return 1;
  }
  std::printf("session opened for '%s'\n", ProgramName);

  Expected<Valuation> Out =
      (*R)->run(fillInputs((*R)->signature(), std::move(GivenInputs), Seed));
  if (!Out) {
    std::fprintf(stderr, "evacall: error: %s\n", Out.message().c_str());
    return 1;
  }
  if (uint64_t Req = (*R)->lastRequestId())
    std::printf("request id %llu\n", static_cast<unsigned long long>(Req));
  for (const auto &[Name, Val] : *Out) {
    (void)Val;
    const std::vector<double> &Values = Out->vector(Name);
    std::printf("output @%s:", Name.c_str());
    for (size_t I = 0; I < Values.size() && I < Show; ++I)
      std::printf(" %.6g", Values[I]);
    if (Values.size() > Show)
      std::printf(" ... (%zu slots)", Values.size());
    std::printf("\n");
  }
  return 0;
}
