//===- ProgramRegistry.cpp - Compiled-program registry -------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/service/ProgramRegistry.h"

#include "eva/api/ProgramSignature.h"
#include "eva/core/Analysis.h"
#include "eva/ir/Printer.h"
#include "eva/serialize/ProtoIO.h"
#include "eva/support/Log.h"

using namespace eva;

ParamSignature eva::signatureOf(const CompiledProgram &CP) {
  ParamSignature Sig;
  // The I/O contract is the typed api/ProgramSignature; the wire signature
  // adds what a client needs to build its context and keys.
  static_cast<ProgramSignature &>(Sig) = ProgramSignature::of(CP);
  Sig.PolyDegree = CP.PolyDegree;
  Sig.ContextBitSizes = CP.contextBitSizes();
  for (auto [Step, Primes] : CP.galoisKeyPrimes()) {
    Sig.RotationSteps.push_back(Step);
    Sig.RotationKeyPrimes.push_back(Primes);
  }
  Sig.Security = CP.Options.Security;
  Sig.NeedsRelin = countOps(*CP.Prog, OpCode::Relinearize) > 0;
  return Sig;
}

Status ProgramRegistry::registerSource(const Program &Source,
                                       const CompilerOptions &Options) {
  // Publish-time vetting: the registry is the deployment boundary, so a
  // structurally invalid program is refused here — before compilation —
  // independent of whether the pass sandwich is enabled for this build.
  if (Status S = verifyProgram(Source); !S.ok())
    return Status::error("program '" + Source.name() +
                         "' failed verification: " + S.message());
  Expected<CompiledProgram> CP = compile(Source, Options);
  if (!CP)
    return Status::error("compile failed for program '" + Source.name() +
                         "': " + CP.message());
  Expected<std::shared_ptr<CkksContext>> Ctx = CkksContext::createFromBitSizes(
      CP->PolyDegree, CP->contextBitSizes(), Options.Security);
  if (!Ctx)
    return Status::error("context for program '" + Source.name() +
                         "': " + Ctx.message());
  if (Ctx.value()->slotCount() < CP->Prog->vecSize())
    return Status::error("program '" + Source.name() +
                         "' vector size exceeds slot count");

  auto Entry = std::make_shared<RegisteredProgram>();
  Entry->Signature = signatureOf(*CP);

  // Lint the published program and surface the findings in the signature
  // clients fetch (and in the server log): warnings never block publication,
  // but operators and clients both get to see them.
  AnalysisOptions AO;
  AO.SfBits = Options.SfBits;
  AO.PolyDegree = CP->PolyDegree;
  if (Expected<AnalysisResult> AR = analyzeProgram(*CP->Prog, AO)) {
    for (const LintWarning &W : lintCompiled(*CP, *AR)) {
      std::string Line = std::string("[") + lintKindName(W.Kind) + "] %" +
                         std::to_string(W.NodeId) + ": " + W.Message;
      LogLine(LogLevel::Warn, "lint")
          .kv("program", Source.name())
          .kv("finding", Line);
      Entry->Signature.LintWarnings.push_back(std::move(Line));
    }
  }

  Entry->CP = std::move(*CP);
  Entry->Context = Ctx.value();

  LockGuard Lock(M);
  if (!Programs.emplace(Source.name(), std::move(Entry)).second)
    return Status::error("program '" + Source.name() + "' already registered");
  return Status::success();
}

Status ProgramRegistry::loadFromFile(const std::string &Path,
                                     const CompilerOptions &Options) {
  Expected<std::unique_ptr<Program>> P = loadProgram(Path);
  if (!P) // a parse error does not name the file; "cannot open" does
    return Status::error(P.message() == "cannot open " + Path
                             ? P.message()
                             : Path + ": " + P.message());
  return registerSource(**P, Options);
}

std::shared_ptr<const RegisteredProgram>
ProgramRegistry::find(const std::string &Name) const {
  LockGuard Lock(M);
  auto It = Programs.find(Name);
  return It == Programs.end() ? nullptr : It->second;
}

std::vector<ParamSignature> ProgramRegistry::signatures() const {
  LockGuard Lock(M);
  std::vector<ParamSignature> Out;
  Out.reserve(Programs.size());
  for (const auto &[Name, Entry] : Programs)
    Out.push_back(Entry->Signature);
  return Out;
}

size_t ProgramRegistry::size() const {
  LockGuard Lock(M);
  return Programs.size();
}
