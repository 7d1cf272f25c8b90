//===- Runner.cpp - One evaluation API over all backends -----------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/api/Runner.h"

#include "eva/runtime/ReferenceExecutor.h"
#include "eva/service/Client.h"
#include "eva/support/Timer.h"

#include <cmath>
#include <optional>
#include <utility>

using namespace eva;

namespace {

//===----------------------------------------------------------------------===//
// Reference backend
//===----------------------------------------------------------------------===//

class ReferenceRunner final : public Runner {
public:
  explicit ReferenceRunner(const Program &P)
      : Prog(P.clone()), Exec(*Prog), Sig(ProgramSignature::of(*Prog)) {}

  const ProgramSignature &signature() const override { return Sig; }
  const char *backend() const override { return "reference"; }

  Expected<Valuation> run(const Valuation &Inputs) override {
    // The executor's own run() performs the full signature validation;
    // only ciphertext entries must be rejected up front because toMap()
    // cannot represent them.
    for (const auto &[Name, Val] : Inputs)
      if (std::holds_alternative<Ciphertext>(Val))
        return Expected<Valuation>::error(
            "program '" + Sig.ProgramName + "': input '" + Name +
            "': this backend takes plain values, not ciphertexts");
    Timer T;
    Expected<std::map<std::string, std::vector<double>>> Out =
        Exec.run(Inputs.toMap());
    if (!Out)
      return Out.takeStatus();
    LastTiming = {};
    LastTiming.ComputeSeconds = T.seconds();
    Valuation Result;
    for (auto &[Name, Values] : *Out)
      Result.set(Name, std::move(Values));
    return Result;
  }

  Timing lastTiming() const override { return LastTiming; }

private:
  std::unique_ptr<Program> Prog;
  ReferenceExecutor Exec;
  ProgramSignature Sig;
  Timing LastTiming;
};

//===----------------------------------------------------------------------===//
// Local CKKS backend
//===----------------------------------------------------------------------===//

class LocalRunner final : public Runner {
public:
  /// Either \p OwnedIn holds the program (owning factory) or \p External
  /// points at a caller-kept one. The executor is built against the stored
  /// reference, so the owning flavour is safe after the move.
  LocalRunner(std::optional<CompiledProgram> OwnedIn,
              const CompiledProgram *External,
              std::shared_ptr<CkksWorkspace> WSIn,
              const LocalRunnerOptions &Opts)
      : Owned(std::move(OwnedIn)), CP(Owned ? *Owned : *External),
        WS(std::move(WSIn)), Exec(CP, WS, Opts),
        Sig(ProgramSignature::of(CP)) {}

  const ProgramSignature &signature() const override { return Sig; }
  const char *backend() const override { return "local"; }

  Expected<Valuation> run(const Valuation &Inputs) override {
    Timer EncryptT;
    Expected<SealedRequest> Sealed = sealInputs(*WS, Sig, Inputs);
    if (!Sealed)
      return Sealed.takeStatus();
    LastTiming = {};
    LastTiming.EncryptSeconds = EncryptT.seconds();

    Timer ComputeT;
    std::map<std::string, Ciphertext> Encrypted = Exec.run(Sealed->Inputs);
    LastTiming.ComputeSeconds = ComputeT.seconds();

    Timer DecryptT;
    Valuation Out;
    if (WS->Dec) {
      for (auto &[Name, Values] : decryptOutputs(*WS, Sig, Encrypted))
        Out.set(Name, std::move(Values));
    } else { // evaluation-only workspace: hand the ciphertexts back
      for (auto &[Name, Ct] : Encrypted)
        Out.set(Name, std::move(Ct));
    }
    LastTiming.DecryptSeconds = DecryptT.seconds();
    return Out;
  }

  Timing lastTiming() const override { return LastTiming; }
  const ExecutionStats *executionStats() const override {
    return &Exec.stats();
  }

private:
  std::optional<CompiledProgram> Owned;
  const CompiledProgram &CP;
  std::shared_ptr<CkksWorkspace> WS;
  CkksExecutor Exec;
  ProgramSignature Sig;
  Timing LastTiming;
};

//===----------------------------------------------------------------------===//
// Remote backend
//===----------------------------------------------------------------------===//

class RemoteRunner final : public Runner {
public:
  RemoteRunner(std::unique_ptr<Transport> OwnedT, Transport &T)
      : OwnedT(std::move(OwnedT)), Client(T) {}

  ~RemoteRunner() override {
    // Best-effort teardown: a destructor has nowhere to propagate a close
    // failure, and the server reaps abandoned sessions anyway.
    if (Client.hasSession())
      (void)Client.closeSession();
  }

  Status open(const std::string &ProgramName,
              const RemoteRunnerOptions &Opts) {
    Expected<std::vector<ParamSignature>> Sigs = Client.listPrograms();
    if (!Sigs)
      return Sigs.takeStatus();
    const ParamSignature *Wire = nullptr;
    for (const ParamSignature &S : *Sigs)
      if (S.ProgramName == ProgramName)
        Wire = &S;
    if (!Wire) {
      std::string Served;
      for (const ParamSignature &S : *Sigs)
        Served += (Served.empty() ? "" : ", ") + S.ProgramName;
      return Status::error("server does not serve '" + ProgramName +
                           "' (served: " + (Served.empty() ? "none" : Served) +
                           ")");
    }
    if (Status S =
            Client.openSession(*Wire, Opts.KeySeed, Opts.ReproducibleSeeds);
        !S.ok())
      return S;
    return Status::success();
  }

  const ProgramSignature &signature() const override {
    return Client.signature();
  }
  const char *backend() const override { return "remote"; }

  Expected<Valuation> run(const Valuation &Inputs) override {
    Timer EncryptT;
    Expected<SealedRequest> Req = Client.encryptInputs(Inputs);
    if (!Req)
      return Req.takeStatus();
    LastTiming = {};
    LastTiming.EncryptSeconds = EncryptT.seconds();

    Timer ComputeT;
    Expected<std::map<std::string, Ciphertext>> Outs = Client.submit(*Req);
    if (!Outs)
      return Outs.takeStatus();
    LastTiming.ComputeSeconds = ComputeT.seconds();

    Timer DecryptT;
    Valuation Out;
    for (auto &[Name, Values] : Client.decryptOutputs(*Outs))
      Out.set(Name, std::move(Values));
    LastTiming.DecryptSeconds = DecryptT.seconds();
    return Out;
  }

  Timing lastTiming() const override { return LastTiming; }
  uint64_t lastRequestId() const override { return Client.lastRequestId(); }

private:
  std::unique_ptr<Transport> OwnedT;
  ServiceClient Client;
  Timing LastTiming;
};

} // namespace

//===----------------------------------------------------------------------===//
// Sealing and decryption
//===----------------------------------------------------------------------===//

Expected<SealedRequest> eva::sealInputs(const CkksWorkspace &WS,
                                        const ProgramSignature &Sig,
                                        const Valuation &Inputs) {
  if (Status S = validateInputs(Sig, Inputs); !S.ok())
    return S;
  SealedRequest Req;
  for (const IoSpec &Spec : Sig.Inputs) {
    if (!Spec.isCipher()) {
      Req.Inputs.Plain.emplace(Spec.Name, Inputs.plainVec(Spec.Name));
      continue;
    }
    if (const auto *Ct = std::get_if<Ciphertext>(Inputs.find(Spec.Name))) {
      // Pre-encrypted input: ships as a full (c0, c1) pair — no expansion
      // seed is known for it.
      Req.Inputs.Cipher.emplace(Spec.Name, *Ct);
      continue;
    }
    if (!WS.Enc || !WS.KeyGen)
      return Expected<SealedRequest>::error(
          "program '" + Sig.ProgramName + "': input '" + Spec.Name +
          "': this evaluation-only workspace cannot encrypt; supply a "
          "ciphertext");
    Plaintext Pt;
    WS.Encoder->encode(Inputs.plainVec(Spec.Name), std::exp2(Spec.LogScale),
                       WS.Context->dataPrimeCount(), Pt);
    uint64_t C1Seed = 0;
    Req.Inputs.Cipher.emplace(
        Spec.Name,
        WS.Enc->encryptSymmetric(Pt, WS.KeyGen->secretKey(), C1Seed));
    Req.C1Seeds.emplace(Spec.Name, C1Seed);
  }
  return Req;
}

std::map<std::string, std::vector<double>>
eva::decryptOutputs(const CkksWorkspace &WS, const ProgramSignature &Sig,
                    const std::map<std::string, Ciphertext> &Outputs) {
  if (!WS.Dec)
    fatalError("program '" + Sig.ProgramName +
               "': this evaluation-only workspace cannot decrypt");
  std::map<std::string, std::vector<double>> Out;
  for (const auto &[Name, Ct] : Outputs) {
    std::vector<double> Slots = WS.Encoder->decode(WS.Dec->decrypt(Ct));
    Slots.resize(Sig.VecSize);
    Out.emplace(Name, std::move(Slots));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Factories
//===----------------------------------------------------------------------===//

std::unique_ptr<Runner> Runner::reference(const Program &P) {
  return std::make_unique<ReferenceRunner>(P);
}

Expected<std::unique_ptr<Runner>>
Runner::local(CompiledProgram CP, const LocalRunnerOptions &Opts) {
  using Result = Expected<std::unique_ptr<Runner>>;
  Expected<std::shared_ptr<CkksWorkspace>> WS =
      CkksWorkspace::createClient(CP, Opts.Seed, Opts.ReproducibleSeeds);
  if (!WS)
    return WS.takeStatus();
  return Result(std::make_unique<LocalRunner>(
      std::optional<CompiledProgram>(std::move(CP)), nullptr,
      std::move(WS.value()), Opts));
}

Expected<std::unique_ptr<Runner>>
Runner::local(const CompiledProgram &CP, std::shared_ptr<CkksWorkspace> WS,
              const LocalRunnerOptions &Opts) {
  using Result = Expected<std::unique_ptr<Runner>>;
  if (!WS)
    return Result::error("local runner needs a workspace");
  return Result(
      std::make_unique<LocalRunner>(std::nullopt, &CP, std::move(WS), Opts));
}

Expected<std::unique_ptr<Runner>>
Runner::remote(std::unique_ptr<Transport> T, const std::string &ProgramName,
               const RemoteRunnerOptions &Opts) {
  using Result = Expected<std::unique_ptr<Runner>>;
  if (!T)
    return Result::error("remote runner needs a transport");
  Transport &Ref = *T;
  auto R = std::make_unique<RemoteRunner>(std::move(T), Ref);
  if (Status S = R->open(ProgramName, Opts); !S.ok())
    return S;
  return Result(std::move(R));
}

Expected<std::unique_ptr<Runner>>
Runner::remote(Transport &T, const std::string &ProgramName,
               const RemoteRunnerOptions &Opts) {
  using Result = Expected<std::unique_ptr<Runner>>;
  auto R = std::make_unique<RemoteRunner>(nullptr, T);
  if (Status S = R->open(ProgramName, Opts); !S.ok())
    return S;
  return Result(std::move(R));
}
