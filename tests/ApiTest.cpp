//===- ApiTest.cpp - The unified typed evaluation API -------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The api/ subsystem's contract tests: ProgramSignature derivation (and
/// its agreement with the service's wire-level ParamSignature), Valuation
/// validation diagnostics (missing/extra/misnamed inputs, wrong lengths,
/// non-finite values, wrong ciphertext scale/level), and the backend
/// interchangeability guarantee — the same program and inputs produce
/// bit-identical outputs on the local serial, local parallel, and remote
/// service backends (reference agrees within the CKKS error bound) — and
/// the per-run cost ledger every local run reports through
/// executionStats().
///
//===----------------------------------------------------------------------===//

#include "eva/api/Runner.h"
#include "eva/frontend/Expr.h"
#include "eva/runtime/ReferenceExecutor.h"
#include "eva/service/Client.h"
#include "eva/service/ProgramRegistry.h"
#include "eva/service/Server.h"

#include <gtest/gtest.h>

#include <barrier>
#include <cmath>
#include <limits>
#include <set>
#include <thread>

using namespace eva;

namespace {

/// A multi-kernel workload exercising every evaluation-key kind: a
/// relinearized square, a rotation, a plain operand, and a slot reduction,
/// tagged as three frontend kernels (so the kernel schedule chunks it).
std::unique_ptr<Program> makeMultiKernelProgram() {
  ProgramBuilder B("api_demo", 64);
  Expr X = B.inputCipher("x", 30);
  Expr W = B.inputPlain("w", 20);
  Expr Sq = B.inKernel([&] { return X * X + X; });
  Expr Rot = B.inKernel([&] { return (Sq << 2) * W; });
  Expr Red = B.inKernel([&] { return B.sumSlots(X * X) * 0.01; });
  B.output("out", Rot + X, 30);
  B.output("sum", Red, 30);
  return B.take();
}

/// Rotations at two levels: step 1 rotates the fresh input, at every data
/// prime, and step 2 a rescaled cube, one prime lower, so its Galois key is
/// trimmed. Same output names as api_demo.
std::unique_ptr<Program> makeTwoLevelRotationProgram() {
  ProgramBuilder B("two_levels", 64);
  Expr X = B.inputCipher("x", 30);
  Expr Cube = X * X * X;
  B.output("out", ((X << 1) * X) * X, 30);
  B.output("sum", (Cube << 2) + Cube, 30);
  return B.take();
}

CompiledProgram compiled() {
  std::unique_ptr<Program> P = makeMultiKernelProgram();
  Expected<CompiledProgram> CP = compile(*P);
  EXPECT_TRUE(CP.ok()) << (CP.ok() ? "" : CP.message());
  return std::move(*CP);
}

std::vector<double> ramp(size_t N, double Scale) {
  std::vector<double> V(N);
  for (size_t I = 0; I < N; ++I)
    V[I] = Scale * (static_cast<double>(I % 16) - 8) / 8.0;
  return V;
}

//===----------------------------------------------------------------------===//
// ProgramSignature
//===----------------------------------------------------------------------===//

TEST(ProgramSignature, DerivedFromCompiledProgram) {
  CompiledProgram CP = compiled();
  ProgramSignature Sig = ProgramSignature::of(CP);
  EXPECT_EQ(Sig.ProgramName, "api_demo");
  EXPECT_EQ(Sig.VecSize, 64u);
  ASSERT_EQ(Sig.Inputs.size(), 2u);
  EXPECT_EQ(Sig.Inputs[0].Name, "x");
  EXPECT_TRUE(Sig.Inputs[0].isCipher());
  EXPECT_EQ(Sig.Inputs[0].LogScale, 30);
  // Fresh cipher inputs sit at the full data chain.
  EXPECT_EQ(Sig.Inputs[0].Level, CP.BitSizes.size() - 1);
  EXPECT_EQ(Sig.Inputs[1].Name, "w");
  EXPECT_FALSE(Sig.Inputs[1].isCipher());
  EXPECT_EQ(Sig.Inputs[1].Level, 0u); // plain inputs have no level
  ASSERT_EQ(Sig.Outputs.size(), 2u);
  // Output order after compilation is not contractual; both are present.
  EXPECT_NE(Sig.findOutput("out"), nullptr);
  EXPECT_NE(Sig.findOutput("sum"), nullptr);
  EXPECT_NE(Sig.findInput("x"), nullptr);
  EXPECT_EQ(Sig.findInput("nope"), nullptr);
  EXPECT_NE(Sig.findOutput("sum"), nullptr);
}

TEST(ProgramSignature, AgreesWithServiceParamSignature) {
  // The service's wire signature carries the same typed I/O contract: the
  // signature a client decodes from the server's bytes is what the server
  // derived, apart from the one fact the wire drops (a plain input's
  // scalar-or-vector type).
  CompiledProgram CP = compiled();
  ProgramSignature Direct = ProgramSignature::of(CP);
  Expected<ParamSignature> ViaWire =
      deserializeParamSignature(serializeParamSignature(signatureOf(CP)));
  ASSERT_TRUE(ViaWire.ok()) << (ViaWire.ok() ? "" : ViaWire.message());
  EXPECT_EQ(Direct.ProgramName, ViaWire->ProgramName);
  EXPECT_EQ(Direct.VecSize, ViaWire->VecSize);
  ASSERT_EQ(Direct.Inputs.size(), ViaWire->Inputs.size());
  for (size_t I = 0; I < Direct.Inputs.size(); ++I) {
    EXPECT_EQ(Direct.Inputs[I].Name, ViaWire->Inputs[I].Name);
    EXPECT_EQ(Direct.Inputs[I].Type == ValueType::Cipher,
              ViaWire->Inputs[I].Type == ValueType::Cipher);
    EXPECT_EQ(Direct.Inputs[I].LogScale, ViaWire->Inputs[I].LogScale);
    EXPECT_EQ(Direct.Inputs[I].Level, ViaWire->Inputs[I].Level);
  }
  ASSERT_EQ(Direct.Outputs.size(), ViaWire->Outputs.size());
  for (size_t I = 0; I < Direct.Outputs.size(); ++I) {
    EXPECT_EQ(Direct.Outputs[I].Name, ViaWire->Outputs[I].Name);
    EXPECT_EQ(Direct.Outputs[I].LogScale, ViaWire->Outputs[I].LogScale);
    EXPECT_EQ(Direct.Outputs[I].Level, ViaWire->Outputs[I].Level);
  }
}

TEST(ProgramSignature, UncompiledProgramHasNoLevels) {
  std::unique_ptr<Program> P = makeMultiKernelProgram();
  ProgramSignature Sig = ProgramSignature::of(*P);
  ASSERT_EQ(Sig.Inputs.size(), 2u);
  EXPECT_EQ(Sig.Inputs[0].Level, 0u);
}

//===----------------------------------------------------------------------===//
// Valuation
//===----------------------------------------------------------------------===//

TEST(Valuation, TypedAccessors) {
  Valuation V;
  V.set("vec", {1.0, 2.0}).set("scl", 3.5);
  EXPECT_TRUE(V.isVector("vec"));
  EXPECT_TRUE(V.isScalar("scl"));
  EXPECT_FALSE(V.isCipher("vec"));
  EXPECT_FALSE(V.has("absent"));
  EXPECT_EQ(V.find("absent"), nullptr);
  EXPECT_EQ(V.vector("vec")[1], 2.0);
  EXPECT_EQ(V.scalar("scl"), 3.5);
  EXPECT_EQ(V.plainVec("scl"), std::vector<double>{3.5});
  std::map<std::string, std::vector<double>> M = V.toMap();
  EXPECT_EQ(M.at("vec").size(), 2u);
  EXPECT_EQ(M.at("scl"), std::vector<double>{3.5});
  Valuation W = Valuation::fromMap(M);
  EXPECT_TRUE(W.isVector("scl")); // map form loses the scalar tag, fine
  EXPECT_EQ(W.size(), 2u);
}

struct ValidationFixture : public ::testing::Test {
  ValidationFixture() : CP(compiled()), Sig(ProgramSignature::of(CP)) {}

  /// Expects validation to fail with every listed fragment in the message.
  void expectProblems(const Valuation &V,
                      std::initializer_list<const char *> Fragments) {
    Status S = validateInputs(Sig, V);
    ASSERT_FALSE(S.ok()) << "validation unexpectedly passed";
    for (const char *F : Fragments)
      EXPECT_NE(S.message().find(F), std::string::npos)
          << "missing fragment '" << F << "' in: " << S.message();
  }

  Valuation good() {
    return Valuation().set("x", ramp(64, 0.5)).set("w", ramp(64, 1.0));
  }

  CompiledProgram CP;
  ProgramSignature Sig;
};

TEST_F(ValidationFixture, AcceptsWellFormedInputs) {
  EXPECT_TRUE(validateInputs(Sig, good()).ok());
  // Shorter vectors that divide vec_size replicate; scalars broadcast.
  EXPECT_TRUE(
      validateInputs(Sig, Valuation().set("x", {1.0, 2.0}).set("w", 0.5))
          .ok());
}

TEST_F(ValidationFixture, MissingInput) {
  expectProblems(Valuation().set("x", {1.0}), {"missing plain input 'w'"});
}

TEST_F(ValidationFixture, ExtraInput) {
  expectProblems(good().set("bogus_name", 1.0),
                 {"'bogus_name' (scalar) is not an input"});
}

TEST_F(ValidationFixture, MisnamedInputGetsSuggestion) {
  Valuation V = Valuation().set("xx", ramp(64, 0.5)).set("w", 0.5);
  expectProblems(V, {"missing cipher input 'x'", "did you mean 'x'?"});
}

TEST_F(ValidationFixture, WrongLength) {
  expectProblems(good().set("x", ramp(3, 0.5)),
                 {"length 3 does not divide vec_size 64"});
  expectProblems(good().set("x", ramp(100, 0.5)),
                 {"length 100 exceeds vec_size 64"});
  expectProblems(good().set("w", std::vector<double>{}), {"is empty"});
}

TEST_F(ValidationFixture, NonFiniteValues) {
  Valuation V = good();
  std::vector<double> X = ramp(64, 0.5);
  X[7] = std::numeric_limits<double>::quiet_NaN();
  V.set("x", std::move(X));
  expectProblems(V, {"non-finite value at slot 7"});
}

TEST_F(ValidationFixture, EveryProblemReportedAtOnce) {
  Valuation V;
  V.set("xx", ramp(3, 0.5));
  V.set("w", std::numeric_limits<double>::infinity());
  Status S = validateInputs(Sig, V);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.message().find("missing cipher input 'x'"), std::string::npos)
      << S.message();
  EXPECT_NE(S.message().find("non-finite"), std::string::npos) << S.message();
  EXPECT_NE(S.message().find("'xx'"), std::string::npos) << S.message();
}

TEST_F(ValidationFixture, CiphertextScaleAndLevelChecked) {
  Expected<std::shared_ptr<CkksWorkspace>> WS =
      CkksWorkspace::createClient(CP, 11);
  ASSERT_TRUE(WS.ok()) << WS.message();
  CkksWorkspace &W = **WS;

  auto Encrypt = [&](double LogScale, size_t Primes) {
    Plaintext Pt;
    W.Encoder->encode(ramp(64, 0.5), std::exp2(LogScale), Primes, Pt);
    uint64_t Seed = 0;
    return W.Enc->encryptSymmetric(Pt, W.KeyGen->secretKey(), Seed);
  };

  size_t FullChain = W.Context->dataPrimeCount();
  // Correct scale and level validates.
  Valuation Good = good().set("x", Encrypt(30, FullChain));
  EXPECT_TRUE(validateInputs(Sig, Good).ok());
  // Wrong scale.
  expectProblems(good().set("x", Encrypt(31, FullChain)),
                 {"scale does not match the program's 2^30"});
  // Wrong level.
  ASSERT_GT(FullChain, 1u);
  expectProblems(good().set("x", Encrypt(30, FullChain - 1)),
                 {"expected the full data chain"});
  // Ciphertext supplied for a plain input.
  expectProblems(good().set("w", Encrypt(20, FullChain)),
                 {"is plain but a ciphertext was supplied"});
  // Backends without ciphertexts (the reference semantics) refuse them.
  Expected<Valuation> Ref = Runner::reference(*CP.Prog)->run(Good);
  ASSERT_FALSE(Ref.ok());
  EXPECT_NE(Ref.message().find("takes plain values"), std::string::npos)
      << Ref.message();
}

//===----------------------------------------------------------------------===//
// Runner error channel
//===----------------------------------------------------------------------===//

TEST(Runner, ReferenceMatchesHandComputedValues) {
  ProgramBuilder B("hand", 4);
  Expr X = B.inputCipher("x", 30);
  B.output("out", (X << 1) * X + 1.0, 30);
  std::unique_ptr<Runner> R = Runner::reference(B.program());
  EXPECT_STREQ(R->backend(), "reference");
  Expected<Valuation> Out = R->run(Valuation().set("x", {1, 2, 3, 4}));
  ASSERT_TRUE(Out.ok()) << Out.message();
  std::vector<double> Want = {3, 7, 13, 5};
  EXPECT_EQ(Out->vector("out"), Want);
}

TEST(Runner, MalformedInputsAreDiagnosticsNotAborts) {
  CompiledProgram CP = compiled();
  LocalRunnerOptions Opts;
  Opts.Seed = 3;
  Expected<std::unique_ptr<Runner>> R = Runner::local(std::move(CP), Opts);
  ASSERT_TRUE(R.ok()) << R.message();
  // Missing, misnamed, and malformed inputs all come back as Expected
  // errors; the runner stays usable afterwards.
  EXPECT_FALSE((*R)->run(Valuation()).ok());
  EXPECT_FALSE((*R)->run(Valuation().set("X", ramp(64, 0.5))).ok());
  EXPECT_FALSE(
      (*R)->run(Valuation().set("x", ramp(7, 0.5)).set("w", 0.5)).ok());
  Expected<Valuation> Ok =
      (*R)->run(Valuation().set("x", ramp(64, 0.5)).set("w", 0.5));
  EXPECT_TRUE(Ok.ok()) << Ok.message();
}

TEST(Runner, ReferenceExecutorSharesTheErrorChannel) {
  std::unique_ptr<Program> P = makeMultiKernelProgram();
  ReferenceExecutor Ref(*P);
  Expected<std::map<std::string, std::vector<double>>> Out =
      Ref.run({{"x", {1, 2, 3}}});
  ASSERT_FALSE(Out.ok());
  EXPECT_NE(Out.message().find("does not divide"), std::string::npos)
      << Out.message();
  EXPECT_NE(Out.message().find("missing plain input 'w'"), std::string::npos)
      << Out.message();
}

//===----------------------------------------------------------------------===//
// Backend interchangeability
//===----------------------------------------------------------------------===//

TEST(Runner, ThreeCkksBackendsAreBitIdenticalAndReferenceIsClose) {
  // api_demo rotates at one level and two_levels at two, so one of its
  // Galois keys is trimmed: every backend builds keys at the compiled
  // levels, and a serial run with full keys shows that trimming drops only
  // limbs no rotation reads.
  constexpr uint64_t Seed = 2024;
  for (bool TwoLevels : {false, true}) {
    std::unique_ptr<Program> P = TwoLevels ? makeTwoLevelRotationProgram()
                                           : makeMultiKernelProgram();
    SCOPED_TRACE(P->name());
    Valuation Inputs = Valuation().set("x", ramp(64, 0.5));
    if (!TwoLevels)
      Inputs.set("w", 0.5);

    auto MakeLocal = [&](size_t Threads, LocalStyle Style, bool FullKeys) {
      Expected<CompiledProgram> CP = compile(*P);
      EXPECT_TRUE(CP.ok());
      std::set<size_t> Levels;
      for (auto [Step, Primes] : CP->galoisKeyPrimes())
        Levels.insert(Primes);
      EXPECT_EQ(Levels.size(), TwoLevels ? 2u : 1u);
      if (FullKeys)
        CP->RotationKeyPrimes.clear();
      LocalRunnerOptions Opts;
      Opts.Threads = Threads;
      Opts.Style = Style;
      Opts.Seed = Seed;
      Opts.ReproducibleSeeds = true;
      Expected<std::unique_ptr<Runner>> R =
          Runner::local(std::move(*CP), Opts);
      EXPECT_TRUE(R.ok()) << R.message();
      return std::move(R.value());
    };

    std::unique_ptr<Runner> Serial = MakeLocal(1, LocalStyle::Serial, false);
    std::unique_ptr<Runner> Parallel =
        MakeLocal(2, LocalStyle::ParallelDag, false);
    std::unique_ptr<Runner> Bulk = MakeLocal(2, LocalStyle::KernelBulk, false);
    std::unique_ptr<Runner> FullKeys = MakeLocal(1, LocalStyle::Serial, true);

    // The remote backend over the full serialized-message path.
    Service Svc;
    ASSERT_TRUE(Svc.registry().registerSource(*P).ok());
    InProcessTransport T(Svc);
    RemoteRunnerOptions RO;
    RO.KeySeed = Seed;
    RO.ReproducibleSeeds = true;
    Expected<std::unique_ptr<Runner>> Remote =
        Runner::remote(T, P->name(), RO);
    ASSERT_TRUE(Remote.ok()) << Remote.message();

    Expected<Valuation> SerialOut = Serial->run(Inputs);
    Expected<Valuation> ParallelOut = Parallel->run(Inputs);
    Expected<Valuation> BulkOut = Bulk->run(Inputs);
    Expected<Valuation> FullKeysOut = FullKeys->run(Inputs);
    Expected<Valuation> RemoteOut = (*Remote)->run(Inputs);
    ASSERT_TRUE(SerialOut.ok()) << SerialOut.message();
    ASSERT_TRUE(ParallelOut.ok()) << ParallelOut.message();
    ASSERT_TRUE(BulkOut.ok()) << BulkOut.message();
    ASSERT_TRUE(FullKeysOut.ok()) << FullKeysOut.message();
    ASSERT_TRUE(RemoteOut.ok()) << RemoteOut.message();

    std::unique_ptr<Runner> Ref = Runner::reference(*P);
    Expected<Valuation> RefOut = Ref->run(Inputs);
    ASSERT_TRUE(RefOut.ok()) << RefOut.message();

    for (const char *Name : {"out", "sum"}) {
      const std::vector<double> &S = SerialOut->vector(Name);
      ASSERT_EQ(S.size(), 64u);
      // Bit-identical across the CKKS backends: same keys, same input
      // ciphertexts (reproducible seeds), same arithmetic.
      EXPECT_EQ(S, ParallelOut->vector(Name)) << Name;
      EXPECT_EQ(S, BulkOut->vector(Name)) << Name;
      EXPECT_EQ(S, FullKeysOut->vector(Name)) << Name;
      EXPECT_EQ(S, RemoteOut->vector(Name)) << Name;
      // The reference backend is exact arithmetic: gate on the error bound.
      const std::vector<double> &R = RefOut->vector(Name);
      for (size_t I = 0; I < S.size(); ++I)
        EXPECT_NEAR(S[I], R[I], 1e-2) << Name << " slot " << I;
    }

    // Timing/stats accessors carry the phases benches report.
    EXPECT_GT(Serial->lastTiming().ComputeSeconds, 0.0);
    ASSERT_NE(Serial->executionStats(), nullptr);
    EXPECT_GT(Serial->executionStats()->TotalNodeCount, 0u);
  }
}

TEST(Runner, PreEncryptedCipherInputsAreAccepted) {
  // A caller may supply the ciphertext itself (client-side caching); both
  // CKKS runners validate scale/level and skip encryption, and the remote
  // one ships it as a full (c0, c1) pair.
  CompiledProgram CP = compiled();
  // Reproducible seeds: the remote runner's client derives the same secret
  // key from the same seed, so it decrypts what this workspace encrypted.
  Expected<std::shared_ptr<CkksWorkspace>> WS =
      CkksWorkspace::createClient(CP, 5, /*ReproducibleSeeds=*/true);
  ASSERT_TRUE(WS.ok()) << WS.message();
  Expected<std::unique_ptr<Runner>> Local = Runner::local(CP, *WS);
  ASSERT_TRUE(Local.ok()) << Local.message();
  Service Svc;
  ASSERT_TRUE(Svc.registry().registerSource(*makeMultiKernelProgram()).ok());
  InProcessTransport T(Svc);
  RemoteRunnerOptions RO;
  RO.KeySeed = 5;
  RO.ReproducibleSeeds = true;
  Expected<std::unique_ptr<Runner>> Remote = Runner::remote(T, "api_demo", RO);
  ASSERT_TRUE(Remote.ok()) << Remote.message();

  Plaintext Pt;
  (*WS)->Encoder->encode(ramp(64, 0.5), std::exp2(30),
                         (*WS)->Context->dataPrimeCount(), Pt);
  uint64_t Seed = 0;
  Ciphertext Ct =
      (*WS)->Enc->encryptSymmetric(Pt, (*WS)->KeyGen->secretKey(), Seed);

  std::unique_ptr<Runner> Ref = Runner::reference(*CP.Prog);
  Expected<Valuation> Want =
      Ref->run(Valuation().set("x", ramp(64, 0.5)).set("w", 0.5));
  ASSERT_TRUE(Want.ok()) << Want.message();
  for (Runner *R : {Local->get(), Remote->get()}) {
    Expected<Valuation> Out = R->run(Valuation().set("x", Ct).set("w", 0.5));
    ASSERT_TRUE(Out.ok()) << R->backend() << ": " << Out.message();
    for (size_t I = 0; I < 64; ++I)
      EXPECT_NEAR(Out->vector("out")[I], Want->vector("out")[I], 1e-2)
          << R->backend() << " slot " << I;
  }
}

//===----------------------------------------------------------------------===//
// The per-run cost ledger
//===----------------------------------------------------------------------===//

/// The ledger's work counts: every field except the memory peaks and the
/// arena heap bytes, which depend on scheduling and per-thread caches.
std::vector<uint64_t> workCounts(const ExecutionStats &S) {
  return {S.TotalNodeCount,   S.KeySwitchDecompositions, S.Rotations,
          S.HoistedRotations, S.HoistBatches,            S.Adds,
          S.Subs,             S.Negates,                 S.Multiplies,
          S.PlainMultiplies,  S.Relinearizations,        S.Rescales,
          S.ModSwitches,      S.Ntts,                    S.MulMods,
          S.ArenaAcquires};
}

/// Runners over one evaluation-only workspace, so they share its keys and
/// encoder, fed a pre-encrypted input: the runs do no encryption or
/// decryption, only evaluation.
class LedgerFixture : public ::testing::Test {
protected:
  void SetUp() override {
    Expected<std::shared_ptr<CkksWorkspace>> Client =
        CkksWorkspace::createClient(CP, 5);
    ASSERT_TRUE(Client.ok()) << Client.message();
    const CkksWorkspace &C = **Client;
    Expected<std::shared_ptr<CkksWorkspace>> Server =
        CkksWorkspace::createServer(CP, C.Context, C.Rk, C.Gk);
    ASSERT_TRUE(Server.ok()) << Server.message();
    WS = *Server;
    Plaintext Pt;
    C.Encoder->encode(ramp(64, 0.5), std::exp2(30),
                      C.Context->dataPrimeCount(), Pt);
    uint64_t Seed = 0;
    Inputs.set("x", C.Enc->encryptSymmetric(Pt, C.KeyGen->secretKey(), Seed))
        .set("w", 0.5);
  }

  std::unique_ptr<Runner> runner(LocalStyle Style, size_t Threads) {
    LocalRunnerOptions Opts;
    Opts.Style = Style;
    Opts.Threads = Threads;
    Expected<std::unique_ptr<Runner>> R = Runner::local(CP, WS, Opts);
    EXPECT_TRUE(R.ok()) << R.message();
    return std::move(R.value());
  }

  /// Runs \p R once and returns its ledger.
  static ExecutionStats runOnce(Runner &R, const Valuation &In) {
    Expected<Valuation> Out = R.run(In);
    EXPECT_TRUE(Out.ok()) << Out.message();
    return *R.executionStats();
  }

  CompiledProgram CP = compiled();
  std::shared_ptr<CkksWorkspace> WS;
  Valuation Inputs;
};

TEST_F(LedgerFixture, ConcurrentRunsOnOneWorkspaceEachChargeTheirOwnRun) {
  std::unique_ptr<Runner> A = runner(LocalStyle::Serial, 1);
  std::unique_ptr<Runner> B = runner(LocalStyle::Serial, 1);
  ExecutionStats Solo = runOnce(*A, Inputs);
  EXPECT_GT(Solo.KeySwitchDecompositions, 0u);
  EXPECT_GT(Solo.Relinearizations, 0u);
  EXPECT_GT(Solo.Rotations, 0u);
  EXPECT_GT(Solo.Ntts, 0u);
  EXPECT_GT(Solo.MulMods, 0u);
  EXPECT_GT(Solo.ArenaAcquires, 0u);

  // Both threads start each round together, so the two runs overlap on the
  // shared workspace; neither may see the other's work.
  constexpr size_t Rounds = 4;
  std::barrier Start(2);
  auto Drive = [&](Runner &R, std::vector<std::vector<uint64_t>> &Seen) {
    for (size_t I = 0; I < Rounds; ++I) {
      Start.arrive_and_wait();
      Seen.push_back(workCounts(runOnce(R, Inputs)));
    }
  };
  std::vector<std::vector<uint64_t>> SeenA, SeenB;
  std::thread TA(Drive, std::ref(*A), std::ref(SeenA));
  std::thread TB(Drive, std::ref(*B), std::ref(SeenB));
  TA.join();
  TB.join();
  ASSERT_EQ(SeenA.size(), Rounds);
  ASSERT_EQ(SeenB.size(), Rounds);
  for (size_t I = 0; I < Rounds; ++I) {
    EXPECT_EQ(SeenA[I], workCounts(Solo)) << "runner A, round " << I;
    EXPECT_EQ(SeenB[I], workCounts(Solo)) << "runner B, round " << I;
  }
}

TEST_F(LedgerFixture, CountsDoNotDependOnTheExecutorOrThreadCount) {
  std::vector<uint64_t> Want =
      workCounts(runOnce(*runner(LocalStyle::Serial, 1), Inputs));
  EXPECT_EQ(workCounts(runOnce(*runner(LocalStyle::ParallelDag, 1), Inputs)),
            Want);
  EXPECT_EQ(workCounts(runOnce(*runner(LocalStyle::ParallelDag, 4), Inputs)),
            Want);
  EXPECT_EQ(workCounts(runOnce(*runner(LocalStyle::KernelBulk, 4), Inputs)),
            Want);
}

TEST_F(LedgerFixture, SecondSerialRunAllocatesNoArenaMemory) {
  // The limb arena's steady state: once one run has filled this thread's
  // free lists, an identical run is served from them entirely.
  std::unique_ptr<Runner> R = runner(LocalStyle::Serial, 1);
  runOnce(*R, Inputs);
  ExecutionStats Second = runOnce(*R, Inputs);
  EXPECT_GT(Second.ArenaAcquires, 0u);
  EXPECT_EQ(Second.ArenaHeapBytes, 0u);
}

} // namespace
