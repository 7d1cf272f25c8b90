//===- PropertyTest.cpp - Property-based tests over random programs -----------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized invariants: compilation preserves id-scheme semantics and
/// always yields validator-clean programs in every mode; the waterline
/// bounds scales; EAGER never selects a longer chain than LAZY; executors
/// agree; CKKS homomorphisms satisfy their algebraic laws within noise.
///
//===----------------------------------------------------------------------===//

#include "eva/api/Runner.h"
#include "eva/ckks/Decryptor.h"
#include "eva/ckks/Encoder.h"
#include "eva/ckks/Encryptor.h"
#include "eva/ckks/Evaluator.h"
#include "eva/ckks/KeyGenerator.h"
#include "eva/frontend/Expr.h"
#include "eva/runtime/CkksExecutor.h"
#include "eva/runtime/ReferenceExecutor.h"
#include "eva/support/Random.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace eva;

namespace {

/// Random DAG generator over the frontend opcode subset, bounded in
/// multiplicative depth so compilation always succeeds.
std::unique_ptr<Program> randomProgram(uint64_t Seed, uint64_t VecSize = 64,
                                       size_t Ops = 40) {
  RandomSource Rng(Seed * 7919 + 13);
  ProgramBuilder B("fuzz" + std::to_string(Seed), VecSize);
  struct Entry {
    Expr E;
    int Depth;
  };
  std::vector<Entry> Pool;
  Pool.push_back({B.inputCipher("x", 30), 0});
  Pool.push_back({B.inputCipher("y", 25), 0});
  Pool.push_back({B.inputPlain("w", 20), 0});
  Pool.push_back({B.constant(0.5, 15), 0});
  Pool.push_back({B.constantVector({0.1, -0.2, 0.3, 0.4}, 20), 0});

  auto Pick = [&]() -> Entry & {
    return Pool[Rng.uniformBelow(Pool.size())];
  };
  for (size_t I = 0; I < Ops; ++I) {
    Entry &A = Pick();
    Entry &C = Pick();
    switch (Rng.uniformBelow(6)) {
    case 0:
    case 1: {
      if (A.E.node()->isPlain() && C.E.node()->isPlain())
        break;
      // Bound the depth so chains stay under the security cap.
      if (A.Depth + C.Depth >= 5)
        break;
      Pool.push_back({A.E * C.E, std::max(A.Depth, C.Depth) + 1});
      break;
    }
    case 2: {
      if (A.E.node()->isPlain() && C.E.node()->isPlain())
        break;
      Pool.push_back(
          {Rng.uniformBelow(2) ? A.E + C.E : A.E - C.E,
           std::max(A.Depth, C.Depth)});
      break;
    }
    case 3: {
      if (A.E.node()->isPlain())
        break;
      Pool.push_back({-A.E, A.Depth});
      break;
    }
    case 4: {
      if (A.E.node()->isPlain())
        break;
      int32_t Steps = static_cast<int32_t>(Rng.uniformBelow(2 * VecSize)) -
                      static_cast<int32_t>(VecSize);
      Pool.push_back({Steps >= 0 ? A.E << Steps : A.E >> -Steps, A.Depth});
      break;
    }
    default: {
      if (A.E.node()->isPlain())
        break;
      Pool.push_back({B.sumSlots(A.E), A.Depth});
      break;
    }
    }
  }
  size_t Outputs = 0;
  for (size_t I = Pool.size(); I-- > 0 && Outputs < 2;) {
    if (Pool[I].E.node()->isCipher() && Pool[I].Depth > 0) {
      B.output("o" + std::to_string(Outputs), Pool[I].E, 25);
      ++Outputs;
    }
  }
  if (Outputs == 0)
    B.output("o0", Pool[0].E * Pool[0].E, 25);
  return B.take();
}

std::map<std::string, std::vector<double>>
randomInputs(const Program &P, uint64_t Seed) {
  RandomSource Rng(Seed);
  std::map<std::string, std::vector<double>> In;
  for (const Node *I : P.inputs()) {
    std::vector<double> V(P.vecSize());
    for (double &X : V)
      X = Rng.uniformReal(-1, 1);
    In.emplace(I->name(), std::move(V));
  }
  return In;
}

class CompileFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompileFuzz, AllModesValidateAndPreserveSemantics) {
  uint64_t Seed = GetParam();
  std::unique_ptr<Program> P = randomProgram(Seed);
  std::map<std::string, std::vector<double>> Inputs =
      randomInputs(*P, Seed + 1);
  ReferenceExecutor Ref(*P);
  std::map<std::string, std::vector<double>> Want = *Ref.run(Inputs);

  for (int Mode = 0; Mode < 3; ++Mode) {
    CompilerOptions O = Mode == 0   ? CompilerOptions::eva()
                        : Mode == 1 ? CompilerOptions::chet()
                                    : CompilerOptions::eva();
    if (Mode == 2)
      O.ModSwitch = ModSwitchPolicy::Lazy;
    Expected<CompiledProgram> CP = compile(*P, O);
    ASSERT_TRUE(CP.ok()) << "seed " << Seed << " mode " << Mode << ": "
                         << CP.message();
    // Validators are clean (re-run them explicitly).
    EXPECT_TRUE(validateRescaleChains(*CP->Prog, O.SfBits).ok());
    EXPECT_TRUE(validateScales(*CP->Prog).ok());
    EXPECT_TRUE(validateNumPolynomials(*CP->Prog).ok());
    EXPECT_TRUE(CP->Prog->verifyStructure().ok());
    // Semantics preserved under the id scheme.
    ReferenceExecutor RefC(*CP->Prog);
    std::map<std::string, std::vector<double>> Got = *RefC.run(Inputs);
    ASSERT_EQ(Got.size(), Want.size());
    for (const auto &[Name, V] : Want) {
      const std::vector<double> &G = Got.at(Name);
      for (size_t I = 0; I < V.size(); ++I)
        EXPECT_NEAR(G[I], V[I], 1e-9)
            << "seed " << Seed << " mode " << Mode << " out " << Name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompileFuzz, ::testing::Range<uint64_t>(1, 21));

class ScaleBound : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScaleBound, WaterlineKeepsScalesBelowWaterlinePlusSf) {
  // Section 5.3's invariant: with repeated waterline rescaling no operand
  // scale exceeds s_w + s_f.
  std::unique_ptr<Program> P = randomProgram(GetParam());
  double Waterline = 0;
  for (const Node *N : P->inputs())
    Waterline = std::max(Waterline, N->logScale());
  for (const Node *N : P->constants())
    Waterline = std::max(Waterline, N->logScale());
  waterlineRescalePass(*P, 60);
  for (const Node *N : P->nodes()) {
    if (N->op() == OpCode::Output || N->op() == OpCode::Multiply)
      continue; // multiply nodes carry the pre-rescale product scale
    EXPECT_LE(N->logScale(), Waterline + 60 + 1e-9)
        << "node %" << N->id() << " " << opName(N->op());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScaleBound, ::testing::Range<uint64_t>(1, 11));

class EagerVsLazy : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EagerVsLazy, EagerNeverLengthensTheChain) {
  std::unique_ptr<Program> P = randomProgram(GetParam());
  CompilerOptions Eager = CompilerOptions::eva();
  CompilerOptions Lazy = CompilerOptions::eva();
  Lazy.ModSwitch = ModSwitchPolicy::Lazy;
  Expected<CompiledProgram> A = compile(*P, Eager);
  Expected<CompiledProgram> B = compile(*P, Lazy);
  ASSERT_TRUE(A.ok() && B.ok());
  EXPECT_LE(A->modulusLength(), B->modulusLength());
  EXPECT_EQ(A->RotationSteps, B->RotationSteps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EagerVsLazy, ::testing::Range<uint64_t>(1, 11));

class ExecutorAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorAgreement, ParallelAndBulkMatchSerial) {
  uint64_t Seed = GetParam();
  std::unique_ptr<Program> P = randomProgram(Seed, 64, 25);
  Expected<CompiledProgram> CP = compile(*P);
  ASSERT_TRUE(CP.ok()) << CP.message();
  Expected<std::shared_ptr<CkksWorkspace>> WS =
      CkksWorkspace::createClient(*CP, Seed);
  ASSERT_TRUE(WS.ok()) << WS.message();
  std::map<std::string, std::vector<double>> Inputs =
      randomInputs(*P, Seed + 2);

  CkksExecutor Serial(*CP, WS.value());
  CkksExecutor Parallel(*CP, WS.value(), {.Threads = 2});
  CkksExecutor Bulk(*CP, WS.value(),
                    {.Threads = 2, .Style = LocalStyle::KernelBulk});
  ProgramSignature Sig = ProgramSignature::of(*CP);
  Expected<SealedRequest> Sealed =
      sealInputs(*WS.value(), Sig, Valuation::fromMap(Inputs));
  ASSERT_TRUE(Sealed.ok()) << Sealed.message();

  std::map<std::string, std::vector<double>> A =
      decryptOutputs(*WS.value(), Sig, Serial.run(Sealed->Inputs));
  std::map<std::string, std::vector<double>> B =
      decryptOutputs(*WS.value(), Sig, Parallel.run(Sealed->Inputs));
  std::map<std::string, std::vector<double>> C =
      decryptOutputs(*WS.value(), Sig, Bulk.run(Sealed->Inputs));
  for (const auto &[Name, VA] : A) {
    const std::vector<double> &VB = B.at(Name);
    const std::vector<double> &VC = C.at(Name);
    for (size_t I = 0; I < VA.size(); ++I) {
      // Identical instruction streams on identical inputs: results are
      // bit-identical regardless of schedule.
      EXPECT_DOUBLE_EQ(VA[I], VB[I]) << Name << " slot " << I;
      EXPECT_DOUBLE_EQ(VA[I], VC[I]) << Name << " slot " << I;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorAgreement,
                         ::testing::Range<uint64_t>(1, 6));

//===----------------------------------------------------------------------===
// Differential rotation battery: hoisting on/off x every local backend
//===----------------------------------------------------------------------===

/// Rotation-dominated random DAGs: long fans of rotations off shared
/// sources (hoist batches), chained rotations (the CSE fold), occasional
/// adds and depth-bounded multiplies.
std::unique_ptr<Program> randomRotationProgram(uint64_t Seed,
                                               uint64_t VecSize,
                                               size_t Ops = 35) {
  RandomSource Rng(Seed * 104729 + 17);
  ProgramBuilder B("rotfuzz" + std::to_string(Seed), VecSize);
  struct Entry {
    Expr E;
    int Depth;
  };
  std::vector<Entry> Pool;
  Pool.push_back({B.inputCipher("x", 30), 0});
  Pool.push_back({B.inputCipher("y", 30), 0});
  for (size_t I = 0; I < Ops; ++I) {
    Entry A = Pool[Rng.uniformBelow(Pool.size())];
    switch (Rng.uniformBelow(8)) {
    case 0:
    case 1:
    case 2:
    case 3: { // rotations dominate; signed and wrapping steps included
      int32_t S = static_cast<int32_t>(Rng.uniformBelow(3 * VecSize)) -
                  static_cast<int32_t>(VecSize);
      Pool.push_back({S >= 0 ? A.E << S : A.E >> -S, A.Depth});
      break;
    }
    case 4:
    case 5: {
      Entry C = Pool[Rng.uniformBelow(Pool.size())];
      Pool.push_back({Rng.uniformBelow(2) ? A.E + C.E : A.E - C.E,
                      std::max(A.Depth, C.Depth)});
      break;
    }
    case 6: {
      if (A.Depth >= 2)
        break;
      Pool.push_back(
          {A.E * B.constant(0.25 + 0.5 * Rng.uniformReal(0, 1), 20),
           A.Depth + 1});
      break;
    }
    default: {
      Entry C = Pool[Rng.uniformBelow(Pool.size())];
      if (A.Depth + C.Depth >= 2)
        break;
      Pool.push_back({A.E * C.E, std::max(A.Depth, C.Depth) + 1});
      break;
    }
    }
  }
  B.output("o0", Pool.back().E, 25);
  B.output("o1", Pool[Pool.size() / 2].E, 25);
  return B.take();
}

class RotationDifferential
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

TEST_P(RotationDifferential, HoistingAndBackendsAreBitIdentical) {
  auto [Seed, VecSize] = GetParam();
  std::unique_ptr<Program> P = randomRotationProgram(Seed, VecSize);
  std::map<std::string, std::vector<double>> Inputs =
      randomInputs(*P, Seed + 5);

  Expected<CompiledProgram> Compiled = compile(*P);
  ASSERT_TRUE(Compiled.ok()) << Compiled.message();
  CompiledProgram CP = std::move(Compiled.value());
  Expected<std::shared_ptr<CkksWorkspace>> WS =
      CkksWorkspace::createClient(CP, Seed);
  ASSERT_TRUE(WS.ok()) << WS.message();

  // Seal once so every backend consumes identical ciphertext bits.
  Expected<SealedRequest> Sealed = sealInputs(
      *WS.value(), ProgramSignature::of(CP), Valuation::fromMap(Inputs));
  ASSERT_TRUE(Sealed.ok()) << Sealed.message();
  Valuation V;
  for (const auto &[Name, Ct] : Sealed->Inputs.Cipher)
    V.set(Name, Ct);
  for (const auto &[Name, Pl] : Sealed->Inputs.Plain)
    V.set(Name, Pl);

  struct Cfg {
    const char *Name;
    LocalStyle Style;
    size_t Threads;
    bool Hoist;
  };
  const Cfg Cfgs[] = {
      {"serial+hoist", LocalStyle::Serial, 1, true},
      {"serial", LocalStyle::Serial, 1, false},
      {"parallel+hoist", LocalStyle::ParallelDag, 3, true},
      {"parallel", LocalStyle::ParallelDag, 3, false},
      {"bulk+hoist", LocalStyle::KernelBulk, 2, true},
      {"bulk", LocalStyle::KernelBulk, 2, false},
  };
  std::map<std::string, std::vector<double>> First;
  std::map<std::string, ExecutionStats> Ledgers;
  for (const Cfg &C : Cfgs) {
    LocalRunnerOptions O;
    O.Style = C.Style;
    O.Threads = C.Threads;
    O.Hoisting = C.Hoist;
    Expected<std::unique_ptr<Runner>> R = Runner::local(CP, WS.value(), O);
    ASSERT_TRUE(R.ok()) << C.Name << ": " << R.message();
    Expected<Valuation> Out = (*R)->run(V);
    ASSERT_TRUE(Out.ok()) << C.Name << ": " << Out.message();
    const ExecutionStats *S = (*R)->executionStats();
    ASSERT_NE(S, nullptr);
    if (!C.Hoist) {
      EXPECT_EQ(S->HoistedRotations, 0u) << C.Name;
    }
    Ledgers.emplace(C.Name, *S);
    for (const Node *ON : CP.Prog->outputs()) {
      std::vector<double> Got = Out->plainVec(ON->name());
      if (First.count(ON->name()) == 0) {
        First.emplace(ON->name(), Got);
        continue;
      }
      const std::vector<double> &Want = First.at(ON->name());
      ASSERT_EQ(Got.size(), Want.size());
      for (size_t I = 0; I < Got.size(); ++I)
        EXPECT_EQ(Got[I], Want[I]) // bit-identical, not just close
            << C.Name << " seed " << Seed << " vec " << VecSize << " out "
            << ON->name() << " slot " << I;
    }
  }

  // The hoisting ledger does not depend on the schedule or thread count,
  // and each batch saves one decomposition per member less its own.
  const ExecutionStats &On = Ledgers.at("serial+hoist");
  for (const char *Name : {"parallel+hoist", "bulk+hoist"}) {
    const ExecutionStats &L = Ledgers.at(Name);
    EXPECT_EQ(L.KeySwitchDecompositions, On.KeySwitchDecompositions) << Name;
    EXPECT_EQ(L.HoistBatches, On.HoistBatches) << Name;
    EXPECT_EQ(L.HoistedRotations, On.HoistedRotations) << Name;
    EXPECT_EQ(L.Rotations, On.Rotations) << Name;
  }
  EXPECT_EQ(On.KeySwitchDecompositions + On.HoistedRotations - On.HoistBatches,
            Ledgers.at("serial").KeySwitchDecompositions)
      << "seed " << Seed << " vec " << VecSize;

  // Reference closeness: the CKKS result approximates the exact semantics.
  std::map<std::string, std::vector<double>> Want =
      *ReferenceExecutor(*P).run(Inputs);
  for (const auto &[Name, W] : Want) {
    const std::vector<double> &G = First.at(Name);
    // Each rotation in a chain adds key-switch noise, so rotation-heavy
    // programs sit a little above the usual 1e-3 CKKS closeness.
    for (size_t I = 0; I < W.size(); ++I)
      EXPECT_NEAR(G[I], W[I], 5e-3 * std::max(1.0, std::abs(W[I])))
          << "seed " << Seed << " vec " << VecSize << " out " << Name
          << " slot " << I;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSizes, RotationDifferential,
    ::testing::Combine(::testing::Range<uint64_t>(1, 9),
                       ::testing::Values<uint64_t>(16, 64, 256)));

//===----------------------------------------------------------------------===
// CKKS algebraic laws
//===----------------------------------------------------------------------===

struct CkksLaws : public ::testing::Test {
  void SetUp() override {
    Ctx = CkksContext::createFromBitSizes(2048, {50, 40, 40, 50},
                                          SecurityLevel::None)
              .value();
    Enc = std::make_unique<CkksEncoder>(Ctx);
    Gen = std::make_unique<KeyGenerator>(Ctx, 77);
    Encryptor_ = std::make_unique<Encryptor>(Ctx, 78);
    Dec = std::make_unique<Decryptor>(Ctx, Gen->secretKey());
    Eval = std::make_unique<Evaluator>(Ctx);
  }

  Ciphertext enc(const std::vector<double> &V) {
    Plaintext Pt;
    Enc->encode(V, std::ldexp(1.0, 40), 3, Pt);
    uint64_t Seed = 0;
    return Encryptor_->encryptSymmetric(Pt, Gen->secretKey(), Seed);
  }
  std::vector<double> dec(const Ciphertext &Ct) {
    return Enc->decode(Dec->decrypt(Ct));
  }

  std::shared_ptr<CkksContext> Ctx;
  std::unique_ptr<CkksEncoder> Enc;
  std::unique_ptr<KeyGenerator> Gen;
  std::unique_ptr<Encryptor> Encryptor_;
  std::unique_ptr<Decryptor> Dec;
  std::unique_ptr<Evaluator> Eval;
};

TEST_F(CkksLaws, AdditionCommutesAndAssociates) {
  RandomSource Rng(31);
  std::vector<double> A(1024), B(1024), C(1024);
  for (size_t I = 0; I < 1024; ++I) {
    A[I] = Rng.uniformReal(-1, 1);
    B[I] = Rng.uniformReal(-1, 1);
    C[I] = Rng.uniformReal(-1, 1);
  }
  Ciphertext CA = enc(A), CB = enc(B), CC = enc(C);
  std::vector<double> AB = dec(Eval->add(CA, CB));
  std::vector<double> BA = dec(Eval->add(CB, CA));
  std::vector<double> ABC1 = dec(Eval->add(Eval->add(CA, CB), CC));
  std::vector<double> ABC2 = dec(Eval->add(CA, Eval->add(CB, CC)));
  for (size_t I = 0; I < 1024; ++I) {
    EXPECT_NEAR(AB[I], BA[I], 1e-9);
    EXPECT_NEAR(ABC1[I], ABC2[I], 1e-7);
    EXPECT_NEAR(ABC1[I], A[I] + B[I] + C[I], 1e-5);
  }
}

TEST_F(CkksLaws, RotationComposes) {
  GaloisKeys Gk = Gen->createGaloisKeys({3, 5, 8});
  RandomSource Rng(33);
  std::vector<double> A(1024);
  for (double &X : A)
    X = Rng.uniformReal(-1, 1);
  Ciphertext CA = enc(A);
  std::vector<double> R35 =
      dec(Eval->rotateLeft(Eval->rotateLeft(CA, 3, Gk), 5, Gk));
  std::vector<double> R8 = dec(Eval->rotateLeft(CA, 8, Gk));
  for (size_t I = 0; I < 1024; ++I)
    EXPECT_NEAR(R35[I], R8[I], 1e-5) << "slot " << I;
}

TEST_F(CkksLaws, MultiplicationDistributesOverAddition) {
  RandomSource Rng(35);
  std::vector<double> A(1024), B(1024), C(1024);
  for (size_t I = 0; I < 1024; ++I) {
    A[I] = Rng.uniformReal(-1, 1);
    B[I] = Rng.uniformReal(-1, 1);
    C[I] = Rng.uniformReal(-1, 1);
  }
  Ciphertext CA = enc(A), CB = enc(B), CC = enc(C);
  RelinKeys Rk = Gen->createRelinKeys();
  // a*(b+c) vs a*b + a*c.
  std::vector<double> L =
      dec(Eval->relinearize(Eval->multiply(CA, Eval->add(CB, CC)), Rk));
  Ciphertext AB = Eval->relinearize(Eval->multiply(CA, CB), Rk);
  Ciphertext AC = Eval->relinearize(Eval->multiply(CA, CC), Rk);
  std::vector<double> R = dec(Eval->add(AB, AC));
  for (size_t I = 0; I < 1024; ++I) {
    EXPECT_NEAR(L[I], R[I], 1e-4);
    EXPECT_NEAR(L[I], A[I] * (B[I] + C[I]), 1e-4);
  }
}

TEST_F(CkksLaws, ModSwitchCommutesWithAddition) {
  RandomSource Rng(37);
  std::vector<double> A(1024), B(1024);
  for (size_t I = 0; I < 1024; ++I) {
    A[I] = Rng.uniformReal(-1, 1);
    B[I] = Rng.uniformReal(-1, 1);
  }
  Ciphertext CA = enc(A), CB = enc(B);
  std::vector<double> L = dec(Eval->modSwitch(Eval->add(CA, CB)));
  std::vector<double> R =
      dec(Eval->add(Eval->modSwitch(CA), Eval->modSwitch(CB)));
  for (size_t I = 0; I < 1024; ++I)
    EXPECT_NEAR(L[I], R[I], 1e-9);
}

class EncoderSweep
    : public ::testing::TestWithParam<std::pair<uint64_t, int>> {};

TEST_P(EncoderSweep, RoundTripAccuracyScalesWithScale) {
  auto [N, LogScale] = GetParam();
  auto Ctx = CkksContext::createFromBitSizes(N, {55, 55}, SecurityLevel::None)
                 .value();
  CkksEncoder Enc(Ctx);
  RandomSource Rng(N + LogScale);
  std::vector<double> In(N / 2);
  for (double &V : In)
    V = Rng.uniformReal(-1, 1);
  Plaintext Pt;
  Enc.encode(In, std::ldexp(1.0, LogScale), 1, Pt);
  std::vector<double> Out = Enc.decode(Pt);
  // Round-off is ~N / scale; allow two orders of headroom.
  double Bound = 100.0 * static_cast<double>(N) / std::ldexp(1.0, LogScale);
  for (size_t I = 0; I < In.size(); ++I)
    EXPECT_NEAR(Out[I], In[I], Bound);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EncoderSweep,
    ::testing::Values(std::pair<uint64_t, int>{1024, 30},
                      std::pair<uint64_t, int>{1024, 40},
                      std::pair<uint64_t, int>{4096, 30},
                      std::pair<uint64_t, int>{4096, 45},
                      std::pair<uint64_t, int>{16384, 40}));

} // namespace
