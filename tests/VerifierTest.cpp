//===- VerifierTest.cpp - Mutation suite for the IR verifier ------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Adversarial tests for the static-analysis subsystem: each test corrupts a
/// well-formed program in one specific way — dangling operand, cycle, wrong
/// arity, scale mismatch, out-of-range constant payload, un-normalized
/// rotation step — and checks that the verifier/analyzer rejects it with a
/// diagnostic naming the offending node. Plus fact tests for the dataflow
/// analyzer, unit tests for the lint pass, and regressions for latent pass
/// bugs the pass sandwich uncovered.
///
//===----------------------------------------------------------------------===//

#include "eva/core/Analysis.h"
#include "eva/frontend/Expr.h"
#include "eva/ir/Ops.h"
#include "eva/ir/Printer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace eva;

namespace {

/// x^2 + x*y with one rotation — enough structure for every corruption.
std::unique_ptr<Program> makeWellFormed() {
  ProgramBuilder B("victim", 16);
  Expr X = B.inputCipher("x", 30);
  Expr Y = B.inputCipher("y", 30);
  B.output("out", X * X + (X * Y << 2), 30);
  return B.take();
}

bool mentions(const Status &S, const std::string &Text) {
  return S.message().find(Text) != std::string::npos;
}

// --- Mutation class 1: dangling operand (node of another program). ---

TEST(VerifierMutation, DanglingOperandRejected) {
  std::unique_ptr<Program> P = makeWellFormed();
  ASSERT_TRUE(verifyProgram(*P).ok());
  Program Other(16);
  Node *Foreign = Other.makeInput("z", ValueType::Cipher, 30);
  // Rewire the first multiply's operand to a node the program does not own.
  Node *Victim = nullptr;
  for (Node *N : P->nodes())
    if (N->op() == OpCode::Multiply)
      Victim = N;
  ASSERT_NE(Victim, nullptr);
  P->setParm(Victim, 0, Foreign);
  Status S = verifyProgram(*P);
  ASSERT_FALSE(S.ok());
  EXPECT_TRUE(mentions(S, "dangling operand")) << S.message();
  EXPECT_TRUE(mentions(S, "%" + std::to_string(Victim->id()))) << S.message();
}

// --- Mutation class 2: cycle in the term graph. ---

TEST(VerifierMutation, CycleRejected) {
  std::unique_ptr<Program> P = makeWellFormed();
  // Find an add whose operand chain we can close into a loop: make one of
  // the add's ancestors take the add itself as an operand.
  Node *Add = nullptr;
  for (Node *N : P->nodes())
    if (N->op() == OpCode::Add)
      Add = N;
  ASSERT_NE(Add, nullptr);
  Node *Ancestor = Add->parm(0); // a multiply
  ASSERT_EQ(Ancestor->op(), OpCode::Multiply);
  P->setParm(Ancestor, 0, Add); // multiply now depends on its consumer
  Status S = verifyProgram(*P);
  ASSERT_FALSE(S.ok());
  EXPECT_TRUE(mentions(S, "cycle in term graph")) << S.message();
  // The diagnostic names a node actually on the cycle.
  EXPECT_TRUE(mentions(S, "%" + std::to_string(Add->id())) ||
              mentions(S, "%" + std::to_string(Ancestor->id())))
      << S.message();
}

// --- Mutation class 3: wrong operand arity. ---

TEST(VerifierMutation, WrongArityRejected) {
  Program P(16);
  Node *X = P.makeInput("x", ValueType::Cipher, 30);
  Node *Bad = P.makeInstruction(OpCode::Add, {X}); // ADD takes 2
  P.makeOutput("out", Bad);
  Status S = verifyProgram(P);
  ASSERT_FALSE(S.ok());
  EXPECT_TRUE(mentions(S, "%" + std::to_string(Bad->id()))) << S.message();
  EXPECT_TRUE(mentions(S, "takes 2")) << S.message();
}

// --- Mutation class 4: scale mismatch (Constraint 2 on a compiled graph). ---

TEST(VerifierMutation, ScaleMismatchRejected) {
  std::unique_ptr<Program> P = makeWellFormed();
  Expected<CompiledProgram> CP = compile(*P);
  ASSERT_TRUE(CP.ok()) << CP.message();
  ASSERT_TRUE(verifyCompiled(*CP).ok());
  // Corrupt an input's declared scale: the analyzer recomputes every scale
  // from the roots, so the first ADD/SUB joining the skewed branch with an
  // untouched one now violates Constraint 2.
  Node *In = CP->Prog->inputs()[0];
  In->setLogScale(In->logScale() + 5);
  Status S = verifyCompiled(*CP);
  ASSERT_FALSE(S.ok());
  EXPECT_TRUE(mentions(S, "Constraint 2 violated")) << S.message();
  EXPECT_TRUE(mentions(S, "%")) << S.message();
}

// --- Mutation class 5: out-of-range constant payload. ---

TEST(VerifierMutation, NonFiniteConstantRejected) {
  Program P(16);
  Node *X = P.makeInput("x", ValueType::Cipher, 30);
  Node *C =
      P.makeConstant({std::numeric_limits<double>::quiet_NaN()}, 30);
  Node *M = P.makeInstruction(OpCode::Multiply, {X, C});
  P.makeOutput("out", M);
  Status S = verifyProgram(P);
  ASSERT_FALSE(S.ok());
  EXPECT_TRUE(mentions(S, "non-finite")) << S.message();
  EXPECT_TRUE(mentions(S, "%" + std::to_string(C->id()))) << S.message();
}

TEST(VerifierMutation, OversizedConstantPayloadRejected) {
  Program P(16);
  Node *X = P.makeInput("x", ValueType::Cipher, 30);
  Node *C = P.makeConstant(std::vector<double>(32, 1.0), 30); // > vec_size
  Node *M = P.makeInstruction(OpCode::Multiply, {X, C});
  P.makeOutput("out", M);
  Status S = verifyProgram(P);
  ASSERT_FALSE(S.ok());
  EXPECT_TRUE(mentions(S, "payload size")) << S.message();
  EXPECT_TRUE(mentions(S, "%" + std::to_string(C->id()))) << S.message();
}

// --- Mutation class 6: un-normalized rotation step. ---

TEST(VerifierMutation, UnnormalizedRotationStepRejected) {
  Program P(16);
  Node *X = P.makeInput("x", ValueType::Cipher, 30);
  Node *R = P.makeRotation(OpCode::RotateRight, X, 3);
  P.makeOutput("out", R);
  VerifyOptions O;
  O.RequireNormalizedRotations = true;
  Status S = verifyProgram(P, O);
  ASSERT_FALSE(S.ok());
  EXPECT_TRUE(mentions(S, "un-normalized rotation step")) << S.message();
  EXPECT_TRUE(mentions(S, "%" + std::to_string(R->id()))) << S.message();
  // The same graph is fine under the input contract (the optimizer is what
  // establishes normalization).
  EXPECT_TRUE(verifyProgram(P).ok());
}

TEST(VerifierMutation, RotationWithoutGaloisKeyRejected) {
  std::unique_ptr<Program> P = makeWellFormed();
  Expected<CompiledProgram> CP = compile(*P);
  ASSERT_TRUE(CP.ok()) << CP.message();
  // Retarget the rotation to a step no Galois key was selected for.
  Node *Rot = nullptr;
  for (Node *N : CP->Prog->nodes())
    if (isRotation(N->op()))
      Rot = N;
  ASSERT_NE(Rot, nullptr);
  Rot->setRotation(5);
  Status S = verifyCompiled(*CP);
  ASSERT_FALSE(S.ok());
  EXPECT_TRUE(mentions(S, "no Galois key")) << S.message();
  EXPECT_TRUE(mentions(S, "%" + std::to_string(Rot->id()))) << S.message();
}

TEST(VerifierMutation, GaloisKeyBelowItsRotationsLevelRejected) {
  std::unique_ptr<Program> P = makeWellFormed();
  Expected<CompiledProgram> CP = compile(*P);
  ASSERT_TRUE(CP.ok()) << CP.message();
  ASSERT_EQ(CP->RotationKeyPrimes.size(), 1u);
  auto [Step, Primes] = *CP->RotationKeyPrimes.begin();
  ASSERT_GE(Primes, 2u);
  // A key one digit short of the level its rotation runs at.
  CP->RotationKeyPrimes[Step] = Primes - 1;
  Status S = verifyCompiled(*CP);
  ASSERT_FALSE(S.ok());
  EXPECT_TRUE(mentions(S, "runs at " + std::to_string(Primes) + " primes"))
      << S.message();
  EXPECT_TRUE(mentions(S, "%")) << S.message();
  // A level past the data chain, and one for a step without a key.
  CP->RotationKeyPrimes[Step] = CP->BitSizes.size();
  S = verifyCompiled(*CP);
  EXPECT_TRUE(mentions(S, "outside [1, ")) << S.message();
  CP->RotationKeyPrimes[Step] = Primes;
  CP->RotationKeyPrimes[Step + 1] = 1;
  S = verifyCompiled(*CP);
  EXPECT_TRUE(mentions(S, "which has no Galois key")) << S.message();
  // No recorded level asks for full keys.
  CP->RotationKeyPrimes.clear();
  EXPECT_TRUE(verifyCompiled(*CP).ok());
}

// --- Stage contracts. ---

TEST(VerifierStages, CompilerOpsOnlyAfterInsertion) {
  Program P(16);
  Node *X = P.makeInput("x", ValueType::Cipher, 60);
  Node *R = P.makeInstruction(OpCode::Rescale, {X});
  R->setRescaleBits(30);
  P.makeOutput("out", R);
  Status S = verifyProgram(P); // input contract: no compiler ops yet
  ASSERT_FALSE(S.ok());
  EXPECT_TRUE(mentions(S, "compiler-inserted op")) << S.message();
  EXPECT_TRUE(verifyProgram(P, VerifyOptions::inserted()).ok());
}

TEST(VerifierStages, OrphanedInstructionRejectedAfterLowering) {
  Program P(16);
  Node *X = P.makeInput("x", ValueType::Cipher, 30);
  Node *Dead = P.makeInstruction(OpCode::Negate, {X});
  Node *Live = P.makeInstruction(OpCode::Add, {X, X});
  P.makeOutput("out", Live);
  // Input programs may carry dead expressions; lowered ones may not.
  EXPECT_TRUE(verifyProgram(P).ok());
  Status S = verifyProgram(P, VerifyOptions::lowered());
  ASSERT_FALSE(S.ok());
  EXPECT_TRUE(mentions(S, "orphaned")) << S.message();
  EXPECT_TRUE(mentions(S, "%" + std::to_string(Dead->id()))) << S.message();
}

TEST(VerifierStages, PlaintextFromCiphertextRejected) {
  Program P(16);
  Node *X = P.makeInput("x", ValueType::Cipher, 30);
  Node *Bad = P.makeInstruction(OpCode::Negate, {X}, ValueType::Vector);
  P.makeOutput("out", Bad);
  Status S = verifyProgram(P);
  ASSERT_FALSE(S.ok());
  EXPECT_TRUE(mentions(S, "plaintext")) << S.message();
  EXPECT_TRUE(mentions(S, "%" + std::to_string(Bad->id()))) << S.message();
}

// --- Dataflow analyzer facts. ---

TEST(Analyzer, FactsMatchLegacyValidatorsAndNoise) {
  std::unique_ptr<Program> P = makeWellFormed();
  Expected<CompiledProgram> CP = compile(*P);
  ASSERT_TRUE(CP.ok()) << CP.message();
  AnalysisOptions AO;
  AO.PolyDegree = CP->PolyDegree;
  Expected<AnalysisResult> AR = analyzeProgram(*CP->Prog, AO);
  ASSERT_TRUE(AR.ok()) << AR.message();
  // The embedded noise phase reproduces the legacy estimator bit for bit.
  NoiseEstimate Legacy = estimateNoise(*CP->Prog, CP->PolyDegree);
  ASSERT_EQ(AR->OutputNoise.OutputPrecisionBits.size(),
            Legacy.OutputPrecisionBits.size());
  for (size_t I = 0; I < Legacy.OutputPrecisionBits.size(); ++I) {
    EXPECT_DOUBLE_EQ(AR->OutputNoise.OutputPrecisionBits[I],
                     Legacy.OutputPrecisionBits[I]);
    EXPECT_DOUBLE_EQ(AR->OutputNoise.OutputNoiseBits[I],
                     Legacy.OutputNoiseBits[I]);
  }
  // Per-node facts line up with whole-program quantities.
  size_t MaxDepth = 0;
  for (const Node *N : CP->Prog->nodes())
    MaxDepth = std::max(MaxDepth, AR->MultDepth[N->id()]);
  EXPECT_EQ(MaxDepth, CP->Prog->multiplicativeDepth());
  // Every node on the path from a cipher input is cipher-tainted.
  for (const Node *Out : CP->Prog->outputs()) {
    EXPECT_TRUE(AR->HasInputAncestor[Out->id()]);
    EXPECT_TRUE(AR->HasCipherInputAncestor[Out->id()]);
    EXPECT_GE(AR->Level[Out->parm(0)->id()], 0);
    EXPECT_GT(AR->LogScale[Out->parm(0)->id()], 0);
  }
}

TEST(Analyzer, MagnitudeTracksConstantPayloads) {
  ProgramBuilder B("mag", 16);
  Expr X = B.inputCipher("x", 30);
  Expr C = B.constant(8.0, 30); // log2 = 3
  B.output("out", X * C, 30);
  std::unique_ptr<Program> P = B.take();
  Expected<AnalysisResult> AR = analyzeProgram(*P);
  ASSERT_TRUE(AR.ok()) << AR.message();
  const Node *Out = P->outputs()[0];
  const Node *Mul = Out->parm(0);
  // Inputs are assumed |m| <= 1 (0 bits); the product adds the constant's 3.
  EXPECT_DOUBLE_EQ(AR->MagBits[Mul->id()], 3.0);
}

// --- Lint pass unit tests. ---

/// Compiles and lints \p P, returning the warnings.
std::vector<LintWarning> lintOf(const Program &P, const LintOptions &LO = {},
                                CompilerOptions CO = CompilerOptions::eva()) {
  Expected<CompiledProgram> CP = compile(P, CO);
  EXPECT_TRUE(CP.ok()) << CP.message();
  AnalysisOptions AO;
  AO.SfBits = CO.SfBits;
  AO.PolyDegree = CP->PolyDegree;
  Expected<AnalysisResult> AR = analyzeProgram(*CP->Prog, AO);
  EXPECT_TRUE(AR.ok()) << AR.message();
  return lintCompiled(*CP, *AR, LO);
}

bool hasKind(const std::vector<LintWarning> &Ws, LintKind K) {
  for (const LintWarning &W : Ws)
    if (W.Kind == K)
      return true;
  return false;
}

TEST(Lint, CleanProgramHasNoWarnings) {
  std::unique_ptr<Program> P = makeWellFormed();
  EXPECT_TRUE(lintOf(*P).empty());
}

TEST(Lint, DeadOutputAndConstantFoldable) {
  Program P(16);
  Node *X = P.makeInput("x", ValueType::Cipher, 30);
  Node *A = P.makeConstant({2.0}, 30);
  Node *B = P.makeConstant({3.0}, 30);
  // Cipher-typed arithmetic over constants only: legal, but both foldable
  // and — as an output's sole ancestry — dead.
  Node *M = P.makeInstruction(OpCode::Multiply, {A, B});
  P.makeOutput("folded", M);
  Node *Live = P.makeInstruction(OpCode::Add, {X, X});
  P.makeOutput("out", Live);
  std::vector<LintWarning> Ws = lintOf(P);
  EXPECT_TRUE(hasKind(Ws, LintKind::DeadOutput));
  EXPECT_TRUE(hasKind(Ws, LintKind::ConstantFoldable));
}

TEST(Lint, UnusedInputFlagged) {
  ProgramBuilder B("unused", 16);
  Expr X = B.inputCipher("x", 30);
  B.inputCipher("never", 30);
  B.output("out", X + X, 30);
  std::unique_ptr<Program> P = B.take();
  std::vector<LintWarning> Ws = lintOf(*P);
  ASSERT_TRUE(hasKind(Ws, LintKind::UnusedInput));
  for (const LintWarning &W : Ws)
    if (W.Kind == LintKind::UnusedInput) {
      EXPECT_NE(W.Message.find("never"), std::string::npos) << W.Message;
    }
}

TEST(Lint, UnbalancedMultiplyChainFlagged) {
  ProgramBuilder B("chain", 16);
  Expr X = B.inputCipher("x", 30);
  // Left-leaning x^4: depth 3 where a balanced tree needs 2.
  B.output("out", ((X * X) * X) * X, 30);
  std::unique_ptr<Program> P = B.take();
  // CSE would rebalance nothing but hash-consing shares x*x; disable the
  // optimizer so the written shape is what gets linted.
  CompilerOptions CO;
  CO.Optimize = false;
  std::vector<LintWarning> Ws = lintOf(*P, {}, CO);
  EXPECT_TRUE(hasKind(Ws, LintKind::UnbalancedMultiply));
}

TEST(Lint, LowPrecisionThresholdIsConfigurable) {
  std::unique_ptr<Program> P = makeWellFormed();
  LintOptions Strict;
  Strict.MinPrecisionBits = 1000.0; // every real program is below this
  std::vector<LintWarning> Ws = lintOf(*P, Strict);
  ASSERT_TRUE(hasKind(Ws, LintKind::LowPrecision));
  for (const LintWarning &W : Ws)
    if (W.Kind == LintKind::LowPrecision) {
      EXPECT_NE(W.Message.find("out"), std::string::npos) << W.Message;
    }
}

TEST(Lint, RotationKeyPressureOverBudget) {
  ProgramBuilder B("rots", 64);
  Expr X = B.inputCipher("x", 30);
  B.output("out", (X << 3) + (X << 7), 30);
  std::unique_ptr<Program> P = B.take();
  CompilerOptions CO;
  CO.GaloisKeyBudget = 1; // basis rewrite still needs {1,2,4}
  std::vector<LintWarning> Ws = lintOf(*P, {}, CO);
  EXPECT_TRUE(hasKind(Ws, LintKind::RotationKeyPressure));
}

// --- Regressions for latent pass bugs found by the pass sandwich. ---

// lowerFrontendOps used to erase unreachable nodes only when it had lowered
// a SUM/COPY, so dead input-program expressions survived the pipeline and —
// with the optimizer off — were executed homomorphically.
TEST(Regression, LoweringErasesDeadInputExpressions) {
  ProgramBuilder B("deadcode", 16);
  Expr X = B.inputCipher("x", 30);
  Expr Dead = X * X; // built but never output
  (void)Dead;
  B.output("out", X + X, 30);
  std::unique_ptr<Program> P = B.take();
  CompilerOptions CO;
  CO.Optimize = false; // CSE must not be what saves us
  Expected<CompiledProgram> CP = compile(*P, CO);
  ASSERT_TRUE(CP.ok()) << CP.message();
  EXPECT_EQ(countOps(*CP->Prog, OpCode::Multiply), 0u)
      << "dead multiply reached the compiled program";
}

// galoisBudgetPass used to skip eraseUnreachable when its only change was
// forwarding an identity rotation (normalized step 0), leaving an orphaned
// rotation node behind.
TEST(Regression, GaloisBudgetErasesForwardedIdentityRotation) {
  ProgramBuilder B("identity", 16);
  Expr X = B.inputCipher("x", 30);
  // Two basis rotations push the distinct-step count over the budget so the
  // pass runs, but neither needs rewriting — the ONLY graph change is
  // forwarding the full-cycle (identity) rotation.
  B.output("out", ((X << 1) + (X << 2)) + (X << 16), 30);
  std::unique_ptr<Program> P = B.take();
  size_t Rewritten = galoisBudgetPass(*P, 1);
  EXPECT_EQ(Rewritten, 0u);
  EXPECT_EQ(countOps(*P, OpCode::RotateLeft), 2u)
      << "identity rotation left orphaned in the graph";
  EXPECT_TRUE(verifyProgram(*P, VerifyOptions::lowered()).ok());
}

} // namespace
