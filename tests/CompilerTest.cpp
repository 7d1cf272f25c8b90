//===- CompilerTest.cpp - Compiler pass tests against the paper's figures ---===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each transformation pass is checked against the worked examples of the
/// paper: x^2*y^3 (Figure 2), x^2+x (Figure 3), and x^2+x+x (Figure 5),
/// plus the Section 5.3 optimality formula for the modulus length r.
///
//===----------------------------------------------------------------------===//

#include "eva/core/Compiler.h"
#include "eva/frontend/Expr.h"
#include "eva/ir/Printer.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace eva;

namespace {

/// Figure 2's input program: x^2 * y^3 with x.scale = 2^60, y.scale = 2^30.
std::unique_ptr<Program> makeX2Y3(double XScale = 60, double YScale = 30) {
  ProgramBuilder B("x2y3", 8);
  Expr X = B.inputCipher("x", XScale);
  Expr Y = B.inputCipher("y", YScale);
  Expr X2 = X * X;
  Expr Y2 = Y * Y;
  Expr Y3 = Y2 * Y;
  B.output("out", X2 * Y3, 30);
  return B.take();
}

TEST(WaterlineRescale, Figure2dPlacement) {
  // With s_w = max scale = 2^60: x*x reaches 2^120, rescale to 2^60 (>= s_w);
  // y^2 = 2^60 and y^3 = 2^90 stay below s_w + s_f; the final multiply
  // (2^60 * 2^90 = 2^150) rescales once. Figure 2(d) shows exactly two
  // RESCALE nodes.
  std::unique_ptr<Program> P = makeX2Y3();
  waterlineRescalePass(*P, 60);
  EXPECT_EQ(countOps(*P, OpCode::Rescale), 2u);
  // The rescale after x*x feeds the final multiply.
  for (const Node *N : P->nodes()) {
    if (N->op() != OpCode::Rescale)
      continue;
    EXPECT_EQ(N->rescaleBits(), 60);
    EXPECT_EQ(N->parm(0)->op(), OpCode::Multiply);
  }
}

TEST(WaterlineRescale, SetsScalesPerTable2Semantics) {
  std::unique_ptr<Program> P = makeX2Y3();
  waterlineRescalePass(*P, 60);
  // Output operand scale: x^2 rescaled to 60, y^3 = 90; product 150,
  // rescaled to 90.
  const Node *Out = P->outputs()[0];
  EXPECT_NEAR(Out->parm(0)->logScale(), 90.0, 1e-9);
}

TEST(AlwaysRescale, InsertsAfterEveryMultiply) {
  // Figure 2(b): four MULTIPLY nodes, four RESCALE nodes.
  std::unique_ptr<Program> P = makeX2Y3();
  alwaysRescalePass(*P, 60);
  EXPECT_EQ(countOps(*P, OpCode::Rescale), 4u);
}

TEST(EagerVsLazy, Figure5Placement) {
  // x^2 + x + x with x.scale = 2^60: waterline inserts one RESCALE after
  // x*x; both ADDs then need x at the lower level. EAGER inserts a single
  // MODSWITCH right below x (shared by both ADD operands); LAZY inserts one
  // MODSWITCH per mismatched ADD operand.
  auto Build = []() {
    ProgramBuilder B("x2xx", 8);
    Expr X = B.inputCipher("x", 60);
    B.output("out", X * X + X + X, 30);
    return B.take();
  };

  std::unique_ptr<Program> Eager = Build();
  waterlineRescalePass(*Eager, 60);
  eagerModSwitchPass(*Eager);
  EXPECT_EQ(countOps(*Eager, OpCode::ModSwitch), 1u);

  std::unique_ptr<Program> Lazy = Build();
  waterlineRescalePass(*Lazy, 60);
  lazyModSwitchPass(*Lazy);
  EXPECT_EQ(countOps(*Lazy, OpCode::ModSwitch), 2u);
}

TEST(EagerModSwitch, AlignsRootsAtDifferentDepths) {
  // z + x^2*y^2 (all scales 60): the x,y branch rescales twice (after each
  // multiply at 2^120); z must be switched down two levels right below z.
  ProgramBuilder B("roots", 8);
  Expr X = B.inputCipher("x", 60);
  Expr Y = B.inputCipher("y", 60);
  Expr Z = B.inputCipher("z", 60);
  B.output("out", Z + (X * X) * (Y * Y), 30);
  std::unique_ptr<Program> P = B.take();
  waterlineRescalePass(*P, 60);
  eagerModSwitchPass(*P);
  EXPECT_EQ(countOps(*P, OpCode::ModSwitch), 2u);
  // Both modswitches sit directly below the root z.
  for (const Node *N : P->nodes()) {
    if (N->op() != OpCode::ModSwitch)
      continue;
    const Node *Parm = N->parm(0);
    EXPECT_TRUE(Parm->op() == OpCode::Input ||
                Parm->op() == OpCode::ModSwitch);
  }
}

TEST(MatchScale, Figure3cInsertsConstantMultiply) {
  // x^2 + x with x.scale = 2^30 and s_f = 2^60: no rescale fires (waterline),
  // so the ADD sees scales 2^60 and 2^30. MATCH-SCALE multiplies x by the
  // constant 1 at scale 2^30 instead of rescaling (Figure 3(c)).
  ProgramBuilder B("x2px", 8);
  Expr X = B.inputCipher("x", 30);
  B.output("out", X * X + X, 30);
  std::unique_ptr<Program> P = B.take();
  waterlineRescalePass(*P, 60);
  eagerModSwitchPass(*P);
  matchScalePass(*P);
  EXPECT_EQ(countOps(*P, OpCode::Rescale), 0u);
  EXPECT_EQ(countOps(*P, OpCode::ModSwitch), 0u);
  EXPECT_EQ(countOps(*P, OpCode::Multiply), 2u); // x*x and x*1
  ASSERT_EQ(P->constants().size(), 1u);
  EXPECT_NEAR(P->constants()[0]->logScale(), 30.0, 1e-9);
  EXPECT_NEAR(P->constants()[0]->constValue()[0], 1.0, 0.0);
}

TEST(MatchScale, NormalizesPlainOperandWithoutMultiply) {
  ProgramBuilder B("plainadd", 8);
  Expr X = B.inputCipher("x", 30);
  Expr C = B.constant(0.5, 10);
  B.output("out", X * X + C, 30);
  std::unique_ptr<Program> P = B.take();
  waterlineRescalePass(*P, 60);
  matchScalePass(*P);
  // The plain operand is re-encoded at 2^60; no extra multiply.
  EXPECT_EQ(countOps(*P, OpCode::Multiply), 1u);
  EXPECT_EQ(countOps(*P, OpCode::NormalizeScale), 1u);
  for (const Node *N : P->nodes()) {
    if (N->op() == OpCode::NormalizeScale) {
      EXPECT_NEAR(N->logScale(), 60.0, 1e-9);
    }
  }
}

TEST(Relinearize, OnlyAfterCipherCipherMultiply) {
  ProgramBuilder B("relin", 8);
  Expr X = B.inputCipher("x", 30);
  Expr C = B.constant(2.0, 10);
  Expr R = (X * X) * C; // one ct-ct multiply, one ct-pt multiply
  B.output("out", R, 30);
  std::unique_ptr<Program> P = B.take();
  relinearizePass(*P);
  EXPECT_EQ(countOps(*P, OpCode::Relinearize), 1u);
  for (const Node *N : P->nodes()) {
    if (N->op() != OpCode::Relinearize)
      continue;
    EXPECT_EQ(N->parm(0)->op(), OpCode::Multiply);
    EXPECT_TRUE(N->parm(0)->parm(0)->isCipher());
    EXPECT_TRUE(N->parm(0)->parm(1)->isCipher());
  }
}

TEST(Relinearize, PlacedBeforeRescale) {
  // The pass order (rescale first) means insertion lands between MULTIPLY
  // and its RESCALE child.
  std::unique_ptr<Program> P = makeX2Y3();
  waterlineRescalePass(*P, 60);
  relinearizePass(*P);
  for (const Node *N : P->nodes()) {
    if (N->op() != OpCode::Rescale)
      continue;
    EXPECT_EQ(N->parm(0)->op(), OpCode::Relinearize);
  }
}

TEST(Validation, AcceptsCompiledAndRejectsRaw) {
  std::unique_ptr<Program> Raw = makeX2Y3();
  // The raw program has no relinearization: Constraint 3 must fail.
  EXPECT_FALSE(validateNumPolynomials(*Raw).ok());

  Expected<CompiledProgram> CP = compile(*Raw);
  ASSERT_TRUE(CP.ok()) << (CP.ok() ? "" : CP.message());
  EXPECT_TRUE(validateNumPolynomials(*CP->Prog).ok());
  EXPECT_TRUE(validateScales(*CP->Prog).ok());
  EXPECT_TRUE(validateRescaleChains(*CP->Prog, 60).ok());
}

TEST(Validation, CatchesMismatchedScalesOnAdd) {
  ProgramBuilder B("bad", 8);
  Expr X = B.inputCipher("x", 30);
  Expr Y = B.inputCipher("y", 40);
  B.output("out", X + Y, 30);
  std::unique_ptr<Program> P = B.take();
  Status S = validateScales(*P);
  EXPECT_FALSE(S.ok());
  EXPECT_NE(S.message().find("Constraint 2"), std::string::npos);
}

TEST(Validation, CatchesNonConformingChains) {
  // Hand-build a program whose two paths rescale by different values.
  Program P(8, "bad");
  Node *X = P.makeInput("x", ValueType::Cipher, 60);
  Node *A = P.makeInstruction(OpCode::Rescale, {X});
  A->setRescaleBits(30);
  Node *B = P.makeInstruction(OpCode::Rescale, {X});
  B->setRescaleBits(40);
  Node *M = P.makeInstruction(OpCode::Multiply, {A, B});
  P.makeOutput("out", M);
  Expected<RescaleChainInfo> R = validateRescaleChains(P, 60);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.message().find("non-conforming"), std::string::npos);
}

TEST(Validation, CatchesLevelMismatch) {
  Program P(8, "bad");
  Node *X = P.makeInput("x", ValueType::Cipher, 30);
  Node *A = P.makeInstruction(OpCode::ModSwitch, {X});
  Node *M = P.makeInstruction(OpCode::Multiply, {A, X});
  P.makeOutput("out", M);
  Expected<RescaleChainInfo> R = validateRescaleChains(P, 60);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.message().find("Constraint 1"), std::string::npos);
}

TEST(Validation, CatchesOversizedRescale) {
  Program P(8, "bad");
  Node *X = P.makeInput("x", ValueType::Cipher, 60);
  Node *A = P.makeInstruction(OpCode::Rescale, {X});
  A->setRescaleBits(61);
  P.makeOutput("out", A);
  Expected<RescaleChainInfo> R = validateRescaleChains(P, 60);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.message().find("Constraint 4"), std::string::npos);
}

TEST(ParamSelection, Section42ChainForX2Y3) {
  // Figure 2(d) + Section 4.2: chain {60, 60}, output scale 2^90, desired
  // 2^30 -> s' = 2^120 -> factors {60, 60}; plus the special prime:
  // r = 1 + 2 + 2 = 5.
  std::unique_ptr<Program> P = makeX2Y3();
  Expected<CompiledProgram> CP = compile(*P);
  ASSERT_TRUE(CP.ok()) << (CP.ok() ? "" : CP.message());
  EXPECT_EQ(CP->BitSizes, (std::vector<int>{60, 60, 60, 60, 60}));
  EXPECT_EQ(CP->modulusLength(), 5u);
  // 300 total bits need N = 16384 under the 128-bit table.
  EXPECT_EQ(CP->PolyDegree, 16384u);
}

TEST(ParamSelection, Section53OptimalityFormula) {
  // r = 1 + |c_o| + ceil((scale_o + desired_o)/60) for the maximal output.
  ProgramBuilder B("f", 8);
  Expr X = B.inputCipher("x", 40);
  Expr Y = X.pow(4); // two squarings: 80 -> rescale -> 20... depends on s_w
  B.output("out", Y, 30);
  std::unique_ptr<Program> P = B.take();
  Expected<CompiledProgram> CP = compile(*P);
  ASSERT_TRUE(CP.ok());
  // Recompute the formula from the compiled graph.
  Expected<RescaleChainInfo> Chains = validateRescaleChains(*CP->Prog, 60);
  ASSERT_TRUE(Chains.ok());
  const Node *Out = CP->Prog->outputs()[0];
  double SPrime = Out->parm(0)->logScale() + Out->logScale();
  size_t Want = 1 + Chains->OutputChains[0].size() +
                static_cast<size_t>(std::ceil(SPrime / 60.0));
  EXPECT_EQ(CP->modulusLength(), Want);
}

TEST(ParamSelection, ChetModeNeedsLongerChain) {
  // The headline Table 6 effect: CHET's per-level rescaling consumes more
  // chain primes than WATERLINE-RESCALE on a DNN-shaped program
  // (plaintext-weight multiply followed by a square activation per layer).
  auto Build = []() {
    ProgramBuilder B("deep", 64);
    Expr X = B.inputCipher("x", 25);
    Expr C = B.constant(0.5, 20);
    Expr V = X;
    for (int I = 0; I < 4; ++I) {
      V = V * C; // conv-like plaintext multiply
      V = V * V; // square activation
    }
    B.output("out", V, 25);
    return B.take();
  };
  std::unique_ptr<Program> P = Build();
  Expected<CompiledProgram> Eva = compile(*P, CompilerOptions::eva());
  Expected<CompiledProgram> Chet = compile(*P, CompilerOptions::chet());
  ASSERT_TRUE(Eva.ok()) << (Eva.ok() ? "" : Eva.message());
  ASSERT_TRUE(Chet.ok()) << (Chet.ok() ? "" : Chet.message());
  // EVA optimizes the modulus length r (Section 5.3); Q/N may or may not
  // shrink with it on toy programs, so only r is asserted here.
  EXPECT_LT(Eva->modulusLength(), Chet->modulusLength());
}

TEST(RotationSelection, NormalizesAndDeduplicates) {
  ProgramBuilder B("rot", 64);
  Expr X = B.inputCipher("x", 30);
  Expr A = (X << 3) + (X << 67);  // 67 mod 64 == 3: same key
  Expr C = (X >> 1) + (X << 63);  // right 1 == left 63: same key
  Expr D = (X << 64) + A + C;     // 64 mod 64 == 0: no key
  B.output("out", D, 30);
  std::set<uint64_t> Steps = selectRotationSteps(B.program());
  EXPECT_EQ(Steps, (std::set<uint64_t>{3, 63}));
}

TEST(Compiler, RejectsCompilerOpsInInput) {
  Program P(8, "bad");
  Node *X = P.makeInput("x", ValueType::Cipher, 30);
  Node *R = P.makeInstruction(OpCode::Relinearize, {X});
  P.makeOutput("out", R);
  Expected<CompiledProgram> CP = compile(P);
  EXPECT_FALSE(CP.ok());
  EXPECT_NE(CP.message().find("may not contain"), std::string::npos);
}

TEST(Compiler, RejectsExcessiveDepth) {
  // A chain deep enough to exceed the 1792-bit bound at N = 65536.
  ProgramBuilder B("toodeep", 8);
  Expr X = B.inputCipher("x", 60);
  Expr V = X;
  for (int I = 0; I < 40; ++I)
    V = V * V;
  B.output("out", V, 30);
  Expected<CompiledProgram> CP = compile(B.program());
  EXPECT_FALSE(CP.ok());
  EXPECT_NE(CP.message().find("security"), std::string::npos);
}

TEST(Compiler, LowersSumToRotateTree) {
  ProgramBuilder B("sum", 16);
  Expr X = B.inputCipher("x", 30);
  B.output("out", B.sumSlots(X), 30);
  Expected<CompiledProgram> CP = compile(B.program());
  ASSERT_TRUE(CP.ok());
  EXPECT_EQ(countOps(*CP->Prog, OpCode::Sum), 0u);
  EXPECT_EQ(countOps(*CP->Prog, OpCode::RotateLeft), 4u); // log2(16)
  EXPECT_EQ(CP->RotationSteps, (std::set<uint64_t>{1, 2, 4, 8}));
}

//===----------------------------------------------------------------------===
// Rotation hoisting plan + Galois-key budgeting
//===----------------------------------------------------------------------===

TEST(RotationPlan, GroupsRotationsBySharedSource) {
  ProgramBuilder B("fan", 32);
  Expr X = B.inputCipher("x", 30);
  Expr Y = B.inputCipher("y", 30);
  // Four rotations of x (one hoist group), one lone rotation of y (none).
  B.output("o", ((X << 1) + (X << 3) + (X << 5) + (X << 7)) * (Y << 2), 30);
  Expected<CompiledProgram> CP = compile(B.program());
  ASSERT_TRUE(CP.ok()) << CP.message();
  ASSERT_EQ(CP->RotPlan.Groups.size(), 1u);
  EXPECT_EQ(CP->RotPlan.Groups[0].Members.size(), 4u);
  EXPECT_EQ(CP->RotPlan.GroupOf.size(), 4u);
  for (const Node *M : CP->RotPlan.Groups[0].Members)
    EXPECT_EQ(M->parm(0), CP->RotPlan.Groups[0].Source);
}

TEST(RotationPlan, IdentityRotationsAreNotGrouped) {
  ProgramBuilder B("ident", 16);
  Expr X = B.inputCipher("x", 30);
  B.output("o", ((X << 16) + (X << 1) + X) * X, 30);
  Expected<CompiledProgram> CP = compile(B.program());
  ASSERT_TRUE(CP.ok()) << CP.message();
  // Only one real rotation survives CSE; no group of one.
  EXPECT_TRUE(CP->RotPlan.empty());
}

TEST(GaloisBudget, RewritesToPowerOfTwoBasisUnderBudget) {
  ProgramBuilder B("budget", 64);
  Expr X = B.inputCipher("x", 30);
  // Steps {3, 7, 13, 21}: 4 distinct steps, bits {1,2,4,8,16}.
  B.output("o", ((X << 3) + (X << 7) + (X << 13) + (X << 21)) * X, 30);
  CompilerOptions O;
  O.GaloisKeyBudget = 3;
  Expected<CompiledProgram> CP = compile(B.program(), O);
  ASSERT_TRUE(CP.ok()) << CP.message();
  for (uint64_t S : CP->RotationSteps)
    EXPECT_EQ(S & (S - 1), 0u) << "step " << S << " is not a power of two";
  EXPECT_EQ(CP->RotationSteps, (std::set<uint64_t>{1, 2, 4, 8, 16}));
}

TEST(GaloisBudget, NoRewriteWhenUnderBudget) {
  ProgramBuilder B("under", 64);
  Expr X = B.inputCipher("x", 30);
  B.output("o", ((X << 3) + (X << 7)) * X, 30);
  CompilerOptions O;
  O.GaloisKeyBudget = 2;
  Expected<CompiledProgram> CP = compile(B.program(), O);
  ASSERT_TRUE(CP.ok()) << CP.message();
  EXPECT_EQ(CP->RotationSteps, (std::set<uint64_t>{3, 7}));
}

TEST(GaloisBudget, ChainPrefixesAreShared) {
  // 3 = 1+2 and 7 = 1+2+4 share the rotate-by-1 and rotate-by-3 prefix, so
  // the rewrite emits exactly three rotations, not five.
  ProgramBuilder B("prefix", 64);
  Expr X = B.inputCipher("x", 30);
  B.output("o", ((X << 3) + (X << 7)) * X, 30);
  Program &P = B.program();
  lowerFrontendOps(P);
  size_t Rewritten = galoisBudgetPass(P, 1);
  EXPECT_EQ(Rewritten, 2u);
  EXPECT_EQ(countOps(P, OpCode::RotateLeft), 3u); // by 1, by 2, by 4
  EXPECT_EQ(selectRotationSteps(P), (std::set<uint64_t>{1, 2, 4}));
  EXPECT_TRUE(P.verifyStructure().ok());
}

TEST(GaloisBudget, RightRotationsAndWraparoundNormalize) {
  // Right 5 on vec 64 is left 59 = 32+16+8+2+1.
  ProgramBuilder B("right", 64);
  Expr X = B.inputCipher("x", 30);
  B.output("o", ((X >> 5) + (X << 3)) * X, 30);
  CompilerOptions O;
  O.GaloisKeyBudget = 1;
  Expected<CompiledProgram> CP = compile(B.program(), O);
  ASSERT_TRUE(CP.ok()) << CP.message();
  EXPECT_EQ(CP->RotationSteps, (std::set<uint64_t>{1, 2, 8, 16, 32}));
  EXPECT_EQ(countOps(*CP->Prog, OpCode::RotateRight), 0u);
}

TEST(Compiler, CompiledProgramContextBitOrder) {
  std::unique_ptr<Program> P = makeX2Y3();
  Expected<CompiledProgram> CP = compile(*P);
  ASSERT_TRUE(CP.ok());
  std::vector<int> Ctx = CP->contextBitSizes();
  ASSERT_EQ(Ctx.size(), CP->BitSizes.size());
  // Special prime last; data primes reversed.
  EXPECT_EQ(Ctx.back(), CP->BitSizes.front());
  for (size_t I = 0; I + 1 < Ctx.size(); ++I)
    EXPECT_EQ(Ctx[I], CP->BitSizes[CP->BitSizes.size() - 1 - I]);
}

} // namespace
