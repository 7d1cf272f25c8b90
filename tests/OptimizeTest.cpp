//===- OptimizeTest.cpp - CSE and simplification pass tests ------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/core/Compiler.h"
#include "eva/frontend/Expr.h"
#include "eva/ir/Printer.h"
#include "eva/runtime/ReferenceExecutor.h"
#include "eva/support/Random.h"
#include "eva/tensor/Network.h"

#include <gtest/gtest.h>

#include <limits>

using namespace eva;

namespace {

TEST(Cse, MergesIdenticalSubexpressions) {
  ProgramBuilder B("cse", 16);
  Expr X = B.inputCipher("x", 30);
  Expr A = (X << 3) * X;
  Expr C = (X << 3) * X; // identical subtree
  B.output("out", A + C, 30);
  Program &P = B.program();
  EXPECT_EQ(countOps(P, OpCode::RotateLeft), 2u);
  EXPECT_EQ(countOps(P, OpCode::Multiply), 2u);
  size_t N = cseAndSimplifyPass(P);
  EXPECT_GE(N, 2u);
  EXPECT_EQ(countOps(P, OpCode::RotateLeft), 1u);
  EXPECT_EQ(countOps(P, OpCode::Multiply), 1u);
  EXPECT_TRUE(P.verifyStructure().ok());
}

TEST(Cse, CommutativeOperandsMerge) {
  ProgramBuilder B("comm", 16);
  Expr X = B.inputCipher("x", 30);
  Expr Y = B.inputCipher("y", 30);
  Expr A = X * Y;
  Expr C = Y * X; // same multiply, swapped operands
  B.output("out", A + C, 30);
  cseAndSimplifyPass(B.program());
  EXPECT_EQ(countOps(B.program(), OpCode::Multiply), 1u);
}

TEST(Cse, DistinctRotationsDoNotMerge) {
  ProgramBuilder B("norm", 16);
  Expr X = B.inputCipher("x", 30);
  B.output("out", (X << 3) + (X << 5), 30);
  cseAndSimplifyPass(B.program());
  EXPECT_EQ(countOps(B.program(), OpCode::RotateLeft), 2u);
}

TEST(Cse, ZeroRotationIsEliminated) {
  ProgramBuilder B("zero", 16);
  Expr X = B.inputCipher("x", 30);
  B.output("out", (X << 16) + (X << 0) + (X >> 32), 30);
  size_t N = cseAndSimplifyPass(B.program());
  EXPECT_GE(N, 3u); // all three rotations are identities mod 16
  EXPECT_EQ(countOps(B.program(), OpCode::RotateLeft), 0u);
  EXPECT_EQ(countOps(B.program(), OpCode::RotateRight), 0u);
}

TEST(Cse, ChainedRotationsFold) {
  ProgramBuilder B("chain", 16);
  Expr X = B.inputCipher("x", 30);
  B.output("out", ((X << 3) << 5) * X, 30);
  size_t N = cseAndSimplifyPass(B.program());
  EXPECT_GE(N, 1u);
  EXPECT_EQ(countOps(B.program(), OpCode::RotateLeft), 1u);
  for (const Node *R : B.program().nodes()) {
    if (R->op() == OpCode::RotateLeft) {
      EXPECT_EQ(R->rotation(), 8);
    }
  }
  EXPECT_TRUE(B.program().verifyStructure().ok());
}

TEST(Cse, ChainedRotationWraparoundFolds) {
  // 10 + 9 = 19 == 3 (mod 16).
  ProgramBuilder B("wrap", 16);
  Expr X = B.inputCipher("x", 30);
  B.output("out", ((X << 10) << 9) * X, 30);
  cseAndSimplifyPass(B.program());
  EXPECT_EQ(countOps(B.program(), OpCode::RotateLeft), 1u);
  for (const Node *R : B.program().nodes()) {
    if (R->op() == OpCode::RotateLeft) {
      EXPECT_EQ(R->rotation(), 3);
    }
  }
}

TEST(Cse, ChainedRotationCancellationVanishes) {
  // Left 5 then right 5 is the identity: both rotations must disappear.
  ProgramBuilder B("cancel", 16);
  Expr X = B.inputCipher("x", 30);
  B.output("out", ((X << 5) >> 5) * X, 30);
  size_t N = cseAndSimplifyPass(B.program());
  EXPECT_GE(N, 1u);
  EXPECT_EQ(countOps(B.program(), OpCode::RotateLeft), 0u);
  EXPECT_EQ(countOps(B.program(), OpCode::RotateRight), 0u);
  EXPECT_TRUE(B.program().verifyStructure().ok());
}

TEST(Cse, MixedDirectionChainFoldsToNetRotation) {
  // Left 5 then right 2 nets to left 3; verify by semantics, not opcode.
  ProgramBuilder B("mixed", 16);
  Expr X = B.inputCipher("x", 30);
  B.output("out", ((X << 5) >> 2) * X, 30);
  std::map<std::string, std::vector<double>> In;
  std::vector<double> V(16);
  for (size_t I = 0; I < 16; ++I)
    V[I] = 0.1 * static_cast<double>(I) - 0.5;
  In.emplace("x", V);
  std::map<std::string, std::vector<double>> Before =
      *ReferenceExecutor(B.program()).run(In);
  cseAndSimplifyPass(B.program());
  EXPECT_EQ(countOps(B.program(), OpCode::RotateLeft) +
                countOps(B.program(), OpCode::RotateRight),
            1u);
  std::map<std::string, std::vector<double>> After =
      *ReferenceExecutor(B.program()).run(In);
  for (size_t I = 0; I < 16; ++I)
    EXPECT_DOUBLE_EQ(Before.at("out")[I], After.at("out")[I]);
}

TEST(Cse, ChainFoldKeepsSharedIntermediate) {
  // The inner rotation has a second (direct) use, so it must survive while
  // the outer one retargets the chain root.
  ProgramBuilder B("shared", 16);
  Expr X = B.inputCipher("x", 30);
  Expr Inner = X << 3;
  B.output("a", Inner * X, 30);
  B.output("b", (Inner << 5) * X, 30);
  cseAndSimplifyPass(B.program());
  EXPECT_EQ(countOps(B.program(), OpCode::RotateLeft), 2u); // by 3 and by 8
  bool Saw3 = false, Saw8 = false;
  for (const Node *R : B.program().nodes()) {
    if (R->op() != OpCode::RotateLeft)
      continue;
    Saw3 |= R->rotation() == 3;
    Saw8 |= R->rotation() == 8;
    EXPECT_EQ(R->parm(0)->op(), OpCode::Input)
        << "every surviving rotation hangs off the chain root";
  }
  EXPECT_TRUE(Saw3 && Saw8);
}

TEST(Cse, DoubleNegationFolds) {
  ProgramBuilder B("negneg", 16);
  Expr X = B.inputCipher("x", 30);
  B.output("out", -(-X) + X, 30);
  cseAndSimplifyPass(B.program());
  EXPECT_EQ(countOps(B.program(), OpCode::Negate), 0u);
}

TEST(Cse, DuplicateConstantsMerge) {
  ProgramBuilder B("const", 16);
  Expr X = B.inputCipher("x", 30);
  Expr A = X * B.constant(0.5, 20);
  Expr C = X * B.constant(0.5, 20);
  B.output("out", A + C, 30);
  EXPECT_EQ(B.program().constants().size(), 2u);
  cseAndSimplifyPass(B.program());
  EXPECT_EQ(B.program().constants().size(), 1u);
  EXPECT_EQ(countOps(B.program(), OpCode::Multiply), 1u);

  // -0.0 == +0.0, so a signed zero merges with an unsigned one.
  ProgramBuilder Z("zeros", 16);
  Expr Y = Z.inputCipher("y", 30);
  Z.output("out", Y * Z.constantVector({0.0}, 20) +
                      Y * Z.constantVector({-0.0}, 20),
           30);
  cseAndSimplifyPass(Z.program());
  EXPECT_EQ(Z.program().constants().size(), 1u);
  EXPECT_EQ(countOps(Z.program(), OpCode::Multiply), 1u);
}

// Ordering payloads with operator< is no strict weak order once an element
// is NaN: {NaN} and {1.0} compared equivalent, merged, and x * 1.0 became
// x * NaN. A NaN element equals nothing, so nothing merges here.
TEST(Cse, NanConstantNeverMergesWithFiniteOne) {
  ProgramBuilder B("nan", 16);
  Expr X = B.inputCipher("x", 30);
  B.output("nan", X * B.constantVector(
                          {std::numeric_limits<double>::quiet_NaN()}, 30),
           30);
  B.output("one", X * B.constantVector({1.0}, 30), 30);
  Program &P = B.program();
  EXPECT_EQ(cseAndSimplifyPass(P), 0u);
  EXPECT_EQ(P.constants().size(), 2u);
  EXPECT_EQ(countOps(P, OpCode::Multiply), 2u);
  const Node *Mul = P.outputs()[1]->parm(0);
  ASSERT_EQ(Mul->op(), OpCode::Multiply);
  const Node *C = Mul->parm(1);
  ASSERT_EQ(C->op(), OpCode::Constant);
  EXPECT_EQ(C->constValue(), std::vector<double>{1.0});
}

TEST(Cse, DifferentScaleConstantsStayDistinct) {
  ProgramBuilder B("const2", 16);
  Expr X = B.inputCipher("x", 30);
  B.output("out", X * B.constant(0.5, 20) + X * B.constant(0.5, 25), 30);
  cseAndSimplifyPass(B.program());
  EXPECT_EQ(B.program().constants().size(), 2u);
}

TEST(Cse, PreservesSemanticsOnRandomPrograms) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    RandomSource Rng(Seed);
    ProgramBuilder B("sem", 32);
    Expr X = B.inputCipher("x", 30);
    Expr Y = B.inputCipher("y", 30);
    std::vector<Expr> Pool = {X, Y, X * Y, X + Y, (X << 2) * Y};
    for (int I = 0; I < 20; ++I) {
      Expr A = Pool[Rng.uniformBelow(Pool.size())];
      Expr C = Pool[Rng.uniformBelow(Pool.size())];
      switch (Rng.uniformBelow(3)) {
      case 0:
        Pool.push_back(A + C);
        break;
      case 1:
        Pool.push_back(A - C);
        break;
      default:
        Pool.push_back(A << static_cast<int32_t>(Rng.uniformBelow(32)));
        break;
      }
    }
    B.output("out", Pool.back(), 30);
    Program &P = B.program();
    std::map<std::string, std::vector<double>> Inputs;
    for (const Node *I : P.inputs()) {
      std::vector<double> V(32);
      for (double &W : V)
        W = Rng.uniformReal(-1, 1);
      Inputs.emplace(I->name(), V);
    }
    std::map<std::string, std::vector<double>> Before =
        *ReferenceExecutor(P).run(Inputs);
    cseAndSimplifyPass(P);
    EXPECT_TRUE(P.verifyStructure().ok()) << "seed " << Seed;
    std::map<std::string, std::vector<double>> After =
        *ReferenceExecutor(P).run(Inputs);
    for (size_t I = 0; I < 32; ++I)
      EXPECT_DOUBLE_EQ(Before.at("out")[I], After.at("out")[I])
          << "seed " << Seed;
  }
}

TEST(Cse, ShrinksTensorPrograms) {
  // The tensor kernels' masks and rotations repeat structure; CSE must only
  // ever shrink a program, never grow it, and the result must still compile.
  NetworkDefinition N = makeLeNet5Small(5);
  TensorScales S;
  std::unique_ptr<Program> P = N.buildProgram(S);
  size_t Before = P->nodeCount();
  CompilerOptions WithOpt = CompilerOptions::eva();
  CompilerOptions NoOpt = CompilerOptions::eva();
  NoOpt.Optimize = false;
  Expected<CompiledProgram> A = compile(*P, WithOpt);
  Expected<CompiledProgram> B = compile(*P, NoOpt);
  ASSERT_TRUE(A.ok() && B.ok());
  EXPECT_LE(A->Prog->nodeCount(), B->Prog->nodeCount());
  EXPECT_EQ(A->modulusLength(), B->modulusLength());
  EXPECT_EQ(Before, P->nodeCount()) << "input program must be untouched";
}

} // namespace
