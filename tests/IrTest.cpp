//===- IrTest.cpp - Unit tests for the EVA IR -------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/frontend/Expr.h"
#include "eva/ir/Printer.h"
#include "eva/ir/Program.h"

#include <gtest/gtest.h>

#include <limits>

using namespace eva;

namespace {

TEST(Program, BuildAndStructure) {
  Program P(8, "t");
  Node *X = P.makeInput("x", ValueType::Cipher, 30);
  Node *Y = P.makeInput("y", ValueType::Cipher, 30);
  Node *M = P.makeInstruction(OpCode::Multiply, {X, Y});
  Node *O = P.makeOutput("out", M);
  EXPECT_EQ(P.inputs().size(), 2u);
  EXPECT_EQ(P.outputs().size(), 1u);
  EXPECT_EQ(M->parm(0), X);
  EXPECT_EQ(M->parm(1), Y);
  EXPECT_EQ(X->uses().size(), 1u);
  EXPECT_EQ(O->parm(0), M);
  EXPECT_TRUE(P.verifyStructure().ok());
}

TEST(Program, SetParmMaintainsUseLists) {
  Program P(8);
  Node *X = P.makeInput("x", ValueType::Cipher, 30);
  Node *Y = P.makeInput("y", ValueType::Cipher, 30);
  Node *A = P.makeInstruction(OpCode::Add, {X, X});
  EXPECT_EQ(X->uses().size(), 2u);
  P.setParm(A, 0, Y);
  EXPECT_EQ(X->uses().size(), 1u);
  EXPECT_EQ(Y->uses().size(), 1u);
  EXPECT_EQ(A->parm(0), Y);
  EXPECT_EQ(A->parm(1), X);
  EXPECT_TRUE(P.verifyStructure().ok());
}

TEST(Program, InsertBetweenRewiresAllOtherUses) {
  Program P(8);
  Node *X = P.makeInput("x", ValueType::Cipher, 30);
  Node *A = P.makeInstruction(OpCode::Negate, {X});
  Node *B = P.makeInstruction(OpCode::Negate, {X});
  Node *Mid = P.makeInstruction(OpCode::Relinearize, {X});
  P.insertBetween(X, Mid);
  EXPECT_EQ(A->parm(0), Mid);
  EXPECT_EQ(B->parm(0), Mid);
  EXPECT_EQ(Mid->parm(0), X);
  EXPECT_EQ(X->uses().size(), 1u);
  EXPECT_TRUE(P.verifyStructure().ok());
}

TEST(Program, ForwardOrderRespectsDependencies) {
  Program P(8);
  Node *X = P.makeInput("x", ValueType::Cipher, 30);
  Node *A = P.makeInstruction(OpCode::Negate, {X});
  Node *B = P.makeInstruction(OpCode::Multiply, {A, X});
  P.makeOutput("o", B);
  std::vector<Node *> Order = P.forwardOrder();
  std::vector<size_t> Pos(P.maxNodeId());
  for (size_t I = 0; I < Order.size(); ++I)
    Pos[Order[I]->id()] = I;
  for (Node *N : Order)
    for (Node *Parm : N->parms())
      EXPECT_LT(Pos[Parm->id()], Pos[N->id()]);
}

TEST(Program, CloneIsDeepAndEquivalent) {
  ProgramBuilder B("clone", 16);
  Expr X = B.inputCipher("x", 30);
  Expr Y = (X * X + X) << 3;
  B.output("out", Y, 30);
  Program &P = B.program();
  std::unique_ptr<Program> C = P.clone();
  EXPECT_EQ(C->nodeCount(), P.nodeCount());
  EXPECT_EQ(C->vecSize(), P.vecSize());
  EXPECT_EQ(printProgram(*C), printProgram(P));
  // Mutating the clone must not affect the original.
  size_t Before = P.nodeCount();
  C->makeInput("extra", ValueType::Cipher, 10);
  EXPECT_EQ(P.nodeCount(), Before);
}

// Payloads are immutable, so Program computes their facts once, when it
// makes them, and a clone shares the record instead of copying it.
TEST(Program, ConstantPayloadFactsComputedOnceAndShared) {
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Inf = std::numeric_limits<double>::infinity();
  const double Denormal = std::numeric_limits<double>::denorm_min();
  Program P(16);
  const Node *Nan = P.makeScalarConstant(NaN, 30);
  const Node *PosInf = P.makeConstant({Inf}, 30);
  const Node *NegInf = P.makeScalarConstant(-Inf, 30);
  const Node *Mixed = P.makeConstant({-3.5, 2.0}, 30);
  const Node *Tiny = P.makeConstant({-Denormal}, 30);

  EXPECT_FALSE(Nan->constPayload().AllFinite);
  EXPECT_EQ(Nan->constPayload().MaxAbs, 0.0); // NaN never wins std::max
  EXPECT_FALSE(PosInf->constPayload().AllFinite);
  EXPECT_EQ(PosInf->constPayload().MaxAbs, Inf);
  EXPECT_FALSE(NegInf->constPayload().AllFinite);
  EXPECT_EQ(NegInf->constPayload().MaxAbs, Inf);
  EXPECT_TRUE(Mixed->constPayload().AllFinite);
  EXPECT_EQ(Mixed->constPayload().MaxAbs, 3.5);
  EXPECT_TRUE(Tiny->constPayload().AllFinite);
  EXPECT_EQ(Tiny->constPayload().MaxAbs, Denormal);

  std::unique_ptr<Program> C = P.clone();
  ASSERT_EQ(C->constants().size(), P.constants().size());
  for (size_t I = 0; I < P.constants().size(); ++I)
    EXPECT_EQ(&C->constants()[I]->constValue(),
              &P.constants()[I]->constValue())
        << "constant " << I;
}

TEST(Program, MultiplicativeDepth) {
  ProgramBuilder B("depth", 8);
  Expr X = B.inputCipher("x", 30);
  Expr Y = X.pow(5); // x^5 via square-and-multiply: depth 3
  B.output("out", Y, 30);
  EXPECT_EQ(B.program().multiplicativeDepth(), 3u);
}

TEST(Program, EraseUnreachableDropsOrphans) {
  Program P(8);
  Node *X = P.makeInput("x", ValueType::Cipher, 30);
  Node *Dead = P.makeInstruction(OpCode::Negate, {X});
  (void)Dead;
  Node *Live = P.makeInstruction(OpCode::Negate, {X});
  P.makeOutput("o", Live);
  size_t Before = P.nodeCount();
  P.eraseUnreachable();
  EXPECT_EQ(P.nodeCount(), Before - 1);
  EXPECT_TRUE(P.verifyStructure().ok());
}

TEST(Expr, OperatorOverloadsBuildExpectedOps) {
  ProgramBuilder B("ops", 8);
  Expr X = B.inputCipher("x", 30);
  Expr C = B.constant(2.0, 10);
  Expr R = -((X + C) * X - C) << 2 >> 1;
  B.output("out", R, 30);
  Program &P = B.program();
  EXPECT_EQ(countOps(P, OpCode::Add), 1u);
  EXPECT_EQ(countOps(P, OpCode::Sub), 1u);
  EXPECT_EQ(countOps(P, OpCode::Multiply), 1u);
  EXPECT_EQ(countOps(P, OpCode::Negate), 1u);
  EXPECT_EQ(countOps(P, OpCode::RotateLeft), 1u);
  EXPECT_EQ(countOps(P, OpCode::RotateRight), 1u);
}

TEST(Expr, PlainCipherNormalization) {
  ProgramBuilder B("norm", 8);
  Expr X = B.inputCipher("x", 30);
  Expr C = B.constant(2.0, 10);
  // plain + cipher / plain * cipher put the cipher operand first;
  // plain - cipher becomes (-cipher) + plain.
  Expr S = C + X;
  Expr M = C * X;
  Expr D = C - X;
  B.output("s", S, 30);
  B.output("m", M, 30);
  B.output("d", D, 30);
  for (const Node *N : B.program().nodes()) {
    if (N->op() == OpCode::Add || N->op() == OpCode::Sub ||
        N->op() == OpCode::Multiply) {
      EXPECT_TRUE(N->parm(0)->isCipher());
    }
  }
  EXPECT_EQ(countOps(B.program(), OpCode::Negate), 1u);
}

TEST(Expr, PowUsesLogDepth) {
  ProgramBuilder B("pow", 8);
  Expr X = B.inputCipher("x", 30);
  B.output("out", X.pow(8), 30);
  EXPECT_EQ(countOps(B.program(), OpCode::Multiply), 3u); // x2, x4, x8
}

TEST(Printer, ListsInstructionsInOrder) {
  ProgramBuilder B("p", 8);
  Expr X = B.inputCipher("x", 25);
  B.output("out", X * X, 30);
  std::string Text = printProgram(B.program());
  EXPECT_NE(Text.find("program p vec_size=8"), std::string::npos);
  EXPECT_NE(Text.find("input cipher @x scale=25"), std::string::npos);
  EXPECT_NE(Text.find("multiply"), std::string::npos);
  EXPECT_NE(Text.find("output @out"), std::string::npos);
}

TEST(Printer, DotContainsAllEdges) {
  ProgramBuilder B("d", 8);
  Expr X = B.inputCipher("x", 25);
  B.output("out", X * X, 30);
  std::string Dot = printDot(B.program());
  EXPECT_NE(Dot.find("digraph"), std::string::npos);
  // Two operand edges into multiply plus one into output.
  size_t Edges = 0;
  for (size_t Pos = 0; (Pos = Dot.find("->", Pos)) != std::string::npos;
       ++Pos)
    ++Edges;
  EXPECT_EQ(Edges, 3u);
}

} // namespace
