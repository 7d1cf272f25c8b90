//===- TextFormatTest.cpp - Text listing round-trips --------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/core/Compiler.h"
#include "eva/frontend/Expr.h"
#include "eva/ir/Printer.h"
#include "eva/ir/TextFormat.h"
#include "eva/runtime/ReferenceExecutor.h"
#include "eva/support/Random.h"

#include <gtest/gtest.h>

using namespace eva;

namespace {

std::unique_ptr<Program> sampleProgram() {
  ProgramBuilder B("sample", 64);
  Expr X = B.inputCipher("x", 30);
  Expr W = B.inputPlain("w", 20);
  Expr C = B.constantVector({0.5, -1.25, 3.0, 0.0625}, 15);
  Expr S = B.constant(2.214, 10);
  Expr V = ((X * W + C) * S) + (X << 5) - (X >> 3);
  B.output("out", V, 25);
  return B.take();
}

TEST(TextFormat, RoundTripPreservesStructureAndSemantics) {
  std::unique_ptr<Program> P = sampleProgram();
  std::string Text = printProgram(*P, /*ElideConstants=*/false);
  Expected<std::unique_ptr<Program>> Q = parseProgramText(Text);
  ASSERT_TRUE(Q.ok()) << (Q.ok() ? "" : Q.message());
  EXPECT_EQ((*Q)->vecSize(), P->vecSize());
  EXPECT_EQ((*Q)->name(), P->name());
  EXPECT_EQ((*Q)->nodeCount(), P->nodeCount());

  RandomSource Rng(3);
  std::map<std::string, std::vector<double>> Inputs;
  for (const Node *I : P->inputs()) {
    std::vector<double> V(64);
    for (double &X : V)
      X = Rng.uniformReal(-1, 1);
    Inputs.emplace(I->name(), V);
  }
  auto A = *ReferenceExecutor(*P).run(Inputs);
  auto B = *ReferenceExecutor(**Q).run(Inputs);
  for (size_t I = 0; I < 64; ++I)
    EXPECT_DOUBLE_EQ(A.at("out")[I], B.at("out")[I]);
}

TEST(TextFormat, RoundTripOfCompiledProgram) {
  std::unique_ptr<Program> P = sampleProgram();
  Expected<CompiledProgram> CP = compile(*P);
  ASSERT_TRUE(CP.ok()) << CP.message();
  std::string Text = printProgram(*CP->Prog, /*ElideConstants=*/false);
  Expected<std::unique_ptr<Program>> Q = parseProgramText(Text);
  ASSERT_TRUE(Q.ok()) << (Q.ok() ? "" : Q.message());
  // Compiler-inserted attributes survive: re-validate and re-select.
  EXPECT_TRUE(validateRescaleChains(**Q, 60).ok());
  EXPECT_TRUE(validateScales(**Q).ok());
  EXPECT_TRUE(validateNumPolynomials(**Q).ok());
  EXPECT_EQ(countOps(**Q, OpCode::Rescale),
            countOps(*CP->Prog, OpCode::Rescale));
  EXPECT_EQ(selectRotationSteps(**Q), CP->RotationSteps);
}

TEST(TextFormat, SecondRoundTripIsAFixedPoint) {
  std::unique_ptr<Program> P = sampleProgram();
  std::string T1 = printProgram(*P, false);
  std::unique_ptr<Program> Q = std::move(parseProgramText(T1).value());
  std::string T2 = printProgram(*Q, false);
  std::unique_ptr<Program> R = std::move(parseProgramText(T2).value());
  std::string T3 = printProgram(*R, false);
  EXPECT_EQ(T2, T3);
}

TEST(TextFormat, DiagnosesErrorsWithLineNumbers) {
  auto ExpectError = [](const char *Text, const char *Fragment) {
    Expected<std::unique_ptr<Program>> Q = parseProgramText(Text);
    ASSERT_FALSE(Q.ok()) << Text;
    EXPECT_NE(Q.message().find(Fragment), std::string::npos)
        << Q.message();
  };
  ExpectError("", "no program header");
  ExpectError("program p vec_size=12\n", "pow2");
  ExpectError("%0 = input cipher @x scale=30\n", "missing program header");
  ExpectError("program p vec_size=8\n%0 = frobnicate %1\n", "unknown opcode");
  ExpectError("program p vec_size=8\n%0 = negate %7\n", "undefined node");
  ExpectError("program p vec_size=8\n"
              "%0 = input cipher @x scale=30\n"
              "%0 = negate %0\n",
              "duplicate node id");
  ExpectError("program p vec_size=8\n"
              "%0 = constant vector scale=10 [1, 2, ...x64]\n",
              "elided");
  ExpectError("program p vec_size=8\n"
              "%0 = constant vector scale=10 [1, 2, 3]\n",
              "payload size");
}

TEST(TextFormat, ParsesElidedFreeListingOfRealPrograms) {
  // Whatever the compiler produces must print-and-parse losslessly,
  // including NormalizeScale's scale attribute and multi-output programs.
  ProgramBuilder B("multi", 32);
  Expr X = B.inputCipher("x", 30);
  Expr C = B.constant(0.5, 10);
  B.output("a", X * X + C, 30);
  B.output("b", B.sumSlots(X), 20);
  Expected<CompiledProgram> CP = compile(B.program());
  ASSERT_TRUE(CP.ok());
  Expected<std::unique_ptr<Program>> Q =
      parseProgramText(printProgram(*CP->Prog, false));
  ASSERT_TRUE(Q.ok()) << (Q.ok() ? "" : Q.message());
  EXPECT_EQ((*Q)->outputs().size(), 2u);
  EXPECT_EQ(countOps(**Q, OpCode::NormalizeScale),
            countOps(*CP->Prog, OpCode::NormalizeScale));
  // Desired output scales survive.
  EXPECT_DOUBLE_EQ((*Q)->outputs()[0]->logScale(), 30);
  EXPECT_DOUBLE_EQ((*Q)->outputs()[1]->logScale(), 20);
}

} // namespace
