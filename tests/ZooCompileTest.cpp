//===- ZooCompileTest.cpp - Table 6 invariants across the model zoo ----------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compile-only sweep over all five Table 3 networks in both compiler
/// modes, asserting the Table 6 relationships the paper reports: EVA's
/// modulus length is strictly smaller than the CHET baseline's, its total
/// modulus is smaller, its polynomial degree never larger, and both modes
/// validate and preserve reference semantics.
///
//===----------------------------------------------------------------------===//

#include "eva/core/Analysis.h"
#include "eva/core/Compiler.h"
#include "eva/ir/Printer.h"
#include "eva/runtime/ReferenceExecutor.h"
#include "eva/serialize/ProtoIO.h"
#include "eva/service/Audit.h"
#include "eva/support/Random.h"
#include "eva/tensor/Network.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <ios>
#include <map>

using namespace eva;

namespace {

class ZooCompile : public ::testing::TestWithParam<size_t> {};

TEST_P(ZooCompile, Table6InvariantsHold) {
  NetworkDefinition Net = makeAllNetworks(2024)[GetParam()];
  SCOPED_TRACE(Net.name());
  TensorScales Scales;
  std::unique_ptr<Program> P = Net.buildProgram(Scales);

  Expected<CompiledProgram> Eva = compile(*P, CompilerOptions::eva());
  Expected<CompiledProgram> Chet = compile(*P, CompilerOptions::chet());
  ASSERT_TRUE(Eva.ok()) << Eva.message();
  ASSERT_TRUE(Chet.ok()) << Chet.message();

  // Table 6's three shapes.
  EXPECT_LT(Eva->modulusLength(), Chet->modulusLength());
  EXPECT_LT(Eva->TotalModulusBits, Chet->TotalModulusBits);
  EXPECT_LE(Eva->PolyDegree, Chet->PolyDegree);

  // Both outputs are validator-clean.
  for (const CompiledProgram *CP : {&Eva.value(), &Chet.value()}) {
    EXPECT_TRUE(validateRescaleChains(*CP->Prog, 60).ok());
    Status S = validateScales(*CP->Prog);
    EXPECT_TRUE(S.ok()) << (S.ok() ? "" : S.message());
    EXPECT_TRUE(validateNumPolynomials(*CP->Prog).ok());
  }

  // Rotation-key sets agree (the same logical rotations, both modes).
  EXPECT_EQ(Eva->RotationSteps, Chet->RotationSteps);
  EXPECT_FALSE(Eva->RotationSteps.empty());

  // Slots fit the vector and the degree respects the security table.
  EXPECT_GE(Eva->PolyDegree / 2, P->vecSize());
  EXPECT_LE(Eva->TotalModulusBits,
            maxCoeffModulusBits(Eva->PolyDegree, SecurityLevel::TC128));
  EXPECT_LE(Chet->TotalModulusBits,
            maxCoeffModulusBits(Chet->PolyDegree, SecurityLevel::TC128));
}

// Every zoo network must verify and lint with zero *errors* in both
// compiler modes: verifyCompiled accepts the result, and the analyzer's
// facts feed the lint pass without failure. Warnings are tolerated (the
// networks are real workloads, not lint showcases) but printed for
// inspection.
TEST_P(ZooCompile, VerifiesAndLintsCleanly) {
  NetworkDefinition Net = makeAllNetworks(99)[GetParam()];
  SCOPED_TRACE(Net.name());
  TensorScales Scales;
  std::unique_ptr<Program> P = Net.buildProgram(Scales);
  EXPECT_TRUE(verifyProgram(*P).ok());
  for (const CompilerOptions &O :
       {CompilerOptions::eva(), CompilerOptions::chet()}) {
    Expected<CompiledProgram> CP = compile(*P, O);
    ASSERT_TRUE(CP.ok()) << CP.message();
    Status V = verifyCompiled(*CP);
    EXPECT_TRUE(V.ok()) << V.message();
    AnalysisOptions AO;
    AO.SfBits = O.SfBits;
    AO.PolyDegree = CP->PolyDegree;
    Expected<AnalysisResult> AR = analyzeProgram(*CP->Prog, AO);
    ASSERT_TRUE(AR.ok()) << AR.message();
    std::map<const char *, size_t> ByKind;
    for (const LintWarning &W : lintCompiled(*CP, *AR))
      ++ByKind[lintKindName(W.Kind)];
    for (const auto &[Kind, Count] : ByKind)
      std::printf("  lint: %zu x %s\n", Count, Kind);
  }
}

TEST_P(ZooCompile, CompiledProgramMatchesPlainInferenceUnderIdScheme) {
  NetworkDefinition Net = makeAllNetworks(7)[GetParam()];
  SCOPED_TRACE(Net.name());
  TensorScales Scales;
  std::unique_ptr<Program> P = Net.buildProgram(Scales);
  Expected<CompiledProgram> CP = compile(*P, CompilerOptions::eva());
  ASSERT_TRUE(CP.ok()) << CP.message();

  RandomSource Rng(13);
  Tensor Image = Tensor::random(
      {Net.inputChannels(), Net.inputHeight(), Net.inputWidth()}, Rng);
  CipherLayout L = CipherLayout::forImage(
      Net.inputChannels(), Net.inputHeight(), Net.inputWidth());
  std::vector<double> Slots(P->vecSize(), 0.0);
  for (size_t C = 0; C < L.C; ++C)
    for (size_t Y = 0; Y < L.H; ++Y)
      for (size_t X = 0; X < L.W; ++X)
        Slots[L.slotOf(C, Y, X)] = Image.at3(C, Y, X);
  std::map<std::string, std::vector<double>> Out =
      *ReferenceExecutor(*CP->Prog).run({{"image", Slots}});
  Tensor Want = Net.runPlain(Image);
  for (size_t C = 0; C < Net.numClasses(); ++C)
    EXPECT_NEAR(Out.at("scores")[C], Want.at(C),
                1e-9 * std::max(1.0, std::abs(Want.at(C))))
        << "class " << C;
}

/// FNV-1a over the little-endian bytes of \p V.
uint64_t hashWord(uint64_t V, uint64_t State) {
  char Bytes[8];
  for (int I = 0; I < 8; ++I)
    Bytes[I] = static_cast<char>((V >> (8 * I)) & 0xFF);
  return fnv1a64(std::string_view(Bytes, 8), State);
}

/// FNV-1a over a compiled program's wire bytes and the parameters the
/// client derives its context and keys from.
uint64_t hashCompiled(const CompiledProgram &CP, uint64_t State) {
  State = fnv1a64(serializeProgram(*CP.Prog), State);
  for (int B : CP.BitSizes)
    State = hashWord(static_cast<uint64_t>(B), State);
  State = hashWord(CP.PolyDegree, State);
  for (uint64_t S : CP.RotationSteps)
    State = hashWord(S, State);
  return State;
}

// Every byte the frontend and both compiler modes produce for each network,
// pinned: a compile-time optimization must not move a single byte. A change
// that means to alter compiled output re-pins these and says why.
TEST_P(ZooCompile, CompiledBytesPinned) {
  constexpr uint64_t Golden[] = {0xbaa587fb52435bf8ull, 0x767cdc0ee631269bull,
                                 0x4bed04d33a90bcdaull, 0x1524ab0e419f4d72ull,
                                 0xf5a53e9bc3de73d0ull};
  NetworkDefinition Net = makeAllNetworks(2024)[GetParam()];
  SCOPED_TRACE(Net.name());
  TensorScales Scales;
  std::unique_ptr<Program> P = Net.buildProgram(Scales);
  Expected<CompiledProgram> Eva = compile(*P, CompilerOptions::eva());
  Expected<CompiledProgram> Chet = compile(*P, CompilerOptions::chet());
  ASSERT_TRUE(Eva.ok()) << Eva.message();
  ASSERT_TRUE(Chet.ok()) << Chet.message();
  uint64_t Hash = fnv1a64(serializeProgram(*P));
  Hash = hashCompiled(*Eva, Hash);
  Hash = hashCompiled(*Chet, Hash);
  EXPECT_EQ(Hash, Golden[GetParam()]) << std::hex << "0x" << Hash;
}

// Each Galois key keeps the digits its rotations read: the per-step levels
// compile() records, and the key bytes they come to, pinned without
// generating a key. A key with L digits holds 2 * L polynomials of L + 1
// limbs of N words.
TEST_P(ZooCompile, GaloisKeyLevelsPinned) {
  NetworkDefinition Net = makeAllNetworks(2024)[GetParam()];
  SCOPED_TRACE(Net.name());
  std::unique_ptr<Program> P = Net.buildProgram({});
  Expected<CompiledProgram> CP = compile(*P, CompilerOptions::eva());
  ASSERT_TRUE(CP.ok()) << CP.message();
  const size_t DataPrimes = CP->BitSizes.size() - 1;
  ASSERT_EQ(CP->RotationKeyPrimes.size(), CP->RotationSteps.size());
  std::map<size_t, size_t> StepsAtLevel;
  uint64_t Bytes = 0, FullBytes = 0;
  auto KeyBytes = [&](uint64_t L) {
    return 2 * L * (L + 1) * CP->PolyDegree * sizeof(uint64_t);
  };
  for (auto [Step, Primes] : CP->galoisKeyPrimes()) {
    ASSERT_GE(Primes, 1u);
    ASSERT_LE(Primes, DataPrimes);
    EXPECT_EQ(CP->RotationKeyPrimes.at(Step), Primes);
    ++StepsAtLevel[Primes];
    Bytes += KeyBytes(Primes);
    FullBytes += KeyBytes(DataPrimes);
  }
  EXPECT_LT(Bytes, FullBytes);
  switch (GetParam()) {
  case 0: // LeNet-5-small: 191 keys, 2,102,919,168 bytes at full level.
    EXPECT_EQ(StepsAtLevel, (std::map<size_t, size_t>{
                                {2, 26}, {4, 9}, {5, 107}, {6, 49}}));
    EXPECT_EQ(FullBytes, 2102919168u);
    EXPECT_EQ(Bytes, 1469054976u);
    break;
  case 1: // LeNet-5-medium
    EXPECT_EQ(FullBytes, 5967446016u);
    EXPECT_EQ(Bytes, 3974627328u);
    break;
  case 2: // LeNet-5-large
    EXPECT_EQ(FullBytes, 21998075904u);
    EXPECT_EQ(Bytes, 15913189376u);
    break;
  default:
    break;
  }
  // An empty map is the full-key contract a hand-assembled program gets.
  CompiledProgram Full = std::move(*CP);
  Full.RotationKeyPrimes.clear();
  EXPECT_TRUE(verifyCompiled(Full).ok());
  for (auto [Step, Primes] : Full.galoisKeyPrimes())
    EXPECT_EQ(Primes, DataPrimes) << "step " << Step;
}

// Kept out of the macro: a lambda body's commas would be split into separate
// macro arguments (braces, unlike parentheses, do not group for the
// preprocessor).
std::string zooParamName(const ::testing::TestParamInfo<size_t> &I) {
  const char *Names[] = {"LeNet5Small", "LeNet5Medium", "LeNet5Large",
                         "Industrial", "SqueezeNetCIFAR"};
  return std::string(Names[I.param]);
}

INSTANTIATE_TEST_SUITE_P(Networks, ZooCompile,
                         ::testing::Range<size_t>(0, 5), zooParamName);

} // namespace
