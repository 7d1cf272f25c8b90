//===- SerializeTest.cpp - Wire format and program round-trips ---------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/ckks/KeyGenerator.h"
#include "eva/core/Analysis.h"
#include "eva/core/Compiler.h"
#include "eva/frontend/Expr.h"
#include "eva/ir/Printer.h"
#include "eva/runtime/ReferenceExecutor.h"
#include "eva/serialize/CkksIO.h"
#include "eva/serialize/ProtoIO.h"
#include "eva/serialize/Wire.h"
#include "eva/support/Random.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>

using namespace eva;

namespace {

TEST(Wire, VarintRoundTrip) {
  for (uint64_t V : {0ull, 1ull, 127ull, 128ull, 300ull, 16383ull, 16384ull,
                     ~0ull, 1ull << 63}) {
    WireWriter W;
    W.varint(V);
    WireReader R(W.str());
    uint64_t Out = 0;
    ASSERT_TRUE(R.readVarint(Out));
    EXPECT_EQ(Out, V);
  }
}

TEST(Wire, VarintKnownEncodings) {
  WireWriter W;
  W.varint(300); // protobuf doc example: 0xAC 0x02
  ASSERT_EQ(W.str().size(), 2u);
  EXPECT_EQ(static_cast<uint8_t>(W.str()[0]), 0xAC);
  EXPECT_EQ(static_cast<uint8_t>(W.str()[1]), 0x02);
}

TEST(Wire, DoubleRoundTrip) {
  for (double V : {0.0, 1.5, -2.25, 1e300, -1e-300}) {
    WireWriter W;
    W.doubleField(3, V);
    WireReader R(W.str());
    uint32_t Field;
    WireType Type;
    ASSERT_TRUE(R.nextField(Field, Type));
    EXPECT_EQ(Field, 3u);
    EXPECT_EQ(Type, WireType::Fixed64);
    double Out;
    ASSERT_TRUE(R.readDouble(Out));
    EXPECT_EQ(Out, V);
  }
}

TEST(Wire, RejectsTruncatedInput) {
  WireWriter W;
  W.bytesField(2, "hello");
  std::string Data = W.str();
  Data.pop_back(); // truncate the payload
  WireReader R(Data);
  uint32_t Field;
  WireType Type;
  ASSERT_TRUE(R.nextField(Field, Type));
  std::string_view B;
  EXPECT_FALSE(R.readBytes(B));
  EXPECT_TRUE(R.failed());
}

TEST(Wire, RejectsVarintLongerThanTenBytes) {
  // Eleven bytes, continuation bit set on all of the first ten.
  std::string Data(11, '\x80');
  Data[10] = '\x01';
  WireReader R(Data);
  uint64_t V;
  EXPECT_FALSE(R.readVarint(V));
  EXPECT_TRUE(R.failed());
}

TEST(Wire, RejectsVarintOverflowing64Bits) {
  // Ten bytes whose last byte carries more than the single bit that fits:
  // 0x02 in the 10th byte would be bit 64.
  std::string Data(9, '\x80');
  Data += '\x02';
  WireReader R(Data);
  uint64_t V;
  EXPECT_FALSE(R.readVarint(V));
  EXPECT_TRUE(R.failed());

  // The maximum value ~0ull (nine 0xFF bytes + 0x01) still round-trips.
  std::string Max(9, '\xff');
  Max += '\x01';
  WireReader R2(Max);
  ASSERT_TRUE(R2.readVarint(V));
  EXPECT_EQ(V, ~0ull);
}

TEST(Wire, RejectsVarintTruncatedMidway) {
  std::string Data(3, '\x80'); // continuation bits but no terminator
  WireReader R(Data);
  uint64_t V;
  EXPECT_FALSE(R.readVarint(V));
  EXPECT_TRUE(R.failed());
}

TEST(Wire, RejectsLengthExceedingRemainingBuffer) {
  // A length-delimited field claiming 2^60 bytes in a 3-byte buffer.
  WireWriter W;
  W.tag(1, WireType::LengthDelimited);
  W.varint(1ull << 60);
  WireReader R(W.str());
  uint32_t Field;
  WireType Type;
  ASSERT_TRUE(R.nextField(Field, Type));
  std::string_view B;
  EXPECT_FALSE(R.readBytes(B));
  EXPECT_TRUE(R.failed());
}

TEST(Wire, SkipRejectsMalformedNestedLength) {
  // skip() of a length-delimited field must apply the same bounds check.
  WireWriter W;
  W.tag(7, WireType::LengthDelimited);
  W.varint(1000); // dangling: no payload follows
  WireReader R(W.str());
  uint32_t Field;
  WireType Type;
  ASSERT_TRUE(R.nextField(Field, Type));
  EXPECT_FALSE(R.skip(Type));
  EXPECT_TRUE(R.failed());
}

TEST(Wire, SkipsUnknownFields) {
  WireWriter W;
  W.varintField(9, 42);
  W.doubleField(10, 1.5);
  W.bytesField(11, "xyz");
  W.varintField(1, 7);
  WireReader R(W.str());
  uint32_t Field;
  WireType Type;
  uint64_t Found = 0;
  while (R.nextField(Field, Type)) {
    if (Field == 1 && Type == WireType::Varint)
      ASSERT_TRUE(R.readVarint(Found));
    else
      ASSERT_TRUE(R.skip(Type));
  }
  EXPECT_EQ(Found, 7u);
  EXPECT_FALSE(R.failed());
}

std::unique_ptr<Program> buildRichProgram() {
  ProgramBuilder B("rich", 64);
  Expr X = B.inputCipher("x", 30);
  Expr W = B.inputPlain("w", 20);
  Expr C = B.constantVector({1, 2, 3, 4}, 15);
  Expr S = B.constant(0.5, 10);
  Expr V = ((X * W) + C) * S;
  Expr R = (V << 3) + (V >> 5) + B.sumSlots(X);
  B.output("main", R, 30);
  B.output("aux", V, 25);
  return B.take();
}

TEST(ProtoIO, RoundTripPreservesStructure) {
  std::unique_ptr<Program> P = buildRichProgram();
  std::string Data = serializeProgram(*P);
  EXPECT_FALSE(Data.empty());
  Expected<std::unique_ptr<Program>> Q = deserializeProgram(Data);
  ASSERT_TRUE(Q.ok()) << (Q.ok() ? "" : Q.message());
  EXPECT_EQ((*Q)->vecSize(), P->vecSize());
  EXPECT_EQ((*Q)->name(), P->name());
  EXPECT_EQ((*Q)->nodeCount(), P->nodeCount());
  EXPECT_EQ((*Q)->inputs().size(), P->inputs().size());
  EXPECT_EQ((*Q)->outputs().size(), P->outputs().size());
  for (OpCode Op : {OpCode::Add, OpCode::Sub, OpCode::Multiply,
                    OpCode::RotateLeft, OpCode::RotateRight, OpCode::Sum})
    EXPECT_EQ(countOps(**Q, Op), countOps(*P, Op)) << opName(Op);
}

TEST(ProtoIO, RoundTripPreservesSemantics) {
  std::unique_ptr<Program> P = buildRichProgram();
  Expected<std::unique_ptr<Program>> Q =
      deserializeProgram(serializeProgram(*P));
  ASSERT_TRUE(Q.ok());
  RandomSource Rng(5);
  std::map<std::string, std::vector<double>> Inputs;
  for (const Node *I : P->inputs()) {
    std::vector<double> V(P->vecSize());
    for (double &X : V)
      X = Rng.uniformReal(-1, 1);
    Inputs.emplace(I->name(), V);
  }
  ReferenceExecutor RP(*P), RQ(**Q);
  auto A = *RP.run(Inputs);
  auto B = *RQ.run(Inputs);
  ASSERT_EQ(A.size(), B.size());
  for (const auto &[Name, VA] : A) {
    const std::vector<double> &VB = B.at(Name);
    for (size_t I = 0; I < VA.size(); ++I)
      EXPECT_DOUBLE_EQ(VA[I], VB[I]);
  }
}

TEST(ProtoIO, RoundTripOfCompiledProgram) {
  std::unique_ptr<Program> P = buildRichProgram();
  Expected<CompiledProgram> CP = compile(*P);
  ASSERT_TRUE(CP.ok()) << (CP.ok() ? "" : CP.message());
  std::string Data = serializeProgram(*CP->Prog);
  Expected<std::unique_ptr<Program>> Q = deserializeProgram(Data);
  ASSERT_TRUE(Q.ok()) << (Q.ok() ? "" : Q.message());
  // Compiler-inserted ops and their attributes survive.
  EXPECT_EQ(countOps(**Q, OpCode::Rescale), countOps(*CP->Prog, OpCode::Rescale));
  EXPECT_EQ(countOps(**Q, OpCode::ModSwitch),
            countOps(*CP->Prog, OpCode::ModSwitch));
  EXPECT_EQ(countOps(**Q, OpCode::Relinearize),
            countOps(*CP->Prog, OpCode::Relinearize));
  EXPECT_TRUE(validateRescaleChains(**Q, 60).ok());
  Status S = validateScales(**Q);
  EXPECT_TRUE(S.ok()) << (S.ok() ? "" : S.message());
}

TEST(ProtoIO, RejectsGarbage) {
  EXPECT_FALSE(deserializeProgram("not a protobuf").ok());
  std::string Junk(64, '\xff');
  EXPECT_FALSE(deserializeProgram(Junk).ok());
}

TEST(ProtoIO, RejectsDanglingReference) {
  // Program with an instruction referencing a nonexistent object id.
  WireWriter W;
  W.varintField(1, 8); // vec_size
  WireWriter I;
  {
    WireWriter Obj;
    Obj.varintField(1, 5);
    I.bytesField(1, Obj.str());
  }
  I.varintField(2, 1); // NEGATE
  {
    WireWriter Obj;
    Obj.varintField(1, 999);
    I.bytesField(3, Obj.str());
  }
  W.bytesField(5, I.str());
  Expected<std::unique_ptr<Program>> Q = deserializeProgram(W.str());
  EXPECT_FALSE(Q.ok());
  EXPECT_NE(Q.message().find("unknown id"), std::string::npos);
}

TEST(ProtoIO, RejectsMalformedConstantPayload) {
  // A 3-element vector constant at vec_size 8: not a power of two.
  Program P(8);
  Node *X = P.makeInput("x", ValueType::Cipher, 30);
  Node *C = P.makeConstant({1.0, 2.0, 3.0}, 10);
  P.makeOutput("out", P.makeInstruction(OpCode::Multiply, {X, C}));
  Expected<std::unique_ptr<Program>> Q =
      deserializeProgram(serializeProgram(P));
  ASSERT_FALSE(Q.ok());
  EXPECT_NE(Q.message().find("payload size"), std::string::npos)
      << Q.message();
}

TEST(ProtoIO, RejectsNonPowerOfTwoVecSize) {
  WireWriter W;
  W.varintField(1, 12);
  EXPECT_FALSE(deserializeProgram(W.str()).ok());
}

//===----------------------------------------------------------------------===//
// Hostile bytes against the evaluation-key loaders (the session-open
// attack surface: a tenant uploads these before any cryptographic checks)
//===----------------------------------------------------------------------===//

struct KeyWire {
  KeyWire() {
    Ctx = CkksContext::createFromBitSizes(1024, {36, 36, 40},
                                          SecurityLevel::None)
              .value();
    Gen = std::make_unique<KeyGenerator>(Ctx, 7);
  }
  std::shared_ptr<CkksContext> Ctx;
  std::unique_ptr<KeyGenerator> Gen;
};

TEST(KeyWireHostile, TruncatedRelinKeysAlwaysError) {
  KeyWire K;
  std::string Data = serializeRelinKeys(K.Gen->createRelinKeys());
  // Every strict prefix must fail cleanly: either a malformed field or a
  // decomposition-count mismatch — never a crash or a silently short key.
  for (size_t Len = 0; Len < Data.size();
       Len += 1 + Data.size() / 97) {
    Expected<RelinKeys> Q =
        deserializeRelinKeys(*K.Ctx, std::string_view(Data).substr(0, Len));
    EXPECT_FALSE(Q.ok()) << "prefix of " << Len << " bytes parsed";
  }
}

TEST(KeyWireHostile, TruncatedGaloisKeysNeverCrashOrInventEntries) {
  KeyWire K;
  GaloisKeys Gk = K.Gen->createGaloisKeys({1, 3});
  std::string Data = serializeGaloisKeys(Gk);
  for (size_t Len = 0; Len < Data.size();
       Len += 1 + Data.size() / 97) {
    Expected<GaloisKeys> Q =
        deserializeGaloisKeys(*K.Ctx, std::string_view(Data).substr(0, Len));
    // A cut at an entry boundary legitimately yields the shorter key set;
    // anything mid-entry must error. Either way: no crash, no new entries.
    if (Q.ok()) {
      EXPECT_LT(Q->Keys.size(), Gk.Keys.size());
      for (const auto &[Elt, Key] : Q->Keys) {
        EXPECT_TRUE(Gk.has(Elt));
        EXPECT_EQ(Key.Keys.size(), K.Ctx->dataPrimeCount());
      }
    }
  }
}

TEST(KeyWireHostile, DuplicateGaloisElementRejected) {
  KeyWire K;
  std::string One = serializeGaloisKeys(K.Gen->createGaloisKeys({1}));
  // The wire format is a sequence of entry fields; doubling the buffer is
  // a valid encoding of the same element twice.
  Expected<GaloisKeys> Q = deserializeGaloisKeys(*K.Ctx, One + One);
  ASSERT_FALSE(Q.ok());
  EXPECT_NE(Q.message().find("duplicate"), std::string::npos) << Q.message();
}

TEST(KeyWireHostile, OutOfRangeGaloisElementsRejected) {
  KeyWire K;
  GaloisKeys Valid = K.Gen->createGaloisKeys({1});
  const KSwitchKey &Key = Valid.Keys.begin()->second;
  uint64_t TwoN = 2 * K.Ctx->polyDegree();
  for (uint64_t Elt : {uint64_t(0), uint64_t(1), uint64_t(6), TwoN,
                       TwoN + 1, TwoN + 3}) {
    GaloisKeys Bad;
    Bad.Keys.emplace(Elt, Key);
    Expected<GaloisKeys> Q =
        deserializeGaloisKeys(*K.Ctx, serializeGaloisKeys(Bad));
    ASSERT_FALSE(Q.ok()) << "element " << Elt << " accepted";
    EXPECT_NE(Q.message().find("out of range"), std::string::npos)
        << Q.message();
  }
}

TEST(KeyWireHostile, WrongDegreeAndChainRejected) {
  KeyWire K;
  // Keys serialized for a different degree must not load.
  auto Other = CkksContext::createFromBitSizes(2048, {36, 36, 40},
                                               SecurityLevel::None)
                   .value();
  KeyGenerator OtherGen(Other, 9);
  EXPECT_FALSE(
      deserializeRelinKeys(*K.Ctx, serializeRelinKeys(OtherGen.createRelinKeys()))
          .ok());
  EXPECT_FALSE(deserializeGaloisKeys(
                   *K.Ctx, serializeGaloisKeys(OtherGen.createGaloisKeys({1})))
                   .ok());
  // Same degree, different chain length: decomposition count mismatch.
  auto Longer = CkksContext::createFromBitSizes(1024, {30, 30, 30, 36},
                                                SecurityLevel::None)
                    .value();
  KeyGenerator LongerGen(Longer, 11);
  EXPECT_FALSE(deserializeRelinKeys(
                   *K.Ctx, serializeRelinKeys(LongerGen.createRelinKeys()))
                   .ok());
}

TEST(KeyWireHostile, CorruptedResidueBytesRejected) {
  KeyWire K;
  std::string Data = serializeGaloisKeys(K.Gen->createGaloisKeys({1}));
  // Overwrite eight bytes deep inside a component with 0xFF: the residue
  // exceeds its prime (or a length field goes inconsistent) — both must be
  // diagnosed, never computed with.
  std::string Corrupt = Data;
  std::memset(Corrupt.data() + Corrupt.size() / 2, 0xFF, 8);
  EXPECT_FALSE(deserializeGaloisKeys(*K.Ctx, Corrupt).ok());
}

TEST(KeyWireHostile, RandomByteFlipsNeverCrashTheLoaders) {
  KeyWire K;
  std::string Galois = serializeGaloisKeys(K.Gen->createGaloisKeys({1, 5}));
  std::string Relin = serializeRelinKeys(K.Gen->createRelinKeys());
  RandomSource Rng(0xBADBEEF);
  for (int I = 0; I < 200; ++I) {
    std::string G = Galois;
    std::string R = Relin;
    for (int F = 0; F < 3; ++F) {
      G[Rng.uniformBelow(G.size())] =
          static_cast<char>(Rng.uniformBelow(256));
      R[Rng.uniformBelow(R.size())] =
          static_cast<char>(Rng.uniformBelow(256));
    }
    // ok() or error are both acceptable; crashing or hanging is not (the
    // ASan+UBSan CI job runs this suite).
    (void)deserializeGaloisKeys(*K.Ctx, G);
    (void)deserializeRelinKeys(*K.Ctx, R);
  }
}

TEST(ProtoIO, FileSaveAndLoad) {
  std::unique_ptr<Program> P = buildRichProgram();
  std::string Path = ::testing::TempDir() + "eva_prog.evabin";
  ASSERT_TRUE(saveProgram(*P, Path).ok());
  Expected<std::unique_ptr<Program>> Q = loadProgram(Path);
  ASSERT_TRUE(Q.ok()) << (Q.ok() ? "" : Q.message());
  EXPECT_EQ((*Q)->nodeCount(), P->nodeCount());

  // A textual listing loads too; it is told apart by its header.
  std::string TextPath = ::testing::TempDir() + "eva_prog.txt";
  std::ofstream(TextPath) << printProgram(*P, /*ElideConstants=*/false);
  Expected<std::unique_ptr<Program>> T = loadProgram(TextPath);
  ASSERT_TRUE(T.ok()) << (T.ok() ? "" : T.message());
  EXPECT_EQ((*T)->nodeCount(), P->nodeCount());

  // The registry and evacall name the file only in parse errors, so they
  // rely on this exact message.
  std::string Missing = ::testing::TempDir() + "eva_no_such_prog.evabin";
  Expected<std::unique_ptr<Program>> M = loadProgram(Missing);
  ASSERT_FALSE(M.ok());
  EXPECT_EQ(M.message(), "cannot open " + Missing);
}

TEST(ProtoIOHostile, ByteFlippedProgramsNeverReachAnExecutor) {
  // The deserializer runs the full structural verifier on everything it
  // accepts, so a hostile encoding has exactly two fates: a load error, or a
  // graph that satisfies every term-graph invariant. Either way no malformed
  // graph can reach an executor.
  std::unique_ptr<Program> P = buildRichProgram();
  std::string Data = serializeProgram(*P);
  RandomSource Rng(0xF00DF00D);
  VerifyOptions VO;
  VO.AllowCompilerOps = true; // the loader's own admission contract
  for (int I = 0; I < 300; ++I) {
    std::string Corrupt = Data;
    for (int F = 0; F < 1 + static_cast<int>(Rng.uniformBelow(4)); ++F)
      Corrupt[Rng.uniformBelow(Corrupt.size())] =
          static_cast<char>(Rng.uniformBelow(256));
    Expected<std::unique_ptr<Program>> Q = deserializeProgram(Corrupt);
    if (Q.ok()) {
      EXPECT_TRUE(verifyProgram(**Q, VO).ok())
          << "loader accepted a graph the verifier rejects (iteration " << I
          << ")";
    }
  }
}

TEST(ProtoIOHostile, TruncationsAreDiagnosed) {
  std::unique_ptr<Program> P = buildRichProgram();
  std::string Data = serializeProgram(*P);
  for (size_t Len : {Data.size() - 1, Data.size() / 2, Data.size() / 4,
                     size_t(1)}) {
    Expected<std::unique_ptr<Program>> Q =
        deserializeProgram(Data.substr(0, Len));
    if (Q.ok()) {
      // A prefix that still parses must still verify.
      VerifyOptions VO;
      VO.AllowCompilerOps = true;
      EXPECT_TRUE(verifyProgram(**Q, VO).ok());
    }
  }
}

TEST(ProtoIO, PropertyRandomProgramsRoundTrip) {
  // Generate random DAGs and check structural round-trips.
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    RandomSource Rng(Seed * 31);
    ProgramBuilder B("rand" + std::to_string(Seed), 32);
    std::vector<Expr> Pool;
    Pool.push_back(B.inputCipher("x", 30));
    Pool.push_back(B.inputCipher("y", 25));
    Pool.push_back(B.constant(0.5, 10));
    for (int I = 0; I < 30; ++I) {
      Expr A = Pool[Rng.uniformBelow(Pool.size())];
      Expr Bx = Pool[Rng.uniformBelow(Pool.size())];
      Expr R;
      switch (Rng.uniformBelow(5)) {
      case 0:
        R = A.node()->isPlain() && Bx.node()->isPlain() ? A : A + Bx;
        break;
      case 1:
        R = A.node()->isPlain() && Bx.node()->isPlain() ? A : A * Bx;
        break;
      case 2:
        R = A.node()->isPlain() ? A : -A;
        break;
      case 3:
        R = A.node()->isPlain()
                ? A
                : A << static_cast<int32_t>(Rng.uniformBelow(64));
        break;
      default:
        R = A.node()->isPlain() && Bx.node()->isPlain() ? A : A - Bx;
        break;
      }
      Pool.push_back(R);
    }
    // Output the last few cipher values.
    int Outputs = 0;
    for (size_t I = Pool.size(); I-- > 0 && Outputs < 3;) {
      if (Pool[I].node()->isCipher()) {
        B.output("o" + std::to_string(Outputs), Pool[I], 30);
        ++Outputs;
      }
    }
    if (Outputs == 0)
      continue;
    Program &P = B.program();
    Expected<std::unique_ptr<Program>> Q =
        deserializeProgram(serializeProgram(P));
    ASSERT_TRUE(Q.ok()) << "seed " << Seed;
    EXPECT_EQ((*Q)->nodeCount(), P.nodeCount()) << "seed " << Seed;
    EXPECT_TRUE((*Q)->verifyStructure().ok()) << "seed " << Seed;
  }
}

} // namespace
