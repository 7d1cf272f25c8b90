//===- SerializeTest.cpp - Wire format and program round-trips ---------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/ckks/Galois.h"
#include "eva/ckks/KeyGenerator.h"
#include "eva/core/Analysis.h"
#include "eva/core/Compiler.h"
#include "eva/frontend/Expr.h"
#include "eva/ir/Printer.h"
#include "eva/runtime/ReferenceExecutor.h"
#include "eva/serialize/CkksIO.h"
#include "eva/serialize/ProtoIO.h"
#include "eva/serialize/Wire.h"
#include "eva/service/Client.h"
#include "eva/service/Service.h"
#include "eva/support/Log.h"
#include "eva/support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <set>

#ifndef EVA_FIXTURES_DIR
#error "EVA_FIXTURES_DIR must be defined by the build"
#endif

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

/// An unknown fixed32 field \p Field (wire type 5) carrying \p Bits: no
/// schema here has one, so no writer emits it.
std::string fixed32Field(uint32_t Field, uint32_t Bits) {
  WireWriter W;
  W.varint(static_cast<uint64_t>(Field) << 3 | 5);
  std::string Out = W.take();
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<char>((Bits >> (8 * I)) & 0xFF));
  return Out;
}

TEST(Wire, SkipsUnknownFields) {
  WireWriter W;
  W.varintField(9, 42);
  W.doubleField(10, 1.5);
  W.bytesField(11, "xyz");
  std::string Data = W.str() + fixed32Field(12, 0x3fc00000) + [] {
    WireWriter Tail;
    Tail.varintField(1, 7);
    return Tail.take();
  }();
  WireReader R(Data);
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

TEST(Wire, ReadsPackedRepeatedScalars) {
  // proto3 encoders such as protoc pack repeated scalars by default: one
  // length-delimited field of values back to back. Both encodings decode
  // to the same message; the encoders here write one field per value.
  auto Packed = [](uint32_t Field, const std::vector<uint64_t> &Values) {
    WireWriter Run, W;
    for (uint64_t V : Values)
      Run.varint(V);
    W.bytesField(Field, Run.str());
    return W.take();
  };
  ParamSignature Sig;
  Sig.ProgramName = "packed";
  Sig.PolyDegree = 8192;
  Sig.VecSize = 8;
  Sig.ContextBitSizes = {60, 40, 40, 60};
  Sig.RotationSteps = {1, 5, 300};
  Sig.RotationKeyPrimes = {3, 1, 2};
  WireWriter Head;
  Head.bytesField(1, Sig.ProgramName);
  Head.varintField(2, Sig.PolyDegree);
  Head.varintField(3, Sig.VecSize);
  Head.varintField(6, 1);
  std::string SigBytes = Head.str() + Packed(4, {60, 40, 40, 60}) +
                         Packed(5, {1, 5, 300}) + Packed(11, {3, 1, 2});
  Expected<ParamSignature> Decoded = deserializeParamSignature(SigBytes);
  ASSERT_TRUE(Decoded.ok()) << Decoded.message();
  EXPECT_EQ(serializeParamSignature(*Decoded), serializeParamSignature(Sig));

  MetricsSnapshot Snap;
  Snap.Histograms.push_back({"h", {0.001, 0.1, 1.0}, {3, 0, 4, 5}, 12, 2.5});
  WireWriter Hist, Metrics;
  Hist.bytesField(1, "h");
  Hist.bytesField(2, packDoubles({0.001, 0.1, 1.0}));
  std::string HistBytes = Hist.str() + Packed(3, {3, 0, 4, 5});
  WireWriter Tail;
  Tail.varintField(4, 12);
  Tail.doubleField(5, 2.5);
  Metrics.bytesField(3, HistBytes + Tail.str());
  Expected<MetricsSnapshot> DecodedSnap = deserializeMetrics(Metrics.str());
  ASSERT_TRUE(DecodedSnap.ok()) << DecodedSnap.message();
  EXPECT_EQ(serializeMetrics(*DecodedSnap), serializeMetrics(Snap));

  // A packed run that ends inside a value is truncated.
  WireWriter Short;
  Short.bytesField(2, std::string(12, '\0'));
  Expected<MetricsSnapshot> Cut = deserializeMetrics([&] {
    WireWriter M;
    M.bytesField(3, Short.str());
    return M.take();
  }());
  ASSERT_FALSE(Cut.ok());
  EXPECT_NE(Cut.message().find("truncated"), std::string::npos)
      << Cut.message();
  WireWriter OpenVarint;
  OpenVarint.bytesField(5, std::string("\x01\x85", 2));
  Expected<ParamSignature> CutSig =
      deserializeParamSignature(Head.str() + OpenVarint.str());
  ASSERT_FALSE(CutSig.ok());
  EXPECT_NE(CutSig.message().find("truncated"), std::string::npos)
      << CutSig.message();
}

TEST(Wire, RejectsFieldNumbersPastTheProtoRange) {
  // Field 2^32 + 1 would alias field 1 if its number were truncated to 32
  // bits; proto field numbers stop at 2^29 - 1.
  for (uint64_t Field : {(1ull << 32) + 1, 1ull << 29}) {
    WireWriter W;
    W.varint(Field << 3 | static_cast<uint64_t>(WireType::Varint));
    W.varint(5);
    WireReader R(W.str());
    uint32_t F;
    WireType T;
    EXPECT_FALSE(R.nextField(F, T)) << "field " << Field;
    EXPECT_TRUE(R.failed());
  }
  WireWriter W;
  W.varintField((1u << 29) - 1, 5);
  WireReader R(W.str());
  uint32_t F;
  WireType T;
  ASSERT_TRUE(R.nextField(F, T));
  EXPECT_EQ(F, (1u << 29) - 1);
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

TEST(Wire, ProgramAndSignatureSkipAnUnknownFixed32Field) {
  // Readers ignore fields they do not know (ProtoIO.h), whatever their wire
  // type: a newer peer's float or fixed32 field is skipped, not refused.
  std::string Bytes = serializeProgram(*buildRichProgram());
  Expected<std::unique_ptr<Program>> Q =
      deserializeProgram(Bytes + fixed32Field(20, 7));
  ASSERT_TRUE(Q.ok()) << Q.message();
  // Decoding renumbers nodes, so compare with the same bytes decoded
  // without the extra field.
  EXPECT_EQ(serializeProgram(**Q),
            serializeProgram(*deserializeProgram(Bytes).value()));

  ParamSignature Sig;
  Sig.ProgramName = "p";
  Sig.PolyDegree = 8192;
  Sig.VecSize = 8;
  Sig.ContextBitSizes = {60, 40, 60};
  std::string SigBytes = serializeParamSignature(Sig);
  Expected<ParamSignature> Decoded =
      deserializeParamSignature(fixed32Field(30, 1) + SigBytes);
  ASSERT_TRUE(Decoded.ok()) << Decoded.message();
  EXPECT_EQ(serializeParamSignature(*Decoded), SigBytes);

  // A known field sent as fixed32 is still refused as mistyped.
  Expected<ParamSignature> Mistyped =
      deserializeParamSignature(SigBytes + fixed32Field(2, 1));
  ASSERT_FALSE(Mistyped.ok());
  EXPECT_NE(Mistyped.message().find("field 2: wire type 5"), std::string::npos)
      << Mistyped.message();
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

/// Rewrites \p Data with the first field at \p Path (one field number per
/// nesting level; inner levels are length-delimited messages) re-encoded by
/// \p Put, given the writer, the field number and the old value as a
/// 64-bit word: a varint, the fixed64 bits, or the byte length. Every other
/// field is re-encoded as it was. nullopt when no field is at \p Path.
using PutFn = std::function<void(WireWriter &, uint32_t, uint64_t)>;
std::optional<std::string> rewriteField(std::string_view Data,
                                        const std::vector<uint32_t> &Path,
                                        const PutFn &Put) {
  WireReader R(Data);
  WireWriter W;
  bool Done = false;
  uint32_t F;
  WireType T;
  while (R.nextField(F, T)) {
    uint64_t V = 0;
    double D = 0;
    std::string_view B;
    bool Read = T == WireType::Varint    ? R.readVarint(V)
                : T == WireType::Fixed64 ? R.readDouble(D)
                                         : R.readBytes(B);
    if (!Read)
      return std::nullopt;
    if (T == WireType::Fixed64)
      V = std::bit_cast<uint64_t>(D);
    if (!Done && F == Path[0]) {
      if (Path.size() == 1) {
        Put(W, F, T == WireType::LengthDelimited ? B.size() : V);
        Done = true;
        continue;
      }
      if (T == WireType::LengthDelimited) {
        std::vector<uint32_t> Inner(Path.begin() + 1, Path.end());
        if (std::optional<std::string> Nested = rewriteField(B, Inner, Put)) {
          W.bytesField(F, *Nested);
          Done = true;
          continue;
        }
      }
    }
    if (T == WireType::Varint)
      W.varintField(F, V);
    else if (T == WireType::Fixed64)
      W.doubleField(F, D);
    else
      W.bytesField(F, B);
  }
  if (R.failed() || !Done)
    return std::nullopt;
  return W.take();
}

/// \p Data with the varint at \p Path replaced by \p V.
std::string withVarint(std::string_view Data,
                       const std::vector<uint32_t> &Path, uint64_t V) {
  std::optional<std::string> Out =
      rewriteField(Data, Path, [V](WireWriter &W, uint32_t F, uint64_t) {
        W.varintField(F, V);
      });
  EXPECT_TRUE(Out.has_value()) << "no field at the path";
  return Out.value_or("");
}

TEST(ProtoIO, RefusesNumbersItsIrCannotHold) {
  // The IR holds a rotation as int32_t and a rescale value as int, and each
  // role admits only some type codes: a value outside them is refused,
  // naming it, instead of keeping its low bits or becoming a default.
  ProgramBuilder B("ranges", 8);
  Expr X = B.inputCipher("x", 30);
  B.output("out", (X << 3) * B.constantVector({1, 2}, 20), 30);
  std::string Rotating = serializeProgram(B.program());
  ASSERT_TRUE(deserializeProgram(Rotating).ok());
  ProgramBuilder Deep("deep", 8);
  Expr Y = Deep.inputCipher("y", 40);
  Deep.output("out", Y * Y * Y, 40);
  Expected<CompiledProgram> CP = compile(Deep.program());
  ASSERT_TRUE(CP.ok());
  ASSERT_GT(countOps(*CP->Prog, OpCode::Rescale), 0u);
  std::string Rescaling = serializeProgram(*CP->Prog);

  const uint64_t TwoTo32 = 1ull << 32;
  struct Case {
    std::string Data;
    std::string Want;
  } Cases[] = {
      // Zigzag 2 * (2^32 + 3): once loaded as rotate_left steps=3.
      {withVarint(Rotating, {5, 4}, 2 * (TwoTo32 + 3)), "rotation 4294967299"},
      {withVarint(Rotating, {5, 4}, TwoTo32 + 1), "rotation -2147483649"},
      {withVarint(Rescaling, {5, 5}, TwoTo32 + 20), "rescale bits 4294967316"},
      // Constants are SCALAR_CONST (1) or VECTOR_CONST (4).
      {withVarint(Rotating, {2, 2}, 7), "constant type code 7"},
      {withVarint(Rotating, {2, 2}, 5), "constant type code 5"},
      // Inputs are SCALAR_PLAIN, SCALAR_CIPHER, VECTOR_PLAIN or
      // VECTOR_CIPHER (2, 3, 5, 6).
      {withVarint(Rotating, {3, 2}, 1), "input type code 1"},
      {withVarint(Rotating, {3, 2}, 0), "input type code 0"},
      {withVarint(Rotating, {3, 2}, 9), "input type code 9"},
  };
  for (const Case &C : Cases) {
    Expected<std::unique_ptr<Program>> Q = deserializeProgram(C.Data);
    if (Q.ok()) {
      ADD_FAILURE() << C.Want << " loaded";
      continue;
    }
    EXPECT_NE(Q.message().find(C.Want), std::string::npos) << Q.message();
  }
  // In range, the same rewrites load.
  EXPECT_TRUE(deserializeProgram(withVarint(Rotating, {5, 4}, 2 * 5)).ok());
  EXPECT_TRUE(deserializeProgram(withVarint(Rotating, {3, 2}, 5)).ok());
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

/// Same digits, seeds and residues.
void expectSameKey(const KSwitchKey &A, const KSwitchKey &B) {
  EXPECT_EQ(A.C1Seeds, B.C1Seeds);
  ASSERT_EQ(A.Keys.size(), B.Keys.size());
  for (size_t I = 0; I < A.Keys.size(); ++I)
    for (size_t W = 0; W < 2; ++W)
      EXPECT_EQ(A.Keys[I][W].Comps, B.Keys[I][W].Comps)
          << "digit " << I << " poly " << W;
}

TEST(KeyShape, TrimmedGaloisKeysRoundTrip) {
  // One key at each level of a 2-prime chain: on the wire a trimmed key is
  // only shorter, and its seeded k1 re-expands to the same limbs.
  KeyWire K;
  GaloisKeys Gk = K.Gen->createGaloisKeysAtLevels({{1, 1}, {3, 2}});
  ASSERT_EQ(Gk.Keys.size(), 2u);
  std::string Data = serializeGaloisKeys(Gk);
  Expected<GaloisKeys> Q = deserializeGaloisKeys(*K.Ctx, Data);
  ASSERT_TRUE(Q.ok()) << Q.message();
  ASSERT_EQ(Q->Keys.size(), 2u);
  for (const auto &[Elt, Key] : Gk.Keys) {
    SCOPED_TRACE("element " + std::to_string(Elt));
    ASSERT_TRUE(Q->has(Elt));
    expectSameKey(Q->at(Elt), Key);
  }
  EXPECT_EQ(serializeGaloisKeys(*Q), Data);
}

TEST(KeyShape, RefusesKeysOutOfShape) {
  KeyWire K;
  const size_t DataPrimes = K.Ctx->dataPrimeCount();
  ASSERT_EQ(DataPrimes, 2u);
  uint64_t G = galoisEltFromStep(1, K.Ctx->polyDegree());
  GaloisKeys Full = K.Gen->createGaloisKeys({1});
  GaloisKeys Trimmed = K.Gen->createGaloisKeysAtLevels({{1, 1}});
  auto Load = [&](const KSwitchKey &Key) {
    GaloisKeys Gk;
    Gk.Keys.emplace(G, Key);
    return deserializeGaloisKeys(*K.Ctx, serializeGaloisKeys(Gk))
        .takeStatus();
  };
  auto ExpectRefused = [](const Status &S, const char *Why) {
    ASSERT_FALSE(S.ok()) << Why;
    EXPECT_NE(S.message().find(Why), std::string::npos) << S.message();
  };

  // More pairs than the chain has data primes.
  KSwitchKey Long = Full.at(G);
  Long.Keys.push_back(Long.Keys[0]);
  Long.C1Seeds.push_back(Long.C1Seeds[0]);
  ExpectRefused(Load(Long), "more than 2 decomposition components");

  // A polynomial whose component count is not pairs + 1: the second pair
  // of a 2-pair key in the 1-pair shape.
  KSwitchKey Mixed = Full.at(G);
  Mixed.Keys[1] = Trimmed.at(G).Keys[0];
  Mixed.C1Seeds[1] = Trimmed.at(G).C1Seeds[0];
  ExpectRefused(Load(Mixed), "holds a polynomial of 2 components, not 3");

  // The last component lies over the special prime, which is larger than
  // data prime 1 here: a residue at or above it is refused, and one below
  // it (though above data prime 1) is a residue like any other.
  const uint64_t Special = K.Ctx->prime(K.Ctx->specialPrimeIndex()).value();
  ASSERT_GT(Special, K.Ctx->prime(1).value());
  KSwitchKey Edge = Trimmed.at(G);
  Edge.Keys[0][0].Comps[1][0] = Special;
  ExpectRefused(Load(Edge), "residue exceeds its prime modulus");
  Edge.Keys[0][0].Comps[1][0] = Special - 1;
  EXPECT_TRUE(Load(Edge).ok());
  Edge.Keys[0][0].Comps[1][0] = K.Ctx->prime(1).value();
  EXPECT_TRUE(Load(Edge).ok());

  // Relinearization keys stay full.
  RelinKeys Rk;
  Rk.Key = Trimmed.at(G);
  Expected<RelinKeys> ShortRelin =
      deserializeRelinKeys(*K.Ctx, serializeRelinKeys(Rk));
  ASSERT_FALSE(ShortRelin.ok());
  EXPECT_NE(ShortRelin.message().find("context needs 2"), std::string::npos)
      << ShortRelin.message();
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

//===----------------------------------------------------------------------===//
// Every decoder against hostile bytes: a table with one row per decoder,
// fed mutants of a valid encoding, and a table of known fields sent with
// another wire type
//===----------------------------------------------------------------------===//

/// Valid wire bytes of every decoded format: the checked-in programs, and a
/// conversation with a service serving one small program (N = 1024,
/// security off) through one open session.
struct WireSeeds {
  Service Svc;
  InProcessTransport T{Svc};
  ServiceClient Client{T};
  std::vector<std::pair<std::string, std::string>> Programs;
  std::string CipherFull, CipherSeeded, Relin, Galois;
  std::string Error, Signature, ProgramList, OpenSession, SessionOpened,
      Execute, ExecuteResult, CloseSession, SessionClosed, Metrics;

  WireSeeds() {
    for (const auto &Entry :
         std::filesystem::directory_iterator(EVA_FIXTURES_DIR)) {
      if (Entry.path().extension() != ".evabin")
        continue;
      Expected<std::unique_ptr<Program>> P = loadProgram(Entry.path());
      EXPECT_TRUE(P.ok()) << Entry.path();
      Programs.emplace_back(Entry.path().stem(), serializeProgram(*P.value()));
    }
    std::sort(Programs.begin(), Programs.end());
    Programs.emplace_back("rich", serializeProgram(*buildRichProgram()));

    // Step 2 rotates a rescaled cube, so its Galois key is trimmed to one
    // of the two data primes: the key rows start from both shapes.
    ProgramBuilder B("fuzzed", 8);
    Expr X = B.inputCipher("x", 30);
    Expr W = B.inputPlain("w", 20);
    Expr Cube = X * X * X;
    B.output("out", ((X << 1) * X) * X + (Cube << 2) + W, 30);
    CompilerOptions O;
    O.Security = SecurityLevel::None;
    EXPECT_TRUE(Svc.registry().registerSource(B.program(), O).ok());
    ProgramListMsg List{Client.listPrograms().value()};
    EXPECT_TRUE(Client.openSession(List.Programs[0], 7, true).ok());
    SealedRequest Req =
        Client.encryptInputs({{"x", {0.5, -0.25}}, {"w", {1, 2, 3, 4}}})
            .value();
    const Ciphertext &Ct = Req.Inputs.Cipher.at("x");
    CipherFull = serializeCiphertext(Ct);
    CipherSeeded = serializeCiphertext(Ct, Req.C1Seeds.at("x"));
    Relin = serializeRelinKeys(Client.relinKeys());
    Galois = serializeGaloisKeys(Client.galoisKeys());
    std::set<size_t> Digits;
    for (const auto &[Elt, Key] : Client.galoisKeys().Keys)
      Digits.insert(Key.Keys.size());
    EXPECT_EQ(Digits, (std::set<size_t>{1, 2}));

    Error = serializeError({"unknown session 12"});
    Signature = serializeParamSignature(List.Programs[0]);
    ProgramList = serializeProgramList(List);
    OpenSession = serializeOpenSession({"fuzzed", Relin, Galois});
    SessionOpened = serializeSessionOpened({Client.sessionId()});
    Execute = serializeExecute(executeMsgOf(Req, Client.sessionId()));
    std::pair<MessageType, std::string> Result =
        Svc.dispatch(MessageType::Execute, Execute);
    EXPECT_EQ(Result.first, MessageType::ExecuteResult);
    ExecuteResult = Result.second;
    CloseSession = serializeCloseSession({Client.sessionId()});
    SessionClosed = serializeSessionClosed({Client.sessionId()});
    Metrics = serializeMetrics(Svc.metricsSnapshot());
  }

  const CkksContext &context() const { return *Client.context(); }
};

/// A program's structure without its node numbering, which decoding
/// reassigns: the sorted hashes of its nodes, each over what the encoder
/// writes for the node and its operands' hashes.
std::vector<size_t> structureOf(const Program &P) {
  std::hash<std::string> Hash;
  std::map<const Node *, size_t> Of;
  std::vector<size_t> Out{Hash(P.name() + "/" + std::to_string(P.vecSize()))};
  for (const Node *N : P.forwardOrder()) {
    std::string Key = std::string(opName(N->op())) + "|" + N->name() + "|" +
                      std::to_string(static_cast<int>(N->type())) + "|" +
                      std::to_string(std::bit_cast<uint64_t>(N->logScale()));
    if (isRotation(N->op()))
      Key += "|" + std::to_string(N->rotation());
    if (N->op() == OpCode::Rescale)
      Key += "|" + std::to_string(N->rescaleBits());
    if (N->op() == OpCode::Constant)
      Key += "|" + packDoubles(N->constValue());
    for (const Node *Parm : N->parms())
      Key += "|" + std::to_string(Of.at(Parm));
    Out.push_back(Of[N] = Hash(Key));
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// One decoder under fuzzing. Decode runs the row's checks on what the
/// decoder accepted and returns its re-encoding (nullopt on a refusal);
/// Same compares two re-encodings.
struct DecoderRow {
  using DecodeFn = std::function<std::optional<std::string>(std::string_view)>;
  DecoderRow(std::string Name, std::string Seed, DecodeFn Decode,
             std::optional<MessageType> Request = std::nullopt)
      : Name(std::move(Name)), Seed(std::move(Seed)), Decode(std::move(Decode)),
        Request(Request) {}

  std::string Name;
  std::string Seed;
  DecodeFn Decode;
  std::function<bool(const std::string &, const std::string &)> Same =
      std::equal_to<std::string>();
  /// A request message is also dispatched to the service.
  std::optional<MessageType> Request;
};

template <typename T, typename DecodeFn, typename EncodeFn>
std::function<std::optional<std::string>(std::string_view)>
reencoding(DecodeFn Decode, EncodeFn Encode) {
  return [=](std::string_view Data) -> std::optional<std::string> {
    Expected<T> V = Decode(Data);
    if (!V.ok())
      return std::nullopt;
    return Encode(*V);
  };
}

std::vector<DecoderRow> decoderRows(const WireSeeds &S) {
  std::vector<DecoderRow> Rows;
  for (const auto &[Name, Bytes] : S.Programs) {
    DecoderRow Row(
        "program " + Name, Bytes,
        [](std::string_view Data) -> std::optional<std::string> {
          Expected<std::unique_ptr<Program>> P = deserializeProgram(Data);
          if (!P.ok())
            return std::nullopt;
          // The loader's own admission contract: no malformed graph reaches
          // an executor.
          VerifyOptions VO;
          VO.AllowCompilerOps = true;
          EXPECT_TRUE(verifyProgram(**P, VO).ok())
              << "loader accepted a graph the verifier rejects";
          return serializeProgram(**P);
        });
    Row.Same = [](const std::string &A, const std::string &B) {
      return structureOf(*deserializeProgram(A).value()) ==
             structureOf(*deserializeProgram(B).value());
    };
    Rows.push_back(std::move(Row));
  }
  const CkksContext &Ctx = S.context();
  auto Cipher = reencoding<Ciphertext>(
      [&Ctx](std::string_view D) { return deserializeCiphertext(Ctx, D); },
      [](const Ciphertext &Ct) { return serializeCiphertext(Ct); });
  Rows.push_back({"ciphertext (full)", S.CipherFull, Cipher});
  Rows.push_back({"ciphertext (seed-compressed)", S.CipherSeeded, Cipher});
  Rows.push_back(
      {"relin keys", S.Relin,
       reencoding<RelinKeys>(
           [&Ctx](std::string_view D) { return deserializeRelinKeys(Ctx, D); },
           serializeRelinKeys)});
  const GaloisKeys &Original = S.Client.galoisKeys();
  Rows.push_back(
      {"galois keys", S.Galois,
       [&Ctx, &Original](std::string_view D) -> std::optional<std::string> {
         Expected<GaloisKeys> Gk = deserializeGaloisKeys(Ctx, D);
         if (!Gk.ok())
           return std::nullopt;
         for (const auto &[Elt, Key] : Gk->Keys)
           EXPECT_TRUE(Original.has(Elt)) << "invented galois element " << Elt;
         return serializeGaloisKeys(*Gk);
       }});
  Rows.push_back({"error", S.Error,
                  reencoding<ErrorMsg>(deserializeError, serializeError)});
  Rows.push_back({"param signature", S.Signature,
                  reencoding<ParamSignature>(deserializeParamSignature,
                                             serializeParamSignature)});
  Rows.push_back({"program list", S.ProgramList,
                  reencoding<ProgramListMsg>(deserializeProgramList,
                                             serializeProgramList)});
  Rows.push_back({"open session", S.OpenSession,
                  reencoding<OpenSessionMsg>(deserializeOpenSession,
                                             serializeOpenSession),
                  MessageType::OpenSession});
  Rows.push_back({"session opened", S.SessionOpened,
                  reencoding<SessionOpenedMsg>(deserializeSessionOpened,
                                               serializeSessionOpened)});
  Rows.push_back({"execute", S.Execute,
                  reencoding<ExecuteMsg>(deserializeExecute, serializeExecute),
                  MessageType::Execute});
  Rows.push_back({"execute result", S.ExecuteResult,
                  reencoding<ExecuteResultMsg>(deserializeExecuteResult,
                                               serializeExecuteResult)});
  Rows.push_back({"close session", S.CloseSession,
                  reencoding<CloseSessionMsg>(deserializeCloseSession,
                                              serializeCloseSession),
                  MessageType::CloseSession});
  Rows.push_back({"session closed", S.SessionClosed,
                  reencoding<SessionClosedMsg>(deserializeSessionClosed,
                                               serializeSessionClosed)});
  Rows.push_back({"metrics", S.Metrics,
                  reencoding<MetricsSnapshot>(deserializeMetrics,
                                              serializeMetrics)});
  return Rows;
}

/// Dispatches \p Payload as a \p Type request: the service must answer
/// with a frame, an ERROR that decodes or the request's own response.
void expectResponseFrame(Service &Svc, MessageType Type,
                         std::string_view Payload) {
  std::pair<MessageType, std::string> R = Svc.dispatch(Type, Payload);
  if (R.first == MessageType::Error) {
    EXPECT_TRUE(deserializeError(R.second).ok());
    return;
  }
  switch (Type) {
  case MessageType::ListPrograms:
    EXPECT_EQ(R.first, MessageType::ProgramList);
    break;
  case MessageType::OpenSession:
    EXPECT_EQ(R.first, MessageType::SessionOpened);
    break;
  case MessageType::Execute:
    EXPECT_EQ(R.first, MessageType::ExecuteResult);
    break;
  case MessageType::CloseSession:
    EXPECT_EQ(R.first, MessageType::SessionClosed);
    break;
  case MessageType::GetMetrics:
    EXPECT_EQ(R.first, MessageType::Metrics);
    break;
  default:
    ADD_FAILURE() << messageTypeName(Type) << " is not a request";
  }
}

TEST(WireFuzz, EveryDecoderSurvivesMutants) {
  // Mutants: seeded 1-4 byte overwrites, then every k-th strict prefix.
  // Each is refused or accepted; no decoder may crash or hang (the
  // ASan/UBSan CI lane runs this suite). An accepted mutant's re-encoding
  // must decode and re-encode to the same bytes (programs: the same
  // structure, since decoding renumbers nodes), and requests must get a
  // response frame from the service.
  // Refusals are the expected outcome; keep the service's warnings quiet.
  struct QuietLog {
    LogLevel Saved = logLevel();
    QuietLog() { setLogLevel(LogLevel::Error); }
    ~QuietLog() { setLogLevel(Saved); }
  } Quiet;
  WireSeeds S;
  std::vector<DecoderRow> Rows = decoderRows(S);
  ASSERT_GE(Rows.size(), 18u);
  uint64_t RowSeed = 0xF00DF00D;
  for (const DecoderRow &Row : Rows) {
    SCOPED_TRACE(Row.Name);
    ASSERT_TRUE(Row.Decode(Row.Seed).has_value()) << "seed refused";
    RandomSource Rng(++RowSeed);
    std::vector<std::string> Mutants;
    for (int I = 0; I < 300; ++I) {
      std::string M = Row.Seed;
      for (uint64_t F = 0, N = 1 + Rng.uniformBelow(4); F < N; ++F)
        M[Rng.uniformBelow(M.size())] =
            static_cast<char>(Rng.uniformBelow(256));
      Mutants.push_back(std::move(M));
    }
    for (size_t Len = 0; Len < Row.Seed.size(); Len += 1 + Row.Seed.size() / 64)
      Mutants.push_back(Row.Seed.substr(0, Len));
    size_t Accepted = 0;
    for (size_t I = 0; I < Mutants.size(); ++I) {
      if (std::optional<std::string> Again = Row.Decode(Mutants[I])) {
        ++Accepted;
        std::optional<std::string> Twice = Row.Decode(*Again);
        ASSERT_TRUE(Twice.has_value()) << "mutant " << I;
        EXPECT_TRUE(Row.Same(*Again, *Twice)) << "mutant " << I;
      }
      if (Row.Request) {
        SCOPED_TRACE("dispatched mutant " + std::to_string(I));
        expectResponseFrame(S.Svc, *Row.Request, Mutants[I]);
      }
    }
    EXPECT_LT(Accepted, Mutants.size()) << "no mutant was refused";
  }
  // Every message type, requests or not and one past the last, answers
  // every row's bytes with a frame.
  for (int Type = 0; Type <= static_cast<int>(MessageType::Metrics) + 1;
       ++Type)
    for (const DecoderRow &Row : Rows) {
      SCOPED_TRACE(Row.Name + " as type " + std::to_string(Type));
      expectResponseFrame(S.Svc, static_cast<MessageType>(Type), Row.Seed);
    }
}

TEST(WireFuzz, EveryDecoderRefusesAMistypedKnownField) {
  // One rule for every decoder: a known field that arrives with another
  // wire type is refused, naming the message's field, never skipped or
  // guessed at. Each row re-tags one field (a path through nested
  // messages) of a valid encoding; everything else stays well-formed.
  WireSeeds S;
  const CkksContext &Ctx = S.context();
  using DecodeFn = std::function<Status(std::string_view)>;
  DecodeFn Program = [](std::string_view D) {
    return deserializeProgram(D).takeStatus();
  };
  DecodeFn Cipher = [&Ctx](std::string_view D) {
    return deserializeCiphertext(Ctx, D).takeStatus();
  };
  DecodeFn Relin = [&Ctx](std::string_view D) {
    return deserializeRelinKeys(Ctx, D).takeStatus();
  };
  DecodeFn Galois = [&Ctx](std::string_view D) {
    return deserializeGaloisKeys(Ctx, D).takeStatus();
  };
  auto Msg = [](auto Decode) -> DecodeFn {
    return [Decode](std::string_view D) { return Decode(D).takeStatus(); };
  };
  std::string Rotsum, Rich = S.Programs.back().second;
  for (const auto &[Name, Bytes] : S.Programs)
    if (Name == "rotsum")
      Rotsum = Bytes;
  ASSERT_FALSE(Rotsum.empty());

  const WireType V = WireType::Varint, F = WireType::Fixed64,
                 L = WireType::LengthDelimited;
  struct Row {
    const char *Name;
    const std::string &Seed;
    DecodeFn Decode;
    std::vector<uint32_t> Path;
    WireType As;
  } Rows[] = {
      {"program vec_size", Rich, Program, {1}, F},
      {"program name", Rich, Program, {6}, V},
      {"constant object id", Rich, Program, {2, 1, 1}, F},
      {"constant type", Rich, Program, {2, 2}, L},
      {"constant scale", Rich, Program, {2, 3}, V},
      {"constant vector", Rich, Program, {2, 4}, V},
      {"constant vector elements", Rich, Program, {2, 4, 1}, F},
      {"input type", Rich, Program, {3, 2}, F},
      {"input name", Rich, Program, {3, 15}, F},
      {"output scale", Rich, Program, {4, 2}, V},
      {"output name", Rich, Program, {4, 15}, V},
      {"instruction opcode", Rich, Program, {5, 2}, F},
      {"instruction arg", Rich, Program, {5, 3}, V},
      // Once loaded as rotate_left steps=0.
      {"instruction rotation", Rotsum, Program, {5, 4}, F},
      {"ciphertext poly", S.CipherFull, Cipher, {1}, F},
      {"ciphertext scale", S.CipherFull, Cipher, {2}, V},
      {"ciphertext seed", S.CipherSeeded, Cipher, {3}, F},
      {"poly degree", S.CipherFull, Cipher, {1, 1}, F},
      {"poly prime count", S.CipherFull, Cipher, {1, 2}, L},
      {"poly component", S.CipherFull, Cipher, {1, 3}, F},
      {"relin key", S.Relin, Relin, {1}, V},
      {"key-switch pair", S.Relin, Relin, {1, 1}, F},
      {"key-switch k0", S.Relin, Relin, {1, 1, 1}, V},
      {"key-switch seed", S.Relin, Relin, {1, 1, 3}, F},
      {"galois entry", S.Galois, Galois, {1}, V},
      {"galois element", S.Galois, Galois, {1, 1}, F},
      {"galois key", S.Galois, Galois, {1, 2}, V},
      {"error message", S.Error, Msg(deserializeError), {1}, V},
      {"signature name", S.Signature, Msg(deserializeParamSignature), {1}, V},
      {"signature degree", S.Signature, Msg(deserializeParamSignature), {2},
       L},
      {"signature rotation step", S.Signature,
       Msg(deserializeParamSignature), {5}, F},
      {"signature relin flag", S.Signature, Msg(deserializeParamSignature),
       {9}, F},
      {"input spec scale", S.Signature, Msg(deserializeParamSignature),
       {7, 2}, V},
      {"input spec cipher", S.Signature, Msg(deserializeParamSignature),
       {7, 3}, F},
      {"output spec name", S.Signature, Msg(deserializeParamSignature),
       {8, 1}, F},
      {"program list entry", S.ProgramList, Msg(deserializeProgramList), {1},
       V},
      {"open-session program", S.OpenSession, Msg(deserializeOpenSession),
       {1}, V},
      {"open-session galois keys", S.OpenSession,
       Msg(deserializeOpenSession), {3}, F},
      {"session-opened id", S.SessionOpened, Msg(deserializeSessionOpened),
       {1}, F},
      {"execute session", S.Execute, Msg(deserializeExecute), {1}, L},
      {"execute cipher input", S.Execute, Msg(deserializeExecute), {2}, V},
      {"cipher input name", S.Execute, Msg(deserializeExecute), {2, 1}, V},
      {"plain input values", S.Execute, Msg(deserializeExecute), {3, 2}, F},
      {"execute result request", S.ExecuteResult,
       Msg(deserializeExecuteResult), {2}, F},
      {"execute result output", S.ExecuteResult,
       Msg(deserializeExecuteResult), {1, 2}, V},
      {"close-session id", S.CloseSession, Msg(deserializeCloseSession), {1},
       F},
      {"session-closed id", S.SessionClosed, Msg(deserializeSessionClosed),
       {1}, L},
      {"metrics counter", S.Metrics, Msg(deserializeMetrics), {1}, V},
      {"counter value", S.Metrics, Msg(deserializeMetrics), {1, 2}, F},
      {"gauge name", S.Metrics, Msg(deserializeMetrics), {2, 1}, V},
      {"histogram bound", S.Metrics, Msg(deserializeMetrics), {3, 2}, V},
      {"histogram count", S.Metrics, Msg(deserializeMetrics), {3, 4}, F},
  };
  for (const Row &R : Rows) {
    SCOPED_TRACE(R.Name);
    ASSERT_TRUE(R.Decode(R.Seed).ok()) << "seed refused";
    std::optional<std::string> Mistyped = rewriteField(
        R.Seed, R.Path, [As = R.As](WireWriter &W, uint32_t Field, uint64_t V) {
          if (As == WireType::Varint) {
            W.varintField(Field, V);
          } else if (As == WireType::Fixed64) {
            W.doubleField(Field, std::bit_cast<double>(V));
          } else {
            char Word[8];
            std::memcpy(Word, &V, 8);
            W.bytesField(Field, std::string_view(Word, 8));
          }
        });
    ASSERT_TRUE(Mistyped.has_value()) << "no field at the path";
    Status Refusal = R.Decode(*Mistyped);
    if (Refusal.ok()) {
      ADD_FAILURE() << "mistyped field accepted";
      continue;
    }
    EXPECT_NE(Refusal.message().find("malformed"), std::string::npos)
        << Refusal.message();
    EXPECT_NE(Refusal.message().find(" field " + std::to_string(R.Path.back())),
              std::string::npos)
        << Refusal.message();
  }
}

} // namespace
