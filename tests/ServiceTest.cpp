//===- ServiceTest.cpp - Encrypted-compute service tests ----------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the three service layers end to end:
///  * CkksIO wire round-trips — every runtime object satisfies
///    load(save(x)) => bit-identical decryption results, including the
///    seed-compressed key and ciphertext paths — plus defensive rejection
///    of malformed input.
///  * The framing protocol over real socketpairs.
///  * The service core and transports: concurrent tenant sessions over a
///    loopback socket server produce results bit-identical to a direct
///    in-process CkksExecutor::run, with the secret key provably absent
///    from every frame on the wire.
///  * The threading model: requests run on the thread that received them,
///    behind an admission gate that refuses past its queue depth, and
///    requests of one session overlap bit-identically.
///
//===----------------------------------------------------------------------===//

#include "eva/frontend/Expr.h"
#include "eva/serialize/CkksIO.h"
#include "eva/serialize/Wire.h"
#include "eva/service/Client.h"
#include "eva/service/Server.h"
#include "eva/support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <future>
#include <latch>
#include <limits>
#include <map>
#include <set>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace eva;

namespace {

//===----------------------------------------------------------------------===//
// CkksIO round trips
//===----------------------------------------------------------------------===//

/// A small low-cost crypto stack (security enforcement off, tiny degree) for
/// serialization tests that don't need a compiled program.
struct MiniCkks {
  std::shared_ptr<const CkksContext> Ctx;
  std::unique_ptr<CkksEncoder> Encoder;
  std::unique_ptr<KeyGenerator> KeyGen;
  std::unique_ptr<Encryptor> Enc;
  std::unique_ptr<Decryptor> Dec;

  explicit MiniCkks(uint64_t Seed = 42) {
    Expected<std::shared_ptr<CkksContext>> C = CkksContext::createFromBitSizes(
        1024, {36, 36, 40}, SecurityLevel::None);
    EXPECT_TRUE(C.ok()) << (C.ok() ? "" : C.message());
    Ctx = C.value();
    Encoder = std::make_unique<CkksEncoder>(Ctx);
    KeyGen = std::make_unique<KeyGenerator>(Ctx, Seed);
    Enc = std::make_unique<Encryptor>(Ctx, Seed + 1);
    Dec = std::make_unique<Decryptor>(Ctx, KeyGen->secretKey());
  }

  Plaintext encode(const std::vector<double> &V, double Scale = 1099511627776.0
                   /* 2^40 */) {
    Plaintext Pt;
    Encoder->encode(V, Scale, Ctx->dataPrimeCount(), Pt);
    return Pt;
  }

  /// A fresh ciphertext of \p V, encrypted under the secret key.
  Ciphertext encrypt(const std::vector<double> &V) {
    uint64_t Seed = 0;
    return Enc->encryptSymmetric(encode(V), KeyGen->secretKey(), Seed);
  }
};

bool polysEqual(const RnsPoly &A, const RnsPoly &B) {
  return A.Degree == B.Degree && A.Comps == B.Comps;
}

bool ciphertextsEqual(const Ciphertext &A, const Ciphertext &B) {
  if (A.size() != B.size() || A.Scale != B.Scale)
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (!polysEqual(A.Polys[I], B.Polys[I]))
      return false;
  return true;
}

std::vector<double> randomVector(size_t N, uint64_t Seed) {
  RandomSource Rng(Seed);
  std::vector<double> V(N);
  for (double &X : V)
    X = Rng.uniformReal(-1, 1);
  return V;
}

TEST(CkksIO, CiphertextRoundTripIsBitIdentical) {
  MiniCkks K;
  Ciphertext Ct = K.encrypt(randomVector(K.Ctx->slotCount(), 8));
  Expected<Ciphertext> Q =
      deserializeCiphertext(*K.Ctx, serializeCiphertext(Ct));
  ASSERT_TRUE(Q.ok()) << (Q.ok() ? "" : Q.message());
  EXPECT_TRUE(ciphertextsEqual(Ct, *Q));
  // Decryption of the loaded ciphertext is bit-identical.
  std::vector<double> A = K.Encoder->decode(K.Dec->decrypt(Ct));
  std::vector<double> B = K.Encoder->decode(K.Dec->decrypt(*Q));
  ASSERT_EQ(A.size(), B.size());
  EXPECT_EQ(std::memcmp(A.data(), B.data(), A.size() * sizeof(double)), 0);
}

TEST(CkksIO, SeedCompressedCiphertextRoundTrip) {
  MiniCkks K;
  Plaintext Pt = K.encode(randomVector(K.Ctx->slotCount(), 9));
  uint64_t Seed = 0;
  Ciphertext Ct = K.Enc->encryptSymmetric(Pt, K.KeyGen->secretKey(), Seed);
  ASSERT_NE(Seed, 0u);

  std::string Full = serializeCiphertext(Ct);
  std::string Compressed = serializeCiphertext(Ct, Seed);
  // The compressed form drops one of two polynomials: about half the bytes.
  EXPECT_LT(Compressed.size(), Full.size() * 0.55);

  Expected<Ciphertext> Q = deserializeCiphertext(*K.Ctx, Compressed);
  ASSERT_TRUE(Q.ok()) << (Q.ok() ? "" : Q.message());
  EXPECT_TRUE(ciphertextsEqual(Ct, *Q)) << "seed expansion must reproduce c1";
  std::vector<double> A = K.Encoder->decode(K.Dec->decrypt(Ct));
  std::vector<double> B = K.Encoder->decode(K.Dec->decrypt(*Q));
  EXPECT_EQ(std::memcmp(A.data(), B.data(), A.size() * sizeof(double)), 0);
}

TEST(CkksIO, SymmetricCiphertextDecryptsCorrectly) {
  MiniCkks K;
  std::vector<double> V = randomVector(K.Ctx->slotCount(), 10);
  uint64_t Seed = 0;
  Ciphertext Ct = K.Enc->encryptSymmetric(K.encode(V), K.KeyGen->secretKey(),
                                          Seed);
  std::vector<double> Out = K.Encoder->decode(K.Dec->decrypt(Ct));
  for (size_t I = 0; I < V.size(); ++I)
    EXPECT_NEAR(Out[I], V[I], 1e-4) << "slot " << I;
}

TEST(CkksIO, RelinKeysRoundTripProducesIdenticalResults) {
  MiniCkks K;
  RelinKeys Rk = K.KeyGen->createRelinKeys();
  std::string Data = serializeRelinKeys(Rk);
  Expected<RelinKeys> Q = deserializeRelinKeys(*K.Ctx, Data);
  ASSERT_TRUE(Q.ok()) << (Q.ok() ? "" : Q.message());

  // Relinearizing with the loaded key is bit-identical to the original.
  Evaluator Eval(K.Ctx);
  Ciphertext A = K.encrypt(randomVector(K.Ctx->slotCount(), 12));
  Ciphertext B = K.encrypt(randomVector(K.Ctx->slotCount(), 13));
  Ciphertext Prod = Eval.multiply(A, B);
  Ciphertext R1 = Eval.relinearize(Prod, Rk);
  Ciphertext R2 = Eval.relinearize(Prod, *Q);
  EXPECT_TRUE(ciphertextsEqual(R1, R2));
}

TEST(CkksIO, GaloisKeysRoundTripProducesIdenticalResults) {
  MiniCkks K;
  GaloisKeys Gk = K.KeyGen->createGaloisKeys({1, 3});
  std::string Data = serializeGaloisKeys(Gk);
  Expected<GaloisKeys> Q = deserializeGaloisKeys(*K.Ctx, Data);
  ASSERT_TRUE(Q.ok()) << (Q.ok() ? "" : Q.message());
  ASSERT_EQ(Q->Keys.size(), Gk.Keys.size());

  Evaluator Eval(K.Ctx);
  Ciphertext Ct = K.encrypt(randomVector(K.Ctx->slotCount(), 14));
  Ciphertext R1 = Eval.rotateLeft(Ct, 3, Gk);
  Ciphertext R2 = Eval.rotateLeft(Ct, 3, *Q);
  EXPECT_TRUE(ciphertextsEqual(R1, R2));
}

TEST(CkksIO, SeedCompressionHalvesKeyUploadSize) {
  MiniCkks K;
  RelinKeys Rk = K.KeyGen->createRelinKeys();
  std::string Compressed = serializeRelinKeys(Rk);
  // Strip the seeds to measure the uncompressed form of the same key.
  RelinKeys Fat = Rk;
  Fat.Key.C1Seeds.assign(Fat.Key.C1Seeds.size(), 0);
  std::string Full = serializeRelinKeys(Fat);
  EXPECT_LT(Compressed.size(), Full.size() * 0.55)
      << "seeded form should be about half the bytes";

  // Both forms load into keys with identical polynomials.
  Expected<RelinKeys> QC = deserializeRelinKeys(*K.Ctx, Compressed);
  Expected<RelinKeys> QF = deserializeRelinKeys(*K.Ctx, Full);
  ASSERT_TRUE(QC.ok() && QF.ok());
  for (size_t I = 0; I < QC->Key.Keys.size(); ++I) {
    EXPECT_TRUE(polysEqual(QC->Key.Keys[I][0], QF->Key.Keys[I][0]));
    EXPECT_TRUE(polysEqual(QC->Key.Keys[I][1], QF->Key.Keys[I][1]));
  }
}

TEST(CkksIO, RejectsMalformedInput) {
  MiniCkks K;
  // Garbage and truncation.
  EXPECT_FALSE(deserializeCiphertext(*K.Ctx, "not a ciphertext").ok());
  Ciphertext Ct = K.encrypt(randomVector(K.Ctx->slotCount(), 15));
  std::string Data = serializeCiphertext(Ct);
  EXPECT_FALSE(
      deserializeCiphertext(*K.Ctx, std::string_view(Data).substr(0, 100))
          .ok());
  // A single-poly ciphertext without a seed is invalid.
  Ciphertext Single = Ct;
  Single.Polys.resize(1);
  EXPECT_FALSE(deserializeCiphertext(*K.Ctx, serializeCiphertext(Single)).ok());
  // Degree mismatch: a poly serialized for another context.
  Expected<std::shared_ptr<CkksContext>> Other =
      CkksContext::createFromBitSizes(512, {36, 36, 40}, SecurityLevel::None);
  ASSERT_TRUE(Other.ok());
  EXPECT_FALSE(deserializeCiphertext(*Other.value(), Data).ok());
  // Out-of-range residue: corrupt one coefficient to >= q. Component bytes
  // live near the front; set eight consecutive payload bytes to 0xFF.
  std::string Corrupt = Data;
  std::memset(Corrupt.data() + 24, 0xFF, 8);
  EXPECT_FALSE(deserializeCiphertext(*K.Ctx, Corrupt).ok());
  // Empty input.
  EXPECT_FALSE(deserializeRelinKeys(*K.Ctx, "").ok());
}

TEST(CkksIO, RejectsTamperedScaleAndSeed) {
  MiniCkks K;
  Plaintext Pt = K.encode(randomVector(K.Ctx->slotCount(), 16));
  uint64_t Seed = 0;
  Ciphertext Ct = K.Enc->encryptSymmetric(Pt, K.KeyGen->secretKey(), Seed);
  // Both polys AND a seed: ambiguous, must be rejected.
  std::string Full = serializeCiphertext(Ct);
  WireWriter W;
  W.varintField(3, Seed);
  std::string Tampered = Full + W.str();
  EXPECT_FALSE(deserializeCiphertext(*K.Ctx, Tampered).ok());
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

struct SocketPair {
  int Fds[2];
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0); }
  ~SocketPair() {
    ::close(Fds[0]);
    ::close(Fds[1]);
  }
};

TEST(Framing, RoundTrip) {
  SocketPair SP;
  std::string Payload(100000, 'x');
  Payload[5] = '\0'; // binary-safe
  ASSERT_TRUE(writeFrame(SP.Fds[0], MessageType::Execute, Payload).ok());
  Expected<Frame> F = readFrame(SP.Fds[1]);
  ASSERT_TRUE(F.ok()) << (F.ok() ? "" : F.message());
  EXPECT_EQ(F->Type, MessageType::Execute);
  EXPECT_EQ(F->Payload, Payload);
}

TEST(Framing, CleanEofReportsConnectionClosed) {
  SocketPair SP;
  // Writer closes before sending any byte: a clean disconnect.
  ::shutdown(SP.Fds[0], SHUT_WR);
  Expected<Frame> F = readFrame(SP.Fds[1]);
  ASSERT_FALSE(F.ok());
  EXPECT_EQ(F.message(), "connection closed");
}

TEST(Framing, RejectsBadMagic) {
  SocketPair SP;
  const char Junk[] = "JUNKxx\x01\x00\x00\x00";
  ASSERT_EQ(::write(SP.Fds[0], Junk, 10), 10);
  Expected<Frame> F = readFrame(SP.Fds[1]);
  ASSERT_FALSE(F.ok());
  EXPECT_NE(F.message().find("magic"), std::string::npos);
}

TEST(Framing, RejectsOversizedLength) {
  SocketPair SP;
  char Header[10] = {'E', 'V', 'A', 'S', FrameVersion, 0, 0, 0, 0, 0x7F};
  ASSERT_EQ(::write(SP.Fds[0], Header, 10), 10);
  Expected<Frame> F = readFrame(SP.Fds[1]);
  ASSERT_FALSE(F.ok());
  EXPECT_NE(F.message().find("exceeds"), std::string::npos);
}

TEST(Framing, ReportsTruncationMidFrame) {
  SocketPair SP;
  char Header[10] = {'E', 'V', 'A', 'S', FrameVersion, 0, 16, 0, 0, 0};
  ASSERT_EQ(::write(SP.Fds[0], Header, 10), 10);
  ASSERT_EQ(::write(SP.Fds[0], "abc", 3), 3);
  ::shutdown(SP.Fds[0], SHUT_WR);
  Expected<Frame> F = readFrame(SP.Fds[1]);
  ASSERT_FALSE(F.ok());
  EXPECT_NE(F.message().find("truncated"), std::string::npos);
}

// Every version inside the accept window [MinFrameVersion, FrameVersion]
// shares the header layout, so a frame stamped with the oldest accepted
// version must parse exactly like a current one.
TEST(Framing, AcceptsOldestWindowVersion) {
  SocketPair SP;
  char Header[10] = {'E', 'V', 'A', 'S', MinFrameVersion,
                     char(MessageType::ListPrograms), 3, 0, 0, 0};
  ASSERT_EQ(::write(SP.Fds[0], Header, 10), 10);
  ASSERT_EQ(::write(SP.Fds[0], "abc", 3), 3);
  Expected<Frame> F = readFrame(SP.Fds[1]);
  ASSERT_TRUE(F.ok()) << (F.ok() ? "" : F.message());
  EXPECT_EQ(F->Type, MessageType::ListPrograms);
  EXPECT_EQ(F->Payload, "abc");
}

// Versions outside the window — 0 (pre-versioning garbage) and a future
// version this build has never heard of — are rejected with a diagnostic
// naming the accept window, not misparsed as a frame.
TEST(Framing, RejectsVersionOutsideWindow) {
  for (char Bad : {char(0), char(99)}) {
    SocketPair SP;
    char Header[10] = {'E', 'V', 'A', 'S', Bad, 0, 0, 0, 0, 0};
    ASSERT_EQ(::write(SP.Fds[0], Header, 10), 10);
    Expected<Frame> F = readFrame(SP.Fds[1]);
    ASSERT_FALSE(F.ok());
    EXPECT_NE(F.message().find("unsupported protocol version"),
              std::string::npos);
    EXPECT_NE(F.message().find("accepts"), std::string::npos);
  }
}

TEST(Framing, RejectsUnknownMessageType) {
  SocketPair SP;
  char Header[10] = {'E', 'V', 'A', 'S', FrameVersion, 0x7F, 0, 0, 0, 0};
  ASSERT_EQ(::write(SP.Fds[0], Header, 10), 10);
  Expected<Frame> F = readFrame(SP.Fds[1]);
  ASSERT_FALSE(F.ok());
  EXPECT_NE(F.message().find("unknown frame type"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Messages
//===----------------------------------------------------------------------===//

TEST(Messages, ParamSignatureRoundTrip) {
  ParamSignature Sig;
  Sig.ProgramName = "demo";
  Sig.PolyDegree = 8192;
  Sig.VecSize = 256;
  Sig.ContextBitSizes = {40, 40, 60};
  Sig.RotationSteps = {1, 4, 16};
  Sig.RotationKeyPrimes = {2, 1, 2};
  Sig.Security = SecurityLevel::TC128;
  Sig.NeedsRelin = true;
  Sig.Inputs = {{"x", ValueType::Cipher, 30, 2},
                {"w", ValueType::Vector, 20, 0}};
  Sig.Outputs = {{"out", ValueType::Cipher, 30, 2}};
  Sig.LintWarnings = {"[unused-input] %1: input 'w' is never used",
                      "[dead-output] %9: output 'out' depends on no input"};
  Expected<ParamSignature> Q =
      deserializeParamSignature(serializeParamSignature(Sig));
  ASSERT_TRUE(Q.ok()) << (Q.ok() ? "" : Q.message());
  EXPECT_EQ(Q->ProgramName, Sig.ProgramName);
  EXPECT_EQ(Q->PolyDegree, Sig.PolyDegree);
  EXPECT_EQ(Q->VecSize, Sig.VecSize);
  EXPECT_EQ(Q->ContextBitSizes, Sig.ContextBitSizes);
  EXPECT_EQ(Q->RotationSteps, Sig.RotationSteps);
  EXPECT_EQ(Q->RotationKeyPrimes, Sig.RotationKeyPrimes);
  EXPECT_EQ(Q->galoisKeyPrimes(),
            (std::map<uint64_t, size_t>{{1, 2}, {4, 1}, {16, 2}}));
  EXPECT_EQ(Q->Security, Sig.Security);
  EXPECT_EQ(Q->NeedsRelin, Sig.NeedsRelin);
  ASSERT_EQ(Q->Inputs.size(), 2u);
  EXPECT_EQ(Q->Inputs[0].Name, "x");
  EXPECT_EQ(Q->Inputs[0].LogScale, 30);
  EXPECT_TRUE(Q->Inputs[0].isCipher());
  EXPECT_FALSE(Q->Inputs[1].isCipher());
  // Cipher inputs and outputs sit at the full data chain: two data primes.
  EXPECT_EQ(Q->Inputs[0].Level, 2u);
  EXPECT_EQ(Q->Inputs[1].Level, 0u);
  ASSERT_EQ(Q->Outputs.size(), 1u);
  EXPECT_EQ(Q->Outputs[0].Name, "out");
  EXPECT_EQ(Q->Outputs[0].Level, 2u);
  EXPECT_EQ(Q->LintWarnings, Sig.LintWarnings);

  // A server that predates per-step levels sends none: full keys.
  Sig.RotationKeyPrimes.clear();
  Q = deserializeParamSignature(serializeParamSignature(Sig));
  ASSERT_TRUE(Q.ok()) << Q.message();
  EXPECT_EQ(Q->galoisKeyPrimes(),
            (std::map<uint64_t, size_t>{{1, 2}, {4, 2}, {16, 2}}));
}

TEST(Messages, ExecuteRoundTrip) {
  ExecuteMsg M;
  M.SessionId = 99;
  M.CipherInputs = {{"x", std::string("\x01\x02\x00\x03", 4)}};
  M.PlainInputs = {{"w", {1.5, -2.25, 0.0}}};
  Expected<ExecuteMsg> Q = deserializeExecute(serializeExecute(M));
  ASSERT_TRUE(Q.ok()) << (Q.ok() ? "" : Q.message());
  EXPECT_EQ(Q->SessionId, 99u);
  ASSERT_EQ(Q->CipherInputs.size(), 1u);
  EXPECT_EQ(Q->CipherInputs[0].first, "x");
  EXPECT_EQ(Q->CipherInputs[0].second, M.CipherInputs[0].second);
  ASSERT_EQ(Q->PlainInputs.size(), 1u);
  EXPECT_EQ(Q->PlainInputs[0].second, M.PlainInputs[0].second);
}

TEST(Messages, RejectsGarbage) {
  std::string Junk(64, '\xff');
  EXPECT_FALSE(deserializeParamSignature(Junk).ok());
  EXPECT_FALSE(deserializeExecute(Junk).ok());
  EXPECT_FALSE(deserializeOpenSession(Junk).ok());
  EXPECT_FALSE(deserializeProgramList(Junk).ok());
  EXPECT_FALSE(deserializeExecuteResult(Junk).ok());

  // Well-formed signatures whose vec_size no client can encode: not a power
  // of two, or more values than the degree's slots.
  ParamSignature Sig;
  Sig.ProgramName = "slots";
  Sig.PolyDegree = 1024;
  Sig.ContextBitSizes = {36, 36, 40};
  Sig.Inputs = {{"x", ValueType::Cipher, 30, 2}};
  Sig.Outputs = {{"out", ValueType::Cipher, 30, 2}};
  Sig.VecSize = 512;
  EXPECT_TRUE(deserializeParamSignature(serializeParamSignature(Sig)).ok());
  for (uint64_t VecSize : {1024, 12, 0}) {
    Sig.VecSize = VecSize;
    Expected<ParamSignature> Q =
        deserializeParamSignature(serializeParamSignature(Sig));
    ASSERT_FALSE(Q.ok()) << "vec_size " << VecSize;
    EXPECT_NE(Q.message().find("vec_size"), std::string::npos) << Q.message();
  }

  // Key levels no client can build: one per step, each in [1, 2].
  Sig.VecSize = 512;
  Sig.RotationSteps = {1, 2};
  for (std::vector<uint64_t> Levels :
       {std::vector<uint64_t>{2}, {2, 2, 2}, {0, 2}, {2, 3}}) {
    Sig.RotationKeyPrimes = Levels;
    Expected<ParamSignature> Q =
        deserializeParamSignature(serializeParamSignature(Sig));
    ASSERT_FALSE(Q.ok()) << Levels.size() << " levels";
    EXPECT_NE(Q.message().find("rotation key level"), std::string::npos)
        << Q.message();
  }
  Sig.RotationKeyPrimes = {1, 2};
  EXPECT_TRUE(deserializeParamSignature(serializeParamSignature(Sig)).ok());
}

//===----------------------------------------------------------------------===//
// Service end to end
//===----------------------------------------------------------------------===//

/// The served workload: rotation + relinearized multiply + plain operand,
/// touching every kind of evaluation key.
std::unique_ptr<Program> buildServedProgram() {
  ProgramBuilder B("served", 8);
  Expr X = B.inputCipher("x", 30);
  Expr W = B.inputPlain("w", 20);
  Expr Y = (X * X) + (X << 1) + W;
  B.output("out", Y, 30);
  return B.take();
}

/// Compiles the served program exactly as the registry does, for the
/// direct-execution comparison.
CompiledProgram compileServedProgram() {
  std::unique_ptr<Program> P = buildServedProgram();
  Expected<CompiledProgram> CP = compile(*P, CompilerOptions::eva());
  EXPECT_TRUE(CP.ok()) << (CP.ok() ? "" : CP.message());
  return std::move(*CP);
}

std::map<std::string, std::vector<double>> servedInputs(uint64_t Seed) {
  return {{"x", randomVector(8, Seed)}, {"w", randomVector(8, Seed + 1)}};
}

/// Runs one client conversation over \p T and checks the decrypted result
/// is bit-identical to a direct CkksExecutor::run of the same compiled
/// program on the same sealed inputs under the same keys. The direct run
/// uses the kernel schedule, so two independent schedulers agree.
void runTenant(Transport &T, uint64_t KeySeed, uint64_t InputSeed) {
  ServiceClient Client(T);
  Expected<std::vector<ParamSignature>> Sigs = Client.listPrograms();
  ASSERT_TRUE(Sigs.ok()) << (Sigs.ok() ? "" : Sigs.message());
  ASSERT_EQ(Sigs->size(), 1u);
  ASSERT_TRUE(Client.openSession((*Sigs)[0], KeySeed).ok());

  std::map<std::string, std::vector<double>> Inputs = servedInputs(InputSeed);
  Expected<SealedRequest> Req = Client.encryptInputs(Inputs);
  ASSERT_TRUE(Req.ok()) << (Req.ok() ? "" : Req.message());
  Expected<std::map<std::string, Ciphertext>> Remote = Client.submit(*Req);
  ASSERT_TRUE(Remote.ok()) << (Remote.ok() ? "" : Remote.message());
  std::map<std::string, std::vector<double>> RemoteOut =
      Client.decryptOutputs(*Remote);

  // Direct in-process execution of the same program on the same sealed
  // inputs with the same (client-held) keys.
  CompiledProgram CP = compileServedProgram();
  Expected<std::shared_ptr<CkksWorkspace>> WS = CkksWorkspace::createServer(
      CP, Client.context(), Client.relinKeys(), Client.galoisKeys());
  ASSERT_TRUE(WS.ok()) << (WS.ok() ? "" : WS.message());
  CkksExecutor Direct(CP, WS.value(), {.Style = LocalStyle::KernelBulk});
  std::map<std::string, Ciphertext> DirectCt = Direct.run(Req->Inputs);
  std::map<std::string, std::vector<double>> DirectOut =
      Client.decryptOutputs(DirectCt);

  ASSERT_EQ(RemoteOut.size(), DirectOut.size());
  for (const auto &[Name, RV] : RemoteOut) {
    const std::vector<double> &DV = DirectOut.at(Name);
    ASSERT_EQ(RV.size(), DV.size());
    EXPECT_EQ(std::memcmp(RV.data(), DV.data(), RV.size() * sizeof(double)),
              0)
        << "service result for '" << Name
        << "' is not bit-identical to direct execution";
  }

  // And the result is actually the computed function, not an echo.
  for (size_t I = 0; I < 8; ++I) {
    const std::vector<double> &X = Inputs["x"];
    const std::vector<double> &W = Inputs["w"];
    double Want = X[I] * X[I] + X[(I + 1) % 8] + W[I];
    EXPECT_NEAR(RemoteOut.at("out")[I], Want, 1e-2) << "slot " << I;
  }
  EXPECT_TRUE(Client.closeSession().ok());
}

// The registry is the deployment boundary: a program that fails structural
// verification is refused at publish time, before compilation or context
// construction.
TEST(Service, PublishRefusesVerifierFailingProgram) {
  Service Svc;
  Program P(8, "hostile");
  Node *X = P.makeInput("x", ValueType::Cipher, 30);
  Node *C =
      P.makeConstant({std::numeric_limits<double>::quiet_NaN()}, 30);
  Node *M = P.makeInstruction(OpCode::Multiply, {X, C});
  P.makeOutput("out", M);
  Status S = Svc.registry().registerSource(P);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.message().find("failed verification"), std::string::npos)
      << S.message();
  EXPECT_NE(S.message().find("non-finite"), std::string::npos) << S.message();
  EXPECT_EQ(Svc.registry().size(), 0u);
}

// Lint warnings never block publication, but they surface in the signature
// clients fetch via LIST_PROGRAMS.
TEST(Service, PublishSurfacesLintWarningsInSignature) {
  Service Svc;
  ProgramBuilder B("warned", 8);
  Expr X = B.inputCipher("x", 30);
  B.inputCipher("never", 30); // unused: the lint pass must flag it
  B.output("out", X * X, 30);
  ASSERT_TRUE(Svc.registry().registerSource(B.program()).ok());
  std::vector<ParamSignature> Sigs = Svc.registry().signatures();
  ASSERT_EQ(Sigs.size(), 1u);
  bool SawUnusedInput = false;
  for (const std::string &W : Sigs[0].LintWarnings)
    SawUnusedInput |= W.find("[unused-input]") != std::string::npos &&
                      W.find("never") != std::string::npos;
  EXPECT_TRUE(SawUnusedInput) << "lint warnings missing from the signature";
  // And they survive the wire round-trip to the client.
  Expected<ParamSignature> Q =
      deserializeParamSignature(serializeParamSignature(Sigs[0]));
  ASSERT_TRUE(Q.ok());
  EXPECT_EQ(Q->LintWarnings, Sigs[0].LintWarnings);
}

TEST(Service, InProcessEndToEnd) {
  Service Svc;
  ASSERT_TRUE(Svc.registry().registerSource(*buildServedProgram()).ok());
  InProcessTransport T(Svc);
  runTenant(T, /*KeySeed=*/101, /*InputSeed=*/201);
  EXPECT_EQ(Svc.schedulerStats().Completed, 1u);
  EXPECT_EQ(Svc.schedulerStats().Failed, 0u);
}

/// A transport wrapper that records every request frame leaving the client.
class RecordingTransport : public Transport {
public:
  explicit RecordingTransport(Transport &Inner) : Inner(Inner) {}
  Expected<Frame> roundTrip(MessageType Type,
                            std::string_view Payload) override {
    {
      std::lock_guard<std::mutex> Lock(M);
      Sent.emplace_back(Type, std::string(Payload));
    }
    return Inner.roundTrip(Type, Payload);
  }
  std::vector<std::pair<MessageType, std::string>> sent() const {
    std::lock_guard<std::mutex> Lock(M);
    return Sent;
  }

private:
  Transport &Inner;
  mutable std::mutex M;
  std::vector<std::pair<MessageType, std::string>> Sent;
};

TEST(Service, SecretKeyNeverTransmitted) {
  Service Svc;
  ASSERT_TRUE(Svc.registry().registerSource(*buildServedProgram()).ok());
  InProcessTransport Inner(Svc);
  RecordingTransport T(Inner);

  ServiceClient Client(T);
  Expected<std::vector<ParamSignature>> Sigs = Client.listPrograms();
  ASSERT_TRUE(Sigs.ok());
  ASSERT_TRUE(Client.openSession((*Sigs)[0], 77).ok());
  Expected<std::map<std::string, std::vector<double>>> Out =
      Client.call(servedInputs(7));
  ASSERT_TRUE(Out.ok()) << (Out.ok() ? "" : Out.message());

  // Structural guarantee: the request path consists only of message types
  // the schema defines, and none of them has a secret-key field. Byte-level
  // guarantee: no frame contains the secret key's polynomial bytes (checked
  // against every serialization the client could produce).
  std::string SkPolyBytes = serializeRnsPoly(Client.secretKey().S);
  // The raw residues of the first component, without any wire framing.
  std::string SkRaw;
  for (uint64_t V : Client.secretKey().S.Comps[0])
    for (int B = 0; B < 8; ++B)
      SkRaw.push_back(static_cast<char>((V >> (8 * B)) & 0xFF));

  for (const auto &[Type, Payload] : T.sent()) {
    EXPECT_TRUE(Type == MessageType::ListPrograms ||
                Type == MessageType::OpenSession ||
                Type == MessageType::Execute ||
                Type == MessageType::CloseSession)
        << "unexpected request type " << messageTypeName(Type);
    EXPECT_EQ(Payload.find(SkPolyBytes), std::string::npos);
    EXPECT_EQ(Payload.find(SkRaw), std::string::npos);
  }
}

// The acceptance test: one evaserve-style socket server, two concurrent
// tenant sessions with different keys, each bit-identical to direct
// execution.
TEST(Service, TwoConcurrentTenantsOverLoopback) {
  Service Svc;
  ASSERT_TRUE(Svc.registry().registerSource(*buildServedProgram()).ok());
  ServiceServer Server(Svc);
  ASSERT_TRUE(Server.start(0).ok());
  ASSERT_NE(Server.port(), 0);

  std::thread T1([&] {
    Expected<std::unique_ptr<SocketTransport>> T =
        SocketTransport::connectLoopback(Server.port());
    ASSERT_TRUE(T.ok()) << (T.ok() ? "" : T.message());
    runTenant(**T, /*KeySeed=*/111, /*InputSeed=*/311);
  });
  std::thread T2([&] {
    Expected<std::unique_ptr<SocketTransport>> T =
        SocketTransport::connectLoopback(Server.port());
    ASSERT_TRUE(T.ok()) << (T.ok() ? "" : T.message());
    runTenant(**T, /*KeySeed=*/222, /*InputSeed=*/322);
  });
  T1.join();
  T2.join();

  SchedulerStats Stats = Svc.schedulerStats();
  EXPECT_EQ(Stats.Completed, 2u);
  EXPECT_EQ(Stats.Failed, 0u);
  EXPECT_EQ(Svc.activeSessionCount(), 0u) << "sessions should be closed";
  Server.stop();
}

// A frame is one sendmsg, header and payload together. Sent as two writes,
// a small frame's payload waited for the ACK of its header (Nagle), which
// the peer delays by ~40 ms: a loopback closeSession took 40-90 ms.
TEST(Service, LoopbackCloseSessionIsFast) {
  Service Svc;
  ASSERT_TRUE(Svc.registry().registerSource(*buildServedProgram()).ok());
  ServiceServer Server(Svc);
  ASSERT_TRUE(Server.start(0).ok());
  Expected<std::unique_ptr<SocketTransport>> T =
      SocketTransport::connectLoopback(Server.port());
  ASSERT_TRUE(T.ok()) << (T.ok() ? "" : T.message());
  ServiceClient Client(**T);
  Expected<std::vector<ParamSignature>> Sigs = Client.listPrograms();
  ASSERT_TRUE(Sigs.ok()) << (Sigs.ok() ? "" : Sigs.message());
  std::vector<double> Millis;
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    ASSERT_TRUE(Client.openSession((*Sigs)[0], Seed).ok());
    auto Start = std::chrono::steady_clock::now();
    ASSERT_TRUE(Client.closeSession().ok());
    Millis.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - Start)
                         .count());
  }
  std::sort(Millis.begin(), Millis.end());
  EXPECT_LT(Millis[2], 20.0) << "median loopback closeSession round trip";
  Server.stop();
}

//===----------------------------------------------------------------------===//
// Service robustness against hostile/malformed requests
//===----------------------------------------------------------------------===//

struct ServiceFixture {
  Service Svc;
  InProcessTransport T{Svc};
  ServiceFixture() {
    EXPECT_TRUE(Svc.registry().registerSource(*buildServedProgram()).ok());
  }
  /// Dispatches and expects an Error frame whose message contains \p Want.
  void expectError(MessageType Type, std::string_view Payload,
                   const std::string &Want) {
    std::pair<MessageType, std::string> R = Svc.dispatch(Type, Payload);
    ASSERT_EQ(R.first, MessageType::Error) << "expected error for " << Want;
    Expected<ErrorMsg> E = deserializeError(R.second);
    ASSERT_TRUE(E.ok());
    EXPECT_NE(E->Message.find(Want), std::string::npos)
        << "got: " << E->Message;
  }
  /// Refusals counted under \p Cause in eva_request_errors_total.
  uint64_t errors(const char *Cause) const {
    return Svc.metricsSnapshot().counterValue(
        labeledMetric("eva_request_errors_total", "cause", Cause));
  }
};

TEST(Service, RejectsUnknownProgramAndSession) {
  ServiceFixture F;
  OpenSessionMsg Open;
  Open.ProgramName = "no-such-program";
  F.expectError(MessageType::OpenSession, serializeOpenSession(Open),
                "unknown program");
  ExecuteMsg Exec;
  Exec.SessionId = 12345;
  F.expectError(MessageType::Execute, serializeExecute(Exec),
                "unknown session");
  F.expectError(MessageType::CloseSession,
                serializeCloseSession({777}), "unknown session");
}

TEST(Service, RejectsGarbagePayloads) {
  ServiceFixture F;
  std::string Junk(48, '\xfe');
  for (MessageType Type :
       {MessageType::OpenSession, MessageType::Execute,
        MessageType::CloseSession}) {
    std::pair<MessageType, std::string> R = F.Svc.dispatch(Type, Junk);
    EXPECT_EQ(R.first, MessageType::Error)
        << "garbage " << messageTypeName(Type) << " must yield an error";
  }
  // Response types arriving as requests are rejected too.
  std::pair<MessageType, std::string> R =
      F.Svc.dispatch(MessageType::ProgramList, "");
  EXPECT_EQ(R.first, MessageType::Error);
}

TEST(Service, RejectsSessionWithoutRequiredKeys) {
  ServiceFixture F;
  // No galois/relin keys at all: the program needs both.
  OpenSessionMsg Open;
  Open.ProgramName = "served";
  F.expectError(MessageType::OpenSession, serializeOpenSession(Open),
                "relin");
  EXPECT_EQ(F.errors("bad_keys"), 1u);
  EXPECT_EQ(F.errors("session_limit"), 0u);
}

TEST(Service, RejectsSessionMissingAPlannedGaloisStep) {
  ServiceFixture F;
  // A budgeted rotation-heavy program: its plan needs the power-of-two
  // basis steps, and a session whose uploaded keys withhold one of them
  // must be rejected at open, not crash mid-execution. Step 8 rotates only
  // the rescaled cube, so its key holds one prime less than the others.
  ProgramBuilder B("budgeted", 16);
  Expr X = B.inputCipher("x", 30);
  Expr Cube = X * X * X;
  B.output("out", ((X << 3) + (X << 7)) * X * X, 30);
  B.output("deep", (Cube << 11) + (Cube << 13), 30);
  CompilerOptions O;
  O.GaloisKeyBudget = 2;
  ASSERT_TRUE(F.Svc.registry().registerSource(B.program(), O).ok());
  std::shared_ptr<const RegisteredProgram> Prog =
      F.Svc.registry().find("budgeted");
  ASSERT_NE(Prog, nullptr);
  const ParamSignature &Sig = Prog->Signature;
  // The budget rewrote the four odd steps into the power-of-two basis.
  ASSERT_EQ(Sig.galoisKeyPrimes(),
            (std::map<uint64_t, size_t>{{1, 2}, {2, 2}, {4, 2}, {8, 1}}));

  Expected<std::shared_ptr<CkksContext>> Ctx =
      CkksContext::createFromBitSizes(Sig.PolyDegree, Sig.ContextBitSizes,
                                      Sig.Security);
  ASSERT_TRUE(Ctx.ok());
  KeyGenerator Gen(Ctx.value(), 99);
  OpenSessionMsg Open;
  Open.ProgramName = "budgeted";
  RelinKeys Rk = Gen.createRelinKeys();
  Open.RelinKeyBytes = serializeRelinKeys(Rk);

  // All basis steps but the largest: rejected with a precise message.
  std::set<uint64_t> Steps(Sig.RotationSteps.begin(), Sig.RotationSteps.end());
  std::set<uint64_t> Partial = Steps;
  Partial.erase(*Partial.rbegin());
  Open.GaloisKeyBytes = serializeGaloisKeys(Gen.createGaloisKeys(Partial));
  F.expectError(MessageType::OpenSession, serializeOpenSession(Open),
                "missing galois key");
  EXPECT_EQ(F.errors("bad_keys"), 1u);

  // Every step present, but step 1's key cut below the level it rotates
  // at: rejected naming the step, before any rotation could read past it.
  std::map<uint64_t, size_t> Short = Sig.galoisKeyPrimes();
  Short[1] = 1;
  Open.GaloisKeyBytes =
      serializeGaloisKeys(Gen.createGaloisKeysAtLevels(Short));
  F.expectError(MessageType::OpenSession, serializeOpenSession(Open),
                "galois key for rotation step 1 has 1 digits");
  EXPECT_EQ(F.errors("bad_keys"), 2u);
  EXPECT_EQ(F.errors("session_limit"), 0u);

  // The session pins the program's key shape, whichever the client sent:
  // relin at 2 primes, three Galois keys at 2 and one at 1.
  const int64_t N = static_cast<int64_t>(Sig.PolyDegree);
  auto KeyBytes = [N](int64_t L) { return 2 * L * (L + 1) * N * 8; };
  const int64_t Pinned = KeyBytes(2) + 3 * KeyBytes(2) + KeyBytes(1);
  auto PinnedNow = [&F] {
    return F.Svc.metricsSnapshot().gauge("eva_pinned_key_bytes")->Value;
  };
  // Full keys, as a client that predates per-step levels sends them, and
  // one for a step the program does not name: the server trims step 8's
  // key and drops step 3's.
  std::set<uint64_t> Extra = Steps;
  Extra.insert(3);
  Open.GaloisKeyBytes = serializeGaloisKeys(Gen.createGaloisKeys(Extra));
  std::pair<MessageType, std::string> R =
      F.Svc.dispatch(MessageType::OpenSession, serializeOpenSession(Open));
  EXPECT_EQ(R.first, MessageType::SessionOpened);
  EXPECT_EQ(PinnedNow(), Pinned);
  // Keys at the signature's levels, as ServiceClient builds them.
  Open.GaloisKeyBytes =
      serializeGaloisKeys(Gen.createGaloisKeysAtLevels(Sig.galoisKeyPrimes()));
  R = F.Svc.dispatch(MessageType::OpenSession, serializeOpenSession(Open));
  EXPECT_EQ(R.first, MessageType::SessionOpened);
  EXPECT_EQ(PinnedNow(), 2 * Pinned);
  EXPECT_EQ(F.errors("bad_keys"), 2u);
}

TEST(Service, RejectsMalformedAndMismatchedRequests) {
  ServiceFixture F;
  ServiceClient Client(F.T);
  Expected<std::vector<ParamSignature>> Sigs = Client.listPrograms();
  ASSERT_TRUE(Sigs.ok());
  ASSERT_TRUE(Client.openSession((*Sigs)[0], 55).ok());
  uint64_t Sid = Client.sessionId();

  // Garbage ciphertext bytes.
  ExecuteMsg Exec;
  Exec.SessionId = Sid;
  Exec.CipherInputs = {{"x", "garbage bytes"}};
  Exec.PlainInputs = {{"w", {1, 2, 3, 4, 5, 6, 7, 8}}};
  F.expectError(MessageType::Execute, serializeExecute(Exec), "cipher input");

  // Missing inputs.
  ExecuteMsg Empty;
  Empty.SessionId = Sid;
  F.expectError(MessageType::Execute, serializeExecute(Empty), "missing");

  // Well-formed ciphertext at the wrong scale.
  Expected<SealedRequest> Req = Client.encryptInputs(servedInputs(5));
  ASSERT_TRUE(Req.ok());
  Ciphertext Wrong = Req->Inputs.Cipher.at("x");
  Wrong.Scale *= 2;
  ExecuteMsg BadScale;
  BadScale.SessionId = Sid;
  BadScale.CipherInputs = {{"x", serializeCiphertext(Wrong)}};
  BadScale.PlainInputs = {{"w", Req->Inputs.Plain.at("w")}};
  F.expectError(MessageType::Execute, serializeExecute(BadScale), "scale");

  // Non-finite plain values would hit undefined float->integer rounding in
  // the server-side encoder.
  ExecuteMsg BadPlain;
  BadPlain.SessionId = Sid;
  BadPlain.CipherInputs = {
      {"x", serializeCiphertext(Req->Inputs.Cipher.at("x"))}};
  BadPlain.PlainInputs = {
      {"w", {1.0, std::numeric_limits<double>::infinity(), 3, 4, 5, 6, 7, 8}}};
  F.expectError(MessageType::Execute, serializeExecute(BadPlain),
                "non-finite");

  // The same name as both a ciphertext and a plain vector must be rejected,
  // not silently collapsed to one of the two.
  ExecuteMsg Both;
  Both.SessionId = Sid;
  Both.CipherInputs = {
      {"x", serializeCiphertext(Req->Inputs.Cipher.at("x"))}};
  Both.PlainInputs = {{"x", {1, 2, 3, 4}},
                      {"w", Req->Inputs.Plain.at("w")}};
  F.expectError(MessageType::Execute, serializeExecute(Both),
                "both ciphertext and plain");

  // Undeclared extra input.
  ExecuteMsg Extra;
  Extra.SessionId = Sid;
  Extra.CipherInputs = {
      {"x", serializeCiphertext(Req->Inputs.Cipher.at("x"))},
      {"y", serializeCiphertext(Req->Inputs.Cipher.at("x"))}};
  Extra.PlainInputs = {{"w", Req->Inputs.Plain.at("w")}};
  F.expectError(MessageType::Execute, serializeExecute(Extra),
                "is not an input");

  // A cipher input sent as plain values: the server holds no key to
  // encrypt it with.
  ExecuteMsg PlainCipher;
  PlainCipher.SessionId = Sid;
  PlainCipher.PlainInputs = {{"x", servedInputs(5).at("x")},
                             {"w", Req->Inputs.Plain.at("w")}};
  F.expectError(MessageType::Execute, serializeExecute(PlainCipher),
                "arrived as plain");

  // Every refusal above happened before admission: none took a slot in
  // the gate or counts as executed.
  EXPECT_EQ(F.errors("bad_input"), 7u);
  EXPECT_EQ(F.errors("execute_failed"), 0u);
  SchedulerStats Refused = F.Svc.schedulerStats();
  EXPECT_EQ(Refused.Submitted, 0u);
  EXPECT_EQ(Refused.Completed, 0u);
  EXPECT_EQ(Refused.Failed, 0u);

  // The session survives all of the above abuse and still works.
  Expected<std::map<std::string, std::vector<double>>> Out =
      Client.call(servedInputs(6));
  EXPECT_TRUE(Out.ok()) << (Out.ok() ? "" : Out.message());
  EXPECT_EQ(F.Svc.schedulerStats().Submitted, 1u);
  EXPECT_EQ(F.Svc.schedulerStats().Completed, 1u);
}

// The client seals through the same routine as the runners, so a malformed
// input comes back as validateInputs' diagnostic before anything is
// encoded: the encoder's own size checks are asserts.
TEST(Service, EncryptInputsDiagnosesMalformedValues) {
  ServiceFixture F;
  ServiceClient Client(F.T);
  Expected<std::vector<ParamSignature>> Sigs = Client.listPrograms();
  ASSERT_TRUE(Sigs.ok());
  ASSERT_TRUE(Client.openSession((*Sigs)[0], 57).ok());

  std::vector<double> TooLong(16, 0.5), WithNaN(8, 0.5);
  WithNaN[3] = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<std::vector<double>, std::string>> Cases = {
      {{}, "input 'x' is empty"},
      {{1, 2, 3}, "input 'x': length 3 does not divide vec_size 8"},
      {TooLong, "input 'x': length 16 exceeds vec_size 8"},
      {WithNaN, "input 'x': non-finite value at slot 3"}};
  for (const auto &[X, Want] : Cases) {
    std::map<std::string, std::vector<double>> In = servedInputs(5);
    In["x"] = X;
    Expected<SealedRequest> Req = Client.encryptInputs(In);
    ASSERT_FALSE(Req.ok()) << "accepted an input that should fail: " << Want;
    EXPECT_NE(Req.message().find(Want), std::string::npos) << Req.message();
  }
  // The session is unharmed and nothing reached the server.
  EXPECT_TRUE(Client.encryptInputs(servedInputs(5)).ok());
  EXPECT_EQ(F.Svc.schedulerStats().Submitted, 0u);
}

// Requests of one session may overlap: each runs its own one-thread executor
// over the session's read-only keys and encoder. The expected outputs come
// from the kernel schedule, so two independent schedulers agree.
TEST(Service, ConcurrentRequestsOnOneSessionAreBitIdentical) {
  ServiceFixture F;
  ServiceClient Client(F.T);
  Expected<std::vector<ParamSignature>> Sigs = Client.listPrograms();
  ASSERT_TRUE(Sigs.ok());
  ASSERT_TRUE(Client.openSession((*Sigs)[0], 71).ok());

  CompiledProgram CP = compileServedProgram();
  Expected<std::shared_ptr<CkksWorkspace>> WS = CkksWorkspace::createServer(
      CP, Client.context(), Client.relinKeys(), Client.galoisKeys());
  ASSERT_TRUE(WS.ok()) << (WS.ok() ? "" : WS.message());
  CkksExecutor Direct(CP, WS.value(), {.Style = LocalStyle::KernelBulk});

  constexpr size_t Threads = 2, Rounds = 3;
  std::vector<std::string> Payloads;
  std::vector<Ciphertext> Want;
  for (size_t T = 0; T < Threads; ++T) {
    Expected<SealedRequest> Req = Client.encryptInputs(servedInputs(40 + T));
    ASSERT_TRUE(Req.ok());
    Payloads.push_back(
        serializeExecute(executeMsgOf(*Req, Client.sessionId())));
    Want.push_back(Direct.run(Req->Inputs).at("out"));
  }

  std::latch Start(Threads);
  std::vector<std::thread> Senders;
  for (size_t T = 0; T < Threads; ++T)
    Senders.emplace_back([&, T] {
      Start.arrive_and_wait();
      for (size_t R = 0; R < Rounds; ++R) {
        std::pair<MessageType, std::string> Resp =
            F.Svc.dispatch(MessageType::Execute, Payloads[T]);
        ASSERT_EQ(Resp.first, MessageType::ExecuteResult);
        Expected<ExecuteResultMsg> Res = deserializeExecuteResult(Resp.second);
        ASSERT_TRUE(Res.ok());
        ASSERT_EQ(Res->Outputs.size(), 1u);
        Expected<Ciphertext> Ct =
            deserializeCiphertext(*Client.context(), Res->Outputs[0].second);
        ASSERT_TRUE(Ct.ok());
        EXPECT_TRUE(ciphertextsEqual(*Ct, Want[T]))
            << "request " << T << " round " << R
            << " is not bit-identical to direct execution";
      }
    });
  for (std::thread &S : Senders)
    S.join();
  EXPECT_EQ(F.Svc.schedulerStats().Completed, Threads * Rounds);
}

TEST(Service, SessionsAreIsolated) {
  ServiceFixture F;
  ServiceClient A(F.T), B(F.T);
  Expected<std::vector<ParamSignature>> Sigs = A.listPrograms();
  ASSERT_TRUE(Sigs.ok());
  ASSERT_TRUE(A.openSession((*Sigs)[0], 1001).ok());
  ASSERT_TRUE(B.openSession((*Sigs)[0], 2002).ok());
  EXPECT_NE(A.sessionId(), B.sessionId());
  EXPECT_EQ(F.Svc.activeSessionCount(), 2u);

  // A ciphertext encrypted under A's keys submitted on B's session is
  // well-formed wire-wise, so the server executes it — but the result is
  // garbage under B's key, and NOT a valid result under either key. The
  // tenants' keys do not mix.
  Expected<SealedRequest> ReqA = A.encryptInputs(servedInputs(9));
  ASSERT_TRUE(ReqA.ok());
  std::pair<MessageType, std::string> R =
      F.Svc.dispatch(MessageType::Execute,
                     serializeExecute(executeMsgOf(*ReqA, B.sessionId())));
  ASSERT_EQ(R.first, MessageType::ExecuteResult);
  Expected<ExecuteResultMsg> Res = deserializeExecuteResult(R.second);
  ASSERT_TRUE(Res.ok());
  Expected<Ciphertext> CrossCt =
      deserializeCiphertext(*B.context(), Res->Outputs[0].second);
  ASSERT_TRUE(CrossCt.ok());
  std::map<std::string, Ciphertext> CrossOut;
  CrossOut.emplace("out", std::move(*CrossCt));
  std::vector<double> Decrypted = A.decryptOutputs(CrossOut).at("out");
  std::map<std::string, std::vector<double>> In = servedInputs(9);
  const std::vector<double> &X = In.at("x");
  const std::vector<double> &W = In.at("w");
  double Err = 0;
  for (size_t I = 0; I < 8; ++I)
    Err = std::max(Err,
                   std::abs(Decrypted[I] -
                            (X[I] * X[I] + X[(I + 1) % 8] + W[I])));
  EXPECT_GT(Err, 1.0) << "cross-tenant execution must not decrypt correctly";
}

TEST(Service, SessionLimitRejectsFloods) {
  ServiceConfig Config;
  Config.MaxSessions = 2;
  Service Svc(Config);
  ASSERT_TRUE(Svc.registry().registerSource(*buildServedProgram()).ok());
  InProcessTransport T(Svc);
  ServiceClient A(T), B(T), C(T);
  Expected<std::vector<ParamSignature>> Sigs = A.listPrograms();
  ASSERT_TRUE(Sigs.ok());
  ASSERT_TRUE(A.openSession((*Sigs)[0], 1).ok());
  ASSERT_TRUE(B.openSession((*Sigs)[0], 2).ok());
  Status S = C.openSession((*Sigs)[0], 3);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.message().find("session limit"), std::string::npos);
  // Closing one frees a slot.
  ASSERT_TRUE(A.closeSession().ok());
  EXPECT_TRUE(C.openSession((*Sigs)[0], 3).ok());
}

TEST(Service, SchedulerBackpressureRejectsWhenQueueFull) {
  // An idle gate admits a request even when no request may wait.
  {
    ServiceConfig Config;
    Config.MaxQueueDepth = 0;
    Service Svc(Config);
    ASSERT_TRUE(Svc.registry().registerSource(*buildServedProgram()).ok());
    InProcessTransport T(Svc);
    ServiceClient Client(T);
    Expected<std::vector<ParamSignature>> Sigs = Client.listPrograms();
    ASSERT_TRUE(Sigs.ok());
    ASSERT_TRUE(Client.openSession((*Sigs)[0], 31).ok());
    Expected<std::map<std::string, std::vector<double>>> Out =
        Client.call(servedInputs(1));
    ASSERT_TRUE(Out.ok()) << (Out.ok() ? "" : Out.message());
    EXPECT_EQ(Svc.schedulerStats().Rejected, 0u);
  }

  // One slot and room for one waiter: hold the slot, queue a request
  // behind it, and the next one is refused.
  using Result = RequestScheduler::Result;
  MetricsRegistry Metrics;
  RequestScheduler Gate(/*MaxQueueDepth=*/1, &Metrics, /*MaxRunning=*/1);
  auto Empty = [] { return Result(std::map<std::string, Ciphertext>{}); };
  auto WaitUntil = [&](bool (*Pred)(const SchedulerStats &)) {
    while (!Pred(Gate.stats()))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  std::promise<void> Release;
  std::shared_future<void> Released = Release.get_future().share();
  std::thread Holder([&] {
    Expected<Result> R = Gate.run([&] {
      Released.wait();
      return Empty();
    });
    EXPECT_TRUE(R.ok() && R->ok());
  });
  WaitUntil([](const SchedulerStats &S) { return S.Batches == 1; });
  std::thread Waiter([&] {
    Expected<Result> R = Gate.run(Empty);
    EXPECT_TRUE(R.ok() && R->ok());
  });
  WaitUntil([](const SchedulerStats &S) { return S.Submitted == 2; });
  ASSERT_NE(Metrics.snapshot().gauge("eva_queue_depth"), nullptr);
  EXPECT_EQ(Metrics.snapshot().gauge("eva_queue_depth")->Value, 1);

  Expected<Result> Refused = Gate.run(Empty);
  ASSERT_FALSE(Refused.ok());
  EXPECT_NE(Refused.message().find("queue full"), std::string::npos);
  Release.set_value();
  Holder.join();
  Waiter.join();

  // A request whose execution throws fails on its own and frees its slot.
  Expected<Result> Threw =
      Gate.run([]() -> Result { throw std::runtime_error("boom"); });
  ASSERT_TRUE(Threw.ok());
  ASSERT_FALSE(Threw->ok());
  EXPECT_NE(Threw->message().find("boom"), std::string::npos);

  SchedulerStats Stats = Gate.stats();
  EXPECT_EQ(Stats.Submitted, 3u);
  EXPECT_EQ(Stats.Batches, 3u);
  EXPECT_EQ(Stats.Completed, 2u);
  EXPECT_EQ(Stats.Failed, 1u);
  EXPECT_EQ(Stats.Rejected, 1u);
  MetricsSnapshot Snap = Metrics.snapshot();
  EXPECT_EQ(Snap.counterValue("eva_scheduler_submitted_total"), 3u);
  EXPECT_EQ(Snap.counterValue("eva_scheduler_rejected_total"), 1u);
  EXPECT_EQ(Snap.gauge("eva_queue_depth")->Value, 0);
  ASSERT_NE(Snap.histogram("eva_request_queue_seconds"), nullptr);
  EXPECT_EQ(Snap.histogram("eva_request_queue_seconds")->Count, 3u);
}

/// Threads of this process, read from /proc/self/task.
size_t liveThreads() {
  size_t N = 0;
  for ([[maybe_unused]] const auto &Task :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++N;
  return N;
}

/// Waits up to 2 s for the thread count to reach \p Want and returns it: a
/// thread can linger in /proc/self/task for a moment after it was joined
/// (the client's key generation runs on a transient pool).
size_t settledThreads(size_t Want) {
  for (int I = 0; I < 200 && liveThreads() != Want; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  return liveThreads();
}

// Requests execute on the thread that received them: a Service starts no
// thread, and a loopback server with k connections runs one acceptor plus
// k connection threads however many sessions are open.
TEST(Service, ThreadCountDoesNotDependOnSessions) {
  size_t Base = liveThreads();
  for (int I = 0; I < 20; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Base = std::min(Base, liveThreads());
  }
  Service Svc;
  ASSERT_TRUE(Svc.registry().registerSource(*buildServedProgram()).ok());
  EXPECT_EQ(settledThreads(Base), Base) << "the service started threads";

  ServiceServer Server(Svc);
  ASSERT_TRUE(Server.start(0).ok());
  const size_t Connections = 2;
  std::vector<std::unique_ptr<SocketTransport>> Conns;
  for (size_t C = 0; C < Connections; ++C) {
    Expected<std::unique_ptr<SocketTransport>> T =
        SocketTransport::connectLoopback(Server.port());
    ASSERT_TRUE(T.ok()) << (T.ok() ? "" : T.message());
    Conns.push_back(std::move(*T));
  }
  Expected<std::vector<ParamSignature>> Sigs =
      ServiceClient(*Conns[0]).listPrograms();
  ASSERT_TRUE(Sigs.ok());
  // A round trip on every connection: each has its thread by now.
  for (const std::unique_ptr<SocketTransport> &C : Conns)
    ASSERT_TRUE(ServiceClient(*C).listPrograms().ok());

  std::vector<std::unique_ptr<ServiceClient>> Clients;
  for (size_t Open : {1u, 16u}) {
    while (Clients.size() < Open) {
      Transport &Conn = *Conns[Clients.size() % Connections];
      Clients.push_back(std::make_unique<ServiceClient>(Conn));
      ASSERT_TRUE(
          Clients.back()->openSession((*Sigs)[0], 600 + Clients.size()).ok());
    }
    for (const std::unique_ptr<ServiceClient> &C : Clients) {
      Expected<std::map<std::string, std::vector<double>>> Out =
          C->call(servedInputs(8));
      ASSERT_TRUE(Out.ok()) << (Out.ok() ? "" : Out.message());
    }
    EXPECT_EQ(Svc.activeSessionCount(), Open);
    EXPECT_EQ(settledThreads(Base + 1 + Connections), Base + 1 + Connections)
        << "with " << Open << " sessions open";
  }
  Server.stop();
}

} // namespace
