//===- TelemetryTest.cpp - Observability layer tests ---------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the fleet observability layer end to end:
///  * MetricsRegistry instruments — histogram bucketing and percentile
///    extraction against a brute-force reference, concurrent-writer
///    consistency (the TSan lane runs this suite), snapshot isolation.
///  * The metrics wire pair (GET_METRICS/METRICS serialization) and the
///    Prometheus text exposition.
///  * The transcript-hash audit log: line format round-trip, hash
///    properties, and a full replay — one audited request re-executed
///    locally under ReproducibleSeeds must reproduce both wire hashes
///    bit-for-bit, and a tampered hash must be detected.
///  * Service-level wiring: request counters, span histograms, request
///    ids, error-cause counters, and gauges as seen by a scraping client.
///
//===----------------------------------------------------------------------===//

#include "eva/frontend/Expr.h"
#include "eva/service/Audit.h"
#include "eva/service/Client.h"
#include "eva/support/Random.h"
#include "eva/support/SignalPipe.h"
#include "eva/support/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <thread>
#include <unistd.h>

using namespace eva;

namespace {

//===----------------------------------------------------------------------===//
// Instruments
//===----------------------------------------------------------------------===//

TEST(Telemetry, CounterAndGaugeBasics) {
  MetricsRegistry Reg;
  Reg.counter("c").add();
  Reg.counter("c").add(41);
  Reg.gauge("g").set(7);
  Reg.gauge("g").add(5);
  Reg.gauge("g").sub(20); // gauges go negative; counters never do
  MetricsSnapshot Snap = Reg.snapshot();
  EXPECT_EQ(Snap.counterValue("c"), 42u);
  ASSERT_NE(Snap.gauge("g"), nullptr);
  EXPECT_EQ(Snap.gauge("g")->Value, -8);
  EXPECT_EQ(Snap.counter("absent"), nullptr);
  // Re-registration returns the same instrument, not a fresh zero.
  Reg.counter("c").add();
  EXPECT_EQ(Reg.snapshot().counterValue("c"), 43u);
}

TEST(Telemetry, HistogramMatchesBruteForceReference) {
  MetricsRegistry Reg;
  std::vector<double> Bounds;
  for (int I = 1; I <= 10; ++I)
    Bounds.push_back(0.1 * I);
  Histogram &H = Reg.histogram("h", Bounds);

  const size_t N = 10000;
  RandomSource Rng(1234);
  std::vector<double> Samples(N);
  for (double &S : Samples)
    S = Rng.uniformReal(0.0, 1.05); // some land in the +Inf bucket
  for (double S : Samples)
    H.observe(S);

  MetricsSnapshot Snap = Reg.snapshot();
  const HistogramSnapshot *HS = Snap.histogram("h");
  ASSERT_NE(HS, nullptr);
  EXPECT_EQ(HS->Count, N);

  // Bucket-by-bucket against manual assignment.
  std::vector<uint64_t> Want(Bounds.size() + 1, 0);
  double WantSum = 0;
  for (double S : Samples) {
    size_t B = std::lower_bound(Bounds.begin(), Bounds.end(), S) -
               Bounds.begin();
    ++Want[B];
    WantSum += S;
  }
  ASSERT_EQ(HS->Buckets.size(), Want.size());
  for (size_t B = 0; B < Want.size(); ++B)
    EXPECT_EQ(HS->Buckets[B], Want[B]) << "bucket " << B;
  EXPECT_NEAR(HS->Sum, WantSum, 1e-6 * WantSum);
  EXPECT_NEAR(HS->mean(), WantSum / N, 1e-9);

  // Percentiles against the sorted samples, to within the resolution of
  // the answering bucket (the documented contract of quantile()).
  std::sort(Samples.begin(), Samples.end());
  for (double Q : {0.5, 0.95, 0.99}) {
    double Exact = Samples[std::min(N - 1, static_cast<size_t>(Q * N))];
    EXPECT_NEAR(HS->quantile(Q), Exact, HS->bucketWidthAt(Q) + 1e-12)
        << "quantile " << Q;
  }
  // The +Inf bucket clamps to the last finite bound.
  EXPECT_LE(HS->quantile(1.0), Bounds.back() + 1e-12);
}

TEST(Telemetry, ConcurrentWritersLoseNothing) {
  MetricsRegistry Reg;
  Counter &C = Reg.counter("hits");
  Histogram &H = Reg.latencyHistogram("lat");
  Gauge &G = Reg.gauge("depth");

  const size_t Threads = 8, PerThread = 20000;
  std::vector<std::thread> Pool;
  for (size_t T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (size_t I = 0; I < PerThread; ++I) {
        C.add();
        // Multiples of 0.25: exact in binary, so the concurrent CAS-added
        // sum is order-independent and exactly checkable.
        H.observe(0.25 * static_cast<double>((T + I) % 8));
        G.add(1);
        G.sub(1);
      }
    });
  for (std::thread &T : Pool)
    T.join();

  MetricsSnapshot Snap = Reg.snapshot();
  EXPECT_EQ(Snap.counterValue("hits"), Threads * PerThread);
  const HistogramSnapshot *HS = Snap.histogram("lat");
  ASSERT_NE(HS, nullptr);
  EXPECT_EQ(HS->Count, Threads * PerThread);
  uint64_t BucketTotal = 0;
  for (uint64_t B : HS->Buckets)
    BucketTotal += B;
  EXPECT_EQ(BucketTotal, Threads * PerThread);
  double WantSum = 0;
  for (size_t T = 0; T < Threads; ++T)
    for (size_t I = 0; I < PerThread; ++I)
      WantSum += 0.25 * static_cast<double>((T + I) % 8);
  EXPECT_EQ(HS->Sum, WantSum);
  EXPECT_EQ(Snap.gauge("depth")->Value, 0);
}

TEST(Telemetry, SnapshotIsIsolatedFromLaterWrites) {
  MetricsRegistry Reg;
  Reg.counter("c").add(5);
  Reg.latencyHistogram("h").observe(0.001);
  MetricsSnapshot Before = Reg.snapshot();
  Reg.counter("c").add(100);
  Reg.latencyHistogram("h").observe(1.0);
  EXPECT_EQ(Before.counterValue("c"), 5u);
  EXPECT_EQ(Before.histogram("h")->Count, 1u);
  EXPECT_EQ(Reg.snapshot().counterValue("c"), 105u);
}

TEST(Telemetry, LabeledMetricEscapesHostileValues) {
  EXPECT_EQ(labeledMetric("eva_requests_total", "program", "dot3"),
            "eva_requests_total{program=\"dot3\"}");
  std::string Hostile = labeledMetric("m", "k", "a\"b\\c\nd");
  EXPECT_EQ(Hostile.find('\n'), std::string::npos);
  EXPECT_NE(Hostile.find("\\\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Wire round-trip and text exposition
//===----------------------------------------------------------------------===//

TEST(Telemetry, MetricsWireRoundTrip) {
  MetricsRegistry Reg;
  Reg.counter("eva_requests_total").add(17);
  Reg.counter(labeledMetric("eva_requests_total", "program", "dot3")).add(17);
  Reg.gauge("eva_queue_depth").set(-3); // negative survives two's complement
  Histogram &H = Reg.latencyHistogram("eva_request_seconds");
  H.observe(0.0004);
  H.observe(0.03);
  H.observe(99.0);
  MetricsSnapshot A = Reg.snapshot();

  Expected<MetricsSnapshot> B = deserializeMetrics(serializeMetrics(A));
  ASSERT_TRUE(B.ok()) << (B.ok() ? "" : B.message());
  ASSERT_EQ(B->Counters.size(), A.Counters.size());
  for (size_t I = 0; I < A.Counters.size(); ++I) {
    EXPECT_EQ(B->Counters[I].Name, A.Counters[I].Name);
    EXPECT_EQ(B->Counters[I].Value, A.Counters[I].Value);
  }
  ASSERT_EQ(B->Gauges.size(), 1u);
  EXPECT_EQ(B->Gauges[0].Value, -3);
  ASSERT_EQ(B->Histograms.size(), 1u);
  EXPECT_EQ(B->Histograms[0].UpperBounds, A.Histograms[0].UpperBounds);
  EXPECT_EQ(B->Histograms[0].Buckets, A.Histograms[0].Buckets);
  EXPECT_EQ(B->Histograms[0].Count, 3u);
  EXPECT_EQ(B->Histograms[0].Sum, A.Histograms[0].Sum);
  // The deserialized snapshot answers quantile queries like the original.
  EXPECT_EQ(B->Histograms[0].quantile(0.5), A.Histograms[0].quantile(0.5));

  EXPECT_FALSE(deserializeMetrics(std::string(64, '\xff')).ok());
}

TEST(Telemetry, RenderTextExposition) {
  MetricsRegistry Reg;
  Reg.counter("eva_requests_total").add(2);
  Reg.counter(labeledMetric("eva_requests_total", "program", "dot3")).add(2);
  Reg.gauge("eva_queue_depth").set(4);
  Reg.latencyHistogram("eva_request_seconds").observe(0.02);
  std::string Text = Reg.snapshot().renderText();

  EXPECT_NE(Text.find("# TYPE eva_requests_total counter"),
            std::string::npos);
  EXPECT_NE(Text.find("# TYPE eva_queue_depth gauge"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE eva_request_seconds histogram"),
            std::string::npos);
  EXPECT_NE(Text.find("eva_requests_total 2"), std::string::npos);
  EXPECT_NE(Text.find("eva_requests_total{program=\"dot3\"} 2"),
            std::string::npos);
  EXPECT_NE(Text.find("eva_request_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(Text.find("eva_request_seconds_count 1"), std::string::npos);
  EXPECT_NE(Text.find("eva_request_seconds_sum"), std::string::npos);
  // One TYPE line per family: the bare and labeled counters share one.
  size_t First = Text.find("# TYPE eva_requests_total");
  EXPECT_EQ(Text.find("# TYPE eva_requests_total", First + 1),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Audit log
//===----------------------------------------------------------------------===//

TEST(Audit, LineFormatRoundTrip) {
  AuditRecord R;
  R.RequestId = 42;
  R.SessionId = 7;
  R.Program = "dot3";
  R.InputsHash = 0x9e107d9d372bb682ull;
  R.OutputsHash = 0x00000000000000ffull; // leading zeros must survive
  R.DecodeUs = 812;
  R.QueueUs = 130;
  R.ExecuteUs = 20412;
  R.EncodeUs = 660;
  R.TotalUs = 22104;

  std::string Line = formatAuditLine(R);
  EXPECT_NE(Line.find("req=42"), std::string::npos);
  EXPECT_NE(Line.find("inputs=9e107d9d372bb682"), std::string::npos);
  EXPECT_NE(Line.find("outputs=00000000000000ff"), std::string::npos);
  EXPECT_EQ(Line.find('\n'), std::string::npos);

  Expected<AuditRecord> Q = parseAuditLine(Line);
  ASSERT_TRUE(Q.ok()) << (Q.ok() ? "" : Q.message());
  EXPECT_EQ(Q->RequestId, R.RequestId);
  EXPECT_EQ(Q->SessionId, R.SessionId);
  EXPECT_EQ(Q->Program, R.Program);
  EXPECT_EQ(Q->InputsHash, R.InputsHash);
  EXPECT_EQ(Q->OutputsHash, R.OutputsHash);
  EXPECT_EQ(Q->ExecuteUs, R.ExecuteUs);
  EXPECT_EQ(Q->TotalUs, R.TotalUs);

  // Unknown keys are forward-compatible noise; missing required keys fail.
  EXPECT_TRUE(parseAuditLine(Line + " future_key=1").ok());
  EXPECT_FALSE(parseAuditLine("req=1 program=x inputs=00").ok())
      << "outputs missing";
  EXPECT_FALSE(parseAuditLine("").ok());
}

TEST(Audit, InputHashIsOrderIndependentButByteSensitive) {
  std::vector<std::pair<std::string, std::string>> Ct = {
      {"a", "payloadA"}, {"b", "payloadB"}};
  std::vector<std::pair<std::string, std::vector<double>>> Pt = {
      {"w", {1.0, 2.0}}};
  uint64_t H1 = auditHashInputs(Ct, Pt);

  // Wire arrival order must not matter (the server hashes name-sorted).
  std::swap(Ct[0], Ct[1]);
  EXPECT_EQ(auditHashInputs(Ct, Pt), H1);

  // A single flipped payload byte must.
  Ct[0].second[0] ^= 1;
  EXPECT_NE(auditHashInputs(Ct, Pt), H1);
  Ct[0].second[0] ^= 1;

  // Domain separation: a plain input named like a cipher input differs.
  uint64_t HCipherOnly = auditHashInputs(Ct, {});
  std::vector<std::pair<std::string, std::vector<double>>> Collide = {
      {"a", {}}, {"b", {}}};
  EXPECT_NE(auditHashInputs({}, Collide), HCipherOnly);
}

TEST(Audit, EnabledIsSafeAgainstConcurrentOpenAndAppend) {
  // Regression test: enabled() used to read the sink pointer without the
  // lock, racing a concurrent open() — benign-looking on x86, a genuine
  // data race under the memory model (the TSan lane flags the old code).
  std::string Path =
      "/tmp/eva_audit_race_" + std::to_string(::getpid()) + ".log";
  std::remove(Path.c_str());
  {
    AuditLog Log;
    std::atomic<bool> Stop{false};
    std::atomic<uint64_t> EnabledSeen{0};
    std::thread Reader([&] {
      while (!Stop.load()) {
        if (Log.enabled())
          EnabledSeen.fetch_add(1);
      }
    });
    std::thread Writer([&] {
      AuditRecord R;
      R.RequestId = 7;
      R.Program = "race";
      R.InputsHash = 1;
      R.OutputsHash = 2;
      for (int I = 0; I < 200; ++I)
        Log.append(R); // silently dropped until the sink opens
    });
    EXPECT_TRUE(Log.open(Path).ok());
    // A second open must fail cleanly while the readers are still spinning.
    EXPECT_FALSE(Log.open(Path).ok());
    Writer.join();
    // After open() returned, every enabled() probe must say true.
    EXPECT_TRUE(Log.enabled());
    Stop = true;
    Reader.join();
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::string Line;
  size_t Lines = 0;
  while (std::getline(In, Line)) {
    ++Lines;
    Expected<AuditRecord> Rec = parseAuditLine(Line);
    ASSERT_TRUE(Rec.ok()) << Line;
    EXPECT_EQ(Rec->Program, "race");
  }
  // Appends before open() are dropped by design; whatever landed after the
  // sink attached must have been written whole (no interleaved lines).
  (void)Lines;
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Service end to end
//===----------------------------------------------------------------------===//

std::unique_ptr<Program> buildServedProgram() {
  ProgramBuilder B("served", 8);
  Expr X = B.inputCipher("x", 30);
  Expr W = B.inputPlain("w", 20);
  Expr Y = (X * X) + (X << 1) + W;
  B.output("out", Y, 30);
  return B.take();
}

std::map<std::string, std::vector<double>> servedInputs(uint64_t Seed) {
  RandomSource Rng(Seed);
  std::map<std::string, std::vector<double>> In;
  for (const char *Name : {"x", "w"}) {
    std::vector<double> V(8);
    for (double &X : V)
      X = Rng.uniformReal(-1, 1);
    In[Name] = std::move(V);
  }
  return In;
}

TEST(Audit, ReplayReproducesTranscriptAndDetectsTampering) {
  std::string Path =
      "/tmp/eva_audit_test_" + std::to_string(::getpid()) + ".log";
  std::remove(Path.c_str());

  const uint64_t KeySeed = 101;
  std::map<std::string, std::vector<double>> Inputs = servedInputs(55);
  {
    ServiceConfig Config;
    Config.AuditLog = Path;
    Service Svc(Config);
    ASSERT_TRUE(Svc.registry().registerSource(*buildServedProgram()).ok());
    InProcessTransport T(Svc);
    ServiceClient Client(T);
    Expected<std::vector<ParamSignature>> Sigs = Client.listPrograms();
    ASSERT_TRUE(Sigs.ok());
    // ReproducibleSeeds: the audit contract only binds when the exchange is
    // a pure function of (program, key seed, inputs).
    ASSERT_TRUE(
        Client.openSession((*Sigs)[0], KeySeed, /*ReproducibleSeeds=*/true)
            .ok());
    Expected<std::map<std::string, std::vector<double>>> Out =
        Client.call(Inputs);
    ASSERT_TRUE(Out.ok()) << (Out.ok() ? "" : Out.message());
    EXPECT_NE(Client.lastRequestId(), 0u);
    EXPECT_TRUE(Client.closeSession().ok());
  } // server shuts down; audit sink flushed and closed

  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "audit log not written: " << Path;
  std::string Line, Last;
  while (std::getline(In, Line))
    if (!Line.empty())
      Last = Line;
  Expected<AuditRecord> Rec = parseAuditLine(Last);
  ASSERT_TRUE(Rec.ok()) << (Rec.ok() ? "" : Rec.message()) << "\n" << Last;
  EXPECT_EQ(Rec->Program, "served");
  EXPECT_NE(Rec->RequestId, 0u);
  EXPECT_NE(Rec->InputsHash, 0u);
  EXPECT_NE(Rec->OutputsHash, 0u);

  // Replay locally: compile the same source with the same options and
  // re-execute under the same seed. Both hashes must match byte-for-byte.
  Expected<CompiledProgram> CP =
      compile(*buildServedProgram(), CompilerOptions::eva());
  ASSERT_TRUE(CP.ok());
  Expected<AuditReplayResult> Replay =
      auditReplay(*Rec, *CP, KeySeed, Inputs);
  ASSERT_TRUE(Replay.ok()) << (Replay.ok() ? "" : Replay.message());
  EXPECT_TRUE(Replay->InputsMatch);
  EXPECT_TRUE(Replay->OutputsMatch);

  // Tampering: a single flipped bit in either recorded hash is detected.
  AuditRecord Tampered = *Rec;
  Tampered.InputsHash ^= 1;
  Expected<AuditReplayResult> R1 = auditReplay(Tampered, *CP, KeySeed, Inputs);
  ASSERT_TRUE(R1.ok());
  EXPECT_FALSE(R1->InputsMatch);
  EXPECT_TRUE(R1->OutputsMatch);

  Tampered = *Rec;
  Tampered.OutputsHash ^= 0x8000000000000000ull;
  Expected<AuditReplayResult> R2 = auditReplay(Tampered, *CP, KeySeed, Inputs);
  ASSERT_TRUE(R2.ok());
  EXPECT_FALSE(R2->OutputsMatch);

  // Wrong inputs (a different request) mismatch on the input side.
  Expected<AuditReplayResult> R3 =
      auditReplay(*Rec, *CP, KeySeed, servedInputs(56));
  ASSERT_TRUE(R3.ok());
  EXPECT_FALSE(R3->InputsMatch);

  std::remove(Path.c_str());
}

// Replay seals through the client's own routine, so a malformed input is a
// diagnostic before anything reaches the encoder.
TEST(Audit, ReplayDiagnosesMalformedInputs) {
  Expected<CompiledProgram> CP =
      compile(*buildServedProgram(), CompilerOptions::eva());
  ASSERT_TRUE(CP.ok());
  AuditRecord Rec;
  Rec.RequestId = 1;
  Rec.Program = "served";
  std::map<std::string, std::vector<double>> Inputs = servedInputs(55);
  Inputs["x"].clear();
  Expected<AuditReplayResult> R = auditReplay(Rec, *CP, 101, Inputs);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("input 'x' is empty"), std::string::npos)
      << R.message();
}

TEST(Audit, ReplayValidatesInputsBeforeBuildingKeys) {
  // createClient refuses seed 0 in reproducible mode, so the input
  // diagnostic can only win if no key was built first.
  Expected<CompiledProgram> CP =
      compile(*buildServedProgram(), CompilerOptions::eva());
  ASSERT_TRUE(CP.ok());
  AuditRecord Rec;
  Rec.RequestId = 1;
  Rec.Program = "served";
  std::map<std::string, std::vector<double>> Inputs = servedInputs(55);
  Inputs["x"].resize(3);
  Expected<AuditReplayResult> R = auditReplay(Rec, *CP, /*KeySeed=*/0, Inputs);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("input 'x'"), std::string::npos) << R.message();
}

TEST(Service, MetricsObserveTheTrafficAClientSends) {
  Service Svc;
  ASSERT_TRUE(Svc.registry().registerSource(*buildServedProgram()).ok());
  InProcessTransport T(Svc);
  ServiceClient Client(T);

  // Scraping needs no session or keys.
  Expected<MetricsSnapshot> Empty = Client.getMetrics();
  ASSERT_TRUE(Empty.ok()) << (Empty.ok() ? "" : Empty.message());
  EXPECT_EQ(Empty->counterValue("eva_requests_total"), 0u);

  Expected<std::vector<ParamSignature>> Sigs = Client.listPrograms();
  ASSERT_TRUE(Sigs.ok());
  ASSERT_TRUE(Client.openSession((*Sigs)[0], 101).ok());

  const size_t Requests = 3;
  uint64_t PrevId = 0;
  for (size_t I = 0; I < Requests; ++I) {
    Expected<std::map<std::string, std::vector<double>>> Out =
        Client.call(servedInputs(200 + I));
    ASSERT_TRUE(Out.ok()) << (Out.ok() ? "" : Out.message());
    // Request ids are server-assigned and strictly increasing.
    EXPECT_GT(Client.lastRequestId(), PrevId);
    PrevId = Client.lastRequestId();
  }

  MetricsSnapshot Snap = *Client.getMetrics();
  EXPECT_EQ(Snap.counterValue("eva_requests_total"), Requests);
  EXPECT_EQ(Snap.counterValue(
                labeledMetric("eva_requests_total", "program", "served")),
            Requests);
  EXPECT_EQ(Snap.counterValue("eva_sessions_opened_total"), 1u);
  ASSERT_NE(Snap.gauge("eva_open_sessions"), nullptr);
  EXPECT_EQ(Snap.gauge("eva_open_sessions")->Value, 1);
  ASSERT_NE(Snap.gauge("eva_pinned_key_bytes"), nullptr);
  EXPECT_GT(Snap.gauge("eva_pinned_key_bytes")->Value, 0);

  // Every span histogram saw every request, and the whole is at least the
  // sum of its measured parts.
  const char *Spans[] = {
      "eva_request_decode_seconds", "eva_request_queue_seconds",
      "eva_request_execute_seconds", "eva_request_encode_seconds"};
  double SpanMeanSum = 0;
  for (const char *Name : Spans) {
    const HistogramSnapshot *H = Snap.histogram(Name);
    ASSERT_NE(H, nullptr) << Name;
    EXPECT_EQ(H->Count, Requests) << Name;
    SpanMeanSum += H->mean();
  }
  const HistogramSnapshot *Total =
      Snap.histogram(labeledMetric("eva_request_seconds", "program", "served"));
  ASSERT_NE(Total, nullptr);
  EXPECT_EQ(Total->Count, Requests);
  EXPECT_GE(Total->mean(), SpanMeanSum * 0.5);
  const HistogramSnapshot *Compute =
      Snap.histogram(labeledMetric("eva_compute_seconds", "program", "served"));
  ASSERT_NE(Compute, nullptr);
  EXPECT_EQ(Compute->Count, Requests);

  // Executor rollups: the served program multiplies, relinearizes, and
  // rotates once per request.
  EXPECT_GE(Snap.counterValue("eva_exec_multiplies_total"), Requests);
  EXPECT_GE(Snap.counterValue("eva_exec_rotations_total"), Requests);
  EXPECT_GE(Snap.counterValue("eva_exec_relinearizations_total"), Requests);
  // The kernel counts of the cost ledger roll up in every build.
  EXPECT_GT(Snap.counterValue("eva_exec_ntts_total"), 0u);
  EXPECT_GT(Snap.counterValue("eva_exec_mulmods_total"), 0u);
  EXPECT_GT(Snap.counterValue("eva_exec_arena_acquires_total"), 0u);

  // Errors land in per-cause counters.
  OpenSessionMsg Bad;
  Bad.ProgramName = "no_such_program";
  std::pair<MessageType, std::string> Resp =
      Svc.dispatch(MessageType::OpenSession, serializeOpenSession(Bad));
  EXPECT_EQ(Resp.first, MessageType::Error);
  Snap = *Client.getMetrics();
  EXPECT_EQ(Snap.counterValue(labeledMetric("eva_request_errors_total",
                                            "cause", "unknown_program")),
            1u);

  EXPECT_TRUE(Client.closeSession().ok());
  Snap = *Client.getMetrics();
  EXPECT_EQ(Snap.gauge("eva_open_sessions")->Value, 0);
  EXPECT_EQ(Snap.gauge("eva_pinned_key_bytes")->Value, 0);
  EXPECT_EQ(Snap.counterValue("eva_sessions_closed_total"), 1u);
}

TEST(Service, TelemetryOffStaysSilentButAnswersScrapes) {
  ServiceConfig Config;
  Config.Telemetry = false;
  Service Svc(Config);
  ASSERT_TRUE(Svc.registry().registerSource(*buildServedProgram()).ok());
  InProcessTransport T(Svc);
  ServiceClient Client(T);
  Expected<std::vector<ParamSignature>> Sigs = Client.listPrograms();
  ASSERT_TRUE(Sigs.ok());
  ASSERT_TRUE(Client.openSession((*Sigs)[0], 101).ok());
  ASSERT_TRUE(Client.call(servedInputs(300)).ok());
  Expected<MetricsSnapshot> Snap = Client.getMetrics();
  ASSERT_TRUE(Snap.ok());
  EXPECT_EQ(Snap->counterValue("eva_requests_total"), 0u);
  EXPECT_EQ(Snap->histogram(labeledMetric("eva_request_seconds", "program",
                                          "served")),
            nullptr);
}

//===----------------------------------------------------------------------===//
// SignalPipe — the async-signal-safe path behind evaserve's SIGUSR1 dump
//===----------------------------------------------------------------------===//

SignalPipe *TestSignals = nullptr;

extern "C" void onTestUsr1(int) { TestSignals->notifyFromHandler('U'); }

// Regression for the SIGUSR1 metrics dump: the handler must stay
// async-signal-safe (one write() into the self-pipe) while the drain side
// — running in normal thread context under full metrics load — takes the
// registry lock and renders a complete snapshot. Mirrors evaserve's loop:
// raise, poll()-drain, dump. Every raised signal must surface as a token
// (raise() returns only after the handler ran, so nothing may be lost),
// and every dump rendered mid-load must be well-formed.
TEST(SignalPipe, Usr1UnderLoadYieldsEveryTokenAndCompleteDumps) {
  SignalPipe Pipe;
  ASSERT_TRUE(Pipe.open().ok());
  TestSignals = &Pipe;
  auto *Prev = std::signal(SIGUSR1, onTestUsr1);
  ASSERT_NE(Prev, SIG_ERR);

  MetricsRegistry Reg;
  // Register the families up front so even a dump racing thread startup
  // must contain them.
  Reg.counter("eva_sig_load_total").add();
  Reg.latencyHistogram("eva_sig_load_seconds").observe(0.001);
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Load;
  for (int T = 0; T < 4; ++T)
    Load.emplace_back([&Reg, &Stop] {
      while (!Stop.load(std::memory_order_relaxed)) {
        Reg.counter("eva_sig_load_total").add();
        Reg.latencyHistogram("eva_sig_load_seconds").observe(0.001);
      }
    });

  constexpr size_t Raises = 64;
  std::vector<unsigned char> Tokens;
  for (size_t I = 0; I < Raises; ++I) {
    ASSERT_EQ(std::raise(SIGUSR1), 0);
    if (I % 8 != 0)
      continue;
    // Drain and dump exactly as evaserve does between wakeups.
    std::vector<unsigned char> Batch;
    if (Pipe.wait(/*TimeoutMs=*/2000, Batch)) {
      Tokens.insert(Tokens.end(), Batch.begin(), Batch.end());
      std::string Text = Reg.snapshot().renderText();
      EXPECT_NE(Text.find("# TYPE eva_sig_load_total counter"),
                std::string::npos)
          << "dump rendered under load is missing a live metric family";
      EXPECT_FALSE(Text.empty());
      EXPECT_EQ(Text.back(), '\n') << "dump truncated";
    }
  }
  while (Tokens.size() < Raises) {
    std::vector<unsigned char> Batch;
    ASSERT_TRUE(Pipe.wait(/*TimeoutMs=*/2000, Batch))
        << "lost wakeup: " << Tokens.size() << " of " << Raises
        << " tokens drained";
    Tokens.insert(Tokens.end(), Batch.begin(), Batch.end());
  }

  Stop = true;
  for (std::thread &T : Load)
    T.join();
  std::signal(SIGUSR1, Prev);
  TestSignals = nullptr;

  EXPECT_EQ(Tokens.size(), Raises);
  EXPECT_TRUE(std::all_of(Tokens.begin(), Tokens.end(),
                          [](unsigned char T) { return T == 'U'; }));
}

TEST(SignalPipe, WaitTimesOutCleanlyWhenNoSignalArrives) {
  SignalPipe Pipe;
  ASSERT_TRUE(Pipe.open().ok());
  std::vector<unsigned char> Tokens;
  EXPECT_FALSE(Pipe.wait(/*TimeoutMs=*/10, Tokens));
  EXPECT_TRUE(Tokens.empty());
  // And a token written outside any handler still wakes the drain side.
  Pipe.notifyFromHandler('X');
  EXPECT_TRUE(Pipe.wait(/*TimeoutMs=*/2000, Tokens));
  ASSERT_EQ(Tokens.size(), 1u);
  EXPECT_EQ(Tokens[0], 'X');
}

} // namespace
