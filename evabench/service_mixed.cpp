//===- service_mixed.cpp - Workload: the multi-tenant service, open loop ---===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
// A Service with its default ServiceConfig behind a loopback ServiceServer.
// Sixteen tenants of the svc_bench program share the request connections,
// each driven by one sender thread. Open loop with seeded Poisson arrivals:
// 100 rps for 35% of the window, then 150, 200, 250 and 300 rps for 8.75%
// each; in the last 30% every sender submits back to back, and the rate the
// service completes then is max_rate_per_s. One arrival in 50 is a session
// re-open (closeSession + openSession with
// fresh keys, then a re-sealed request), served by a churn client on its own
// connection, so key upload runs beside execute without a re-open stalling
// the requests queued behind it on one connection. FHE arithmetic is a few
// milliseconds per request: this loads the service, serialization and the
// scheduler queue.
//
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "stats.h"

#include "eva/api/Runner.h"
#include "eva/frontend/Expr.h"
#include "eva/serialize/CkksIO.h"
#include "eva/service/Client.h"
#include "eva/service/Server.h"
#include "eva/support/Timer.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <thread>

using namespace eva;
using namespace evabench;

namespace {

/// tests/ServiceTest's bound on remote outputs of this program shape.
constexpr double Tolerance = 1e-2;
/// The p95 latency a sweep step must meet.
constexpr double LatencyLimit = 0.030;
constexpr size_t Tenants = 16;
constexpr double BaseRate = 100;
const double StepRates[] = {150, 200, 250, 300};
/// Shares of the window: the base rate, each sweep step, and the
/// closed-loop saturation phase after them.
constexpr double BaseShare = 0.35, StepShare = 0.0875, SaturationShare = 0.3;
constexpr size_t ReopenEvery = 50;

/// bench/service_throughput.cpp's program: a rotation, a relinearized
/// multiply and a plain operand, one of every evaluation-key kind.
std::unique_ptr<Program> buildSvcBench() {
  ProgramBuilder B("svc_bench", 64);
  Expr X = B.inputCipher("x", 30);
  Expr W = B.inputPlain("w", 20);
  B.output("out", (X * X) + (X << 1) + W, 30);
  return B.take();
}

/// A running service, its min(4, nproc) connections, and one open session
/// per tenant plus the churn client's (last). The churn client has the last
/// connection to itself when there are two or more. Members are destroyed
/// in reverse: clients, connections, server, service.
struct Deployment {
  std::unique_ptr<Service> Svc;
  std::unique_ptr<ServiceServer> Server;
  std::vector<std::unique_ptr<SocketTransport>> Conns;
  ParamSignature Sig;
  std::vector<std::unique_ptr<ServiceClient>> Clients;
};

Deployment deploy(size_t Connections, uint64_t KeyBase) {
  Deployment D;
  D.Svc = std::make_unique<Service>();
  if (Status S = D.Svc->registry().registerSource(*buildSvcBench()); !S.ok())
    fatalError("evabench: register svc_bench: " + S.message());
  D.Server = std::make_unique<ServiceServer>(*D.Svc);
  if (Status S = D.Server->start(0); !S.ok())
    fatalError("evabench: server start: " + S.message());
  for (size_t C = 0; C < Connections; ++C)
    D.Conns.push_back(take(SocketTransport::connectLoopback(D.Server->port()),
                           "connect"));
  for (const ParamSignature &S :
       take(ServiceClient(*D.Conns[0]).listPrograms(), "list programs"))
    if (S.ProgramName == "svc_bench")
      D.Sig = S;
  const size_t RequestConns = std::max<size_t>(1, Connections - 1);
  for (size_t T = 0; T <= Tenants; ++T) {
    D.Clients.push_back(std::make_unique<ServiceClient>(
        *D.Conns[T < Tenants ? T % RequestConns : Connections - 1]));
    if (Status S = D.Clients.back()->openSession(D.Sig, KeyBase + T, true);
        !S.ok())
      fatalError("evabench: open session: " + S.message());
  }
  return D;
}

struct Arrival {
  double At = 0; ///< seconds after the window opens
  size_t Tenant = 0;
  size_t Phase = 0; ///< 0: the base rate; 1..4: the sweep steps
  bool Reopen = false;
};

/// Seeded Poisson arrivals: BaseRate for \p BaseSeconds, then each sweep
/// rate for \p StepSeconds.
std::vector<Arrival> schedule(uint64_t Seed, double BaseSeconds,
                              double StepSeconds) {
  RandomSource Rng(Seed ^ 0x5e4c1ceu);
  std::vector<Arrival> Out;
  double PhaseStart = 0;
  for (size_t Phase = 0; Phase <= std::size(StepRates); ++Phase) {
    double Rate = Phase == 0 ? BaseRate : StepRates[Phase - 1];
    double End = PhaseStart + (Phase == 0 ? BaseSeconds : StepSeconds);
    for (double T = PhaseStart;;) {
      T += -std::log(1.0 - Rng.uniformReal(0, 1)) / Rate;
      if (T >= End)
        break;
      Out.push_back({T, static_cast<size_t>(Rng.uniformBelow(Tenants)), Phase,
                     Rng.uniformBelow(ReopenEvery) == 0});
    }
    PhaseStart = End;
  }
  return Out;
}

/// What happened to one arrival (written by its connection's sender only).
struct Outcome {
  double Lateness = 0; ///< send time minus scheduled time
  double Latency = 0;  ///< completion minus scheduled time
  double Submit = 0;   ///< ServiceClient::submit alone
  double Done = 0;     ///< completion, seconds after the window opens
  bool Ok = false;
};

using Outputs = std::map<std::string, Ciphertext>;

bool sameBits(const Outputs &A, const Outputs &B) {
  if (A.size() != B.size())
    return false;
  for (const auto &[Name, Ct] : A) {
    auto It = B.find(Name);
    if (It == B.end() || It->second.Scale != Ct.Scale ||
        It->second.Polys.size() != Ct.Polys.size())
      return false;
    for (size_t I = 0; I < Ct.Polys.size(); ++I)
      if (It->second.Polys[I].Comps != Ct.Polys[I].Comps)
        return false;
  }
  return true;
}

/// One tenant's client-side state. Every tenant belongs to one connection
/// and so to one sender thread.
struct Tenant {
  std::map<std::string, std::vector<double>> Inputs;
  std::vector<double> Want; ///< Runner::reference on the uncompiled program
  SealedRequest Sealed;
  /// The first response of the current session; later responses must
  /// match it bit for bit.
  std::optional<Outputs> First;
  /// Largest |output - reference| of each session's first response.
  std::vector<double> Errors;
};

/// Checks a response: bit-identical to the session's first, or — for the
/// first — decrypted and compared with the reference.
bool check(ServiceClient &Client, Tenant &T, const Outputs &Out) {
  if (T.First)
    return sameBits(*T.First, Out);
  std::vector<double> Got = Client.decryptOutputs(Out).at("out");
  double Err = 0;
  for (size_t I = 0; I < T.Want.size(); ++I)
    Err = std::max(Err, std::abs(Got[I] - T.Want[I]));
  T.Errors.push_back(Err);
  T.First = Out;
  return Err < Tolerance;
}

struct ServerSnapshot {
  MetricsSnapshot Metrics;
  SchedulerStats Scheduler;
};

ServerSnapshot snapshot(Deployment &D) {
  return {take(ServiceClient(*D.Conns[0]).getMetrics(), "scrape metrics"),
          D.Svc->schedulerStats()};
}

/// Exact mean of a span histogram between two scrapes (sum / count).
double meanBetween(const ServerSnapshot &A, const ServerSnapshot &B,
                   const char *Name) {
  const HistogramSnapshot *HA = A.Metrics.histogram(Name);
  const HistogramSnapshot *HB = B.Metrics.histogram(Name);
  if (!HB)
    fatalError(std::string("evabench: metric missing: ") + Name);
  double Sum = HB->Sum - (HA ? HA->Sum : 0);
  double Count = static_cast<double>(HB->Count - (HA ? HA->Count : 0));
  return Count > 0 ? Sum / Count : 0;
}

double counterBetween(const ServerSnapshot &A, const ServerSnapshot &B,
                      const char *Name) {
  return static_cast<double>(B.Metrics.counterValue(Name) -
                             A.Metrics.counterValue(Name));
}

/// The step's verdict against the latency limit.
struct Step {
  double Rate = 0, P95 = 0;
  size_t Failed = 0;
  bool BacklogGrowing = false;
  bool meets() const {
    return Failed == 0 && !BacklogGrowing && P95 <= LatencyLimit;
  }
};

/// The rate at which p95 crosses the limit, interpolated between the last
/// step that meets it and the first that does not. Near the limit a short
/// burst of host noise moves this by tens of percent, so it is a detail;
/// max_rate_per_s is the completion rate under overload.
double maxRateWithinLimit(const std::vector<Step> &Steps) {
  size_t F = 0;
  while (F < Steps.size() && Steps[F].meets())
    ++F;
  if (F == Steps.size())
    return Steps.back().Rate; // the sweep's ceiling
  if (F == 0)
    return Steps[0].Rate * std::min(1.0, LatencyLimit / Steps[0].P95);
  const Step &L = Steps[F - 1], &U = Steps[F];
  if (U.P95 <= LatencyLimit || U.P95 <= L.P95)
    return L.Rate; // failed on errors or backlog, not on latency
  return L.Rate + (LatencyLimit - L.P95) / (U.P95 - L.P95) * (U.Rate - L.Rate);
}

} // namespace

void evabench::runServiceMixed(const Options &O, Report &R, Tracer &T) {
  const uint64_t KeyBase = O.Seed * 1000003 + 1;
  std::vector<double> SetupSeconds;
  std::optional<Deployment> D;
  for (int Rep = 0; Rep < 5; ++Rep) {
    D.reset();
    Timer Tm;
    D = deploy(O.Threads, KeyBase);
    SetupSeconds.push_back(Tm.seconds());
  }

  // Tenant inputs and sealed requests, made before the window; the last
  // tenant is the churn client.
  std::unique_ptr<Program> P = buildSvcBench();
  std::unique_ptr<Runner> Reference = Runner::reference(*P);
  RandomSource Rng(O.Seed ^ 0x7e4a47u);
  std::vector<Tenant> Ts(Tenants + 1);
  for (size_t I = 0; I <= Tenants; ++I) {
    for (const char *Name : {"x", "w"}) {
      std::vector<double> V(64);
      for (double &X : V)
        X = Rng.uniformReal(-1, 1);
      Ts[I].Inputs[Name] = std::move(V);
    }
    Ts[I].Want = take(Reference->run(Valuation::fromMap(Ts[I].Inputs)),
                      "reference")
                     .vector("out");
    Ts[I].Sealed = take(D->Clients[I]->encryptInputs(Ts[I].Inputs), "seal");
  }
  // Warm-up: each tenant's first response, checked against the reference.
  for (size_t I = 0; I <= Tenants; ++I) {
    Expected<Outputs> Out = D->Clients[I]->submit(Ts[I].Sealed);
    R.op(Out && check(*D->Clients[I], Ts[I], Out.value()));
  }

  const std::vector<Arrival> Arrivals =
      schedule(O.Seed, BaseShare * O.Seconds, StepShare * O.Seconds);
  const double SaturationStart = (1 - SaturationShare) * O.Seconds;
  std::vector<Outcome> Outcomes(Arrivals.size());
  ServerSnapshot Before = snapshot(*D);
  const auto Start =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  const double TraceStart = T.now() + 0.05;
  auto Since = [&Start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
        .count();
  };
  auto WaitUntil = [&Start](double At) {
    std::this_thread::sleep_until(
        Start + std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::duration<double>(At)));
  };
  // A request sender serves its connection's tenants in arrival order, then
  // submits for them back to back until the window closes.
  const size_t RequestConns = std::max<size_t>(1, O.Threads - 1);
  std::vector<std::vector<Outcome>> Saturation(RequestConns);
  auto Sender = [&](size_t Conn) {
    for (size_t I = 0; I < Arrivals.size(); ++I) {
      const Arrival &A = Arrivals[I];
      if (A.Reopen || A.Tenant % RequestConns != Conn)
        continue;
      WaitUntil(A.At);
      ServiceClient &Client = *D->Clients[A.Tenant];
      Tenant &Tn = Ts[A.Tenant];
      Outcome &Oc = Outcomes[I];
      double Begin = Since();
      Oc.Lateness = Begin - A.At;
      Expected<Outputs> Out = Client.submit(Tn.Sealed);
      double Done = Since();
      Oc.Latency = Done - A.At;
      Oc.Submit = Done - Begin;
      Oc.Done = Done;
      Oc.Ok = Out && check(Client, Tn, Out.value());
      if (T.enabled() && A.Phase == 0 && I % 2 == 0) {
        uint64_t Op = T.record("op", TraceStart + A.At, TraceStart + Done,
                               I + 1);
        T.record("gen.lateness", TraceStart + A.At, TraceStart + Begin, I + 1,
                 Op);
        T.record("service.submit", TraceStart + Begin, TraceStart + Done,
                 I + 1, Op);
      }
    }
    WaitUntil(SaturationStart);
    for (size_t Tenant = Conn; Since() < O.Seconds;) {
      Outcome Oc;
      Expected<Outputs> Out = D->Clients[Tenant]->submit(Ts[Tenant].Sealed);
      Oc.Done = Since();
      Oc.Ok = Out && check(*D->Clients[Tenant], Ts[Tenant], Out.value());
      Saturation[Conn].push_back(Oc);
      Tenant = Tenant + RequestConns < Tenants ? Tenant + RequestConns : Conn;
    }
  };
  // The churn client re-opens its session with fresh keys, re-seals its
  // request and checks the new session's first response.
  auto Churn = [&] {
    ServiceClient &Client = *D->Clients[Tenants];
    Tenant &Tn = Ts[Tenants];
    for (size_t I = 0; I < Arrivals.size(); ++I) {
      const Arrival &A = Arrivals[I];
      if (!A.Reopen)
        continue;
      WaitUntil(A.At);
      Outcome &Oc = Outcomes[I];
      Status S = Client.closeSession();
      if (S.ok())
        S = Client.openSession(D->Sig, KeyBase + Tenants + 1 + I, true);
      Expected<SealedRequest> Sealed =
          S.ok() ? Client.encryptInputs(Tn.Inputs) : Expected<SealedRequest>(S);
      Oc.Latency = Since() - A.At;
      if (!Sealed)
        continue;
      Tn.Sealed = std::move(Sealed.value());
      Tn.First.reset();
      Expected<Outputs> Out = Client.submit(Tn.Sealed);
      Oc.Ok = Out && check(Client, Tn, Out.value());
    }
  };
  std::vector<std::thread> Threads;
  for (size_t C = 0; C < RequestConns; ++C)
    Threads.emplace_back(Sender, C);
  Threads.emplace_back(Churn);
  // The base phase's server spans: scraped when it ends.
  WaitUntil(BaseShare * O.Seconds);
  ServerSnapshot Mid = snapshot(*D);
  for (std::thread &Th : Threads)
    Th.join();
  ServerSnapshot After = snapshot(*D);

  // Per step: request latencies from the scheduled arrival, failures, and
  // whether the generator was still falling behind at the step's end.
  const size_t Phases = std::size(StepRates) + 1;
  std::vector<std::vector<double>> Latency(Phases), Lateness(Phases);
  std::vector<Step> Steps(Phases);
  std::vector<double> Reopens, UntracedLatency;
  for (size_t I = 0; I < Arrivals.size(); ++I) {
    const Arrival &A = Arrivals[I];
    const Outcome &Oc = Outcomes[I];
    R.op(Oc.Ok);
    if (A.Reopen) {
      if (A.Phase == 0)
        Reopens.push_back(Oc.Latency);
      continue;
    }
    Lateness[A.Phase].push_back(Oc.Lateness);
    Latency[A.Phase].push_back(Oc.Latency);
    Steps[A.Phase].Failed += Oc.Ok ? 0 : 1;
    if (A.Phase == 0 && I % 2 == 1)
      UntracedLatency.push_back(Oc.Latency);
  }
  for (size_t Ph = 0; Ph < Phases; ++Ph) {
    Step &S = Steps[Ph];
    S.Rate = Ph == 0 ? BaseRate : StepRates[Ph - 1];
    S.P95 = Latency[Ph].empty() ? 0 : percentile(Latency[Ph], 95);
    std::vector<double> LastQuarter(
        Lateness[Ph].end() - static_cast<long>(Lateness[Ph].size() / 4),
        Lateness[Ph].end());
    S.BacklogGrowing =
        !LastQuarter.empty() && median(LastQuarter) > LatencyLimit;
    std::string Rate = std::to_string(static_cast<int>(S.Rate));
    double StepSeconds = (Ph == 0 ? BaseShare : StepShare) * O.Seconds;
    R.detail("gen.achieved_rate_rps." + Rate,
             static_cast<double>(Lateness[Ph].size()) / StepSeconds, "1/s");
    R.detail("latency_p95_s." + Rate, S.P95, "s");
    R.detail("failed." + Rate, static_cast<double>(S.Failed), "count");
    R.detail("backlog_growing." + Rate, S.BacklogGrowing ? 1 : 0, "bool");
  }

  std::vector<double> Errors;
  for (const Tenant &Tn : Ts)
    Errors.insert(Errors.end(), Tn.Errors.begin(), Tn.Errors.end());
  if (Errors.empty()) // every submit failed
    Errors.push_back(INFINITY);
  std::vector<double> AllLateness;
  for (const std::vector<double> &L : Lateness)
    AllLateness.insert(AllLateness.end(), L.begin(), L.end());

  R.endToEnd("setup_s", median(SetupSeconds), "s");
  R.endToEnd("latency_p50_s", median(Latency[0]), "s");
  // Every sender is busy through the saturation phase (with its backlog,
  // then back to back), so a connection completes one request per median
  // gap between its completions there; the median keeps a burst of host
  // noise from moving the sum, the most the service sustains over these
  // connections.
  std::vector<std::vector<double>> Dones(RequestConns);
  for (size_t I = 0; I < Arrivals.size(); ++I)
    if (!Arrivals[I].Reopen && Outcomes[I].Done >= SaturationStart)
      Dones[Arrivals[I].Tenant % RequestConns].push_back(Outcomes[I].Done);
  double MaxRate = 0;
  for (size_t C = 0; C < RequestConns; ++C) {
    for (const Outcome &Oc : Saturation[C]) {
      R.op(Oc.Ok);
      Dones[C].push_back(Oc.Done);
    }
    std::sort(Dones[C].begin(), Dones[C].end());
    std::vector<double> Gaps;
    for (size_t I = 1; I < Dones[C].size(); ++I)
      Gaps.push_back(Dones[C][I] - Dones[C][I - 1]);
    if (!Gaps.empty())
      MaxRate += 1 / median(Gaps);
  }
  R.endToEnd("max_rate_per_s", MaxRate, "1/s");
  R.detail("max_rate_within_limit_rps", maxRateWithinLimit(Steps), "1/s");
  R.endToEnd("precision_bits", precisionBits(median(Errors)), "bits");
  R.endToEnd("peak_rss_mb", peakRssMb(), "MB");
  R.detail("latency_n", static_cast<double>(Latency[0].size()), "count");
  if (std::optional<Tail> Tl = tail(Latency[0])) {
    R.detail("latency_tail_pct", Tl->Percentile, "pct");
    R.detail("latency_tail_s", Tl->Value, "s");
  }
  if (!Reopens.empty()) {
    R.detail("session_open_n", static_cast<double>(Reopens.size()), "count");
    R.detail("session_open_p50_s", median(Reopens), "s");
  }
  if (std::optional<Tail> Tl = tail(AllLateness))
    R.detail("gen.lateness_tail_s", Tl->Value, "s");

  if (!T.enabled())
    return;
  // The traced ops are base-phase requests. Their server spans: exact means
  // (sum / count) over the metrics wire path; the client round trip's
  // remainder is transport.
  double Submit = 0;
  size_t Requests = 0;
  for (size_t I = 0; I < Arrivals.size(); ++I)
    if (!Arrivals[I].Reopen && Arrivals[I].Phase == 0) {
      Submit += Outcomes[I].Submit;
      ++Requests;
    }
  Submit /= static_cast<double>(Requests);
  double Decode = meanBetween(Before, Mid, "eva_request_decode_seconds");
  double Queue = meanBetween(Before, Mid, "eva_request_queue_seconds");
  double Execute = meanBetween(Before, Mid, "eva_request_execute_seconds");
  double Encode = meanBetween(Before, Mid, "eva_request_encode_seconds");
  double Transport = Submit - Decode - Queue - Execute - Encode;
  Tracer::Summary Sum = T.summarize();
  double OpSeconds = 0;
  for (double Dur : Sum.RootDurations)
    OpSeconds += Dur;
  double SubmitShare = Sum.SelfSeconds["service.submit"] / OpSeconds / Submit;
  R.layer("service.decode_frac", Decode * SubmitShare, "frac");
  R.layer("service.queue_wait_frac", Queue * SubmitShare, "frac");
  R.layer("runtime.execute_frac", Execute * SubmitShare, "frac");
  R.layer("service.encode_frac", Encode * SubmitShare, "frac");
  R.layer("service.transport_frac", Transport * SubmitShare, "frac");
  for (auto [Name, V] : {std::pair<const char *, double>{"decode", Decode},
                         {"queue_wait", Queue}, {"execute", Execute},
                         {"encode", Encode}, {"transport", Transport}})
    R.detail(std::string("service.") + Name + "_mean_s", V, "s");

  double Executed = counterBetween(Before, After, "eva_requests_total");
  SchedulerStats SA = Before.Scheduler, SB = After.Scheduler;
  uint64_t Batches = std::max<uint64_t>(1, SB.Batches - SA.Batches);
  R.layer("service.requests_per_batch",
          static_cast<double>(SB.Completed - SA.Completed) /
              static_cast<double>(Batches),
          "count");
  R.layer("service.rejected", static_cast<double>(SB.Rejected - SA.Rejected),
          "count");
  for (auto [Metric, Counter] :
       {std::pair<const char *, const char *>{
            "runtime.keyswitch_decomps",
            "eva_exec_keyswitch_decompositions_total"},
        {"runtime.rotations", "eva_exec_rotations_total"},
        {"runtime.hoisted_rotations", "eva_exec_hoisted_rotations_total"},
        {"runtime.multiplies", "eva_exec_multiplies_total"},
        {"runtime.rescales", "eva_exec_rescales_total"},
        {"runtime.relins", "eva_exec_relinearizations_total"}})
    R.layer(Metric, counterBetween(Before, After, Counter) / Executed, "count");

  // Wire bytes of what the client sends and receives, via serialize*.
  ServiceClient &C0 = *D->Clients[0];
  ExecuteMsg Req;
  for (const auto &[Name, Ct] : Ts[0].Sealed.Inputs.Cipher)
    Req.CipherInputs.emplace_back(
        Name, serializeCiphertext(Ct, Ts[0].Sealed.C1Seeds.at(Name)));
  for (const auto &[Name, V] : Ts[0].Sealed.Inputs.Plain)
    Req.PlainInputs.emplace_back(Name, V);
  if (!Ts[0].First)
    fatalError("evabench: tenant 0 has no response to measure");
  ExecuteResultMsg Resp;
  for (const auto &[Name, Ct] : *Ts[0].First)
    Resp.Outputs.emplace_back(Name, serializeCiphertext(Ct));
  OpenSessionMsg Open;
  Open.ProgramName = "svc_bench";
  Open.RelinKeyBytes = serializeRelinKeys(C0.relinKeys());
  Open.GaloisKeyBytes = serializeGaloisKeys(C0.galoisKeys());
  R.layer("wire.request_bytes",
          static_cast<double>(serializeExecute(Req).size()), "bytes");
  R.layer("wire.response_bytes",
          static_cast<double>(serializeExecuteResult(Resp).size()), "bytes");
  R.layer("wire.key_upload_bytes",
          static_cast<double>(serializeOpenSession(Open).size()), "bytes");

  const CompiledProgram &Registered =
      D->Svc->registry().find("svc_bench")->CP;
  Tracer Off(false);
  std::vector<LayerSeconds> Layers;
  for (int Rep = 0; Rep < 3; ++Rep) {
    LayerSeconds L;
    Timer Tm;
    std::unique_ptr<Program> Again = buildSvcBench();
    L["frontend.build_program_s"] = Tm.seconds();
    checkReplay(replayCompile(*Again, CompilerOptions::eva(), L, Off, 0, 0),
                CompileShape(Registered));
    Layers.push_back(std::move(L));
  }
  reportLayerMedians(R, Layers);
  CompileCounts Counts;
  Counts.add(*P, Registered);
  Counts.report(R);
  reportGaloisKeys(R, {&C0.galoisKeys()});
  reportCkksLayers(R, Registered, KeyBase);
  reportTraceSummary(R, T, UntracedLatency);
}
