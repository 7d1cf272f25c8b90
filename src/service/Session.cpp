//===- Session.cpp - Per-client sessions ---------------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/service/Session.h"

#include "eva/support/Timer.h"

using namespace eva;

namespace {

/// The fleet totals a run's ledger adds into: metric name and the value
/// summed. adds counts subtractions and rescales counts level drops.
using LedgerField = uint64_t (*)(const ExecutionStats &);
const std::pair<const char *, LedgerField> LedgerRollups[] = {
    {"eva_exec_rotations_total",
     [](const ExecutionStats &S) -> uint64_t { return S.Rotations; }},
    {"eva_exec_hoisted_rotations_total",
     [](const ExecutionStats &S) -> uint64_t { return S.HoistedRotations; }},
    {"eva_exec_keyswitch_decompositions_total",
     [](const ExecutionStats &S) -> uint64_t {
       return S.KeySwitchDecompositions;
     }},
    {"eva_exec_multiplies_total",
     [](const ExecutionStats &S) -> uint64_t { return S.Multiplies; }},
    {"eva_exec_adds_total",
     [](const ExecutionStats &S) -> uint64_t { return S.Adds + S.Subs; }},
    {"eva_exec_relinearizations_total",
     [](const ExecutionStats &S) -> uint64_t { return S.Relinearizations; }},
    {"eva_exec_rescales_total",
     [](const ExecutionStats &S) -> uint64_t {
       return S.Rescales + S.ModSwitches;
     }},
    {"eva_exec_ntts_total",
     [](const ExecutionStats &S) -> uint64_t { return S.Ntts; }},
    {"eva_exec_mulmods_total",
     [](const ExecutionStats &S) -> uint64_t { return S.MulMods; }},
    {"eva_exec_arena_acquires_total",
     [](const ExecutionStats &S) -> uint64_t { return S.ArenaAcquires; }},
    {"eva_exec_arena_heap_bytes_total",
     [](const ExecutionStats &S) -> uint64_t { return S.ArenaHeapBytes; }},
};

} // namespace

size_t eva::pinnedKeyBytes(const RelinKeys &Rk, const GaloisKeys &Gk) {
  auto polyBytes = [](const RnsPoly &P) {
    size_t N = 0;
    for (const std::vector<uint64_t> &Comp : P.Comps)
      N += Comp.size() * sizeof(uint64_t);
    return N;
  };
  auto kswitchBytes = [&](const KSwitchKey &K) {
    size_t N = 0;
    for (const std::array<RnsPoly, 2> &Pair : K.Keys)
      N += polyBytes(Pair[0]) + polyBytes(Pair[1]);
    return N;
  };
  size_t N = kswitchBytes(Rk.Key);
  for (const auto &[Elt, K] : Gk.Keys)
    N += kswitchBytes(K);
  return N;
}

Session::Session(uint64_t IdIn, std::shared_ptr<const RegisteredProgram> ProgIn,
                 std::shared_ptr<CkksWorkspace> WSIn,
                 MetricsRegistry *MetricsIn)
    : Id(IdIn), Prog(std::move(ProgIn)), WS(std::move(WSIn)) {
  if (MetricsIn) {
    const std::string &Name = Prog->Signature.ProgramName;
    Served = &MetricsIn->counter(
        labeledMetric("eva_requests_total", "program", Name));
    ServedSeconds = &MetricsIn->latencyHistogram(
        labeledMetric("eva_request_seconds", "program", Name));
    ComputeSeconds = &MetricsIn->latencyHistogram(
        labeledMetric("eva_compute_seconds", "program", Name));
    for (const auto &[Metric, Field] : LedgerRollups)
      Rollups.emplace_back(&MetricsIn->counter(Metric), Field);
  }
}

Expected<std::map<std::string, Ciphertext>>
Session::execute(const Valuation &Inputs, TraceContext *Trace) const {
  using Result = Expected<std::map<std::string, Ciphertext>>;
  LocalRunnerOptions Opts;
  Opts.Threads = 1;
  Opts.Style = LocalStyle::Serial;
  // The registered program outlives the session (shared_ptr member), and
  // the workspace is non-null, so this cannot fail.
  std::unique_ptr<Runner> Exec =
      std::move(Runner::local(Prog->CP, WS, Opts).value());
  Timer ExecTimer;
  Expected<Valuation> Out = Exec->run(Inputs);
  double ExecuteSeconds = ExecTimer.seconds();
  if (Trace) {
    Trace->SessionId = Id;
    Trace->Program = Prog->Signature.ProgramName;
    Trace->ExecuteSeconds = ExecuteSeconds;
  }
  // Publish only runs that executed: a near-zero "compute" sample from a
  // request refused at validation would skew the latency histogram.
  if (ComputeSeconds && Out.ok()) {
    ComputeSeconds->observe(ExecuteSeconds);
    const ExecutionStats &Ledger = *Exec->executionStats();
    for (const auto &[Total, Field] : Rollups)
      Total->add(Field(Ledger));
  }
  if (!Out)
    return Out.takeStatus();
  std::map<std::string, Ciphertext> Cts;
  for (const auto &[Name, Val] : *Out) {
    const Ciphertext *Ct = std::get_if<Ciphertext>(&Val);
    if (!Ct)
      return Result::error("internal: output '" + Name +
                           "' is not a ciphertext");
    Cts.emplace(Name, *Ct);
  }
  return Result(std::move(Cts));
}

void Session::recordServed(double TotalSeconds) const {
  if (!Served)
    return;
  Served->add();
  ServedSeconds->observe(TotalSeconds);
}

Expected<std::shared_ptr<Session>>
SessionManager::open(std::shared_ptr<const RegisteredProgram> Prog,
                     std::shared_ptr<CkksWorkspace> WS) {
  using Result = Expected<std::shared_ptr<Session>>;
  if (!Prog || !WS)
    return Result::error("session references no program or keys");
  size_t PinnedBytes = pinnedKeyBytes(WS->Rk, WS->Gk);
  LockGuard Lock(M);
  if (Sessions.size() >= MaxSessions) {
    if (Metrics)
      Metrics->counter("eva_sessions_rejected_total").add();
    return Result::error("session limit reached (" +
                         std::to_string(MaxSessions) +
                         "): close one or retry later");
  }
  uint64_t Id = NextId++;
  auto S = std::make_shared<Session>(Id, std::move(Prog), std::move(WS),
                                     Metrics);
  Sessions.emplace(Id, S);
  KeyBytes.emplace(Id, PinnedBytes);
  if (Metrics) {
    Metrics->counter("eva_sessions_opened_total").add();
    Metrics->gauge("eva_open_sessions")
        .set(static_cast<int64_t>(Sessions.size()));
    Metrics->gauge("eva_pinned_key_bytes")
        .add(static_cast<int64_t>(PinnedBytes));
  }
  return S;
}

std::shared_ptr<Session> SessionManager::find(uint64_t Id) const {
  LockGuard Lock(M);
  auto It = Sessions.find(Id);
  return It == Sessions.end() ? nullptr : It->second;
}

bool SessionManager::close(uint64_t Id) {
  // Declared before the lock so it is destroyed after the lock is dropped:
  // tearing a session down frees its keys (gigabytes for a LeNet session),
  // which must not block find/open for every other tenant.
  std::shared_ptr<Session> Released;
  LockGuard Lock(M);
  auto SessionIt = Sessions.find(Id);
  if (SessionIt == Sessions.end())
    return false;
  Released = std::move(SessionIt->second);
  Sessions.erase(SessionIt);
  size_t PinnedBytes = 0;
  if (auto It = KeyBytes.find(Id); It != KeyBytes.end()) {
    PinnedBytes = It->second;
    KeyBytes.erase(It);
  }
  if (Metrics) {
    Metrics->counter("eva_sessions_closed_total").add();
    Metrics->gauge("eva_open_sessions")
        .set(static_cast<int64_t>(Sessions.size()));
    Metrics->gauge("eva_pinned_key_bytes")
        .sub(static_cast<int64_t>(PinnedBytes));
  }
  return true;
}

size_t SessionManager::activeCount() const {
  LockGuard Lock(M);
  return Sessions.size();
}

bool SessionManager::atCapacity() const {
  LockGuard Lock(M);
  return Sessions.size() >= MaxSessions;
}
