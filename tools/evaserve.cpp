//===- evaserve.cpp - The encrypted-compute service daemon ----------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
// Serves compiled EVA programs to remote clients over the loopback framing
// protocol: clients open per-tenant sessions with their own evaluation
// keys, submit encrypted requests, and receive encrypted results. The
// secret key never reaches this process — the wire schema has no message
// that could carry one.
//
// Observability: structured key=value logs (--log-level, -v), a live
// metrics endpoint (`evacall stats` / GET_METRICS), a metrics dump on
// SIGUSR1 and at shutdown, and an optional transcript-hash audit log
// (--audit-log; verify lines offline with `evacall audit-verify`).
//
// Usage:
//   evaserve [--port N] [--chet] [--lazy] [--log-level L] [-v]
//            [--audit-log PATH] [--no-telemetry] <program.evabin>...
//
//===----------------------------------------------------------------------===//

#include "eva/service/Server.h"
#include "eva/support/Log.h"
#include "eva/support/SignalPipe.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace eva;

namespace {

// Signal handling uses the self-pipe trick (see SignalPipe.h): handlers
// write one token byte — the only async-signal-safe thing they do — and
// the main loop blocks in poll() on the pipe, doing the actual metrics
// snapshot (which takes the registry mutex) in normal thread context.
constexpr unsigned char kShutdownToken = 'Q';
constexpr unsigned char kMetricsToken = 'U';

SignalPipe *GSignals = nullptr; // set before handlers are installed

void onSignal(int) { GSignals->notifyFromHandler(kShutdownToken); }
void onMetricsSignal(int) { GSignals->notifyFromHandler(kMetricsToken); }

int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--chet] [--lazy] [--log-level L] [-v] "
               "[--audit-log PATH] [--no-telemetry] <program.evabin>...\n"
               "  --port N         listen port on 127.0.0.1 (default: "
               "ephemeral, printed at startup)\n"
               "  --chet / --lazy  compiler policies for the served "
               "programs (as in evac)\n"
               "  --log-level L    debug|info|warn|error|off (default warn)\n"
               "  -v               shorthand for --log-level info "
               "(per-request span logs)\n"
               "  --audit-log P    append one transcript-hash line per "
               "request to P ('-' = stderr)\n"
               "  --no-telemetry   disable hot-path metrics recording "
               "(GET_METRICS still answers)\n"
               "Signals: SIGUSR1 dumps the metrics snapshot to stderr; the "
               "same dump happens at shutdown.\n",
               Prog);
  return 1;
}

void dumpMetrics(const Service &Svc, const char *Why) {
  MetricsSnapshot Snap = Svc.metricsSnapshot();
  std::string Text = Snap.renderText();
  std::fprintf(stderr, "# evaserve metrics (%s)\n%s", Why, Text.c_str());
  std::fflush(stderr);
}

} // namespace

int main(int Argc, char **Argv) {
  uint16_t Port = 0;
  ServiceConfig Config;
  CompilerOptions Options = CompilerOptions::eva();
  std::vector<const char *> ProgramPaths;

  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--port") == 0 && I + 1 < Argc) {
      int P = std::atoi(Argv[++I]);
      if (P < 0 || P > 65535)
        return usage(Argv[0]);
      Port = static_cast<uint16_t>(P);
    } else if (std::strcmp(Argv[I], "--chet") == 0) {
      Options = CompilerOptions::chet();
    } else if (std::strcmp(Argv[I], "--lazy") == 0) {
      Options.ModSwitch = ModSwitchPolicy::Lazy;
    } else if (std::strcmp(Argv[I], "--log-level") == 0 && I + 1 < Argc) {
      LogLevel Level;
      if (!parseLogLevel(Argv[++I], Level)) {
        std::fprintf(stderr, "evaserve: error: unknown log level '%s'\n",
                     Argv[I]);
        return usage(Argv[0]);
      }
      setLogLevel(Level);
    } else if (std::strcmp(Argv[I], "-v") == 0) {
      setLogLevel(LogLevel::Info);
    } else if (std::strcmp(Argv[I], "--audit-log") == 0 && I + 1 < Argc) {
      Config.AuditLog = Argv[++I];
    } else if (std::strcmp(Argv[I], "--no-telemetry") == 0) {
      Config.Telemetry = false;
    } else if (Argv[I][0] != '-') {
      ProgramPaths.push_back(Argv[I]);
    } else {
      return usage(Argv[0]);
    }
  }
  if (ProgramPaths.empty())
    return usage(Argv[0]);

  Service Svc(Config);
  for (const char *Path : ProgramPaths) {
    if (Status S = Svc.registry().loadFromFile(Path, Options); !S.ok()) {
      std::fprintf(stderr, "evaserve: error: %s\n", S.message().c_str());
      return 1;
    }
  }

  ServiceServer Server(Svc);
  if (Status S = Server.start(Port); !S.ok()) {
    std::fprintf(stderr, "evaserve: error: %s\n", S.message().c_str());
    return 1;
  }

  std::printf("evaserve: listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(Server.port()));
  for (const ParamSignature &Sig : Svc.registry().signatures())
    std::printf("evaserve: serving '%s' (N=%llu, vec_size=%llu, %zu "
                "rotation keys%s)\n",
                Sig.ProgramName.c_str(),
                static_cast<unsigned long long>(Sig.PolyDegree),
                static_cast<unsigned long long>(Sig.VecSize),
                Sig.RotationSteps.size(),
                Sig.NeedsRelin ? ", relin" : "");
  std::fflush(stdout);

  SignalPipe Signals;
  if (Status S = Signals.open(); !S.ok()) {
    std::fprintf(stderr, "evaserve: error: %s\n", S.message().c_str());
    return 1;
  }
  GSignals = &Signals;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  std::signal(SIGUSR1, onMetricsSignal);
  // Framing writes use MSG_NOSIGNAL, but ignore SIGPIPE as a second line of
  // defense: a disconnecting client must never terminate the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  bool ShutdownRequested = false;
  std::vector<unsigned char> Tokens;
  while (!ShutdownRequested) {
    Tokens.clear();
    Signals.wait(/*TimeoutMs=*/-1, Tokens);
    // Coalesce: many SIGUSR1 deliveries between wakeups produce one dump.
    bool WantDump = false;
    for (unsigned char T : Tokens) {
      if (T == kMetricsToken)
        WantDump = true;
      else if (T == kShutdownToken)
        ShutdownRequested = true;
    }
    if (WantDump && !ShutdownRequested)
      dumpMetrics(Svc, "SIGUSR1");
  }

  LogLine(LogLevel::Info, "shutdown")
      .kv("active_sessions", Svc.activeSessionCount());
  dumpMetrics(Svc, "shutdown");
  Server.stop();
  return 0;
}
