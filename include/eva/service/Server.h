//===- eva/service/Server.h - Loopback socket server ------------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The socket front-end of the service (what `evaserve` runs): accepts TCP
/// connections on 127.0.0.1, reads request frames, funnels them through
/// Service::dispatch, and writes response frames. One thread per
/// connection, and each request executes on its connection's thread once
/// the admission gate behind dispatch lets it in, so a server with k
/// connections runs 1 + k threads however many sessions are open. Binding
/// port 0 picks an ephemeral port (port() reports it), which is how tests
/// run a real server without port collisions.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_SERVICE_SERVER_H
#define EVA_SERVICE_SERVER_H

#include "eva/service/Service.h"
#include "eva/support/ThreadAnnotations.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

namespace eva {

class ServiceServer {
public:
  /// \p MaxConnections bounds concurrent client connections (each pins a
  /// thread and an fd); excess connects are closed immediately.
  explicit ServiceServer(Service &Svc, size_t MaxConnections = 128)
      : Svc(Svc), MaxConnections(MaxConnections) {}
  ~ServiceServer() { stop(); }

  ServiceServer(const ServiceServer &) = delete;
  ServiceServer &operator=(const ServiceServer &) = delete;

  /// Binds 127.0.0.1:\p Port (0 = ephemeral), starts accepting.
  Status start(uint16_t Port = 0);

  /// The bound port (valid after start()).
  uint16_t port() const { return BoundPort; }

  /// Stops accepting, closes the listener, and joins all threads. Safe to
  /// call repeatedly.
  void stop() EVA_EXCLUDES(ConnMutex);

private:
  /// One live (or finished-but-unreaped) connection. The server owns the
  /// fd: serveConnection marks Done and the reaper/stop() joins and closes,
  /// so stop() can safely shutdown() the fd of a blocked reader without
  /// racing a concurrent close.
  struct Connection {
    std::thread T;
    int Fd = -1;
    std::atomic<bool> Done{false};
  };

  void acceptLoop() EVA_EXCLUDES(ConnMutex);
  void serveConnection(Connection *C);
  /// Joins and closes finished connections (called from the accept loop so
  /// a long-lived daemon does not accumulate dead threads). Joins happen
  /// after the finished connections have been moved out of the guarded
  /// vector, so the lock is never held across a join.
  void reapFinished() EVA_EXCLUDES(ConnMutex);

  Service &Svc;
  size_t MaxConnections;
  int ListenFd = -1;
  uint16_t BoundPort = 0;
  std::atomic<bool> Stopping{false};
  std::thread Acceptor;
  /// Leaf lock: guards only the connection list. Accept/read/write
  /// syscalls and thread joins all happen with it released (evalint-cpp
  /// enforces the syscall half).
  Mutex ConnMutex;
  std::vector<std::unique_ptr<Connection>> Connections
      EVA_GUARDED_BY(ConnMutex);
};

} // namespace eva

#endif // EVA_SERVICE_SERVER_H
