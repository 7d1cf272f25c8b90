//===- eva/service/Client.h - Service clients -------------------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client half of the deployment split (paper Section 2): everything
/// that touches plaintexts or the secret key lives here. A ServiceClient
/// fetches a program's parameter signature, derives the identical
/// encryption context the server uses (prime generation is deterministic
/// from the bit sizes), generates its own keys, uploads only the
/// evaluation keys (seed-compressed), encrypts inputs with seed-compressed
/// symmetric ciphertexts, and decrypts results locally.
///
/// Transports: SocketTransport speaks the framing protocol to a remote
/// evaserve; InProcessTransport calls Service::dispatch directly, so tests
/// and benches drive the full encode -> encrypt -> submit -> execute ->
/// decrypt loop through the same serialized-message path without sockets.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_SERVICE_CLIENT_H
#define EVA_SERVICE_CLIENT_H

#include "eva/api/Runner.h"
#include "eva/service/Framing.h"
#include "eva/service/Service.h"
#include "eva/support/ThreadAnnotations.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace eva {

/// One request/response exchange. Implementations must be usable from
/// multiple client threads.
class Transport {
public:
  virtual ~Transport() = default;
  virtual Expected<Frame> roundTrip(MessageType Type,
                                    std::string_view Payload) = 0;
};

/// Calls Service::dispatch in-process (same serialized messages, no I/O).
class InProcessTransport : public Transport {
public:
  explicit InProcessTransport(Service &Svc) : Svc(Svc) {}
  Expected<Frame> roundTrip(MessageType Type,
                            std::string_view Payload) override {
    std::pair<MessageType, std::string> R = Svc.dispatch(Type, Payload);
    return Frame{R.first, std::move(R.second)};
  }

private:
  Service &Svc;
};

/// Speaks the framing protocol over a loopback TCP connection.
class SocketTransport : public Transport {
public:
  static Expected<std::unique_ptr<SocketTransport>>
  connectLoopback(uint16_t Port);
  ~SocketTransport() override;

  Expected<Frame> roundTrip(MessageType Type,
                            std::string_view Payload) override
      EVA_EXCLUDES(IoMutex);

private:
  explicit SocketTransport(int Fd) : Fd(Fd) {}
  /// One exchange at a time per connection: deliberately held across the
  /// blocking writeFrame/readFrame pair, because the frame exchange IS the
  /// critical section (interleaved frames would corrupt the stream). The
  /// blocking-syscall-under-lock rule in tools/evalint-cpp carries a
  /// matching documented allowance for roundTrip.
  Mutex IoMutex;
  int Fd;
};

/// The EXECUTE message that submits \p Req on session \p SessionId: fresh
/// ciphertexts travel as (c0, c1 seed), caller-supplied ones as full
/// (c0, c1) pairs, plain inputs as their values. Audit replay encodes
/// through it too, so its input hash covers the bytes a client sends.
ExecuteMsg executeMsgOf(const SealedRequest &Req, uint64_t SessionId);

class ServiceClient {
public:
  explicit ServiceClient(Transport &T) : T(T) {}

  Expected<std::vector<ParamSignature>> listPrograms();

  /// Scrapes the server's live metrics snapshot (GET_METRICS/METRICS).
  /// Works without an open session — monitoring needs no keys.
  Expected<MetricsSnapshot> getMetrics();

  /// Builds the client crypto stack for \p Sig (its context, then
  /// CkksWorkspace::createClient seeded from \p KeySeed, with each Galois
  /// key at Sig.galoisKeyPrimes()) and opens a server session with the
  /// evaluation keys. \p ReproducibleSeeds additionally
  /// derives the published expansion seeds from \p KeySeed (see
  /// KeyGenerator) so the whole exchange is a pure function of the seed —
  /// the mode behind cross-backend goldens.
  Status openSession(const ParamSignature &Sig, uint64_t KeySeed,
                     bool ReproducibleSeeds = false);

  /// Validates and seals \p Inputs against the session's program
  /// (sealInputs): plain values and ciphertexts pass through, the rest are
  /// encrypted under this client's keys.
  Expected<SealedRequest> encryptInputs(const Valuation &Inputs);
  Expected<SealedRequest>
  encryptInputs(const std::map<std::string, std::vector<double>> &Inputs);

  /// Submits a sealed request; returns the encrypted outputs.
  Expected<std::map<std::string, Ciphertext>> submit(const SealedRequest &Req);

  /// Decrypts and decodes outputs to vec_size values each (decryptOutputs
  /// over the session's keys).
  std::map<std::string, std::vector<double>>
  decryptOutputs(const std::map<std::string, Ciphertext> &Outputs) const;

  /// encryptInputs + submit + decryptOutputs.
  Expected<std::map<std::string, std::vector<double>>>
  call(const std::map<std::string, std::vector<double>> &Inputs);

  Status closeSession();

  bool hasSession() const { return SessionId != 0; }
  uint64_t sessionId() const { return SessionId; }
  /// Server-assigned trace id of the most recent successful submit();
  /// 0 before any request or against servers predating request tracing.
  uint64_t lastRequestId() const { return LastRequestId; }
  /// The open session's signature: the typed I/O contract requests are
  /// sealed and decrypted against (Runner::remote exposes it) plus the
  /// parameters the client stack was built from.
  const ParamSignature &signature() const { return Sig; }
  /// The client stack's context and keys. Before the first openSession the
  /// context is null, the key sets are empty and there is no secret key.
  std::shared_ptr<const CkksContext> context() const { return WS->Context; }
  const RelinKeys &relinKeys() const { return WS->Rk; }
  const GaloisKeys &galoisKeys() const { return WS->Gk; }
  const SecretKey &secretKey() const { return WS->KeyGen->secretKey(); }

private:
  /// Sends one message and insists on \p Want back (Error frames become
  /// diagnostics).
  Expected<std::string> exchange(MessageType Send, std::string_view Payload,
                                 MessageType Want);

  Transport &T;
  ParamSignature Sig;
  uint64_t SessionId = 0;
  uint64_t LastRequestId = 0;
  /// Empty until openSession builds the client stack.
  std::shared_ptr<CkksWorkspace> WS = std::make_shared<CkksWorkspace>();
};

} // namespace eva

#endif // EVA_SERVICE_CLIENT_H
