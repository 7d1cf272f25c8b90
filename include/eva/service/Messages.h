//===- eva/service/Messages.h - Service wire messages -----------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request/response messages of the encrypted-compute service, in the
/// same hand-rolled proto3 wire format as the program schema (Figure 1).
/// The protocol deliberately has NO message that carries a secret key: the
/// deployment split of Section 2 — client encrypts, server computes on
/// ciphertexts — is enforced by the wire schema itself, not by convention.
///
/// \code
///   enum MessageType   { ERROR = 0; LIST_PROGRAMS = 1; PROGRAM_LIST = 2;
///                        OPEN_SESSION = 3; SESSION_OPENED = 4;
///                        EXECUTE = 5; EXECUTE_RESULT = 6;
///                        CLOSE_SESSION = 7; SESSION_CLOSED = 8;
///                        GET_METRICS = 9; METRICS = 10; }
///   message Error        { string message = 1; }
///   message InputSpec    { string name = 1; double log_scale = 2;
///                          bool cipher = 3; }
///   message OutputSpec   { string name = 1; double log_scale = 2; }
///   message ParamSignature {
///     string program = 1; uint64 poly_degree = 2; uint64 vec_size = 3;
///     repeated int32 context_bit_sizes = 4;   // storage order, special last
///     repeated uint64 rotation_steps = 5; uint32 security = 6;
///     repeated InputSpec inputs = 7; repeated OutputSpec outputs = 8;
///     bool needs_relin = 9;
///     repeated string lint_warnings = 10;   // publish-time lint findings
///     repeated uint64 rotation_key_primes = 11; } // parallel to
///                        // rotation_steps: data primes of each step's key
///   message ProgramList  { repeated ParamSignature programs = 1; }
///   message OpenSession  { string program = 1; bytes relin_keys = 2;
///                          bytes galois_keys = 3; }   // CkksIO encodings
///   message SessionOpened{ uint64 session_id = 1; }
///   message NamedCipher  { string name = 1; bytes ciphertext = 2; }
///   message NamedPlain   { string name = 1; bytes values = 2; } // LE doubles
///   message Execute      { uint64 session_id = 1;
///                          repeated NamedCipher cipher_inputs = 2;
///                          repeated NamedPlain plain_inputs = 3; }
///   message ExecuteResult{ repeated NamedCipher outputs = 1;
///                          uint64 request_id = 2; }  // server trace id
///   message CloseSession { uint64 session_id = 1; }
///   message SessionClosed{ uint64 session_id = 1; }
///   // GET_METRICS carries an empty payload.
///   message CounterVal   { string name = 1; uint64 value = 2; }
///   message GaugeVal     { string name = 1; int64 value = 2; }
///   message HistogramVal { string name = 1; repeated double bounds = 2;
///                          repeated uint64 buckets = 3; uint64 count = 4;
///                          double sum = 5; }
///   message Metrics      { repeated CounterVal counters = 1;
///                          repeated GaugeVal gauges = 2;
///                          repeated HistogramVal histograms = 3; }
/// \endcode
///
/// Every deserialize* reads through FieldReader (serialize/Wire.h), like the
/// program and key loaders: unknown fields are skipped, repeated scalars
/// are read packed or not, and a known field sent with another wire type or
/// bytes that end inside a field are refused with a diagnostic naming the
/// message. The server decodes
/// untrusted client bytes here, and the client decodes the server's.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_SERVICE_MESSAGES_H
#define EVA_SERVICE_MESSAGES_H

#include "eva/api/ProgramSignature.h"
#include "eva/ckks/SecurityTable.h"
#include "eva/support/Error.h"
#include "eva/support/Telemetry.h"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace eva {

enum class MessageType : uint8_t {
  Error = 0,
  ListPrograms = 1,
  ProgramList = 2,
  OpenSession = 3,
  SessionOpened = 4,
  Execute = 5,
  ExecuteResult = 6,
  CloseSession = 7,
  SessionClosed = 8,
  GetMetrics = 9,
  Metrics = 10,
};

const char *messageTypeName(MessageType T);

/// Everything a client needs to build a matching encryption context and
/// key set for one registered program: the program's typed I/O contract
/// (api/ProgramSignature.h) plus the compiled parameters (both sides derive
/// identical primes deterministically from the bit sizes) and the
/// rotation-step set requiring Galois keys, with each key's level. On the
/// wire an input carries
/// only its name, scale and `cipher` bit, so a decoded signature types
/// plain inputs as Vector; cipher inputs and all outputs sit at the full
/// data chain (Level = ContextBitSizes.size() - 1).
struct ParamSignature : ProgramSignature {
  uint64_t PolyDegree = 0;
  std::vector<int> ContextBitSizes; ///< storage order, special prime last
  std::vector<uint64_t> RotationSteps;
  /// Parallel to RotationSteps: the data primes each step's Galois key
  /// holds (CompiledProgram::RotationKeyPrimes), each in [1, data primes].
  /// Empty from a server that predates per-step levels: its clients build
  /// full keys.
  std::vector<uint64_t> RotationKeyPrimes;
  SecurityLevel Security = SecurityLevel::TC128;
  bool NeedsRelin = false;
  /// Publish-time lint findings ("[kind] %id: message"), surfaced so clients
  /// can see the server's static-analysis verdict without recompiling.
  /// Programs that fail *verification* are refused at registration; warnings
  /// ride along here.
  std::vector<std::string> LintWarnings;

  /// Every rotation step with the data primes its Galois key holds, as
  /// ServiceClient::openSession builds them: RotationKeyPrimes, or the full
  /// data chain when the signature carries none.
  std::map<uint64_t, size_t> galoisKeyPrimes() const;
};

struct ErrorMsg {
  std::string Message;
};

struct ProgramListMsg {
  std::vector<ParamSignature> Programs;
};

struct OpenSessionMsg {
  std::string ProgramName;
  std::string RelinKeyBytes;  ///< CkksIO RelinKeys encoding (may be empty)
  std::string GaloisKeyBytes; ///< CkksIO GaloisKeys encoding (may be empty)
};

struct SessionOpenedMsg {
  uint64_t SessionId = 0;
};

struct ExecuteMsg {
  uint64_t SessionId = 0;
  /// Ciphertexts stay serialized here: only the session (which knows the
  /// program's context) can validate and decode them.
  std::vector<std::pair<std::string, std::string>> CipherInputs;
  std::vector<std::pair<std::string, std::vector<double>>> PlainInputs;
};

struct ExecuteResultMsg {
  std::vector<std::pair<std::string, std::string>> Outputs;
  /// Server-assigned trace id of the request that produced these outputs;
  /// quote it when reporting a problem and the operator can find the
  /// request's spans in the server log and audit trail. 0 from servers
  /// predating request tracing (clients must tolerate it).
  uint64_t RequestId = 0;
};

struct CloseSessionMsg {
  uint64_t SessionId = 0;
};

struct SessionClosedMsg {
  uint64_t SessionId = 0;
};

std::string serializeError(const ErrorMsg &M);
Expected<ErrorMsg> deserializeError(std::string_view Data);

std::string serializeParamSignature(const ParamSignature &Sig);
Expected<ParamSignature> deserializeParamSignature(std::string_view Data);

std::string serializeProgramList(const ProgramListMsg &M);
Expected<ProgramListMsg> deserializeProgramList(std::string_view Data);

std::string serializeOpenSession(const OpenSessionMsg &M);
Expected<OpenSessionMsg> deserializeOpenSession(std::string_view Data);

std::string serializeSessionOpened(const SessionOpenedMsg &M);
Expected<SessionOpenedMsg> deserializeSessionOpened(std::string_view Data);

std::string serializeExecute(const ExecuteMsg &M);
Expected<ExecuteMsg> deserializeExecute(std::string_view Data);

std::string serializeExecuteResult(const ExecuteResultMsg &M);
Expected<ExecuteResultMsg> deserializeExecuteResult(std::string_view Data);

std::string serializeCloseSession(const CloseSessionMsg &M);
Expected<CloseSessionMsg> deserializeCloseSession(std::string_view Data);

std::string serializeSessionClosed(const SessionClosedMsg &M);
Expected<SessionClosedMsg> deserializeSessionClosed(std::string_view Data);

/// METRICS carries a full MetricsSnapshot (support/Telemetry.h); the
/// GET_METRICS request has an empty payload.
std::string serializeMetrics(const MetricsSnapshot &Snap);
Expected<MetricsSnapshot> deserializeMetrics(std::string_view Data);

} // namespace eva

#endif // EVA_SERVICE_MESSAGES_H
