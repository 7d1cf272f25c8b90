//===- eva/service/Audit.h - Transcript-hash audit log ----------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compute-integrity half of the observability story. The server can
/// not show an operator plaintexts — it never has any — but it CAN commit
/// to what it received and what it returned: one audit line per request
/// records FNV-1a hashes of the exact wire bytes of the inputs and outputs
/// plus the span timings.
///
///   req=7 session=1 program=dot3 inputs=9e107d9d372bb682
///   outputs=e4d909c290d0fb1c decode_us=812 queue_us=130 execute_us=20412
///   encode_us=660 total_us=22104
///
/// Because PR 4's ReproducibleSeeds mode makes the whole exchange a pure
/// function of (program, key seed, inputs) — the client's sampler order and
/// ciphertext expansion seeds are derived deterministically — anyone who
/// knows the plaintext inputs and the seed can re-run the request locally
/// and must land on byte-identical wire bytes on both sides. auditReplay()
/// does exactly that (it is what `evacall audit-verify` runs): build the
/// client crypto stack, seal and encode the request through the client's
/// own functions, re-execute, re-serialize, and compare both hashes. A
/// mismatch exposes accidental corruption and non-adversarial divergence: a
/// server that computed something other than the registered program, or a
/// result damaged in transit or at rest. FNV-1a is not collision-resistant,
/// so a deliberate tamperer could forge bytes that match a recorded hash;
/// holding up against an adversary needs a cryptographic hash (the SHA-256
/// item under ROADMAP.md's robustness work).
///
//===----------------------------------------------------------------------===//

#ifndef EVA_SERVICE_AUDIT_H
#define EVA_SERVICE_AUDIT_H

#include "eva/core/Compiler.h"
#include "eva/support/Error.h"
#include "eva/support/ThreadAnnotations.h"

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace eva {

/// FNV-1a 64-bit, resumable: pass the previous return value as \p State to
/// accumulate across fragments.
uint64_t fnv1a64(std::string_view Data,
                 uint64_t State = 0xcbf29ce484222325ull);

/// Hash of a request's input bytes exactly as they travel on the wire:
/// entries are name-sorted and domain-separated (cipher/plain tag + name +
/// payload, each length-prefixed), so the hash is independent of wire
/// arrival order but pins every byte of every payload.
uint64_t auditHashInputs(
    const std::vector<std::pair<std::string, std::string>> &CipherInputs,
    const std::vector<std::pair<std::string, std::vector<double>>>
        &PlainInputs);

/// Hash of the response's output ciphertext bytes (name-sorted, each
/// length-prefixed), as serialized into the EXECUTE_RESULT frame.
uint64_t auditHashOutputs(
    const std::vector<std::pair<std::string, std::string>> &Outputs);

/// One audit-log line, parsed or about to be formatted.
struct AuditRecord {
  uint64_t RequestId = 0;
  uint64_t SessionId = 0;
  std::string Program;
  uint64_t InputsHash = 0;
  uint64_t OutputsHash = 0;
  uint64_t DecodeUs = 0;
  uint64_t QueueUs = 0;
  uint64_t ExecuteUs = 0;
  uint64_t EncodeUs = 0;
  uint64_t TotalUs = 0;
};

/// `key=value` tokens, hashes as 16 lowercase hex digits, no newline.
std::string formatAuditLine(const AuditRecord &R);

/// Inverse of formatAuditLine; tolerant of extra keys (forward compat),
/// strict about the ones it needs (req, program, inputs, outputs).
Expected<AuditRecord> parseAuditLine(std::string_view Line);

/// Append-only audit sink (ServiceConfig::AuditLog names the file). Thread
/// safe; each record is one line, flushed eagerly so a crashed server loses
/// at most the in-flight request.
class AuditLog {
public:
  AuditLog() = default;
  ~AuditLog();
  AuditLog(const AuditLog &) = delete;
  AuditLog &operator=(const AuditLog &) = delete;

  /// Opens \p Path for appending ("-" means stderr).
  Status open(const std::string &Path) EVA_EXCLUDES(M);
  /// Whether a sink is attached. Takes the lock: a relaxed read here would
  /// race a concurrent open() (caught by -Wthread-safety; regression test
  /// in TelemetryTest runs enabled/append/open concurrently under TSan).
  bool enabled() const EVA_EXCLUDES(M) {
    LockGuard Lock(M);
    return Sink != nullptr;
  }
  void append(const AuditRecord &R) EVA_EXCLUDES(M);

private:
  /// Leaf lock: guards the sink pointer and the eager fwrite/fflush pair
  /// (stdio buffering is not relied upon for line atomicity).
  mutable Mutex M;
  std::FILE *Sink EVA_GUARDED_BY(M) = nullptr;
  bool OwnsSink EVA_GUARDED_BY(M) = false;
};

/// The verdict of one local re-execution of an audited request.
struct AuditReplayResult {
  uint64_t InputsHash = 0;  ///< recomputed from re-encrypted wire bytes
  uint64_t OutputsHash = 0; ///< recomputed from re-executed wire bytes
  bool InputsMatch = false;
  bool OutputsMatch = false;
};

/// Re-executes an audited request under ReproducibleSeeds and compares
/// hashes byte-for-byte: builds the client crypto stack from \p KeySeed
/// (CkksWorkspace::createClient), seals \p Inputs (sealInputs, so a
/// malformed input is a diagnostic), encodes the EXECUTE message
/// (executeMsgOf; the input hash), executes \p CP on the one-thread DAG
/// schedule the server runs, and serializes the outputs (the output hash).
/// \p CP must be the same compiled program the server registered — compile
/// the same .evabin with the same options.
Expected<AuditReplayResult>
auditReplay(const AuditRecord &R, const CompiledProgram &CP, uint64_t KeySeed,
            const std::map<std::string, std::vector<double>> &Inputs);

} // namespace eva

#endif // EVA_SERVICE_AUDIT_H
