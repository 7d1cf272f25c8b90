//===- eva/api/ProgramSignature.h - Typed program I/O contract --*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The typed input/output contract of an EVA program: one IoSpec per input
/// and output (name, value type, fixed-point log scale, expected ciphertext
/// level, vector size). Every execution backend — the reference semantics,
/// the local CKKS executor, and the remote encrypted-compute service —
/// exposes the same ProgramSignature, so a Valuation validated against it
/// runs unchanged on any of them (see eva/api/Runner.h).
///
/// The signature is derived from an uncompiled Program (frontend graph;
/// levels unknown, Level = 0) or from a CompiledProgram (Algorithm 1
/// output; fresh cipher inputs sit at the full data chain). The service's
/// wire-level ParamSignature (eva/service/Messages.h) is this contract plus
/// the encryption parameters, so what a remote client fetches before it
/// builds keys is the same type the local backends expose.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_API_PROGRAMSIGNATURE_H
#define EVA_API_PROGRAMSIGNATURE_H

#include "eva/core/Compiler.h"
#include "eva/ir/Program.h"

#include <string>
#include <string_view>
#include <vector>

namespace eva {

/// One named program input or output.
struct IoSpec {
  std::string Name;
  /// Cipher for encrypted vectors, Vector for plaintext vector inputs.
  ValueType Type = ValueType::Cipher;
  /// log2 of the fixed-point scale the value is encoded at.
  double LogScale = 0;
  /// Expected prime count of a fresh ciphertext carrying this value (the
  /// full data chain for compiled programs; 0 when levels are not known,
  /// i.e. for uncompiled programs under the reference semantics).
  size_t Level = 0;

  bool isCipher() const { return Type == ValueType::Cipher; }
};

/// The typed I/O contract of one program.
struct ProgramSignature {
  std::string ProgramName;
  uint64_t VecSize = 0;
  std::vector<IoSpec> Inputs;
  std::vector<IoSpec> Outputs;

  /// Looks up an input/output spec by name; nullptr if absent.
  const IoSpec *findInput(std::string_view Name) const;
  const IoSpec *findOutput(std::string_view Name) const;

  /// Signature of an uncompiled frontend program (Level = 0: the reference
  /// semantics has no levels).
  static ProgramSignature of(const Program &P);
  /// Signature of a compiled program: fresh cipher inputs sit at the full
  /// data chain of the selected modulus.
  static ProgramSignature of(const CompiledProgram &CP);
};

} // namespace eva

#endif // EVA_API_PROGRAMSIGNATURE_H
