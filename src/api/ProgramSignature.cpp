//===- ProgramSignature.cpp - Typed program I/O contract -----------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/api/ProgramSignature.h"

using namespace eva;

static const IoSpec *findByName(const std::vector<IoSpec> &Specs,
                                std::string_view Name) {
  for (const IoSpec &S : Specs)
    if (S.Name == Name)
      return &S;
  return nullptr;
}

const IoSpec *ProgramSignature::findInput(std::string_view Name) const {
  return findByName(Inputs, Name);
}

const IoSpec *ProgramSignature::findOutput(std::string_view Name) const {
  return findByName(Outputs, Name);
}

/// Shared I/O walk: \p Level is the prime count fresh cipher inputs sit at
/// (0 when levels are unknown).
static ProgramSignature signatureOfProgram(const Program &P, size_t Level) {
  ProgramSignature Sig;
  Sig.ProgramName = P.name();
  Sig.VecSize = P.vecSize();
  for (const Node *N : P.inputs())
    Sig.Inputs.push_back({N->name(), N->type(), N->logScale(),
                          N->isCipher() ? Level : 0});
  for (const Node *N : P.outputs())
    Sig.Outputs.push_back({N->name(), ValueType::Cipher, N->logScale(), Level});
  return Sig;
}

ProgramSignature ProgramSignature::of(const Program &P) {
  return signatureOfProgram(P, 0);
}

ProgramSignature ProgramSignature::of(const CompiledProgram &CP) {
  // Fresh inputs to a compiled program sit at the full data chain: the
  // context's data primes are contextBitSizes() minus the special prime,
  // and MODSWITCH/RESCALE instructions consume levels explicitly from
  // there.
  size_t DataPrimes = CP.BitSizes.empty() ? 0 : CP.BitSizes.size() - 1;
  return signatureOfProgram(*CP.Prog, DataPrimes);
}
