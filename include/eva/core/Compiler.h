//===- eva/core/Compiler.h - The EVA compiler (Algorithm 1) -----*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler driver of Algorithm 1: Transform, Validate,
/// DetermineParameters, DetermineRotationSteps. Input programs use the
/// frontend opcode subset; the output program additionally contains the
/// compiler-inserted RELINEARIZE / MODSWITCH / RESCALE / NORMALIZESCALE
/// instructions and is guaranteed (by validation) never to raise a runtime
/// exception in the FHE backend.
///
/// Two insertion policies are provided:
///  * EVA mode (default): WATERLINE-RESCALE + EAGER-MODSWITCH — the paper's
///    optimal-r pipeline.
///  * CHET baseline mode: ALWAYS-RESCALE + LAZY-MODSWITCH + per-position
///    chain unification, modeling the per-kernel expert placement the paper
///    compares against (Section 8.2, Tables 5-6).
///
//===----------------------------------------------------------------------===//

#ifndef EVA_CORE_COMPILER_H
#define EVA_CORE_COMPILER_H

#include "eva/ckks/SecurityTable.h"
#include "eva/core/Passes.h"
#include "eva/ir/Program.h"
#include "eva/support/Error.h"

#include <map>
#include <memory>
#include <set>
#include <vector>

namespace eva {

enum class RescalePolicy {
  Waterline,     ///< EVA's WATERLINE-RESCALE (optimal chain length).
  Always,        ///< the paper's literal ALWAYS-RESCALE rule (ablation).
  ChetPerKernel, ///< CHET's restore-to-nominal-scale discipline (baseline).
};
enum class ModSwitchPolicy { Eager, Lazy };

struct CompilerOptions {
  RescalePolicy Rescale = RescalePolicy::Waterline;
  ModSwitchPolicy ModSwitch = ModSwitchPolicy::Eager;
  /// log2 of the maximum rescale value s_f (60 in SEAL).
  int SfBits = 60;
  /// Smallest usable prime bit size (NTT-friendliness floor).
  int MinPrimeBits = 20;
  SecurityLevel Security = SecurityLevel::TC128;
  /// Run CSE + simplification before insertion (open-source EVA default).
  bool Optimize = true;
  /// Galois-key budget: when nonzero and the program uses more distinct
  /// rotation steps than this, rotations are rewritten into compositions
  /// over the power-of-two key basis (galoisBudgetPass) so at most
  /// log2(vec_size) Galois keys — and therefore a proportionally smaller
  /// client key upload in the service deployment — are needed. 0 keeps one
  /// key per distinct step (the paper's DetermineRotationSteps).
  size_t GaloisKeyBudget = 0;
  /// Pass-sandwich verification: run the structural IR verifier between
  /// every transformation pass, naming the failing pass in the diagnostic.
  /// On unless set to 0 (-1, the default, and 1 both mean on). The final
  /// structural verification runs regardless.
  int VerifyPasses = -1;

  /// The paper's EVA configuration (default).
  static CompilerOptions eva() { return CompilerOptions(); }
  /// The CHET baseline configuration.
  static CompilerOptions chet() {
    CompilerOptions O;
    O.Rescale = RescalePolicy::ChetPerKernel;
    O.ModSwitch = ModSwitchPolicy::Lazy;
    return O;
  }
};

/// Everything needed to run the program: the transformed graph, the prime
/// bit sizes (paper order: special prime, chain in consumption order,
/// headroom factors), the rotation-key step set and each key's level, and
/// the selected degree.
struct CompiledProgram {
  std::unique_ptr<Program> Prog;
  std::vector<int> BitSizes;
  std::set<uint64_t> RotationSteps;
  /// Per rotation step, the most data primes any rotation by it runs at
  /// (selectRotationKeyPrimes): its Galois key needs only that many digits,
  /// each over those primes plus the special prime (keyLimbPrime in
  /// ckks/Keys.h). A step missing here gets a full key, so an empty map
  /// (a CompiledProgram assembled outside compile()) means full keys.
  std::map<uint64_t, size_t> RotationKeyPrimes;
  /// Hoist batches (rotations sharing a source) the executors consume; the
  /// node pointers refer into Prog and survive moves of this struct.
  RotationPlan RotPlan;
  uint64_t PolyDegree = 0;
  int TotalModulusBits = 0;
  CompilerOptions Options;

  /// Every rotation step with its Galois key's level: the recorded one, or
  /// the full data chain for a step RotationKeyPrimes does not hold.
  std::map<uint64_t, size_t> galoisKeyPrimes() const {
    std::map<uint64_t, size_t> Out;
    for (uint64_t Step : RotationSteps) {
      auto It = RotationKeyPrimes.find(Step);
      Out.emplace(Step, It != RotationKeyPrimes.end() ? It->second
                                                      : BitSizes.size() - 1);
    }
    return Out;
  }

  /// Modulus chain length r (the quantity Table 6 reports).
  size_t modulusLength() const { return BitSizes.size(); }

  /// Bit sizes in the CKKS context's storage order: headroom factors and
  /// chain reversed (so RESCALE always drops the highest live index),
  /// special prime last.
  std::vector<int> contextBitSizes() const {
    std::vector<int> Out(BitSizes.rbegin(), BitSizes.rend() - 1);
    Out.push_back(BitSizes.front());
    return Out;
  }
};

/// Algorithm 1. \p Input is left untouched; the result owns a transformed
/// clone. Fails with a diagnostic if any cryptographic constraint cannot be
/// satisfied or validation finds an inconsistency.
Expected<CompiledProgram> compile(const Program &Input,
                                  const CompilerOptions &Options = {});

} // namespace eva

#endif // EVA_CORE_COMPILER_H
