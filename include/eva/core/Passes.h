//===- eva/core/Passes.h - Graph transformation & analysis passes -*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The EVA compiler's graph-rewriting passes (Figure 4 of the paper) and
/// analysis passes (Section 6.2). Transformation passes mutate the term
/// graph in a single forward pass (backward for EAGER-MODSWITCH), inserting
/// the FHE-specific instructions; analysis passes traverse without mutating.
///
/// Pass order for EVA mode (Section 5.1): WATERLINE-RESCALE,
/// EAGER-MODSWITCH, MATCH-SCALE, RELINEARIZE. The CHET baseline mode uses
/// ALWAYS-RESCALE + LAZY-MODSWITCH (the paper defines both rules "only for
/// clarity"; they model CHET's per-kernel expert insertion) followed by a
/// chain-unification step that sizes each chain position to the largest
/// rescale performed there.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_CORE_PASSES_H
#define EVA_CORE_PASSES_H

#include "eva/ckks/SecurityTable.h"
#include "eva/ir/Program.h"
#include "eva/support/Error.h"

#include <map>
#include <set>
#include <vector>

namespace eva {

//===----------------------------------------------------------------------===
// Lowering
//===----------------------------------------------------------------------===

/// Lowers frontend conveniences: SUM becomes a rotate-and-add reduction tree
/// over vec_size slots; COPY is eliminated. Orphaned nodes are erased.
void lowerFrontendOps(Program &P);

/// Common-subexpression elimination plus local simplification (zero-step
/// rotations, chained-rotation folding rotate(rotate(x,a),b) -> rotate(x,
/// a+b) mod vec_size, double negations, duplicate constants) over the
/// frontend-op subset. Returns the number of applied simplifications. An
/// optimization the open-source EVA ships beyond the paper's core pipeline;
/// every merged node saves a homomorphic operation.
size_t cseAndSimplifyPass(Program &P);

//===----------------------------------------------------------------------===
// Rotation cost (hoisting analysis and Galois-key budgeting)
//===----------------------------------------------------------------------===

/// Batches of rotations that share a source ciphertext. The runtime
/// decomposes the source and extends its digits to every prime once per
/// batch (Evaluator::decomposeForRotation) and applies each member's Galois
/// automorphism against the shared digits (Evaluator::rotateDecomposed),
/// which is bit-identical to rotating serially.
/// Node pointers refer into the compiled program's graph and stay valid for
/// the CompiledProgram's lifetime (Program is held behind a unique_ptr, so
/// moving the CompiledProgram does not move the nodes).
struct RotationPlan {
  struct HoistGroup {
    const Node *Source = nullptr;     ///< the shared rotated operand
    std::vector<const Node *> Members; ///< >= 2 ROTATE nodes of Source
  };
  std::vector<HoistGroup> Groups;
  /// Rotation-node id -> index into Groups.
  std::map<uint64_t, size_t> GroupOf;
  bool empty() const { return Groups.empty(); }
};

/// Analysis: groups cipher ROTATELEFT/ROTATERIGHT nodes by their source
/// operand; every source with at least two non-identity rotations becomes a
/// hoist group. Runs after all transformation passes so the grouped nodes
/// are exactly the ones the executor will dispatch.
RotationPlan planRotationHoisting(const Program &P);

/// Galois-key budgeting: when the program's distinct (normalized) rotation
/// step set exceeds \p Budget, rewrites every cipher rotation into an
/// ascending chain of power-of-two left rotations (the binary expansion of
/// its step), sharing chain prefixes between rotations of the same source.
/// The surviving step set is the power-of-two basis actually used — at most
/// log2(vec_size) keys — which shrinks the client's serialized Galois-key
/// upload proportionally. A \p Budget of 0 disables budgeting; a budget
/// below log2(vec_size) still bottoms out at the binary basis (documented
/// floor). Returns the number of rotations rewritten.
size_t galoisBudgetPass(Program &P, size_t Budget);

//===----------------------------------------------------------------------===
// Rescale insertion (Section 5.3)
//===----------------------------------------------------------------------===

/// WATERLINE-RESCALE: after a MULTIPLY whose result scale s satisfies
/// s / s_f >= s_w (the waterline, the max input/constant scale), insert
/// RESCALE by s_f. Sets every node's logScale as a side effect.
void waterlineRescalePass(Program &P, int SfBits);

/// ALWAYS-RESCALE: after every MULTIPLY insert RESCALE by the smaller
/// operand scale (restoring the larger operand's scale), clamped into the
/// realizable prime range [MinPrimeBits, SfBits]; degenerate rescales that
/// would destroy the message are skipped. This is the paper's literal
/// Figure 4 rule ("defined only for clarity"), kept for the ablation bench.
void alwaysRescalePass(Program &P, int SfBits, int MinPrimeBits = 20);

/// CHET-baseline rescale discipline: after every MULTIPLY, rescale the
/// result back down to the waterline whenever a realizable prime fits —
/// one (or more) chain primes per multiplicative level, the per-kernel
/// expert placement the paper's Tables 5-6 compare against.
void chetRescalePass(Program &P, int SfBits, int MinPrimeBits = 20);

//===----------------------------------------------------------------------===
// ModSwitch insertion (Section 5.3)
//===----------------------------------------------------------------------===

/// EAGER-MODSWITCH: a backward pass equalizing the reverse chain length
/// (rlevel) of every node's out-edges, inserting MODSWITCH at the earliest
/// feasible edge, then aligning all Cipher roots to the deepest rlevel.
void eagerModSwitchPass(Program &P);

/// LAZY-MODSWITCH: a forward pass inserting MODSWITCH directly below the
/// lower-level operand of each binary instruction whose operand levels
/// differ.
void lazyModSwitchPass(Program &P);

/// CHET-mode chain unification: resizes every RESCALE at chain position p to
/// the largest divisor used at p anywhere in the program (one prime per
/// chain position must serve the whole program).
void unifyRescaleChainsPass(Program &P);

//===----------------------------------------------------------------------===
// Scale matching and relinearization (Sections 5.2, 5.3)
//===----------------------------------------------------------------------===

/// MATCH-SCALE: equalizes ADD/SUB operand scales. A plaintext operand is
/// re-encoded at the cipher operand's scale (NORMALIZESCALE); a cipher
/// operand is multiplied by the constant 1 carrying the scale difference.
/// Recomputes and stores logScale on every node.
void matchScalePass(Program &P);

/// RELINEARIZE: inserts RELINEARIZE after every ciphertext-ciphertext
/// MULTIPLY (Constraint 3).
void relinearizePass(Program &P);

//===----------------------------------------------------------------------===
// Validation (Section 6.2) — these never trust the transformer.
//===----------------------------------------------------------------------===

/// Per-output conforming rescale chains; element -1 encodes the paper's
/// "infinity" (a MODSWITCH link).
struct RescaleChainInfo {
  /// Chain (in consumption order) per output, keyed by output list index.
  std::vector<std::vector<int>> OutputChains;
};

/// Computes conforming rescale chains and checks Constraint 1 (equal
/// coefficient moduli into ADD/SUB/MULTIPLY) and Constraint 4
/// (rescale divisor <= s_f). Fails if any chain is non-conforming.
Expected<RescaleChainInfo> validateRescaleChains(const Program &P,
                                                 int SfBits);

/// Recomputes scales from the roots and checks Constraint 2 (equal scales
/// into ADD/SUB, including normalized plaintext operands) plus scale
/// positivity. Writes the recomputed logScale onto every node.
Status validateScales(Program &P);

/// Checks Constraint 3: every ciphertext operand of MULTIPLY (and of the
/// rotations, which key-switch) carries exactly 2 polynomials.
Status validateNumPolynomials(const Program &P);

//===----------------------------------------------------------------------===
// Parameter and rotation selection (Section 6.2)
//===----------------------------------------------------------------------===

struct ParameterSelection {
  /// Bit sizes in the paper's order: special prime, then the rescale chain
  /// in consumption order, then the output-scale headroom factors.
  std::vector<int> BitSizes;
  uint64_t PolyDegree = 0;
  int TotalBits = 0;
};

Expected<ParameterSelection>
selectParameters(const Program &P, const RescaleChainInfo &Chains, int SfBits,
                 int MinPrimeBits, SecurityLevel Security);

/// Distinct left-rotation step counts (normalized modulo vec_size) used by
/// the program; one Galois key is needed per element.
std::set<uint64_t> selectRotationSteps(const Program &P);

//===----------------------------------------------------------------------===
// Noise estimation (supports the paper's Section 4.1 scale selection)
//===----------------------------------------------------------------------===

/// Static worst-case-ish noise estimate per output: log2 of the absolute
/// noise magnitude accumulated through the graph under the standard CKKS
/// noise model (fresh-encryption, key-switch, and rescale-rounding terms
/// all scale with sqrt(N)). `precisionBits = log2(scale) - noiseBits` is
/// the number of reliable fractional bits in the decoded output; the
/// profiling loop of Section 4.1 raises input scales until it clears the
/// desired output scale.
struct NoiseEstimate {
  /// log2 |noise| per output, keyed by output list index.
  std::vector<double> OutputNoiseBits;
  /// log2(scale) - log2 |noise| per output.
  std::vector<double> OutputPrecisionBits;
};

/// Requires logScale annotations (run validateScales first) and the
/// selected polynomial degree.
NoiseEstimate estimateNoise(const Program &P, uint64_t PolyDegree);

} // namespace eva

#endif // EVA_CORE_PASSES_H
