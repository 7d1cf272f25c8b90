//===- eva/core/Analysis.h - IR verification, dataflow facts, lint -*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static-analysis subsystem over the term graph, in three layers:
///
///  * verifyProgram / verifyCompiled — a structural IR verifier (SSA and
///    acyclicity, operand arity and type rules per Ops.h, term-graph
///    invariants: no dangling operands, no orphaned instructions, constant
///    payload domains, normalized rotation steps). It never trusts the
///    graph: every check re-derives its facts, uses its own cycle-tolerant
///    traversal, and names the offending node in its diagnostic. The one
///    exception is a constant payload's element facts (ConstantPayload in
///    Node.h): payloads are immutable, so their facts are computed once,
///    when they are made, and no pass can invalidate them. compile()
///    always sandwiches the verifier between every transformation pass,
///    so a buggy pass is caught at the pass boundary with the pass named
///    in the error; its cost follows nodes and edges, not payload bytes.
///
///  * analyzeProgram — a forward dataflow analyzer computing per-node facts
///    (scale bits, consumed-modulus level, plaintext magnitude range,
///    multiplicative depth, polynomial count, static noise estimate) in one
///    traversal, enforcing the paper's Constraints 1-4 along the way. The
///    legacy validators of Passes.h (validateRescaleChains, validateScales,
///    validateNumPolynomials, estimateNoise) are thin wrappers over the
///    phases of this analyzer; the compiler and `evac lint` consume the
///    whole AnalysisResult (one fact computation, many consumers).
///
///  * lintCompiled — a warning pass over the facts with node provenance:
///    scales within a headroom of the modulus-chain ceiling, low predicted
///    output precision, Galois-key pressure, dead outputs, constant-foldable
///    encrypted subgraphs, and depth-unbalanced multiply trees.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_CORE_ANALYSIS_H
#define EVA_CORE_ANALYSIS_H

#include "eva/core/Compiler.h"
#include "eva/ir/Program.h"
#include "eva/support/Error.h"

#include <map>
#include <string>
#include <vector>

namespace eva {

//===----------------------------------------------------------------------===
// Structural verification
//===----------------------------------------------------------------------===

/// What the verifier admits at a given pipeline stage. The factory methods
/// encode the stage contracts of Algorithm 1's pipeline.
struct VerifyOptions {
  /// Frontend SUM/COPY conveniences permitted (input programs only; both
  /// are eliminated by lowering).
  bool AllowSumCopy = true;
  /// RELINEARIZE/MODSWITCH/RESCALE/NORMALIZESCALE permitted (the rescale
  /// pass is the first to insert them).
  bool AllowCompilerOps = false;
  /// Instruction and constant nodes must have at least one use (established
  /// by lowering's eraseUnreachable; inputs are exempt — the signature keeps
  /// unused inputs). Input programs may carry dead expressions.
  bool AllowUnusedInstructions = true;
  /// Every rotation must be a ROTATELEFT with step in [0, vec_size)
  /// (established by CSE's canonicalization; only checked when the
  /// optimizer ran).
  bool RequireNormalizedRotations = false;
  /// Every node must carry a positive, finite logScale annotation
  /// (established by MATCH-SCALE; outputs only need a finite one — a
  /// deserialized output may carry scale 0 meaning "as computed").
  bool RequireScaleAnnotations = false;

  /// Contract for programs entering the compiler (and deserialized ones).
  static VerifyOptions input() { return VerifyOptions(); }
  /// Contract after lowering: no SUM/COPY, no dead instructions yet no
  /// compiler-inserted ops.
  static VerifyOptions lowered() {
    VerifyOptions O;
    O.AllowSumCopy = false;
    O.AllowUnusedInstructions = false;
    return O;
  }
  /// Contract after the FHE-insertion passes.
  static VerifyOptions inserted() {
    VerifyOptions O = lowered();
    O.AllowCompilerOps = true;
    return O;
  }
  /// Full post-compilation contract (scale annotations present).
  static VerifyOptions compiled() {
    VerifyOptions O = inserted();
    O.RequireScaleAnnotations = true;
    return O;
  }
};

/// Structural verification of \p P under the stage contract \p O. Every
/// failure names the offending node ("%id (op)"). Safe on arbitrary graphs:
/// uses its own Kahn traversal, so a cyclic graph is diagnosed rather than
/// asserted on.
Status verifyProgram(const Program &P,
                     const VerifyOptions &O = VerifyOptions::input());

/// Verifies a compiler result: the graph under VerifyOptions::compiled()
/// (rotations required normalized when Options.Optimize), plus the
/// cross-checks only the container makes possible — every cipher rotation's
/// normalized step has a Galois key in RotationSteps whose recorded level
/// (RotationKeyPrimes, when present) covers the rotation, the hoist plan's
/// groups refer to live rotation nodes of their source, the bit-size chain
/// is well-formed for the selected degree, and the dataflow analyzer
/// (Constraints 1-4) accepts the graph.
Status verifyCompiled(const CompiledProgram &CP);

//===----------------------------------------------------------------------===
// Forward dataflow analysis
//===----------------------------------------------------------------------===

struct AnalysisOptions {
  /// log2 of the maximum rescale value s_f (Constraint 4 bound).
  int SfBits = 60;
  /// When nonzero, the noise phase runs and fills NoiseBits/OutputNoise
  /// (the model needs the selected polynomial degree).
  uint64_t PolyDegree = 0;
};

/// Per-node dataflow facts, indexed by node id (tables sized maxNodeId()).
/// Only meaningful entries are written; see each table's sentinel.
struct AnalysisResult {
  /// Conforming rescale chains per output (the paper's Definition 3), as
  /// validateRescaleChains computes.
  RescaleChainInfo Chains;
  /// Recomputed log2 scale per node (also written onto the nodes, matching
  /// validateScales' contract). 0 for nodes without a scale (outputs keep
  /// their desired-scale annotation).
  std::vector<double> LogScale;
  /// Consumed-prime count (chain length) per cipher node; -1 for plaintext.
  std::vector<int> Level;
  /// Ciphertext polynomial count per cipher node; 0 for plaintext.
  std::vector<int> NumPolys;
  /// log2 of the estimated max plaintext magnitude (inputs assumed |m|<=1).
  std::vector<double> MagBits;
  /// Multiplicative depth (MULTIPLY nodes on the deepest path from a leaf).
  std::vector<size_t> MultDepth;
  /// Whether any run-time INPUT is an ancestor (false => compile-time
  /// constant subgraph).
  std::vector<char> HasInputAncestor;
  /// Whether any Cipher-typed INPUT is an ancestor.
  std::vector<char> HasCipherInputAncestor;
  /// log2 |noise| per node (empty unless PolyDegree was given).
  std::vector<double> NoiseBits;
  /// Per-output noise/precision summary (empty unless PolyDegree given).
  NoiseEstimate OutputNoise;
};

/// Parameter selection over precomputed analysis facts: the Section 6.2
/// DetermineParameters step, fed from an AnalysisResult instead of
/// recomputing the rescale chains (one fact computation, many consumers).
Expected<ParameterSelection> selectParameters(const Program &P,
                                              const AnalysisResult &AR,
                                              int SfBits, int MinPrimeBits,
                                              SecurityLevel Security);

/// DetermineRotationSteps extended to levels: for each normalized step of a
/// cipher rotation in \p P, the most data primes (out of \p DataPrimes) any
/// rotation by that step runs at, read off AR.Level. A Galois key for the
/// step needs no more digits than that (CompiledProgram::RotationKeyPrimes).
std::map<uint64_t, size_t> selectRotationKeyPrimes(const Program &P,
                                                   const AnalysisResult &AR,
                                                   size_t DataPrimes);

/// Runs the forward dataflow phases over \p P in validation order — rescale
/// chains (Constraints 1 and 4), scales (Constraint 2), polynomial counts
/// (Constraint 3), then magnitude/depth/provenance and (optionally) noise —
/// failing with the same diagnostics as the legacy validators. As a
/// documented side effect the recomputed scales are written onto the nodes
/// (validateScales' historical contract, which parameter selection and the
/// executors rely on).
Expected<AnalysisResult> analyzeProgram(Program &P,
                                        const AnalysisOptions &O = {});

//===----------------------------------------------------------------------===
// Lint
//===----------------------------------------------------------------------===

enum class LintKind {
  ScaleNearCeiling,   ///< scale+magnitude within headroom of the live modulus
  LowPrecision,       ///< predicted output precision below threshold
  RotationKeyPressure,///< distinct rotation steps exceed the key budget/basis
  DeadOutput,         ///< output depends on no run-time input
  ConstantFoldable,   ///< encrypted subgraph computable at compile time
  UnbalancedMultiply, ///< multiply tree deeper than a balanced equivalent
  UnusedInput,        ///< declared input feeds nothing
};

const char *lintKindName(LintKind K);

struct LintWarning {
  LintKind Kind;
  /// The offending node (the output node for output-level warnings).
  uint64_t NodeId = 0;
  std::string Message;
};

struct LintOptions {
  /// Warn when scale+magnitude bits come within this many bits of the live
  /// coefficient modulus.
  int ScaleHeadroomBits = 2;
  /// Warn when predicted output precision falls below this many bits.
  double MinPrecisionBits = 10.0;
  /// Warn when a multiply tree's depth exceeds its balanced depth by this
  /// many levels.
  size_t DepthImbalance = 2;
};

/// Lints a compiled program over its analysis facts. \p AR must come from
/// analyzeProgram over *CP.Prog with CP's SfBits and PolyDegree.
std::vector<LintWarning> lintCompiled(const CompiledProgram &CP,
                                      const AnalysisResult &AR,
                                      const LintOptions &O = {});

} // namespace eva

#endif // EVA_CORE_ANALYSIS_H
