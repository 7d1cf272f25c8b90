//===- Analysis.cpp - Forward dataflow facts & constraint validation ----------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dataflow half of the analysis subsystem: one forward engine computes
/// every per-node fact the compiler, the validators, and `evac lint`
/// consume. The phases run in the historical validation order of Section
/// 6.2 — rescale chains (Constraints 1 and 4), scales (Constraint 2),
/// polynomial counts (Constraint 3), then magnitude/depth/provenance and
/// the noise model — so the diagnostics are byte-identical to the legacy
/// validators, which remain as thin wrappers over individual phases. Each
/// phase re-derives its facts from the transformed graph alone (never
/// trusting the transformation passes); the paper's "eliminates all common
/// runtime exceptions" claim rests on these checks being complete.
///
/// The noise model (supporting the paper's Section 4.1 scale selection)
/// works in log2 space with the standard heuristic bounds — fresh noise
/// ~ sigma * sqrt(2N), additive growth on ADD, cross terms m1*e2 + m2*e1 on
/// MULTIPLY (message magnitudes ~1 at nominal scale), key-switch noise
/// ~ sigma * N, exact scale-down plus rounding on RESCALE — matching the
/// qualitative analysis of Section 2.2 ("errors grow linearly on additions
/// and exponentially on multiplicative depth" without rescaling).
///
//===----------------------------------------------------------------------===//

#include "eva/core/Analysis.h"

#include <algorithm>
#include <cmath>
#include <string>

using namespace eva;

namespace {

std::string nodeDesc(const Node *N) {
  return std::string("%") + std::to_string(N->id()) + " (" + opName(N->op()) +
         ")";
}

/// Chain phase: per-node conforming rescale chains (-1 encodes the paper's
/// infinity, a MODSWITCH link), Constraint 1 and Constraint 4. \p Chains is
/// kept per node so the level fact can be read off as the chain length.
Status computeChains(const Program &P, int SfBits,
                     std::vector<std::vector<int>> &Chains,
                     std::vector<char> &HasChain, RescaleChainInfo &Info) {
  Chains.assign(P.maxNodeId(), {});
  HasChain.assign(P.maxNodeId(), 0);

  for (const Node *N : P.forwardOrder()) {
    if (N->isPlain() && N->op() != OpCode::Output)
      continue; // plaintext operands are encoded at the consumer's modulus
    std::vector<const Node *> CipherParms;
    for (const Node *Parm : N->parms())
      if (Parm->isCipher())
        CipherParms.push_back(Parm);

    std::vector<int> Chain;
    if (!CipherParms.empty()) {
      assert(HasChain[CipherParms[0]->id()] && "forward order violated");
      Chain = Chains[CipherParms[0]->id()];
      for (size_t I = 1; I < CipherParms.size(); ++I) {
        const std::vector<int> &Other = Chains[CipherParms[I]->id()];
        if (Other.size() != Chain.size())
          return Status::error(
              "Constraint 1 violated at " + nodeDesc(N) +
              ": operand moduli differ in length (" +
              std::to_string(Chain.size()) + " vs " +
              std::to_string(Other.size()) +
              " consumed primes); MODSWITCH insertion is incomplete");
        for (size_t K = 0; K < Chain.size(); ++K) {
          if (Chain[K] == -1)
            Chain[K] = Other[K];
          else if (Other[K] != -1 && Other[K] != Chain[K])
            return Status::error(
                "non-conforming rescale chains at " + nodeDesc(N) +
                ": position " + std::to_string(K) + " divides by 2^" +
                std::to_string(Chain[K]) + " on one path and 2^" +
                std::to_string(Other[K]) + " on another");
        }
      }
    }
    if (N->op() == OpCode::Rescale) {
      if (N->rescaleBits() > SfBits)
        return Status::error("Constraint 4 violated at " + nodeDesc(N) +
                             ": rescale value 2^" +
                             std::to_string(N->rescaleBits()) +
                             " exceeds s_f = 2^" + std::to_string(SfBits));
      if (N->rescaleBits() <= 0)
        return Status::error("invalid rescale value at " + nodeDesc(N));
      Chain.push_back(N->rescaleBits());
    } else if (N->op() == OpCode::ModSwitch) {
      Chain.push_back(-1);
    }
    Chains[N->id()] = std::move(Chain);
    HasChain[N->id()] = 1;
  }

  Info.OutputChains.clear();
  for (const Node *O : P.outputs()) {
    if (O->parm(0)->isCipher())
      Info.OutputChains.push_back(Chains[O->parm(0)->id()]);
    else
      Info.OutputChains.push_back({});
  }
  return Status::success();
}

/// Scale phase: recomputes scales from the roots and checks Constraint 2
/// (equal scales into ADD/SUB) plus scale positivity. Writes the recomputed
/// logScale onto every node (the executors and parameter selection read the
/// annotations); \p Facts additionally records them when non-null.
Status computeScales(Program &P, std::vector<double> *Facts) {
  const double Eps = 1e-6;
  if (Facts)
    Facts->assign(P.maxNodeId(), 0.0);
  auto Record = [&](const Node *N) {
    if (Facts)
      (*Facts)[N->id()] = N->logScale();
  };
  for (Node *N : P.forwardOrder()) {
    switch (N->op()) {
    case OpCode::Input:
    case OpCode::Constant:
    case OpCode::NormalizeScale:
      // Attribute-defined scales; NormalizeScale re-encodes its plaintext
      // operand at its own attribute scale.
      if (N->logScale() <= 0)
        return Status::error("non-positive scale on " + nodeDesc(N));
      Record(N);
      continue;
    case OpCode::Output:
      Record(N); // carries the desired output scale, not a computed one
      continue;
    case OpCode::Add:
    case OpCode::Sub: {
      double S0 = N->parm(0)->logScale();
      double S1 = N->parm(1)->logScale();
      if (std::abs(S0 - S1) > Eps)
        return Status::error(
            "Constraint 2 violated at " + nodeDesc(N) + ": operand scales 2^" +
            std::to_string(S0) + " and 2^" + std::to_string(S1) +
            " differ; MATCH-SCALE insertion is incomplete");
      N->setLogScale(std::max(S0, S1));
      Record(N);
      continue;
    }
    case OpCode::Multiply:
      N->setLogScale(N->parm(0)->logScale() + N->parm(1)->logScale());
      Record(N);
      continue;
    case OpCode::Rescale: {
      double S = N->parm(0)->logScale() - N->rescaleBits();
      if (S <= 0)
        return Status::error(
            "rescale at " + nodeDesc(N) + " destroys the message: scale 2^" +
            std::to_string(N->parm(0)->logScale()) + " divided by 2^" +
            std::to_string(N->rescaleBits()));
      N->setLogScale(S);
      Record(N);
      continue;
    }
    case OpCode::Sum:
    case OpCode::Copy:
      return Status::error("frontend op " + nodeDesc(N) +
                           " survived lowering");
    default:
      N->setLogScale(N->parm(0)->logScale());
      Record(N);
      continue;
    }
  }
  return Status::success();
}

/// Polynomial-count phase: Constraint 3 — every ciphertext operand of
/// MULTIPLY (and of the rotations, which key-switch) carries exactly 2
/// polynomials.
Status computeNumPolys(const Program &P, std::vector<int> *Facts) {
  std::vector<int> NumPolys(P.maxNodeId(), 0);
  for (const Node *N : P.forwardOrder()) {
    if (N->isPlain() && N->op() != OpCode::Output)
      continue;
    switch (N->op()) {
    case OpCode::Input:
      NumPolys[N->id()] = 2;
      continue;
    case OpCode::Multiply: {
      const Node *A = N->parm(0);
      const Node *B = N->parm(1);
      if (A->isCipher() && B->isCipher()) {
        if (NumPolys[A->id()] != 2 || NumPolys[B->id()] != 2)
          return Status::error(
              "Constraint 3 violated at " + nodeDesc(N) +
              ": multiply operand has " +
              std::to_string(std::max(NumPolys[A->id()], NumPolys[B->id()])) +
              " polynomials; RELINEARIZE insertion is incomplete");
        NumPolys[N->id()] = 3;
      } else {
        NumPolys[N->id()] = NumPolys[A->isCipher() ? A->id() : B->id()];
      }
      continue;
    }
    case OpCode::Relinearize:
      if (NumPolys[N->parm(0)->id()] != 3)
        return Status::error("relinearize at " + nodeDesc(N) +
                             " expects a 3-polynomial operand");
      NumPolys[N->id()] = 2;
      continue;
    case OpCode::RotateLeft:
    case OpCode::RotateRight:
      // The executor rotates ciphertexts only (a Galois key switches c1);
      // a plain operand has no polynomials to count.
      if (N->parm(0)->isPlain())
        return Status::error("rotation at " + nodeDesc(N) +
                             " rotates the plain value " +
                             nodeDesc(N->parm(0)) +
                             ": only ciphertexts can be rotated");
      // Rotation key-switches and therefore also needs 2 polynomials.
      if (NumPolys[N->parm(0)->id()] != 2)
        return Status::error("rotation at " + nodeDesc(N) +
                             " requires a relinearized (2-polynomial) "
                             "operand");
      NumPolys[N->id()] = 2;
      continue;
    default: {
      int Max = 0;
      for (const Node *Parm : N->parms())
        if (Parm->isCipher())
          Max = std::max(Max, NumPolys[Parm->id()]);
      NumPolys[N->id()] = Max;
      continue;
    }
    }
  }
  if (Facts)
    *Facts = std::move(NumPolys);
  return Status::success();
}

/// Noise phase: log2 |noise| per node under the standard CKKS model.
/// Requires logScale annotations on the nodes (the scale phase, or
/// historically validateScales, must have run).
NoiseEstimate computeNoise(const Program &P, uint64_t PolyDegree,
                           std::vector<double> *Facts) {
  const double LogN = std::log2(static_cast<double>(PolyDegree));
  const double Sigma = std::log2(3.2);
  // Fresh encryption. Every client encrypts under the secret key, so a
  // fresh ciphertext carries one error draw e (c0 + c1*s = m + e), about
  // sigma * sqrt(N) in the slots. The term is sigma * 2 * sqrt(2N), 1.5 bits
  // above that; it is the public-key model's (e0 + u*e_pk + e1*s), kept so
  // that estimates, lint warnings and precision facts do not move.
  const double FreshNoise = Sigma + 0.5 * (LogN + 1) + 1.0;
  // Key switching adds ~ sigma * N / sqrt(12)-ish after mod-down by P.
  const double KeySwitchNoise = Sigma + 0.5 * LogN + 4.0;
  // Rescale rounding: ||round-error * s|| ~ sqrt(N/12) * ||s|| terms.
  const double RoundNoise = 0.5 * LogN + 1.0;

  std::vector<double> Noise(P.maxNodeId(), -1e9);
  auto MaxPlus = [](double A, double B) {
    // log2(2^A + 2^B) without overflow drama.
    double Hi = std::max(A, B), Lo = std::min(A, B);
    return Hi + std::log2(1.0 + std::exp2(std::max(Lo - Hi, -50.0)));
  };

  for (const Node *N : P.forwardOrder()) {
    if (N->isPlain() && N->op() != OpCode::Output)
      continue;
    double Out = -1e9;
    switch (N->op()) {
    case OpCode::Input:
      Out = FreshNoise;
      break;
    case OpCode::Output:
      Out = N->parm(0)->isCipher() ? Noise[N->parm(0)->id()] : -1e9;
      break;
    case OpCode::Add:
    case OpCode::Sub: {
      const Node *A = N->parm(0);
      const Node *B = N->parm(1);
      double NA = A->isCipher() ? Noise[A->id()] : RoundNoise;
      double NB = B->isCipher() ? Noise[B->id()] : RoundNoise;
      Out = MaxPlus(NA, NB);
      break;
    }
    case OpCode::Multiply: {
      const Node *A = N->parm(0);
      const Node *B = N->parm(1);
      if (A->isCipher() && B->isCipher()) {
        // m1*e2 + m2*e1 with |m_i| ~ 1 at scale s_i.
        Out = MaxPlus(A->logScale() + Noise[B->id()],
                      B->logScale() + Noise[A->id()]);
      } else {
        const Node *Ct = A->isCipher() ? A : B;
        const Node *Pt = A->isCipher() ? B : A;
        // Two terms: the ciphertext noise scaled by the plaintext
        // (|values| <= 1 at scale s_pt), and the plaintext's encoding
        // rounding hitting the ciphertext's message (m * scale_ct * r).
        Out = MaxPlus(Noise[Ct->id()] + Pt->logScale(),
                      Ct->logScale() + RoundNoise);
      }
      break;
    }
    case OpCode::Rescale:
      Out = MaxPlus(Noise[N->parm(0)->id()] - N->rescaleBits(), RoundNoise);
      break;
    case OpCode::ModSwitch:
      Out = MaxPlus(Noise[N->parm(0)->id()], RoundNoise);
      break;
    case OpCode::Relinearize:
    case OpCode::RotateLeft:
    case OpCode::RotateRight:
      Out = MaxPlus(Noise[N->parm(0)->id()], KeySwitchNoise);
      break;
    case OpCode::Negate:
    default:
      Out = Noise[N->parm(0)->id()];
      break;
    }
    Noise[N->id()] = Out;
  }

  NoiseEstimate E;
  for (const Node *O : P.outputs()) {
    double NB = Noise[O->id()];
    E.OutputNoiseBits.push_back(NB);
    E.OutputPrecisionBits.push_back(O->parm(0)->logScale() - NB);
  }
  if (Facts)
    *Facts = std::move(Noise);
  return E;
}

} // namespace

//===----------------------------------------------------------------------===
// Legacy validator entry points (Passes.h) — wrappers over the phases.
//===----------------------------------------------------------------------===

Expected<RescaleChainInfo> eva::validateRescaleChains(const Program &P,
                                                      int SfBits) {
  using Result = Expected<RescaleChainInfo>;
  std::vector<std::vector<int>> Chains;
  std::vector<char> HasChain;
  RescaleChainInfo Info;
  if (Status S = computeChains(P, SfBits, Chains, HasChain, Info); !S.ok())
    return Result(S);
  return Info;
}

Status eva::validateScales(Program &P) { return computeScales(P, nullptr); }

Status eva::validateNumPolynomials(const Program &P) {
  return computeNumPolys(P, nullptr);
}

NoiseEstimate eva::estimateNoise(const Program &P, uint64_t PolyDegree) {
  return computeNoise(P, PolyDegree, nullptr);
}

Expected<ParameterSelection> eva::selectParameters(const Program &P,
                                                   const AnalysisResult &AR,
                                                   int SfBits,
                                                   int MinPrimeBits,
                                                   SecurityLevel Security) {
  return selectParameters(P, AR.Chains, SfBits, MinPrimeBits, Security);
}

std::map<uint64_t, size_t>
eva::selectRotationKeyPrimes(const Program &P, const AnalysisResult &AR,
                             size_t DataPrimes) {
  std::map<uint64_t, size_t> Primes;
  for (const Node *N : P.nodes()) {
    if (!isRotation(N->op()) || !N->isCipher())
      continue;
    uint64_t Step = normalizedLeftSteps(N, P.vecSize());
    // A rotation keeps its operand's primes: the data chain less those the
    // rescales and modswitches above it consumed.
    size_t Consumed = static_cast<size_t>(std::max(AR.Level[N->id()], 0));
    if (Step == 0 || Consumed >= DataPrimes)
      continue;
    size_t &Max = Primes[Step];
    Max = std::max(Max, DataPrimes - Consumed);
  }
  return Primes;
}

//===----------------------------------------------------------------------===
// The unified analyzer
//===----------------------------------------------------------------------===

Expected<AnalysisResult> eva::analyzeProgram(Program &P,
                                             const AnalysisOptions &O) {
  using Result = Expected<AnalysisResult>;
  AnalysisResult AR;
  const uint64_t MaxId = P.maxNodeId();

  std::vector<std::vector<int>> Chains;
  std::vector<char> HasChain;
  if (Status S = computeChains(P, O.SfBits, Chains, HasChain, AR.Chains);
      !S.ok())
    return Result(S);
  if (Status S = computeScales(P, &AR.LogScale); !S.ok())
    return Result(S);
  if (Status S = computeNumPolys(P, &AR.NumPolys); !S.ok())
    return Result(S);

  // Level = consumed-prime count, read off the chain length.
  AR.Level.assign(MaxId, -1);
  for (const Node *N : P.nodes())
    if (HasChain[N->id()])
      AR.Level[N->id()] = static_cast<int>(Chains[N->id()].size());

  // Magnitude, multiplicative depth, and input provenance in one walk.
  AR.MagBits.assign(MaxId, 0.0);
  AR.MultDepth.assign(MaxId, 0);
  AR.HasInputAncestor.assign(MaxId, 0);
  AR.HasCipherInputAncestor.assign(MaxId, 0);
  auto MaxPlus = [](double A, double B) {
    double Hi = std::max(A, B), Lo = std::min(A, B);
    return Hi + std::log2(1.0 + std::exp2(std::max(Lo - Hi, -50.0)));
  };
  for (const Node *N : P.forwardOrder()) {
    double Mag = 0.0;
    size_t Depth = 0;
    char HasIn = 0, HasCipherIn = 0;
    for (const Node *Parm : N->parms()) {
      Depth = std::max(Depth, AR.MultDepth[Parm->id()]);
      HasIn |= AR.HasInputAncestor[Parm->id()];
      HasCipherIn |= AR.HasCipherInputAncestor[Parm->id()];
    }
    switch (N->op()) {
    case OpCode::Input:
      Mag = 0.0; // the model's |m| <= 1 assumption
      HasIn = 1;
      HasCipherIn = N->isCipher();
      break;
    case OpCode::Constant: {
      double MaxAbs = N->constPayload().MaxAbs;
      Mag = MaxAbs > 0.0 ? std::log2(MaxAbs) : -300.0;
      break;
    }
    case OpCode::Add:
    case OpCode::Sub:
      Mag = MaxPlus(AR.MagBits[N->parm(0)->id()],
                    AR.MagBits[N->parm(1)->id()]);
      break;
    case OpCode::Multiply:
      Mag = AR.MagBits[N->parm(0)->id()] + AR.MagBits[N->parm(1)->id()];
      ++Depth;
      break;
    default:
      Mag = AR.MagBits[N->parm(0)->id()];
      break;
    }
    AR.MagBits[N->id()] = Mag;
    AR.MultDepth[N->id()] = Depth;
    AR.HasInputAncestor[N->id()] = HasIn;
    AR.HasCipherInputAncestor[N->id()] = HasCipherIn;
  }

  if (O.PolyDegree != 0)
    AR.OutputNoise = computeNoise(P, O.PolyDegree, &AR.NoiseBits);
  return AR;
}
