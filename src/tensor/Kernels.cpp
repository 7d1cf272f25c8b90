//===- Kernels.cpp - Homomorphic tensor kernels --------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/tensor/Kernels.h"

#include "eva/support/Common.h"

#include <map>
#include <string>

using namespace eva;

namespace {

/// Rotation cache: one ROTATELEFT node per distinct offset per kernel.
class RotationCache {
public:
  RotationCache(ProgramBuilder &B, Expr Base) : B(B), Base(Base) {}

  Expr get(int64_t Offset) {
    int64_t M = static_cast<int64_t>(B.vecSize());
    int64_t Norm = ((Offset % M) + M) % M;
    if (Norm == 0)
      return Base;
    auto It = Cache.find(Norm);
    if (It != Cache.end())
      return It->second;
    Expr R = Base << static_cast<int32_t>(Norm);
    Cache.emplace(Norm, R);
    return R;
  }

private:
  ProgramBuilder &B;
  Expr Base;
  std::map<int64_t, Expr> Cache;
};

/// Accumulates `acc = acc + term` with empty-initial handling.
void accumulate(Expr &Acc, Expr Term) { Acc = Acc.valid() ? Acc + Term : Term; }

bool allZero(const std::vector<double> &V) {
  for (double X : V)
    if (X != 0.0)
      return false;
  return true;
}

/// Kernel shape checks run in every build mode: a compiled-out assert would
/// let a Release build write masks past vec_size or read past the weights.
void shapeError(const char *Kernel, const std::string &What) {
  fatalError(std::string(Kernel) + ": " + What);
}

/// "CxHxW on a GHxGW grid, strides SYxSX".
std::string layoutText(const CipherLayout &L) {
  auto N = [](size_t V) { return std::to_string(V); };
  return N(L.C) + "x" + N(L.H) + "x" + N(L.W) + " on a " + N(L.GridH) + "x" +
         N(L.GridW) + " grid, strides " + N(L.StrideY) + "x" + N(L.StrideX);
}

void checkFits(const char *Kernel, const char *What, const CipherLayout &L,
               size_t M) {
  if (L.slotExtent() > M)
    shapeError(Kernel, std::string(What) + " spans " +
                           std::to_string(L.slotExtent()) +
                           " slots, past vec_size " + std::to_string(M));
}

/// The checks fullyConnected and matVecBsgs share: (NOut, NIn) weights over
/// the input's logical size, an optional bias of NOut, and NOut <= vec_size.
void checkDenseLayer(const char *Kernel, const CipherLayout &L,
                     const Tensor &Weights, const Tensor &Bias, size_t M) {
  if (Weights.dims().size() != 2)
    shapeError(Kernel, "weights have " + std::to_string(Weights.dims().size()) +
                           " dims, not 2 (NOut, NIn)");
  size_t NOut = Weights.dims()[0], NIn = Weights.dims()[1];
  if (NIn != L.logicalSize())
    shapeError(Kernel, "weights expect " + std::to_string(NIn) +
                           " inputs but the input tensor has " +
                           std::to_string(L.logicalSize()));
  if (NOut > M)
    shapeError(Kernel, std::to_string(NOut) + " outputs exceed vec_size " +
                           std::to_string(M));
  if (Bias.size() > 0 && Bias.size() != NOut)
    shapeError(Kernel, "bias has " + std::to_string(Bias.size()) +
                           " entries for " + std::to_string(NOut) + " outputs");
  checkFits(Kernel, "input layout", L, M);
}

} // namespace

CipherTensor eva::conv2d(ProgramBuilder &B, const CipherTensor &In,
                         const Tensor &Weights, const Tensor &Bias,
                         size_t Stride, bool SamePad,
                         const TensorScales &Scales) {
  return B.inKernel([&]() -> CipherTensor {
    const CipherLayout &L = In.Layout;
    if (Weights.dims().size() != 4)
      shapeError("conv2d", "weights have " +
                               std::to_string(Weights.dims().size()) +
                               " dims, not 4 (Co, Ci, Kh, Kw)");
    size_t Ci = Weights.dims()[1], Co = Weights.dims()[0];
    size_t Kh = Weights.dims()[2], Kw = Weights.dims()[3];
    size_t M = B.vecSize();
    if (Ci != L.C)
      shapeError("conv2d", "input has " + std::to_string(L.C) +
                               " channels but the weights expect " +
                               std::to_string(Ci));
    if (!SamePad && (Kh > L.H || Kw > L.W))
      shapeError("conv2d", "a " + std::to_string(Kh) + "x" +
                               std::to_string(Kw) +
                               " valid convolution over a " +
                               layoutText(L) + " input");
    if (Bias.size() > 0 && Bias.size() != Co)
      shapeError("conv2d", "bias has " + std::to_string(Bias.size()) +
                               " entries for " + std::to_string(Co) +
                               " channels");
    checkFits("conv2d", "input layout", L, M);
    size_t PadY = SamePad ? Kh / 2 : 0;
    size_t PadX = SamePad ? Kw / 2 : 0;

    CipherLayout Out = L;
    Out.C = Co;
    Out.H = SamePad ? (L.H + Stride - 1) / Stride : (L.H - Kh) / Stride + 1;
    Out.W = SamePad ? (L.W + Stride - 1) / Stride : (L.W - Kw) / Stride + 1;
    Out.StrideY = L.StrideY * Stride;
    Out.StrideX = L.StrideX * Stride;
    checkFits("conv2d", "output", Out, M);

    // Group taps by rotation offset: input slot minus output slot is
    // independent of the output position, so each (ci - co, ky, kx) class
    // shares one rotation, and all its weights merge into one mask. The
    // offset is kept as a (channel shift, spatial shift) pair: rotations
    // compose, so realizing them in two levels shares Galois keys across the
    // product of the two sets — O(Ci + Co + Kh*Kw) keys instead of
    // O((Ci + Co) * Kh * Kw).
    int64_t CS = static_cast<int64_t>(L.channelStride());
    std::map<std::pair<int64_t, int64_t>, std::vector<double>> Masks;
    for (size_t O = 0; O < Co; ++O) {
      for (size_t I = 0; I < Ci; ++I) {
        for (size_t Ky = 0; Ky < Kh; ++Ky) {
          for (size_t Kx = 0; Kx < Kw; ++Kx) {
            double Wt = Weights.at4(O, I, Ky, Kx);
            if (Wt == 0.0)
              continue;
            int64_t ChanShift =
                (static_cast<int64_t>(I) - static_cast<int64_t>(O)) * CS;
            int64_t SpatialShift =
                (static_cast<int64_t>(Ky) - static_cast<int64_t>(PadY)) *
                    static_cast<int64_t>(L.StrideY * L.GridW) +
                (static_cast<int64_t>(Kx) - static_cast<int64_t>(PadX)) *
                    static_cast<int64_t>(L.StrideX);
            std::vector<double> &Mask = Masks[{ChanShift, SpatialShift}];
            if (Mask.empty())
              Mask.assign(M, 0.0);
            for (size_t Oy = 0; Oy < Out.H; ++Oy) {
              for (size_t Ox = 0; Ox < Out.W; ++Ox) {
                int64_t SrcY = static_cast<int64_t>(Oy * Stride + Ky) -
                               static_cast<int64_t>(PadY);
                int64_t SrcX = static_cast<int64_t>(Ox * Stride + Kx) -
                               static_cast<int64_t>(PadX);
                if (SrcY < 0 || SrcX < 0 ||
                    SrcY >= static_cast<int64_t>(L.H) ||
                    SrcX >= static_cast<int64_t>(L.W))
                  continue;
                Mask[Out.slotOf(O, Oy, Ox)] += Wt;
              }
            }
          }
        }
      }
    }

    RotationCache ChanRot(B, In.Value);
    std::map<int64_t, RotationCache> SpatialRot;
    Expr Acc;
    for (auto &[Shifts, Mask] : Masks) {
      if (allZero(Mask))
        continue;
      auto [ChanShift, SpatialShift] = Shifts;
      auto It = SpatialRot.find(ChanShift);
      if (It == SpatialRot.end())
        It = SpatialRot.emplace(ChanShift,
                                RotationCache(B, ChanRot.get(ChanShift)))
                 .first;
      Expr Term = It->second.get(SpatialShift) *
                  B.constantVector(Mask, Scales.Vector);
      accumulate(Acc, Term);
    }
    if (!Acc.valid())
      shapeError("conv2d", "all weights are zero");

    if (Bias.size() > 0) {
      std::vector<double> BiasVec(M, 0.0);
      for (size_t O = 0; O < Co; ++O)
        for (size_t Oy = 0; Oy < Out.H; ++Oy)
          for (size_t Ox = 0; Ox < Out.W; ++Ox)
            BiasVec[Out.slotOf(O, Oy, Ox)] = Bias.at(O);
      Acc = Acc + B.constantVector(BiasVec, Scales.Vector);
    }
    return CipherTensor{Acc, Out};
  });
}

CipherTensor eva::avgPool2d(ProgramBuilder &B, const CipherTensor &In,
                            size_t K, size_t Stride,
                            const TensorScales &Scales) {
  return B.inKernel([&]() -> CipherTensor {
    const CipherLayout &L = In.Layout;
    CipherLayout Out = L;
    Out.H = (L.H - K) / Stride + 1;
    Out.W = (L.W - K) / Stride + 1;
    Out.StrideY = L.StrideY * Stride;
    Out.StrideX = L.StrideX * Stride;

    // All window taps are valid everywhere (valid pooling), so every tap
    // shares one global mask: sum the rotations first, scale once.
    RotationCache Rot(B, In.Value);
    Expr Acc;
    for (size_t Dy = 0; Dy < K; ++Dy) {
      for (size_t Dx = 0; Dx < K; ++Dx) {
        int64_t Offset =
            static_cast<int64_t>(Dy) *
                static_cast<int64_t>(L.StrideY * L.GridW) +
            static_cast<int64_t>(Dx) * static_cast<int64_t>(L.StrideX);
        accumulate(Acc, Rot.get(Offset));
      }
    }
    std::vector<double> Mask(B.vecSize(), 0.0);
    double Inv = 1.0 / static_cast<double>(K * K);
    for (size_t C = 0; C < Out.C; ++C)
      for (size_t Oy = 0; Oy < Out.H; ++Oy)
        for (size_t Ox = 0; Ox < Out.W; ++Ox)
          Mask[Out.slotOf(C, Oy, Ox)] = Inv;
    Expr Result = Acc * B.constantVector(Mask, Scales.Vector);
    return CipherTensor{Result, Out};
  });
}

CipherTensor eva::squareActivation(ProgramBuilder &B, const CipherTensor &In) {
  return B.inKernel([&]() -> CipherTensor {
    return CipherTensor{In.Value * In.Value, In.Layout};
  });
}

CipherTensor eva::polyActivation(ProgramBuilder &B, const CipherTensor &In,
                                 double A2, double A1,
                                 const TensorScales &Scales) {
  return B.inKernel([&]() -> CipherTensor {
    Expr X2 = In.Value * In.Value;
    Expr R = X2 * B.constant(A2, Scales.Scalar) +
             In.Value * B.constant(A1, Scales.Scalar);
    return CipherTensor{R, In.Layout};
  });
}

Expr eva::rotationTreeSum(ProgramBuilder &B, Expr V, size_t Span,
                          size_t Stride) {
  size_t M = B.vecSize();
  size_t End = Span >= M / Stride ? M : Span * Stride;
  Expr T = V;
  for (size_t Step = Stride; Step < End; Step <<= 1)
    T = T + (T << static_cast<int32_t>(Step));
  return T;
}

namespace {

/// sum_{d < Diagonals} diag_d o rot_d(X) as a baby-step–giant-step sum,
/// d = G + I with I < BS, BS the smallest power of two with BS^2 >=
/// Diagonals:
///   sum_G rot_G( sum_I rot_{-G}(diag_{G+I}) o rot_I(X) ).
/// The BS - 1 baby rotations all rotate X itself — one hoist batch sharing a
/// single key-switch decomposition at run time — and the giant steps rotate
/// each block's partial sum. Fill(G, I, Set) writes diagonal G + I,
/// pre-rotated by -G (plaintext, so free), through Set(Slot, Weight); a
/// diagonal that sets nothing is skipped. Returns an invalid Expr when every
/// diagonal is empty.
template <typename FillFn>
Expr babyGiantSum(ProgramBuilder &B, Expr X, size_t Diagonals,
                  const TensorScales &Scales, FillFn &&Fill) {
  size_t BS = 1;
  while (BS * BS < Diagonals)
    BS <<= 1;
  RotationCache Rot(B, X);
  Expr Acc;
  // One zeroed buffer serves every diagonal: each fills only the slots it
  // touches and clears them again after its constant is copied out.
  std::vector<double> Mask(B.vecSize(), 0.0);
  std::vector<size_t> Touched;
  auto Set = [&](size_t Slot, double W) {
    Mask[Slot] = W;
    Touched.push_back(Slot);
  };
  for (size_t G = 0; G < Diagonals; G += BS) {
    Expr Inner;
    for (size_t I = 0; I < BS && G + I < Diagonals; ++I) {
      Fill(G, I, Set);
      if (Touched.empty())
        continue;
      accumulate(Inner, Rot.get(static_cast<int64_t>(I)) *
                            B.constantVector(Mask, Scales.Vector));
      for (size_t Slot : Touched)
        Mask[Slot] = 0.0;
      Touched.clear();
    }
    if (!Inner.valid())
      continue;
    accumulate(Acc, G == 0 ? Inner : (Inner << static_cast<int32_t>(G)));
  }
  return Acc;
}

/// A dense layer's result: bias b_o added at slot o, dense output layout.
CipherTensor denseOutput(ProgramBuilder &B, Expr Acc, const Tensor &Bias,
                         size_t NOut, const TensorScales &Scales) {
  if (Bias.size() > 0) {
    std::vector<double> BiasVec(B.vecSize(), 0.0);
    for (size_t O = 0; O < NOut; ++O)
      BiasVec[O] = Bias.at(O);
    Acc = Acc + B.constantVector(BiasVec, Scales.Vector);
  }
  CipherLayout Out;
  Out.C = NOut;
  Out.H = Out.W = 1;
  Out.GridH = Out.GridW = 1;
  Out.StrideY = Out.StrideX = 1;
  return CipherTensor{Acc, Out};
}

} // namespace

CipherTensor eva::matVecBsgs(ProgramBuilder &B, const CipherTensor &In,
                             const Tensor &Weights, const Tensor &Bias,
                             const TensorScales &Scales) {
  return B.inKernel([&]() -> CipherTensor {
    const CipherLayout &L = In.Layout;
    size_t M = B.vecSize();
    if (!L.dense())
      shapeError("matVecBsgs", "needs a dense input layout (element j at "
                               "slot j); use fullyConnected");
    checkDenseLayer("matVecBsgs", L, Weights, Bias, M);
    size_t NOut = Weights.dims()[0], NIn = Weights.dims()[1];

    // The matrix as cyclic diagonals over the full vector:
    //   y[k] = sum_d diag_d[k] * x[(k+d) mod M],
    //   diag_d[k] = W[k][(k+d) mod M]  (zero-padded outside Out x In).
    // Columns >= NIn carry zero weight, so garbage slots of x never leak,
    // and rows >= NOut are zero, so only k < NOut is ever visited.
    Expr Acc = babyGiantSum(
        B, In.Value, M, Scales, [&](size_t G, size_t I, auto &&Set) {
          for (size_t K = 0; K < NOut; ++K) {
            size_t C = (K + G + I) % M;
            if (C >= NIn)
              continue;
            double W = Weights.at2(K, C);
            if (W != 0.0)
              Set((K + G) % M, W); // rot_{-G}(diag)
          }
        });
    if (!Acc.valid())
      shapeError("matVecBsgs", "all weights are zero");
    return denseOutput(B, Acc, Bias, NOut, Scales);
  });
}

CipherTensor eva::fullyConnected(ProgramBuilder &B, const CipherTensor &In,
                                 const Tensor &Weights, const Tensor &Bias,
                                 const TensorScales &Scales) {
  if (In.Layout.dense())
    return matVecBsgs(B, In, Weights, Bias, Scales);

  return B.inKernel([&]() -> CipherTensor {
    const CipherLayout &L = In.Layout;
    size_t M = B.vecSize();
    checkDenseLayer("fullyConnected", L, Weights, Bias, M);
    size_t NOut = Weights.dims()[0], NIn = Weights.dims()[1];

    // Gazelle's hybrid product over an arbitrary layout. Input element j
    // (flattened CHW) lives at slot s_j. With NP the smallest power of two
    // >= NOut, product W[o][j] * x[s_j] goes through diagonal
    // d = (s_j - o) mod NP into slot t = (s_j - d) mod M, so t = o (mod NP)
    // and every (o, j) pair lands exactly once:
    //   z = sum_{d < NP} diag_d o rot_d(x),   diag_d[t] = W[o][j].
    // A tree of stride NP then sums each residue class mod NP, leaving y_o
    // in slot o (and in every slot t with t mod NP = o). Slots whose class
    // is >= NOut hold about 0; no kernel reads either kind (the slot
    // contract on CipherLayout), so no selection multiply is needed and the
    // layer costs one plaintext multiply of depth.
    size_t NP = 1;
    while (NP < NOut)
      NP <<= 1;
    // Inputs bucketed by slot mod NP: diagonal d reads, for each output o,
    // exactly the inputs in bucket (o + d) mod NP.
    std::vector<size_t> SlotOf;
    SlotOf.reserve(NIn);
    std::vector<std::vector<size_t>> ByResidue(NP);
    for (size_t C = 0; C < L.C; ++C)
      for (size_t Y = 0; Y < L.H; ++Y)
        for (size_t X = 0; X < L.W; ++X) {
          size_t S = L.slotOf(C, Y, X);
          ByResidue[S % NP].push_back(SlotOf.size());
          SlotOf.push_back(S);
        }

    // Pre-rotated by -G, diagonal G + I puts W[o][j] at slot (s_j - I) mod M.
    Expr Acc = babyGiantSum(
        B, In.Value, NP, Scales, [&](size_t G, size_t I, auto &&Set) {
          for (size_t O = 0; O < NOut; ++O)
            for (size_t J : ByResidue[(O + G + I) % NP]) {
              double W = Weights.at2(O, J);
              if (W != 0.0)
                Set((SlotOf[J] + M - I) % M, W);
            }
        });
    if (!Acc.valid())
      shapeError("fullyConnected", "all weights are zero");
    return denseOutput(B, rotationTreeSum(B, Acc, M / NP, NP), Bias, NOut,
                       Scales);
  });
}

CipherTensor eva::concatChannels(ProgramBuilder &B, const CipherTensor &A,
                                 const CipherTensor &B2,
                                 const TensorScales &Scales) {
  return B.inKernel([&]() -> CipherTensor {
    const CipherLayout &LA = A.Layout;
    const CipherLayout &LB = B2.Layout;
    if (LA.GridH != LB.GridH || LA.GridW != LB.GridW ||
        LA.StrideY != LB.StrideY || LA.StrideX != LB.StrideX ||
        LA.H != LB.H || LA.W != LB.W)
      shapeError("concatChannels", "layouts differ beyond channels: " +
                                       layoutText(LA) + " vs " +
                                       layoutText(LB));
    size_t M = B.vecSize();
    CipherLayout Out = LA;
    Out.C = LA.C + LB.C;
    checkFits("concatChannels", "result", Out, M);

    // Mask both inputs to their valid slots (garbage would otherwise leak
    // into the other's channel range), shift B2 up by A's channels.
    auto ValidMask = [&](const CipherLayout &L) {
      std::vector<double> Mask(M, 0.0);
      for (size_t C = 0; C < L.C; ++C)
        for (size_t Y = 0; Y < L.H; ++Y)
          for (size_t X = 0; X < L.W; ++X)
            Mask[L.slotOf(C, Y, X)] = 1.0;
      return Mask;
    };
    Expr MA = A.Value * B.constantVector(ValidMask(LA), Scales.Vector);
    Expr MB = B2.Value * B.constantVector(ValidMask(LB), Scales.Vector);
    int64_t Shift = static_cast<int64_t>(LA.C * LA.channelStride());
    Expr Shifted = MB >> static_cast<int32_t>(Shift);
    return CipherTensor{MA + Shifted, Out};
  });
}
