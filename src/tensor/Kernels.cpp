//===- Kernels.cpp - Homomorphic tensor kernels --------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/tensor/Kernels.h"

#include "eva/support/BitOps.h"

#include <algorithm>
#include <map>

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

} // namespace

CipherTensor eva::conv2d(ProgramBuilder &B, const CipherTensor &In,
                         const Tensor &Weights, const Tensor &Bias,
                         size_t Stride, bool SamePad,
                         const TensorScales &Scales) {
  return B.inKernel([&]() -> CipherTensor {
    const CipherLayout &L = In.Layout;
    size_t Ci = Weights.dims()[1], Co = Weights.dims()[0];
    size_t Kh = Weights.dims()[2], Kw = Weights.dims()[3];
    assert(Ci == L.C && "input channel mismatch");
    size_t PadY = SamePad ? Kh / 2 : 0;
    size_t PadX = SamePad ? Kw / 2 : 0;

    CipherLayout Out = L;
    Out.C = Co;
    Out.H = SamePad ? (L.H + Stride - 1) / Stride : (L.H - Kh) / Stride + 1;
    Out.W = SamePad ? (L.W + Stride - 1) / Stride : (L.W - Kw) / Stride + 1;
    Out.StrideY = L.StrideY * Stride;
    Out.StrideX = L.StrideX * Stride;
    assert(Out.slotExtent() <= B.vecSize() &&
           "output tensor does not fit the ciphertext");

    // Group taps by rotation offset: input slot minus output slot is
    // independent of the output position, so each (ci - co, ky, kx) class
    // shares one rotation, and all its weights merge into one mask. The
    // offset is kept as a (channel shift, spatial shift) pair: rotations
    // compose, so realizing them in two levels shares Galois keys across the
    // product of the two sets — O(Ci + Co + Kh*Kw) keys instead of
    // O((Ci + Co) * Kh * Kw).
    size_t M = B.vecSize();
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
    assert(Acc.valid() && "convolution with all-zero weights");

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

Expr eva::rotationTreeSum(ProgramBuilder &B, Expr V, size_t Span) {
  size_t M = B.vecSize();
  Span = std::min(Span, static_cast<size_t>(M));
  Expr T = V;
  for (size_t Step = 1; Step < Span; Step <<= 1)
    T = T + (T << static_cast<int32_t>(Step));
  return T;
}

CipherTensor eva::matVecBsgs(ProgramBuilder &B, const CipherTensor &In,
                             const Tensor &Weights, const Tensor &Bias,
                             const TensorScales &Scales) {
  return B.inKernel([&]() -> CipherTensor {
    const CipherLayout &L = In.Layout;
    size_t NOut = Weights.dims()[0], NIn = Weights.dims()[1];
    assert(L.GridH == L.H && L.GridW == L.W && L.StrideY == 1 &&
           L.StrideX == 1 && "BSGS matvec needs a dense layout");
    assert(NIn == L.logicalSize() && "dense layer input size mismatch");
    (void)L, (void)NIn; // assert-only in Release
    size_t M = B.vecSize();
    assert(NOut <= M && "too many outputs for the ciphertext");

    // The matrix as cyclic diagonals over the full vector:
    //   y[k] = sum_d diag_d[k] * x[(k+d) mod M],
    //   diag_d[k] = W[k][(k+d) mod M]  (zero-padded outside Out x In).
    // Columns >= NIn carry zero weight, so garbage slots of x never leak,
    // and rows >= NOut are zero, so only k < NOut is ever visited.

    // Baby-step–giant-step split d = GJ + I (BS ~ sqrt(M)): the BS baby
    // rotations all rotate the input ciphertext itself — one hoist batch
    // sharing a single key-switch decomposition at run time — while the
    // giant steps rotate each block's partial sum:
    //   y = sum_j rot_{GJ}( sum_i rot_{-GJ}(diag_{GJ+i}) o rot_i(x) )
    // where the giant-step pre-rotation of the diagonal is free (plaintext).
    size_t BS = 1;
    while (BS * BS < M)
      BS <<= 1;
    RotationCache Rot(B, In.Value);
    Expr Acc;
    // One zeroed buffer serves every diagonal: each fills only the slots it
    // touches and clears them again after its constant is copied out.
    std::vector<double> Mask(M, 0.0);
    std::vector<size_t> Touched;
    Touched.reserve(NOut);
    for (size_t GJ = 0; GJ < M; GJ += BS) {
      Expr Inner;
      for (size_t I = 0; I < BS && GJ + I < M; ++I) {
        size_t D = GJ + I;
        for (size_t K = 0; K < NOut; ++K) {
          size_t C = (K + D) % M;
          if (C >= NIn)
            continue;
          double W = Weights.at2(K, C);
          if (W == 0.0)
            continue;
          size_t Slot = (K + GJ) % M; // rot_{-GJ}(diag)
          Mask[Slot] = W;
          Touched.push_back(Slot);
        }
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
      accumulate(Acc, GJ == 0 ? Inner
                              : (Inner << static_cast<int32_t>(GJ)));
    }
    assert(Acc.valid() && "dense layer with all-zero weights");

    if (Bias.size() > 0) {
      std::vector<double> BiasVec(M, 0.0);
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
  });
}

CipherTensor eva::fullyConnected(ProgramBuilder &B, const CipherTensor &In,
                                 const Tensor &Weights, const Tensor &Bias,
                                 const TensorScales &Scales) {
  // Dense inputs (logical element j at slot j) take the BSGS diagonal
  // kernel: O(sqrt(M)) hoistable rotations instead of O(Out * log M)
  // unshared ones.
  const CipherLayout &Lin = In.Layout;
  if (Lin.GridH == Lin.H && Lin.GridW == Lin.W && Lin.StrideY == 1 &&
      Lin.StrideX == 1)
    return matVecBsgs(B, In, Weights, Bias, Scales);

  return B.inKernel([&]() -> CipherTensor {
    const CipherLayout &L = In.Layout;
    size_t NOut = Weights.dims()[0], NIn = Weights.dims()[1];
    assert(NIn == L.logicalSize() && "dense layer input size mismatch");
    (void)NIn; // assert-only in Release
    size_t M = B.vecSize();
    assert(NOut <= M && "too many outputs for the ciphertext");

    Expr Acc;
    for (size_t O = 0; O < NOut; ++O) {
      // Weight mask over the (possibly strided) input layout.
      std::vector<double> WMask(M, 0.0);
      size_t Flat = 0;
      for (size_t C = 0; C < L.C; ++C)
        for (size_t Y = 0; Y < L.H; ++Y)
          for (size_t X = 0; X < L.W; ++X)
            WMask[L.slotOf(C, Y, X)] += Weights.at2(O, Flat++);
      if (allZero(WMask))
        continue;
      // Full rotate-and-add tree: every slot ends up holding the complete
      // dot product, so no placement rotation is needed and the only Galois
      // keys are the log2(M) powers of two (shared program-wide).
      Expr T = rotationTreeSum(
          B, In.Value * B.constantVector(WMask, Scales.Vector), M);
      std::vector<double> Sel(M, 0.0);
      Sel[O] = 1.0;
      accumulate(Acc, T * B.constantVector(Sel, Scales.Vector));
    }
    assert(Acc.valid() && "dense layer with all-zero weights");

    if (Bias.size() > 0) {
      std::vector<double> BiasVec(M, 0.0);
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
  });
}

CipherTensor eva::concatChannels(ProgramBuilder &B, const CipherTensor &A,
                                 const CipherTensor &B2,
                                 const TensorScales &Scales) {
  return B.inKernel([&]() -> CipherTensor {
    const CipherLayout &LA = A.Layout;
    const CipherLayout &LB = B2.Layout;
    assert(LA.GridH == LB.GridH && LA.GridW == LB.GridW &&
           LA.StrideY == LB.StrideY && LA.StrideX == LB.StrideX &&
           LA.H == LB.H && LA.W == LB.W && "concat layout mismatch");
    size_t M = B.vecSize();
    CipherLayout Out = LA;
    Out.C = LA.C + LB.C;
    assert(Out.slotExtent() <= M && "concat result does not fit");

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
