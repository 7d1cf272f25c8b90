//===- eva/tensor/Kernels.h - Homomorphic tensor kernels --------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library of vectorized tensor kernels the DNN frontend lowers to
/// (Section 7.2): each kernel emits plain EVA instructions (rotations,
/// plaintext-mask multiplies, additions) over a single ciphertext holding a
/// CHW-flattened tensor — the CHW data layout the paper's evaluation uses
/// for both CHET and EVA. Kernels tag the nodes they emit with a kernel id,
/// which the CHET-style bulk-synchronous executor uses as barrier
/// boundaries.
///
/// Layout: pixel (c, y, x) of a tensor with logical dims (C, H, W) lives at
/// slot c*GridH*GridW + y*StrideY*GridW + x*StrideX. Strided convolutions
/// and pools leave values in place on the original grid and dilate the
/// strides (CHET's strided layouts); masks carry the weights and zero out
/// the garbage slots in between.
///
/// Every kernel checks its shapes (channels, weight widths, bias lengths,
/// layouts fitting vec_size) with fatalError in every build mode.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_TENSOR_KERNELS_H
#define EVA_TENSOR_KERNELS_H

#include "eva/frontend/Expr.h"
#include "eva/tensor/Tensor.h"

#include <map>

namespace eva {

/// Where a tensor's elements sit in the ciphertext's vec_size slots.
///
/// Slot contract: the slots a layout names (slotOf over its logical dims)
/// hold the tensor; every other slot is unspecified and may hold garbage
/// (partial sums, copies of outputs). Every kernel reads only its input
/// layout's slots — masks and diagonals give all other slots zero weight —
/// so a kernel may leave anything outside its output layout.
struct CipherLayout {
  size_t C = 0, H = 0, W = 0;      ///< logical tensor dims
  size_t GridH = 0, GridW = 0;     ///< physical grid per channel
  size_t StrideY = 1, StrideX = 1; ///< grid steps between logical pixels

  size_t slotOf(size_t Ch, size_t Y, size_t X) const {
    return Ch * GridH * GridW + Y * StrideY * GridW + X * StrideX;
  }
  size_t channelStride() const { return GridH * GridW; }
  size_t slotExtent() const { return C * GridH * GridW; }
  size_t logicalSize() const { return C * H * W; }
  /// Logical element j (flattened CHW) sits at slot j.
  bool dense() const {
    return GridH == H && GridW == W && StrideY == 1 && StrideX == 1;
  }

  static CipherLayout forImage(size_t C, size_t H, size_t W) {
    CipherLayout L;
    L.C = C;
    L.H = L.GridH = H;
    L.W = L.GridW = W;
    return L;
  }
};

/// Scale configuration shared by all kernels (the Table 4 "input scales";
/// the Vector default follows the LeNet-5-large row — with fan-in-scaled
/// random weights the 2^-15 mask quantization of the smaller setting
/// dominates the score gaps, see EXPERIMENTS.md).
struct TensorScales {
  double Cipher = 25; ///< encrypted image
  double Vector = 20; ///< weight/mask vectors
  double Scalar = 10; ///< scalar constants
  double Output = 30; ///< desired output scale
};

/// A tensor value under construction: expression plus layout.
struct CipherTensor {
  Expr Value;
  CipherLayout Layout;
};

/// Emits one convolution kernel. Weights: (Co, Ci, Kh, Kw); optional Bias:
/// (Co). Rotations are cached by offset, so the rotation count is
/// O((Ci + Co) * Kh * Kw) rather than O(Ci * Co * Kh * Kw).
CipherTensor conv2d(ProgramBuilder &B, const CipherTensor &In,
                    const Tensor &Weights, const Tensor &Bias, size_t Stride,
                    bool SamePad, const TensorScales &Scales);

/// KxK average pooling with stride (valid windows only).
CipherTensor avgPool2d(ProgramBuilder &B, const CipherTensor &In, size_t K,
                       size_t Stride, const TensorScales &Scales);

/// Elementwise x^2 (the FHE-compatible activation the paper's networks
/// use in place of ReLU).
CipherTensor squareActivation(ProgramBuilder &B, const CipherTensor &In);

/// Elementwise a*x^2 + b*x polynomial activation.
CipherTensor polyActivation(ProgramBuilder &B, const CipherTensor &In,
                            double A2, double A1, const TensorScales &Scales);

/// Rotation-tree reduction: returns an expression whose every slot k holds
/// the cyclic sum of the \p Span slots k, k + Stride, ..., k + (Span - 1) *
/// Stride of \p V (Span is rounded up to a power of two; Span * Stride >=
/// vec_size sums every slot congruent to k mod Stride). \p Stride is a power
/// of two. Emits log2(Span) rotations, by Stride, 2 * Stride, ... — the
/// log-depth tree the strided dense layer's class sum uses (Stride = NP)
/// and the rotation bench's per-output baseline uses (Stride = 1).
Expr rotationTreeSum(ProgramBuilder &B, Expr V, size_t Span,
                     size_t Stride = 1);

/// Baby-step–giant-step diagonal matvec y = Wx + b over a *dense* layout
/// (logical element j at slot j): the matrix is consumed as cyclic
/// diagonals over the whole vector, the O(sqrt(vec_size)) baby rotations
/// all rotate the input ciphertext itself — one hoist batch sharing a single
/// key-switch decomposition — and only the O(sqrt(vec_size)) giant steps pay
/// their own decompositions. Weights: (Out, In); In must equal the layout's
/// logical size, and columns >= In get zero weight. Output layout is dense;
/// slots >= Out hold about 0.
CipherTensor matVecBsgs(ProgramBuilder &B, const CipherTensor &In,
                        const Tensor &Weights, const Tensor &Bias,
                        const TensorScales &Scales);

/// Dense layer y = Wx + b; Weights: (Out, In) over the flattened logical
/// CHW input. Output layout is dense: element o at slot o. Dense inputs take
/// matVecBsgs. Any other layout takes Gazelle's hybrid product generalized
/// to slot positions: with NP the smallest power of two >= Out, the NP
/// diagonals place each W[o][j] * x[s_j] in a slot congruent to o mod NP
/// (O(sqrt(NP)) rotations, the baby steps one hoist batch), and a tree of
/// log2(vec_size / NP) rotations by NP, 2 NP, ... sums each residue class.
/// One plaintext multiply deep; slots >= Out hold copies of outputs or
/// about 0, which the slot contract leaves unspecified.
CipherTensor fullyConnected(ProgramBuilder &B, const CipherTensor &In,
                            const Tensor &Weights, const Tensor &Bias,
                            const TensorScales &Scales);

/// Concatenates B2 after B1 along channels (same grid and strides).
CipherTensor concatChannels(ProgramBuilder &B, const CipherTensor &A,
                            const CipherTensor &B2,
                            const TensorScales &Scales);

} // namespace eva

#endif // EVA_TENSOR_KERNELS_H
