//===- apps.h - The Table 8 application programs ----------------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The six Table 8 programs written against the Expr frontend: 3-D path
/// length, linear / polynomial / multivariate regression, Sobel filtering
/// and Harris corner detection. Statement for statement the programs of
/// bench/table8_applications.cpp, so the benchmark times exactly the
/// programs that table reports.
///
//===----------------------------------------------------------------------===//

#ifndef EVABENCH_APPS_H
#define EVABENCH_APPS_H

#include "eva/frontend/Expr.h"
#include "eva/support/Random.h"

#include <memory>
#include <vector>

namespace evabench::apps {

inline eva::Expr sqrtPoly(eva::ProgramBuilder &B, eva::Expr X) {
  eva::Expr X2 = X * X;
  return X * B.constant(2.214, 30) + X2 * B.constant(-1.098, 30) +
         X2 * X * B.constant(0.173, 30);
}

inline std::unique_ptr<eva::Program> buildPathLength() {
  using eva::Expr;
  const uint64_t M = 4096;
  eva::ProgramBuilder B("path3d", M);
  Expr X = B.inputCipher("x", 30), Y = B.inputCipher("y", 30),
       Z = B.inputCipher("z", 30);
  Expr Dx = (X << 1) - X, Dy = (Y << 1) - Y, Dz = (Z << 1) - Z;
  Expr Len = sqrtPoly(B, Dx * Dx + Dy * Dy + Dz * Dz);
  std::vector<double> Valid(M, 1.0);
  Valid[M - 1] = 0.0;
  B.output("len", B.sumSlots(Len * B.constantVector(Valid, 30)), 30);
  return B.take();
}

inline std::unique_ptr<eva::Program> buildLinearRegression() {
  using eva::Expr;
  eva::ProgramBuilder B("linreg", 2048);
  Expr X = B.inputCipher("x", 30), Y = B.inputCipher("y", 30);
  Expr Inv = B.constant(1.0 / 1024.0, 30);
  Expr Sx = B.sumSlots(X) * Inv, Sy = B.sumSlots(Y) * Inv;
  Expr Sxy = B.sumSlots(X * Y) * Inv, Sxx = B.sumSlots(X * X) * Inv;
  Expr Cn = B.constant(2.0, 30);
  B.output("num", Sxy * Cn - Sx * Sy, 30);
  B.output("den", Sxx * Cn - Sx * Sx, 30);
  return B.take();
}

inline std::unique_ptr<eva::Program> buildPolyRegression() {
  using eva::Expr;
  eva::ProgramBuilder B("polyreg", 4096);
  Expr X = B.inputCipher("x", 30);
  Expr X2 = X * X;
  B.output("y",
           X2 * X * B.constant(0.3, 30) + X2 * B.constant(-0.5, 30) +
               X * B.constant(1.1, 30) + B.constant(0.25, 30),
           30);
  return B.take();
}

inline std::unique_ptr<eva::Program> buildMultivariateRegression() {
  using eva::Expr;
  const uint64_t Samples = 128, Features = 16;
  eva::ProgramBuilder B("multireg", Samples * Features);
  Expr X = B.inputCipher("x", 30);
  eva::RandomSource Rng(11);
  std::vector<double> W(Features * Samples);
  for (uint64_t F = 0; F < Features; ++F)
    for (uint64_t S = 0; S < Samples; ++S)
      W[F * Samples + S] = Rng.uniformReal(-1, 1);
  Expr Acc = X * B.constantVector(W, 30);
  for (uint64_t Step = Samples; Step < Samples * Features; Step <<= 1)
    Acc = Acc + (Acc << static_cast<int32_t>(Step));
  B.output("y", Acc, 30);
  return B.take();
}

inline std::unique_ptr<eva::Program> buildSobel() {
  using eva::Expr;
  const int W = 64;
  eva::ProgramBuilder B("sobel", W * W);
  Expr Image = B.inputCipher("image", 30);
  const double F[3][3] = {{-1, 0, 1}, {-2, 0, 2}, {-1, 0, 1}};
  Expr Ix, Iy;
  for (int I = 0; I < 3; ++I)
    for (int J = 0; J < 3; ++J) {
      Expr Rot = Image << (I * W + J);
      Expr H = Rot * B.constant(F[I][J], 30);
      Expr V = Rot * B.constant(F[J][I], 30);
      Ix = (I == 0 && J == 0) ? H : Ix + H;
      Iy = (I == 0 && J == 0) ? V : Iy + V;
    }
  B.output("edges", sqrtPoly(B, Ix * Ix + Iy * Iy), 30);
  return B.take();
}

inline std::unique_ptr<eva::Program> buildHarris() {
  using eva::Expr;
  const int W = 64;
  eva::ProgramBuilder B("harris", W * W);
  Expr Image = B.inputCipher("image", 30);
  const double F[3][3] = {{-1, 0, 1}, {-2, 0, 2}, {-1, 0, 1}};
  Expr Ix, Iy;
  for (int I = 0; I < 3; ++I)
    for (int J = 0; J < 3; ++J) {
      Expr Rot = Image << ((I - 1) * W + (J - 1));
      Expr H = Rot * B.constant(F[I][J] / 8.0, 30);
      Expr V = Rot * B.constant(F[J][I] / 8.0, 30);
      Ix = (I == 0 && J == 0) ? H : Ix + H;
      Iy = (I == 0 && J == 0) ? V : Iy + V;
    }
  auto Box = [&](Expr E) {
    Expr Acc;
    for (int Dy = -1; Dy <= 1; ++Dy)
      for (int Dx = -1; Dx <= 1; ++Dx) {
        Expr R = E << (Dy * W + Dx);
        Acc = (Dy == -1 && Dx == -1) ? R : Acc + R;
      }
    return Acc;
  };
  Expr Sxx = Box(Ix * Ix), Syy = Box(Iy * Iy), Sxy = Box(Ix * Iy);
  Expr Det = Sxx * Syy - Sxy * Sxy;
  Expr Tr = Sxx + Syy;
  B.output("resp", Det - Tr * Tr * B.constant(0.04, 30), 30);
  return B.take();
}

/// Table 8's rows, in the paper's order.
using ProgramFn = std::unique_ptr<eva::Program> (*)();
inline const std::vector<ProgramFn> &all() {
  static const std::vector<ProgramFn> Apps = {
      buildPathLength,
      buildLinearRegression,
      buildPolyRegression,
      buildMultivariateRegression,
      buildSobel,
      buildHarris,
  };
  return Apps;
}

} // namespace evabench::apps

#endif // EVABENCH_APPS_H
