//===- workloads.h - The four evabench workloads ----------------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload makes its inputs from the seed, sets up (timed), measures
/// ops for Options::Seconds, checks every output, and fills the report:
/// end-to-end metrics when untraced, per-layer metrics when traced.
///
//===----------------------------------------------------------------------===//

#ifndef EVABENCH_WORKLOADS_H
#define EVABENCH_WORKLOADS_H

#include "harness.h"

namespace evabench {

void runCompileZoo(const Options &O, Report &R, Tracer &T);
void runLenetInfer(const Options &O, Report &R, Tracer &T);
void runImageApps(const Options &O, Report &R, Tracer &T);
void runServiceMixed(const Options &O, Report &R, Tracer &T);

} // namespace evabench

#endif // EVABENCH_WORKLOADS_H
