//===- Compiler.cpp - The EVA compiler (Algorithm 1) --------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/core/Compiler.h"

#include "eva/core/Analysis.h"

using namespace eva;

Expected<CompiledProgram> eva::compile(const Program &Input,
                                       const CompilerOptions &Options) {
  using Result = Expected<CompiledProgram>;

  // Reject inputs that already contain compiler-inserted instructions
  // (Table 2's "Not in input" restriction).
  for (const Node *N : Input.nodes())
    if (isCompilerInsertedOp(N->op()))
      return Result::error(std::string("input programs may not contain ") +
                           opName(N->op()));
  for (const Node *I : Input.inputs())
    if (I->logScale() <= 0 ||
        (I->isCipher() && I->logScale() > Options.SfBits))
      return Result::error("input @" + I->name() +
                           " has an out-of-range scale");

  const bool Verify = Options.VerifyPasses != 0;

  CompiledProgram Out;
  Out.Options = Options;
  Out.Prog = Input.clone();
  Program &P = *Out.Prog;

  if (Verify)
    if (Status S = verifyProgram(P, VerifyOptions::input()); !S.ok())
      return Result::error("invalid input program: " + S.message());

  // --- Transform (line 1 of Algorithm 1) ---
  // Each pass runs under the stage contract it is supposed to establish;
  // with verification on, a violation names the pass that just ran.
  Status Sandwich = Status::success();
  auto RunPass = [&](const char *Name, const VerifyOptions &VO, auto &&Pass) {
    if (!Sandwich.ok())
      return;
    Pass();
    if (!Verify)
      return;
    if (Status S = verifyProgram(P, VO); !S.ok())
      Sandwich = Status::error(std::string("IR verification failed after "
                                           "pass ") +
                               Name + ": " + S.message());
  };

  const VerifyOptions Lowered = VerifyOptions::lowered();
  VerifyOptions Optimized = Lowered;
  Optimized.RequireNormalizedRotations = Options.Optimize;
  VerifyOptions Inserted = VerifyOptions::inserted();
  Inserted.RequireNormalizedRotations = Options.Optimize;
  VerifyOptions Scaled = VerifyOptions::compiled();
  Scaled.RequireNormalizedRotations = Options.Optimize;

  RunPass("lower", Lowered, [&] { lowerFrontendOps(P); });
  if (Options.Optimize)
    RunPass("cse-simplify", Optimized, [&] { cseAndSimplifyPass(P); });
  // Galois-key budgeting runs after CSE (which first folds rotation chains
  // into single steps) and before the FHE-insertion passes, so the rewritten
  // power-of-two chains flow through rescale/modswitch/scale matching like
  // any other rotations.
  RunPass("galois-budget", Optimized,
          [&] { galoisBudgetPass(P, Options.GaloisKeyBudget); });
  RunPass("rescale", Inserted, [&] {
    switch (Options.Rescale) {
    case RescalePolicy::Waterline:
      waterlineRescalePass(P, Options.SfBits);
      break;
    case RescalePolicy::Always:
      alwaysRescalePass(P, Options.SfBits, Options.MinPrimeBits);
      break;
    case RescalePolicy::ChetPerKernel:
      chetRescalePass(P, Options.SfBits, Options.MinPrimeBits);
      break;
    }
  });
  RunPass("modswitch", Inserted, [&] {
    if (Options.ModSwitch == ModSwitchPolicy::Eager)
      eagerModSwitchPass(P);
    else
      lazyModSwitchPass(P);
  });
  if (Options.Rescale != RescalePolicy::Waterline)
    RunPass("unify-rescale-chains", Inserted,
            [&] { unifyRescaleChainsPass(P); });
  RunPass("match-scale", Scaled, [&] { matchScalePass(P); });
  RunPass("relinearize", Scaled, [&] { relinearizePass(P); });
  if (!Sandwich.ok())
    return Result(Sandwich);

  // --- Validate (lines 2-3) ---
  // The structural contract always holds at the end, verified or not.
  if (Status S = verifyProgram(P, Verify ? Scaled : VerifyOptions::inserted());
      !S.ok())
    return Result::error("internal: " + S.message());
  // One dataflow analysis serves validation (Constraints 1-4, in the
  // historical diagnostic order) and parameter selection below.
  AnalysisOptions AO;
  AO.SfBits = Options.SfBits;
  Expected<AnalysisResult> AR = analyzeProgram(P, AO);
  if (!AR)
    return AR.takeStatus();

  // --- DetermineParameters (line 4) ---
  Expected<ParameterSelection> Sel =
      selectParameters(P, *AR, Options.SfBits, Options.MinPrimeBits,
                       Options.Security);
  if (!Sel)
    return Sel.takeStatus();
  Out.BitSizes = Sel->BitSizes;
  Out.PolyDegree = Sel->PolyDegree;
  Out.TotalModulusBits = Sel->TotalBits;

  // --- DetermineRotationSteps (line 5) ---
  // Each step's key level comes from the same analysis: rotations keep
  // their operand's primes, and no later pass moves a level.
  Out.RotationSteps = selectRotationSteps(P);
  Out.RotationKeyPrimes =
      selectRotationKeyPrimes(P, *AR, Out.BitSizes.size() - 1);

  // --- Rotation hoisting analysis (runtime consumes the batches) ---
  Out.RotPlan = planRotationHoisting(P);

  // Whole-result cross-checks (Galois-key coverage, hoist plan, parameter
  // sanity) — the contract every executor assumes.
  if (Verify)
    if (Status S = verifyCompiled(Out); !S.ok())
      return Result::error("internal: compiled-program verification "
                           "failed: " +
                           S.message());
  return Out;
}
