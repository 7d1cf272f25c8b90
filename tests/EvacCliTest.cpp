//===- EvacCliTest.cpp - Golden-file tests for the evac driver ----------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
// Runs the actual evac binary (path injected by CMake as EVA_EVAC_BINARY) on
// the checked-in fixtures under tests/fixtures/ and diffs stdout against the
// *.golden files. This pins the user-visible contract: reported encryption
// parameters, --dump listings, and --dot graphs for the EAGER / LAZY / CHET
// policies must not drift silently. evacall (EVA_EVACALL_BINARY) runs here
// where it needs no server.
//
// Regenerate goldens after an intentional change with:
//   EVA_UPDATE_GOLDENS=1 ./tests/EvacCliTest
//
//===----------------------------------------------------------------------===//

#include "eva/serialize/ProtoIO.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef EVA_EVAC_BINARY
#error "EVA_EVAC_BINARY must be defined by the build"
#endif
#ifndef EVA_EVACALL_BINARY
#error "EVA_EVACALL_BINARY must be defined by the build"
#endif
#ifndef EVA_FIXTURES_DIR
#error "EVA_FIXTURES_DIR must be defined by the build"
#endif

namespace {

struct RunResult {
  int ExitCode = -1;
  std::string Stdout;
};

/// Double-quotes \p Path for the shell (paths with spaces must survive
/// popen's word splitting).
std::string shellQuote(const std::string &Path) { return "\"" + Path + "\""; }

/// Runs \p Args against \p Binary, capturing stdout (stderr is left on the
/// test's own stream so failures stay diagnosable).
RunResult runTool(const char *Binary, const std::string &Args) {
  std::string Cmd = shellQuote(Binary) + " " + Args;
  RunResult R;
  FILE *P = popen(Cmd.c_str(), "r");
  if (!P)
    return R;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    R.Stdout.append(Buf, N);
  int Status = pclose(P);
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

RunResult runEvac(const std::string &Args) {
  return runTool(EVA_EVAC_BINARY, Args);
}

std::string fixture(const std::string &Name) {
  return std::string(EVA_FIXTURES_DIR) + "/" + Name;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

bool updateGoldens() {
  const char *V = std::getenv("EVA_UPDATE_GOLDENS");
  return V != nullptr && V[0] == '1';
}

/// Runs evac with \p Args and compares stdout against fixtures/<Golden>.
void expectGolden(const std::string &Args, const std::string &Golden) {
  RunResult R = runEvac(Args);
  ASSERT_EQ(R.ExitCode, 0) << "evac " << Args << " failed";
  std::string Path = fixture(Golden);
  if (updateGoldens()) {
    std::ofstream Out(Path, std::ios::binary);
    Out << R.Stdout;
    SUCCEED() << "updated " << Path;
    return;
  }
  std::string Expected = readFile(Path);
  ASSERT_FALSE(Expected.empty()) << "missing golden " << Path;
  EXPECT_EQ(R.Stdout, Expected) << "output drifted from " << Golden;
}

// poly3: textual fixture — a rotation-rich depth-3 polynomial.
TEST(EvacCli, Poly3EagerGolden) {
  expectGolden(shellQuote(fixture("poly3.evabin")), "poly3.eager.golden");
}

TEST(EvacCli, Poly3LazyGolden) {
  expectGolden(shellQuote(fixture("poly3.evabin")) + " --lazy", "poly3.lazy.golden");
}

TEST(EvacCli, Poly3ChetGolden) {
  expectGolden(shellQuote(fixture("poly3.evabin")) + " --chet", "poly3.chet.golden");
}

TEST(EvacCli, Poly3DumpGolden) {
  expectGolden(shellQuote(fixture("poly3.evabin")) + " --dump", "poly3.dump.golden");
}

// --params-json is the machine-readable contract deploy tooling (evacall,
// service configuration) consumes; its schema must not drift silently.
TEST(EvacCli, Poly3ParamsJsonGolden) {
  expectGolden(shellQuote(fixture("poly3.evabin")) + " --params-json",
               "poly3.params.golden");
}

// rotsum: binary proto3 wire-format fixture.
TEST(EvacCli, RotsumEagerGolden) {
  expectGolden(shellQuote(fixture("rotsum.evabin")), "rotsum.eager.golden");
}

TEST(EvacCli, RotsumDotGolden) {
  expectGolden(shellQuote(fixture("rotsum.evabin")) + " --dot", "rotsum.dot.golden");
}

TEST(EvacCli, WritesLoadableOutput) {
  std::string Out = ::testing::TempDir() + "evac_cli_out.evabin";
  RunResult R = runEvac(shellQuote(fixture("poly3.evabin")) + " -o " + shellQuote(Out));
  ASSERT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Stdout.find("wrote"), std::string::npos);
  eva::Expected<std::unique_ptr<eva::Program>> P = eva::loadProgram(Out);
  ASSERT_TRUE(P.ok()) << (P.ok() ? "" : P.message());
  EXPECT_TRUE((*P)->verifyStructure().ok());
  std::remove(Out.c_str());
}

// --- `evac run`: the unified-Runner execution subcommand. ---

// The reference backend is exact double arithmetic (no libm-dependent
// encoder transforms), so its output is golden-pinned byte for byte.
TEST(EvacCli, RunReferenceGolden) {
  expectGolden("run " + shellQuote(fixture("poly3.evabin")) +
                   " --backend reference --inputs " +
                   shellQuote(fixture("poly3.inputs.json")) + " --show 4",
               "poly3.run.reference.golden");
}

/// Strips the `"backend": ...` line so outputs of two backends can be
/// compared byte for byte.
std::string withoutBackendLine(const std::string &S) {
  std::string Out;
  size_t Pos = 0;
  while (Pos < S.size()) {
    size_t End = S.find('\n', Pos);
    if (End == std::string::npos)
      End = S.size();
    std::string Line = S.substr(Pos, End - Pos);
    if (Line.find("\"backend\"") == std::string::npos)
      Out += Line + "\n";
    Pos = End + 1;
  }
  return Out;
}

// The acceptance gate of the unified API: the local CKKS backend and the
// full service loop (in-process loopback server, wire serialization, key
// upload, remote execution) produce BIT-IDENTICAL outputs for the same
// program, seed, and inputs.
TEST(EvacCli, RunLocalAndServiceBitIdentical) {
  std::string Args = shellQuote(fixture("poly3.evabin")) + " --inputs " +
                     shellQuote(fixture("poly3.inputs.json")) +
                     " --seed 42 --show 0";
  RunResult Local = runEvac("run " + Args + " --backend local");
  ASSERT_EQ(Local.ExitCode, 0);
  RunResult Service = runEvac("run " + Args + " --backend service");
  ASSERT_EQ(Service.ExitCode, 0);
  EXPECT_EQ(withoutBackendLine(Local.Stdout),
            withoutBackendLine(Service.Stdout))
      << "local and service backends must be bit-identical";
  // Not an accidental comparison of empty strings: all 1024 slots printed.
  EXPECT_NE(Local.Stdout.find("\"slots_shown\": 0"), std::string::npos);
  EXPECT_GT(Local.Stdout.size(), 1024u);
}

// Runs are reproducible functions of (program, seed, inputs): same seed ->
// same bytes, different seed -> different noise realization.
TEST(EvacCli, RunIsSeedReproducible) {
  std::string Args = shellQuote(fixture("poly3.evabin")) + " --inputs " +
                     shellQuote(fixture("poly3.inputs.json")) +
                     " --backend local --show 0";
  RunResult A = runEvac("run " + Args + " --seed 7");
  RunResult B = runEvac("run " + Args + " --seed 7");
  RunResult C = runEvac("run " + Args + " --seed 8");
  ASSERT_EQ(A.ExitCode, 0);
  EXPECT_EQ(A.Stdout, B.Stdout);
  EXPECT_NE(A.Stdout, C.Stdout);
}

// The run's cost ledger goes to stderr in every build. Every count but the
// arena's heap bytes depends only on the program, so they are pinned.
TEST(EvacCli, RunReportsTheCostLedgerOnStderr) {
  RunResult R = runEvac("run " + shellQuote(fixture("poly3.evabin")) +
                        " --inputs " + shellQuote(fixture("poly3.inputs.json")) +
                        " --backend local --seed 42 --show 0 2>&1 >/dev/null");
  ASSERT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Stdout.find("evac: ops: add=2 sub=0 negate=0 multiply=2 "
                          "multiply_plain=4 relinearize=2 rescale=1 "
                          "modswitch=2 rotate=1 (hoisted=0 in 0 batches) "
                          "decompositions=3\n"),
            std::string::npos)
      << R.Stdout;
  EXPECT_NE(R.Stdout.find("evac: kernels: ntts=60 mulmods=9469952 "
                          "arena_acquires=82 "),
            std::string::npos)
      << R.Stdout;
}

TEST(EvacCli, RunDiagnosesBadInputs) {
  // Missing input: precise diagnostic, nonzero exit, nothing on stdout.
  RunResult R = runEvac("run " + shellQuote(fixture("poly3.evabin")) +
                        " --backend reference --in x=0.5 2>/dev/null");
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_TRUE(R.Stdout.empty());
  // Malformed JSON inputs file.
  std::string Bad = ::testing::TempDir() + "evac_run_bad.json";
  {
    std::ofstream O(Bad, std::ios::binary);
    O << "{\"x\": [1, 2";
  }
  RunResult R2 = runEvac("run " + shellQuote(fixture("poly3.evabin")) +
                         " --inputs " + shellQuote(Bad) + " 2>/dev/null");
  EXPECT_EQ(R2.ExitCode, 1);
  std::remove(Bad.c_str());
  // Unknown backend.
  RunResult R3 = runEvac("run " + shellQuote(fixture("poly3.evabin")) +
                         " --backend quantum 2>/dev/null");
  EXPECT_EQ(R3.ExitCode, 1);
}

// `evacall audit-verify` seals the reconstructed inputs through the client's
// sealing routine, so a malformed --in value is the validation diagnostic,
// not a reported hash mismatch; the line's made-up hashes are never
// compared.
TEST(EvacCli, AuditVerifyDiagnosesBadInputs) {
  RunResult R = runTool(
      EVA_EVACALL_BINARY,
      "audit-verify --file " + shellQuote(fixture("poly3.evabin")) +
          " --seed 5 --in x=1,2,3 'req=1 session=1 program=poly3 "
          "inputs=0000000000000001 outputs=0000000000000001' 2>&1");
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Stdout.find("input 'x': length 3 does not divide vec_size"),
            std::string::npos)
      << R.Stdout;
  EXPECT_EQ(R.Stdout.find("FAILED"), std::string::npos) << R.Stdout;
}

// --- `evac lint`: the static-analysis subcommand. ---

// lintdemo is built to trigger one warning of (almost) every kind:
// scale-near-ceiling (huge constant magnitude), dead-output and
// constant-foldable (cipher-typed arithmetic over constants only),
// unbalanced-multiply (x^4 as a left-leaning chain), and unused-input.
TEST(EvacCli, LintGolden) {
  expectGolden("lint " + shellQuote(fixture("lintdemo.evabin")),
               "lintdemo.lint.golden");
}

TEST(EvacCli, LintJsonGolden) {
  expectGolden("lint " + shellQuote(fixture("lintdemo.evabin")) + " --json",
               "lintdemo.lint.json.golden");
}

// With a Galois-key budget of 1 the budget pass rewrites the two rotations
// onto the power-of-two basis, which still exceeds the budget — the
// rotation-key-pressure warning must name the shortfall.
TEST(EvacCli, LintBudgetGolden) {
  expectGolden("lint " + shellQuote(fixture("lintdemo.evabin")) +
                   " --budget 1",
               "lintdemo.lint.budget.golden");
}

// Warnings are advice, not errors: a clean program exits 0 and reports none.
TEST(EvacCli, LintCleanProgramExitsZero) {
  RunResult R = runEvac("lint " + shellQuote(fixture("poly3.evabin")));
  ASSERT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Stdout.find("warnings     : none"), std::string::npos);
  EXPECT_NE(R.Stdout.find("verifier     : ok"), std::string::npos);
}

TEST(EvacCli, LintRejectsGarbage) {
  std::string Bad = ::testing::TempDir() + "evac_lint_garbage.evabin";
  {
    std::ofstream O(Bad, std::ios::binary);
    O << "\xff\xfe this is not a program";
  }
  RunResult R = runEvac("lint " + shellQuote(Bad) + " 2>/dev/null");
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_TRUE(R.Stdout.empty());
  std::remove(Bad.c_str());
}

TEST(EvacCli, MissingFileFails) {
  RunResult R = runEvac(shellQuote(fixture("does_not_exist.evabin")) + " 2>/dev/null");
  EXPECT_EQ(R.ExitCode, 1);
}

TEST(EvacCli, GarbageInputFails) {
  std::string Bad = ::testing::TempDir() + "evac_cli_garbage.evabin";
  {
    std::ofstream O(Bad, std::ios::binary);
    O << "\xff\xfe this is not a program";
  }
  RunResult R = runEvac(shellQuote(Bad) + " 2>/dev/null");
  EXPECT_EQ(R.ExitCode, 1);
  std::remove(Bad.c_str());
}

TEST(EvacCli, NoArgumentsPrintsUsage) {
  RunResult R = runEvac("2>/dev/null");
  EXPECT_EQ(R.ExitCode, 1);
}

} // namespace
