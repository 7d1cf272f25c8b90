#!/usr/bin/env python3
"""Build and run evabench from the root of a checkout.

    python3 evabench/run.py --workload W --seed N --seconds S --trace 0|1
                            [--out DIR]

Builds the benchmark and the library it measures into .bench_build/ (once;
later runs only check that the build is current), then runs one workload
in its own process. Its lines `workload metric value unit` pass through;
the last line is one JSON object {correct, attempted, failed, metrics}
holding exactly the end-to-end metrics of BENCHMARK.json (untraced) or its
per-layer metrics (traced). --workload all runs the four workloads one
after another. Results go to DIR/<workload>.json, merged into
DIR/evabench.json; traced runs also write DIR/<workload>.trace.json.

Exits non-zero, printing no result, when the build fails; exits 1 after
printing the result when an output was wrong.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "evabench"
WORKLOADS = ["compile_zoo", "lenet_infer", "image_apps", "service_mixed"]
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"evabench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "evabench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return BUILD / "evabench"


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, workload, args, sha):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(args.out), "--git-sha", sha]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print("\n".join(lines), file=sys.stderr)
        fail(f"{workload} exited with {proc.returncode} and no result")
    print("\n".join(lines[:-1]))

    # The result line carries exactly the metrics BENCHMARK.json declares.
    # A workload that bypasses a layer measures none of its counts and
    # shares: they read 0. Every time is measured on every workload.
    declared = declared_metrics(args.trace)
    measured = result["metrics"]
    for name, unit in declared.items():
        if name not in measured and args.trace and unit != "s":
            measured[name] = {"value": 0, "unit": unit}
        if name not in measured or measured[name]["unit"] != unit:
            fail(f"{workload} did not report {name} in {unit}")
    result["metrics"] = {name: measured[name] for name in declared}

    merged_path = args.out / "evabench.json"
    merged = json.loads(merged_path.read_text()) if merged_path.exists() else {}
    key = workload + (".trace" if args.trace else "")
    merged[key] = json.loads((args.out / f"{workload}.json").read_text())
    merged_path.write_text(json.dumps(merged, indent=1) + "\n")
    return result, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path,
                        default=ROOT / ".bench_build" / "out")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in 1..3600")
    args.out.mkdir(parents=True, exist_ok=True)

    binary = build()
    sha = git_sha()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results, codes = {}, []
    for workload in workloads:
        results[workload], code = run_workload(binary, workload, args, sha)
        codes.append(code)

    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    sys.exit(max(codes))


if __name__ == "__main__":
    main()
