#!/usr/bin/env python3
"""The repository benchmark: builds `perfbench`, runs one workload, checks
its outputs against the committed goldens, and prints every metric.

    python3 perfbench/run.py --workload spec-shootout --seed 1 --seconds 10 --trace 0

Run it from the repository root. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 the per-layer ones.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("spec-shootout", "parsec-sweep", "report-regen")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDENS = os.path.join(ROOT, "tests", "goldens", "hotpath")
SPECLINT_BASELINE = os.path.join(ROOT, "SPECLINT_baseline.json")
# The simulator and every check together stay well inside the 180 s a run
# may take; the first run of a checkout also builds.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    """Builds the release binary (offline; a no-op when up to date)."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "bench", "Cargo.toml")):
        fail("the simulator's sources are missing: run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target_dir, "release", "perfbench")


def cell_key(cell):
    return (cell["workload"], cell["column"])


def payload(cell):
    """A cell without its store provenance, which depends on the run."""
    return {k: v for k, v in cell.items() if k != "cached"}


def golden_failures(work, grid):
    """Cells of the reference pass that are missing from, or differ from,
    the committed golden grid."""
    with open(os.path.join(GOLDENS, grid["golden"])) as f:
        golden = {cell_key(c): payload(c) for c in json.load(f)["cells"]}
    with open(os.path.join(work, grid["cells"])) as f:
        produced = {cell_key(c): payload(c) for c in json.load(f)["cells"]}
    differing = [k for k, cell in golden.items() if produced.get(k) != cell]
    extra = [k for k in produced if k not in golden]
    for key in (differing + extra)[:5]:
        print(f"perfbench: {grid['name']} cell {key} differs from the golden",
              file=sys.stderr)
    return len(differing) + len(extra)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    target_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    binary = build(target_dir)
    work = os.path.join(target_dir, "perfbench-work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        done = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", work],
            stdout=sys.stderr, timeout=RUN_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"perfbench exited with status {done.returncode}")
        with open(os.path.join(work, "result.json")) as f:
            result = json.load(f)

        attempted, failed = result["attempted"], result["failed"]
        problems = list(result["problems"])
        for grid in result["grids"]:
            bad = golden_failures(work, grid)
            if bad:
                problems.append(f"{grid['name']}: {bad} cells differ from the golden")
            failed += bad * grid["resolutions"]
        census = os.path.join(work, "census.json")
        if os.path.exists(census):
            attempted += 1
            with open(census) as f, open(SPECLINT_BASELINE) as g:
                if json.load(f) != json.load(g):
                    failed += 1
                    problems.append("speclint census differs from SPECLINT_baseline.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = min(failed, attempted)
    print("host " + json.dumps(result["host"], sort_keys=True))
    for problem in problems:
        print(f"FAILED: {problem}")
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} checked outputs)")
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in sorted(result["metrics"].items())}
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
