#!/usr/bin/env python3
"""Benchmark of qflab, measured from outside the package.

One workload; the last line of stdout is the
result as one JSON object:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Every workload in one go, printing each metric by name with its unit and
writing the results with their run metadata to perfbench/results/:

    python3 perfbench/run.py --all --seed 1 --seconds 10 --trace 1

Workloads (see BENCHMARK.json for why each was chosen):
  sweep     `qflab sweep --families all --n-max 9` through the CLI entry point
  dense     the gr-catalog entries at n = 9 and 10, handed over as JSON
            documents in a seeded unimodular basis
  symbolic  constraints, alpha sampling and weight audits of every Lie-sound
            tuple of the parametric families with n <= 17, plus the Cn -> Qn
            transform for even n from 6 to 20

The load is a closed loop with one caller, in one process and without extra
threads: qflab is a batch verifier.  Each timed run is a fresh interpreter,
with QFLAB_NMAX removed from its environment, so no module-level cache of the
program carries over between runs.  With --trace 1 two further runs wrap the
public functions of every module (see tracing.py) and give the per-layer
metrics; the end-to-end metrics always come from untraced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
WORKLOADS = ("sweep", "dense", "symbolic")
SETUP_REPS = 11       # fresh interpreters per run for setup_s
TRACED_RUNS = 2       # traced runs whose counts must agree exactly
DEADLINE_S = 170.0    # a run of one workload must end within 180 s



class BenchError(Exception):
    pass


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "QFLAB_NMAX"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _child(args: list[str], deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting " + " ".join(args[:2]))
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(args[:2])} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:2])} exited with {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def _workload_child(args: list[str], deadline: float) -> str:
    return _child([str(HERE / "workloads.py"), *args], deadline)


def _setup_seconds(deadline: float) -> float:
    start = time.perf_counter()
    _child(["-c", "from qflab import cli; cli.build_parser()"], deadline)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def prepare(workload: str, seed: int, deadline: float) -> Path:
    """Build a workload's inputs from the seed, before any timing starts."""
    WORK.mkdir(exist_ok=True)
    inputs = WORK / f"{workload}-{seed}.json"
    _workload_child(["prepare", workload, str(seed), str(inputs)], deadline)
    return inputs


def measure(workload: str, inputs: Path, seconds: float, trace: bool, deadline: float) -> dict:
    """Set-up, timed runs and (optionally) traced runs on prepared inputs."""
    spans = str(inputs.with_suffix(".spans.json"))
    setup = [_setup_seconds(deadline) for _ in range(SETUP_REPS)]
    runs: list[dict] = []
    start = time.monotonic()
    while not runs or time.monotonic() - start < seconds:
        last = time.monotonic()
        runs.append(json.loads(_workload_child(["run", str(inputs)], deadline)))
        if time.monotonic() + (time.monotonic() - last) * (1 + TRACED_RUNS * trace) > deadline:
            break
    traced = [json.loads(_workload_child(["run", str(inputs), spans], deadline))
              for _ in range(TRACED_RUNS if trace else 0)]

    problems = [p for r in runs + traced for p in r["problems"]]
    digests = {r["digest"] for r in runs + traced}
    if len(digests) > 1:
        problems.append("output differs between runs on the same input")
    if traced and any(t["counts"] != traced[0]["counts"] for t in traced):
        problems.append("traced counts differ between traced runs")

    walls = [r["wall_s"] for r in runs]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "ok_share": (attempted - failed) / attempted if attempted else 0.0,
    }
    layers = {}
    if traced:
        for name in traced[0]["layers"]:
            values = [t["layers"][name] for t in traced]
            # counts repeat exactly and stay whole numbers; times take the median
            layers[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
        layers["trace_overhead"] = statistics.median(t["wall_s"] for t in traced) / metrics["wall_s"]
    return {
        "workload": workload,
        "correct": not problems and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "items": runs[0]["attempted"],
        "samples": len(runs),
        "wall_s_quartiles": _quartiles(walls),
        "setup_s_quartiles": _quartiles(setup),
        "problems": problems,
        "failures": runs[0]["failures"],
        "rank_in_basis": runs[0].get("rank_in_basis"),
        "metrics": metrics,
        "layers": layers,
    }


def result_line(m: dict, trace: bool, units: dict[str, str]) -> dict:
    """The one-line result of a single workload: per-layer metrics when traced."""
    chosen = m["layers"] if trace else m["metrics"]
    return {"correct": m["correct"], "attempted": m["attempted"], "failed": m["failed"],
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in chosen.items()}}


def run_metadata(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"commit": commit, "python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": seed}


def _describe(m: dict) -> list[str]:
    """Human-readable lines about one workload's measurement."""
    q1, q2, q3 = m["wall_s_quartiles"]
    lines = [f"{m['workload']}: {m['items']} items per run, {m['samples']} timed run(s); "
             f"wall_s median {q2:.4f} s, quartiles {q1:.4f}..{q3:.4f} s",
             f"{m['workload']}: failed {m['failed']} of {m['attempted']} operations "
             f"(failed_share {m['failed'] / max(m['attempted'], 1):.4f})"]
    lines += [f"  FAILED {f}" for f in m["failures"]]
    lines += [f"  PROBLEM {p}" for p in m["problems"]]
    if m["rank_in_basis"]:
        lines.append(f"  rank_in_basis (reported, not checked): {json.dumps(m['rank_in_basis'])}")
    return lines


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="least time spent in timed runs per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if not (ROOT / "src" / "qflab" / "cli.py").is_file():
        print(f"qflab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    meta = run_metadata(args.seed)
    workloads = WORKLOADS if args.all else (args.workload,)
    try:
        results = []
        for w in workloads:
            deadline = time.monotonic() + DEADLINE_S
            results.append(measure(w, prepare(w, args.seed, deadline), args.seconds,
                                   bool(args.trace), deadline))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    meta["items"] = {m["workload"]: m["items"] for m in results}
    print("meta " + json.dumps(meta))
    for m in results:
        print("\n".join(_describe(m)))

    if args.all:
        report = {}
        for m in results:
            for name, value in {**m["metrics"], **m["layers"]}.items():
                report[f"{m['workload']}.{name}"] = {"value": value, "unit": units[name]}
        for name, entry in report.items():
            print(f"{name} {entry['value']} {entry['unit']}")
        out = HERE / "results" / f"bench-seed{args.seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"meta": meta, "metrics": report, "workloads": results},
                                  indent=1, sort_keys=True) + "\n")
        print(f"results written to {out}")
        return 0 if all(m["correct"] for m in results) else 1

    print(json.dumps(result_line(results[0], bool(args.trace), units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
