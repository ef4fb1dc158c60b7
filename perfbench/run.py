"""mutspace benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload exec-loops --seed 1 --seconds 30 --trace 0

Runs the workload in a child process under an address-space limit and a
wall-clock limit, takes the set-up time as the median of several fresh
processes, and prints an environment header, a summary, and as the last
line a JSON object {"correct", "attempted", "failed", "metrics"}.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones.  It exits 1 without a result when the library cannot be
imported from this checkout's ``src``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from corpus import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_PROBES = 4  # fresh set-up processes besides the workload's own
ADDRESS_SPACE_LIMIT = 2 << 30  # bytes, for the workload process and its children
WALL_LIMIT_S = 170  # the whole benchmark must end within 180 s
TAIL_BEYOND = 10  # the tail percentile keeps this many jobs beyond it

END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "syntax.parse_s": "s",
    "mutate.mutate_all_s": "s",
    "mutate.mutants": "count",
    "interp.behavior_matrix_s": "s",
    "interp.us_per_cell": "us",
    "interp.cells": "count",
    "interp.cells_normal": "count",
    "interp.cells_error": "count",
    "interp.cells_timeout": "count",
    "interp.useful_ratio": "ratio",
    "interp.timeout_s": "s",
    "interp.timeout_share": "ratio",
    "interp.trace_entries": "count",
    "behavior.dump_s": "s",
    "behavior.load_s": "s",
    "behavior.json_bytes": "bytes",
    "behavior.mutation_adequacy_s": "s",
    "behavior.from_outputs_s": "s",
    "space.position_s": "s",
    "subsumption.kill_matrix_s": "s",
    "subsumption.csv_dump_s": "s",
    "subsumption.csv_load_s": "s",
    "subsumption.dmsg_s": "s",
    "subsumption.minimal_s": "s",
    "subsumption.adequacy_s": "s",
    "subsumption.equivalence_s": "s",
    "subsumption.equivalence_pairs": "count",
    "subsumption.classes": "count",
    "subsumption.edges": "count",
    "subsumption.live": "count",
    "lattice.annotate_s": "s",
    "lattice.dot_s": "s",
    "mbfl.fix_s": "s",
    "mbfl.flt_s": "s",
    "mbfl.report_s": "s",
    "cli.import_s": "s",
    "cli.pipeline_s": "s",
    "trace.overhead_ratio": "ratio",
}


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def git_sha():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def run_worker(args: list[str], timeout: float) -> tuple[list[dict], bool, float]:
    """Start worker.py under the guards; returns (events, killed, spawn time)."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        preexec_fn=_limit_address_space,
    )
    killed = False
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        killed = True
    if proc.returncode != 0 and not killed:
        sys.stderr.write(err.decode(errors="replace")[-2000:])
    killed = killed or proc.returncode < 0
    events = []
    for line in out.decode(errors="replace").splitlines():
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return events, killed, spawned


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND jobs beyond it, never below the median.

    Returns (value, percentile, jobs beyond it).
    """
    ordered = sorted(times)
    n = len(ordered)
    i = max(n - 1 - TAIL_BEYOND, n // 2)
    return ordered[i], 100.0 * (i + 1) / n, n - 1 - i


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input size; tiny is for the self-test")
    ap.add_argument("--golden", default=None,
                    help="golden digest file (default perfbench/golden.json)")
    args = ap.parse_args(argv)
    started = time.monotonic()
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "loadavg_start": loadavg(),
    }
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]

    setups, cli_imports = [], []
    for _ in range(SETUP_PROBES):
        events, killed, spawned = run_worker(["--mode", "setup", *common], 30)
        ready = [e for e in events if e["event"] == "setup"]
        if not ready:
            print("error: set-up failed; is this a mutspace checkout with src/?",
                  file=sys.stderr)
            return 1
        setups.append(ready[0]["t_ready"] - spawned)
        cli_imports.append(ready[0]["cli_import_s"])

    run_args = ["--mode", "run", *common, "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
    if args.golden:
        run_args += ["--golden", args.golden]
    events, killed, spawned = run_worker(
        run_args, WALL_LIMIT_S - (time.monotonic() - started))
    by_kind: dict[str, list[dict]] = {}
    for e in events:
        by_kind.setdefault(e["event"], []).append(e)
    if "setup" not in by_kind:
        print("error: the workload process failed during set-up", file=sys.stderr)
        return 1
    setup = by_kind["setup"][0]
    setups.append(setup["t_ready"] - spawned)

    jobs = by_kind.get("job", [])
    checks = by_kind.get("checks", [{"problems": [], "attempted": 0, "failed": 0}])[0]
    attempted = len(jobs) + checks["attempted"]
    failed = sum(not j["ok"] for j in jobs) + checks["failed"]
    incomplete = killed or "done" not in by_kind
    if incomplete:  # the job in flight when a guard stopped the process
        attempted += 1
        failed += 1
    timed = [j for j in jobs if not j["warmup"] and not j["traced"]]
    plain = [j["dt"] for j in timed]
    problems = list(checks["problems"])
    for j in jobs:
        problems += j["problems"] + ([j["error"]] if j["error"] else [])

    summary = {
        "jobs": len(plain),
        "fail_ratio": {"value": failed / attempted if attempted else 1.0, "unit": "ratio"},
        "golden_checked": by_kind.get("warmup", [{}])[0].get("golden_checked", False),
        "killed_by_guard": killed,
        "problems": sorted(set(problems))[:20],
    }
    if args.trace == 0:
        metrics = {"setup_s": statistics.median(setups)}
        if plain:
            value, pct, beyond = tail(plain)
            metrics["job_p50_s"] = statistics.median(plain)
            metrics["job_tail_s"] = value
            summary["job_tail"] = {"percentile": round(pct, 2), "beyond": beyond,
                                   "samples": len(plain)}
            metrics["work_per_s"] = sum(j["work"] for j in timed) / sum(plain)
        if "done" in by_kind:
            metrics["peak_rss_mb"] = by_kind["done"][0]["rss_kb"] / 1024
        units = END_TO_END
    else:
        metrics = dict(by_kind.get("layers", [{"metrics": {}}])[0]["metrics"])
        metrics["cli.import_s"] = statistics.median(cli_imports)
        units = PER_LAYER
    missing = [name for name in units if name not in metrics]
    if missing:
        summary["problems"].append(f"metrics not measured: {missing}")
        failed = max(failed, 1)
        attempted = max(attempted, failed)
    env["loadavg_end"] = loadavg()
    print("env " + json.dumps(env))
    print("summary " + json.dumps(summary))
    result = {
        "correct": failed == 0 and not incomplete,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
