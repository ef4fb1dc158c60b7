"""One workload in its own process; run.py starts it and reads its events.

Modes:

* ``setup`` imports mutspace and mutspace.cli, builds the seeded inputs,
  reports when it is ready and exits.  run.py repeats it to take a median
  set-up time.
* ``run`` does the same set-up, one untraced warm-up job, then timed jobs
  for ``--seconds``.  The first run of every input set goes through every
  check in checks.py; later runs must reproduce its artefact digests.
  With ``--trace 1`` half of that time runs untraced and half with spans,
  followed by a per-cell execute probe and the CLI pipeline as
  subprocesses; the worker then reports per-layer numbers.
* ``digests`` runs one job and prints its artefact digests and problems
  (record_golden.py uses it).

Events are JSON lines on stdout, so a run cut short by a guard still
reports every job it finished.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
CLI_TIMEOUT_S = 120


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def setup(workload: str, seed: int, size: str):
    """Import the library from this checkout's ``src`` and build the input pool."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import mutspace

    t1 = time.perf_counter()
    import mutspace.cli  # noqa: F401  (the CLI import is part of set-up)

    t2 = time.perf_counter()
    if Path(mutspace.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"mutspace imported from {mutspace.__file__}, not {SRC}")
    from corpus import make_inputs

    pool = make_inputs(workload, seed, size)
    t3 = time.perf_counter()
    return pool, {
        "t_ready": time.monotonic(),
        "import_s": t1 - t0,
        "cli_import_s": t2 - t1,
        "inputs_s": t3 - t2,
    }


def _counts(res) -> dict:
    entries = sum(
        len(tok.trace)
        for entry in res.subjects
        for pid in entry["executed"].program_ids()
        for tid in entry["executed"].tests
        if (tok := entry["executed"].token(pid, tid)).trace is not None
    )
    return {
        "interp.cells": res.work if res.subjects else 0,
        "interp.trace_entries": entries,
        "behavior.json_bytes": sum(
            len(text.encode("utf-8")) for name, text in res.artefacts.items()
            if name.endswith(".matrix.json")
        ),
        "mutate.mutants": sum(len(entry["mutants"]) for entry in res.subjects),
        "subsumption.classes": sum(len(a.graph.classes) for _, a, _ in res.kills),
        "subsumption.edges": sum(len(a.graph.edges) for _, a, _ in res.kills),
        "subsumption.live": sum(len(a.graph.live) for _, a, _ in res.kills),
        "subsumption.equivalence_pairs": len(res.equivalence),
    }


def probe_cells(res) -> tuple[dict, int]:
    """Execute every cell of the job again, one timed call each.

    Returns per-status (cells, seconds) and the number of probe tokens that
    differ from the job's matrix (must be 0).
    """
    from mutspace import lang

    buckets = {"normal": [0, 0.0], "error": [0, 0.0], "timeout": [0, 0.0]}
    mismatches = 0
    for entry in res.subjects:
        subject, executed = entry["subject"], entry["executed"]
        programs = [(executed.original_id, entry["program"])]
        programs += [(desc.id, prog) for desc, prog in entry["mutants"]]
        tests = [lang.TestCase(tid, values) for tid, values in subject.tests]
        for pid, prog in programs:
            for test in tests:
                t0 = time.perf_counter()
                tok = lang.execute(prog, test, subject.budget, subject.tracing)
                dt = time.perf_counter() - t0
                bucket = buckets[tok.status]
                bucket[0] += 1
                bucket[1] += dt
                mismatches += tok != executed.token(pid, test.id)
    return buckets, mismatches


def _cli(args: list[str], workdir: str) -> bytes:
    env = {k: v for k, v in os.environ.items() if k != "MUTSPACE_BUDGET"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "mutspace.cli", *args],
        cwd=workdir, env=env, capture_output=True, timeout=CLI_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"mutspace {args[0]} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-300:]}")
    return proc.stdout


def cli_pipeline(res, workdir: str) -> list[str]:
    """Replay the job through the CLI; its bytes must equal the in-process ones."""
    problems = []

    def same(label: str, got: bytes, want: str) -> None:
        if got != want.encode("utf-8"):
            problems.append(f"cli {label}: output differs from the in-process artefact")

    def write(name: str, text: str) -> str:
        path = os.path.join(workdir, name)
        Path(path).write_text(text, encoding="utf-8")
        return path

    for entry in res.subjects:
        subject, name = entry["subject"], entry["subject"].name
        program = write(f"{name}.src", subject.source)
        tests = write(f"{name}.tests.json", json.dumps(
            [{"id": tid, "inputs": values} for tid, values in subject.tests]))
        expected = write(f"{name}.expected.json", json.dumps(subject.expected))
        args = ["run", "--program", program, "--tests", tests, "--expected", expected,
                "--budget", str(subject.budget)]
        if subject.tracing:
            args.append("--trace")
        matrix = _cli(args, workdir)
        same(f"run {name}", matrix, res.artefacts[f"{name}.matrix.json"])
        matrix_path = os.path.join(workdir, f"{name}.matrix.json")
        Path(matrix_path).write_bytes(matrix)
        statements = write(f"{name}.statements.json", json.dumps(entry["statements"]))
        report = _cli(["mbfl", "--matrix", matrix_path, "--statements", statements,
                       "--method", "fix", "--policy", "output"], workdir)
        same(f"mbfl {name}", report, res.artefacts[f"{name}.strong.fix.json"])
    for name, analysis, csv_text in res.kills:
        kills = write(f"{name}.kills.csv", csv_text)
        minimal = analysis.minimal
        want = json.dumps({
            "minimal": list(minimal.minimal),
            "live": list(minimal.live),
            "reduction_ratio": round(minimal.reduction_ratio, 6),
        }, indent=2) + "\n"
        same(f"analyze minimize {name}", _cli(["analyze", "minimize", kills], workdir), want)
        same(f"analyze dmsg {name}", _cli(["analyze", "dmsg", kills], workdir), analysis.dot)
    return problems


def load_golden(path: Path, size: str, workload: str, seed: int):
    """The golden digests for this input set, or None when none are recorded."""
    if not path.exists():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    return data.get(size, {}).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "digests"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--golden", default=None, help="golden digest file to check against")
    args = ap.parse_args(argv)

    try:
        pool, setup_info = setup(args.workload, args.seed, args.size)
    except ImportError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    emit("setup", **setup_info)
    if args.mode == "setup":
        return 0

    from checks import artefact_digests, check_job, golden_problems
    from pipeline import run_job
    from spans import NullTracer, Tracer

    if args.mode == "digests":
        warm = run_job(pool[0], NullTracer())
        print(json.dumps({"digests": artefact_digests(warm), "problems": check_job(warm)}))
        return 0
    golden = load_golden(Path(args.golden) if args.golden else GOLDEN,
                         args.size, args.workload, args.seed)
    known: dict[int, object] = {}  # pool index -> digests of its checked outputs

    def verify(key: int, res) -> list[str]:
        digests = artefact_digests(res)
        if key not in known:  # first run of this input set: check everything
            problems = check_job(res)
            if key == 0 and golden is not None:
                problems += golden_problems(digests, golden)
            known[key] = None if problems else digests
            return problems
        if known[key] is None:
            return ["this input set failed its checks on its first run"]
        if known[key] != digests:
            return ["artefacts differ from the first run of this input set"]
        return []

    def job(index: int, tracer, traced: bool, warmup: bool = False):
        """Run job ``index``; returns (seconds, result or None)."""
        key = index % len(pool)
        tracer.job = index
        res, error, problems = None, None, []
        t0 = time.perf_counter()
        try:
            res = run_job(pool[key], tracer)
        except Exception as exc:  # a failed job is counted, never fatal
            error = repr(exc)[:300]
        dt = time.perf_counter() - t0
        if res is not None:
            try:
                problems = verify(key, res)
            except Exception as exc:  # a check that cannot read the outputs fails the job
                problems = [f"checks raised {exc!r}"[:300]]
        emit("job", dt=dt, ok=error is None and not problems, traced=traced,
             warmup=warmup, work=res.work if res else 0, error=error,
             problems=problems[:20])
        return dt, res

    def loop(tracer, traced: bool, seconds: float, first: int) -> list[float]:
        times = []
        deadline = time.perf_counter() + seconds
        while not times or time.perf_counter() < deadline:
            times.append(job(first + len(times), tracer, traced)[0])
        return times

    _, warm = job(0, NullTracer(), False, warmup=True)
    emit("warmup", golden_checked=golden is not None)
    if args.trace == 0:
        loop(NullTracer(), False, args.seconds, 1)
    else:
        plain = loop(NullTracer(), False, args.seconds / 2, 1)
        tracer = Tracer()
        traced = loop(tracer, True, args.seconds / 2, 1 + len(plain))
        emit("layers", metrics=layer_metrics(warm, tracer, plain, traced))
    emit("done", rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return 0


def layer_metrics(warm, tracer, plain, traced) -> dict:
    from pipeline import SPAN_NAMES

    busy = tracer.busy_by_job()
    recorded = {name for per in busy.values() for name in per} - {"job"}
    if recorded - set(SPAN_NAMES):
        raise ValueError(f"spans missing from SPAN_NAMES: {recorded - set(SPAN_NAMES)}")
    out = {f"{name}_s": statistics.median(per.get(name, 0.0) for per in busy.values())
           for name in SPAN_NAMES}
    out.update(_counts(warm))
    cells = out["interp.cells"]
    out["interp.us_per_cell"] = (
        out.get("interp.behavior_matrix_s", 0.0) / cells * 1e6 if cells else 0.0)

    buckets, mismatches = probe_cells(warm)
    probe_cells_total = sum(b[0] for b in buckets.values())
    probe_s = sum(b[1] for b in buckets.values())
    out["interp.cells_normal"] = buckets["normal"][0]
    out["interp.cells_error"] = buckets["error"][0]
    out["interp.cells_timeout"] = buckets["timeout"][0]
    out["interp.timeout_s"] = buckets["timeout"][1]
    out["interp.timeout_share"] = buckets["timeout"][1] / probe_s if probe_s else 0.0
    out["interp.useful_ratio"] = (
        1 - buckets["timeout"][0] / probe_cells_total if probe_cells_total else 0.0)
    probe_problems = []
    if mismatches or probe_cells_total != cells:
        probe_problems.append(f"probe: {mismatches} tokens differ, "
                              f"{probe_cells_total} cells probed of {cells}")

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        t0 = time.perf_counter()
        try:
            cli_problems = cli_pipeline(warm, workdir)
        except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
            cli_problems = [f"cli pipeline failed: {exc!r}"[:300]]
        out["cli.pipeline_s"] = time.perf_counter() - t0
    out["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    # the probe and the CLI replay are two more checked operations of the run
    emit("checks", problems=(probe_problems + cli_problems)[:20], attempted=2,
         failed=bool(probe_problems) + bool(cli_problems))
    return out


if __name__ == "__main__":
    sys.exit(main())
