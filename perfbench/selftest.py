"""Self-test of the benchmark at tiny size (about a minute).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
untraced and traced, on every workload with nothing failing; and that one
corrupted golden digest makes the run report a failure.
"""
from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from corpus import DEFAULT_SEED, WORKLOADS  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402


def bench(workload: str, trace: int, golden: str | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    if golden:
        cmd += ["--golden", golden]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-1000:]}")
    lines = proc.stdout.splitlines()
    summary = json.loads(lines[-2].removeprefix("summary "))
    result = json.loads(lines[-1])
    result["summary"] = summary
    return result


def check_declared_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == END_TO_END, f"end_to_end differs: {declared} vs {END_TO_END}"
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == PER_LAYER, f"per_layer differs: {declared} vs {PER_LAYER}"
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def check_emitted(workload: str, trace: int) -> None:
    result = bench(workload, trace)
    units = END_TO_END if trace == 0 else PER_LAYER
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, f"{workload} trace={trace}: metrics {got}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{name} is not a number"
    assert result["correct"] and result["failed"] == 0, (workload, trace, result["summary"])
    assert result["summary"]["fail_ratio"] == {"value": 0.0, "unit": "ratio"}
    assert result["summary"]["golden_checked"], f"{workload}: no golden digests"


def check_corrupted_golden() -> None:
    golden = json.loads((BENCH / "golden.json").read_text())
    digests = golden["tiny"]["exec-traced"][str(DEFAULT_SEED)]
    name = sorted(digests)[0]
    digests[name] = "0" * 64
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "golden.json"
        path.write_text(json.dumps(golden))
        result = bench("exec-traced", 0, str(path))
    assert result["summary"]["fail_ratio"]["value"] > 0, result["summary"]
    assert not result["correct"]


def main() -> int:
    check_declared_metrics()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_emitted(workload, trace)
    check_corrupted_golden()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
