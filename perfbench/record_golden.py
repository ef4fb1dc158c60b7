"""Record golden artefact digests into perfbench/golden.json.

    python3 perfbench/record_golden.py

One job per workload on the default and the held-out seed at full size,
and on the default seed at tiny size (the self-test's inputs).  A job whose
outputs fail any check in checks.py is not recorded; the script exits 1.
Re-record only when an artefact format is meant to change.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from corpus import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402

PLAN = {"full": (DEFAULT_SEED, HELD_OUT_SEED), "tiny": (DEFAULT_SEED,)}


def digests(workload: str, seed: int, size: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--mode", "digests",
         "--workload", workload, "--seed", str(seed), "--size", size],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["problems"]:
        raise SystemExit(f"{size}/{workload}/{seed}: {result['problems'][:5]}")
    return result["digests"]


def main() -> int:
    golden = {
        size: {w: {str(s): digests(w, s, size) for s in seeds} for w in WORKLOADS}
        for size, seeds in PLAN.items()
    }
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
