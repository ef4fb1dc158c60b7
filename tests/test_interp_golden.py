"""Golden behavior matrices: the interpreter's observable semantics, pinned.

``interp_golden.json`` holds the sha256 of ``matrix_to_json_text`` for each
case below.  The digests were recorded from the tree-walking interpreter
before it was replaced, so any change of output, status, trace entry or of
the step on which a timeout lands shows up here.  Rewrite a digest only for
a deliberate change of semantics.

Re-record (prints the JSON; review the diff before committing it):

    PYTHONPATH=src:tests python3 -c "import json, test_interp_golden as g; print(json.dumps(g.digests(), indent=2, sort_keys=True))"
"""
import hashlib
import json
from pathlib import Path

import pytest

from mutspace import matrix_to_json_text
from mutspace.lang import TestCase, behavior_matrix, mutate_all, parse
from helpers import MAX_SRC, SCRATCH_SRC, TWENTY_SRC

GOLDEN = Path(__file__).with_name("interp_golden.json")

# the seeded faults of the benchmark corpus, each reverted by one mutant
TWENTY_FAULTY = TWENTY_SRC.replace("d = prod - sum", "d = prod * sum")
MAX_FAULTY = MAX_SRC.replace("b > m", "b < m")
SCRATCH_FAULTY = SCRATCH_SRC.replace("b > m", "b == m")

# division, modulo and unbound-name halts inside nested if/while bodies
NESTED_HALTS = """s = 0;
i = 0;
while (i < n) {
  if (i % 3 == 2) {
    s = s + 10 / (k - i);
  } else {
    while (s > 20) {
      s = s % (k - 5);
    }
  }
  i = i + 1;
}
if (s > 3) {
  if (n > 4) {
    return s / (n - 6);
  }
  return t;
}
return s;
"""

# ``nope`` is never bound: only the evaluated side of && / || may halt
SHORT_CIRCUIT = """x = 0;
if (a > 0 || nope > 1) {
  x = 1;
}
if (a < 0 && nope > 1) {
  x = x + 2;
}
y = a != 0 && (b == 0 || nope);
return x + y;
"""


def _grid(**ranges):
    """One test per point of the product of the named integer ranges."""
    points = [{}]
    for name, values in ranges.items():
        points = [dict(p, **{name: v}) for p in points for v in values]
    return [
        TestCase("_".join(f"{k}{v}" for k, v in p.items()), p) for p in points
    ]


# name -> (source, tests, budget, tracing); every case runs all mutants.
# Budget 150 cuts many TWENTY cells mid-loop, so the step on which each
# timeout lands (and, traced, the trace up to it) is pinned.
CASES = {
    "twenty_b150": (TWENTY_FAULTY, _grid(n=range(31)), 150, False),
    "twenty_b150_traced": (TWENTY_FAULTY, _grid(n=range(31)), 150, True),
    "twenty_b400": (TWENTY_FAULTY, _grid(n=range(31)), 400, False),
    "max_traced": (MAX_FAULTY, _grid(a=range(-2, 3), b=range(-2, 3)), 1_000, True),
    "scratch_traced": (SCRATCH_FAULTY, _grid(a=range(-2, 3), b=range(-2, 3)), 1_000, True),
    "nested_halts": (NESTED_HALTS, _grid(n=range(8), k=range(7)), 300, False),
    "nested_halts_traced": (NESTED_HALTS, _grid(n=range(8), k=range(7)), 300, True),
    "short_circuit": (SHORT_CIRCUIT, _grid(a=range(-1, 2), b=range(-1, 2)), 1_000, False),
    "short_circuit_traced": (SHORT_CIRCUIT, _grid(a=range(-1, 2), b=range(-1, 2)), 1_000, True),
}


def digest(name: str) -> str:
    source, tests, budget, tracing = CASES[name]
    program = parse(source)
    bm = behavior_matrix(program, mutate_all(program), tests, tracing, budget)
    return hashlib.sha256(matrix_to_json_text(bm).encode()).hexdigest()


def digests() -> dict[str, str]:
    return {name: digest(name) for name in CASES}


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_behavior_matrix_matches_golden(name):
    assert digest(name) == json.loads(GOLDEN.read_text())[name]
