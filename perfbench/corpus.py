"""Benchmark corpus: toy-language programs, Python references and seeded inputs.

Each exec subject is a correct program shape, a seeded-fault variant of it
that serves as the "original" under analysis, and two independent Python
references (correct and faulty).  Every fault is a single operator change
that one generated mutant of the faulty program reverts, so the repairing
mutant exists and fault localization has a right answer.

Every input is a pure function of the ``--seed`` argument: ``make_inputs``
draws from ``random.Random`` instances derived from the seed and nothing
else (no clock, no environment).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_BUDGET = 100_000  # the CLI default, passed explicitly on every run
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017  # recorded in the golden file, never used for tuning

# --- program shapes ---------------------------------------------------------

# max(a, b) in four statements
MAX_SRC = """m = a;
if (b > m) {
  m = b;
}
return m;
"""

# fault in statement 2: min-where-max-was-meant
MAX_FAULTY_SRC = MAX_SRC.replace("b > m", "b < m")

# max plus a scratch variable that never reaches the output
SCRATCH_SRC = """t = a + b;
m = a;
if (b > m) {
  m = b;
}
return m;
"""

# fault in statement 3: the branch only fires on ties, so the result is a
SCRATCH_FAULTY_SRC = SCRATCH_SRC.replace("b > m", "b == m")

# twenty statements, two counting loops
TWENTY_SRC = """sum = 0;
i = 1;
while (i <= n) {
  sum = sum + i;
  i = i + 1;
}
prod = 1;
j = 1;
while (j <= n) {
  prod = prod * j;
  j = j + 1;
}
d = prod - sum;
if (d < 0) {
  d = 0 - d;
} else {
  d = d + 0;
}
r = 0;
if (n % 2 == 0) {
  r = sum;
} else {
  r = prod;
}
out = r + d;
return out;
"""

# fault in statement 11: product where the difference was meant
TWENTY_FAULTY_SRC = TWENTY_SRC.replace("d = prod - sum", "d = prod * sum")


def max_ref(a: int, b: int) -> int:
    return b if b > a else a


def max_faulty_ref(a: int, b: int) -> int:
    return b if b < a else a


def scratch_faulty_ref(a: int, b: int) -> int:
    return a


def _sum_prod(n: int) -> tuple[int, int]:
    return sum(range(1, n + 1)), math.prod(range(1, n + 1))


def twenty_ref(n: int) -> int:
    total, prod = _sum_prod(n)
    return (total if n % 2 == 0 else prod) + abs(prod - total)


def twenty_faulty_ref(n: int) -> int:
    total, prod = _sum_prod(n)
    return (total if n % 2 == 0 else prod) + abs(prod * total)


@dataclass(frozen=True)
class Subject:
    """One program under analysis with its tests and reference outputs."""

    name: str
    source: str  # the seeded-fault original
    fault_statement: int
    reference: Callable[..., int]  # the intended program
    faulty_reference: Callable[..., int]  # the original, re-implemented
    tests: tuple  # of (test id, {var: int})
    expected: dict  # test id -> reference output text
    tracing: bool
    budget: int


@dataclass(frozen=True)
class ExecInputs:
    subjects: tuple[Subject, ...]


@dataclass(frozen=True)
class KillsInputs:
    """Kill-matrix CSV texts plus small matrices for the equivalence check."""

    csvs: tuple[tuple[str, str], ...]  # (name, CSV text)
    tiny: tuple[tuple[int, int, tuple[tuple[int, ...], ...]], ...]  # (n, M, rows)
    behaviors: tuple[tuple[str, ...], tuple[str, ...], dict]  # tests, mutants, outputs


# Sizes: "full" is what the benchmark measures; "tiny" is for the self-test.
SIZES = {
    "full": {
        "loops_budget": DEFAULT_BUDGET,
        "traced_tests": 500,
        "dense_n": 8,
        "sparse_n": 64,
        "sparse_m": 320,
        "sparse_p": 0.05,
        "tiny_matrices": 60,
        "behavior_tests": 64,
        "behavior_mutants": 200,
    },
    "tiny": {
        "loops_budget": 2_000,  # same matrix as 100,000 for every n in 0..30, faster
        "traced_tests": 20,
        "dense_n": 4,
        "sparse_n": 16,
        "sparse_m": 24,
        "sparse_p": 0.1,
        "tiny_matrices": 3,
        "behavior_tests": 6,
        "behavior_mutants": 8,
    },
}

WORKLOADS = ("exec-loops", "exec-traced", "analyze-kills")


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}:{stream}")


def _subject(name, source, fault, ref, faulty_ref, tests, tracing, budget):
    expected = {tid: str(ref(**inputs)) for tid, inputs in tests}
    return Subject(name, source, fault, ref, faulty_ref, tuple(tests), expected,
                   tracing, budget)


def _ab_tests(rng: random.Random, count: int) -> list:
    return [
        (f"t{i + 1}", {"a": rng.randint(-1000, 1000), "b": rng.randint(-1000, 1000)})
        for i in range(count)
    ]


def _kill_csv(tests, columns) -> str:
    """CSV text of a kill matrix given per-mutant columns (tuples of bits)."""
    lines = ["test," + ",".join(f"m{j + 1}" for j in range(len(columns)))]
    for i, t in enumerate(tests):
        lines.append(t + "," + ",".join(str(col[i]) for col in columns))
    return "\n".join(lines) + "\n"


def make_inputs(workload: str, seed: int, size: str = "full") -> tuple:
    """The workload's pool of input sets, a pure function of (workload, seed, size).

    Job j runs input set j mod len(pool).  An exec-loops job holds two tests,
    one even and one odd n in [0, 30], so both arms of ``if (n % 2 == 0)``
    run; with two tests of one parity the fix ranking can tie (n = 1 and 3
    tie four statements).  Test cost depends on n (for n = 1 mutant loops
    build huge integers), so the pool walks every (even, odd) pair of two
    seeded permutations and a run averages over the range.  The other
    workloads hold enough inputs per job to be steady with one set.
    """
    cfg = SIZES[size]
    if workload == "exec-loops":
        rng = _rng(seed, "loops")
        evens = rng.sample(range(0, 31, 2), 16)
        odds = rng.sample(range(1, 31, 2), 15)
        pool = []
        for job in range(16 * 15):  # 16 and 15 are coprime: every pair once
            tests = [("t1", {"n": evens[job % 16]}), ("t2", {"n": odds[job % 15]})]
            pool.append(ExecInputs((
                _subject("twenty", TWENTY_FAULTY_SRC, 11, twenty_ref,
                         twenty_faulty_ref, tests, False, cfg["loops_budget"]),
            )))
        return tuple(pool)
    if workload == "exec-traced":
        count = cfg["traced_tests"]
        return (ExecInputs((
            _subject("max", MAX_FAULTY_SRC, 2, max_ref, max_faulty_ref,
                     _ab_tests(_rng(seed, "max"), count), True, DEFAULT_BUDGET),
            _subject("scratch", SCRATCH_FAULTY_SRC, 3, max_ref, scratch_faulty_ref,
                     _ab_tests(_rng(seed, "scratch"), count), True, DEFAULT_BUDGET),
        )),)
    if workload == "analyze-kills":
        return (_kills_inputs(seed, cfg),)
    raise ValueError(f"unknown workload {workload!r}")


def _kills_inputs(seed: int, cfg: dict) -> KillsInputs:
    rng = _rng(seed, "dense")
    n = cfg["dense_n"]
    dense = [tuple((c >> i) & 1 for i in range(n)) for c in range(1, 2 ** n)]
    rng.shuffle(dense)
    dense_tests = [f"t{i + 1}" for i in range(n)]

    rng = _rng(seed, "sparse")
    n, p = cfg["sparse_n"], cfg["sparse_p"]
    sparse = [tuple(1 if rng.random() < p else 0 for _ in range(n))
              for _ in range(cfg["sparse_m"])]
    sparse_tests = [f"t{i + 1}" for i in range(n)]

    rng = _rng(seed, "tiny")
    tiny = []
    for _ in range(cfg["tiny_matrices"]):
        n, m = rng.randint(1, 6), rng.randint(2, 12)
        tiny.append((n, m, tuple(tuple(rng.randrange(2) for _ in range(m))
                                 for _ in range(n))))

    rng = _rng(seed, "behavior")
    tests = tuple(f"t{i + 1}" for i in range(cfg["behavior_tests"]))
    mutants = tuple(f"m{j + 1}" for j in range(cfg["behavior_mutants"]))
    outputs = {"original": [str(rng.randrange(4)) for _ in tests]}
    for m in mutants:
        outputs[m] = [str(rng.randrange(4)) if rng.random() < 0.1 else base
                      for base in outputs["original"]]
    return KillsInputs(
        csvs=(("dense", _kill_csv(dense_tests, dense)),
              ("sparse", _kill_csv(sparse_tests, sparse))),
        tiny=tuple(tiny),
        behaviors=(tests, mutants, outputs),
    )


