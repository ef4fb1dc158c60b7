"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the library code paths they check:
reachability is plain BFS over explicit edges, subsumption is a row scan,
Hamming distance compares raw token rows.
"""
from __future__ import annotations

import random
from collections import deque

from mutspace import (
    BehaviorMatrix,
    BehaviorToken,
    Differentiator,
    KillMatrix,
    ProgramEntry,
    ProgramSpace,
    TestVector,
    matrix_from_outputs,
)
from mutspace.behavior import STATUS_ERROR, STATUS_NORMAL, STATUS_TIMEOUT

# max(a, b) in four statements; the if-condition is the interesting site
MAX_SRC = """m = a;
if (b > m) {
  m = b;
}
return m;
"""

# same computation plus a scratch variable that never reaches the output,
# so mutating it changes internal state only
SCRATCH_SRC = """t = a + b;
m = a;
if (b > m) {
  m = b;
}
return m;
"""

# twenty statements exercising every statement form and operator class
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

# Three programs over four tests: the spec row is constant, the original
# drifts away on t2..t4, and the mutant returns to the spec on t4 while
# inventing a third behavior on t3.
THREE_PROGRAM_OUTPUTS = {
    "ps": ["alpha", "alpha", "alpha", "alpha"],
    "po": ["alpha", "beta", "beta", "beta"],
    "m": ["alpha", "beta", "gamma", "alpha"],
}

FOUR_MUTANT_CSV = """test,m1,m2,m3,m4
t1,1,0,1,1
t2,0,1,0,1
t3,0,1,1,1
"""


def three_program_matrix() -> BehaviorMatrix:
    return matrix_from_outputs(
        ["t1", "t2", "t3", "t4"],
        THREE_PROGRAM_OUTPUTS,
        roles={"ps": "spec", "po": "original", "m": "mutant"},
        origins={"m": "po"},
    )


def four_mutant_kills() -> KillMatrix:
    return KillMatrix.from_csv(FOUR_MUTANT_CSV)


def matrix_from_kill_bits(km: KillMatrix) -> BehaviorMatrix:
    """Synthesize behaviors whose exact-equality kills reproduce ``km``.

    Killed cells get a token unique to (test, mutant), so two mutants that
    are killed by the same test still behave differently on it.
    """
    outputs = {"po": ["base"] * len(km.tests)}
    for m in km.mutants:
        outputs[m] = [
            f"kill-{t}-{m}" if bit else "base"
            for t, bit in zip(km.tests, km.column(m))
        ]
    roles = {"po": "original"}
    roles.update({m: "mutant" for m in km.mutants})
    origins = {m: "po" for m in km.mutants}
    return matrix_from_outputs(km.tests, outputs, roles=roles, origins=origins)


def kill_space(km: KillMatrix, bm: BehaviorMatrix | None = None) -> ProgramSpace:
    bm = bm if bm is not None else matrix_from_kill_bits(km)
    return ProgramSpace(km.tests, "po", Differentiator.exact(), bm)


def random_matrix(
    rng: random.Random,
    n_tests: int,
    n_programs: int,
    alphabet: int,
    roles: dict[str, str] | None = None,
) -> BehaviorMatrix:
    """Uniform random trace-less matrix over an ``alphabet``-token vocabulary."""
    tests = [f"t{i + 1}" for i in range(n_tests)]
    outputs = {
        f"p{j}": [f"v{rng.randrange(alphabet)}" for _ in tests]
        for j in range(n_programs)
    }
    return matrix_from_outputs(tests, outputs, roles=roles)


NUMERIC_OUTPUTS = ("0", "0.4", "0.8", "x")
STATUS_DRAWS = (STATUS_NORMAL, STATUS_ERROR, STATUS_TIMEOUT)
TRACES = (((1, "a"),), ((1, "b"),), ((1, "a"), (2, "a")))


def random_policy_matrix(rng: random.Random, n_tests: int, n_programs: int) -> BehaviorMatrix:
    """Random matrix that every policy reads: each cell has an output from
    ``NUMERIC_OUTPUTS`` (within and beyond a 0.5 tolerance of each other,
    and one that is not a number), a status and a trace.  ``p0`` is the
    original; each field of a mutant's cell keeps ``p0``'s value with
    probability 1/2, so the policies disagree on which cells differ."""
    tests = [f"t{i + 1}" for i in range(n_tests)]
    pools = (NUMERIC_OUTPUTS, STATUS_DRAWS, TRACES)
    origin = {t: [rng.choice(pool) for pool in pools] for t in tests}

    def near(mine, pool):
        return mine if rng.random() < 0.5 else rng.choice(pool)

    cells = {"p0": {t: BehaviorToken(*origin[t]) for t in tests}}
    for j in range(1, n_programs):
        cells[f"p{j}"] = {t: BehaviorToken(*map(near, origin[t], pools)) for t in tests}
    programs = [ProgramEntry("p0", "original")]
    programs += [ProgramEntry(p, "mutant", "p0") for p in list(cells)[1:]]
    return BehaviorMatrix(tests, programs, cells)


def random_kill_matrix(rng: random.Random, n_tests: int, n_mutants: int) -> KillMatrix:
    tests = TestVector(tuple(f"t{i + 1}" for i in range(n_tests)))
    mutants = tuple(f"m{j + 1}" for j in range(n_mutants))
    rows = tuple(
        tuple(rng.randrange(2) for _ in mutants) for _ in tests
    )
    return KillMatrix(tests, mutants, rows)


# --- independent oracles ------------------------------------------------------


def hamming_distance_of_rows(
    bm: BehaviorMatrix, tv, px: str, py: str, d: Differentiator
) -> int:
    """Count positions where the two token rows differ under ``d``."""
    return sum(1 for t in tv if d.differs(bm.token(px, t), bm.token(py, t)))


def bfs_reachable(lattice, start) -> set:
    """Graph-search reachability over the lattice's explicit edge list."""
    adjacency: dict = {}
    for u, v, _ in lattice.edges():
        adjacency.setdefault(u, []).append(v)
    seen = set()
    queue = deque([tuple(start)])
    while queue:
        node = queue.popleft()
        for nxt in adjacency.get(node, []):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def brute_force_subsumes(km: KillMatrix, mx: str, my: str) -> bool:
    """Direct restatement of the definition, scanning rows."""
    if mx == my:
        return False
    jx = km.mutants.index(mx)
    jy = km.mutants.index(my)
    killed_once = any(row[jx] for row in km.bits)
    if not killed_once:
        return False
    return all(row[jy] for row in km.bits if row[jx])


def max_antichain_by_enumeration(n: int) -> int:
    """Largest antichain of the n-cube by exhaustive subset search."""
    nodes = list(range(2 ** n))

    def leq(a: int, b: int) -> bool:
        return a & b == a

    best = 0
    for mask in range(1, 2 ** len(nodes)):
        members = [nodes[i] for i in range(len(nodes)) if mask >> i & 1]
        if len(members) <= best:
            continue
        ok = True
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if leq(a, b) or leq(b, a):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            best = len(members)
    return best
