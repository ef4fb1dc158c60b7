"""Per-column token classes against per-cell oracles.

A matrix stores each column as a table of distinct tokens plus one id per
row, and positions come from one pass over the columns.  These tests
recompute every bit with one ``Differentiator.differs`` call per cell and
compare, including the non-transitive numeric policy, and check that every
way of building a matrix yields the same value and that reading positions
leaves it unchanged.
"""
from __future__ import annotations

import copy
import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from mutspace import (
    BehaviorMatrix,
    BehaviorToken,
    Differentiator,
    ProgramEntry,
    ProgramSpace,
    kill_matrix,
    matrix_from_json_text,
    matrix_from_outputs,
    matrix_to_json_text,
    mutation_adequacy,
)
from mutspace.behavior import adequacy_from_masks, diff_mask
from mutspace.lang import TestCase, behavior_matrix, mutate_all, parse
from helpers import MAX_SRC, hamming_distance_of_rows, random_matrix

POLICIES = [
    Differentiator.exact(),
    Differentiator.output_only(),
    Differentiator.trace_only(),
    Differentiator.numeric(0.5),
]

# 0 ~ 0.4 ~ 0.8 under tolerance 0.5, but 0 and 0.8 differ: not transitive
NUMERIC_OUTPUTS = ("0", "0.4", "0.8", "x")

# tokens that agree on output but not trace, on trace but not output, and
# on both but not status, so the three equivalence policies part ways
TRACED_TOKENS = (
    BehaviorToken("1", trace=((1, "x=1"),)),
    BehaviorToken("1", trace=((1, "x=2"),)),
    BehaviorToken("2", trace=((1, "x=1"),)),
    BehaviorToken("1"),
    BehaviorToken("0.4", "error", ((1, "x=1"),)),
    BehaviorToken("0.8", "timeout"),
    BehaviorToken("0", trace=()),
)

derandomized = settings(max_examples=150, derandomize=True, deadline=None)


def numeric_matrix(rng: random.Random, n_tests: int, n_programs: int) -> BehaviorMatrix:
    tests = [f"t{i + 1}" for i in range(n_tests)]
    outputs = {f"p{j}": [rng.choice(NUMERIC_OUTPUTS) for _ in tests] for j in range(n_programs)}
    return matrix_from_outputs(tests, outputs)


def traced_matrix(rng: random.Random, n_tests: int, n_programs: int) -> BehaviorMatrix:
    tests = [f"t{i + 1}" for i in range(n_tests)]
    programs = [f"p{j}" for j in range(n_programs)]
    cells = {p: {t: rng.choice(TRACED_TOKENS) for t in tests} for p in programs}
    return BehaviorMatrix(tests, programs, cells)


matrices = st.builds(
    lambda kind, seed, n_tests, n_programs, alphabet: (
        random_matrix(random.Random(seed), n_tests, n_programs, alphabet)
        if kind == "random"
        else numeric_matrix(random.Random(seed), n_tests, n_programs)
        if kind == "numeric"
        else traced_matrix(random.Random(seed), n_tests, n_programs)
    ),
    st.sampled_from(["random", "numeric", "traced"]),
    st.integers(0, 2**32 - 1),
    st.integers(0, 6),
    st.integers(1, 5),
    st.integers(1, 4),
)


def brute_mask(d: Differentiator, tests, px: str, py: str, bm: BehaviorMatrix) -> int:
    """One ``differs`` call per cell; bit i is ``tests[i]``."""
    return sum(
        1 << i for i, t in enumerate(tests) if d.differs(bm.token(px, t), bm.token(py, t))
    )


@given(matrices, st.sampled_from(POLICIES), st.randoms(use_true_random=False))
@derandomized
def test_positions_and_pairwise_masks_equal_a_per_cell_brute_force(bm, d, rnd):
    ids = bm.program_ids()
    # a shuffled subset of the tests, so columns are read out of order too
    tests = rnd.sample(list(bm.tests), rnd.randint(0, len(bm.tests)))
    for origin in ids:
        sp = ProgramSpace(tests, origin, d, bm)
        brute = {p: brute_mask(d, tests, origin, p, bm) for p in ids}
        assert {p: sp.mask(p) for p in ids} == brute
        mutants = [p for p in ids if p != origin]
        assert mutation_adequacy(d, tests, origin, mutants, bm) == adequacy_from_masks(
            tests, ((m, brute[m]) for m in mutants)
        )
    for px in ids:
        for py in ids:
            mask = diff_mask(d, tests, px, py, bm)
            assert mask == brute_mask(d, tests, px, py, bm)
            assert mask.bit_count() == hamming_distance_of_rows(bm, tests, px, py, d)


def test_numeric_positions_are_not_read_through_a_neighbour():
    # p1 is within tolerance of the origin and of p2, p2 is not of the origin
    bm = matrix_from_outputs(["t1"], {"p0": ["0"], "p1": ["0.4"], "p2": ["0.8"]})
    sp = ProgramSpace(bm.tests, "p0", Differentiator.numeric(0.5), bm)
    assert [sp.mask(p) for p in ("p0", "p1", "p2")] == [0, 0, 1]
    assert diff_mask(sp.differentiator, bm.tests, "p1", "p2", bm) == 0


def test_every_builder_yields_the_same_matrix():
    program = parse(MAX_SRC)
    tests = [TestCase(f"k{i}", {"a": a, "b": b}) for i, (a, b) in enumerate(
        [(1, 2), (2, 1), (3, 3), (0, -1), (5, 5)])]
    mutants = mutate_all(program)
    for tracing in (False, True):
        executed = behavior_matrix(program, mutants, tests, tracing=tracing,
                                   expected={t.id: str(max(t.inputs.values())) for t in tests})
        cells = {p.id: {t: executed.token(p.id, t) for t in executed.tests}
                 for p in executed.programs}
        rebuilt = BehaviorMatrix(executed.tests, executed.programs, cells)
        loaded = matrix_from_json_text(matrix_to_json_text(executed))
        assert rebuilt == executed and loaded == executed
        for bm in (rebuilt, loaded):
            for p in executed.program_ids():
                for t in executed.tests:
                    assert bm.token(p, t) == executed.token(p, t)

    outputs = {"po": ["1", "2", "2"], "m1": ["1", "3", "2"], "m2": ["2", "2", "2"]}
    roles = {"po": "original", "m1": "mutant", "m2": "mutant"}
    origins = {"m1": "po", "m2": "po"}
    from_outputs = matrix_from_outputs(["t1", "t2", "t3"], outputs, roles, origins)
    built = BehaviorMatrix(
        ["t1", "t2", "t3"],
        [ProgramEntry(p, roles[p], origins.get(p)) for p in outputs],
        {p: {f"t{i + 1}": BehaviorToken(out) for i, out in enumerate(row)}
         for p, row in outputs.items()},
    )
    loaded = matrix_from_json_text(matrix_to_json_text(from_outputs))
    assert from_outputs == built == loaded
    assert matrix_to_json_text(built) == matrix_to_json_text(from_outputs)
    assert built.token("m1", "t2") == from_outputs.token("m1", "t2") == BehaviorToken("3")


def test_a_changed_cell_makes_matrices_unequal():
    outputs = {"p": ["1", "2"], "q": ["1", "2"]}
    bm = matrix_from_outputs(["t1", "t2"], outputs)
    other = matrix_from_outputs(["t1", "t2"], {"p": ["1", "2"], "q": ["1", "1"]})
    assert bm != other
    assert bm == matrix_from_outputs(["t1", "t2"], dict(outputs))


def test_reading_positions_leaves_every_matrix_unchanged():
    tests = ["t1", "t2", "t3"]
    programs = [ProgramEntry("po", "original"), ProgramEntry("m1", "mutant", "po"),
                ProgramEntry("m2", "mutant", "po")]
    cells = {p.id: {t: TRACED_TOKENS[(i + j) % len(TRACED_TOKENS)] for j, t in enumerate(tests)}
             for i, p in enumerate(programs)}
    constructed = BehaviorMatrix(tests, programs, cells)
    from_outputs = matrix_from_outputs(
        tests, {"po": ["0", "0.4", "x"], "m1": ["0.8", "0.4", "x"], "m2": ["0", "1", "y"]},
        roles={"po": "original", "m1": "mutant", "m2": "mutant"},
    )
    program = parse(MAX_SRC)
    executed = behavior_matrix(program, mutate_all(program),
                               [TestCase(f"k{i}", {"a": i, "b": 2 - i}) for i in range(3)],
                               tracing=True)
    for bm in (constructed, from_outputs, matrix_from_json_text(matrix_to_json_text(constructed)),
               executed):
        before = copy.deepcopy(vars(bm))
        mutants = list(bm.mutant_ids())
        for d in POLICIES:
            sp = ProgramSpace(bm.tests, bm.original_id, d, bm)
            for p in bm.program_ids():
                sp.mask(p)
                diff_mask(d, bm.tests, sp.origin, p, bm)
            mutation_adequacy(d, bm.tests, sp.origin, mutants, bm)
            kill_matrix(sp, mutants, bm)
        assert vars(bm) == before


def test_kill_matrix_over_20000_mutants_of_4_outputs_is_fast():
    # one column pass: about 0.5 s on a 2-core VM, where a token and a
    # differs call per cell took about 3 s
    rng = random.Random(7)
    values = ("a", "b", "c", "d")
    tests = [f"t{i + 1}" for i in range(64)]
    mutants = [f"m{j + 1}" for j in range(20_000)]
    outputs = {"original": ["a"] * len(tests)}
    outputs.update({m: [rng.choice(values) for _ in tests] for m in mutants})
    roles = {"original": "original", **{m: "mutant" for m in mutants}}
    start = time.perf_counter()
    bm = matrix_from_outputs(tests, outputs, roles=roles)
    km = kill_matrix(ProgramSpace(bm.tests, "original", Differentiator.exact(), bm), mutants, bm)
    elapsed = time.perf_counter() - start
    for m in mutants[:200]:
        expected = [int(out != "a") for out in outputs[m]]
        assert list(km.column(m)) == expected
    assert elapsed < 1.5
