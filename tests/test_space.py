import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutspace import (
    Differentiator,
    ProgramSpace,
    TestVector,
    UnknownIdError,
    coincidence_counterexample,
    diff_vector,
    differentiate,
    distinguishing_dimensions,
    position,
    project,
)
from helpers import (
    four_mutant_kills,
    kill_space,
    matrix_from_kill_bits,
    random_matrix,
    random_policy_matrix,
    three_program_matrix,
)

EXACT = Differentiator.exact()
POLICIES = [
    EXACT,
    Differentiator.output_only(),
    Differentiator.trace_only(),
    Differentiator.numeric(0.5),
]


def spec_space():
    bm = three_program_matrix()
    return ProgramSpace(bm.tests, "ps", EXACT, bm)


def original_space():
    bm = three_program_matrix()
    return ProgramSpace(bm.tests, "po", EXACT, bm)


def test_space_validates_membership():
    bm = three_program_matrix()
    with pytest.raises(UnknownIdError):
        ProgramSpace(bm.tests, "nobody", EXACT, bm)
    with pytest.raises(UnknownIdError):
        ProgramSpace(TestVector(("t9",)), "ps", EXACT, bm)


def test_space_identity_is_the_triple():
    bm = three_program_matrix()
    other = three_program_matrix()
    assert ProgramSpace(bm.tests, "ps", EXACT, bm) == ProgramSpace(
        other.tests, "ps", EXACT, other
    )
    assert ProgramSpace(bm.tests, "ps", EXACT, bm) != ProgramSpace(
        bm.tests, "po", EXACT, bm
    )


def test_positions_in_the_spec_space():
    sp = spec_space()
    assert position(sp, "m").bits == (0, 1, 1, 0)
    assert position(sp, "po").bits == (0, 1, 1, 1)
    assert position(sp, "ps").bits == (0, 0, 0, 0)


def test_position_of_origin_is_zero():
    sp = original_space()
    assert position(sp, "po").bits == (0, 0, 0, 0)


def test_positions_in_the_kill_space():
    km = four_mutant_kills()
    sp = kill_space(km)
    assert position(sp, "m2").bits == (0, 1, 1)
    assert position(sp, "m1").bits == (1, 0, 0)


def test_distances():
    sp = spec_space()
    assert position(sp, "po").norm() == 3
    assert position(sp, "ps").norm() == 0
    assert position(original_space(), "m").norm() == 2


def test_distinguishing_dimensions_of_the_example():
    sp = spec_space()
    assert distinguishing_dimensions(sp, "po", "m") == ["t4"]
    assert distinguishing_dimensions(sp, "po", "po") == []


def test_distinguishing_dimensions_in_the_kill_space():
    sp = kill_space(four_mutant_kills())
    assert distinguishing_dimensions(sp, "m1", "m2") == ["t1", "t2", "t3"]


def test_distinguishing_dimensions_really_differentiate():
    sp = kill_space(four_mutant_kills())
    for t in distinguishing_dimensions(sp, "m1", "m3"):
        assert differentiate(EXACT, t, "m1", "m3", sp.matrix) == 1


def test_coincidence_counterexample_one_dimension():
    bm = three_program_matrix()
    sp = ProgramSpace(TestVector(("t3",)), "ps", EXACT, bm)
    assert position(sp, "po").bits == (1,)
    assert position(sp, "m").bits == (1,)
    assert coincidence_counterexample(sp, "po", "m") == ["t3"]


def test_coincidence_counterexample_none_for_same_program():
    sp = spec_space()
    assert coincidence_counterexample(sp, "po", "po") is None


def test_coincidence_counterexample_in_the_kill_space():
    # m1 and m3 positions agree on t1 and t2; the synthesized tokens are
    # mutant-unique where killed, so t1 (both killed) must be a witness.
    km = four_mutant_kills()
    bm = matrix_from_kill_bits(km)
    sp = kill_space(km, bm)
    witnesses = coincidence_counterexample(sp, "m1", "m3")
    assert witnesses is not None
    agreeing = {"t1", "t2"}
    for t in witnesses:
        assert t in agreeing
        assert differentiate(EXACT, t, "m1", "m3", bm) == 1
    assert "t1" in witnesses


# --- positional difference implies behavioral difference ------------------------


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(2, 4))
@settings(max_examples=200)
def test_position_difference_forces_behavior_difference(seed, n_tests, alphabet):
    rng = random.Random(seed)
    bm = random_matrix(rng, n_tests, 4, alphabet)
    sp = ProgramSpace(bm.tests, "p0", EXACT, bm)
    programs = ["p0", "p1", "p2", "p3"]
    for px in programs:
        for py in programs:
            if position(sp, px).bits != position(sp, py).bits:
                assert diff_vector(EXACT, sp.tests, px, py, bm).norm() > 0


def test_equal_positions_with_different_behaviors_are_reachable():
    # with a 3-token alphabet the generator must hit the coincidence case
    # well within 1000 instances
    rng = random.Random(20240817)
    found = 0
    for _ in range(1000):
        bm = random_matrix(rng, 3, 3, 3)
        sp = ProgramSpace(bm.tests, "p0", EXACT, bm)
        if position(sp, "p1").bits == position(sp, "p2").bits:
            if coincidence_counterexample(sp, "p1", "p2"):
                found += 1
    assert found >= 1


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 5), st.integers(1, 4), st.sampled_from(POLICIES))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_a_position_is_the_d_vector_from_the_origin_and_projects_to_a_prefix(
    seed, n_tests, alphabet, d
):
    # a position is the pair's d-vector read from its origin, and
    # truncating a position is reading it in the prefix space
    bm = random_matrix(random.Random(seed), n_tests, 4, alphabet)
    for origin in bm.program_ids():
        sp = ProgramSpace(bm.tests, origin, d, bm)
        prefixes = [ProgramSpace(sp.tests.prefix(k), origin, d, bm) for k in range(n_tests + 1)]
        for p in bm.program_ids():
            v = position(sp, p)
            assert v == diff_vector(d, sp.tests, origin, p, bm)
            for k, sub in enumerate(prefixes):
                assert project(v, k) == position(sub, p)


def test_coincidence_counterexample_names_unknown_programs():
    sp = spec_space()
    with pytest.raises(UnknownIdError, match="unknown program id 'nobody'"):
        coincidence_counterexample(sp, "nobody", "m")
    with pytest.raises(UnknownIdError, match="unknown program id 'nobody'"):
        coincidence_counterexample(sp, "m", "nobody")


@given(
    st.integers(0, 2 ** 32 - 1), st.integers(0, 6), st.integers(1, 3),
    st.sampled_from(POLICIES), st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_packed_kernels_match_per_test_differentiate(seed, n_tests, alphabet, d, every_field):
    from mutspace import build_dmsg, kill_matrix
    from mutspace.behavior import pack_bits

    # random_matrix's trace-less v<k> outputs leave trace and numeric
    # degenerate; random_policy_matrix draws outputs, statuses and traces
    rng = random.Random(seed)
    if every_field:
        bm = random_policy_matrix(rng, n_tests, 4)
    else:
        bm = random_matrix(rng, n_tests, 4, alphabet, roles={"p0": "original"})
    programs = bm.program_ids()

    def bits(px, py):  # reference: one differentiate call per test
        return tuple(differentiate(d, t, px, py, bm) for t in bm.tests)

    for px in programs:
        for py in programs:
            v = diff_vector(d, bm.tests, px, py, bm)
            assert v.bits == bits(px, py)
            assert v.mask == pack_bits(v.bits)
            assert v.norm() == sum(v.bits)
    sp = ProgramSpace(bm.tests, "p0", d, bm)
    for cls in build_dmsg(kill_matrix(sp, programs[1:], bm)).classes:
        for m in cls.members:
            assert cls.mask == pack_bits(bits("p0", m))
    for origin in programs:
        sp = ProgramSpace(bm.tests, origin, d, bm)
        for px in programs:
            for py in programs:
                rows = zip(bm.tests, bits(origin, px), bits(origin, py), bits(px, py))
                found = [t for t, ox, oy, xy in rows if ox == oy and xy]
                assert coincidence_counterexample(sp, px, py) == (found or None)
