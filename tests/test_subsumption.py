import itertools
import random
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mutspace import (
    DevianceWitness,
    Differentiator,
    KillMatrix,
    ProgramSpace,
    RoleError,
    TestVector,
    adequacy_from_kills,
    annotate,
    build_dmsg,
    build_lattice,
    deviance_subsumption_equivalence,
    deviant,
    dmsg_to_dot,
    dynamically_subsumes,
    kill_matrix,
    matrix_from_json_text,
    matrix_from_outputs,
    matrix_to_json_text,
    max_minimal_size,
    minimal_mutant_set,
    reachable_by_deviance,
)
from mutspace.behavior import unpack_bits
from helpers import (
    FOUR_MUTANT_CSV,
    brute_force_subsumes,
    four_mutant_kills,
    kill_space,
    matrix_from_kill_bits,
    max_antichain_by_enumeration,
    random_kill_matrix,
    random_policy_matrix,
)

EXACT = Differentiator.exact()


# --- kill matrix construction and CSV ------------------------------------------


def test_kill_matrix_reconstruction_from_behaviors():
    shapes = [(1, 1), (3, 5), (4, 9), (6, 4), (8, 20), (0, 3), (3, 0), (0, 0)]
    kms = [four_mutant_kills()]
    kms += [random_kill_matrix(random.Random(seed), n, m) for seed, (n, m) in enumerate(shapes)]
    for km in kms:
        bm = matrix_from_kill_bits(km)
        rebuilt = kill_matrix(kill_space(km, bm), list(km.mutants), bm)
        assert rebuilt == km
        assert hash(rebuilt) == hash(km)
        assert rebuilt.bits == km.bits
        assert KillMatrix(km.tests, km.mutants, rebuilt.bits) == km


def test_kill_matrix_requires_original_role():
    bm = matrix_from_outputs(
        ["t1"], {"a": ["x"], "b": ["y"]}, roles={"a": "spec"}
    )
    sp = ProgramSpace(bm.tests, "a", EXACT, bm)
    with pytest.raises(RoleError, match="original"):
        kill_matrix(sp, ["b"], bm)


def test_kill_matrix_refuses_a_matrix_other_than_the_spaces():
    km = four_mutant_kills()
    bm = matrix_from_kill_bits(km)
    sp = kill_space(km, bm)
    other = matrix_from_kill_bits(KillMatrix(km.tests, km.mutants, km.bits[::-1]))
    with pytest.raises(ValueError, match="bm differs from sp.matrix"):
        kill_matrix(sp, list(km.mutants), other)
    reloaded = matrix_from_json_text(matrix_to_json_text(bm))
    assert reloaded is not bm
    assert kill_matrix(sp, list(km.mutants), reloaded) == kill_matrix(sp, list(km.mutants), bm)


def test_kill_matrix_with_no_mutants():
    km = four_mutant_kills()
    bm = matrix_from_kill_bits(km)
    sp = kill_space(km, bm)
    empty = kill_matrix(sp, [], bm)
    assert empty.mutants == ()
    assert all(row == () for row in empty.bits)


def test_mutant_identical_to_original_has_zero_column():
    bm = matrix_from_outputs(
        ["t1", "t2"],
        {"po": ["x", "y"], "twin": ["x", "y"]},
        roles={"po": "original", "twin": "mutant"},
        origins={"twin": "po"},
    )
    sp = ProgramSpace(bm.tests, "po", EXACT, bm)
    km = kill_matrix(sp, ["twin"], bm)
    assert km.column("twin") == (0, 0)


def test_csv_round_trip_is_byte_stable():
    km = KillMatrix.from_csv(FOUR_MUTANT_CSV)
    assert km.to_csv() == FOUR_MUTANT_CSV
    assert KillMatrix.from_csv(km.to_csv()) == km


def test_csv_rejects_malformed_input():
    with pytest.raises(ValueError, match="header"):
        KillMatrix.from_csv("mutant,m1\nt1,1\n")
    with pytest.raises(ValueError, match="line 2"):
        KillMatrix.from_csv("test,m1,m2\nt1,1\n")
    with pytest.raises(ValueError, match="0 or 1"):
        KillMatrix.from_csv("test,m1\nt1,x\n")


def test_cells_are_stored_as_the_ints_0_and_1():
    km = KillMatrix(TestVector(("t1", "t2")), ("a", "b"), ((True, False), (1, 0)))
    assert km.bits == ((1, 0), (1, 0))
    assert all(type(b) is int for row in km.bits for b in row)
    assert km.to_csv() == "test,a,b\nt1,1,0\nt2,1,0\n"
    assert KillMatrix.from_csv(km.to_csv()) == km


@pytest.mark.parametrize("cell", [1.0, 0.0, "1", 2, -1, None, b"\x01"])
def test_constructor_rejects_cells_other_than_0_and_1(cell):
    with pytest.raises(ValueError, match="0 or 1"):
        KillMatrix(TestVector(("t1", "t2")), ("a", "b"), ((1, 0), (cell, 1)))


@pytest.mark.parametrize("cell", [" 1", "1 ", "+0", "-0", "00", "01", "\u0967", "", "True"])
def test_csv_accepts_only_the_text_0_and_1(cell):
    text = f"test,a,b\nt1,1,0\nt2,0,{cell}\n"
    with pytest.raises(ValueError, match="line 3: cells must be 0 or 1"):
        KillMatrix.from_csv(text)


def test_csv_round_trips_ids_with_commas_and_quotes():
    km = KillMatrix(
        TestVector(("t,1", 't"2')), ("a,b", 'x"y', "plain"), ((1, 0, 1), (0, 1, 1))
    )
    text = km.to_csv()
    assert text.splitlines()[0] == 'test,"a,b","x""y",plain'
    assert KillMatrix.from_csv(text) == km
    assert KillMatrix.from_csv(text).to_csv() == text


# --- dynamic subsumption ----------------------------------------------------------


def test_subsumption_pairs_of_the_example():
    km = four_mutant_kills()
    expected_true = {("m1", "m3"), ("m1", "m4"), ("m2", "m4"), ("m3", "m4")}
    for mx, my in itertools.permutations(km.mutants, 2):
        assert dynamically_subsumes(km, mx, my) == ((mx, my) in expected_true)


def test_live_mutant_subsumes_nothing():
    km = KillMatrix(TestVector(("t1",)), ("killed", "live"), ((1, 0),))
    assert dynamically_subsumes(km, "live", "killed") is False  # never killed
    assert dynamically_subsumes(km, "killed", "live") is False  # t1 kills only one
    both = KillMatrix(TestVector(("t1", "t2")), ("narrow", "wide"), ((1, 1), (0, 1)))
    assert dynamically_subsumes(both, "narrow", "wide") is True
    assert dynamically_subsumes(both, "wide", "narrow") is False


def test_self_subsumption_is_false():
    km = four_mutant_kills()
    assert dynamically_subsumes(km, "m1", "m1") is False


def test_subsumption_is_transitive():
    rng = random.Random(3131)
    for _ in range(100):
        km = random_kill_matrix(rng, 4, 6)
        for a, b, c in itertools.permutations(km.mutants, 3):
            if dynamically_subsumes(km, a, b) and dynamically_subsumes(km, b, c):
                assert dynamically_subsumes(km, a, c)


# --- DMSG ----------------------------------------------------------------------------


def test_dmsg_of_the_example():
    graph = build_dmsg(four_mutant_kills())
    assert [cls.members for cls in graph.classes] == [("m1",), ("m2",), ("m3",), ("m4",)]
    names = {
        (i, j): (graph.classes[i].representative, graph.classes[j].representative)
        for i, j in graph.edges
    }
    assert set(names.values()) == {("m1", "m3"), ("m3", "m4"), ("m2", "m4")}
    assert graph.live == ()


def test_dmsg_merges_identical_columns():
    km = KillMatrix(
        TestVector(("t1", "t2")), ("a", "b", "c"), ((1, 1, 0), (0, 0, 0))
    )
    graph = build_dmsg(km)
    assert [cls.members for cls in graph.classes] == [("a", "b")]
    assert graph.edges == ()
    assert graph.live == ("c",)


def test_dmsg_closure_matches_brute_force_on_random_matrices():
    rng = random.Random(8712)
    for _ in range(100):
        km = random_kill_matrix(rng, 6, 10)
        graph = build_dmsg(km)
        killed = set(km.killed_mutants())
        for mx, my in itertools.permutations(km.mutants, 2):
            expected = brute_force_subsumes(km, mx, my)
            if mx in killed and my in killed:
                ci, cj = graph.class_of(mx), graph.class_of(my)
                got = ci == cj or graph.subsumes(ci, cj)
                assert got == expected
            else:
                # a live mutant neither subsumes nor is subsumed
                assert expected is False


def columns_matrix(n, columns):
    """Kill matrix over ``n`` tests whose mutant j has kill mask columns[j]."""
    tests = TestVector(tuple(f"t{i + 1}" for i in range(n)))
    mutants = tuple(f"m{j + 1}" for j in range(len(columns)))
    rows = tuple(tuple(c >> i & 1 for c in columns) for i in range(n))
    return KillMatrix(tests, mutants, rows)


def brute_force_dmsg(n, columns):
    """Classes, transitive-reduction edges, live and roots from the
    definitions, pairwise over sets of killing tests."""
    kills = [frozenset(i for i in range(n) if c >> i & 1) for c in columns]
    groups = {}
    for j, k in enumerate(kills):
        if k:
            groups.setdefault(k, []).append(f"m{j + 1}")
    sets = list(groups)
    live = tuple(f"m{j + 1}" for j, k in enumerate(kills) if not k)
    sub = {(i, j) for i, a in enumerate(sets) for j, b in enumerate(sets) if a < b}
    edges = sorted(
        (i, j) for i, j in sub
        if not any((i, k) in sub and (k, j) in sub for k in range(len(sets)))
    )
    roots = tuple(j for j in range(len(sets)) if not any((i, j) in sub for i in range(len(sets))))
    return [tuple(groups[k]) for k in sets], edges, live, roots


@st.composite
def kill_columns(draw):
    """(n, columns) with zero, duplicate, sparse, dense and arbitrary columns."""
    n = draw(st.integers(0, 80))
    full = (1 << n) - 1
    few_tests = st.sets(st.integers(0, max(n - 1, 0)), max_size=3).map(
        lambda ts: sum(1 << t for t in ts) & full
    )
    columns = []
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(["zero", "copy", "sparse", "dense", "any"]))
        if kind == "copy" and columns:
            columns.append(draw(st.sampled_from(columns)))
        elif kind == "sparse":
            columns.append(draw(few_tests))
        elif kind == "dense":
            columns.append(full & ~draw(few_tests))
        elif kind == "any":
            columns.append(draw(st.integers(0, full)))
        else:
            columns.append(0)
    return n, columns


# 70 tests, 5 classes: the dense class has 67 killing tests (more than there
# are classes), the sparse ones fewer, so both halves of the kernel run.
_BOTH_RULES = (70, [(1 << 70) - 8, 1, 3, 0, 1 | 1 << 69, 3, 1 << 68])


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(kill_columns())
@example(_BOTH_RULES)
@example((0, []))
@example((0, [0, 0]))
@example((3, []))
def test_dmsg_and_minimal_set_match_a_pairwise_brute_force(case):
    n, columns = case
    km = columns_matrix(n, columns)
    members, edges, live, roots = brute_force_dmsg(n, columns)
    graph = build_dmsg(km)
    assert [cls.members for cls in graph.classes] == members
    assert list(graph.edges) == edges
    assert graph.live == live
    assert graph.roots() == roots
    result = minimal_mutant_set(km)
    assert result.minimal == tuple(members[i][0] for i in roots)
    assert result.roots == tuple(graph.classes[i] for i in roots)
    assert result.live == live
    killed = sum(map(len, members))
    assert result.reduction_ratio == (len(roots) / killed if killed else 0.0)


def test_dmsg_scales_to_the_full_cube_and_to_thousands_of_mutants():
    # every nonzero column of n = 10: the DMSG is the cube's cover relation
    n = 10
    dense = list(range(1, 2**n))
    random.Random(10).shuffle(dense)
    km = columns_matrix(n, dense)
    start = time.perf_counter()
    graph = build_dmsg(km)
    result = minimal_mutant_set(km)
    assert time.perf_counter() - start < 5.0
    assert len(graph.classes) == 2**n - 1
    assert len(graph.edges) == n * 2 ** (n - 1) - n
    assert len(result.minimal) == n

    # n = 64, M = 5,000, p = 0.05; the counts were pinned with the earlier
    # pairwise kernel, which took about 15 s on this matrix
    rng = random.Random(64_5000)
    sparse = [
        sum(1 << i for i in range(64) if rng.random() < 0.05) for _ in range(5000)
    ]
    km = columns_matrix(64, sparse)
    start = time.perf_counter()
    graph = build_dmsg(km)
    result = minimal_mutant_set(km)
    assert time.perf_counter() - start < 5.0
    assert (len(graph.classes), len(graph.edges), len(graph.live)) == (3957, 13530, 180)
    assert len(result.minimal) == 64


def test_dmsg_dot_lists_class_members():
    km = KillMatrix(
        TestVector(("t1", "t2")), ("a", "b", "c"), ((1, 1, 1), (0, 0, 1))
    )
    dot = dmsg_to_dot(build_dmsg(km))
    assert 'c0 [label="a,b"];' in dot
    assert 'c1 [label="c"];' in dot
    assert "c0 -> c1;" in dot


def test_dmsg_dot_escapes_quotes_and_backslashes():
    km = KillMatrix(TestVector(("t1",)), ('x"y', "p\\q"), ((1, 1),))
    dot = dmsg_to_dot(build_dmsg(km))
    assert 'c0 [label="x\\"y,p\\\\q"];' in dot


# --- minimal mutant sets ----------------------------------------------------------------


def test_minimal_set_of_the_example():
    result = minimal_mutant_set(four_mutant_kills())
    assert set(result.minimal) == {"m1", "m2"}
    assert result.live == ()
    assert result.reduction_ratio == pytest.approx(0.5)


def test_minimal_set_single_killed_mutant():
    km = KillMatrix(TestVector(("t1",)), ("only",), ((1,),))
    result = minimal_mutant_set(km)
    assert result.minimal == ("only",)
    assert result.reduction_ratio == pytest.approx(1.0)


def test_minimal_set_with_nothing_killed():
    km = KillMatrix(TestVector(("t1",)), ("a", "b"), ((0, 0),))
    result = minimal_mutant_set(km)
    assert result.minimal == ()
    assert result.live == ("a", "b")
    assert result.reduction_ratio == 0.0


def test_minimal_set_is_subsumption_free():
    rng = random.Random(11)
    for _ in range(200):
        km = random_kill_matrix(rng, 4, 8)
        result = minimal_mutant_set(km)
        for mx, my in itertools.permutations(result.minimal, 2):
            assert not dynamically_subsumes(km, mx, my)


def test_killing_the_minimal_set_kills_everything():
    # over every subset of tests: if it kills all of `minimal`, it kills
    # every killed mutant
    rng = random.Random(12)
    for _ in range(60):
        km = random_kill_matrix(rng, 4, 7)
        result = minimal_mutant_set(km)
        killed = km.killed_mutants()
        columns = {m: km.column(m) for m in km.mutants}
        for mask in range(2 ** len(km.tests)):
            chosen = [i for i in range(len(km.tests)) if mask >> i & 1]
            def kills(m):
                return any(columns[m][i] for i in chosen)
            if all(kills(m) for m in result.minimal):
                assert all(kills(m) for m in killed)


# --- the size bound -----------------------------------------------------------------------


def test_max_minimal_size_values():
    assert max_minimal_size(3) == 3
    assert max_minimal_size(5) == 10
    assert max_minimal_size(4) == 6
    assert max_minimal_size(1) == 1
    assert max_minimal_size(0) == 1
    with pytest.raises(ValueError):
        max_minimal_size(-1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bound_matches_exhaustive_antichain_search(n):
    assert max_antichain_by_enumeration(n) == max_minimal_size(n)


def test_random_minimal_sets_respect_the_bound():
    rng = random.Random(13)
    for _ in range(500):
        n = rng.randint(1, 4)
        m = rng.randint(1, 2 ** n)
        km = random_kill_matrix(rng, n, m)
        assert len(minimal_mutant_set(km).minimal) <= max_minimal_size(n)


def test_middle_layer_achieves_the_bound():
    # mutants at every middle-layer position of the 4-cube: all
    # incomparable, so the minimal set keeps every one of them
    n = 4
    columns = [
        combo
        for combo in itertools.product((0, 1), repeat=n)
        if sum(combo) == n // 2
    ]
    tests = TestVector(tuple(f"t{i + 1}" for i in range(n)))
    mutants = tuple(f"m{j + 1}" for j in range(len(columns)))
    rows = tuple(
        tuple(columns[j][i] for j in range(len(columns))) for i in range(n)
    )
    km = KillMatrix(tests, mutants, rows)
    assert len(minimal_mutant_set(km).minimal) == max_minimal_size(n)


# --- deviance <-> subsumption equivalence ------------------------------------------------


def test_equivalence_on_the_example():
    km = four_mutant_kills()
    sp = kill_space(km)
    check = deviance_subsumption_equivalence(sp, km, "m1", "m3")
    assert check.deviance_path_holds is True
    assert check.subsumes is True
    same = deviance_subsumption_equivalence(sp, km, "m1", "m1")
    assert (same.deviance_path_holds, same.subsumes) == (False, False)


def test_equivalence_holds_on_random_matrices():
    rng = random.Random(14)
    for _ in range(150):
        km = random_kill_matrix(rng, 5, 8)
        bm = matrix_from_kill_bits(km)
        sp = kill_space(km, bm)
        for mx, my in itertools.permutations(km.mutants, 2):
            check = deviance_subsumption_equivalence(sp, km, mx, my)
            assert check.agree()
            assert check.subsumes == brute_force_subsumes(km, mx, my)


POLICY_DIFFERENTIATORS = [
    Differentiator.exact(),
    Differentiator.output_only(),
    Differentiator.trace_only(),
    Differentiator.numeric(0.5),
]


@given(
    st.integers(0, 2 ** 32 - 1),
    st.integers(0, 8),
    st.integers(1, 6),
    st.sampled_from(POLICY_DIFFERENTIATORS),
)
@settings(max_examples=120, derandomize=True, deadline=None)
def test_order_kernel_matches_a_tuple_brute_force_under_every_policy(seed, n, n_programs, d):
    # deviance, reachability, subsumption, the DMSG and the lattice all read
    # one submask predicate and one grouping by mask; here each is restated
    # on per-test tuples
    bm = random_policy_matrix(random.Random(seed), n, n_programs)
    sp = ProgramSpace(bm.tests, "p0", d, bm)
    mutants = bm.mutant_ids()
    km = kill_matrix(sp, mutants, bm)
    tests = tuple(bm.tests)
    pos = {
        p: tuple(int(d.differs(bm.token("p0", t), bm.token(p, t))) for t in tests)
        for p in bm.program_ids()
    }
    assert all(unpack_bits(sp.mask(p), n) == v for p, v in pos.items())

    def within(x, y):
        return all(a <= b for a, b in zip(x, y))

    lattice = build_lattice(n, tests)
    nodes = list(lattice.nodes())
    for px, x in pos.items():
        assert reachable_by_deviance(lattice, x) == {v for v in nodes if v != x and within(x, v)}
        for py, y in pos.items():
            witness = deviant(sp, px, py)
            if x != y and within(x, y):
                deviating = tuple(t for t, a, b in zip(tests, x, y) if a < b)
                assert witness == DevianceWitness(x, y, deviating)
            else:
                assert witness is None
            if px in mutants and py in mutants:
                expected = px != py and any(x) and within(x, y)
                check = deviance_subsumption_equivalence(sp, km, px, py)
                assert (check.deviance_path_holds, check.subsumes) == (expected, expected)

    columns: dict = {}
    for m in mutants:
        columns.setdefault(pos[m], []).append(m)
    live = tuple(columns.pop((0,) * n, ()))
    keys = list(columns)
    pairs = itertools.permutations(range(len(keys)), 2)
    strict = {(i, j) for i, j in pairs if within(keys[i], keys[j])}
    covering = sorted(
        (i, j) for i, j in strict
        if not any((i, k) in strict and (k, j) in strict for k in range(len(keys)))
    )
    graph = build_dmsg(km)
    assert [(c.members, unpack_bits(c.mask, n)) for c in graph.classes] == [
        (tuple(columns[k]), k) for k in keys
    ]
    assert list(graph.edges) == covering
    assert graph.live == live

    annotations = dict(annotate(lattice, sp, mutants).annotations)
    assert annotations.pop(0, ()) == graph.live
    assert annotations == {c.mask: c.members for c in graph.classes}


def test_equivalence_rejects_mismatched_tests():
    km = four_mutant_kills()
    sp = kill_space(km)
    other = KillMatrix(TestVector(("x1",)), ("m1",), ((1,),))
    with pytest.raises(ValueError, match="tests"):
        deviance_subsumption_equivalence(sp, other, "m1", "m1")


# --- adequacy over kill bits ----------------------------------------------------------------


def test_adequacy_from_kills_on_the_example():
    result = adequacy_from_kills(four_mutant_kills())
    assert result.adequate is True
    assert result.killers == {"m1": "t1", "m2": "t2", "m3": "t1", "m4": "t1"}


def test_adequacy_from_kills_reports_live():
    km = KillMatrix(TestVector(("t1",)), ("a", "b"), ((0, 1),))
    result = adequacy_from_kills(km)
    assert result.adequate is False
    assert result.live == ("a",)
