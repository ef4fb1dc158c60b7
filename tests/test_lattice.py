import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutspace import (
    CapacityError,
    DiffVector,
    Differentiator,
    PositionLattice,
    ProgramSpace,
    TestVector,
    annotate,
    build_lattice,
    deviant,
    lattice_to_dot,
    position,
    project,
    reachable_by_deviance,
)
from helpers import (
    bfs_reachable,
    four_mutant_kills,
    kill_space,
    matrix_from_outputs,
    random_matrix,
)

EXACT = Differentiator.exact()


# --- the deviance relation ------------------------------------------------------


def test_deviant_in_the_kill_space():
    sp = kill_space(four_mutant_kills())
    witness = deviant(sp, "m1", "m4")
    assert witness is not None
    assert witness.deviating == ("t2", "t3")
    assert witness.source == (1, 0, 0)
    assert witness.target == (1, 1, 1)


def test_deviant_requires_no_lost_difference():
    sp = kill_space(four_mutant_kills())
    assert deviant(sp, "m1", "m2") is None  # m1 is 1 at t1 where m2 is 0


def test_deviant_rejects_equal_positions():
    sp = kill_space(four_mutant_kills())
    assert deviant(sp, "m1", "m1") is None


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5))
@settings(max_examples=200)
def test_deviance_is_asymmetric(seed, n_tests):
    rng = random.Random(seed)
    bm = random_matrix(rng, n_tests, 4, 2)
    sp = ProgramSpace(bm.tests, "p0", EXACT, bm)
    programs = ["p0", "p1", "p2", "p3"]
    for px in programs:
        for py in programs:
            if deviant(sp, px, py) is not None:
                assert deviant(sp, py, px) is None


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5))
@settings(max_examples=200)
def test_deviance_is_transitive_with_union_witness(seed, n_tests):
    rng = random.Random(seed)
    bm = random_matrix(rng, n_tests, 4, 2)
    sp = ProgramSpace(bm.tests, "p0", EXACT, bm)
    programs = ["p0", "p1", "p2", "p3"]
    for px, py, pz in itertools.permutations(programs, 3):
        first = deviant(sp, px, py)
        second = deviant(sp, py, pz)
        if first is None or second is None:
            continue
        combined = deviant(sp, px, pz)
        assert combined is not None
        assert set(combined.deviating) == set(first.deviating) | set(second.deviating)


# --- lattice structure ------------------------------------------------------------


@pytest.mark.parametrize("n,nodes,edges", [(0, 1, 0), (3, 8, 12), (4, 16, 32)])
def test_lattice_counts(n, nodes, edges):
    lattice = build_lattice(n)
    assert sum(1 for _ in lattice.nodes()) == nodes
    assert sum(1 for _ in lattice.edges()) == edges


def test_lattice_capacity_error():
    with pytest.raises(CapacityError):
        build_lattice(17)
    with pytest.raises(ValueError):
        build_lattice(-1)


def test_position_lattice_refuses_the_dimensions_build_lattice_refuses():
    names = tuple(f"t{i + 1}" for i in range(17))
    with pytest.raises(CapacityError) as direct:
        PositionLattice(names)
    with pytest.raises(CapacityError) as built:
        build_lattice(17)
    assert str(direct.value) == str(built.value)
    assert PositionLattice(names[:16]).dimension == 16


def test_edges_flip_exactly_one_zero_bit():
    lattice = build_lattice(4)
    seen = set()
    for u, v, t in lattice.edges():
        diffs = [i for i in range(4) if u[i] != v[i]]
        assert len(diffs) == 1
        i = diffs[0]
        assert (u[i], v[i]) == (0, 1)
        assert t == lattice.tests[i]
        seen.add((u, v))
    # ... and conversely every single-bit 0->1 flip is an edge
    for u in lattice.nodes():
        for i in range(4):
            if u[i] == 0:
                assert (u, u[:i] + (1,) + u[i + 1 :]) in seen


def test_every_node_touches_dimension_many_edges():
    for n in range(1, 7):
        lattice = build_lattice(n)
        degree = {node: 0 for node in lattice.nodes()}
        for u, v, _ in lattice.edges():
            degree[u] += 1
            degree[v] += 1
        assert set(degree.values()) == {n}


# --- annotation --------------------------------------------------------------------


def test_annotate_places_mutants_at_their_positions():
    km = four_mutant_kills()
    sp = kill_space(km)
    lattice = annotate(build_lattice(3, km.tests), sp, km.mutants)
    assert lattice.programs_at((1, 0, 0)) == ("m1",)
    assert lattice.programs_at((0, 1, 1)) == ("m2",)
    assert lattice.programs_at((1, 0, 1)) == ("m3",)
    assert lattice.programs_at((1, 1, 1)) == ("m4",)


def test_annotate_origin_goes_to_zero():
    km = four_mutant_kills()
    sp = kill_space(km)
    lattice = annotate(build_lattice(3, km.tests), sp, ["po"])
    assert lattice.programs_at((0, 0, 0)) == ("po",)


def test_annotate_coalesces_equal_columns():
    bm = matrix_from_outputs(
        ["t1", "t2"],
        {"po": ["x", "x"], "a": ["y", "x"], "b": ["z", "x"]},
        roles={"po": "original", "a": "mutant", "b": "mutant"},
        origins={"a": "po", "b": "po"},
    )
    sp = ProgramSpace(bm.tests, "po", EXACT, bm)
    lattice = annotate(build_lattice(2, bm.tests), sp, ["a", "b"])
    assert lattice.programs_at((1, 0)) == ("a", "b")


def test_annotate_dimension_mismatch():
    km = four_mutant_kills()
    sp = kill_space(km)
    with pytest.raises(ValueError, match="dimension"):
        annotate(build_lattice(2), sp, km.mutants)


# --- projection ---------------------------------------------------------------------


def eight_position_lattice():
    """A 3-cube whose every node is annotated with a marker program.

    Marker numbering follows distance layers: p0 at the origin, p1..p3 at
    distance one (100, 010, 001), p4..p6 at distance two (110, 101, 011),
    p7 at the top.
    """
    marks = {
        "p0": (0, 0, 0),
        "p1": (1, 0, 0),
        "p2": (0, 1, 0),
        "p3": (0, 0, 1),
        "p4": (1, 1, 0),
        "p5": (1, 0, 1),
        "p6": (0, 1, 1),
        "p7": (1, 1, 1),
    }
    outputs = {"origin": ["same"] * 3}
    for name, bits in marks.items():
        outputs[name] = [f"diff{i}" if b else "same" for i, b in enumerate(bits)]
    bm = matrix_from_outputs(["t1", "t2", "t3"], outputs)
    sp = ProgramSpace(bm.tests, "origin", EXACT, bm)
    return annotate(build_lattice(3, bm.tests), sp, sorted(marks))


def test_projection_replays_growth_by_added_tests():
    lattice = eight_position_lattice()
    one = project(lattice, 1)
    assert set(one.programs_at((0,))) == {"p0", "p2", "p3", "p6"}
    assert set(one.programs_at((1,))) == {"p1", "p4", "p5", "p7"}
    two = project(lattice, 2)
    assert set(two.programs_at((0, 0))) == {"p0", "p3"}
    assert set(two.programs_at((0, 1))) == {"p2", "p6"}
    assert set(two.programs_at((1, 0))) == {"p1", "p5"}
    assert set(two.programs_at((1, 1))) == {"p4", "p7"}


def test_projection_identity_and_collapse():
    lattice = eight_position_lattice()
    assert project(lattice, 3).annotations == lattice.annotations
    zero = project(lattice, 0)
    assert set(zero.programs_at(())) == {f"p{i}" for i in range(8)}


def test_projection_of_a_position():
    km = four_mutant_kills()
    sp = kill_space(km)
    pos = position(sp, "m2")
    assert project(pos, 2).bits == (0, 1)
    assert project(pos, 0).bits == ()
    assert project(pos, 3).bits == pos.bits


def test_projecting_a_d_vector_needs_no_matrix():
    v = DiffVector(0b101, TestVector(("a", "b", "c")), "x", "y", "exact")
    assert project(v, 2) == DiffVector(0b01, TestVector(("a", "b")), "x", "y", "exact")


# --- reachability ----------------------------------------------------------------------


def test_reachability_examples():
    lattice = build_lattice(3)
    everything = {node for node in lattice.nodes() if node != (0, 0, 0)}
    assert reachable_by_deviance(lattice, (0, 0, 0)) == everything
    assert reachable_by_deviance(lattice, (1, 1, 1)) == set()
    assert reachable_by_deviance(lattice, (1, 0, 0)) == {
        (1, 1, 0),
        (1, 0, 1),
        (1, 1, 1),
    }


@pytest.mark.parametrize("n", range(1, 9))
def test_reachability_agrees_with_graph_search(n):
    lattice = build_lattice(n)
    rng = random.Random(n)
    nodes = list(lattice.nodes())
    for node in rng.sample(nodes, min(8, len(nodes))):
        assert reachable_by_deviance(lattice, node) == bfs_reachable(lattice, node)


def test_reachability_from_the_bottom_of_the_largest_explicit_lattice_is_fast():
    lattice = build_lattice(16)
    start = time.perf_counter()
    reached = reachable_by_deviance(lattice, (0,) * 16)
    elapsed = time.perf_counter() - start
    assert len(reached) == 2 ** 16 - 1
    assert elapsed < 0.5


# --- DOT export ------------------------------------------------------------------------


def test_dot_output_is_deterministic_and_complete():
    km = four_mutant_kills()
    sp = kill_space(km)
    lattice = annotate(build_lattice(3, km.tests), sp, km.mutants)
    dot = lattice_to_dot(lattice)
    assert dot == lattice_to_dot(lattice)
    assert dot.startswith("digraph positions {")
    assert '"100" [label="100\\nm1"];' in dot
    assert '"000" -> "100" [label="t1"];' in dot
    assert dot.count("->") == 12


def test_dot_escapes_quotes_and_backslashes_in_names():
    bm = matrix_from_outputs(['x"y', "t2"], {"po": ["a", "a"], "p\\q": ["b", "a"]})
    sp = ProgramSpace(bm.tests, "po", EXACT, bm)
    dot = lattice_to_dot(annotate(build_lattice(2, bm.tests), sp, ["p\\q"]))
    assert '"10" [label="10\\np\\\\q"];' in dot
    assert '"00" -> "10" [label="x\\"y"];' in dot


def test_dot_nodes_in_ascending_binary_order():
    dot = lattice_to_dot(build_lattice(2))
    order = [
        line.split('"')[1]
        for line in dot.splitlines()
        if "[label=" in line and "->" not in line
    ]
    assert order == ["00", "01", "10", "11"]


# --- masks underneath the tuple views --------------------------------------------------


def test_annotate_refuses_a_space_over_other_tests():
    # m1 is killed by t1 only: a lattice over reordered or renamed tests
    # would label the edge into its node with another test
    sp = kill_space(four_mutant_kills())
    for tests in (("t3", "t2", "t1"), ("x", "y", "z")):
        with pytest.raises(ValueError, match="dimension") as err:
            annotate(build_lattice(3, tests), sp, ["m1"])
        assert repr(tests) in str(err.value)
        assert repr(("t1", "t2", "t3")) in str(err.value)
    # the same tests in a list are the same dimensions, and the lattice keeps
    # its own copy: the dimension is len(tests), so a shared list could grow it
    names = ["t1", "t2", "t3"]
    plain = PositionLattice(names)
    names.append("t4")
    assert (plain.tests, plain.dimension) == (("t1", "t2", "t3"), 3)
    lattice = annotate(plain, sp, ["m1"])
    assert lattice.programs_at((1, 0, 0)) == ("m1",)


def test_annotate_and_project_are_linear_in_the_programs_at_one_node():
    # 20,000 programs at one node take about 0.07 s; a list scan per
    # program, quadratic in them, takes about 6 s on a 2-core VM
    names = [f"p{i}" for i in range(20_000)]
    outputs = {"po": ["x", "x"], **{p: ["y", "x"] for p in names}}
    bm = matrix_from_outputs(["t1", "t2"], outputs)
    sp = ProgramSpace(bm.tests, "po", EXACT, bm)
    start = time.perf_counter()
    lattice = annotate(build_lattice(2, bm.tests), sp, names)
    zero = project(lattice, 0)
    elapsed = time.perf_counter() - start
    assert lattice.programs_at((1, 0)) == tuple(names)
    assert zero.programs_at(()) == tuple(names)
    assert elapsed < 1.0


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 5), st.integers(1, 8))
@settings(max_examples=100, derandomize=True)
def test_annotate_and_project_agree_with_a_tuple_brute_force(seed, n_tests, n_programs):
    rng = random.Random(seed)
    bm = random_matrix(rng, n_tests, n_programs, rng.randint(1, 3))
    sp = ProgramSpace(bm.tests, "p0", EXACT, bm)
    names = [f"p{j}" for j in range(n_programs)]
    first = rng.choices(names, k=rng.randint(0, 12))
    second = rng.choices(names, k=rng.randint(0, 12))
    lattice = annotate(annotate(build_lattice(n_tests, bm.tests), sp, first), sp, second)

    def unique(programs):
        return tuple(dict.fromkeys(programs))

    nodes = list(lattice.nodes())
    at = {n: unique(p for p in first + second if position(sp, p).bits == n) for n in nodes}
    for node in nodes:
        assert lattice.programs_at(node) == at[node]
    for k in range(n_tests + 1):
        sub = project(lattice, k)
        for u in sub.nodes():
            assert sub.programs_at(u) == unique(p for v in nodes if v[:k] == u for p in at[v])
