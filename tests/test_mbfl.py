import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutspace import (
    Differentiator,
    FaultLocalizationInput,
    FixCounts,
    RoleError,
    compare_methods,
    differentiate,
    fix_counts,
    fix_score,
    flt_score,
    matrix_from_outputs,
    rank_statements,
)
from mutspace.mbfl import _average_ranks, report_to_json_obj
from helpers import three_program_matrix

EXACT = Differentiator.exact()


def localization_input(bm, mutants):
    return FaultLocalizationInput(
        matrix=bm, mutants=tuple(mutants), tests=bm.tests, differentiator=EXACT
    )


def example_input():
    return localization_input(three_program_matrix(), [("m", 1)])


def make_matrix(rows, mutant_statements):
    """rows: program -> outputs; 'ps' and 'po' get the roles."""
    roles = {"ps": "spec", "po": "original"}
    origins = {}
    for pid in rows:
        if pid not in roles:
            roles[pid] = "mutant"
            origins[pid] = "po"
    n = len(next(iter(rows.values())))
    tests = [f"t{i + 1}" for i in range(n)]
    bm = matrix_from_outputs(tests, rows, roles=roles, origins=origins)
    return localization_input(bm, mutant_statements)


# --- changed tests -------------------------------------------------------------


def test_changed_tests_of_the_example():
    # only t4 changes, and the mutant passes it
    inp = example_input()
    assert fix_counts(inp, "m") == FixCounts(fail_to_pass=1, pass_to_fail=0)


def test_changed_tests_empty_for_original_twin():
    inp = make_matrix(
        {"ps": ["a", "a"], "po": ["b", "a"], "twin": ["b", "a"]},
        [("twin", 1)],
    )
    assert fix_counts(inp, "twin") == FixCounts(fail_to_pass=0, pass_to_fail=0)


def test_changed_tests_for_perfect_fix_are_the_failures():
    inp = make_matrix(
        {"ps": ["a", "a", "a"], "po": ["b", "a", "b"], "fix": ["a", "a", "a"]},
        [("fix", 1)],
    )
    # t1 and t3, the two failures, change
    assert fix_counts(inp, "fix") == FixCounts(fail_to_pass=2, pass_to_fail=0)


# --- fix counts and score --------------------------------------------------------


def counts_instance():
    # over the four changed tests the mutant's spec-relative bits are
    # (0, 1, 0, 0); the fifth test stays unchanged
    return make_matrix(
        {
            "ps": ["a", "a", "a", "a", "a"],
            "po": ["b", "a", "b", "b", "a"],
            "m": ["a", "c", "a", "a", "a"],
        },
        [("m", 1)],
    )


def test_fix_counts_of_the_worked_instance():
    inp = counts_instance()
    counts = fix_counts(inp, "m")
    assert counts.fail_to_pass == 3
    assert counts.pass_to_fail == 1


def test_fix_counts_empty_when_nothing_changes():
    inp = make_matrix(
        {"ps": ["a"], "po": ["b"], "twin": ["b"]}, [("twin", 1)]
    )
    counts = fix_counts(inp, "twin")
    assert (counts.fail_to_pass, counts.pass_to_fail) == (0, 0)


def test_fix_score_balances_to_zero():
    # three failing tests all fixed, the single passing test broken
    inp = make_matrix(
        {
            "ps": ["a", "a", "a", "a"],
            "po": ["b", "b", "b", "a"],
            "m": ["a", "a", "a", "c"],
        },
        [("m", 1)],
    )
    counts = fix_counts(inp, "m")
    assert (counts.fail_to_pass, counts.pass_to_fail) == (3, 1)
    assert fix_score(inp, "m") == pytest.approx(0.0)


def test_fix_score_is_maximal_for_a_perfect_fix():
    inp = make_matrix(
        {
            "ps": ["a", "a", "a", "a"],
            "po": ["b", "b", "b", "a"],
            "fix": ["a", "a", "a", "a"],
        },
        [("fix", 1)],
    )
    assert fix_score(inp, "fix") == pytest.approx(1.0)


def test_fix_score_zero_denominators_contribute_zero():
    # the original passes everything: no failing tests, so only the
    # pass-to-fail term can move the score
    inp = make_matrix(
        {"ps": ["a", "a"], "po": ["a", "a"], "m": ["c", "a"]}, [("m", 1)]
    )
    assert fix_score(inp, "m") == pytest.approx(-0.5)
    all_fail = make_matrix(
        {"ps": ["a", "a"], "po": ["b", "b"], "fix": ["a", "b"]}, [("fix", 1)]
    )
    assert fix_score(all_fail, "fix") == pytest.approx(0.5)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
@settings(max_examples=200)
def test_fix_counts_sum_to_changed_tests_and_score_is_bounded(seed, n_tests):
    rng = random.Random(seed)
    rows = {
        pid: [f"v{rng.randrange(3)}" for _ in range(n_tests)]
        for pid in ("ps", "po", "m")
    }
    inp = make_matrix(rows, [("m", 1)])
    # (original fails, mutant fails) per test, from per-cell differences
    verdicts = [
        tuple(differentiate(EXACT, t, "ps", p, inp.matrix) for p in ("po", "m"))
        for t in inp.tests
    ]
    assert fix_counts(inp, "m") == FixCounts(
        fail_to_pass=verdicts.count((1, 0)), pass_to_fail=verdicts.count((0, 1))
    )
    assert -1.0 <= fix_score(inp, "m") <= 1.0


# --- flt score --------------------------------------------------------------------


def test_flt_score_one_when_killed_exactly_by_failures():
    inp = make_matrix(
        {"ps": ["a", "a"], "po": ["b", "a"], "m": ["c", "a"]}, [("m", 1)]
    )
    # kill vector (1, 0) equals failure vector (1, 0)
    assert flt_score(inp, "m") == pytest.approx(1.0)
    assert flt_score(inp, "m", "jaccard") == pytest.approx(1.0)


def test_flt_score_of_the_example():
    inp = example_input()
    # kills (0,0,1,1) vs failures (0,1,1,1): a=2, b=0, c=1
    assert flt_score(inp, "m") == pytest.approx(2 / math.sqrt(6))
    assert flt_score(inp, "m", "jaccard") == pytest.approx(2 / 3)


def test_flt_score_zero_for_unkilled_mutant():
    inp = make_matrix(
        {"ps": ["a", "a"], "po": ["b", "a"], "twin": ["b", "a"]}, [("twin", 1)]
    )
    assert flt_score(inp, "twin") == 0.0


def test_flt_rejects_unknown_metric():
    with pytest.raises(ValueError, match="metric"):
        flt_score(example_input(), "m", "cosine")


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
@settings(max_examples=200)
def test_flt_scores_bounded_and_ochiai_one_iff_vectors_match(seed, n_tests):
    rng = random.Random(seed)
    rows = {
        pid: [f"v{rng.randrange(3)}" for _ in range(n_tests)]
        for pid in ("ps", "po", "m")
    }
    inp = make_matrix(rows, [("m", 1)])
    from mutspace import diff_vector

    score = flt_score(inp, "m")
    assert 0.0 <= score <= 1.0
    kills = diff_vector(EXACT, inp.tests, "po", "m", inp.matrix).bits
    fails = diff_vector(EXACT, inp.tests, "po", "ps", inp.matrix).bits
    if score == pytest.approx(1.0):
        assert kills == fails and any(kills)
    if kills == fails and any(kills):
        assert score == pytest.approx(1.0)


# --- ranking ---------------------------------------------------------------------------


def test_ranking_two_statements():
    inp = make_matrix(
        {
            "ps": ["a", "a", "a"],
            "po": ["b", "b", "a"],
            "fix": ["a", "a", "a"],   # statement 1, score 1.0
            "twin": ["b", "b", "a"],  # statement 2, score 0.0
        },
        [("fix", 1), ("twin", 2)],
    )
    report = rank_statements(inp, "fix")
    assert report.ranking == ((1, 1.0, 1.0), (2, 0.0, 2.0))


def test_ranking_averages_ties():
    inp = make_matrix(
        {
            "ps": ["a", "a"],
            "po": ["b", "a"],
            "fix1": ["a", "a"],
            "fix2": ["a", "a"],
            "twin": ["b", "a"],
        },
        [("fix1", 1), ("fix2", 2), ("twin", 3)],
    )
    report = rank_statements(inp, "fix")
    assert report.ranking == ((1, 1.0, 1.5), (2, 1.0, 1.5), (3, 0.0, 3.0))


def test_statement_score_is_max_over_its_mutants():
    inp = make_matrix(
        {
            "ps": ["a", "a"],
            "po": ["b", "a"],
            "good": ["a", "a"],
            "bad": ["b", "c"],
        },
        [("good", 7), ("bad", 7)],
    )
    report = rank_statements(inp, "fix")
    assert report.statement_scores[7] == pytest.approx(1.0)


def test_unknown_statement_mutants_are_scored_but_not_ranked():
    inp = make_matrix(
        {"ps": ["a"], "po": ["b"], "fix": ["a"], "stray": ["c"]},
        [("fix", 1), ("stray", None)],
    )
    report = rank_statements(inp, "fix")
    assert "stray" in report.mutant_scores
    assert [stmt for stmt, _, _ in report.ranking] == [1]


def test_ranking_requires_mutants():
    bm = three_program_matrix()
    inp = FaultLocalizationInput(bm, (), bm.tests, EXACT)
    with pytest.raises(ValueError, match="mutant"):
        rank_statements(inp, "fix")


def test_input_requires_both_roles():
    bm = matrix_from_outputs(
        ["t1"], {"po": ["a"], "m": ["b"]}, roles={"po": "original"}
    )
    with pytest.raises(RoleError, match="spec"):
        FaultLocalizationInput(bm, (("m", 1),), bm.tests, EXACT)


def test_ranking_is_linear_in_mutants_with_the_spec_row_last():
    # the minilang pipeline writes the spec row last; a role lookup that
    # scans the rows on every score makes flt quadratic in the mutants
    rng = random.Random(20)
    n, count = 16, 20_000
    rows = {"po": [str(rng.randrange(3)) for _ in range(n)]}
    for j in range(count):
        rows[f"m{j}"] = [str(rng.randrange(3)) for _ in range(n)]
    rows["ps"] = [str(rng.randrange(3)) for _ in range(n)]
    roles = {pid: "mutant" for pid in rows} | {"ps": "spec", "po": "original"}
    origins = {f"m{j}": "po" for j in range(count)}
    bm = matrix_from_outputs([f"t{i + 1}" for i in range(n)], rows, roles=roles, origins=origins)
    start = time.perf_counter()
    inp = localization_input(bm, [(f"m{j}", j % 50) for j in range(count)])
    fix = rank_statements(inp, "fix")
    flt = rank_statements(inp, "flt")
    elapsed = time.perf_counter() - start
    assert len(fix.mutant_scores) == len(flt.mutant_scores) == count
    assert elapsed < 1.0, f"fix and flt ranking of {count} mutants took {elapsed:.2f}s"


def test_average_ranks_depend_only_on_score_order():
    rng = random.Random(99)
    for _ in range(100):
        scores = [(f"s{i}", rng.choice([0.0, 0.25, 0.5, 1.0])) for i in range(6)]
        scaled = [(stmt, score * 7.5) for stmt, score in scores]
        plain = [(stmt, rank) for stmt, _, rank in _average_ranks(scores)]
        assert plain == [(stmt, rank) for stmt, _, rank in _average_ranks(scaled)]


# --- method comparison --------------------------------------------------------------------


def test_compare_methods_on_the_example():
    inp = example_input()
    result = compare_methods(inp, "m")
    assert result.disagreement_tests == ("t3",)


def test_compare_methods_empty_for_spec_twin():
    inp = make_matrix(
        {"ps": ["a", "a"], "po": ["b", "a"], "fix": ["a", "a"]}, [("fix", 1)]
    )
    assert compare_methods(inp, "fix").disagreement_tests == ()


def test_compare_methods_matches_pairwise_distinct_predicate():
    rng = random.Random(4242)
    for _ in range(300):
        rows = {
            pid: [f"v{rng.randrange(3)}" for _ in range(4)]
            for pid in ("ps", "po", "m")
        }
        inp = make_matrix(rows, [("m", 1)])
        result = compare_methods(inp, "m")
        expected = tuple(
            t
            for t in inp.tests
            if differentiate(EXACT, t, "ps", "po", inp.matrix)
            and differentiate(EXACT, t, "po", "m", inp.matrix)
            and differentiate(EXACT, t, "ps", "m", inp.matrix)
        )
        assert result.disagreement_tests == expected


# --- report JSON ----------------------------------------------------------------------------


def test_report_json_shape_and_rounding():
    inp = example_input()
    report = rank_statements(inp, "flt", "ochiai")
    obj = report_to_json_obj(report, {"m": 1})
    assert obj["method"] == "flt-ochiai"
    assert obj["mutants"] == [{"id": "m", "statement": 1, "score": 0.816497}]
    assert obj["ranking"] == [{"statement": 1, "score": 0.816497, "rank": 1.0}]
