import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutspace import (
    AdequacyResult,
    BehaviorMatrix,
    BehaviorToken,
    Differentiator,
    SchemaError,
    TestVector,
    UnknownIdError,
    diff_vector,
    differentiate,
    manhattan_norm,
    matrix_from_json_text,
    matrix_to_json_text,
    mutation_adequacy,
)
from mutspace.behavior import iter_bits, select
from helpers import hamming_distance_of_rows, three_program_matrix

EXACT = Differentiator.exact()


# --- tokens and construction --------------------------------------------------


def test_token_rejects_unknown_status():
    with pytest.raises(ValueError):
        BehaviorToken("x", status="crashed")


def test_token_trace_normalized_to_tuples():
    tok = BehaviorToken("x", trace=[[1, "a=1"], [2, "a=2"]])
    assert tok.trace == ((1, "a=1"), (2, "a=2"))


def test_test_vector_rejects_duplicates():
    with pytest.raises(ValueError):
        TestVector(("t1", "t1"))


def test_matrix_requires_totality():
    with pytest.raises(ValueError, match="missing cell"):
        BehaviorMatrix(
            ["t1", "t2"],
            ["p"],
            {"p": {"t1": BehaviorToken("x")}},
        )


def test_matrix_rejects_two_spec_rows():
    cells = {
        "a": {"t1": BehaviorToken("x")},
        "b": {"t1": BehaviorToken("y")},
    }
    from mutspace import ProgramEntry

    with pytest.raises(ValueError, match="at most one"):
        BehaviorMatrix(
            ["t1"],
            [ProgramEntry("a", "spec"), ProgramEntry("b", "spec")],
            cells,
        )


def test_matrix_lookup_errors_name_the_id(example_matrix):
    with pytest.raises(UnknownIdError, match="p_missing"):
        example_matrix.token("p_missing", "t1")
    with pytest.raises(UnknownIdError, match="t_missing"):
        example_matrix.token("ps", "t_missing")


# --- differentiate ------------------------------------------------------------


def test_exact_policy_separates_distinct_outputs(example_matrix):
    assert differentiate(EXACT, "t2", "ps", "po", example_matrix) == 1


def test_any_policy_zero_on_same_program(example_matrix):
    for d in (EXACT, Differentiator.output_only(), Differentiator.trace_only(),
              Differentiator.numeric(0.5)):
        assert differentiate(d, "t1", "po", "po", example_matrix) == 0


def test_numeric_tolerance_merges_close_decimals():
    d = Differentiator.numeric(0.001)
    assert not d.differs(BehaviorToken("0.3333"), BehaviorToken("0.333333"))
    assert d.differs(BehaviorToken("0.3333"), BehaviorToken("0.3350"))


def test_numeric_tolerance_falls_back_to_text():
    d = Differentiator.numeric(10.0)
    assert d.differs(BehaviorToken("abc"), BehaviorToken("abd"))
    assert not d.differs(BehaviorToken("abc"), BehaviorToken("abc"))
    # statuses always separate, tolerance notwithstanding
    assert d.differs(BehaviorToken("1", status="error"), BehaviorToken("1"))


def test_numeric_tolerance_is_exact_past_the_default_context():
    # the default decimal context overflowed past exponent 999999
    assert Differentiator.numeric(0.5).differs(BehaviorToken("1e999999999"), BehaviorToken("0"))
    # ... and rounded the difference to 28 digits, 10**30 + 1 to 10**30
    far = Differentiator.numeric(1e30)
    assert far.differs(BehaviorToken("1000000000000000000000000000001"), BehaviorToken("0"))
    assert not far.differs(BehaviorToken("1000000000000000000000000000000"), BehaviorToken("0"))


def test_numeric_tolerance_is_exact_for_operands_far_apart():
    # a difference whose exact digits would number 10**9 or more
    half = Differentiator.numeric(0.5)
    assert half.differs(BehaviorToken("0.5"), BehaviorToken("-1e-999999999"))
    assert not half.differs(BehaviorToken("0.5"), BehaviorToken("1e-999999999"))
    assert not half.differs(BehaviorToken("0.5"), BehaviorToken("0"))
    zero = Differentiator.numeric(0.0)
    assert zero.differs(BehaviorToken("1e-999999999999999999"), BehaviorToken("0"))
    assert zero.differs(BehaviorToken("1e999999999999999999"), BehaviorToken("-1e999999999999999999"))
    assert not zero.differs(BehaviorToken("1e-999999999999999999"), BehaviorToken("1E-999999999999999999"))


def test_output_policy_sees_status():
    strong = Differentiator.output_only()
    assert strong.differs(BehaviorToken("", status="timeout"), BehaviorToken(""))


def test_trace_policy_ignores_output_text():
    weak = Differentiator.trace_only()
    a = BehaviorToken("1", trace=((1, "x=1"),))
    b = BehaviorToken("2", trace=((1, "x=1"),))
    assert not weak.differs(a, b)
    c = BehaviorToken("1", trace=((1, "x=2"),))
    assert weak.differs(a, c)


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        Differentiator("fuzzy")
    with pytest.raises(ValueError):
        Differentiator.numeric(-1.0)


tokens = st.builds(
    BehaviorToken,
    output=st.sampled_from(["", "0", "1", "0.5", "abc"]),
    status=st.sampled_from(["normal", "error", "timeout"]),
    trace=st.none() | st.tuples(st.tuples(st.integers(1, 3), st.sampled_from(["x=1", "x=2"]))),
)
policies = st.sampled_from(
    [EXACT, Differentiator.output_only(), Differentiator.trace_only(),
     Differentiator.numeric(0.25)]
)


@given(policies, tokens)
def test_zero_diagonal(d, tok):
    assert not d.differs(tok, tok)


@given(policies, tokens, tokens)
def test_symmetry(d, a, b):
    assert d.differs(a, b) == d.differs(b, a)


# --- diff vectors and norms ----------------------------------------------------


def test_diff_vectors_of_the_example(example_matrix):
    tv = example_matrix.tests
    assert diff_vector(EXACT, tv, "ps", "po", example_matrix).bits == (0, 1, 1, 1)
    assert diff_vector(EXACT, tv, "po", "m", example_matrix).bits == (0, 0, 1, 1)
    assert diff_vector(EXACT, tv, "ps", "m", example_matrix).bits == (0, 1, 1, 0)


def test_diff_vector_over_empty_tests(example_matrix):
    assert diff_vector(EXACT, (), "ps", "po", example_matrix).bits == ()


def test_norm_values(example_matrix):
    tv = example_matrix.tests
    assert manhattan_norm(diff_vector(EXACT, tv, "ps", "po", example_matrix)) == 3
    assert manhattan_norm(diff_vector(EXACT, tv, "po", "m", example_matrix)) == 2
    assert manhattan_norm((0, 0, 0, 0)) == 0


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(2, 5))
@settings(max_examples=200)
def test_norm_equals_hamming_distance(seed, n_tests, alphabet):
    import random

    from helpers import random_matrix

    rng = random.Random(seed)
    bm = random_matrix(rng, n_tests, 3, alphabet)
    for px in ("p0", "p1", "p2"):
        for py in ("p0", "p1", "p2"):
            v = diff_vector(EXACT, bm.tests, px, py, bm)
            assert manhattan_norm(v) == hamming_distance_of_rows(
                bm, bm.tests, px, py, EXACT
            )


@given(st.integers(0, 2**200))
@settings(max_examples=200, derandomize=True)
def test_iter_bits_lists_the_set_bits_in_order(mask):
    assert list(iter_bits(mask)) == [i for i in range(mask.bit_length()) if mask >> i & 1]
    items = tuple(range(150))
    assert select(mask, items) == tuple(i for i in items if mask >> i & 1)


def test_iter_bits_refuses_a_negative_mask_and_select_reads_its_low_bits():
    with pytest.raises(ValueError, match="nonnegative"):
        next(iter_bits(-1))
    assert select(-1, "abc") == ("a", "b", "c")
    assert select(~0b010, "abcd") == ("a", "c", "d")
    assert select(0b1000, "abc") == ()


# --- mutation adequacy -----------------------------------------------------------


def four_mutant_behavior():
    from helpers import four_mutant_kills, matrix_from_kill_bits

    km = four_mutant_kills()
    return km, matrix_from_kill_bits(km)


def test_adequacy_on_the_kill_example():
    km, bm = four_mutant_behavior()
    result = mutation_adequacy(EXACT, km.tests, "po", list(km.mutants), bm)
    assert result.adequate is True
    assert result.live == ()
    assert result.killers == {"m1": "t1", "m2": "t2", "m3": "t1", "m4": "t1"}


def test_adequacy_with_single_test():
    km, bm = four_mutant_behavior()
    result = mutation_adequacy(EXACT, ("t2",), "po", list(km.mutants), bm)
    assert result.adequate is False
    assert result.live == ("m1", "m3")


def test_adequacy_vacuous_and_empty_cases():
    km, bm = four_mutant_behavior()
    assert mutation_adequacy(EXACT, km.tests, "po", [], bm) == AdequacyResult(
        True, (), {}
    )
    no_tests = mutation_adequacy(EXACT, (), "po", ["m1"], bm)
    assert no_tests.adequate is False
    assert no_tests.live == ("m1",)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5))
@settings(max_examples=100)
def test_adequacy_monotone_in_tests(seed, n_tests):
    import random

    from helpers import random_matrix

    rng = random.Random(seed)
    bm = random_matrix(
        rng, n_tests, 4, 2, roles={"p0": "original"}
    )
    mutants = ["p1", "p2", "p3"]
    for k in range(n_tests):
        smaller = mutation_adequacy(EXACT, bm.tests[:k], "p0", mutants, bm)
        larger = mutation_adequacy(EXACT, bm.tests[: k + 1], "p0", mutants, bm)
        if smaller.adequate:
            assert larger.adequate


# --- JSON round-trip --------------------------------------------------------------


def test_json_round_trip_is_bit_exact(example_matrix):
    text = matrix_to_json_text(example_matrix)
    again = matrix_from_json_text(text)
    assert again == example_matrix
    assert matrix_to_json_text(again) == text


def test_json_round_trip_preserves_traces():
    tok = BehaviorToken("3", trace=((1, "x=1"), (2, "x=2 -> 3")))
    bm = BehaviorMatrix(["t1"], ["p"], {"p": {"t1": tok}})
    again = matrix_from_json_text(matrix_to_json_text(bm))
    assert again.token("p", "t1") == tok


def test_schema_error_paths():
    good = json.loads(matrix_to_json_text(three_program_matrix()))

    bad = json.loads(json.dumps(good))
    bad["cells"]["m"]["t2"]["status"] = "weird"
    with pytest.raises(SchemaError) as err:
        matrix_from_json_text(json.dumps(bad))
    assert err.value.path == "/cells/m/t2/status"

    bad = json.loads(json.dumps(good))
    del bad["cells"]["m"]["t2"]
    with pytest.raises(SchemaError) as err:
        matrix_from_json_text(json.dumps(bad))
    assert err.value.path == "/cells/m/t2"

    bad = json.loads(json.dumps(good))
    bad["programs"][0]["role"] = "oracle"
    with pytest.raises(SchemaError) as err:
        matrix_from_json_text(json.dumps(bad))
    assert err.value.path == "/programs/0/role"

    # malformed, and nested past the JSON decoder's recursion limit
    for text in ("not json", "[" * 200_000 + "]" * 200_000):
        with pytest.raises(SchemaError) as err:
            matrix_from_json_text(text)
        assert err.value.path == "/"
        assert err.value.message.startswith("invalid JSON: ")


def test_schema_rejects_duplicate_role():
    good = json.loads(matrix_to_json_text(three_program_matrix()))
    good["programs"][2]["role"] = "spec"
    good["programs"][2].pop("origin", None)
    with pytest.raises(SchemaError) as err:
        matrix_from_json_text(json.dumps(good))
    assert err.value.path == "/programs/2/role"


DELETE = object()


def edited(doc, pointer: str, value):
    """``doc`` with the field at JSON pointer ``pointer`` set to ``value``
    (removed for ``DELETE``); the pointer ``""`` replaces the document."""
    if not pointer:
        return value
    *parents, last = pointer[1:].split("/")
    node = doc
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    if isinstance(node, list):
        last = int(last)
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return doc


# one case per check of the reader: (edits, error path, error message)
SCHEMA_ERRORS = {
    "document": ([("", [])], "/", "document must be an object"),
    "missing_tests": ([("/tests", DELETE)], "/tests", "missing required field"),
    "missing_programs": ([("/programs", DELETE)], "/programs", "missing required field"),
    "missing_cells": ([("/cells", DELETE)], "/cells", "missing required field"),
    "tests_not_list": ([("/tests", "t1")], "/tests", "must be a list"),
    "test_not_string": ([("/tests/1", 2)], "/tests/1", "must be a string"),
    "duplicate_tests": ([("/tests/1", "t1")], "/tests", "test ids must be unique"),
    "programs_not_list": ([("/programs", {})], "/programs", "must be a list"),
    "program_not_object": ([("/programs/1", "po")], "/programs/1", "must be an object"),
    "program_id_missing": ([("/programs/1/id", DELETE)], "/programs/1/id", "must be a string"),
    "program_id_not_string": ([("/programs/1/id", 3)], "/programs/1/id", "must be a string"),
    "unknown_role": (
        [("/programs/0/role", "oracle")],
        "/programs/0/role",
        "must be one of ['spec', 'original', 'mutant']",
    ),
    "duplicate_role": (
        [("/programs/2/role", "spec"), ("/programs/2/origin", DELETE)],
        "/programs/2/role",
        "role 'spec' already held by 'ps'",
    ),
    "origin_not_string": ([("/programs/2/origin", 5)], "/programs/2/origin", "must be a string"),
    "origin_without_mutant_role": (
        [("/programs/2/role", DELETE)],
        "/programs/2/origin",
        "origin requires role 'mutant'",
    ),
    "unknown_program_field": ([("/programs/0/size", 1)], "/programs/0/size", "unknown field"),
    "duplicate_program_ids": ([("/programs/1/id", "ps")], "/programs", "program ids must be unique"),
    "unknown_origin": (
        [("/programs/2/origin", "nobody")],
        "/programs/2/origin",
        "references unknown program",
    ),
    "cells_not_object": ([("/cells", [])], "/cells", "must be an object"),
    "row_of_unknown_program": ([("/cells/ghost", {})], "/cells/ghost", "unknown program id"),
    "missing_row": ([("/cells/m", DELETE)], "/cells/m", "missing row for program"),
    "row_not_object": ([("/cells/m", [])], "/cells/m", "must be an object"),
    "unknown_test_in_row": (
        [("/cells/m/t9", {"output": "x"})],
        "/cells/m/t9",
        "unknown test id",
    ),
    "missing_cell": ([("/cells/m/t2", DELETE)], "/cells/m/t2", "missing cell for test"),
    "cell_not_object": ([("/cells/m/t2", "beta")], "/cells/m/t2", "cell must be an object"),
    "output_missing": (
        [("/cells/m/t2/output", DELETE)],
        "/cells/m/t2/output",
        "missing required field",
    ),
    "output_not_string": ([("/cells/m/t2/output", 7)], "/cells/m/t2/output", "must be a string"),
    "unknown_status": (
        [("/cells/m/t2/status", "weird")],
        "/cells/m/t2/status",
        "must be one of ['normal', 'error', 'timeout']",
    ),
    "trace_not_list": ([("/cells/m/t2/trace", "x=1")], "/cells/m/t2/trace", "must be a list"),
    "trace_entry_short": (
        [("/cells/m/t2/trace", [[1, "x=1"], [2]])],
        "/cells/m/t2/trace/1",
        "must be a [statement-id, state] pair",
    ),
    "trace_entry_not_list": (
        [("/cells/m/t2/trace", [[1, "x=1"], "ab"])],
        "/cells/m/t2/trace/1",
        "must be a [statement-id, state] pair",
    ),
    "trace_sid_float": (
        [("/cells/m/t2/trace", [[1, "x=1"], [2.0, "x=2"]])],
        "/cells/m/t2/trace/1/0",
        "must be an int or string",
    ),
    "trace_sid_null": (
        [("/cells/m/t2/trace", [[None, "x=1"]])],
        "/cells/m/t2/trace/0/0",
        "must be an int or string",
    ),
    "trace_state_not_string": (
        [("/cells/m/t2/trace", [[1, 1]])],
        "/cells/m/t2/trace/0/1",
        "must be a string",
    ),
    "unknown_cell_field": (
        [("/cells/m/t2/zeta", 1), ("/cells/m/t2/extra", 1)],
        "/cells/m/t2/extra",
        "unknown field",
    ),
}


@pytest.mark.parametrize("case", SCHEMA_ERRORS, ids=str)
def test_schema_error_path_and_message(case):
    edits, path, message = SCHEMA_ERRORS[case]
    doc = json.loads(matrix_to_json_text(three_program_matrix()))
    for pointer, value in edits:
        doc = edited(doc, pointer, value)
    with pytest.raises(SchemaError) as err:
        matrix_from_json_text(json.dumps(doc))
    assert (err.value.path, err.value.message) == (path, message)


def test_schema_rejects_boolean_trace_sids():
    # true would load equal to 1 and dump as true, so the text would not round-trip
    doc = json.loads(matrix_to_json_text(three_program_matrix()))
    doc["cells"]["m"]["t2"]["trace"] = [[1, "x=1"], [True, "x=2"]]
    with pytest.raises(SchemaError) as err:
        matrix_from_json_text(json.dumps(doc))
    assert (err.value.path, err.value.message) == ("/cells/m/t2/trace/1/0", "must be an int or string")


@pytest.mark.parametrize("kernel", ["diff_mask", "diff_vector"])
def test_diff_kernels_name_unknown_ids(example_matrix, kernel):
    from mutspace import behavior

    run = getattr(behavior, kernel)
    tv = example_matrix.tests
    with pytest.raises(UnknownIdError, match="unknown program id 'nobody'"):
        run(EXACT, tv, "nobody", "po", example_matrix)
    with pytest.raises(UnknownIdError, match="unknown program id 'nobody'"):
        run(EXACT, tv, "ps", "nobody", example_matrix)
    with pytest.raises(UnknownIdError, match="unknown test id 't9'"):
        run(EXACT, ("t1", "t9"), "ps", "po", example_matrix)
