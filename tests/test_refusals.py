"""Every refusal of the Python API that no other test reaches, pinned by
exception type and message: one row per check."""
from __future__ import annotations

import csv

import pytest

from mutspace import (
    BehaviorMatrix,
    BehaviorToken,
    DiffVector,
    Differentiator,
    FaultLocalizationInput,
    KillMatrix,
    ParseError,
    ProgramEntry,
    TestVector,
    UnknownIdError,
    build_dmsg,
    build_lattice,
    matrix_from_outputs,
    mutation_adequacy,
    project,
    reachable_by_deviance,
)
from mutspace.lang import TestCase, parse
from mutspace.lattice import DevianceWitness, PositionLattice
from mutspace.mbfl import mutant_score
from helpers import four_mutant_kills

TOK = BehaviorToken("1")


def fault_input(mutants=(("m1", 1),)) -> FaultLocalizationInput:
    bm = matrix_from_outputs(
        ["t1"], {"ps": ["1"], "po": ["2"], "m1": ["1"]},
        roles={"ps": "spec", "po": "original", "m1": "mutant"},
    )
    return FaultLocalizationInput(bm, mutants, bm.tests, Differentiator.output_only())


# name: (call, exception type, what the message holds)
REFUSALS = {
    "matrix_missing_row": (
        lambda: BehaviorMatrix(["t1"], ["p", "q"], {"p": {"t1": TOK}}),
        ValueError, "missing cells for program 'q'",
    ),
    "matrix_cells_for_unknown_tests": (
        lambda: BehaviorMatrix(["t1"], ["p"], {"p": {"t1": TOK, "t2": TOK, "t0": TOK}}),
        ValueError, "program 'p' has cells for unknown tests ['t0', 't2']",
    ),
    "matrix_unknown_programs": (
        lambda: BehaviorMatrix(["t1"], ["p"], {"p": {"t1": TOK}, "q": {"t1": TOK}}),
        ValueError, "cells reference unknown programs ['q']",
    ),
    "matrix_duplicate_ids": (
        lambda: BehaviorMatrix(["t1"], ["p", "p"], {"p": {"t1": TOK}}),
        ValueError, "program identifiers must be unique",
    ),
    "matrix_unknown_origin": (
        lambda: BehaviorMatrix(["t1"], [ProgramEntry("m", "mutant", "po")], {"m": {"t1": TOK}}),
        ValueError, "mutant 'm' references unknown origin 'po'",
    ),
    "entry_unknown_role": (
        lambda: ProgramEntry("p", "oracle"),
        ValueError, "unknown role 'oracle' for program 'p'",
    ),
    "entry_origin_on_a_non_mutant": (
        lambda: ProgramEntry("p", "original", "q"),
        ValueError, "origin only applies to mutants (program 'p')",
    ),
    "outputs_row_of_the_wrong_length": (
        lambda: matrix_from_outputs(["t1", "t2"], {"p": ["1"]}),
        ValueError, "program 'p' has 1 outputs for 2 tests",
    ),
    "numeric_tolerance_a_bool": (
        lambda: Differentiator.numeric(True),
        ValueError, "numeric tolerance must be a number, not a bool",
    ),
    "diff_vector_mask_wider_than_its_tests": (
        lambda: DiffVector(0b100, TestVector(("t1", "t2")), "p", "q", "exact"),
        ValueError, "mask 4 does not fit 2 tests",
    ),
    "kills_duplicate_mutants": (
        lambda: KillMatrix(("t1",), ("m", "m"), ((0, 1),)),
        ValueError, "mutant identifiers must be unique",
    ),
    "kills_row_count": (
        lambda: KillMatrix(("t1", "t2"), ("m",), ((1,),)),
        ValueError, "one row per test required",
    ),
    "kills_column_count": (
        lambda: KillMatrix(("t1",), ("m", "n"), ((1,),)),
        ValueError, "one column per mutant required",
    ),
    "kills_mask_of_an_unknown_mutant": (
        lambda: KillMatrix(("t1",), ("m",), ((1,),)).mask("n"),
        ValueError, "unknown mutant 'n'",
    ),
    "csv_empty": (lambda: KillMatrix.from_csv(""), ValueError, "empty kill matrix CSV"),
    "csv_field_over_the_limit": (
        lambda: KillMatrix.from_csv("test," + "m" * (csv.field_size_limit() + 1) + "\n"),
        ValueError, f"line 1: field larger than field limit ({csv.field_size_limit()})",
    ),
    "class_of_an_unknown_mutant": (
        lambda: build_dmsg(four_mutant_kills()).class_of("nobody"),
        ValueError, "'nobody' is not in any class (live or unknown)",
    ),
    "empty_deviance_witness": (
        lambda: DevianceWitness((0,), (1,), ()),
        ValueError, "a deviance witness needs at least one deviating test",
    ),
    "lattice_test_count": (
        lambda: build_lattice(2, ("t1",)),
        ValueError, "one test name per dimension required",
    ),
    "lattice_non_node_key": (
        lambda: PositionLattice(("t1", "t2"), {4: ("p",)}),
        ValueError, "annotation on non-node 4",
    ),
    "project_below_zero": (
        lambda: project(build_lattice(2), -1), ValueError, "prefix length -1 out of range 0..2",
    ),
    "project_past_the_dimension": (
        lambda: project(build_lattice(2), 3), ValueError, "prefix length 3 out of range 0..2",
    ),
    "project_a_wrong_type": (lambda: project("t1", 1), TypeError, "cannot project str"),
    "reachable_from_a_non_node": (
        lambda: reachable_by_deviance(build_lattice(2), (0, 2)),
        ValueError, "(0, 2) is not a node of this lattice",
    ),
    "adequacy_of_an_unknown_mutant": (
        lambda: mutation_adequacy(Differentiator.output_only(), ["t1"], "po", ["nobody"],
                                  fault_input().matrix),
        UnknownIdError, "unknown program id 'nobody'",
    ),
    "localization_duplicate_mutant": (
        lambda: fault_input((("m1", 1), ("m1", 2))),
        ValueError, "duplicate mutant id in localization input",
    ),
    "unknown_score_method": (
        lambda: mutant_score(fault_input(), "m1", "guess"), ValueError, "unknown method 'guess'",
    ),
    "test_case_input_not_an_int": (
        lambda: TestCase("t", {"x": True}), ValueError, "must map variables to integers",
    ),
    "test_case_input_name_not_a_str": (
        lambda: TestCase("t", {1: 5}), ValueError, "must map variables to integers",
    ),
    "parse_expected_a_statement": (
        lambda: parse("x = 1; 5;"), ParseError, "line 1, col 8: expected a statement, found '5'",
    ),
    "parse_expected_an_expression": (
        lambda: parse("x = ;"), ParseError, "line 1, col 5: expected an expression, found ';'",
    ),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal_type_and_message(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message
