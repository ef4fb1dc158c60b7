import dataclasses
import re
import sys
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutspace.lang import MutantDescriptor, Program, apply_descriptor, mutate_all, parse, render
from helpers import MAX_SRC, TWENTY_SRC
from test_fuzz_interp import FUZZ, programs

TOKEN_RE = re.compile(r"<=|>=|==|!=|&&|\|\||[<>+\-*/%]|\b\d+\b")
ARITH = set("+-*/%")
REL = {"<", "<=", ">", ">=", "==", "!="}
LOGIC = {"&&", "||"}


def site_count_oracle(source: str) -> int:
    """Recount applicable mutations straight off the token stream."""
    total = 0
    for match in TOKEN_RE.finditer(source):
        tok = match.group()
        if tok in ARITH:
            total += 4
        elif tok in REL:
            total += 5
        elif tok in LOGIC:
            total += 1
        else:  # integer literal: c+1, c-1, 0 minus duplicates
            value = int(tok)
            total += len({value + 1, value - 1, 0} - {value})
    total += source.count(";") + len(re.findall(r"\b(?:if|while)\b", source))
    return total


def test_aor_on_one_addition_yields_four_mutants():
    mutants = mutate_all(parse("x = a + b;"), ("AOR",))
    assert [desc.replacement for desc, _ in mutants] == ["-", "*", "/", "%"]
    assert [render(prog) for _, prog in mutants] == [
        "x = a - b;\n",
        "x = a * b;\n",
        "x = a / b;\n",
        "x = a % b;\n",
    ]


def test_no_applicable_sites_yields_nothing():
    assert mutate_all(parse("return 0;"), ("ROR",)) == []


def test_unknown_operator_rejected():
    with pytest.raises(ValueError, match="unknown mutation operators"):
        mutate_all(parse("return 0;"), ("AOR", "XXX"))


def test_mutant_count_matches_token_recount():
    # 9 arith sites * 4 + 4 relational sites * 5 + 25 constant replacements
    # (six 0s and five 1s give two each, the lone 2 gives three) + 20
    # deletions = 101
    program = parse(TWENTY_SRC)
    mutants = mutate_all(program)
    assert len(mutants) == site_count_oracle(TWENTY_SRC) == 101


def test_generation_is_deterministic_with_unique_descriptors():
    program = parse(TWENTY_SRC)
    first = [desc for desc, _ in mutate_all(program)]
    second = [desc for desc, _ in mutate_all(program)]
    assert first == second
    keyed = {(d.operator, d.statement, d.site, d.replacement) for d in first}
    assert len(keyed) == len(first)


def test_descriptors_ordered_by_statement_then_site():
    program = parse(TWENTY_SRC)
    order = [(d.statement, d.site) for d, _ in mutate_all(program)]
    assert order == sorted(order)


def test_applying_a_descriptor_reproduces_the_mutant_source():
    program = parse(TWENTY_SRC)
    for desc, mutant in mutate_all(program):
        assert render(apply_descriptor(program, desc)) == render(mutant)


def test_mutants_keep_original_statement_ids():
    program = parse(MAX_SRC)
    original_ids = set(program.statement_ids())
    for desc, mutant in mutate_all(program):
        ids = set(mutant.statement_ids())
        if desc.operator == "SDL":
            expected = original_ids - {
                s.sid
                for s in program.walk_statements()
                if s.sid == desc.statement
            }
            # deleting a compound statement drops its body ids as well
            assert ids <= original_ids
            assert desc.statement not in ids
        else:
            assert ids == original_ids


def test_operator_filter_limits_descriptors():
    program = parse(TWENTY_SRC)
    only_aor = mutate_all(program, ("AOR",))
    assert only_aor
    assert {desc.operator for desc, _ in only_aor} == {"AOR"}


def test_crp_deduplicates_overlapping_replacements():
    mutants = mutate_all(parse("x = 1;"), ("CRP",))
    assert [desc.replacement for desc, _ in mutants] == ["2", "0"]
    mutants = mutate_all(parse("x = 0;"), ("CRP",))
    assert [desc.replacement for desc, _ in mutants] == ["1", "-1"]
    mutants = mutate_all(parse("x = 5;"), ("CRP",))
    assert [desc.replacement for desc, _ in mutants] == ["6", "4", "0"]


def test_crp_negative_replacement_stays_parseable():
    program = parse("x = 0;\nreturn x;")
    minus_one = next(
        prog for desc, prog in mutate_all(program, ("CRP",)) if desc.replacement == "-1"
    )
    source = render(minus_one)
    assert source == "x = -1;\nreturn x;\n"
    assert render(parse(source)) == source


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this Python converts ints of any size to text",
)
def test_crp_skips_a_replacement_str_cannot_write():
    # 4,300 digits is the most Python converts to text by default, so c + 1
    # cannot be written, and parse would reject it as a literal
    program = parse("x = " + "9" * 4_300 + ";\nreturn x;")
    mutants = mutate_all(program, ("CRP",))
    assert [desc.replacement for desc, _ in mutants] == ["9" * 4_299 + "8", "0"]
    for desc, mutant in mutants:
        assert apply_descriptor(program, desc) == mutant
        assert parse(render(mutant)) == mutant


def test_sdl_deletes_whole_compound_statements():
    program = parse(MAX_SRC)
    sdl_if = next(
        prog
        for desc, prog in mutate_all(program, ("SDL",))
        if desc.statement == 2
    )
    assert render(sdl_if) == "m = a;\nreturn m;\n"


def test_lcr_swaps_logical_operators():
    mutants = mutate_all(parse("x = a && b || c;"), ("LCR",))
    assert [(d.original, d.replacement) for d, _ in mutants] == [
        ("||", "&&"),
        ("&&", "||"),
    ]
    assert [render(p) for _, p in mutants] == [
        "x = a && b && c;\n",
        "x = a || b || c;\n",
    ]


# "x = a + 1;" has expression sites 1 (+), 2 (a) and 3 (1)
REFUSALS = [
    ("negative_site", None, ("AOR", 1, -1, "+", "-"), ValueError, "expression site -1 out of range"),
    ("site_past_the_last", None, ("CRP", 1, 4, "1", "2"), ValueError, "expression site 4 out of range"),
    ("site_0_not_sdl", None, ("AOR", 1, 0, "+", "-"), ValueError, "site 0 is reserved for SDL"),
    ("wrong_operator", None, ("AOR", 1, 1, "*", "-"), ValueError,
     "descriptor does not match site: site holds operator '+', not '*'"),
    ("operator_at_a_leaf", None, ("AOR", 1, 2, "+", "-"), ValueError,
     "descriptor does not match site: site holds variable 'a', not '+'"),
    ("literal_at_an_operator", None, ("CRP", 1, 1, "1", "2"), ValueError,
     "descriptor does not match site: expected literal 1"),
    ("wrong_literal", None, ("CRP", 1, 3, "5", "6"), ValueError,
     "descriptor does not match site: site holds literal 1, not 5"),
    ("unknown_statement", None, ("SDL", 9, 0, "x = ...", ""), ValueError, "program has no statement 9"),
    ("non_statement", Program((SimpleNamespace(sid=1),)), ("AOR", 1, 1, "+", "-"), TypeError,
     "cannot mutate SimpleNamespace"),
    # rewrites mutate_all never emits, though the site holds the original
    ("unknown_operator_name", None, ("XYZ", 1, 1, "+", "^"), ValueError,
     "unknown mutation operator 'XYZ'"),
    ("aor_to_a_logic_operator", None, ("AOR", 1, 1, "+", "&&"), ValueError,
     "descriptor does not match site: AOR does not rewrite '+' to '&&'"),
    ("identity_rewrite", None, ("AOR", 1, 1, "+", "+"), ValueError,
     "descriptor does not match site: AOR does not rewrite '+' to '+'"),
    ("sdl_at_an_expression_site", None, ("SDL", 1, 1, "+", ""), ValueError,
     "SDL applies at site 0 only"),
    ("crp_to_another_script", None, ("CRP", 1, 3, "1", "\u0663"), ValueError,
     "descriptor does not match site: CRP does not rewrite '1' to '\u0663'"),
    ("sdl_of_another_head", None, ("SDL", 1, 0, "x = a + 2;", ""), ValueError,
     "descriptor does not match site: expected statement 'x = a + 2;'"),
]


@pytest.mark.parametrize(
    "program, fields, error, message",
    [row[1:] for row in REFUSALS],
    ids=[row[0] for row in REFUSALS],
)
def test_apply_descriptor_refuses_a_descriptor_it_cannot_apply(program, fields, error, message):
    program = program or parse("x = a + 1;")
    desc = MutantDescriptor("m1", *fields)
    with pytest.raises(error) as err:
        apply_descriptor(program, desc)
    assert str(err.value) == message


def test_mutate_all_on_a_flat_1000_statement_program_is_fast():
    # one walk builds the 7,999 mutants in about 0.4 s on a 2-core VM, and
    # walking the whole program per mutant takes about 3 s: the bound
    # tells the two apart with room to spare
    program = parse("".join(f"x{i} = a + {i};\n" for i in range(1000)) + "return x0;\n")
    start = time.perf_counter()
    mutants = mutate_all(program)
    elapsed = time.perf_counter() - start
    assert len(mutants) == 7_999
    assert elapsed < 1.5


FIELDS = ["operator", "statement", "site", "original", "replacement"]
JUNK = {"operator": ["XYZ"], "statement": [-1, 0, 99], "site": [-1, 0, 99],
        "original": ["", "^", "02"], "replacement": ["", "^", "02", "\u0663"]}


@settings(FUZZ, max_examples=30)
@given(programs, st.data())
def test_apply_descriptor_accepts_exactly_the_descriptors_mutate_all_emits(program, data):
    mutants = mutate_all(program)
    emitted = {dataclasses.astuple(d)[1:]: m for d, m in mutants}
    desc, _ = data.draw(st.sampled_from(mutants))
    field = data.draw(st.sampled_from(FIELDS))
    values = sorted({getattr(d, field) for d, _ in mutants} | set(JUNK[field]), key=repr)
    changed = dataclasses.replace(desc, **{field: data.draw(st.sampled_from(values))})
    key = dataclasses.astuple(changed)[1:]
    if key in emitted:
        assert apply_descriptor(program, changed) == emitted[key]
    else:
        with pytest.raises(ValueError):
            apply_descriptor(program, changed)
