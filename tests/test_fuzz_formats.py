"""Arbitrary ids, outputs and trace text through matrix JSON and kill CSV.

The expected matrix JSON is built here as a plain object and written by
``json.dumps(indent=2, ensure_ascii=False)``; ``matrix_to_json_text`` must
produce exactly those bytes, and reading them back must give the matrix
again.  Kill CSV text must read back to the same matrix and the same bytes.
"""
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mutspace import (
    BehaviorMatrix,
    BehaviorToken,
    KillMatrix,
    ProgramEntry,
    TestVector,
    matrix_from_json_text,
    matrix_to_json_text,
)
from mutspace.behavior import STATUSES

# characters that quoting, line splitting or blank-line handling could trip on
TRICKY = '"\\,\n\r\t\x00\x1f\x7f \u00e9\u2028\U0001d518'
text = st.text(st.sampled_from(TRICKY + "ab"), max_size=4) | st.text(max_size=4)
ids = st.lists(text, unique=True, max_size=4)
sids = st.integers(-(2**70), 2**70) | text
traces = st.none() | st.lists(st.tuples(sids, text), max_size=3).map(tuple)
tokens = st.builds(BehaviorToken, text, st.sampled_from(STATUSES), traces)

fuzz = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def matrices(draw):
    tests = draw(ids)
    programs = draw(ids)
    entries = []
    for i, pid in enumerate(programs):
        role = draw(st.sampled_from(["spec", "original", "mutant", None]))
        if role in ("spec", "original") and any(e.role == role for e in entries):
            role = None
        origin = None
        if role == "mutant":
            origin = draw(st.none() | st.sampled_from(programs))
        entries.append(ProgramEntry(pid, role, origin))
    cells = {pid: {t: draw(tokens) for t in tests} for pid in programs}
    return BehaviorMatrix(tests, entries, cells)


def oracle_text(bm: BehaviorMatrix) -> str:
    programs = []
    for p in bm.programs:
        obj = {"id": p.id, "role": p.role, "origin": p.origin}
        programs.append({k: v for k, v in obj.items() if v is not None})
    cells = {}
    for p in bm.programs:
        row = cells[p.id] = {}
        for t in bm.tests:
            tok = bm.token(p.id, t)
            row[t] = {"output": tok.output, "status": tok.status}
            if tok.trace is not None:
                row[t]["trace"] = [[sid, state] for sid, state in tok.trace]
    obj = {"tests": list(bm.tests), "programs": programs, "cells": cells}
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


@fuzz
@given(matrices())
def test_matrix_json_is_the_json_dumps_layout_and_round_trips(bm):
    text = matrix_to_json_text(bm)
    assert text == oracle_text(bm)
    again = matrix_from_json_text(text)
    assert again == bm
    assert matrix_to_json_text(again) == text


@st.composite
def kill_matrices(draw):
    tests = draw(ids)
    mutants = draw(ids)
    bits = [[draw(st.integers(0, 1)) for _ in mutants] for _ in tests]
    return KillMatrix(TestVector(tuple(tests)), tuple(mutants), bits)


@fuzz
@given(kill_matrices())
def test_kill_csv_round_trips_byte_exactly(km):
    text = km.to_csv()
    again = KillMatrix.from_csv(text)
    assert again == km
    assert hash(again) == hash(km)
    assert again.bits == km.bits
    assert again.to_csv() == text
