"""Mutation-based fault localization.

Two scoring methods over the same behavior matrix:

* ``fix``  - treat a mutant as a candidate partial fix: reward tests that
  flip from fail to pass on the mutant, penalize pass-to-fail flips.
* ``flt``  - treat a mutant as a candidate fault: score the similarity
  (Ochiai or Jaccard) between the mutant's kill vector and the original
  program's failure vector.

Statement suspiciousness is the maximum over the statement's mutants;
statements are ranked descending with average-rank tie handling.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

from .behavior import (
    ROLE_ORIGINAL,
    ROLE_SPEC,
    BehaviorMatrix,
    Differentiator,
    TestVector,
    select,
)
from .errors import RoleError
from .space import ProgramSpace

StatementId = Union[int, str]

METHOD_FIX = "fix"
METHOD_FLT = "flt"
METRIC_OCHIAI = "ochiai"
METRIC_JACCARD = "jaccard"
METRICS = (METRIC_OCHIAI, METRIC_JACCARD)


@dataclass(frozen=True)
class FaultLocalizationInput:
    """Everything a localization run needs: a matrix carrying both the spec
    and original roles, mutants tagged with their statement, the tests to
    score over, and the difference policy.

    ``spec_space`` and ``original_space`` anchor the tests at the spec and
    the original.  Each computes every position when it is built, and every
    score reads their position masks.
    """

    matrix: BehaviorMatrix
    mutants: tuple[tuple[str, Optional[StatementId]], ...]
    tests: TestVector
    differentiator: Differentiator
    spec_space: ProgramSpace = field(init=False, repr=False, compare=False)
    original_space: ProgramSpace = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "mutants", tuple((m, s) for m, s in self.mutants)
        )
        object.__setattr__(self, "tests", TestVector.of(self.tests))
        for role, holder in ((ROLE_SPEC, self.spec_id), (ROLE_ORIGINAL, self.original_id)):
            if holder is None:
                raise RoleError(f"fault localization requires a program with role {role!r}")
        ids = [m for m, _ in self.mutants]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate mutant id in localization input")
        for m in ids:
            self.matrix.entry(m)
        def space(origin: str) -> ProgramSpace:
            return ProgramSpace(self.tests, origin, self.differentiator, self.matrix)

        object.__setattr__(self, "spec_space", space(self.spec_id))
        object.__setattr__(self, "original_space", space(self.original_id))

    @property
    def spec_id(self) -> str:
        return self.matrix.spec_id

    @property
    def original_id(self) -> str:
        return self.matrix.original_id

    def mutant_ids(self) -> tuple[str, ...]:
        return tuple(m for m, _ in self.mutants)


@dataclass(frozen=True)
class FixCounts:
    fail_to_pass: int
    pass_to_fail: int


def fix_counts(inp: FaultLocalizationInput, m: str) -> FixCounts:
    """Over the changed tests, whose spec-relative bit flips from the
    original to the mutant: zeros of the mutant's bits are fail->pass
    flips, ones are pass->fail flips."""
    mutant = inp.spec_space.mask(m)
    changed = inp.spec_space.mask(inp.original_id) ^ mutant
    ones = (changed & mutant).bit_count()
    return FixCounts(fail_to_pass=changed.bit_count() - ones, pass_to_fail=ones)


def fix_score(inp: FaultLocalizationInput, m: str) -> float:
    """Proportion of failing tests fixed minus proportion of passing tests
    broken; a term with zero denominator contributes 0."""
    failing = inp.spec_space.mask(inp.original_id).bit_count()
    passing = len(inp.tests) - failing
    counts = fix_counts(inp, m)
    score = 0.0
    if failing:
        score += counts.fail_to_pass / failing
    if passing:
        score -= counts.pass_to_fail / passing
    return score


def flt_score(
    inp: FaultLocalizationInput, m: str, metric: str = METRIC_OCHIAI
) -> float:
    """Similarity between the mutant's kill vector and the original's
    failure vector, both taken relative to the original program."""
    if metric not in METRICS:
        raise ValueError(f"unknown similarity metric {metric!r}")
    kills = inp.original_space.mask(m)
    fails = inp.original_space.mask(inp.spec_id)
    a = (kills & fails).bit_count()
    b = (kills & ~fails).bit_count()
    c = (fails & ~kills).bit_count()
    if metric == METRIC_OCHIAI:
        denom = math.sqrt((a + b) * (a + c))
    else:
        denom = a + b + c
    return a / denom if denom else 0.0


def mutant_score(
    inp: FaultLocalizationInput, m: str, method: str, metric: str = METRIC_OCHIAI
) -> float:
    if method == METHOD_FIX:
        return fix_score(inp, m)
    if method == METHOD_FLT:
        return flt_score(inp, m, metric)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class SuspiciousnessReport:
    """Mutant- and statement-level scores plus the statement ranking.

    ``ranking`` entries are (statement, score, rank); tied statements share
    the average of the rank positions they occupy.
    """

    method: str
    mutant_scores: Mapping[str, float]
    statement_scores: Mapping[StatementId, float]
    ranking: tuple[tuple[StatementId, float, float], ...]


def _average_ranks(
    scored: Sequence[tuple[StatementId, float]]
) -> tuple[tuple[StatementId, float, float], ...]:
    ordered = sorted(scored, key=lambda kv: (-kv[1], str(kv[0])))
    ranking = []
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j][1] == ordered[i][1]:
            j += 1
        rank = (i + 1 + j) / 2  # average of positions i+1 .. j
        for stmt, score in ordered[i:j]:
            ranking.append((stmt, score, rank))
        i = j
    return tuple(ranking)


def rank_statements(
    inp: FaultLocalizationInput, method: str = METHOD_FIX, metric: str = METRIC_OCHIAI
) -> SuspiciousnessReport:
    """Score every mutant, aggregate per statement by maximum, and rank.

    Mutants without a statement are scored but excluded from the ranking.
    """
    if not inp.mutants:
        raise ValueError("at least one mutant is required to rank statements")
    mutant_scores = {m: mutant_score(inp, m, method, metric) for m in inp.mutant_ids()}
    statement_scores: dict[StatementId, float] = {}
    for m, stmt in inp.mutants:
        if stmt is None:
            continue
        score = mutant_scores[m]
        if stmt not in statement_scores or score > statement_scores[stmt]:
            statement_scores[stmt] = score
    label = method if method == METHOD_FIX else f"{METHOD_FLT}-{metric}"
    return SuspiciousnessReport(
        method=label,
        mutant_scores=mutant_scores,
        statement_scores=statement_scores,
        ranking=_average_ranks(list(statement_scores.items())),
    )


@dataclass(frozen=True)
class MethodComparison:
    """Where and why the two methods disagree about one mutant.

    ``disagreement_tests`` are the tests on which the spec, the original,
    and the mutant behave pairwise differently.  There the flt view sees
    the mutant as matching the spec (kill bit equals failure bit) while the
    fix view sees it as differing from the spec.
    """

    mutant: str
    disagreement_tests: tuple[str, ...]


def compare_methods(inp: FaultLocalizationInput, m: str) -> MethodComparison:
    spec_orig = inp.spec_space.mask(inp.original_id)
    orig_mut = inp.original_space.mask(m)
    spec_mut = inp.spec_space.mask(m)
    return MethodComparison(m, select(spec_orig & orig_mut & spec_mut, inp.tests))


def report_to_json_obj(
    report: SuspiciousnessReport, statements: Mapping[str, Optional[StatementId]]
) -> dict:
    """JSON form of a report; ``statements`` maps mutant id -> statement."""
    return {
        "method": report.method,
        "mutants": [
            {"id": m, "statement": statements.get(m), "score": round(score, 6)}
            for m, score in report.mutant_scores.items()
        ],
        "ranking": [
            {"statement": stmt, "score": round(score, 6), "rank": rank}
            for stmt, score, rank in report.ranking
        ],
    }


def report_to_json_text(
    report: SuspiciousnessReport, statements: Mapping[str, Optional[StatementId]]
) -> str:
    return json.dumps(report_to_json_obj(report, statements), indent=2) + "\n"
