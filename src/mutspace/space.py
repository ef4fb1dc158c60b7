"""Program spaces: positions of programs relative to an origin.

A space is identified by (tests, origin, differentiator); the behavior
matrix is carried along only as the data source.  A program's position is
its d-vector from the origin, a :class:`DiffVector`.  A space is built
whole: every program's position is computed from the matrix in one pass
when the space is built, and kept as a mask that is only read afterwards.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from .behavior import (
    AdequacyResult,
    BehaviorMatrix,
    DiffVector,
    Differentiator,
    TestVector,
    adequacy_from_masks,
    diff_mask,
    position_masks,
    select,
)
from .errors import UnknownIdError


@dataclass(frozen=True)
class ProgramSpace:
    """Coordinate system over a test vector, anchored at an origin program.

    Two spaces are equal iff their (tests, origin, differentiator) triples
    are equal; the matrix is a data source, not part of the identity.
    """

    tests: TestVector
    origin: str
    differentiator: Differentiator
    matrix: BehaviorMatrix = field(compare=False)
    _masks: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "tests", TestVector.of(self.tests))
        # the one pass; an unknown origin or test raises UnknownIdError
        masks = position_masks(self.differentiator, self.tests, self.origin, self.matrix)
        object.__setattr__(self, "_masks", masks)

    def mask(self, p: str) -> int:
        """Packed position of ``p`` (bit i is ``tests[i]``)."""
        try:
            return self._masks[p]
        except KeyError:
            raise UnknownIdError(f"unknown program id {p!r}") from None


def mutation_adequacy(
    d: Differentiator,
    tv: Union[TestVector, Iterable[str]],
    po: str,
    mutants: Sequence[str],
    bm: BehaviorMatrix,
) -> AdequacyResult:
    """Check that every mutant differs from ``po`` on at least one test in ``tv``.

    ``killers`` maps each killed mutant to the earliest test (in ``tv``
    order) that kills it.  An empty mutant list is vacuously adequate.
    """
    sp = ProgramSpace(tv, po, d, bm)
    return adequacy_from_masks(sp.tests, [(m, sp.mask(m)) for m in mutants])


def position(sp: ProgramSpace, p: str) -> DiffVector:
    """The d-vector from the origin to program ``p``; the origin sits at
    the zero vector."""
    return DiffVector(sp.mask(p), sp.tests, sp.origin, p, sp.differentiator.id)


def distinguishing_dimensions(sp: ProgramSpace, px: str, py: str) -> list[str]:
    """Tests where the two programs' positions disagree.

    Every returned test is guaranteed to differentiate ``px`` from ``py``
    directly: a positional difference in a dimension forces a behavioral
    difference for that dimension's test.
    """
    return list(select(sp.mask(px) ^ sp.mask(py), sp.tests))


def coincidence_counterexample(
    sp: ProgramSpace, px: str, py: str
) -> Optional[list[str]]:
    """Tests where the positions agree yet the programs behave differently.

    These witnesses show that sharing a position does not imply sharing
    behavior (it happens when both programs differ from the origin in
    distinct ways).  Returns ``None`` when no witness exists.
    """
    agree = ~(sp.mask(px) ^ sp.mask(py))
    differ = diff_mask(sp.differentiator, sp.tests, px, py, sp.matrix)
    return list(select(differ & agree, sp.tests)) or None
