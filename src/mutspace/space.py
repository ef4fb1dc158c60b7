"""Program spaces: positions of programs relative to an origin.

A space is identified by (tests, origin, differentiator); the behavior
matrix is carried along only as the data source.  Each program's position
is computed from the matrix on first use and then kept as a mask on the
space.  Cached positions cannot go stale because matrices are immutable,
and the cache is write-once, so spaces stay safe to share.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .behavior import (
    BehaviorMatrix,
    Differentiator,
    TestVector,
    diff_mask,
    select,
    unpack_bits,
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
    _masks: dict[str, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "tests", TestVector.of(self.tests))
        self.matrix.entry(self.origin)  # raises UnknownIdError
        known = set(self.matrix.tests)
        for t in self.tests:
            if t not in known:
                raise UnknownIdError(f"unknown test id {t!r}")

    def dimension(self) -> int:
        return len(self.tests)

    def mask(self, p: str) -> int:
        """Packed position of ``p`` (bit i is ``tests[i]``), computed once."""
        if p not in self._masks:
            self._masks[p] = diff_mask(
                self.differentiator, self.tests, self.origin, p, self.matrix
            )
        return self._masks[p]


@dataclass(frozen=True)
class Position:
    """A program's difference bits relative to the space origin, packed in
    ``mask``; ``bits`` is the per-test tuple view."""

    mask: int
    space: ProgramSpace
    subject: str

    @property
    def bits(self) -> tuple[int, ...]:
        return unpack_bits(self.mask, len(self.space.tests))


def position(sp: ProgramSpace, p: str) -> Position:
    """Locate program ``p`` in the space; the origin sits at the zero vector."""
    return Position(sp.mask(p), sp, p)


def distance_from_origin(pos: Position) -> int:
    """Manhattan norm of the position bits.

    With a spec-row origin this measures the subject's incorrectness; with
    an original-row origin and a mutant subject, how easily it is killed.
    """
    return pos.mask.bit_count()


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
