"""Kill matrices, dynamic mutant subsumption, minimal mutant sets.

A kill matrix records which tests kill which mutants, relative to the
original program.  It stores one packed mask per mutant (bit i is
``tests[i]``); its rows (``bits``) and its CSV are views of the masks.
Mutant ``x`` dynamically subsumes mutant ``y`` when ``x`` is killed at
least once and every test killing ``x`` also kills ``y``; a subsumed mutant
is redundant.  Grouping killed mutants by identical kill columns and
ordering the groups by strict subsumption yields the dynamic mutant
subsumption graph (DMSG), whose root classes give a minimal mutant set.

The kernel works on packed ints: a class's kill column is a mask over
tests, subsumption is ``cx != 0 and submask(cx, cy)`` (``behavior.submask``
is the order that deviance and the lattice read too), and ``below[i]``, the
classes class i strictly subsumes, is a mask over classes.  A class killed
by fewer tests than there are classes (k) ANDs one class mask per killing
test; any other class makes k ``submask`` checks, so the cost is at most
min(|c_i|, k) big-int operations per class.
The DMSG's transitive reduction ORs ``below`` over each class's set bits;
the minimal set needs no edges, only the classes outside the OR of all
``below`` masks.  Dense n = 10 (1,023 classes) takes about 0.04 s and a
sparse 64 x 5,000 matrix about 0.1 s on a 2-core VM, where pairwise
predicate calls took 0.7 s and 15 s.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .behavior import (
    ROLE_ORIGINAL,
    AdequacyResult,
    BehaviorMatrix,
    TestVector,
    adequacy_from_masks,
    group_by_mask,
    iter_bits,
    pack_bits,
    select,
    submask,
    unpack_bits,
)
from .errors import RoleError
from .lattice import dot_escape
from .space import ProgramSpace


def _subsumes(cx: int, cy: int) -> bool:
    """Kill mask ``cx`` is nonzero and every test in it is also in ``cy``."""
    return cx != 0 and submask(cx, cy)


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_CELL_TEXT = frozenset("01")


def _cells(row: Iterable) -> tuple[int, ...]:
    """A kill-matrix row as the ints 0 and 1; a bool becomes an int."""
    row = tuple(row)
    if not {int}.issuperset(map(type, row)):
        if not {int, bool}.issuperset(map(type, row)):
            raise ValueError("kill matrix cells must be 0 or 1")
        row = tuple(map(int, row))
    if not {0, 1}.issuperset(row):
        raise ValueError("kill matrix cells must be 0 or 1")
    return row


def _pack_columns(text: str | bytes, m: int) -> tuple[int, ...]:
    """Masks of the ``m`` columns of row-major 0/1 digit text (str or
    bytes) that starts with the last test: column j is every m-th digit
    from j on, high bit first."""
    return tuple(int(text[j::m] or "0", 2) for j in range(m))


@dataclass(frozen=True, init=False)
class KillMatrix:
    """n-by-M kill bits: rows are tests, columns are mutants, stored as one
    mask per mutant in ``masks``; :meth:`column` and :attr:`bits` are views."""

    tests: TestVector
    mutants: tuple[str, ...]
    masks: tuple[int, ...]
    # mutant id -> its position in ``mutants`` and ``masks``
    _column_of: dict[str, int] = field(init=False, repr=False, compare=False)

    def __init__(self, tests: Iterable[str], mutants: Iterable[str], bits: Iterable[Iterable]):
        """Kill bits as rows: one row of 0/1 cells per test."""
        self._set_ids(tests, mutants)
        rows = tuple(map(_cells, bits))
        if len(rows) != len(self.tests):
            raise ValueError("one row per test required")
        m = len(self.mutants)
        if any(len(row) != m for row in rows):
            raise ValueError("one column per mutant required")
        text = b"".join(map(bytes, reversed(rows))).translate(_DIGITS)
        object.__setattr__(self, "masks", _pack_columns(text, m))

    @classmethod
    def _from_masks(
        cls, tests: Iterable[str], mutants: Iterable[str], masks: Iterable[int]
    ) -> "KillMatrix":
        km = object.__new__(cls)
        km._set_ids(tests, mutants)
        object.__setattr__(km, "masks", tuple(masks))
        return km

    def _set_ids(self, tests: Iterable[str], mutants: Iterable[str]) -> None:
        object.__setattr__(self, "tests", TestVector.of(tests))
        object.__setattr__(self, "mutants", tuple(mutants))
        column_of = dict(zip(self.mutants, range(len(self.mutants))))
        if len(column_of) != len(self.mutants):
            raise ValueError("mutant identifiers must be unique")
        object.__setattr__(self, "_column_of", column_of)

    def mask(self, mutant: str) -> int:
        """Packed kill column of ``mutant``."""
        try:
            return self.masks[self._column_of[mutant]]
        except KeyError:
            raise ValueError(f"unknown mutant {mutant!r}") from None

    def column(self, mutant: str) -> tuple[int, ...]:
        return unpack_bits(self.mask(mutant), len(self.tests))

    @cached_property
    def bits(self) -> tuple[tuple[int, ...], ...]:
        """Row view: one tuple of 0/1 per test, one entry per mutant."""
        return tuple([tuple([c >> i & 1 for c in self.masks]) for i in range(len(self.tests))])

    def killed_mutants(self) -> tuple[str, ...]:
        return tuple(m for m, mask in zip(self.mutants, self.masks) if mask)

    def to_csv(self) -> str:
        # With "\r\n" as terminator the writer also quotes a field holding
        # "\r", where a reader would end the row; each row then ends in "\n".
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\r\n")
        n = len(self.tests)
        # each mutant's n digits, last test first; test i's row is every n-th one
        text = "".join([format(c, f"0{n}b") for c in self.masks])
        rows = [("test",) + self.mutants]
        rows += [(t, *text[n - 1 - i :: n]) for i, t in enumerate(self.tests)]
        lines = []
        for row in rows:
            writer.writerow(row)
            lines.append(out.getvalue()[:-2])
            out.seek(0)
            out.truncate()
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "KillMatrix":
        reader = csv.reader(io.StringIO(text, newline=""))
        try:  # (line number, fields) of the lines that are not empty
            lines = [(reader.line_num, f) for f in reader if f]
        except csv.Error as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from exc
        if not lines:
            raise ValueError("empty kill matrix CSV")
        header = lines[0][1]
        if header[0] != "test":
            raise ValueError("kill matrix CSV must start with a 'test' header column")
        mutants = header[1:]
        tests = []
        digits = []
        for lineno, fields in lines[1:]:
            if len(fields) != len(header):
                raise ValueError(
                    f"line {lineno}: expected {len(header)} fields, got {len(fields)}"
                )
            tests.append(fields[0])
            cells = fields[1:]
            if not _CELL_TEXT.issuperset(cells):
                raise ValueError(f"line {lineno}: cells must be 0 or 1")
            digits.append("".join(cells))
        text = "".join(reversed(digits))
        return cls._from_masks(TestVector(tests), mutants, _pack_columns(text, len(mutants)))


def kill_matrix(
    sp: ProgramSpace, mutants: Sequence[str], bm: BehaviorMatrix
) -> KillMatrix:
    """Kill bits of ``mutants`` against the space origin, which must carry
    the ``original`` role.  Columns equal the mutants' positions in ``sp``,
    so ``bm`` must be the space's matrix or equal to it."""
    if bm is not sp.matrix and bm != sp.matrix:
        raise ValueError("bm differs from sp.matrix, which the kill bits are read from")
    if bm.entry(sp.origin).role != ROLE_ORIGINAL:
        raise RoleError(
            f"kill matrices are defined against the original program; "
            f"{sp.origin!r} does not carry role 'original'"
        )
    return KillMatrix._from_masks(sp.tests, mutants, [sp.mask(m) for m in mutants])


def dynamically_subsumes(km: KillMatrix, mx: str, my: str) -> bool:
    """True iff ``mx`` is killed at least once and every test killing ``mx``
    also kills ``my``.  A mutant never subsumes itself."""
    return mx != my and _subsumes(km.mask(mx), km.mask(my))


@dataclass(frozen=True)
class MutantClass:
    """Killed mutants sharing one kill column, packed in ``mask``; the
    representative is the first member in column order."""

    members: tuple[str, ...]
    mask: int

    @property
    def representative(self) -> str:
        return self.members[0]


@dataclass(frozen=True)
class SubsumptionGraph:
    """DMSG over kill-column classes.

    ``edges`` is the transitive reduction (what gets drawn); use
    :meth:`subsumes` for the full logical relation.  Never-killed mutants
    are excluded from the graph and listed in ``live``.
    """

    classes: tuple[MutantClass, ...]
    edges: tuple[tuple[int, int], ...]
    live: tuple[str, ...]

    def class_of(self, mutant: str) -> int:
        for i, cls in enumerate(self.classes):
            if mutant in cls.members:
                return i
        raise ValueError(f"{mutant!r} is not in any class (live or unknown)")

    def subsumes(self, i: int, j: int) -> bool:
        """Strict subsumption between classes, by their columns."""
        return i != j and _subsumes(self.classes[i].mask, self.classes[j].mask)

    def roots(self) -> tuple[int, ...]:
        incoming = {j for _, j in self.edges}
        return tuple(i for i in range(len(self.classes)) if i not in incoming)


def _classes(km: KillMatrix) -> tuple[tuple[MutantClass, ...], tuple[str, ...]]:
    """Killed mutants grouped by kill column in first-seen order, and the
    never-killed mutants."""
    groups = group_by_mask(zip(km.masks, km.mutants))
    live = groups.pop(0, ())
    return tuple(MutantClass(members, mask) for mask, members in groups.items()), live


def _strictly_below(masks: Sequence[int]) -> list[int]:
    """``below[i]``: bit j is set iff class i strictly subsumes class j.

    ``masks`` are distinct and nonzero, so this is ``c_i`` a proper subset
    of ``c_j``.  A class killed by fewer tests than there are classes ANDs
    the class masks of its tests (bit j of test t's mask is bit t of
    ``c_j``); any other class checks every column once.  The test masks
    are cut on first use from one text holding every column's bits.
    """
    k = len(masks)
    by_test: dict[int, int] = {}
    width, text = 0, ""  # c_{k-1} .. c_0, `width` digits each, high bit first
    below = []
    for i, ci in enumerate(masks):
        if ci.bit_count() < k:
            if not width:
                width = max(c.bit_length() for c in masks)
                text = "".join([f"{c:0{width}b}" for c in reversed(masks)])
            above = -1
            for t in iter_bits(ci):
                col = by_test.get(t)
                if col is None:
                    col = by_test[t] = int(text[width - 1 - t :: width], 2)
                above &= col
        else:
            above = pack_bits([submask(ci, cj) for cj in masks])
        below.append(above & ~(1 << i))
    return below


def build_dmsg(km: KillMatrix) -> SubsumptionGraph:
    """Group killed mutants by identical kill columns and order the groups
    by strict subsumption; the stored edge set is the transitive reduction."""
    classes, live = _classes(km)
    below = _strictly_below([cls.mask for cls in classes])
    edges = []
    for i, reach in enumerate(below):
        indirect = 0
        for j in iter_bits(reach):
            indirect |= below[j]
        edges.extend((i, j) for j in iter_bits(reach & ~indirect))
    return SubsumptionGraph(classes, tuple(edges), live)


@dataclass(frozen=True)
class MinimalSetResult:
    """A subsumption-free set of representatives covering all killed mutants."""

    minimal: tuple[str, ...]
    roots: tuple[MutantClass, ...]
    live: tuple[str, ...]
    reduction_ratio: float


def minimal_mutant_set(km: KillMatrix) -> MinimalSetResult:
    """One representative per root class of the DMSG.

    Any test set that kills every mutant in the result kills every killed
    mutant; no ordered pair inside the result satisfies dynamic
    subsumption.  ``reduction_ratio`` is |minimal| / |killed mutants|
    (0.0 when nothing is killed).
    """
    classes, live = _classes(km)
    subsumed = 0
    for reach in _strictly_below([cls.mask for cls in classes]):
        subsumed |= reach
    root_classes = select(~subsumed, classes)
    minimal = tuple(cls.representative for cls in root_classes)
    killed = len(km.mutants) - len(live)
    ratio = len(minimal) / killed if killed else 0.0
    return MinimalSetResult(minimal, root_classes, live, ratio)


def max_minimal_size(n: int) -> int:
    """Largest possible minimal-set size for ``n`` tests: C(n, floor(n/2)),
    the width of the widest antichain layer of the n-cube.  Defined as 1
    for n = 0 (only the empty position exists)."""
    if n < 0:
        raise ValueError("test count must be nonnegative")
    return math.comb(n, n // 2)


@dataclass(frozen=True)
class EquivalenceCheck:
    """Deviance-path reachability vs. dynamic subsumption for one pair.

    The two booleans coincide whenever the kill matrix is derived from the
    space; the record exists to make that theorem runnable.
    """

    deviance_path_holds: bool
    subsumes: bool

    def agree(self) -> bool:
        return self.deviance_path_holds == self.subsumes


# checks are immutable and there are four outcomes, so each is built once
_OUTCOMES = {(a, b): EquivalenceCheck(a, b) for a in (False, True) for b in (False, True)}


def deviance_subsumption_equivalence(
    sp: ProgramSpace, km: KillMatrix, mx: str, my: str
) -> EquivalenceCheck:
    """Check, via two independent routes, whether ``mx`` subsumes ``my``.

    Route one walks positions: the origin must strictly precede ``mx`` in
    the deviance order and ``my`` must be deviant-from-or-equal to ``mx``.
    Route two reads the kill matrix columns; both apply ``_subsumes``.
    The pair (m, m) is defined as (False, False).
    """
    if km.tests is not sp.tests and km.tests != sp.tests:
        raise ValueError("kill matrix tests do not match the space dimensions")
    if mx == my:
        return _OUTCOMES[False, False]
    by_position = _subsumes(sp.mask(mx), sp.mask(my))
    return _OUTCOMES[by_position, _subsumes(km.mask(mx), km.mask(my))]


def adequacy_from_kills(km: KillMatrix) -> AdequacyResult:
    """Adequacy over kill bits: every mutant column is nonzero.

    ``killers`` maps each killed mutant to the earliest killing test in
    row order.
    """
    return adequacy_from_masks(km.tests, zip(km.mutants, km.masks))


def dmsg_to_dot(graph: SubsumptionGraph) -> str:
    """DOT rendering; class nodes list their member mutants."""
    lines = ["digraph dmsg {"]
    for i, cls in enumerate(graph.classes):
        label = ",".join(dot_escape(m) for m in cls.members)
        lines.append(f'  c{i} [label="{label}"];')
    for i, j in graph.edges:
        lines.append(f"  c{i} -> c{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
