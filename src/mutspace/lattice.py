"""The deviance relation between positions and the hypercube lattice of
all positions of a space.  A position is a program's d-vector from the
space's origin (a :class:`DiffVector`).

Position y *deviates from* position x by a nonempty test set when the two
agree everywhere else, x matches the origin on those tests, and y opposes
it.  Equivalently: x's mask is a strict ``behavior.submask`` of y's.
Flipping a single bit 0->1 gives the lattice edges; the full structure is
the n-dimensional hypercube with 2^n nodes and n*2^(n-1) directed edges.

Nodes are masks in the space's bit order (bit i is ``tests[i]``), and
``PositionLattice.annotations`` is keyed by them; ``nodes()``, ``edges()``
and ``programs_at`` are tuple views.  Their order (``tests[0]`` leftmost)
meets the masks only in ``_rank``, which places DOT labels and orders ``project``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .behavior import DiffVector, group_by_mask, pack_bits, select, submask, unpack_bits
from .errors import CapacityError
from .space import ProgramSpace

Node = tuple[int, ...]

# 2^16 nodes; beyond this, use the implicit queries (deviant, reachability).
MAX_EXPLICIT_DIMENSION = 16


def _check_dimension(n: int) -> None:
    """Refuse a negative dimension, and one past ``MAX_EXPLICIT_DIMENSION``
    with a :class:`CapacityError`."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    if n > MAX_EXPLICIT_DIMENSION:
        raise CapacityError(
            f"explicit lattice construction is capped at dimension "
            f"{MAX_EXPLICIT_DIMENSION}; query deviance implicitly instead"
        )


def _rank(mask: int, n: int) -> int:
    """Index of node ``mask`` in ``nodes()`` order (``tests[0]`` leftmost)."""
    return int(format(mask, f"0{n}b")[::-1], 2)


@dataclass(frozen=True)
class DevianceWitness:
    """Evidence that ``target`` deviates from ``source``: the deviating tests."""

    source: Node
    target: Node
    deviating: tuple[str, ...]

    def __post_init__(self):
        if not self.deviating:
            raise ValueError("a deviance witness needs at least one deviating test")


def deviant(sp: ProgramSpace, px: str, py: str) -> Optional[DevianceWitness]:
    """Witness that ``py``'s position deviates from ``px``'s, or ``None``.

    The witness test set is unique when it exists: the dimensions where
    ``px`` sits at the origin and ``py`` opposes it, all other dimensions
    agreeing.  Equal positions (in particular ``px == py``) yield ``None``.
    """
    bx, by = sp.mask(px), sp.mask(py)
    if bx == by or not submask(bx, by):
        return None
    n = len(sp.tests)
    return DevianceWitness(unpack_bits(bx, n), unpack_bits(by, n), select(by & ~bx, sp.tests))


@dataclass(frozen=True)
class PositionLattice:
    """Hypercube of all positions over ``tests``; nodes may carry programs.

    Nodes and edges are enumerated on demand in a fixed order (bit strings
    ascending; edges by source node, then flipped dimension), so exports
    are byte-stable.
    """

    tests: tuple[str, ...]
    annotations: Mapping[int, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        # a copy, since the dimension is read from it
        object.__setattr__(self, "tests", tuple(self.tests))
        _check_dimension(self.dimension)
        for mask in self.annotations:
            if not (isinstance(mask, int) and 0 <= mask < 1 << self.dimension):
                raise ValueError(f"annotation on non-node {mask!r}")

    @property
    def dimension(self) -> int:
        """One dimension per test."""
        return len(self.tests)

    def nodes(self) -> Iterator[Node]:
        return itertools.product((0, 1), repeat=self.dimension)

    def edges(self) -> Iterator[tuple[Node, Node, str]]:
        for u in self.nodes():
            for i, t in enumerate(self.tests):
                if u[i] == 0:
                    yield u, u[:i] + (1,) + u[i + 1 :], t

    def programs_at(self, node: Node) -> tuple[str, ...]:
        node = tuple(node)
        m = pack_bits(node)  # a non-node does not round-trip
        return self.annotations.get(m, ()) if unpack_bits(m, self.dimension) == node else ()


def build_lattice(n: int, tests: Optional[Sequence[str]] = None) -> PositionLattice:
    """Explicitly constructed hypercube of dimension ``n`` (capped at
    ``MAX_EXPLICIT_DIMENSION``; use the implicit queries above that)."""
    _check_dimension(n)
    names = tuple(tests) if tests is not None else tuple(f"t{i + 1}" for i in range(n))
    if len(names) != n:
        raise ValueError("one test name per dimension required")
    return PositionLattice(names)


def annotate(
    lattice: PositionLattice, sp: ProgramSpace, programs: Iterable[str]
) -> PositionLattice:
    """Attach each program to the node equal to its position in ``sp``.

    Returns a new lattice; several programs may share a node.
    """
    if tuple(lattice.tests) != tuple(sp.tests):
        raise ValueError(
            f"lattice dimensions {lattice.tests!r} do not match "
            f"space dimensions {tuple(sp.tests)!r}"
        )
    held = ((mask, p) for mask, progs in lattice.annotations.items() for p in progs)
    added = ((sp.mask(p), p) for p in programs)
    annotations = group_by_mask(itertools.chain(held, added))
    return PositionLattice(lattice.tests, annotations)


def project(
    obj: Union[PositionLattice, DiffVector], k: int
) -> Union[PositionLattice, DiffVector]:
    """Truncate a lattice or a position (a d-vector) to the first ``k``
    dimensions.

    Distinct positions may coalesce; running k = 1..n forward replays how
    the lattice grows as tests are added one at a time.
    """
    if not isinstance(obj, (PositionLattice, DiffVector)):
        raise TypeError(f"cannot project {type(obj).__name__}")
    n = len(obj.tests)
    if not 0 <= k <= n:
        raise ValueError(f"prefix length {k} out of range 0..{n}")
    low = (1 << k) - 1
    if isinstance(obj, DiffVector):
        return replace(obj, mask=obj.mask & low, tests=obj.tests.prefix(k))
    # in nodes() order, so each coalesced list keeps its sources' order
    ranked = sorted(obj.annotations, key=lambda m: _rank(m, n))
    pairs = ((mask & low, p) for mask in ranked for p in obj.annotations[mask])
    return PositionLattice(obj.tests[:k], group_by_mask(pairs))


def reachable_by_deviance(lattice: PositionLattice, start: Node) -> set[Node]:
    """All nodes reachable from ``start`` along directed edges.

    By hypercube structure this is exactly the set of nodes of which
    ``start`` is a strict submask, which is how it is computed; the
    graph-search equivalence is exercised by the test suite.
    """
    start = tuple(start)
    n = lattice.dimension
    base = pack_bits(start)
    if unpack_bits(base, n) != start:
        raise ValueError(f"{start!r} is not a node of this lattice")
    return {unpack_bits(m, n) for m in range(1 << n) if m != base and submask(base, m)}


def dot_escape(name: str) -> str:
    """``name`` as the body of a double-quoted DOT string."""
    return name.replace("\\", "\\\\").replace('"', '\\"')


def lattice_to_dot(lattice: PositionLattice) -> str:
    """DOT rendering with nodes in ascending bit-string order and edges
    labeled by their deviating test."""
    n = lattice.dimension
    ids = [format(k, f"0{n}b") if n else "()" for k in range(1 << n)]
    labels = list(ids)
    for mask, progs in lattice.annotations.items():
        if progs:
            labels[_rank(mask, n)] += "\\n" + ",".join(dot_escape(p) for p in sorted(progs))
    lines = ["digraph positions {", "  rankdir=BT;"]
    lines += [f'  "{u}" [label="{label}"];' for u, label in zip(ids, labels)]
    # escaped once per export: there are n * 2^(n-1) edges but n test names
    flips = [(_rank(1 << i, n), dot_escape(t)) for i, t in enumerate(lattice.tests)]
    lines += [
        f'  "{u}" -> "{ids[k | bit]}" [label="{t}"];'
        for k, u in enumerate(ids)
        for bit, t in flips
        if not k & bit
    ]
    lines.append("}")
    return "\n".join(lines) + "\n"
