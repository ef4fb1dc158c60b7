"""The deviance relation between positions and the hypercube lattice of
all positions of a space.

Position y *deviates from* position x by a nonempty test set when the two
agree everywhere else, x matches the origin on those tests, and y opposes
it.  Equivalently: x's 1-set is a strict subset of y's.  Flipping a single
bit 0->1 gives the lattice edges; the full structure is the n-dimensional
hypercube with 2^n nodes and n*2^(n-1) directed edges.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .behavior import pack_bits, select, unpack_bits
from .errors import CapacityError
from .space import Position, ProgramSpace, position

Node = tuple[int, ...]

# 2^16 nodes; beyond this, use the implicit queries (deviant, reachability).
MAX_EXPLICIT_DIMENSION = 16


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
    if bx & ~by:  # py would have to lose a difference: not deviance
        return None
    td = by & ~bx
    if not td:
        return None
    n = len(sp.tests)
    return DevianceWitness(unpack_bits(bx, n), unpack_bits(by, n), select(td, sp.tests))


@dataclass(frozen=True)
class PositionLattice:
    """Hypercube of all positions over ``tests``; nodes may carry programs.

    Nodes and edges are enumerated on demand in a fixed order (bit strings
    ascending; edges by source node, then flipped dimension), so exports
    are byte-stable.
    """

    dimension: int
    tests: tuple[str, ...]
    annotations: Mapping[Node, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.dimension != len(self.tests):
            raise ValueError("one test name per dimension required")
        for node in self.annotations:
            if len(node) != self.dimension or any(b not in (0, 1) for b in node):
                raise ValueError(f"annotation on non-node {node!r}")

    def nodes(self) -> Iterator[Node]:
        return itertools.product((0, 1), repeat=self.dimension)

    def edges(self) -> Iterator[tuple[Node, Node, str]]:
        for u in self.nodes():
            for i in range(self.dimension):
                if u[i] == 0:
                    v = u[:i] + (1,) + u[i + 1 :]
                    yield u, v, self.tests[i]

    def programs_at(self, node: Node) -> tuple[str, ...]:
        return self.annotations.get(tuple(node), ())


def build_lattice(
    n: int, tests: Optional[Sequence[str]] = None
) -> PositionLattice:
    """Explicitly constructed hypercube of dimension ``n`` (capped at
    ``MAX_EXPLICIT_DIMENSION``; use the implicit queries above that)."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    if n > MAX_EXPLICIT_DIMENSION:
        raise CapacityError(
            f"explicit lattice construction is capped at dimension "
            f"{MAX_EXPLICIT_DIMENSION}; query deviance implicitly instead"
        )
    names = tuple(tests) if tests is not None else tuple(f"t{i + 1}" for i in range(n))
    return PositionLattice(n, names)


def annotate(
    lattice: PositionLattice, sp: ProgramSpace, programs: Iterable[str]
) -> PositionLattice:
    """Attach each program to the node equal to its position in ``sp``.

    Returns a new lattice; several programs may share a node.
    """
    if lattice.dimension != len(sp.tests):
        raise ValueError(
            f"lattice dimension {lattice.dimension} does not match "
            f"space dimension {len(sp.tests)}"
        )
    merged: dict[Node, list[str]] = {k: list(v) for k, v in lattice.annotations.items()}
    for p in programs:
        node = position(sp, p).bits
        merged.setdefault(node, [])
        if p not in merged[node]:
            merged[node].append(p)
    return PositionLattice(
        lattice.dimension,
        lattice.tests,
        {k: tuple(v) for k, v in merged.items()},
    )


def project(
    obj: Union[PositionLattice, Position], k: int
) -> Union[PositionLattice, Position]:
    """Truncate to the first ``k`` dimensions.

    Distinct positions may coalesce; running k = 1..n forward replays how
    the lattice grows as tests are added one at a time.
    """
    if isinstance(obj, PositionLattice):
        if not 0 <= k <= obj.dimension:
            raise ValueError(f"prefix length {k} out of range 0..{obj.dimension}")
        merged: dict[Node, list[str]] = {}
        for node in obj.nodes():  # fixed node order keeps coalesced lists stable
            progs = obj.annotations.get(node)
            if not progs:
                continue
            bucket = merged.setdefault(node[:k], [])
            for p in progs:
                if p not in bucket:
                    bucket.append(p)
        return PositionLattice(k, obj.tests[:k], {n: tuple(v) for n, v in merged.items()})
    if isinstance(obj, Position):
        sp = obj.space
        if not 0 <= k <= len(sp.tests):
            raise ValueError(f"prefix length {k} out of range 0..{len(sp.tests)}")
        sub = ProgramSpace(sp.tests.prefix(k), sp.origin, sp.differentiator, sp.matrix)
        return position(sub, obj.subject)
    raise TypeError(f"cannot project {type(obj).__name__}")


def reachable_by_deviance(lattice: PositionLattice, start: Node) -> set[Node]:
    """All nodes reachable from ``start`` along directed edges.

    By hypercube structure this is exactly the set of strict bitwise
    supersets of ``start``, which is how it is computed; the graph-search
    equivalence is exercised by the test suite.
    """
    start = tuple(start)
    if len(start) != lattice.dimension or any(b not in (0, 1) for b in start):
        raise ValueError(f"{start!r} is not a node of this lattice")
    base = pack_bits(start)
    free = ~base & ((1 << lattice.dimension) - 1)
    out: set[Node] = set()
    extra = free
    while extra:  # every nonempty subset of the free bits, once
        out.add(unpack_bits(base | extra, lattice.dimension))
        extra = (extra - 1) & free
    return out


def dot_escape(name: str) -> str:
    """``name`` as the body of a double-quoted DOT string."""
    return name.replace("\\", "\\\\").replace('"', '\\"')


def lattice_to_dot(lattice: PositionLattice) -> str:
    """DOT rendering with nodes in ascending bit-string order and edges
    labeled by their deviating test."""
    n = lattice.dimension
    # node k of ``nodes()`` is the bit string of k, tests[0] its leftmost bit
    ids = [format(k, f"0{n}b") if n else "()" for k in range(1 << n)]
    labels = list(ids)
    for node, progs in lattice.annotations.items():
        if progs:
            k = sum(b << (n - 1 - i) for i, b in enumerate(node))
            labels[k] += "\\n" + ",".join(dot_escape(p) for p in sorted(progs))
    lines = ["digraph positions {", "  rankdir=BT;"]
    lines += [f'  "{u}" [label="{label}"];' for u, label in zip(ids, labels)]
    # escaped once per export: there are n * 2^(n-1) edges but n test names
    flips = [(1 << (n - 1 - i), dot_escape(t)) for i, t in enumerate(lattice.tests)]
    lines += [
        f'  "{u}" -> "{ids[k | bit]}" [label="{t}"];'
        for k, u in enumerate(ids)
        for bit, t in flips
        if not k & bit
    ]
    lines.append("}")
    return "\n".join(lines) + "\n"
