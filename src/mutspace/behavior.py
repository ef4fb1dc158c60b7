"""Behavior storage and difference primitives.

A :class:`BehaviorMatrix` records one opaque :class:`BehaviorToken` per
(program, test) pair.  A :class:`Differentiator` turns pairs of tokens into
difference bits, and a :class:`DiffVector` collects those bits over an
ordered :class:`TestVector`.  Everything downstream (positions, lattices,
kill matrices, fault localization) reads behavior exclusively through these
types.

Most cells of a column repeat a few tokens, so a matrix stores each column
as a table of its distinct tokens plus one small-int id per row, and the
readers build one token per distinct cell.  Positions come from one pass
over the columns (:func:`position_masks`): whether a token differs from the
origin's is decided once per distinct token, then every row holding it
gets the bit.  The exact, output and trace policies are equivalences, so
the pass compares each distinct token's policy key with the origin's.
Numeric tolerance is not transitive (0 ~ 0.4 ~ 0.8 but 0 and 0.8 differ),
so it has no key: the pass calls ``differs`` on the origin's token and
each distinct token, which is exact because one side is always the
origin's.
"""
from __future__ import annotations

import json
from json.encoder import encode_basestring
from dataclasses import asdict, dataclass, field
from operator import attrgetter
from decimal import MAX_EMAX, MIN_EMIN, ROUND_FLOOR, Context, Decimal, Inexact, InvalidOperation
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import SchemaError, UnknownIdError

STATUS_NORMAL = "normal"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"
STATUSES = (STATUS_NORMAL, STATUS_ERROR, STATUS_TIMEOUT)

ROLE_SPEC = "spec"
ROLE_ORIGINAL = "original"
ROLE_MUTANT = "mutant"
ROLES = (ROLE_SPEC, ROLE_ORIGINAL, ROLE_MUTANT)

# (statement id, rendered state) pairs; statement ids may be ints or strings.
TraceEntry = tuple[Union[int, str], str]


@dataclass(frozen=True)
class BehaviorToken:
    """Immutable record of one test execution.

    ``output`` is the externally visible result, ``trace`` the optional
    ordered internal-state snapshots, ``status`` the termination kind.
    """

    output: str
    status: str = STATUS_NORMAL
    trace: Optional[tuple[TraceEntry, ...]] = None

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.trace is not None:
            normalized = tuple([(sid, text) for sid, text in self.trace])
            object.__setattr__(self, "trace", normalized)


class TestVector(tuple):
    """Ordered vector of unique test identifiers: a tuple that refuses
    duplicates."""

    __test__ = False  # not a pytest class, despite the name
    __slots__ = ()

    def __new__(cls, tests: Iterable[str] = ()):
        tv = super().__new__(cls, tests)
        if len(set(tv)) != len(tv):
            raise ValueError("test identifiers must be unique within a vector")
        return tv

    @classmethod
    def of(cls, value: Iterable[str]) -> "TestVector":
        return value if isinstance(value, TestVector) else cls(value)

    def prefix(self, k: int) -> "TestVector":
        return TestVector(self[:k])


@dataclass(frozen=True)
class ProgramEntry:
    """A program row: id plus optional role (spec / original / mutant-of)."""

    id: str
    role: Optional[str] = None
    origin: Optional[str] = None

    def __post_init__(self):
        if self.role is not None and self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r} for program {self.id!r}")
        if self.origin is not None and self.role != ROLE_MUTANT:
            raise ValueError(f"origin only applies to mutants (program {self.id!r})")


def _checked_entries(programs: Sequence[Union[ProgramEntry, str]]) -> tuple[ProgramEntry, ...]:
    """Program rows as entries: unique ids, at most one spec and one
    original, and every origin a known program."""
    entries = tuple(p if isinstance(p, ProgramEntry) else ProgramEntry(p) for p in programs)
    ids = [p.id for p in entries]
    if len(set(ids)) != len(ids):
        raise ValueError("program identifiers must be unique")
    for role in (ROLE_SPEC, ROLE_ORIGINAL):
        if sum(1 for p in entries if p.role == role) > 1:
            raise ValueError(f"at most one program may carry role {role!r}")
    known = set(ids)
    for p in entries:
        if p.origin is not None and p.origin not in known:
            raise ValueError(f"mutant {p.id!r} references unknown origin {p.origin!r}")
    return entries


def _numbered(keys: Iterable) -> tuple[dict, tuple[int, ...]]:
    """Each distinct key numbered in first-seen order, and every key's number."""
    index: dict = {}
    return index, tuple([index.setdefault(key, len(index)) for key in keys])


def _interned(rows: Sequence[Sequence], n: int, make: Callable) -> tuple[tuple, tuple]:
    """The columns of ``rows`` (``n`` keys each) as token tables and ids:
    per column, ``make(key)`` for each distinct key and each row's number."""
    numbered = [_numbered(keys) for keys in (zip(*rows) if rows else [()] * n)]
    tables = tuple(tuple(map(make, index)) for index, _ in numbered)
    return tables, tuple(ids for _, ids in numbered)


class BehaviorMatrix:
    """Total map (program, test) -> token, with at most one spec and one
    original row.  Instances are value-like: construct once, never mutate.

    A test's column is a table of its distinct tokens, in first-seen row
    order, and one id per row into that table, so two rows hold equal
    tokens exactly when they hold the same id.
    """

    def __init__(
        self,
        tests: Union[TestVector, Iterable[str]],
        programs: Sequence[Union[ProgramEntry, str]],
        cells: Mapping[str, Mapping[str, BehaviorToken]],
    ):
        tv = TestVector.of(tests)
        entries = _checked_entries(programs)
        rows = []
        for p in entries:
            row = cells.get(p.id)
            if row is None:
                raise ValueError(f"missing cells for program {p.id!r}")
            missing = next((t for t in tv if t not in row), None)
            if missing is not None:
                raise ValueError(f"missing cell for ({p.id!r}, {missing!r})")
            if len(row) != len(tv):
                extra = sorted(set(row) - set(tv))
                raise ValueError(f"program {p.id!r} has cells for unknown tests {extra}")
            rows.append([row[t] for t in tv])
        extra = sorted(set(cells) - {p.id for p in entries})
        if extra:
            raise ValueError(f"cells reference unknown programs {extra}")
        self._store(tv, entries, *_interned(rows, len(tv), lambda tok: tok))

    def _store(self, tests, entries, tables, ids) -> "BehaviorMatrix":
        """Fill this matrix from checked entries and interned columns."""
        self._tests, self._programs, self._tables, self._ids = tests, entries, tables, ids
        self._rows = {p.id: r for r, p in enumerate(entries)}
        self._cols = {t: j for j, t in enumerate(tests)}
        holders = {p.role: p.id for p in entries}  # spec and original are unique
        self._spec_id, self._original_id = holders.get(ROLE_SPEC), holders.get(ROLE_ORIGINAL)
        return self

    @property
    def tests(self) -> TestVector:
        return self._tests

    @property
    def programs(self) -> tuple[ProgramEntry, ...]:
        return self._programs

    def program_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self._programs)

    def entry(self, program_id: str) -> ProgramEntry:
        return self._programs[self._row(program_id)]

    @property
    def spec_id(self) -> Optional[str]:
        return self._spec_id

    @property
    def original_id(self) -> Optional[str]:
        return self._original_id

    def mutant_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self._programs if p.role == ROLE_MUTANT)

    def _row(self, program_id: str) -> int:
        row = self._rows.get(program_id)
        if row is None:
            raise UnknownIdError(f"unknown program id {program_id!r}")
        return row

    def _columns(self, tests: Iterable[str]) -> list[int]:
        try:
            return [self._cols[t] for t in tests]
        except KeyError as exc:
            raise UnknownIdError(f"unknown test id {exc.args[0]!r}") from None

    def token(self, program_id: str, test_id: str) -> BehaviorToken:
        r = self._row(program_id)
        (j,) = self._columns((test_id,))
        return self._tables[j][self._ids[j][r]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BehaviorMatrix):
            return NotImplemented
        return (
            self._tests == other._tests
            and self._programs == other._programs
            and self._ids == other._ids
            and self._tables == other._tables
        )

    def __repr__(self) -> str:
        return (
            f"BehaviorMatrix(tests={len(self._tests)}, programs={len(self._programs)})"
        )


def matrix_from_outputs(
    tests: Union[TestVector, Iterable[str]],
    outputs: Mapping[str, Sequence[str]],
    roles: Optional[Mapping[str, str]] = None,
    origins: Optional[Mapping[str, str]] = None,
) -> BehaviorMatrix:
    """Build a trace-less matrix from per-program output sequences, with
    one token per distinct output of a column."""
    tv = TestVector.of(tests)
    roles = roles or {}
    origins = origins or {}
    programs = [ProgramEntry(pid, roles.get(pid), origins.get(pid)) for pid in outputs]
    for pid, row in outputs.items():
        if len(row) != len(tv):
            raise ValueError(f"program {pid!r} has {len(row)} outputs for {len(tv)} tests")
    rows = [list(map(str, row)) for row in outputs.values()]
    matrix = BehaviorMatrix.__new__(BehaviorMatrix)
    return matrix._store(tv, _checked_entries(programs), *_interned(rows, len(tv), BehaviorToken))


POLICY_EXACT = "exact"
POLICY_OUTPUT = "output"
POLICY_TRACE = "trace"
POLICY_NUMERIC = "numeric"
POLICIES = (POLICY_EXACT, POLICY_OUTPUT, POLICY_TRACE, POLICY_NUMERIC)

# What each equivalence policy compares; numeric tolerance is not
# transitive, so it has no key.
_POLICY_KEYS = {
    POLICY_EXACT: attrgetter("output", "status", "trace"),
    POLICY_OUTPUT: attrgetter("output", "status"),
    POLICY_TRACE: attrgetter("trace", "status"),
}


def _as_decimal(text: str) -> Optional[Decimal]:
    try:
        value = Decimal(text.strip())
    except (InvalidOperation, ValueError):
        return None
    return value if value.is_finite() else None


def _exceeds(x: Decimal, y: Decimal, tolerance: Decimal) -> bool:
    """Whether ``x - y > tolerance``, decided exactly in bounded work.

    ``x - y`` is rounded down to as many digits as ``tolerance`` has, in a
    context that admits every exponent.  ``tolerance`` is then one of the
    values the difference can round to, so a difference above it rounds to
    it or above, and one that rounds to exactly ``tolerance`` is above it
    only if the rounding was inexact.  The digits stay few however far
    apart the exponents of ``x`` and ``y`` are.
    """
    ctx = Context(prec=len(tolerance.as_tuple().digits), rounding=ROUND_FLOOR,
                  Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[])
    low = ctx.subtract(x, y)
    return low > tolerance or (low == tolerance and bool(ctx.flags[Inexact]))


@dataclass(frozen=True)
class Differentiator:
    """Binary judgment of behavioral difference between two tokens.

    Policies:

    * ``exact``   - whole-record equality (output, status, trace).
    * ``output``  - externally visible result only: (output, status).
      This is the strong-mutation notion of difference.
    * ``trace``   - internal execution record: (trace, status).
      This is the weak-mutation notion of difference.
    * ``numeric`` - like ``output`` but outputs that both parse as finite
      decimals compare within ``tolerance``; anything else falls back to
      exact text equality.

    Every policy is symmetric with a zero diagonal; user-supplied policies
    are not accepted precisely because those two properties are relied on
    throughout the toolkit.
    """

    policy: str = POLICY_EXACT
    tolerance: Optional[float] = None

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown differentiator policy {self.policy!r}")
        if self.policy == POLICY_NUMERIC:
            # bool is an int, but True as a tolerance fails inside differs
            if isinstance(self.tolerance, bool):
                raise ValueError("numeric tolerance must be a number, not a bool")
            if self.tolerance is None or not self.tolerance >= 0:  # NaN too
                raise ValueError("numeric policy requires a nonnegative tolerance")
        elif self.tolerance is not None:
            raise ValueError(f"policy {self.policy!r} does not take a tolerance")

    @property
    def id(self) -> str:
        """Name of the policy, with the tolerance for ``numeric``."""
        if self.policy == POLICY_NUMERIC:
            return f"numeric({self.tolerance})"
        return self.policy

    @classmethod
    def exact(cls) -> "Differentiator":
        return cls(POLICY_EXACT)

    @classmethod
    def output_only(cls) -> "Differentiator":
        return cls(POLICY_OUTPUT)

    @classmethod
    def trace_only(cls) -> "Differentiator":
        return cls(POLICY_TRACE)

    @classmethod
    def numeric(cls, tolerance: float) -> "Differentiator":
        return cls(POLICY_NUMERIC, tolerance)

    def differs(self, a: BehaviorToken, b: BehaviorToken) -> bool:
        key = _POLICY_KEYS.get(self.policy)
        if key is not None:
            return key(a) != key(b)
        # numeric
        if a.status != b.status:
            return True
        x, y = _as_decimal(a.output), _as_decimal(b.output)
        if x is not None and y is not None:
            tolerance = Decimal(str(self.tolerance))
            return _exceeds(x, y, tolerance) or _exceeds(y, x, tolerance)
        return a.output != b.output

    def bit(self, a: BehaviorToken, b: BehaviorToken) -> int:
        return 1 if self.differs(a, b) else 0


@dataclass(frozen=True)
class DiffVector:
    """Difference bits between two programs, packed in ``mask`` (bit i is
    ``tests[i]``); ``bits`` is the per-test tuple view."""

    mask: int
    tests: TestVector
    left: str
    right: str
    differentiator: str

    def __post_init__(self):
        if self.mask < 0 or self.mask.bit_length() > len(self.tests):
            raise ValueError(f"mask {self.mask} does not fit {len(self.tests)} tests")

    @property
    def bits(self) -> tuple[int, ...]:
        return unpack_bits(self.mask, len(self.tests))

    def norm(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)


def differentiate(
    d: Differentiator, t: str, px: str, py: str, bm: BehaviorMatrix
) -> int:
    """Difference bit between programs ``px`` and ``py`` on test ``t``."""
    return d.bit(bm.token(px, t), bm.token(py, t))


# --- packed difference bits ---------------------------------------------------
#
# The one encoding of difference bits is a mask: an int whose bit i is the
# bit of tests[i].  One kernel computes them, the column pass of
# position_masks; a pair's bits are its right program's position from the
# left one.  ``differentiate`` is the per-cell definition it agrees with.


def diff_mask(
    d: Differentiator,
    tv: Iterable[str],
    px: str,
    py: str,
    bm: BehaviorMatrix,
) -> int:
    """Difference bits between ``px`` and ``py``; bit i is test ``tv[i]``.
    They are ``py``'s position in the space anchored at ``px``.

    Unknown program and test ids raise :class:`UnknownIdError`, as
    :meth:`BehaviorMatrix.token` does."""
    bm._row(px), bm._row(py)  # program ids are checked before test ids
    return position_masks(d, tv, px, bm)[py]


def position_masks(
    d: Differentiator, tv: Iterable[str], origin: str, bm: BehaviorMatrix
) -> dict[str, int]:
    """Difference bits of every program against ``origin`` (bit i is test
    ``tv[i]``), in one pass over the columns.

    Per column, whether a token differs from the origin's is decided once
    per distinct token, by comparing its policy key with the origin's; each
    row then reads the answer for its token id.  ``numeric`` has no key, so
    it makes one ``differs(origin token, token)`` call per distinct token,
    which is exact because one side is always the origin's.
    """
    o = bm._row(origin)
    key = _POLICY_KEYS.get(d.policy)
    digits = []
    for j in reversed(bm._columns(tv)):  # the last test is the high bit
        table, ids = bm._tables[j], bm._ids[j]
        mine = table[ids[o]]
        if key is None:
            judged = bytes([48 + d.differs(mine, tok) for tok in table])
        else:
            mine_key = key(mine)
            judged = bytes([48 + (key(tok) != mine_key) for tok in table])
        digits.append(bytes(map(judged.__getitem__, ids)))  # b"0" or b"1" per row
    text = b"".join(digits)
    rows = len(bm.programs)
    return {p.id: int(text[r::rows] or b"0", 2) for r, p in enumerate(bm.programs)}


def pack_bits(bits: Iterable[int]) -> int:
    """Mask of a tuple view: bit i is set iff ``bits[i]`` is."""
    mask = 0
    for i, b in enumerate(bits):
        if b:
            mask |= 1 << i
    return mask


def unpack_bits(mask: int, n: int) -> tuple[int, ...]:
    """Tuple view of a mask over ``n`` tests."""
    return tuple(mask >> i & 1 for i in range(n))


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a nonnegative ``mask``, ascending.

    One scan of the binary text finds each bit, so the cost follows the
    set bits rather than the width times the set bits.
    """
    if mask < 0:
        raise ValueError("mask must be nonnegative")
    text = bin(mask)[:1:-1]  # bit i is text[i]
    i = text.find("1")
    while i >= 0:
        yield i
        i = text.find("1", i + 1)


def submask(x: int, y: int) -> bool:
    """Every set bit of ``x`` is also set in ``y``: the order of positions
    and kill columns, read by deviance, subsumption and the lattice."""
    return x & ~y == 0


def group_by_mask(pairs: Iterable[tuple[int, str]]) -> dict[int, tuple[str, ...]]:
    """Names grouped by mask from (mask, name) pairs.  Masks and names keep
    first-seen order, and each name appears once per mask."""
    groups: dict[int, dict[str, None]] = {}
    for mask, name in pairs:
        groups.setdefault(mask, {})[name] = None
    return {mask: tuple(names) for mask, names in groups.items()}


def select(mask: int, items: Sequence) -> tuple:
    """The items whose bits are set in ``mask``, in order."""
    return tuple(items[i] for i in iter_bits(mask & ((1 << len(items)) - 1)))


def diff_vector(
    d: Differentiator,
    tv: Union[TestVector, Iterable[str]],
    px: str,
    py: str,
    bm: BehaviorMatrix,
) -> DiffVector:
    """Difference bits between ``px`` and ``py`` over the tests in ``tv``."""
    tv = TestVector.of(tv)
    return DiffVector(diff_mask(d, tv, px, py, bm), tv, px, py, d.id)


def manhattan_norm(v: Union[DiffVector, Iterable[int]]) -> int:
    """Sum of bits; equals the Hamming distance between the two behavior rows."""
    return sum(v)


def derived_oracle(
    d: Differentiator, ps: str, bm: BehaviorMatrix
) -> Callable[[str, str], bool]:
    """Pass/fail predicate obtained by differencing against the row ``ps``:
    o(t, p) holds iff p agrees with ps on t."""
    bm.entry(ps)
    def oracle(t: str, p: str) -> bool:
        return differentiate(d, t, p, ps, bm) == 0
    return oracle


@dataclass(frozen=True)
class AdequacyResult:
    """Outcome of an adequacy check: every mutant killed by some test."""

    adequate: bool
    live: tuple[str, ...]
    killers: Mapping[str, str] = field(default_factory=dict)


def adequacy_from_masks(
    tests: Sequence[str], columns: Iterable[tuple[str, int]]
) -> AdequacyResult:
    """Adequacy over (mutant, kill mask) pairs: every mask is nonzero.

    The earliest killing test of a mutant is its mask's lowest set bit.
    """
    live = []
    killers: dict[str, str] = {}
    for m, mask in columns:
        if mask:
            killers[m] = tests[(mask & -mask).bit_length() - 1]
        else:
            live.append(m)
    return AdequacyResult(adequate=not live, live=tuple(live), killers=killers)


# --- JSON interchange -------------------------------------------------------
#
# { "tests": [...],
#   "programs": [{"id": ..., "role": ...?, "origin": ...?}, ...],
#   "cells": {pid: {tid: {"output": ..., "status": ..., "trace": [...]?}}} }
#
# The canonical text is ``json.dumps(obj, indent=2, ensure_ascii=False)``
# plus "\n", written directly: with ``indent`` set, ``json`` falls back to
# its pure-Python encoder, which costs several times the C string quoting
# used here.  Round-trips are bit-exact: parsing our canonical text and
# re-serializing reproduces the bytes.


def _block(items: list[str], indent: str, brackets: str) -> str:
    """Encoded ``items`` as a JSON list or object whose brackets sit at
    ``indent``, laid out as ``json.dumps(indent=2)`` lays it out."""
    if not items:
        return brackets
    inner = "\n" + indent + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + indent + brackets[1]


def matrix_to_json_text(bm: BehaviorMatrix) -> str:
    """The matrix in the canonical JSON layout above."""
    q = encode_basestring
    scalar = json.JSONEncoder(ensure_ascii=False).encode  # keeps True apart from 1
    programs = [
        _block([f"{q(k)}: {q(v)}" for k, v in asdict(p).items() if v is not None], "    ", "{}")
        for p in bm.programs
    ]

    def text(key: str, tok: BehaviorToken) -> str:
        cell = f'{key}{{\n        "output": {q(tok.output)},\n        "status": {q(tok.status)}'
        if tok.trace is not None:
            entries = [
                f"[\n            {sid if sid.__class__ is int else scalar(sid)},"
                f"\n            {q(state)}\n          ]"
                for sid, state in tok.trace
            ]
            cell += ',\n        "trace": ' + _block(entries, "        ", "[]")
        return cell + "\n      }"

    # each column's distinct tokens are encoded once, then looked up per row
    texts = [[text(q(t) + ": ", tok) for tok in table] for t, table in zip(bm.tests, bm._tables)]
    rows = [
        f"{q(p.id)}: "
        + _block([col[ids[r]] for col, ids in zip(texts, bm._ids)], "    ", "{}")
        for r, p in enumerate(bm.programs)
    ]
    return (
        f'{{\n  "tests": {_block([q(t) for t in bm.tests], "  ", "[]")},'
        f'\n  "programs": {_block(programs, "  ", "[]")},'
        f'\n  "cells": {_block(rows, "  ", "{}")}\n}}\n'
    )


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SchemaError(path, message)


_CELL_FIELDS = frozenset(("output", "status", "trace"))


def _cell_key(obj, pid: str, tid: str) -> tuple:
    """The checked cell's token key: (output, status, trace)."""
    # Runs once per cell and its loop once per trace entry, so each error
    # path is built only when raising.
    if not isinstance(obj, dict):
        raise SchemaError(f"/cells/{pid}/{tid}", "cell must be an object")
    if "output" not in obj:
        raise SchemaError(f"/cells/{pid}/{tid}/output", "missing required field")
    if not isinstance(obj["output"], str):
        raise SchemaError(f"/cells/{pid}/{tid}/output", "must be a string")
    status = obj.get("status", STATUS_NORMAL)
    if not (isinstance(status, str) and status in STATUSES):
        raise SchemaError(f"/cells/{pid}/{tid}/status", f"must be one of {list(STATUSES)}")
    trace = None
    if "trace" in obj:
        trace = obj["trace"]
        if not isinstance(trace, list):
            raise SchemaError(f"/cells/{pid}/{tid}/trace", "must be a list")
        for i, item in enumerate(trace):
            if not (isinstance(item, list) and len(item) == 2):
                raise SchemaError(
                    f"/cells/{pid}/{tid}/trace/{i}", "must be a [statement-id, state] pair"
                )
            sid, state = item
            # bool is an int, but true would load equal to 1 and dump apart
            if not isinstance(sid, (int, str)) or isinstance(sid, bool):
                raise SchemaError(f"/cells/{pid}/{tid}/trace/{i}/0", "must be an int or string")
            if not isinstance(state, str):
                raise SchemaError(f"/cells/{pid}/{tid}/trace/{i}/1", "must be a string")
    if not _CELL_FIELDS.issuperset(obj):
        unknown = sorted(set(obj) - _CELL_FIELDS)[0]
        raise SchemaError(f"/cells/{pid}/{tid}/{unknown}", "unknown field")
    return obj["output"], status, trace if trace is None else tuple(map(tuple, trace))


def matrix_from_json_obj(obj) -> BehaviorMatrix:
    _expect(isinstance(obj, dict), "/", "document must be an object")
    for key in ("tests", "programs", "cells"):
        _expect(key in obj, f"/{key}", "missing required field")
    raw_tests = obj["tests"]
    _expect(isinstance(raw_tests, list), "/tests", "must be a list")
    for i, t in enumerate(raw_tests):
        _expect(isinstance(t, str), f"/tests/{i}", "must be a string")
    tests = set(raw_tests)
    _expect(len(tests) == len(raw_tests), "/tests", "test ids must be unique")
    raw_programs = obj["programs"]
    _expect(isinstance(raw_programs, list), "/programs", "must be a list")
    entries = []
    seen_roles: dict[str, str] = {}
    for i, p in enumerate(raw_programs):
        ppath = f"/programs/{i}"
        _expect(isinstance(p, dict), ppath, "must be an object")
        _expect("id" in p and isinstance(p["id"], str), f"{ppath}/id", "must be a string")
        role = p.get("role")
        if role is not None:
            _expect(role in ROLES, f"{ppath}/role", f"must be one of {list(ROLES)}")
            if role in (ROLE_SPEC, ROLE_ORIGINAL):
                _expect(
                    role not in seen_roles,
                    f"{ppath}/role",
                    f"role {role!r} already held by {seen_roles.get(role)!r}",
                )
                seen_roles[role] = p["id"]
        origin = p.get("origin")
        if origin is not None:
            _expect(isinstance(origin, str), f"{ppath}/origin", "must be a string")
            _expect(role == ROLE_MUTANT, f"{ppath}/origin", "origin requires role 'mutant'")
        unknown = set(p) - {"id", "role", "origin"}
        _expect(not unknown, f"{ppath}/{sorted(unknown)[0]}" if unknown else ppath, "unknown field")
        entries.append(ProgramEntry(p["id"], role, origin))
    ids = [e.id for e in entries]
    _expect(len(set(ids)) == len(ids), "/programs", "program ids must be unique")
    known = set(ids)
    for i, e in enumerate(entries):
        if e.origin is not None:
            _expect(e.origin in known, f"/programs/{i}/origin", "references unknown program")
    raw_cells = obj["cells"]
    _expect(isinstance(raw_cells, dict), "/cells", "must be an object")
    for pid in raw_cells:
        _expect(pid in known, f"/cells/{pid}", "unknown program id")
    rows = []
    for e in entries:
        _expect(e.id in raw_cells, f"/cells/{e.id}", "missing row for program")
        row = raw_cells[e.id]
        _expect(isinstance(row, dict), f"/cells/{e.id}", "must be an object")
        if not tests.issuperset(row):
            tid = next(t for t in row if t not in tests)
            raise SchemaError(f"/cells/{e.id}/{tid}", "unknown test id")
        keys = []
        for tid in raw_tests:
            if tid not in row:
                raise SchemaError(f"/cells/{e.id}/{tid}", "missing cell for test")
            keys.append(_cell_key(row[tid], e.id, tid))
        rows.append(keys)
    tables, ids = _interned(rows, len(raw_tests), lambda key: BehaviorToken(*key))
    matrix = BehaviorMatrix.__new__(BehaviorMatrix)
    return matrix._store(TestVector(tuple(raw_tests)), tuple(entries), tables, ids)


def matrix_from_json_text(text: str) -> BehaviorMatrix:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:  # nested deeper than the decoder recurses
        raise SchemaError("/", f"invalid JSON: {exc}") from None
    return matrix_from_json_obj(obj)
