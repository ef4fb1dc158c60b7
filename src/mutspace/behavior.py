"""Behavior storage and difference primitives.

A :class:`BehaviorMatrix` records one opaque :class:`BehaviorToken` per
(program, test) pair.  A :class:`Differentiator` turns pairs of tokens into
difference bits, and a :class:`DiffVector` collects those bits over an
ordered :class:`TestVector`.  Everything downstream (positions, lattices,
kill matrices, fault localization) reads behavior exclusively through these
types.
"""
from __future__ import annotations

import json
from json.encoder import encode_basestring
from dataclasses import asdict, dataclass, field
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


@dataclass(frozen=True)
class TestVector:
    """Ordered vector of unique test identifiers."""

    __test__ = False  # not a pytest class, despite the name

    tests: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tests", tuple(self.tests))
        if len(set(self.tests)) != len(self.tests):
            raise ValueError("test identifiers must be unique within a vector")

    @classmethod
    def of(cls, value: Union["TestVector", Iterable[str]]) -> "TestVector":
        if isinstance(value, TestVector):
            return value
        return cls(tuple(value))

    def __len__(self) -> int:
        return len(self.tests)

    def __iter__(self) -> Iterator[str]:
        return iter(self.tests)

    def __getitem__(self, i):
        return self.tests[i]

    def __contains__(self, test_id: str) -> bool:
        return test_id in self.tests

    def index(self, test_id: str) -> int:
        return self.tests.index(test_id)

    def prefix(self, k: int) -> "TestVector":
        return TestVector(self.tests[:k])


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


class BehaviorMatrix:
    """Total map (program, test) -> token, with at most one spec and one
    original row.  Instances are value-like: construct once, never mutate."""

    def __init__(
        self,
        tests: Union[TestVector, Iterable[str]],
        programs: Sequence[Union[ProgramEntry, str]],
        cells: Mapping[str, Mapping[str, BehaviorToken]],
    ):
        self._tests = TestVector.of(tests)
        entries = tuple(
            p if isinstance(p, ProgramEntry) else ProgramEntry(p) for p in programs
        )
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
        self._programs = entries
        self._cells: dict[str, dict[str, BehaviorToken]] = {}
        for p in entries:
            row = cells.get(p.id)
            if row is None:
                raise ValueError(f"missing cells for program {p.id!r}")
            copied: dict[str, BehaviorToken] = {}
            for t in self._tests:
                if t not in row:
                    raise ValueError(f"missing cell for ({p.id!r}, {t!r})")
                copied[t] = row[t]
            if len(row) != len(copied):
                extra = sorted(set(row) - set(copied))
                raise ValueError(f"program {p.id!r} has cells for unknown tests {extra}")
            self._cells[p.id] = copied
        if set(cells) - known:
            extra = sorted(set(cells) - known)
            raise ValueError(f"cells reference unknown programs {extra}")

    @property
    def tests(self) -> TestVector:
        return self._tests

    @property
    def programs(self) -> tuple[ProgramEntry, ...]:
        return self._programs

    def program_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self._programs)

    def entry(self, program_id: str) -> ProgramEntry:
        for p in self._programs:
            if p.id == program_id:
                return p
        raise UnknownIdError(f"unknown program id {program_id!r}")

    def role_holder(self, role: str) -> Optional[str]:
        for p in self._programs:
            if p.role == role:
                return p.id
        return None

    @property
    def spec_id(self) -> Optional[str]:
        return self.role_holder(ROLE_SPEC)

    @property
    def original_id(self) -> Optional[str]:
        return self.role_holder(ROLE_ORIGINAL)

    def mutant_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self._programs if p.role == ROLE_MUTANT)

    def _row(self, program_id: str) -> dict[str, BehaviorToken]:
        row = self._cells.get(program_id)
        if row is None:
            raise UnknownIdError(f"unknown program id {program_id!r}")
        return row

    def token(self, program_id: str, test_id: str) -> BehaviorToken:
        tok = self._row(program_id).get(test_id)
        if tok is None:
            raise UnknownIdError(f"unknown test id {test_id!r}")
        return tok

    def __eq__(self, other) -> bool:
        if not isinstance(other, BehaviorMatrix):
            return NotImplemented
        return (
            self._tests == other._tests
            and self._programs == other._programs
            and self._cells == other._cells
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
    """Build a trace-less matrix from per-program output sequences."""
    tv = TestVector.of(tests)
    roles = roles or {}
    origins = origins or {}
    programs = [
        ProgramEntry(pid, roles.get(pid), origins.get(pid)) for pid in outputs
    ]
    cells = {}
    for pid, row in outputs.items():
        if len(row) != len(tv):
            raise ValueError(f"program {pid!r} has {len(row)} outputs for {len(tv)} tests")
        cells[pid] = {t: BehaviorToken(str(out)) for t, out in zip(tv, row)}
    return BehaviorMatrix(tv, programs, cells)


POLICY_EXACT = "exact"
POLICY_OUTPUT = "output"
POLICY_TRACE = "trace"
POLICY_NUMERIC = "numeric"
POLICIES = (POLICY_EXACT, POLICY_OUTPUT, POLICY_TRACE, POLICY_NUMERIC)


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
        if self.policy == POLICY_EXACT:
            return a != b
        if self.policy == POLICY_OUTPUT:
            return (a.output, a.status) != (b.output, b.status)
        if self.policy == POLICY_TRACE:
            return (a.trace, a.status) != (b.trace, b.status)
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
# bit of tests[i].  Each bit comes from one ``Differentiator.differs`` call,
# never from other bits, because numeric tolerance is not transitive.


def diff_mask(
    d: Differentiator,
    tv: Iterable[str],
    px: str,
    py: str,
    bm: BehaviorMatrix,
) -> int:
    """Difference bits between ``px`` and ``py``; bit i is test ``tv[i]``.

    Unknown program and test ids raise :class:`UnknownIdError`, as
    :meth:`BehaviorMatrix.token` does."""
    row_x, row_y = bm._row(px), bm._row(py)
    mask = 0
    for i, t in enumerate(tv):
        if t not in row_x:
            raise UnknownIdError(f"unknown test id {t!r}")
        if d.differs(row_x[t], row_y[t]):
            mask |= 1 << i
    return mask


def pack_bits(bits: Iterable[int]) -> int:
    """Mask of a tuple view: bit i is set iff ``bits[i]`` is."""
    return sum(1 << i for i, b in enumerate(bits) if b)


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
    tv = TestVector.of(tv)
    return adequacy_from_masks(tv, ((m, diff_mask(d, tv, po, m, bm)) for m in mutants))


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
    keys = [q(t) + ": " for t in bm.tests]
    rows = []
    for p in bm.programs:
        cells = []
        for t, key in zip(bm.tests, keys):
            tok = bm.token(p.id, t)
            cell = f'{key}{{\n        "output": {q(tok.output)},\n        "status": {q(tok.status)}'
            if tok.trace is not None:
                entries = [
                    f"[\n            {sid if sid.__class__ is int else scalar(sid)},"
                    f"\n            {q(state)}\n          ]"
                    for sid, state in tok.trace
                ]
                cell += ',\n        "trace": ' + _block(entries, "        ", "[]")
            cells.append(cell + "\n      }")
        rows.append(f"{q(p.id)}: {_block(cells, '    ', '{}')}")
    return (
        f'{{\n  "tests": {_block([q(t) for t in bm.tests], "  ", "[]")},'
        f'\n  "programs": {_block(programs, "  ", "[]")},'
        f'\n  "cells": {_block(rows, "  ", "{}")}\n}}\n'
    )


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SchemaError(path, message)


_CELL_FIELDS = frozenset(("output", "status", "trace"))


def _token_from_obj(obj, pid: str, tid: str) -> BehaviorToken:
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
    return BehaviorToken(obj["output"], status, trace)


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
    cells: dict[str, dict[str, BehaviorToken]] = {}
    for e in entries:
        _expect(e.id in raw_cells, f"/cells/{e.id}", "missing row for program")
        row = raw_cells[e.id]
        _expect(isinstance(row, dict), f"/cells/{e.id}", "must be an object")
        if not tests.issuperset(row):
            tid = next(t for t in row if t not in tests)
            raise SchemaError(f"/cells/{e.id}/{tid}", "unknown test id")
        parsed: dict[str, BehaviorToken] = {}
        for tid in raw_tests:
            if tid not in row:
                raise SchemaError(f"/cells/{e.id}/{tid}", "missing cell for test")
            parsed[tid] = _token_from_obj(row[tid], e.id, tid)
        cells[e.id] = parsed
    return BehaviorMatrix(TestVector(tuple(raw_tests)), entries, cells)


def matrix_from_json_text(text: str) -> BehaviorMatrix:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:  # nested deeper than the decoder recurses
        raise SchemaError("/", f"invalid JSON: {exc}") from None
    return matrix_from_json_obj(obj)
