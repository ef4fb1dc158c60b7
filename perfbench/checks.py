"""Independent checks of a job's outputs.

The oracles here do not call the library code they check: subsumption is
a bitmask subset test, the transitive reduction and the minimal set are
recomputed from the raw kill bits, and program outputs come from Python
re-implementations of the corpus programs.  Each check returns a list of
problems; an empty list means the job's outputs are correct.
"""
from __future__ import annotations

import hashlib
import math

from mutspace import matrix_to_json_text

ORACLE_MAX_CLASSES = 512  # the transitive-reduction oracle is quadratic per class


def _columns(km) -> list[int]:
    """Kill columns as bitmasks: bit i is the kill bit of test i."""
    cols = [0] * len(km.mutants)
    for i, row in enumerate(km.bits):
        for j, bit in enumerate(row):
            if bit:
                cols[j] |= 1 << i
    return cols


def _subset(a: int, b: int) -> bool:
    return a & ~b == 0


def check_kill_analysis(name: str, analysis) -> list[str]:
    """Minimal set and DMSG against a brute-force bitmask oracle."""
    problems = []
    km = analysis.km
    cols = dict(zip(km.mutants, _columns(km)))
    killed = [m for m in km.mutants if cols[m]]
    live = [m for m in km.mutants if not cols[m]]

    classes: dict[int, list[str]] = {}
    for m in killed:
        classes.setdefault(cols[m], []).append(m)
    masks = list(classes)
    got = [(cls.members, cols[cls.members[0]]) for cls in analysis.graph.classes]
    if got != [(tuple(classes[c]), c) for c in masks]:
        problems.append(f"{name}: DMSG classes differ from the kill columns")
    if tuple(live) != analysis.graph.live or tuple(live) != analysis.minimal.live:
        problems.append(f"{name}: live mutants differ from the zero columns")

    minimal = list(analysis.minimal.minimal)
    mcols = [cols[m] for m in minimal]
    for x, cx in zip(minimal, mcols):
        for y, cy in zip(minimal, mcols):
            if x != y and _subset(cx, cy):
                problems.append(f"{name}: minimal set is no antichain ({x} subsumes {y})")
    n = len(km.tests)
    if len(minimal) > (math.comb(n, n // 2) if n else 1):
        problems.append(f"{name}: minimal set larger than C(n, n/2)")
    for m in killed:
        if not any(_subset(cx, cols[m]) for cx in mcols):
            problems.append(f"{name}: killed mutant {m} not covered by the minimal set")
    roots = {c for c in masks if not any(o != c and _subset(o, c) for o in masks)}
    if set(mcols) != roots:
        problems.append(f"{name}: minimal set differs from the root columns")

    if len(masks) <= ORACLE_MAX_CLASSES:
        index = {c: i for i, c in enumerate(masks)}
        edges = set()
        for c in masks:
            above = [o for o in masks if o != c and _subset(c, o)]
            for o in above:
                if not any(k != o and _subset(k, o) for k in above):
                    edges.add((index[c], index[o]))
        if set(analysis.graph.edges) != edges:
            problems.append(f"{name}: DMSG edges differ from the transitive reduction")

    adequacy = analysis.adequacy
    if adequacy.live != tuple(live) or adequacy.adequate != (not live):
        problems.append(f"{name}: adequacy disagrees with the zero columns")
    for m in killed:
        first = km.tests[(cols[m] & -cols[m]).bit_length() - 1]
        if adequacy.killers.get(m) != first:
            problems.append(f"{name}: killer of {m} is not its earliest killing test")
    return problems


def check_exec_subject(entry: dict) -> list[str]:
    subject = entry["subject"]
    bm, executed = entry["matrix"], entry["executed"]
    name = subject.name
    problems = []
    for tid, inputs in subject.tests:
        want_spec = str(subject.reference(**inputs))
        want_orig = str(subject.faulty_reference(**inputs))
        spec = bm.token(bm.spec_id, tid)
        orig = bm.token(bm.original_id, tid)
        if (spec.output, spec.status) != (want_spec, "normal"):
            problems.append(f"{name}/{tid}: spec row {spec.output!r} != reference {want_spec!r}")
        if (orig.output, orig.status) != (want_orig, "normal"):
            problems.append(f"{name}/{tid}: original {orig.output!r} != reference {want_orig!r}")
    if bm != executed or matrix_to_json_text(bm) != matrix_to_json_text(executed):
        problems.append(f"{name}: matrix JSON does not round-trip")

    fixes = [d.id for d, m in entry["mutants"]
             if d.statement == subject.fault_statement
             and _same_outputs(bm, d.id, subject)]
    if not fixes:
        problems.append(f"{name}: no mutant at the fault statement repairs the fault")

    fix = entry["policies"]["strong"]["fix"]
    top = [stmt for stmt, _, rank in fix.ranking if rank == 1.0]
    if top != [subject.fault_statement]:
        problems.append(f"{name}: fix ranks {top} first, not statement {subject.fault_statement}")
    return problems


_VIEWS = {  # what each differentiator compares, per token
    "strong": lambda tok: (tok.output, tok.status),
    "weak": lambda tok: (tok.trace, tok.status),
}


def check_against_rows(entry: dict) -> list[str]:
    """Positions, adequacy and fix/flt-ochiai scores recomputed from token rows."""
    bm = entry["matrix"]
    tests = list(bm.tests)
    name = entry["subject"].name
    problems = []
    for label, got in entry["policies"].items():
        view = _VIEWS[label]
        rows = {pid: [view(bm.token(pid, t)) for t in tests] for pid in bm.program_ids()}
        spec, orig = rows[bm.spec_id], rows[bm.original_id]
        for pid, row in rows.items():
            if got["positions"][pid] != tuple(int(x != s) for x, s in zip(row, spec)):
                problems.append(f"{name}.{label}: position of {pid} is wrong")
        fails = [s != o for s, o in zip(spec, orig)]
        n_fail = sum(fails)
        n_pass = len(tests) - n_fail
        live, killers = [], {}
        for m in bm.mutant_ids():
            mut = rows[m]
            kills = [x != o for x, o in zip(mut, orig)]
            if any(kills):
                killers[m] = tests[kills.index(True)]
            else:
                live.append(m)
            fixed = sum(f and x == s for f, x, s in zip(fails, mut, spec))
            broken = sum(not f and x != s for f, x, s in zip(fails, mut, spec))
            fix = (fixed / n_fail if n_fail else 0.0) - (broken / n_pass if n_pass else 0.0)
            a = sum(k and f for k, f in zip(kills, fails))
            b = sum(k and not f for k, f in zip(kills, fails))
            c = sum(f and not k for k, f in zip(kills, fails))
            denom = math.sqrt((a + b) * (a + c))
            flt = a / denom if denom else 0.0
            if not (math.isclose(got["fix"].mutant_scores[m], fix, abs_tol=1e-12)
                    and math.isclose(got["flt"].mutant_scores[m], flt, abs_tol=1e-12)):
                problems.append(f"{name}.{label}: MBFL scores of {m} differ from the rows")
        adequacy = got["adequacy"]
        if adequacy.live != tuple(live) or dict(adequacy.killers) != killers:
            problems.append(f"{name}.{label}: mutation adequacy differs from the rows")
    return problems


def _same_outputs(bm, mutant: str, subject) -> bool:
    return all(bm.token(mutant, tid).output == subject.expected[tid]
               for tid, _ in subject.tests)


def check_weak_covers_strong(res) -> list[str]:
    """Weak kill bits include the strong ones in every cell (traced subjects)."""
    problems = []
    analyses = {name: a for name, a, _ in res.kills}
    for entry in res.subjects:
        name = entry["subject"].name
        if f"{name}.weak" not in analyses:
            continue
        strong = analyses[f"{name}.strong"].km
        weak = analyses[f"{name}.weak"].km
        for srow, wrow in zip(strong.bits, weak.bits):
            if any(s > w for s, w in zip(srow, wrow)):
                problems.append(f"{name}: a strong kill bit is missing from the weak kills")
                break
    return problems


def check_equivalence(res) -> list[str]:
    problems = []
    cache: dict[int, list[int]] = {}
    for km, mx, my, check in res.equivalence:
        cols = cache.setdefault(id(km), _columns(km))
        cx = cols[km.mutants.index(mx)]
        cy = cols[km.mutants.index(my)]
        subsumes = cx != 0 and _subset(cx, cy)
        if not check.agree() or check.subsumes != subsumes:
            problems.append(f"equivalence disagrees on ({mx}, {my})")
    return problems


def check_synthetic(res) -> list[str]:
    if not res.synthetic:
        return []
    outputs, mutants, km = res.synthetic
    base = outputs["original"]
    for i, row in enumerate(km.bits):
        want = tuple(int(outputs[m][i] != base[i]) for m in mutants)
        if row != want:
            return ["synthetic kill matrix differs from direct output comparison"]
    return []


def check_job(res) -> list[str]:
    problems = []
    for entry in res.subjects:
        problems += check_exec_subject(entry)
        problems += check_against_rows(entry)
    problems += check_weak_covers_strong(res)
    for name, analysis, csv_text in res.kills:
        problems += check_kill_analysis(name, analysis)
        if analysis.km.to_csv() != csv_text:
            problems.append(f"{name}: kill CSV does not round-trip")
    problems += check_equivalence(res)
    problems += check_synthetic(res)
    return problems


def artefact_digests(res) -> dict[str, str]:
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for name, text in sorted(res.artefacts.items())}


def golden_problems(digests: dict, golden: dict) -> list[str]:
    """Every golden digest must match; extra or missing artefacts fail too."""
    if set(digests) != set(golden):
        return [f"artefact set differs from golden: {sorted(set(digests) ^ set(golden))}"]
    return [f"{name}: digest differs from golden" for name in sorted(golden)
            if digests[name] != golden[name]]
