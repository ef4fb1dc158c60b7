"""One job of each workload: the mutspace library pipeline over one input set.

Every call into mutspace sits inside a span named ``<layer>.<stage>``; the
layer is the module that owns the function.  The untraced run passes a
``NullTracer``.  A job returns its artefacts (the exact text of every file
format it produced) and the objects the correctness checks read.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from mutspace import (
    Differentiator,
    FaultLocalizationInput,
    KillMatrix,
    ProgramSpace,
    TestVector,
    adequacy_from_kills,
    annotate,
    build_dmsg,
    build_lattice,
    deviance_subsumption_equivalence,
    dmsg_to_dot,
    kill_matrix,
    lattice_to_dot,
    matrix_from_json_text,
    matrix_from_outputs,
    matrix_to_json_text,
    minimal_mutant_set,
    mutation_adequacy,
    position,
    rank_statements,
)
from mutspace import lang
from mutspace.mbfl import report_to_json_text

from corpus import ExecInputs, KillsInputs

LATTICE_TESTS = 12  # annotate and export the lattice over the first tests only

# Every span a job can record, as "<layer>.<stage>"; a workload that never
# calls a stage reports 0 busy time for it.
SPAN_NAMES = (
    "syntax.parse", "mutate.mutate_all", "interp.behavior_matrix",
    "behavior.dump", "behavior.load", "behavior.mutation_adequacy",
    "behavior.from_outputs", "space.position", "subsumption.kill_matrix",
    "subsumption.csv_dump", "subsumption.csv_load", "subsumption.dmsg",
    "subsumption.minimal", "subsumption.adequacy", "subsumption.equivalence",
    "lattice.annotate", "lattice.dot", "mbfl.fix", "mbfl.flt", "mbfl.report",
)


@dataclass
class KillAnalysis:
    km: KillMatrix
    graph: object
    dot: str
    minimal: object
    adequacy: object


@dataclass
class JobResult:
    artefacts: dict = field(default_factory=dict)  # name -> exact text
    work: int = 0  # exec: executed matrix cells; analyze: kill-matrix columns
    subjects: list = field(default_factory=list)  # exec: per-subject objects
    kills: list = field(default_factory=list)  # (name, KillAnalysis, csv in)
    equivalence: list = field(default_factory=list)  # (km, mx, my, check)
    synthetic: tuple = ()  # (outputs, mutants, KillMatrix)


def _kill_analyses(km: KillMatrix, tr) -> KillAnalysis:
    with tr.span("subsumption.dmsg"):
        graph = build_dmsg(km)
        dot = dmsg_to_dot(graph)
    with tr.span("subsumption.minimal"):
        minimal = minimal_mutant_set(km)
    with tr.span("subsumption.adequacy"):
        adequacy = adequacy_from_kills(km)
    return KillAnalysis(km, graph, dot, minimal, adequacy)


def _exec_subject(subject, tr, res: JobResult) -> None:
    with tr.span("syntax.parse"):
        program = lang.parse(subject.source)
    with tr.span("mutate.mutate_all"):
        mutants = lang.mutate_all(program)
    tests = [lang.TestCase(tid, inputs) for tid, inputs in subject.tests]
    with tr.span("interp.behavior_matrix"):
        executed = lang.behavior_matrix(
            program, mutants, tests, tracing=subject.tracing,
            budget=subject.budget, expected=subject.expected,
        )
    with tr.span("behavior.dump"):
        matrix_json = matrix_to_json_text(executed)
    with tr.span("behavior.load"):
        bm = matrix_from_json_text(matrix_json)
    name = subject.name
    res.artefacts[f"{name}.matrix.json"] = matrix_json
    res.work += (1 + len(mutants)) * len(tests)

    statements = {desc.id: desc.statement for desc, _ in mutants}
    mutant_ids = bm.mutant_ids()
    policies = [("strong", Differentiator.output_only())]
    if subject.tracing:
        policies.append(("weak", Differentiator.trace_only()))
    per_policy = {}
    for label, d in policies:
        with tr.span("space.position"):
            spec_space = ProgramSpace(bm.tests, bm.spec_id, d, bm)
            positions = {p: position(spec_space, p).bits for p in bm.program_ids()}
        with tr.span("behavior.mutation_adequacy"):
            adequacy = mutation_adequacy(d, bm.tests, bm.original_id, mutant_ids, bm)
        with tr.span("subsumption.kill_matrix"):
            km = kill_matrix(ProgramSpace(bm.tests, bm.original_id, d, bm), mutant_ids, bm)
        with tr.span("subsumption.csv_dump"):
            kills_csv = km.to_csv()
        with tr.span("subsumption.csv_load"):
            km = KillMatrix.from_csv(kills_csv)
        analysis = _kill_analyses(km, tr)
        first = bm.tests.prefix(LATTICE_TESTS)
        with tr.span("lattice.annotate"):
            lattice = annotate(
                build_lattice(len(first), first),
                ProgramSpace(first, bm.original_id, d, bm),
                mutant_ids,
            )
        with tr.span("lattice.dot"):
            lattice_dot = lattice_to_dot(lattice)
        with tr.span("mbfl.fix"):
            fl_input = FaultLocalizationInput(
                bm, tuple((m, statements[m]) for m in mutant_ids), bm.tests, d
            )
            fix = rank_statements(fl_input, "fix")
        with tr.span("mbfl.flt"):
            flt = rank_statements(fl_input, "flt", "ochiai")
        with tr.span("mbfl.report"):
            fix_json = report_to_json_text(fix, statements)
            flt_json = report_to_json_text(flt, statements)
        prefix = f"{name}.{label}"
        res.artefacts[f"{prefix}.kills.csv"] = kills_csv
        res.artefacts[f"{prefix}.dmsg.dot"] = analysis.dot
        res.artefacts[f"{prefix}.lattice.dot"] = lattice_dot
        res.artefacts[f"{prefix}.fix.json"] = fix_json
        res.artefacts[f"{prefix}.flt.json"] = flt_json
        res.kills.append((prefix, analysis, kills_csv))
        per_policy[label] = {
            "positions": positions,
            "adequacy": adequacy,
            "fix": fix,
            "flt": flt,
        }
    res.subjects.append({
        "subject": subject,
        "program": program,
        "mutants": mutants,
        "executed": executed,
        "matrix": bm,
        "statements": statements,
        "policies": per_policy,
    })


def _tiny_matrix(n: int, m: int, rows):
    """Kill matrix plus a behavior matrix whose exact differences reproduce it."""
    tests = tuple(f"t{i + 1}" for i in range(n))
    mutants = tuple(f"m{j + 1}" for j in range(m))
    outputs = {"po": ["base"] * n}
    for j, mid in enumerate(mutants):
        outputs[mid] = [f"kill-{t}-{mid}" if row[j] else "base"
                        for t, row in zip(tests, rows)]
    roles = {"po": "original", **{mid: "mutant" for mid in mutants}}
    return tests, mutants, outputs, roles


def _analyze_kills(inputs: KillsInputs, tr, res: JobResult) -> None:
    for name, text in inputs.csvs:
        with tr.span("subsumption.csv_load"):
            km = KillMatrix.from_csv(text)
        analysis = _kill_analyses(km, tr)
        with tr.span("subsumption.csv_dump"):
            out = km.to_csv()
        res.artefacts[f"{name}.kills.csv"] = out
        res.artefacts[f"{name}.dmsg.dot"] = analysis.dot
        res.kills.append((name, analysis, text))
        res.work += len(km.mutants)

    exact = Differentiator.exact()
    with tr.span("subsumption.equivalence"):
        for n, m, rows in inputs.tiny:
            tests, mutants, outputs, roles = _tiny_matrix(n, m, rows)
            km = KillMatrix(TestVector(tests), mutants, rows)
            bm = matrix_from_outputs(tests, outputs, roles=roles,
                                     origins={mid: "po" for mid in mutants})
            sp = ProgramSpace(km.tests, "po", exact, bm)
            for mx, my in itertools.permutations(mutants, 2):
                res.equivalence.append(
                    (km, mx, my, deviance_subsumption_equivalence(sp, km, mx, my))
                )
            res.work += m

    tests, mutants, outputs = inputs.behaviors
    with tr.span("behavior.from_outputs"):
        bm = matrix_from_outputs(
            tests, outputs,
            roles={"original": "original", **{mid: "mutant" for mid in mutants}},
            origins={mid: "original" for mid in mutants},
        )
    with tr.span("subsumption.kill_matrix"):
        km = kill_matrix(ProgramSpace(bm.tests, "original", exact, bm), mutants, bm)
    with tr.span("subsumption.csv_dump"):
        res.artefacts["synthetic.kills.csv"] = km.to_csv()
    res.synthetic = (outputs, mutants, km)
    res.work += len(mutants)


def run_job(inputs, tr) -> JobResult:
    res = JobResult()
    with tr.span("job"):
        if isinstance(inputs, ExecInputs):
            for subject in inputs.subjects:
                _exec_subject(subject, tr, res)
        elif isinstance(inputs, KillsInputs):
            _analyze_kills(inputs, tr, res)
        else:
            raise TypeError(f"no pipeline for {type(inputs).__name__}")
    return res
