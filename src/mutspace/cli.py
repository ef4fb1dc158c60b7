"""Command-line pipeline: mutate -> run -> analyze -> report.

Stages communicate only through documented file formats (toy-language
sources, test-suite JSON, behavior-matrix JSON, kill-matrix CSV, report
JSON, DOT), so every stage can be replayed in isolation.

Exit codes: 0 success, 2 input error (parse or schema), 3 role error,
4 capacity (explicit lattice limit).
"""
from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Optional

import click
from click.core import ParameterSource

from . import __version__, lang
from .behavior import (
    POLICIES,
    POLICY_EXACT,
    POLICY_NUMERIC,
    POLICY_OUTPUT,
    POLICY_TRACE,
    Differentiator,
    TestVector,
    diff_vector,
    matrix_from_json_text,
    matrix_from_outputs,
    matrix_to_json_text,
)
from .errors import CapacityError, MutspaceError, RoleError
from .lattice import PositionLattice, build_lattice, lattice_to_dot
from .mbfl import (
    METHOD_FIX,
    METHOD_FLT,
    METRIC_OCHIAI,
    METRICS,
    FaultLocalizationInput,
    rank_statements,
    report_to_json_text,
)
from .space import ProgramSpace, coincidence_counterexample
from .subsumption import (
    KillMatrix,
    adequacy_from_kills,
    build_dmsg,
    dmsg_to_dot,
    minimal_mutant_set,
)

EXIT_INPUT = 2
EXIT_ROLE = 3
EXIT_CAPACITY = 4

POLICY_CHOICES = click.Choice(POLICIES)


def _differentiator(policy: str, epsilon: Optional[float]) -> Differentiator:
    """The differentiator for a policy option; unknown names never get past click."""
    if policy == POLICY_NUMERIC and epsilon is None:
        raise click.UsageError("--policy numeric requires --epsilon")
    try:
        return Differentiator(policy, epsilon)
    except ValueError as exc:  # a negative or NaN tolerance, or one the policy does not take
        raise click.UsageError(f"--epsilon: {exc}") from None


def _budget(budget: Optional[int]) -> int:
    """--budget, else the interpreter default.  A budget that is not
    positive would time out every cell: an input error."""
    if budget is None:
        return lang.DEFAULT_BUDGET
    if budget <= 0:
        raise click.UsageError(f"--budget must be positive, got {budget}")
    return budget


def _die(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(path: str, parse=json.loads):
    """``parse`` applied to the file's UTF-8 text; a failure to read, decode
    or parse it (JSON nested past the decoder's recursion limit too) is an
    input error that names the file."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, MutspaceError, ValueError, RecursionError) as exc:
        _die(EXIT_INPUT, f"{path}: {exc}")


def _parse_tests(text: str) -> list[lang.TestCase]:
    raw = json.loads(text)
    if not isinstance(raw, list):
        raise ValueError("test suite must be a JSON list")
    tests = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict) or "id" not in item or "inputs" not in item:
            raise ValueError(f"/{i}: each test needs 'id' and 'inputs'")
        inputs = item["inputs"]
        if not isinstance(inputs, dict) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in inputs.values()
        ):
            raise ValueError(f"/{i}/inputs: must map variables to integers")
        tests.append(lang.TestCase(str(item["id"]), dict(inputs)))
    TestVector(tuple(t.id for t in tests))  # unique ids: 1 and "1" are one id as text
    return tests


def _parse_expected(text: str, tests: list[lang.TestCase]) -> dict[str, str]:
    raw = json.loads(text)
    if not isinstance(raw, dict) or not all(isinstance(v, str) for v in raw.values()):
        raise ValueError("expected-output file must map test ids to strings")
    missing = [t.id for t in tests if t.id not in raw]
    if missing:
        raise ValueError(f"expected outputs missing for tests {missing}")
    return raw


def _parse_statements(text: str) -> dict[str, object]:
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ValueError("must map mutant ids to statements")
    for key, value in raw.items():
        # bool is an int, but true would rank as, and merge with, statement 1
        if isinstance(value, bool) or not isinstance(value, (int, str, type(None))):
            raise ValueError(f"/{key}: must be a string, an integer or null")
    return raw


def _mutants(program: lang.Program, operators: str):
    """Every mutant of ``program`` under a comma-separated operator list."""
    ops = tuple(op.strip() for op in operators.split(",") if op.strip())
    return lang.mutate_all(program, ops)


def _execute(program_path, tests_path, expected_path, operators, tracing, budget):
    """Mutate the program and run it and every mutant on the tests; the
    behavior matrix carries a spec row when expected outputs are given."""
    budget = _budget(budget)
    program = _load(program_path, lang.parse)
    tests = _load(tests_path, _parse_tests)
    expected = None
    if expected_path is not None:
        expected = _load(expected_path, lambda text: _parse_expected(text, tests))
    mutants = _mutants(program, operators)
    return mutants, lang.behavior_matrix(
        program, mutants, tests, tracing=tracing, budget=budget, expected=expected
    )


@contextmanager
def _writing(path):
    """Writes to ``path`` inside the block; an OS failure is an input error."""
    try:
        yield
    except OSError as exc:
        _die(EXIT_INPUT, f"cannot write {path}: {exc}")


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        with _writing(out):
            Path(out).write_text(text, encoding="utf-8")


def _print_json(obj) -> None:
    click.echo(json.dumps(obj, indent=2) + "\n", nl=False)


class _Main(click.Group):
    """Ends a command that raised a library error with that error's exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except RoleError as exc:
            _die(EXIT_ROLE, str(exc))
        except CapacityError as exc:
            _die(EXIT_CAPACITY, str(exc))
        except (MutspaceError, ValueError) as exc:
            _die(EXIT_INPUT, str(exc))


@click.group(cls=_Main)
@click.version_option(__version__, prog_name="mutspace")
def main():
    """Difference-based mutation analysis over behavior matrices."""


@main.command()
@click.argument("source", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--operators",
    default=",".join(lang.ALL_OPERATORS),
    show_default=True,
    help="comma-separated subset of AOR,ROR,LCR,CRP,SDL",
)
@click.option(
    "--out-dir",
    type=click.Path(file_okay=False),
    default=None,
    help="write each mutant source to OUT_DIR/<id>.src",
)
def mutate(source, operators, out_dir):
    """List every applicable single-site mutant of SOURCE."""
    mutants = _mutants(_load(source, lang.parse), operators)
    if out_dir is not None:
        directory = Path(out_dir)
        with _writing(out_dir):
            directory.mkdir(parents=True, exist_ok=True)
            for desc, mutant in mutants:
                (directory / f"{desc.id}.src").write_text(
                    lang.render(mutant), encoding="utf-8"
                )
    listing = [asdict(desc) for desc, _ in mutants]
    _print_json(listing)


@main.command()
@click.option("--program", "program_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--tests", "tests_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--expected", "expected_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--operators", default=",".join(lang.ALL_OPERATORS), show_default=True)
@click.option("--trace/--no-trace", "tracing", default=False, show_default=True)
@click.option("--budget", type=int, default=None, help=f"step budget (default {lang.DEFAULT_BUDGET})")
@click.option("--out", default=None, type=click.Path(dir_okay=False))
def run(program_path, tests_path, expected_path, operators, tracing, budget, out):
    """Mutate a program, execute everything, and emit a behavior matrix."""
    _, matrix = _execute(program_path, tests_path, expected_path, operators, tracing, budget)
    _emit(matrix_to_json_text(matrix), out)


@main.group()
def analyze():
    """Analyses over behavior matrices and kill matrices."""


@analyze.command()
@click.argument("kills", type=click.Path(exists=True, dir_okay=False))
def adequacy(kills):
    """Is every mutant of the kill matrix killed by some test?"""
    km = _load(kills, KillMatrix.from_csv)
    result = adequacy_from_kills(km)
    _print_json(
        {
            "adequate": result.adequate,
            "live": list(result.live),
            "killers": dict(result.killers),
        }
    )


@analyze.command()
@click.argument("kills", type=click.Path(exists=True, dir_okay=False))
def minimize(kills):
    """Minimal mutant set of a kill matrix."""
    km = _load(kills, KillMatrix.from_csv)
    result = minimal_mutant_set(km)
    _print_json(
        {
            "minimal": list(result.minimal),
            "live": list(result.live),
            "reduction_ratio": round(result.reduction_ratio, 6),
        }
    )


@analyze.command()
@click.argument("kills", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", default=None, type=click.Path(dir_okay=False))
def dmsg(kills, out):
    """Dynamic mutant subsumption graph of a kill matrix, as DOT."""
    km = _load(kills, KillMatrix.from_csv)
    _emit(dmsg_to_dot(build_dmsg(km)), out)


@analyze.command()
@click.option("--n", "dimension", required=True, type=int)
@click.option("--out", default=None, type=click.Path(dir_okay=False))
def pdl(dimension, out):
    """Full position lattice of the given dimension, as DOT."""
    _emit(lattice_to_dot(build_lattice(dimension)), out)


@analyze.command()
@click.argument("matrix", type=click.Path(exists=True, dir_okay=False))
@click.option("--left", required=True, help="program id")
@click.option("--right", required=True, help="program id")
@click.option("--policy", type=POLICY_CHOICES, default=POLICY_EXACT, show_default=True)
@click.option("--epsilon", type=float, default=None)
def dvector(matrix, left, right, policy, epsilon):
    """Difference vector between two programs of a behavior matrix."""
    d = _differentiator(policy, epsilon)
    bm = _load(matrix, matrix_from_json_text)
    v = diff_vector(d, bm.tests, left, right, bm)
    _print_json({"tests": list(v.tests), "bits": list(v.bits), "norm": v.norm()})


def _refuse_options(ctx: click.Context, mode: str, *names: str) -> None:
    """A usage error if any parameter in ``names`` was given (its value
    alone cannot tell: --operators has a default)."""
    given = [
        param.opts[0]
        for param in ctx.command.params
        if param.name in names
        and ctx.get_parameter_source(param.name) is not ParameterSource.DEFAULT
    ]
    if given:
        raise click.UsageError(f"{mode} mode does not take {', '.join(given)}")


@main.command()
@click.option("--matrix", "matrix_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--statements", "statements_path", default=None, type=click.Path(exists=True, dir_okay=False),
              help="JSON map mutant-id -> statement-id (matrix mode)")
@click.option("--program", "program_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--tests", "tests_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--expected", "expected_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--operators", default=",".join(lang.ALL_OPERATORS), show_default=True)
@click.option("--method", type=click.Choice([METHOD_FIX, METHOD_FLT]), default=METHOD_FIX, show_default=True)
@click.option("--metric", type=click.Choice(METRICS), default=METRIC_OCHIAI, show_default=True)
@click.option("--policy", type=POLICY_CHOICES, default=POLICY_OUTPUT, show_default=True)
@click.option("--epsilon", type=float, default=None)
@click.option("--budget", type=int, default=None)
@click.option("--out", default=None, type=click.Path(dir_okay=False))
def mbfl(matrix_path, statements_path, program_path, tests_path, expected_path,
         operators, method, metric, policy, epsilon, budget, out):
    """Rank statements by suspiciousness.

    Either --matrix (optionally with --statements), or --program with
    --tests and --expected to generate the matrix first.
    """
    d = _differentiator(policy, epsilon)
    ctx = click.get_current_context()
    if method == METHOD_FIX:
        _refuse_options(ctx, "--method fix", "metric")
    statements: dict[str, object] = {}
    if matrix_path is not None:
        _refuse_options(ctx, "--matrix", "program_path", "tests_path", "expected_path",
                        "operators", "budget")
        bm = _load(matrix_path, matrix_from_json_text)
        if statements_path is not None:
            statements = _load(statements_path, _parse_statements)
    elif program_path is not None:
        _refuse_options(ctx, "--program", "statements_path")
        if tests_path is None or expected_path is None:
            raise click.UsageError("--program mode requires --tests and --expected")
        tracing = d.policy in (POLICY_TRACE, POLICY_EXACT)
        mutants, bm = _execute(
            program_path, tests_path, expected_path, operators, tracing, budget
        )
        statements = {desc.id: desc.statement for desc, _ in mutants}
    else:
        raise click.UsageError("pass either --matrix or --program")
    inp = FaultLocalizationInput(
        matrix=bm,
        mutants=tuple((m, statements.get(m)) for m in bm.mutant_ids()),
        tests=bm.tests,
        differentiator=d,
    )
    report = rank_statements(inp, method, metric)
    _emit(report_to_json_text(report, statements), out)


def _demo_matrix():
    """Three programs over four tests whose behaviors pin down the core
    geometry: spec all-alpha, original drifting to beta, and a mutant that
    comes back to alpha on the last test."""
    return matrix_from_outputs(
        ["t1", "t2", "t3", "t4"],
        {
            "spec": ["alpha", "alpha", "alpha", "alpha"],
            "original": ["alpha", "beta", "beta", "beta"],
            "m": ["alpha", "beta", "gamma", "alpha"],
        },
        roles={"spec": "spec", "original": "original", "m": "mutant"},
        origins={"m": "original"},
    )


_DEMO_KILLS_CSV = """test,m1,m2,m3,m4
t1,1,0,1,1
t2,0,1,0,1
t3,0,1,1,1
"""


@main.command()
@click.option("--out", "out_dir", default=None, type=click.Path(file_okay=False),
              help="also write matrix JSON, kill CSV, and DOT files here")
def demo(out_dir):
    """Regenerate the worked examples the test suite is built around."""
    d = Differentiator.exact()
    bm = _demo_matrix()
    lines = ["== three-program example =="]
    for left, right in (("spec", "original"), ("original", "m"), ("spec", "m")):
        v = diff_vector(d, bm.tests, left, right, bm)
        lines.append(f"d({left}, {right}) = {list(v.bits)}  norm={v.norm()}")
    narrow = ProgramSpace(TestVector(("t3",)), "spec", d, bm)
    witness = coincidence_counterexample(narrow, "original", "m")
    lines.append(f"same position, different behavior on ['t3']: {witness}")

    km = KillMatrix.from_csv(_DEMO_KILLS_CSV)
    result = minimal_mutant_set(km)
    lines.append("")
    lines.append("== four-mutant kill example ==")
    lines.append(f"minimal mutant set: {list(result.minimal)}")
    lines.append(f"reduction ratio: {result.reduction_ratio:.6f}")
    graph = build_dmsg(km)
    dot = dmsg_to_dot(graph)
    lines.append("subsumption graph (transitive reduction):")
    lines.append(dot.rstrip("\n"))

    click.echo("\n".join(lines))
    if out_dir is not None:
        # each demo mutant has its own kill column, so its own lattice node
        at_node = {km.mask(m): (m,) for m in km.mutants}
        lattice = PositionLattice(len(km.tests), tuple(km.tests), at_node)
        directory = Path(out_dir)
        with _writing(out_dir):
            directory.mkdir(parents=True, exist_ok=True)
            (directory / "example_matrix.json").write_text(
                matrix_to_json_text(bm), encoding="utf-8"
            )
            (directory / "kills.csv").write_text(_DEMO_KILLS_CSV, encoding="utf-8")
            (directory / "dmsg.dot").write_text(dot, encoding="utf-8")
            (directory / "lattice.dot").write_text(lattice_to_dot(lattice), encoding="utf-8")


if __name__ == "__main__":
    main()
