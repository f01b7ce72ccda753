"""Command-line front end.

Subcommands:

  gap     classify an input space and compute its gap constant; --method
          gray runs the exact route alone, all (the default) adds the
          operator-norm and 0/1 cross-checks
  oracle  regression-check the generic pipeline against the closed forms

Timing lives outside the CLI, in benchmark/run.py.

Inputs are JSON documents or plain CSV matrices, told apart by their
first character; see parse_input.  Every size a document names is at most
MAX_POINTS.  Past the enumeration cutoff, min(--max-n, gap.ENUM_CEILING),
--bnb computes the gap by branch-and-bound instead of exiting 5; inside it
--bnb changes nothing.  Exit codes: 0 success, 2 malformed input or
option, 3 metric axiom failure or distances out of the float range, 4 not
of negative type (no gap to compute), 5 instance past min(--max-n, 40)
points without --bnb, 6 oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import closed_forms
from .errors import (
    AsymmetricInput,
    DimensionMismatch,
    DisconnectedGraph,
    InvalidSize,
    NegativeDistance,
    NonzeroDiagonal,
    NotATree,
    OracleMismatch,
    ParseError,
    PositiveDirectionMissing,
    SchemaError,
    TooLarge,
    TriangleViolation,
    ZeroFunctional,
)
from .gap import ENUM_CEILING, MAX_ENUM_N, solve_gap
from .metric import (
    MetricSpace,
    WeightedGraph,
    gen_cycle,
    gen_discrete,
    gen_path,
    gen_random_tree,
    gen_tree,
    is_tree,
    path_metric,
    power_matrix,
    validate_metric,
)
from .negtype import (
    NEGATIVE_TYPE_NON_STRICT,
    NOT_NEGATIVE_TYPE,
    STRICT_NEGATIVE_TYPE,
    Tolerances,
    classify,
)

_METRIC_ERRORS = (
    AsymmetricInput,
    DimensionMismatch,
    NonzeroDiagonal,
    NegativeDistance,
    TriangleViolation,
    DisconnectedGraph,
    NotATree,
    InvalidSize,
    ZeroFunctional,
)

_GENERATOR_KEYS = ("discrete", "cycle", "path", "tree", "random_tree")

# Largest number of points a document may name, checked before anything of
# that size is built.  Classification holds several dense n x n float
# copies of the space (distances, A, its LDL^T factor, B and C), 32 MiB
# each at this size.
MAX_POINTS = 2048


@dataclass(frozen=True)
class InputDocument:
    """Parsed but not yet realized input: what to build and from what."""

    kind: str  # "matrix", "edges", or "generator"
    payload: dict
    p: float = 1.0


def _parse_csv(text: str) -> InputDocument:
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = [f for f in stripped.replace(",", " ").split() if f]
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise ParseError(f"row {lineno}: not a number in {stripped!r}") from None
        if not all(math.isfinite(v) for v in values):
            raise ParseError(f"row {lineno}: not a finite number in {stripped!r}")
        rows.append((values, lineno))
    if not rows:
        raise ParseError("no data rows")
    width = len(rows[0][0])
    for values, lineno in rows:
        if len(values) != width:
            raise ParseError(f"row {lineno}: expected {width} fields, got {len(values)}")
    if len(rows) != width:
        raise ParseError(f"matrix is {len(rows)} rows by {width} columns, must be square")
    return InputDocument(kind="matrix", payload={"distances": [r for r, _ in rows]})


def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


def _require_size(value, what: str) -> int:
    n = _require_int(value, what)
    if n > MAX_POINTS:
        raise SchemaError(f"{what} = {n} exceeds the limit of {MAX_POINTS} points")
    return n


def _require_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise SchemaError(f"{what} is an integer too large for a float") from None
    if not math.isfinite(number):
        raise SchemaError(f"{what} must be a finite number, got {value!r}")
    return number


def _require_exponent(value, what: str) -> float:
    p = _require_number(value, what)
    if p < 0:
        raise SchemaError(f"{what} must be a nonnegative number, got {value!r}")
    return p


def _require_keys(spec: dict, known: tuple, what: str) -> None:
    for key in spec:
        if key not in known:
            raise SchemaError(f"unknown {what} key {key!r}; expected one of {list(known)}")


def _require_numbers(values, what: str) -> list[float]:
    if not isinstance(values, list):
        raise SchemaError(f"{what} must be a list of numbers, got {values!r}")
    return [_require_number(v, f"{what}[{k}]") for k, v in enumerate(values)]


def _edge_triples(edges: list, what: str) -> list[tuple[int, int, float]]:
    """Check 1-based [i, j, w] triples and shift them to 0-based vertices."""
    triples = []
    for idx, e in enumerate(edges):
        if not isinstance(e, list) or len(e) != 3:
            raise SchemaError(f"{what}[{idx}]: expected [i, j, w]")
        i = _require_size(e[0], f"{what}[{idx}][0]")
        j = _require_size(e[1], f"{what}[{idx}][1]")
        w = _require_number(e[2], f"{what}[{idx}][2]")
        if i < 1 or j < 1:
            raise SchemaError(f"{what}[{idx}]: vertices are 1-based, got ({i},{j})")
        triples.append((i - 1, j - 1, w))
    return triples


def _parse_json(text: str) -> InputDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:
        # An integer literal past the interpreter's digit limit, or nesting
        # too deep for the decoder.
        raise ParseError(str(e) or type(e).__name__) from None
    if not isinstance(doc, dict):
        raise SchemaError(f"top level must be an object, got {type(doc).__name__}")

    known = {"p", "n", "distances", "edges", *_GENERATOR_KEYS}
    for key in doc:
        if key not in known:
            raise SchemaError(f"unknown key {key!r}")

    p = _require_exponent(doc.get("p", 1.0), "p")

    main_keys = [k for k in ("distances", "edges", *_GENERATOR_KEYS) if k in doc]
    if len(main_keys) != 1:
        raise SchemaError(
            f"need exactly one of distances, edges, or a generator key; got {main_keys!r}"
        )
    key = main_keys[0]

    if key == "distances":
        rows = doc["distances"]
        if not isinstance(rows, list) or not rows:
            raise SchemaError("distances must be a nonempty list of rows")
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != len(rows):
                raise SchemaError(f"distances row {i}: expected {len(rows)} entries")
            for j, v in enumerate(row):
                _require_number(v, f"distances[{i}][{j}]")
        if "n" in doc and _require_int(doc["n"], "n") != len(rows):
            raise SchemaError(f"n = {doc['n']} but distances has {len(rows)} rows")
        return InputDocument(kind="matrix", payload={"distances": rows}, p=p)

    if key == "edges":
        edges = doc["edges"]
        if not isinstance(edges, list) or not edges:
            raise SchemaError("edges must be a nonempty list of [i, j, w] triples")
        triples = _edge_triples(edges, "edges")
        n = doc.get("n")
        if n is not None:
            n = _require_size(n, "n")
        else:
            n = 1 + max(max(i, j) for i, j, _ in triples)
        return InputDocument(kind="edges", payload={"n": n, "edges": triples}, p=p)

    # Generator document.
    spec = doc[key]
    if "n" in doc:
        raise SchemaError("top-level n is not valid alongside a generator key")
    return InputDocument(kind="generator", payload={"name": key, "spec": spec}, p=p)


def parse_input(text: str) -> InputDocument:
    """Parse input text into an InputDocument: JSON when the first nonblank
    character opens an object or array, CSV otherwise."""
    if text.lstrip()[:1] in ("{", "["):
        return _parse_json(text)
    return _parse_csv(text)


def _realize_generator(name: str, spec) -> tuple[MetricSpace, tuple | None]:
    if name == "discrete":
        n = _require_size(spec, "discrete")
        return gen_discrete(n), ("discrete", n)
    if name == "cycle":
        n = _require_size(spec, "cycle")
        return path_metric(gen_cycle(n)), ("cycle", n)
    if name == "path":
        if isinstance(spec, dict):
            _require_keys(spec, ("n", "weights"), "path")
            n = _require_size(spec.get("n"), "path.n")
            weights = spec.get("weights")
            if weights is not None:
                weights = _require_numbers(weights, "path.weights")
            g = gen_path(n, weights)
        else:
            g = gen_path(_require_size(spec, "path"))
        return path_metric(g), ("tree", g)
    if name == "tree":
        if not isinstance(spec, dict) or not isinstance(spec.get("edges"), list):
            raise SchemaError('tree generator needs {"edges": [[i, j, w], ...]}')
        _require_keys(spec, ("edges", "n"), "tree")
        n = spec.get("n")
        if n is not None:
            n = _require_size(n, "tree.n")
        g = gen_tree(_edge_triples(spec["edges"], "tree.edges"), n=n)
        return path_metric(g), ("tree", g)
    if name == "random_tree":
        if not isinstance(spec, dict) or "n" not in spec:
            raise SchemaError('random_tree generator needs {"n": ..., "seed": ...}')
        _require_keys(spec, ("n", "seed", "weight_range"), "random_tree")
        weight_range = _require_numbers(
            spec.get("weight_range", [0.1, 10.0]), "random_tree.weight_range"
        )
        if len(weight_range) != 2:
            raise SchemaError(f"random_tree.weight_range must be [lo, hi], got {weight_range!r}")
        seed = _require_int(spec.get("seed", 0), "random_tree.seed")
        if seed < 0:
            raise SchemaError(f"random_tree.seed must be nonnegative, got {seed}")
        g = gen_random_tree(
            _require_size(spec["n"], "random_tree.n"), weight_range=weight_range, seed=seed
        )
        return path_metric(g), ("tree", g)
    raise SchemaError(f"unknown generator {name!r}")


def realize(doc: InputDocument) -> tuple[MetricSpace, tuple | None]:
    """Build the metric space an InputDocument describes.

    Also returns the family tag used for oracle cross-checks: one of
    ("discrete", n), ("cycle", n), ("tree", graph), or None when no closed
    form applies.
    """
    if doc.kind == "matrix":
        return validate_metric(np.array(doc.payload["distances"], dtype=float)), None
    if doc.kind == "edges":
        g = WeightedGraph(doc.payload["n"], tuple(doc.payload["edges"]))
        family = ("tree", g) if is_tree(g) else None
        return path_metric(g), family
    return _realize_generator(doc.payload["name"], doc.payload["spec"])


@dataclass(eq=False)
class Report:
    """Everything one gap run reports; see emit_report for its two forms."""

    verdict: str
    n: int
    p: float
    gamma: float | None = None
    beta: float | None = None
    s_star: list | None = None
    witness: list | None = None
    cross_checks: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    timing: float | None = None


def _plain(obj):
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def emit_report(report: Report, mode: str = "text") -> str:
    """Render a report.

    Machine mode is canonical JSON (sorted keys, compact separators,
    shortest-roundtrip floats) and is byte-deterministic for a given
    result; timing is included only when set.  Text mode prints 6
    significant digits.
    """
    if mode == "machine":
        payload = {
            "verdict": report.verdict,
            "n": report.n,
            "p": report.p,
            "gamma": report.gamma,
            "beta": report.beta,
            "s_star": report.s_star,
            "witness": report.witness,
            "cross_checks": report.cross_checks,
            "diagnostics": report.diagnostics,
        }
        if report.timing is not None:
            payload["timing"] = report.timing
        return json.dumps(_plain(payload), sort_keys=True, separators=(",", ":")) + "\n"

    def num(v):
        return "none" if v is None else f"{v:.6g}"

    def listed(v):
        if isinstance(v, list):
            return "[" + ", ".join(listed(x) for x in v) + "]"
        return num(v) if isinstance(v, float) else str(v)

    lines = [
        f"verdict:  {report.verdict}",
        f"n:        {report.n}",
        f"p:        {num(report.p)}",
        f"gamma:    {num(report.gamma)}",
        f"beta:     {num(report.beta)}",
    ]
    if report.s_star is not None:
        lines.append("s_star:   " + " ".join("+" if v > 0 else "-" for v in report.s_star))
    if report.witness is not None:
        lines.append("witness:  " + " ".join(f"{v:.6g}" for v in report.witness))
    for label, value in sorted(report.cross_checks.items()):
        lines.append(f"check {label}: {value if isinstance(value, str) else num(value)}")
    for label, value in sorted(report.diagnostics.items()):
        if isinstance(value, float):
            value = num(value)
        elif isinstance(value, dict):
            value = " ".join(f"{k}={num(v)}" for k, v in value.items())
        elif isinstance(value, list):
            value = listed(value)
        lines.append(f"{label}: {value}")
    if report.timing is not None:
        lines.append(f"wall_time: {report.timing:.3f} s")
    return "\n".join(lines) + "\n"


def _relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


def run_gap(doc: InputDocument, args) -> tuple[Report, int]:
    """Classify, compute, cross-check.  Returns the report and exit code."""
    t0 = time.perf_counter()
    if args.bnb_budget < 0:
        raise SchemaError(f"--bnb-budget must be nonnegative, got {args.bnb_budget}")
    if args.max_n < 0:
        raise SchemaError(f"--max-n must be nonnegative, got {args.max_n}")
    space, family = realize(doc)
    p = doc.p if args.p is None else _require_exponent(args.p, "--p")
    tols = None
    if args.tol is not None:
        tol = _require_number(args.tol, "--tol")
        if tol <= 0:
            raise SchemaError(f"--tol must be a positive number, got {args.tol!r}")
        tols = Tolerances(eig=tol)
    analysis = classify(power_matrix(space, p), tols=tols)
    result = None
    if analysis.verdict == STRICT_NEGATIVE_TYPE:
        result = solve_gap(
            analysis,
            cross_check=args.method == "all",
            max_enum_n=args.max_n,
            use_bnb=args.bnb,
            bnb_budget=args.bnb_budget,
            compute_witness=args.witness,
        )

    report = Report(
        verdict=analysis.verdict,
        n=space.n,
        p=p,
        diagnostics={
            "projected_spectrum": _plain(analysis.projected_spectrum),
            "margins": analysis.margins,
        },
    )
    if space.merged:
        report.diagnostics["merged_points"] = _plain(space.merged)
    if result is not None:
        report.gamma = result.gamma
        report.beta = result.beta
        report.diagnostics["M"] = analysis.M
        report.diagnostics["method"] = result.method
        bnb = result.bnb
        if bnb is not None:
            report.diagnostics.update(
                bnb_certified=bnb.certified, bnb_nodes=bnb.nodes_expanded,
                bnb_pruned=bnb.nodes_pruned, bnb_enumerated=bnb.nodes_enumerated,
                bnb_eigen_solves=bnb.eigen_solves, bnb_tied=bnb.nodes_tied,
                bnb_group_order=bnb.group_order, bnb_symmetric=bnb.nodes_symmetric,
                bnb_gap=max(0.0, bnb.best_bound - bnb.beta), bnb_delta=bnb.delta)
        report.s_star = _plain(result.s_star)
        if result.witness_y0 is not None:
            report.witness = _plain(result.witness_y0)
        for route, value in (("opnorm", result.beta_by_opnorm), ("binary", result.beta_by_binary)):
            if value is not None:
                report.cross_checks[f"beta_{route}"] = value
                report.cross_checks[f"beta_{route}_rel_err"] = _relative_error(value, result.beta)
    elif analysis.verdict == NEGATIVE_TYPE_NON_STRICT:
        report.gamma = 0.0
    if report.gamma is not None and family is not None and p == 1.0:
        report.cross_checks.update(_oracle_check(family, report.gamma))
    if args.timing:
        report.timing = time.perf_counter() - t0
    return report, 4 if analysis.verdict == NOT_NEGATIVE_TYPE else 0


def _oracle_check(family: tuple, gamma: float) -> dict:
    kind = family[0]
    if kind == "discrete":
        oracle = closed_forms.gamma_discrete(family[1])
    elif kind == "cycle":
        oracle = closed_forms.gamma_cycle(family[1])
    else:
        oracle = closed_forms.gamma_tree(family[1])
    if oracle.gamma == 0.0:
        return {"oracle_family": kind, "oracle_gamma": 0.0, "oracle_abs_err": abs(gamma)}
    return {
        "oracle_family": kind,
        "oracle_gamma": oracle.gamma,
        "oracle_rel_err": _relative_error(gamma, oracle.gamma),
    }


def run_oracle_suite(args) -> tuple[bool, list[dict]]:
    """Run the gap pipeline (run_gap, with the gap subcommand's defaults and
    --method gray) on generator documents of the three solved families, and
    compare each gamma with its closed form (_oracle_check).

    Even cycles must read NegativeTypeNonStrict, with gamma 0, and every
    other instance strict; a row that fails either test, or reads
    NotNegativeType (gamma None, no closed form compared), is a mismatch.
    With --inject-fault the first tree's closed form is skewed by 1e-3 to
    prove the comparator can fail; the suite then reports a mismatch.
    """
    for flag, value in (("--seed", args.seed), ("--trees", args.trees)):
        if value < 0:
            raise SchemaError(f"{flag} must be nonnegative, got {value}")
    gap_args = _build_parser().parse_args(["gap", "-", "--method", "gray"])
    rng = np.random.default_rng(args.seed)
    cases = [("discrete", "discrete", n) for n in range(2, 13)]
    cases += [("cycle", "cycle", n) for n in range(3, 16)]
    cases += [("tree", "random_tree", {"n": int(rng.integers(2, 13)), "seed": args.seed + 1000 + i})
              for i in range(args.trees)]
    rows = []
    ok = True
    skew = args.inject_fault
    for family, name, spec in cases:
        report, _ = run_gap(InputDocument("generator", {"name": name, "spec": spec}), gap_args)
        checks = report.cross_checks
        row = {"family": family, "n": report.n, "gamma": report.gamma,
               "oracle": checks.get("oracle_gamma"),
               "rel_err": checks.get("oracle_rel_err", checks.get("oracle_abs_err"))}
        even = family == "cycle" and report.n % 2 == 0
        if even:
            row["verdict"] = report.verdict
        if skew and family == "tree" and row["oracle"] is not None:
            skew = False
            row["oracle"] *= 1.0 + 1e-3
            row["rel_err"] = _relative_error(report.gamma, row["oracle"])
        # Either verdict gives a gamma, and so the closed-form keys.
        expected = NEGATIVE_TYPE_NON_STRICT if even else STRICT_NEGATIVE_TYPE
        row["ok"] = report.verdict == expected and row["rel_err"] <= 1e-9
        ok = ok and row["ok"]
        rows.append(row)
    return ok, rows


def _read_source(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{'stdin' if path == '-' else path} is not UTF-8 text: {e}") from None
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metricgap",
        description="Classify finite metric spaces by negative type and "
        "compute the gap constant exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gap = sub.add_parser("gap", help="compute the gap of one input space")
    gap.add_argument("input", help="path to a JSON or CSV input, or - for stdin")
    gap.add_argument("--p", type=float, default=None, help="metric exponent (default 1)")
    gap.add_argument(
        "--method", choices=("gray", "all"), default="all",
        help="gray: the exact route alone; all: add the opnorm and binary cross-checks",
    )
    gap.add_argument("--max-n", type=int, default=MAX_ENUM_N,
                     help=f"enumeration cutoff; none enumerates past n = {ENUM_CEILING}")
    gap.add_argument("--tol", type=float, default=None,
                     help="override the relative tolerance of the zero test on the top "
                          "projected eigenvalue (a positive number; default "
                          f"{Tolerances().eig:g})")
    gap.add_argument("--report", choices=("text", "machine"), default="text")
    gap.add_argument("--witness", action="store_true", help="include the extremal witness")
    gap.add_argument("--bnb", action="store_true",
                     help=f"past min(--max-n, {ENUM_CEILING}), use branch-and-bound "
                          "instead of exiting 5")
    gap.add_argument("--bnb-budget", type=int, default=2_000_000, help="node budget")
    gap.add_argument("--timing", action="store_true", help="include wall time in the report")

    oracle = sub.add_parser("oracle", help="check the pipeline against closed forms")
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--trees", type=int, default=20, help="random tree instances")
    oracle.add_argument("--report", choices=("text", "machine"), default="text")
    oracle.add_argument(
        "--inject-fault",
        action="store_true",
        help="deliberately skew one comparison to prove the suite can fail",
    )

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gap":
            doc = parse_input(_read_source(args.input))
            report, code = run_gap(doc, args)
            sys.stdout.write(emit_report(report, args.report))
            return code

        if args.command == "oracle":
            ok, rows = run_oracle_suite(args)
            if args.report == "machine":
                sys.stdout.write(
                    json.dumps(_plain({"ok": ok, "rows": rows}), sort_keys=True,
                               separators=(",", ":")) + "\n"
                )
            else:
                def num(v, spec):
                    return "none" if v is None else format(v, spec)

                for row in rows:
                    status = "ok " if row["ok"] else "BAD"
                    sys.stdout.write(
                        f"{status} {row['family']:<8} n={row['n']:<3} "
                        f"gamma={num(row['gamma'], '.12g')} oracle={num(row['oracle'], '.12g')} "
                        f"rel_err={num(row['rel_err'], '.3e')}\n"
                    )
                verdict = "all checks passed" if ok else "MISMATCH"
                sys.stdout.write(f"oracle suite: {verdict} ({len(rows)} comparisons)\n")
            if not ok:
                raise OracleMismatch("pipeline disagrees with a closed form")
            return 0

        raise AssertionError(f"unhandled command {args.command!r}")

    except (ParseError, SchemaError) as e:
        sys.stderr.write(f"input error: {e}\n")
        return 2
    except _METRIC_ERRORS as e:
        sys.stderr.write(f"not a usable metric: {e}\n")
        return 3
    except PositiveDirectionMissing as e:
        sys.stderr.write(f"classification refused: {e}\n")
        return 4
    except TooLarge as e:
        sys.stderr.write(f"too large: {e}\n")
        return 5
    except OracleMismatch as e:
        sys.stderr.write(f"oracle mismatch: {e}\n")
        return 6


if __name__ == "__main__":
    raise SystemExit(main())
