"""Command-line front end.

One executable, six subcommands: construct writes circuits in the text
format, verify checks them against the majority, search looks for new
circuits (CNF plus a SAT solver, or exhaustive backtracking), decode
turns a saved solver model into a circuit, fool builds a counterexample
input for a fan-in n-2 circuit, and analyze runs the exact sweeps.  Each
leaf parser names its handler once, as the argparse default run, and
main calls args.run(args).

Exit codes: 0 success, 1 a verification found errors, 2 bad usage, unparsable
input or a size cap, 3 a search came back unsatisfiable or exhausted.

One seed flag governs a whole run; everything randomized derives its own
stream from it by labeled hashing, so identical command lines give
byte-identical structured output regardless of the worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import analyze, construct, search, verify
from .core import (
    Assignment,
    CircuitParseError,
    LayeredCircuit,
    eval_circuit,
    inspect_circuit,
    majority_value,
    parse_circuit,
    serialize_circuit,
)

EXIT_OK = 0
EXIT_ERRORS = 1
EXIT_USAGE = 2
EXIT_UNSAT = 3

WORKERS_ENV = "MAJCIRC_WORKERS"


def _positive(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{raw!r} is not a positive integer")
    return value


def _emit(obj: dict, fmt: str) -> None:
    """Structured results: fixed-order JSON or aligned key: value text."""
    if fmt == "json":
        print(json.dumps(obj, separators=(", ", ": ")))
    else:
        for key, value in obj.items():
            print(f"{key}: {value}")


def _load_circuit(path: str) -> LayeredCircuit:
    return parse_circuit(Path(path).read_text())


def _write_circuit(c: LayeredCircuit, args) -> int:
    """The circuit's text on stdout, or in args.out with a summary on stdout."""
    text = serialize_circuit(c)
    if not args.out:
        sys.stdout.write(text)
        return EXIT_OK
    Path(args.out).write_text(text)
    stats = inspect_circuit(c)
    obj = {
        "n": c.n,
        "k": c.k,
        "depth": c.depth,
        "gates": stats.gate_count,
        "max_fanin": stats.max_fanin,
        "max_weight": stats.max_weight,
        "out": args.out,
    }
    _emit(obj, args.format)
    return EXIT_OK


# -- construct ---------------------------------------------------------------


def _cmd_construct(args) -> int:
    if args.kind == "published":
        c = construct.published_circuit(args.tag)
    elif args.kind == "correlation":
        c = construct.build_correlation(
            construct.CorrelationParams(n=args.n, k=args.k, seed=args.seed)
        )
    elif args.kind == "block":
        p = construct.default_block_params(args.n).p if args.p is None else args.p
        window = construct.block_window(p, args.alpha) if args.window is None else args.window
        c = construct.build_block_circuit(construct.BlockParams(args.n, p, window))
    else:
        c = construct.build_depth3(construct.Depth3Params(args.b))
    return _write_circuit(c, args)


# -- verify ------------------------------------------------------------------


def _print_report(report: verify.VerificationReport, fmt: str) -> None:
    if fmt == "json":
        print(report.to_json())
        return
    print(f"mode: {report.mode}")
    print(f"checked: {report.total_checked}")
    print(f"errors: {report.errors}")
    if report.total_checked:
        print(f"agreement: {report.agreement} ({float(report.agreement):.6f})")
    if report.ci_halfwidth is not None:
        print(f"ci_halfwidth: {report.ci_halfwidth:.6f}")
    for w in sorted(report.checked_by_weight):
        errs = report.errors_by_weight.get(w, 0)
        if errs:
            print(f"weight {w}: {errs} errors in {report.checked_by_weight[w]}")


def _cmd_verify(args) -> int:
    c = _load_circuit(args.circuit)
    if args.all:
        report = verify.verify_all(c, workers=args.workers, cap=args.exhaustive_cap)
    elif args.minmax is not None:
        report = verify.verify_minmax(
            c,
            samples=None if args.minmax == "exact" else args.samples,
            seed=args.seed,
            workers=args.workers,
            cap=args.layer_cap,
        )
    else:
        report = verify.estimate_agreement(
            c,
            args.samples,
            args.seed,
            delta=args.delta,
            workers=args.workers,
        )
    _print_report(report, args.format)
    return EXIT_ERRORS if report.errors else EXIT_OK


# -- search / decode / fool --------------------------------------------------


def _space_spec(args) -> search.SearchSpaceSpec:
    return search.SearchSpaceSpec(
        n=args.n,
        k=args.k,
        multiplicity_max=args.multiplicity,
        standard_thresholds=args.thresholds == "standard",
    )


def _cmd_search(args) -> int:
    spec = _space_spec(args)
    if args.engine == "exhaustive":
        found = search.exhaustive_search(spec)
        if found is None:
            print("exhausted: no circuit in the space", file=sys.stderr)
            return EXIT_UNSAT
        return _write_circuit(found, args)

    instance = search.encode(spec, clause_cap=args.clause_cap)
    cnf_path = instance.write_files(args.out_dir)
    print(f"wrote {cnf_path} ({instance.num_vars} vars, {len(instance.clauses)} clauses)")
    print("sections:", *(f"{k}={v}" for k, v in instance.sections.items()), file=sys.stderr)
    if args.no_solve:
        return EXIT_OK
    model = search.run_solver(cnf_path, args.solver)
    if model is None:
        print("unsatisfiable: no circuit in the space", file=sys.stderr)
        return EXIT_UNSAT
    return _write_circuit(search.decode(instance, model), args)


def _cmd_decode(args) -> int:
    spec = _space_spec(args)
    model = search.parse_model_text(Path(args.model).read_text())
    if model is None:
        print("model file holds an unsatisfiable verdict", file=sys.stderr)
        return EXIT_UNSAT
    return _write_circuit(search.decode(search.variable_map(spec), model), args)


def _cmd_fool(args) -> int:
    c = _load_circuit(args.circuit)
    a = search.fooling_input(c)
    out = eval_circuit(c, a)
    obj = {
        "assignment": str(a),
        "weight": a.weight,
        "majority": majority_value(a),
        "circuit_output": out,
    }
    _emit(obj, args.format)
    if out != 0 or majority_value(a) != 1:
        print("fooling input failed to fool the circuit", file=sys.stderr)
        return EXIT_ERRORS
    return EXIT_OK


# -- analyze -----------------------------------------------------------------


def _int_grid(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer grid {raw!r}")


def _cmd_analyze_hypergeom(args) -> int:
    if args.sweep:
        checked, violations = analyze.tail_bound_sweep(args.max_m)
        _emit(
            {"checked": checked, "violations": len(violations)},
            args.format,
        )
        return EXIT_ERRORS if violations else EXIT_OK
    if args.scaling is not None:
        rows = analyze.pmf_scaling_probe(args.scaling, Fraction(1, 2))
        print("kk,mode,normalized")
        for r in rows:
            print(f"{r.kk},{r.mode},{r.normalized:.9f}")
        return EXIT_OK
    if args.m is None or args.kk is None or args.t is None:
        print("need --sweep, --scaling, or all of --m/--kk/--t", file=sys.stderr)
        return EXIT_USAGE
    p = analyze.HypergeomParams(args.m, args.kk, args.t)
    if args.l is None:
        print("m,kk,t,l,pmf")
        for l in range(min(p.kk, p.t_draws) + 1):
            print(f"{p.m},{p.kk},{p.t_draws},{l},{analyze.hypergeom_pmf(p, l)}")
        return EXIT_OK
    check = analyze.hypergeom_tail_check(p, args.l)
    _emit(
        {
            "pmf": str(analyze.hypergeom_pmf(p, args.l)),
            "tail": str(check.tail),
            "bound": str(check.bound),
            "holds": check.holds,
        },
        args.format,
    )
    return EXIT_OK if check.holds else EXIT_ERRORS


def _cmd_analyze_binomial(args) -> int:
    rows = analyze.binomial_mid_check(args.grid, args.c)
    print("n,mid_normalized,off_index,off_normalized")
    for r in rows:
        print(f"{r.n},{r.mid_normalized:.9f},{r.off_index},{r.off_normalized:.9f}")
    return EXIT_OK


def _cmd_analyze_boundary(args) -> int:
    tt = analyze.majority_truth_table(args.n)
    brute = analyze.boundary_size(tt, args.n)
    obj: dict = {"n": args.n, "boundary": brute}
    if args.n % 2:
        closed = analyze.majority_boundary_closed(args.n)
        obj["closed_form"] = closed
        obj["match"] = brute == closed
    _emit(obj, args.format)
    return EXIT_OK if obj.get("match", True) else EXIT_ERRORS


def _cmd_analyze_influence(args) -> int:
    tt = analyze.majority_truth_table(args.l)
    brute = analyze.influence(tt, args.l)
    obj: dict = {"l": args.l, "influence": str(brute)}
    if args.l % 2:
        closed = analyze.majority_influence_closed(args.l)
        obj["closed_form"] = str(closed)
        obj["match"] = brute == closed
    _emit(obj, args.format)
    return EXIT_OK if obj.get("match", True) else EXIT_ERRORS


def _cmd_analyze_walk(args) -> int:
    c = _load_circuit(args.circuit)
    wcfg = analyze.WalkConfig(
        s=args.s,
        d=args.d,
        x_star=args.x_star,
        g_star=tuple(args.g_star),
        seed=args.seed,
        gate_choice=args.gate_choice,
    )
    trace = analyze.walk(c, Assignment(args.start), wcfg)
    print("step,gate,ones_available,flipped,diffs_after")
    for idx, step in enumerate(trace.steps, start=1):
        diffs = ";".join(f"{g}:{d}" for g, d in step.diffs_after)
        print(f"{idx},{step.gate},{step.ones_available},{step.flipped},{diffs}")
    print(f"stop_reason: {trace.stop_reason}")
    print(f"final: {trace.final}")
    return EXIT_OK


# -- argument parsing --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 2 without dying."""

    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="majcirc", description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    # argparse passes a string default through type=, so a bad environment
    # value is a usage error unless --workers overrides it
    p.add_argument(
        "--workers",
        type=_positive,
        default=os.environ.get(WORKERS_ENV, "1"),
        help=f"worker processes (default ${WORKERS_ENV}, else 1)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--exhaustive-cap", type=_positive, default=verify.EXHAUSTIVE_CAP)
    p.add_argument("--layer-cap", type=_positive, default=verify.LAYER_CAP)
    p.add_argument("--clause-cap", type=_positive, default=search.DEFAULT_CLAUSE_CAP)
    p.add_argument("--alpha", type=float, default=construct.DEFAULT_ALPHA)
    p.add_argument("--delta", type=float, default=0.01)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a circuit and write it out")
    csub = c.add_subparsers(dest="kind", required=True)
    cc = csub.add_parser("correlation")
    cc.add_argument("--n", type=int, required=True)
    cc.add_argument("--k", type=int, required=True)
    cb = csub.add_parser("block")
    cb.add_argument("--n", type=int, required=True)
    cb.add_argument("--p", type=int)
    cb.add_argument("--window", type=int)
    cd = csub.add_parser("depth3")
    cd.add_argument("--b", type=int, required=True)
    cp = csub.add_parser("published")
    cp.add_argument("tag", choices=construct.PUBLISHED_TAGS)
    for sp in (cc, cb, cd, cp):
        sp.add_argument("--out", help="circuit file (default: stdout)")
        sp.set_defaults(run=_cmd_construct)

    v = sub.add_parser("verify", help="compare a circuit with the majority")
    v.add_argument("circuit")
    mode = v.add_mutually_exclusive_group(required=True)
    mode.add_argument("--all", action="store_true", help="every input")
    mode.add_argument(
        "--minmax",
        choices=("exact", "sampled"),
        help="the two critical weight layers",
    )
    mode.add_argument(
        "--agree", action="store_true", help="agreement rate on uniform inputs"
    )
    v.add_argument("--samples", type=int, default=10000)
    v.set_defaults(run=_cmd_verify)

    s = sub.add_parser("search", help="look for a circuit in a space")
    d = sub.add_parser("decode", help="turn a saved solver model into a circuit")
    for sp, run in ((s, _cmd_search), (d, _cmd_decode)):
        sp.set_defaults(run=run)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--k", type=int, required=True)
        sp.add_argument("--multiplicity", type=int, default=2)
        sp.add_argument("--thresholds", choices=("standard", "full"), default="standard")
        sp.add_argument("--out", help="circuit file for the result (default: stdout)")
    s.add_argument("--engine", choices=("cnf", "exhaustive"), default="cnf")
    s.add_argument("--solver", help="solver executable (default: MAJCIRC_SAT_SOLVER, PATH, "
                   "then the built-in majcirc.sat)")
    s.add_argument("--out-dir", default=".", help="where the CNF and varmap go")
    s.add_argument("--no-solve", action="store_true", help="emit the CNF only")
    d.add_argument("--model", required=True, help="solver output file")

    f = sub.add_parser("fool", help="counterexample input for a fan-in n-2 circuit")
    f.add_argument("circuit")
    f.set_defaults(run=_cmd_fool)

    a = sub.add_parser("analyze", help="exact combinatorial checks and sweeps")
    asub = a.add_subparsers(dest="subcommand", required=True)
    ah = asub.add_parser("hypergeom")
    ah.add_argument("--sweep", action="store_true")
    ah.add_argument("--max-m", type=int, default=60)
    ah.add_argument("--scaling", type=_int_grid, help="comma-separated kk grid")
    ah.add_argument("--m", type=int)
    ah.add_argument("--kk", type=int)
    ah.add_argument("--t", type=int)
    ah.add_argument("--l", type=int)
    ah.set_defaults(run=_cmd_analyze_hypergeom)
    ab = asub.add_parser("binomial")
    ab.add_argument("--grid", type=_int_grid, required=True)
    ab.add_argument("--c", type=float, default=0.5)
    ab.set_defaults(run=_cmd_analyze_binomial)
    abd = asub.add_parser("boundary")
    abd.add_argument("--n", type=int, required=True)
    abd.set_defaults(run=_cmd_analyze_boundary)
    ai = asub.add_parser("influence")
    ai.add_argument("--l", type=int, required=True)
    ai.set_defaults(run=_cmd_analyze_influence)
    aw = asub.add_parser("walk")
    aw.add_argument("--circuit", required=True)
    aw.add_argument("--start", required=True, help="assignment bits, e.g. 0110100")
    aw.add_argument("--s", type=int, required=True)
    aw.add_argument("--d", type=int, required=True)
    aw.add_argument("--x-star", type=int, required=True)
    aw.add_argument("--g-star", type=_int_grid, required=True)
    aw.add_argument("--gate-choice", choices=("lowest", "random"), default="lowest")
    aw.set_defaults(run=_cmd_analyze_walk)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CircuitParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (verify.CapExceeded, search.SpaceTooLarge) as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return EXIT_USAGE
    except search.EncoderBug as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return EXIT_ERRORS
    except search.SolverError as e:
        print(f"solver: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
