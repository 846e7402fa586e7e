"""Command-line behaviour: exit codes, outputs, file round trips."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import majcirc
from majcirc import cli, search, verify
from majcirc.cli import WORKERS_ENV, build_parser, main
from majcirc.construct import (
    CorrelationParams,
    build_correlation,
    published_circuit,
)
from majcirc.core import (
    LayeredCircuit,
    ThresholdGate,
    majority_gate,
    parse_circuit,
    serialize_circuit,
)
from majcirc.verify import verify_all

@pytest.fixture
def n7_file(tmp_path: Path) -> str:
    path = tmp_path / "n7.circ"
    path.write_text(serialize_circuit(published_circuit("n7")))
    return str(path)


@pytest.fixture
def const1_file(tmp_path: Path) -> str:
    g = ThresholdGate(((0, 1),), theta=0)
    c = LayeredCircuit(n=5, k=5, layers=((g,),), top=0)
    path = tmp_path / "const1.circ"
    path.write_text(serialize_circuit(c))
    return str(path)


# -- construct ---------------------------------------------------------------


def test_construct_published_to_stdout(capsys):
    assert main(["construct", "published", "n7"]) == 0
    out = capsys.readouterr().out
    assert parse_circuit(out) == published_circuit("n7")


def test_construct_published_to_file(tmp_path, capsys):
    out_file = tmp_path / "c.circ"
    assert main(["construct", "published", "n9", "--out", str(out_file)]) == 0
    assert parse_circuit(out_file.read_text()) == published_circuit("n9")
    summary = capsys.readouterr().out
    assert "n: 9" in summary
    assert "gates: 8" in summary


def test_construct_correlation_uses_the_run_seed(capsys):
    assert main(["--seed", "4", "construct", "correlation", "--n", "9", "--k", "3"]) == 0
    out = capsys.readouterr().out
    expected = build_correlation(CorrelationParams(n=9, k=3, seed=4))
    assert parse_circuit(out) == expected


def test_construct_block_explicit_params(capsys):
    rc = main(["construct", "block", "--n", "16", "--p", "4", "--window", "4"])
    assert rc == 0
    c = parse_circuit(capsys.readouterr().out)
    assert c.n == 16
    assert len(c.layers[0]) == 16
    assert verify_all(c).errors == 0


def test_construct_block_defaults(capsys):
    assert main(["construct", "block", "--n", "64"]) == 0
    c = parse_circuit(capsys.readouterr().out)
    assert c.n == 64


def test_construct_block_bad_blocking():
    assert main(["construct", "block", "--n", "16", "--p", "5"]) == 2


@pytest.mark.parametrize("alpha", ["-3", "nan", "0", "inf"])
def test_construct_block_rejects_alpha_that_is_not_finite_and_positive(alpha, capsys):
    assert main(["--alpha", alpha, "construct", "block", "--n", "64"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: alpha={float(alpha)} must be finite and positive"]


@pytest.mark.parametrize("n, p, window", [(4096, 16, 16), (2048, 1024, 253)])
def test_construct_block_window_follows_p(n, p, window, tmp_path, capsys):
    """Without --window the width is block_window of the chosen --p."""
    out = tmp_path / "block.circ"
    argv = ["--format", "json", "construct", "block", "--n", str(n), "--p", str(p)]
    assert main(argv + ["--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    # one gate per block and window threshold, plus the top gate
    assert summary["gates"] == n // p * window + 1


def test_cli_runs_as_a_module(tmp_path):
    """python -m majcirc.cli runs the command, not just the import."""
    out = tmp_path / "block.circ"
    env = dict(os.environ)
    src = str(Path(majcirc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "majcirc.cli", "construct", "block", "--n", "64", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert parse_circuit(out.read_text()).n == 64


def test_construct_depth3(capsys):
    assert main(["construct", "depth3", "--b", "2"]) == 0
    c = parse_circuit(capsys.readouterr().out)
    assert c.n == 16 and c.depth == 3


def test_construct_unknown_tag():
    assert main(["construct", "published", "n13"]) == 2


# -- verify ------------------------------------------------------------------


def test_verify_all_ok(n7_file, capsys):
    assert main(["verify", n7_file, "--all"]) == 0
    out = capsys.readouterr().out
    assert "errors: 0" in out
    assert "checked: 128" in out


def test_verify_all_error_exit(const1_file, capsys):
    assert main(["verify", const1_file, "--all"]) == 1
    assert "errors: 16" in capsys.readouterr().out


def test_verify_all_cap(tmp_path):
    c = LayeredCircuit(n=40, k=40, layers=((majority_gate(range(40)),),), top=0)
    path = tmp_path / "big.circ"
    path.write_text(serialize_circuit(c))
    assert main(["verify", str(path), "--all"]) == 2


def test_verify_all_refuses_n_past_64_at_any_cap(tmp_path, monkeypatch, capsys):
    def no_jobs(*args):
        raise AssertionError("job list built for an input space over 2^64")

    monkeypatch.setattr(verify, "_chunks", no_jobs)
    c = LayeredCircuit(n=65, k=65, layers=((majority_gate(range(65)),),), top=0)
    path = tmp_path / "n65.circ"
    path.write_text(serialize_circuit(c))
    assert main(["--exhaustive-cap", "100", "verify", str(path), "--all"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cap exceeded: ")


def test_verify_minmax_exact(n7_file, capsys):
    assert main(["verify", n7_file, "--minmax", "exact"]) == 0
    assert "checked: 70" in capsys.readouterr().out


def test_verify_minmax_sampled(n7_file, capsys):
    rc = main(["--seed", "9", "verify", n7_file, "--minmax", "sampled", "--samples", "200"])
    assert rc == 0
    assert "checked: 400" in capsys.readouterr().out


def test_verify_agree(n7_file, capsys):
    assert main(["verify", n7_file, "--agree", "--samples", "500"]) == 0
    out = capsys.readouterr().out
    assert "agreement: 1 " in out
    assert "ci_halfwidth" in out


def test_verify_needs_a_mode(n7_file):
    assert main(["verify", n7_file]) == 2


def test_verify_json_output_is_stable(n7_file, capsys):
    argv = ["--format", "json", "verify", n7_file, "--minmax", "sampled", "--samples", "100"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    obj = json.loads(first)
    assert obj["errors"] == 0
    assert obj["seed"] == 0


def test_verify_missing_file(tmp_path):
    assert main(["verify", str(tmp_path / "nope.circ"), "--all"]) == 2


def test_verify_malformed_file(tmp_path):
    path = tmp_path / "bad.circ"
    path.write_text("majcirc 1\nn 5 k 5\n")
    assert main(["verify", str(path), "--all"]) == 2


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--workers", "0"),
        ("--exhaustive-cap", "0"),
        ("--layer-cap", "0"),
        ("--clause-cap", "0"),
        ("--delta", "0"),
        ("--delta", "1"),
    ],
)
def test_global_flags_out_of_range_are_usage_errors(flag, value, n7_file, capsys):
    assert main([flag, value, "verify", n7_file, "--agree", "--samples", "100"]) == 2
    err = capsys.readouterr().err
    if flag == "--delta":
        assert "error: delta must lie strictly between 0 and 1" in err


@pytest.mark.parametrize(
    "env, flag, workers",
    [
        (None, None, 1),
        ("3", None, 3),
        ("3", "2", 2),
        ("0", "2", 2),
        ("x", "2", 2),
        ("", "2", 2),
        ("0", None, None),
        ("-3", None, None),
        ("x", None, None),
        ("", None, None),
    ],
)
def test_workers_default_comes_from_the_environment(env, flag, workers, monkeypatch, n7_file, capsys):
    if env is None:
        monkeypatch.delenv(WORKERS_ENV, raising=False)
    else:
        monkeypatch.setenv(WORKERS_ENV, env)
    argv = (["--workers", flag] if flag else []) + ["verify", n7_file, "--all"]
    if workers is None:
        assert main(argv) == 2
        assert f"{env!r} is not a positive integer" in capsys.readouterr().err
    else:
        assert build_parser().parse_args(argv).workers == workers


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_minmax_sampled_needs_samples(samples, n7_file, capsys):
    argv = ["verify", n7_file, "--minmax", "sampled", "--samples", samples]
    assert main(argv) == 2
    assert "checked" not in capsys.readouterr().out


# -- search and decode -------------------------------------------------------


@pytest.mark.parametrize("command", ["search", "decode"])
def test_search_flags_drop_settings_that_cannot_change_a_verdict(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    usage = capsys.readouterr().out
    assert "--multiplicity" in usage
    assert "--constraints" not in usage and "--distinct" not in usage
    assert "--no-symmetry" not in usage


@pytest.mark.parametrize("command", ["search", "decode"])
def test_no_symmetry_is_a_usage_error(command, tmp_path, capsys):
    model = tmp_path / "model.txt"
    model.write_text("s UNSATISFIABLE\n")
    extra = ["--model", str(model)]
    if command == "search":
        extra = ["--no-solve", "--out-dir", str(tmp_path)]
    assert main([command, "--n", "3", "--k", "3", "--no-symmetry", *extra]) == 2
    assert "--no-symmetry" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.cnf"))


def test_search_exhaustive_found(capsys):
    assert main(["search", "--engine", "exhaustive", "--n", "3", "--k", "3"]) == 0
    c = parse_circuit(capsys.readouterr().out)
    assert verify_all(c).errors == 0


@pytest.mark.parametrize("n", [27, 64])
def test_search_exhaustive_refuses_critical_tables_past_the_cap(n, capsys):
    # an uncaught error here (OverflowError at n=64) would exit 1
    assert main(["search", "--engine", "exhaustive", "--n", str(n), "--k", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cap exceeded: critical-input tables")


@pytest.mark.parametrize("n", [1000, 3000])
def test_search_exhaustive_refuses_a_large_n_at_once(n, capsys):
    # sized before the O(n^3) candidate rows are built: 4.4 s at n=1000
    # and no answer in 60 s at n=3000 when they came first
    start = time.perf_counter()
    assert main(["search", "--engine", "exhaustive", "--n", str(n), "--k", "1"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cap exceeded: critical-input tables of ")


def test_search_maps_a_found_circuit_that_fails_verification_to_exit_1(monkeypatch, capsys):
    # the checked exit both engines share raises EncoderBug on any error
    monkeypatch.setattr(
        "majcirc.search.verify_all", lambda c: verify.VerificationReport("exhaustive", 8, 2)
    )
    assert main(["search", "--engine", "exhaustive", "--n", "3", "--k", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "verification failed: found circuit disagrees with the majority on 2 of 8 "
        "inputs; the search is unsound\n"
    )


def test_search_exhaustive_empty_space(capsys):
    rc = main(
        ["search", "--engine", "exhaustive", "--n", "3", "--k", "1",
         "--multiplicity", "1"]
    )
    assert rc == 3
    assert "exhausted" in capsys.readouterr().err


def test_search_cnf_no_solve_writes_files(tmp_path, capsys):
    rc = main(
        ["search", "--n", "3", "--k", "3", "--no-solve", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    assert (tmp_path / "maj-n3-k3.cnf").exists()
    assert (tmp_path / "maj-n3-k3.varmap").exists()
    assert "wrote" in capsys.readouterr().out


def test_search_cnf_files_match_the_library_layout(tmp_path, capsys):
    cli_dir, lib_dir = tmp_path / "cli" / "nested", tmp_path / "lib"
    rc = main(["search", "--n", "4", "--k", "3", "--no-solve", "--out-dir", str(cli_dir)])
    assert rc == 0
    instance = search.encode(search.SearchSpaceSpec(n=4, k=3))
    assert capsys.readouterr().out == (
        f"wrote {cli_dir / 'maj-n4-k3.cnf'} "
        f"({instance.num_vars} vars, {len(instance.clauses)} clauses)\n"
    )
    search.solve_spec(search.SearchSpaceSpec(n=4, k=3), keep_files=lib_dir)
    names = sorted(p.name for p in cli_dir.iterdir())
    assert names == ["maj-n4-k3.cnf", "maj-n4-k3.varmap"]
    assert names == sorted(p.name for p in lib_dir.iterdir())
    for name in names:
        assert (cli_dir / name).read_bytes() == (lib_dir / name).read_bytes()


def test_search_prints_the_cnf_sections_on_stderr(tmp_path, capsys):
    rc = main(["search", "--n", "4", "--k", "3", "--no-solve", "--out-dir", str(tmp_path)])
    assert rc == 0
    instance = search.encode(search.SearchSpaceSpec(n=4, k=3))
    err = capsys.readouterr().err
    assert err == "sections: " + " ".join(f"{k}={v}" for k, v in instance.sections.items()) + "\n"
    assert list(instance.sections) == ["ladders", "exactly_k", "per_assignment", "symmetry"]
    assert sum(instance.sections.values()) == len(instance.clauses)


def test_search_cnf_end_to_end(tmp_path, capsys):
    out_file = tmp_path / "found.circ"
    rc = main(
        ["search", "--n", "3", "--k", "3", "--out-dir", str(tmp_path),
         "--out", str(out_file)]
    )
    assert rc == 0
    c = parse_circuit(out_file.read_text())
    assert verify_all(c).errors == 0


def test_search_cnf_unsat_exit(tmp_path):
    rc = main(
        ["search", "--n", "3", "--k", "1", "--multiplicity", "1",
         "--out-dir", str(tmp_path)]
    )
    assert rc == 3
    assert (tmp_path / "maj-n3-k1.cnf").exists()


def test_decode_from_model_file(tmp_path, capsys):
    from majcirc.search import SearchSpaceSpec, encode

    instance = encode(SearchSpaceSpec(n=3, k=3))
    lits = []
    for g in range(3):
        for i in range(3):
            for j in (1, 2):
                var = instance.sel[(g, i, j)]
                lits.append(var if j == 1 else -var)
    model = tmp_path / "model.txt"
    model.write_text("s SATISFIABLE\nv " + " ".join(str(l) for l in lits) + " 0\n")
    rc = main(["decode", "--n", "3", "--k", "3", "--model", str(model)])
    assert rc == 0
    c = parse_circuit(capsys.readouterr().out)
    assert verify_all(c).errors == 0


def test_decode_builds_no_clause_so_the_clause_cap_does_not_apply(tmp_path, capsys):
    # every gate carries each variable once
    sel = search.variable_map(search.SearchSpaceSpec(n=3, k=3)).sel
    model = tmp_path / "model.txt"
    model.write_text("v " + " ".join(str(v if j == 1 else -v) for (_, _, j), v in sel.items()) + " 0\n")
    argv = ["decode", "--n", "3", "--k", "3", "--model", str(model)]
    assert main(argv) == 0
    text = capsys.readouterr().out
    # the encoding is estimated at 789 clauses
    assert main(["--clause-cap", "1", *argv]) == 0
    out, err = capsys.readouterr()
    assert out == text and err == ""
    assert verify_all(parse_circuit(text)).errors == 0


def test_decode_unsat_model_file(tmp_path):
    model = tmp_path / "model.txt"
    model.write_text("s UNSATISFIABLE\n")
    assert main(["decode", "--n", "3", "--k", "3", "--model", str(model)]) == 3


def test_decode_junk_model_file(tmp_path):
    model = tmp_path / "model.txt"
    model.write_text("c nothing here\n")
    assert main(["decode", "--n", "3", "--k", "3", "--model", str(model)]) == 2


# solver stdout, solver exit code, what run_solver returns or the
# SolverError it raises, and the exit of decode on the same text (a model
# file does not hold the exit code)
VERDICTS = [
    ("s UNSATISFIABLE\n", 20, None, 3),
    ("s SATISFIABLE\n", 10, "SAT without a model", 2),
    ("junk\n", 0, "no verdict", 2),
    ("", 20, None, 2),
]


@pytest.mark.parametrize("text, code, verdict, decode_exit", VERDICTS)
def test_run_solver_and_decode_read_verdicts_alike(
    text, code, verdict, decode_exit, tmp_path, capsys
):
    output = tmp_path / "output.txt"
    output.write_text(text)
    solver = tmp_path / "fake-solver"
    solver.write_text(f"#!/bin/sh\ncat '{output}'\nexit {code}\n")
    solver.chmod(0o755)
    cnf = tmp_path / "t.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    if verdict is None:
        assert search.run_solver(cnf, str(solver)) is None
    else:
        with pytest.raises(search.SolverError, match=verdict) as err:
            search.run_solver(cnf, str(solver))
        assert str(solver) in str(err.value) and f"(exit {code})" in str(err.value)
        assert str(err.value).endswith("output began: " + text)
    rc = main(["decode", "--n", "3", "--k", "3", "--model", str(output)])
    assert rc == decode_exit
    err_text = capsys.readouterr().err
    if verdict is not None:
        assert verdict in err_text


# -- fool --------------------------------------------------------------------


def test_fool_omission_circuit(tmp_path, capsys):
    from majcirc.construct import omission_circuit

    c = omission_circuit(5, [(1, 2), (3, 4), (4, 5)])
    path = tmp_path / "om.circ"
    path.write_text(serialize_circuit(c))
    assert main(["fool", str(path)]) == 0
    out = capsys.readouterr().out
    assert "assignment: 00111" in out
    assert "majority: 1" in out
    assert "circuit_output: 0" in out


def test_fool_exits_1_when_the_input_does_not_fool_the_circuit(tmp_path, monkeypatch, capsys):
    # the construction always fools; a circuit evaluated as 1 stands in
    # for one it did not
    from majcirc.construct import omission_circuit

    path = tmp_path / "om.circ"
    path.write_text(serialize_circuit(omission_circuit(5, [(1, 2), (3, 4), (4, 5)])))
    monkeypatch.setattr("majcirc.cli.eval_circuit", lambda c, a: 1)
    assert main(["fool", str(path)]) == 1
    captured = capsys.readouterr()
    assert "circuit_output: 1" in captured.out
    assert captured.err == "fooling input failed to fool the circuit\n"


def test_fool_rejects_unsuitable_circuits(n7_file, capsys):
    # the published rows repeat variables, outside the fooling family
    assert main(["fool", n7_file]) == 2
    assert "repeated variable" in capsys.readouterr().err


# -- analyze -----------------------------------------------------------------


def test_analyze_hypergeom_point(capsys):
    rc = main(["analyze", "hypergeom", "--m", "4", "--kk", "2", "--t", "2", "--l", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pmf: 2/3" in out
    assert "holds: True" in out


def test_analyze_hypergeom_pmf_table(capsys):
    assert main(["analyze", "hypergeom", "--m", "4", "--kk", "2", "--t", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "m,kk,t,l,pmf"
    assert lines[1] == "4,2,2,0,1/6"
    assert lines[2] == "4,2,2,1,2/3"


def test_analyze_hypergeom_sweep(capsys):
    assert main(["analyze", "hypergeom", "--sweep", "--max-m", "12"]) == 0
    out = capsys.readouterr().out
    assert "violations: 0" in out


def test_analyze_hypergeom_scaling(capsys):
    assert main(["analyze", "hypergeom", "--scaling", "4,16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "kk,mode,normalized"
    assert len(lines) == 3


def test_analyze_hypergeom_empty_scaling_grid(capsys):
    assert main(["analyze", "hypergeom", "--scaling", ","]) == 2
    assert capsys.readouterr().err == "error: k_grid must not be empty\n"


@pytest.mark.parametrize("argv", [["hypergeom", "--scaling", "4,x"], ["binomial", "--grid", "8,,1.5"]])
def test_analyze_rejects_a_bad_integer_grid(argv, capsys):
    assert main(["analyze", *argv]) == 2
    assert capsys.readouterr().err == f"usage error: argument {argv[1]}: bad integer grid {argv[2]!r}\n"


def test_analyze_hypergeom_needs_arguments(capsys):
    assert main(["analyze", "hypergeom"]) == 2


def test_analyze_binomial(capsys):
    assert main(["analyze", "binomial", "--grid", "8,32"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,mid_normalized,off_index,off_normalized"
    assert len(lines) == 3


def test_analyze_binomial_rejects_odd(capsys):
    assert main(["analyze", "binomial", "--grid", "7"]) == 2


def test_analyze_boundary(capsys):
    assert main(["analyze", "boundary", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "boundary: 60" in out
    assert "match: True" in out


def test_analyze_influence(capsys):
    assert main(["analyze", "influence", "--l", "3"]) == 0
    out = capsys.readouterr().out
    assert "influence: 3/2" in out
    assert "match: True" in out


@pytest.mark.parametrize(
    "argv, size",
    [(["boundary", "--n", "0"], 0), (["influence", "--l", "0"], 0), (["influence", "--l", "-2"], -2)],
)
def test_analyze_rejects_a_majority_of_no_variables(argv, size, capsys):
    assert main(["analyze", *argv]) == 2
    assert capsys.readouterr().err == f"error: majority needs at least one variable, got {size}\n"


def test_analyze_walk(tmp_path, capsys):
    g0 = ThresholdGate(((0, 1), (6, 1)), theta=2)
    g1 = ThresholdGate(((1, 1), (6, 1)), theta=2)
    filler = majority_gate([2])
    top = majority_gate(range(3))
    c = LayeredCircuit(n=7, k=3, layers=((g0, g1, filler), (top,)), top=0)
    path = tmp_path / "walk.circ"
    path.write_text(serialize_circuit(c))
    rc = main(
        ["analyze", "walk", "--circuit", str(path), "--start", "1110000",
         "--s", "3", "--d", "1", "--x-star", "7", "--g-star", "0,1"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "stop_reason: no_negative_gate" in out
    assert "final: 0010000" in out
    assert "1,0,1,1,0:-2;1:-1" in out


def test_analyze_walk_passes_over_a_gate_that_reads_no_ones(n7_file, capsys):
    # after two steps gate 0's ones are all flipped; its margin -3 is still
    # in -d..-1, so only its lack of ones sends the third step to gate 1
    rc = main(
        ["analyze", "walk", "--circuit", n7_file, "--start", "0001110",
         "--s", "3", "--d", "3", "--x-star", "1", "--g-star", "0,1,2"]
    )
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [
        "step,gate,ones_available,flipped,diffs_after",
        "1,0,2,4,0:-2;1:-2;2:-1",
        "2,0,1,5,0:-3;1:-2;2:-2",
        "3,1,1,6,0:-3;1:-3;2:-3",
        "stop_reason: exhausted_s",
        "final: 0000000",
    ]


def test_analyze_walk_bad_start(tmp_path, capsys):
    path = tmp_path / "walk.circ"
    path.write_text(serialize_circuit(published_circuit("n7")))
    for start, message in (
        ("1111000", "walk starts one below the majority threshold: weight 3 expected, got 4"),
        ("0120000", "assignment bits must be 0 or 1"),
    ):
        rc = main(
            ["analyze", "walk", "--circuit", str(path), "--start", start,
             "--s", "1", "--d", "1", "--x-star", "7", "--g-star", "0"]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_analyze_walk_missing_arguments():
    assert main(["analyze", "walk"]) == 2


# -- general dispatch --------------------------------------------------------


@pytest.mark.parametrize(
    "argv, handler",
    [
        (["construct", "published", "n7"], "_cmd_construct"),
        (["construct", "correlation", "--n", "5", "--k", "5"], "_cmd_construct"),
        (["construct", "block", "--n", "64"], "_cmd_construct"),
        (["construct", "depth3", "--b", "2"], "_cmd_construct"),
        (["verify", "c.circ", "--all"], "_cmd_verify"),
        (["search", "--n", "3", "--k", "3"], "_cmd_search"),
        (["decode", "--n", "3", "--k", "3", "--model", "m.txt"], "_cmd_decode"),
        (["fool", "c.circ"], "_cmd_fool"),
        (["analyze", "hypergeom", "--sweep"], "_cmd_analyze_hypergeom"),
        (["analyze", "binomial", "--grid", "32"], "_cmd_analyze_binomial"),
        (["analyze", "boundary", "--n", "5"], "_cmd_analyze_boundary"),
        (["analyze", "influence", "--l", "5"], "_cmd_analyze_influence"),
        (
            ["analyze", "walk", "--circuit", "c.circ", "--start", "01", "--s", "1",
             "--d", "1", "--x-star", "1", "--g-star", "1"],
            "_cmd_analyze_walk",
        ),
    ],
)
def test_each_leaf_parser_names_its_handler(argv, handler):
    assert build_parser().parse_args(argv).run is getattr(cli, handler)


def test_unknown_command():
    assert main(["frobnicate"]) == 2


def test_no_command():
    assert main([]) == 2
