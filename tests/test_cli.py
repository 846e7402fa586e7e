"""Command-line behaviour: exit codes, outputs, file round trips."""

import json
from pathlib import Path

import pytest

from majcirc import search
from majcirc.cli import main
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


@pytest.mark.parametrize("n, p, window", [(4096, 16, 16), (2048, 1024, 253)])
def test_construct_block_window_follows_p(n, p, window, tmp_path, capsys):
    """Without --window the width is block_window of the chosen --p."""
    out = tmp_path / "block.circ"
    argv = ["--format", "json", "construct", "block", "--n", str(n), "--p", str(p)]
    assert main(argv + ["--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    # one gate per block and window threshold, plus the top gate
    assert summary["gates"] == n // p * window + 1


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


# -- search and decode -------------------------------------------------------


@pytest.mark.parametrize("command", ["search", "decode"])
def test_search_flags_drop_settings_that_cannot_change_a_verdict(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    usage = capsys.readouterr().out
    assert "--multiplicity" in usage
    assert "--constraints" not in usage and "--distinct" not in usage


def test_search_exhaustive_found(capsys):
    assert main(["search", "--engine", "exhaustive", "--n", "3", "--k", "3"]) == 0
    c = parse_circuit(capsys.readouterr().out)
    assert verify_all(c).errors == 0


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


def test_decode_unsat_model_file(tmp_path):
    model = tmp_path / "model.txt"
    model.write_text("s UNSATISFIABLE\n")
    assert main(["decode", "--n", "3", "--k", "3", "--model", str(model)]) == 3


def test_decode_junk_model_file(tmp_path):
    model = tmp_path / "model.txt"
    model.write_text("c nothing here\n")
    assert main(["decode", "--n", "3", "--k", "3", "--model", str(model)]) == 2


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


def test_analyze_walk_bad_start(tmp_path, capsys):
    path = tmp_path / "walk.circ"
    path.write_text(serialize_circuit(published_circuit("n7")))
    rc = main(
        ["analyze", "walk", "--circuit", str(path), "--start", "1111000",
         "--s", "1", "--d", "1", "--x-star", "7", "--g-star", "0"]
    )
    assert rc == 2


def test_analyze_walk_missing_arguments():
    assert main(["analyze", "walk"]) == 2


# -- general dispatch --------------------------------------------------------


def test_unknown_command():
    assert main(["frobnicate"]) == 2


def test_no_command():
    assert main([]) == 2
