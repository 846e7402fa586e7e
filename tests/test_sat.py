"""The built-in CDCL solver against brute force, and its DIMACS front end."""

import os
import random
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import majcirc.sat
from majcirc.sat import EXIT_SAT, EXIT_UNSAT, Solver, luby, main, parse_dimacs, solve

SAT_SCRIPT = majcirc.sat.__file__


def satisfied(table, clause):
    """Rows of a 0/1 assignment table (column i is variable i+1) on which
    the DIMACS clause holds."""
    out = np.zeros(len(table), dtype=bool)
    for lit in clause:
        out |= table[:, abs(lit) - 1] == (lit > 0)
    return out


def models_by_enumeration(num_vars, clauses):
    """Every satisfying assignment, one per row."""
    table = (np.arange(1 << num_vars)[:, None] >> np.arange(num_vars)) & 1 == 1
    rows = np.ones(len(table), dtype=bool)
    for cl in clauses:
        rows &= satisfied(table, cl)
    return table[rows]


def check_model(num_vars, clauses, model):
    assert [abs(lit) for lit in model] == list(range(1, num_vars + 1))
    chosen = set(model)
    for cl in clauses:
        assert any(lit in chosen for lit in cl), cl


@st.composite
def cnfs(draw):
    """Random CNF over at most 10 variables.  Width 1 gives unit-only
    formulas; literals may repeat or clash inside a clause; declared
    variables need not occur; now and then an empty clause is mixed in."""
    num_vars = draw(st.integers(1, 10))
    lit = st.builds(lambda v, s: v * s, st.integers(1, num_vars), st.sampled_from((1, -1)))
    width = draw(st.sampled_from((1, 2, 3, 5)))
    clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=width), max_size=40))
    if draw(st.integers(0, 9)) == 0:
        clauses.insert(draw(st.integers(0, len(clauses))), [])
    return num_vars, clauses


@settings(max_examples=300, deadline=None)
@given(cnfs())
@example((0, []))
@example((4, []))
@example((3, [[]]))
@example((3, [[1], [-2], [2, -2], [3, 3, -1]]))
@example((2, [[1, 1], [-1, -1]]))
@example((6, [[1, 2], [-1, 2], [1, -2], [-1, -2, 5]]))
def test_solver_matches_enumeration(cnf):
    num_vars, clauses = cnf
    model = solve(num_vars, clauses)
    assert (model is not None) == (len(models_by_enumeration(num_vars, clauses)) > 0)
    if model is not None:
        check_model(num_vars, clauses, model)


def test_learnt_clauses_follow_from_the_formula():
    """Random 3-CNFs at the satisfiability threshold (4.3 clauses per
    variable) take real conflict analysis.  Each verdict must match
    enumeration, and each learnt clause must hold in every model: an
    unsound learnt clause can go unseen in the verdict."""
    rng = random.Random(0)
    for _ in range(300):
        num_vars = rng.randint(10, 14)
        clauses = [
            [rng.choice((-1, 1)) * rng.randint(1, num_vars) for _ in range(3)]
            for _ in range(round(4.3 * num_vars))
        ]
        solver = Solver(num_vars)
        for cl in clauses:
            solver.add_clause(cl)
        model = solver.solve()
        models = models_by_enumeration(num_vars, clauses)
        assert (model is not None) == (len(models) > 0)
        if model is not None:
            check_model(num_vars, clauses, model)
        for learnt in solver.learnts:  # internal code: 2v is v, 2v+1 is -v
            clause = [-(lit >> 1) if lit & 1 else lit >> 1 for lit in learnt]
            assert satisfied(models, clause).all(), clause


def pigeonhole(pigeons: int, holes: int) -> tuple[int, list[list[int]]]:
    def var(p, h):
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    clauses += [
        [-var(p, h), -var(q, h)]
        for h in range(holes)
        for p in range(pigeons)
        for q in range(p + 1, pigeons)
    ]
    return pigeons * holes, clauses


def random_3cnf() -> tuple[int, list[list[int]]]:
    """A satisfiable random 3-CNF near the threshold: 504 clauses over 120
    variables."""
    rng = random.Random(0)
    num_vars = 120
    clauses = [
        [rng.choice((-1, 1)) * v for v in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(504)
    ]
    return num_vars, clauses


def test_solver_through_restarts_and_clause_deletion():
    """Both instances take several restarts and learnt-clause reductions
    before their verdict: seven pigeons do not fit in six holes, and the
    random 3-CNF near the threshold is satisfiable."""
    assert solve(*pigeonhole(7, 6)) is None
    num_vars, clauses = random_3cnf()
    check_model(num_vars, clauses, solve(num_vars, clauses))


def test_solver_rescales_activities():
    """With a small RESCALE the activities are scaled down again and again:
    none ever passes the bound, and the verdicts stay."""
    with mock.patch("majcirc.sat.RESCALE", 1e3):
        for (num_vars, clauses), sat in ((pigeonhole(7, 6), False), (random_3cnf(), True)):
            solver = Solver(num_vars)
            for clause in clauses:
                solver.add_clause(clause)
            model = solver.solve()
            assert max(solver.activity) <= 1e3
            if sat:
                check_model(num_vars, clauses, model)
            else:
                assert model is None


def test_luby_sequence():
    assert [luby(i) for i in range(15)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def test_parse_dimacs():
    text = "c comment\np cnf 5 3\n1 -2\n 0 3 0\n-4 0\n%\n0\n"
    assert parse_dimacs(text) == (5, [[1, -2], [3], [-4]])
    assert parse_dimacs("p cnf 1 1\n1 -7 0\n") == (7, [[1, -7]])
    with pytest.raises(ValueError, match="header"):
        parse_dimacs("p dnf 2 1\n1 0\n")
    with pytest.raises(ValueError, match="not a literal"):
        parse_dimacs("p cnf 2 1\n1 x 0\n")
    with pytest.raises(ValueError, match="terminated"):
        parse_dimacs("p cnf 2 1\n1 2\n")


def test_main_output_and_exit_codes(tmp_path, capsys):
    sat_cnf = tmp_path / "sat.cnf"
    sat_cnf.write_text("p cnf 25 2\n1 2 0\n-1 0\n")
    assert main([str(sat_cnf)]) == EXIT_SAT
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "s SATISFIABLE"
    assert all(line.startswith("v ") for line in lines[1:])
    lits = [int(tok) for line in lines[1:] for tok in line[2:].split()]
    assert lits[-1] == 0 and [abs(x) for x in lits[:-1]] == list(range(1, 26))
    assert lits[:2] == [-1, 2]

    unsat_cnf = tmp_path / "unsat.cnf"
    unsat_cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    assert main([str(unsat_cnf)]) == EXIT_UNSAT
    assert capsys.readouterr().out == "s UNSATISFIABLE\n"

    assert main([str(tmp_path / "absent.cnf")]) == 1
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 1 1\n1 y 0\n")
    assert main([str(bad)]) == 1
    assert main([]) == 1
    err = capsys.readouterr()
    assert err.out == "" and "not a literal" in err.err


def _run_script(cnf, stdout):
    return subprocess.Popen(
        [sys.executable, str(SAT_SCRIPT), str(cnf)], stdout=stdout, stderr=subprocess.PIPE
    )


def test_script_ignores_a_reader_that_closes_early(tmp_path):
    # a pipe whose reader is gone before the verdict is written
    unsat_cnf = tmp_path / "unsat.cnf"
    unsat_cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = _run_script(unsat_cnf, write_end)
    os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (EXIT_UNSAT, b"")

    # `| head -1`: the model is larger than a pipe buffer, so the solver
    # is still writing when the reader stops after the first line
    sat_cnf = tmp_path / "sat.cnf"
    sat_cnf.write_text("p cnf 40000 1\n1 0\n")
    proc = _run_script(sat_cnf, subprocess.PIPE)
    assert proc.stdout.readline() == b"s SATISFIABLE\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (EXIT_SAT, b"")
