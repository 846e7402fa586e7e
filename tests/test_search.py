"""CNF and exhaustive search over gate spaces, plus the fooling adversary."""

import hashlib
import math
import time
import tracemalloc
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from majcirc.construct import (
    omission_circuit,
    published_circuit,
    published_rows,
    random_omission_pairs,
)
from majcirc.core import (
    Assignment,
    LayeredCircuit,
    ThresholdGate,
    eval_circuit,
    majority_gate,
    majority_threshold,
    majority_value,
    standard_theta,
)
from majcirc.search import (
    BUILTIN_SOLVER,
    CnfInstance,
    EncoderBug,
    ModelError,
    SearchSpaceSpec,
    SolverError,
    SolverResult,
    SpaceTooLarge,
    _candidate_rows,
    _critical_layers,
    decode,
    encode,
    estimate_clauses,
    estimate_space,
    exhaustive_search,
    find_solver,
    fooling_input,
    omission_graph,
    parse_model_text,
    run_solver,
    solve_spec,
)
from majcirc.verify import verify_all

def row_multiset(c: LayeredCircuit):
    return sorted((g.inputs, g.theta) for g in c.layers[0])


def pin_rows(instance: CnfInstance, vectors) -> np.ndarray:
    """Unit clauses forcing gate g to carry multiplicity vectors[g], as rows
    of the instance's clause matrix."""
    spec = instance.spec
    units = []
    for g, vec in enumerate(vectors):
        for i in range(spec.n):
            for j in range(1, spec.multiplicity_max + 1):
                var = instance.sel[(g, i, j)]
                units.append(var if vec[i] >= j else -var)
    rows = np.zeros((len(units), instance.clauses.shape[1]), dtype=np.int32)
    rows[:, 0] = units
    return rows


# -- the search space --------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        SearchSpaceSpec(n=0, k=1)
    with pytest.raises(ValueError):
        SearchSpaceSpec(n=3, k=0)
    with pytest.raises(ValueError):
        SearchSpaceSpec(n=3, k=3, multiplicity_max=0)


def test_spec_thresholds():
    spec = SearchSpaceSpec(n=7, k=5)
    assert spec.theta == standard_theta(5) == 3
    assert spec.theta_top == 3


def test_estimate_space_counts_row_multisets():
    # weight-2 rows over 2 variables with multiplicity <= 2: three vectors,
    # and two gate slots choose a multiset of them
    spec = SearchSpaceSpec(n=2, k=2)
    assert estimate_space(spec) == math.comb(3 + 2 - 1, 2)
    # full-threshold mode multiplies each row by its k threshold choices
    full = SearchSpaceSpec(n=2, k=2, standard_thresholds=False)
    assert estimate_space(full) == math.comb(6 + 2 - 1, 2)


def test_estimate_space_formula_matches_enumeration():
    for n in range(1, 9):
        for m in range(1, 4):
            for k in range(1, n * m + 3):
                spec = SearchSpaceSpec(n=n, k=k, multiplicity_max=m)
                rows = len(_candidate_rows(spec))
                assert estimate_space(spec) == math.comb(rows + k - 1, k), spec


def test_space_cap_refuses_before_enumerating():
    # (m+1)^n = 3^20 multiplicity vectors would take minutes to walk
    start = time.perf_counter()
    with pytest.raises(SpaceTooLarge):
        exhaustive_search(SearchSpaceSpec(n=20, k=18))
    assert time.perf_counter() - start < 0.5


def test_space_cap_enforced():
    spec = SearchSpaceSpec(n=7, k=5)
    with pytest.raises(SpaceTooLarge) as err:
        exhaustive_search(spec, space_cap=10)
    assert err.value.estimate > 10


def test_clause_cap_enforced():
    spec = SearchSpaceSpec(n=7, k=5)
    assert estimate_clauses(spec) > 2000
    with pytest.raises(SpaceTooLarge):
        encode(spec, clause_cap=2000)


def test_estimate_clauses_is_an_upper_bound():
    for spec in [
        SearchSpaceSpec(n=3, k=3),
        SearchSpaceSpec(n=5, k=3),
        SearchSpaceSpec(n=4, k=2, multiplicity_max=1),
        SearchSpaceSpec(n=3, k=3, standard_thresholds=False),
        SearchSpaceSpec(n=3, k=3, symmetry_breaking=False),
    ]:
        instance = encode(spec)
        assert len(instance.clauses) <= estimate_clauses(spec)


# -- encoding and decoding ---------------------------------------------------


def full_selector_model(instance: CnfInstance, vectors) -> list[int]:
    spec = instance.spec
    lits = []
    for g, vec in enumerate(vectors):
        for i in range(spec.n):
            for j in range(1, spec.multiplicity_max + 1):
                var = instance.sel[(g, i, j)]
                lits.append(var if vec[i] >= j else -var)
    return lits


def test_decode_recovers_pinned_rows_without_a_solver():
    spec = SearchSpaceSpec(n=3, k=3)
    instance = encode(spec)
    vectors = [(1, 1, 1)] * 3
    c = decode(instance, full_selector_model(instance, vectors))
    assert c.n == 3 and c.k == 3
    for g in c.layers[0]:
        assert g.inputs == ((0, 1), (1, 1), (2, 1))
        assert g.theta == 2
    assert verify_all(c).errors == 0


def test_decode_rejects_partial_models():
    spec = SearchSpaceSpec(n=3, k=3)
    instance = encode(spec)
    model = full_selector_model(instance, [(1, 1, 1)] * 3)
    with pytest.raises(ModelError, match="does not assign"):
        decode(instance, model[:-1])


def test_decode_rejects_broken_ladders():
    spec = SearchSpaceSpec(n=3, k=3)
    instance = encode(spec)
    model = full_selector_model(instance, [(1, 1, 1)] * 3)
    # claim multiplicity >= 2 while denying >= 1 on gate 0, variable 0
    v1 = instance.sel[(0, 0, 1)]
    v2 = instance.sel[(0, 0, 2)]
    broken = [
        {v1: -v1, v2: v2}.get(abs(l), l) if abs(l) in (v1, v2) else l
        for l in model
    ]
    with pytest.raises(ModelError):
        decode(instance, broken)


def test_decode_reverifies_on_all_inputs():
    """A model that skips the critical-layer clauses is caught by decode's
    check on all 2^n inputs."""
    instance = encode(SearchSpaceSpec(n=7, k=5))
    vectors = [(1, 1, 1, 1, 1, 0, 0)] * 5  # every gate is MAJ(x1..x5)
    with pytest.raises(EncoderBug, match="20 of 128 inputs"):
        decode(instance, full_selector_model(instance, vectors))


def test_critical_layers_are_the_minterms_then_the_maxterms():
    for n in range(1, 10):
        (mins, one), (maxs, zero) = _critical_layers(n)
        assert (one, zero) == (1, 0)
        w = majority_threshold(n)
        assert mins.tolist() == [list(c) for c in combinations(range(n), w)]
        assert maxs.tolist() == [list(c) for c in combinations(range(n), w - 1)]
        assert mins.shape == (math.comb(n, w), w)
        assert maxs.shape == (math.comb(n, w - 1), w - 1)


def test_decode_rejects_wrong_row_weight():
    spec = SearchSpaceSpec(n=3, k=3)
    instance = encode(spec)
    vectors = [(1, 1, 1), (1, 1, 1), (1, 1, 0)]  # last row too light
    with pytest.raises(ModelError):
        decode(instance, full_selector_model(instance, vectors))


def test_dimacs_and_varmap_files(tmp_path: Path):
    spec = SearchSpaceSpec(n=3, k=3)
    instance = encode(spec)
    cnf = tmp_path / "t.cnf"
    varmap = tmp_path / "t.varmap"
    instance.write_dimacs(cnf)
    instance.write_varmap(varmap)

    lines = cnf.read_text().splitlines()
    assert lines[0] == f"p cnf {instance.num_vars} {len(instance.clauses)}"
    assert len(lines) == len(instance.clauses) + 1
    assert all(line.endswith(" 0") for line in lines[1:])

    vlines = varmap.read_text().splitlines()
    assert vlines[0] == (
        "c majcirc varmap n=3 k=3 multiplicity_max=2 standard_thresholds=1"
    )
    sel_lines = [l for l in vlines if l.startswith("v ")]
    assert len(sel_lines) == 3 * 3 * 2  # gates * variables * levels
    assert not any(l.startswith("t ") for l in vlines)


def test_varmap_lists_threshold_vars_in_full_mode(tmp_path: Path):
    spec = SearchSpaceSpec(n=3, k=3, standard_thresholds=False)
    instance = encode(spec)
    varmap = tmp_path / "t.varmap"
    instance.write_varmap(varmap)
    tlines = [l for l in varmap.read_text().splitlines() if l.startswith("t ")]
    assert len(tlines) == 3 * 3  # gates * threshold levels 1..k


# sha256 of write_dimacs, num_vars and clause count, computed with the
# list-of-lists encoder that built each clause on its own; the grid reaches
# every encoder branch
DIMACS_GOLDEN = [
    (dict(n=3, k=3), "15cf004328312a23da25ebbc99e12c23a163d51c82689483e5ca6fd2a5892c0f", 220, 635),
    (dict(n=5, k=3), "531c919590ab1db45826b59fac234e600c71ec076e7e351ed2b35ea77b647c47", 850, 2623),
    (dict(n=7, k=5), "2c520c46de26b8ca197f2433db594adff345b1ba365ea2a7b794502ac13fba58", 7957, 26755),
    (dict(n=4, k=2, multiplicity_max=1), "a1ae6c5fff5bf2b9e4871169435e8abcac0855578cdbd8380b3bba9367cced07", 101, 248),
    (dict(n=3, k=3, standard_thresholds=False), "d3c793b6b2c9d0cddd3bbc5738e894b5b29d7fbb7fad0b7b9adebd64bbf60106", 247, 770),
    (dict(n=5, k=5, multiplicity_max=1), "798cdffdfdbacd414147e97e021bd3c4e44febff9323b13993eefe9e5ab6f1cb", 756, 2177),
    (dict(n=3, k=3, symmetry_breaking=False), "0431bfaddde031144ecff997599ae9f9c17918fbe5e358d03673b295b4c47b2c", 210, 603),
    (dict(n=5, k=5, multiplicity_max=1, standard_thresholds=False, symmetry_breaking=False), "4efe7879716c333776a5ab6802592b7820a3be1c889e1943b93a5c92750321c3", 915, 3150),
    # weight*multiplicity < theta on every constraint, and k > n*multiplicity
    (dict(n=3, k=5, multiplicity_max=1), "181478e79aac4679092f8f300b7f02a126ffc9eaa65bf1d066d95d6ef61d19bb", 160, 404),
    (dict(n=1, k=1), "07f1cca6a999a2ba8a4343ba2fe674669ab9e46b397f835b44e1a9b86331055c", 11, 25),
    (dict(n=9, k=7), "009846da290dbed59952d425ae13ff224b48f4b1d27bc62e988f51e6fa99a567", 61268, 215387),
]
GOLDEN_IDS = ["-".join(f"{key}={val}" for key, val in kw.items()) for kw, *_ in DIMACS_GOLDEN]


@pytest.mark.parametrize("kw, digest, num_vars, num_clauses", DIMACS_GOLDEN, ids=GOLDEN_IDS)
def test_dimacs_bytes_are_pinned(kw, digest, num_vars, num_clauses, tmp_path: Path):
    spec = SearchSpaceSpec(**kw)
    instance = encode(spec)
    path = tmp_path / "golden.cnf"
    instance.write_dimacs(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert (instance.num_vars, len(instance.clauses)) == (num_vars, num_clauses)
    assert instance.clauses.dtype == np.int32
    n, k, mult = spec.n, spec.k, spec.multiplicity_max
    # selectors take the low ids gate by gate, then the threshold levels
    assert instance.sel == {
        (g, i, j): 1 + (g * n + i) * mult + j - 1
        for g in range(k) for i in range(n) for j in range(1, mult + 1)
    }
    assert instance.thr == (
        {} if spec.standard_thresholds
        else {(g, q): k * n * mult + g * k + q for g in range(k) for q in range(1, k + 1)}
    )


def counter_clauses(length: int, qmax: int) -> int:
    """Exact clause count of the sequential counter over length literals:
    per cell 2 or 3 clauses on the first level, 3 or 4 above it, the larger
    when the cell has a predecessor in the previous column."""
    total = 0
    for r in range(1, length + 1):
        for q in range(1, min(r, qmax) + 1):
            has_up = q <= min(r - 1, qmax)
            total += (3 if has_up else 2) if q == 1 else (4 if has_up else 3)
    return total


def block_clauses(spec: SearchSpaceSpec, w: int) -> int:
    """Clauses of one weight-w constraint assignment."""
    k, r = spec.k, w * spec.multiplicity_max
    if spec.standard_thresholds:
        per_gate = 1 if r < spec.theta else counter_clauses(r, spec.theta) + 2
    else:
        cells = min(k, r)
        per_gate = counter_clauses(r, cells) + 2 * cells + (k - cells)
    return k * per_gate + counter_clauses(k, spec.theta_top) + 1


@pytest.mark.parametrize("kw", [kw for kw, *_ in DIMACS_GOLDEN], ids=GOLDEN_IDS)
def test_sections_count_each_part(kw):
    spec = SearchSpaceSpec(**kw)
    instance = encode(spec)
    n, k, mult = spec.n, spec.k, spec.multiplicity_max
    length = n * mult
    layers = [majority_threshold(n), majority_threshold(n) - 1]
    assert instance.sections == {
        "ladders": k * n * (mult - 1) + (0 if spec.standard_thresholds else k * k),
        "exactly_k": k * (counter_clauses(length, k + 1) + (1 if k == length else 2)),
        "per_assignment": sum(math.comb(n, w) * block_clauses(spec, w) for w in layers),
        "symmetry": (k - 1) * (3 * length - 2) if spec.symmetry_breaking else 0,
    }
    assert sum(instance.sections.values()) == len(instance.clauses)


def test_encoding_memory_is_the_clause_matrix(tmp_path: Path, monkeypatch):
    """encode holds about 16 bytes per clause, and write_dimacs's transient
    memory is set by its batch size, not by the clause count."""
    spec = SearchSpaceSpec(n=9, k=7)
    batch = 2**12
    monkeypatch.setattr("majcirc.search._DIMACS_BATCH", batch)
    tracemalloc.start()
    try:
        instance = encode(spec)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        instance.write_dimacs(tmp_path / "batched.cnf")
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert held < 8 * 2**20
    # at most 4 literals a row and under 100 bytes of Python objects each
    assert len(instance.clauses) > 50 * batch
    assert peak < batch * instance.clauses.shape[1] * 100
    digest = hashlib.sha256((tmp_path / "batched.cnf").read_bytes()).hexdigest()
    assert digest == DIMACS_GOLDEN[-1][1]


# -- solver output parsing ---------------------------------------------------


def test_parse_model_text_verdict_lines():
    assert parse_model_text("s SATISFIABLE\nv 1 -2 3 0\n") == ("sat", [1, -2, 3])
    assert parse_model_text("s UNSATISFIABLE\n") == ("unsat", None)
    assert parse_model_text("c comment\ns SATISFIABLE\nv 1 0\nv -2 0\n") == (
        "sat",
        [1, -2],
    )


def test_parse_model_text_bare_markers():
    assert parse_model_text("SAT\n1 -2 3 0\n") == ("sat", [1, -2, 3])
    assert parse_model_text("UNSAT\n") == ("unsat", None)
    assert parse_model_text("1 -2 0\n") == ("sat", [1, -2])


def test_parse_model_text_unknown():
    assert parse_model_text("") == ("unknown", None)
    assert parse_model_text("c nothing to see\n") == ("unknown", None)


def test_find_solver_env_override(monkeypatch):
    monkeypatch.setenv("MAJCIRC_SAT_SOLVER", "/opt/somewhere/mysolver")
    assert find_solver() == "/opt/somewhere/mysolver"


def test_run_solver_without_any_solver(monkeypatch, tmp_path):
    """With nothing configured or on PATH, the built-in solver answers."""
    monkeypatch.delenv("MAJCIRC_SAT_SOLVER", raising=False)
    monkeypatch.setattr("majcirc.search.shutil.which", lambda name: None)
    assert find_solver() == BUILTIN_SOLVER
    assert Path(BUILTIN_SOLVER).is_file()

    clauses = [[1, 2], [-1, 3], [-2, -3], [-3, 4]]
    sat_cnf = tmp_path / "sat.cnf"
    sat_cnf.write_text("p cnf 5 4\n" + "".join(f"{a} {b} 0\n" for a, b in clauses))
    result = run_solver(sat_cnf)
    assert result.status == "sat"
    assert sorted(abs(lit) for lit in result.model) == [1, 2, 3, 4, 5]
    assert all(any(lit in result.model for lit in cl) for cl in clauses)

    unsat_cnf = tmp_path / "unsat.cnf"
    unsat_cnf.write_text("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
    assert run_solver(unsat_cnf) == SolverResult("unsat", None)

    with pytest.raises(SolverError, match="no verdict"):
        run_solver(tmp_path / "absent.cnf")


# -- exhaustive engine -------------------------------------------------------


def test_exhaustive_finds_majority_of_majorities():
    c = exhaustive_search(SearchSpaceSpec(n=3, k=3))
    assert c is not None
    assert verify_all(c).errors == 0


def test_exhaustive_single_gate_space_is_empty():
    # the three weight-1 rows are dictators; none computes majority
    assert exhaustive_search(SearchSpaceSpec(n=3, k=1, multiplicity_max=1)) is None


def test_exhaustive_n5_k3_standard_is_infeasible():
    assert exhaustive_search(SearchSpaceSpec(n=5, k=3)) is None


def test_exhaustive_full_thresholds_widen_the_space():
    spec = SearchSpaceSpec(n=2, k=2, standard_thresholds=False)
    c = exhaustive_search(spec)
    assert c is not None
    assert verify_all(c).errors == 0


# -- solver pipeline ---------------------------------------------------------


def test_solve_spec_finds_and_verifies():
    c = solve_spec(SearchSpaceSpec(n=3, k=3))
    assert c is not None
    assert verify_all(c).errors == 0


def test_solve_spec_unsat():
    assert solve_spec(SearchSpaceSpec(n=3, k=1, multiplicity_max=1)) is None


def test_solve_spec_keeps_files(tmp_path: Path):
    c = solve_spec(SearchSpaceSpec(n=3, k=3), keep_files=tmp_path)
    assert c is not None
    assert (tmp_path / "maj-n3-k3.cnf").exists()
    assert (tmp_path / "maj-n3-k3.varmap").exists()


def test_solve_spec_full_thresholds():
    c = solve_spec(SearchSpaceSpec(n=3, k=3, standard_thresholds=False))
    assert c is not None
    assert verify_all(c).errors == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_engines_agree_on_small_spaces(n):
    for k in range(1, n + 1):
        for mult in (1, 2):
            spec = SearchSpaceSpec(n=n, k=k, multiplicity_max=mult)
            by_brute = exhaustive_search(spec)
            by_sat = solve_spec(spec)
            assert (by_brute is None) == (by_sat is None), spec


@pytest.mark.parametrize("tag", ["n7", "intro7"])
def test_published_rows_live_in_the_default_space(tag, tmp_path: Path):
    """Pinning the selector variables to the published rows stays SAT."""
    rows = published_rows(tag)
    spec = SearchSpaceSpec(n=7, k=5)
    instance = encode(spec)
    vectors = []
    for row in rows:
        vec = [0] * 7
        for v in row:
            vec[v - 1] += 1
        vectors.append(tuple(vec))
    vectors.sort()  # symmetry breaking orders the gates
    instance = replace(
        instance, clauses=np.vstack([instance.clauses, pin_rows(instance, vectors)])
    )
    cnf = tmp_path / "pinned.cnf"
    instance.write_dimacs(cnf)
    result = run_solver(cnf)
    assert result.status == "sat"
    c = decode(instance, result.model)
    assert row_multiset(c) == row_multiset(published_circuit(tag))


# -- fooling inputs for fan-in n-2 circuits ----------------------------------


def test_fooling_input_worked_example():
    c = omission_circuit(5, [(1, 2), (3, 4), (4, 5)])
    a = fooling_input(c)
    assert a == Assignment((0, 0, 1, 1, 1))
    assert majority_value(a) == 1
    assert eval_circuit(c, a) == 0


def test_omission_graph_shape():
    c = omission_circuit(7, [(1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
    g = omission_graph(c)
    assert g.n == 7
    assert len(g.edges) == 5
    comps = g.components
    verts = sorted(v for comp in comps for v in comp.vertices)
    assert verts == list(range(1, 8))
    assert sum(g.p_values) == -2


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_omission_graph_always_has_two_trees(n):
    for seed in range(8):
        c = omission_circuit(n, random_omission_pairs(n, seed))
        g = omission_graph(c)
        assert sum(g.p_values) == -2
        assert sum(1 for p in g.p_values if p == -1) >= 2


@pytest.mark.parametrize("n", [5, 7, 9])
def test_fooling_input_properties(n):
    l = (n - 1) // 2
    for seed in range(20):
        c = omission_circuit(n, random_omission_pairs(n, seed))
        a = fooling_input(c)
        assert a.weight == l + 1
        assert majority_value(a) == 1
        assert eval_circuit(c, a) == 0
        # at most l-1 omitted pairs touch a zero, so fewer than l gates fire
        zeros = {i + 1 for i, b in enumerate(a.bits) if b == 0}
        covered = sum(1 for e in omission_graph(c).edges if zeros & set(e))
        assert covered <= l - 1


def test_fooling_preconditions_rejected():
    with pytest.raises(ValueError, match="odd"):
        fooling_input(omission_circuit(6, [(1, 2), (3, 4), (5, 6), (1, 3)]))
    with pytest.raises(ValueError, match="expected 3 bottom gates"):
        fooling_input(omission_circuit(5, [(1, 2), (3, 4)]))

    # depth 1
    c1 = LayeredCircuit(n=5, k=5, layers=((majority_gate(range(5)),),), top=0)
    with pytest.raises(ValueError, match="depth-2"):
        fooling_input(c1)

    # a repeated variable in a bottom gate
    bad_gate = majority_gate([0, 0, 1])
    rest = [majority_gate([1, 2, 3]), majority_gate([2, 3, 4])]
    c2 = LayeredCircuit(
        n=5, k=3, layers=((bad_gate, *rest), (majority_gate(range(3)),)), top=0
    )
    with pytest.raises(ValueError, match="repeated variable"):
        fooling_input(c2)

    # wrong fan-in on a bottom gate
    short = majority_gate([0, 1])
    c3 = LayeredCircuit(
        n=5, k=3, layers=((short, *rest), (majority_gate(range(3)),)), top=0
    )
    with pytest.raises(ValueError, match="wrong fan-in"):
        fooling_input(c3)

    # non-standard bottom threshold
    skew = ThresholdGate(((0, 1), (1, 1), (2, 1)), theta=3)
    c4 = LayeredCircuit(
        n=5, k=3, layers=((skew, *rest), (majority_gate(range(3)),)), top=0
    )
    with pytest.raises(ValueError, match="non-standard threshold on bottom"):
        fooling_input(c4)

    # top gate must read each bottom gate exactly once
    double_top = ThresholdGate(((0, 2), (1, 1), (2, 1)), theta=2)
    good = [majority_gate([0, 1, 2]), majority_gate([1, 2, 3]), majority_gate([2, 3, 4])]
    c5 = LayeredCircuit(n=5, k=4, layers=(tuple(good), (double_top,)), top=0)
    with pytest.raises(ValueError, match="top gate"):
        fooling_input(c5)
