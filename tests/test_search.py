"""CNF and exhaustive search over gate spaces, plus the fooling adversary."""

import hashlib
import inspect
import math
import tempfile
import time
import tracemalloc
from dataclasses import fields, replace
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    SpaceTooLarge,
    _CnfBuilder,
    _FALSE,
    _TRUE,
    _candidate_rows,
    _counter_cells,
    _critical_layers,
    _literal_slots,
    _replicate,
    _threshold_gate,
    decode,
    encode,
    estimate_clauses,
    estimate_space,
    exhaustive_search,
    find_solver,
    fooling_input,
    omission_components,
    parse_model_text,
    run_solver,
    solve_spec,
    variable_map,
)
from majcirc.verify import VerificationReport, verify_all

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


def test_spec_has_only_settings_that_can_change_a_verdict():
    names = [f.name for f in fields(SearchSpaceSpec)]
    assert names == ["n", "k", "multiplicity_max", "standard_thresholds"]


def test_estimate_space_counts_row_multisets():
    # weight-2 rows over 2 variables with multiplicity <= 2: three vectors,
    # and two gate slots choose a multiset of them
    spec = SearchSpaceSpec(n=2, k=2)
    assert estimate_space(spec) == math.comb(3 + 2 - 1, 2)
    # full-threshold mode multiplies each row by its k threshold choices
    full = SearchSpaceSpec(n=2, k=2, standard_thresholds=False)
    assert estimate_space(full) == math.comb(6 + 2 - 1, 2)


def test_estimate_space_formula_matches_enumeration():
    # the enumeration itself is checked against filtering all of {0..m}^n
    for n in range(1, 9):
        for m in range(1, 4):
            by_weight: dict[int, list] = {}
            for vec in product(range(m + 1), repeat=n):
                by_weight.setdefault(sum(vec), []).append(vec)
            for k in range(1, n * m + 3):
                spec = SearchSpaceSpec(n=n, k=k, multiplicity_max=m)
                rows = _candidate_rows(spec)
                assert rows == by_weight.get(k, []), spec
                assert estimate_space(spec) == math.comb(len(rows) + k - 1, k), spec


def test_candidate_rows_never_walk_the_whole_cube():
    # filtering the 3^20 vectors of {0, 1, 2}^20 would take minutes
    start = time.perf_counter()
    rows = _candidate_rows(SearchSpaceSpec(n=20, k=3, multiplicity_max=2))
    assert time.perf_counter() - start < 2
    assert len(rows) == math.comb(20, 3) + 20 * 19 == 1520
    assert rows == sorted(set(rows))
    assert all(sum(row) == 3 and max(row) <= 2 for row in rows)


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


@pytest.mark.parametrize("n", [27, 64])
def test_space_cap_bounds_the_critical_input_tables(n, monkeypatch):
    # k=1 leaves n candidates, but C(n + 1, ceil(n/2)) critical inputs:
    # past 10^9 table cells from n=27, past int64 row counts at n=64
    def no_tables(n):
        raise AssertionError("critical-input tables built past the cap")

    monkeypatch.setattr("majcirc.search._critical_layers", no_tables)
    spec = SearchSpaceSpec(n=n, k=1)
    assert estimate_space(spec) == n
    with pytest.raises(SpaceTooLarge, match="critical-input tables") as err:
        exhaustive_search(spec)
    assert err.value.estimate == math.comb(n + 1, majority_threshold(n)) * n


def test_space_cap_refuses_before_building_candidates_or_tables(monkeypatch):
    # the refusal comes from closed-form counts: at n=3000, k=1, building
    # the candidate rows first (O(n^3)) gave no answer in 60 s
    def not_built(arg):
        raise AssertionError("candidates or critical-input tables built past the cap")

    monkeypatch.setattr("majcirc.search._candidate_rows", not_built)
    monkeypatch.setattr("majcirc.search._critical_layers", not_built)
    start = time.perf_counter()
    with pytest.raises(SpaceTooLarge, match="^critical-input tables of [0-9]+ cells, over the cap 1000000000$") as err:
        exhaustive_search(SearchSpaceSpec(n=3000, k=1))
    assert time.perf_counter() - start < 0.5
    assert err.value.estimate == math.comb(3001, 1500) * 3000


def test_critical_input_cells_meet_the_cap_exactly():
    # n=5, k=1: C(6, 3) = 20 critical inputs times 5 candidates
    spec = SearchSpaceSpec(n=5, k=1)
    with pytest.raises(SpaceTooLarge) as err:
        exhaustive_search(spec, space_cap=99)
    assert err.value.estimate == 100
    assert exhaustive_search(spec, space_cap=100) is None


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
        SearchSpaceSpec(n=5, k=5, multiplicity_max=1, standard_thresholds=False),
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


def test_decode_skips_the_0_that_ends_a_model_line():
    instance = encode(SearchSpaceSpec(n=3, k=3))
    model = full_selector_model(instance, [(1, 1, 1)] * 3)
    assert decode(instance, [0, *model[:5], 0, *model[5:], 0]) == decode(instance, model)


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


def test_critical_layers_come_one_at_a_time_one_byte_per_position():
    # a generator builds nothing before a layer is read: C(40, 20) rows
    # would not fit
    assert inspect.isgenerator(_critical_layers(40))
    layers = _critical_layers(9)
    mins, _ = next(layers)
    assert mins.dtype == np.uint8 and mins.shape == (126, 5)
    maxs, _ = next(layers)
    assert maxs.dtype == np.uint8 and maxs.shape == (126, 4)
    assert next(layers, None) is None


def test_decode_rejects_wrong_row_weight():
    spec = SearchSpaceSpec(n=3, k=3)
    instance = encode(spec)
    vectors = [(1, 1, 1), (1, 1, 1), (1, 1, 0)]  # last row too light
    with pytest.raises(ModelError):
        decode(instance, full_selector_model(instance, vectors))


def full_threshold_model(instance: CnfInstance, vectors, thetas) -> list[int]:
    """full_selector_model plus gate g's threshold levels set up to thetas[g]."""
    lits = full_selector_model(instance, vectors)
    for (g, q), var in instance.thr.items():
        lits.append(var if q <= thetas[g] else -var)
    return lits


def test_decode_reads_searched_thresholds():
    instance = encode(SearchSpaceSpec(n=3, k=3, standard_thresholds=False))
    model = full_threshold_model(instance, [(1, 1, 1)] * 3, [2, 2, 2])
    c = decode(instance, model)
    assert [g.theta for g in c.layers[0]] == [2, 2, 2]
    t1 = instance.thr[(0, 1)]
    with pytest.raises(ModelError, match=r"^model does not assign threshold g=0 q=1 \(CNF variable 19\)$"):
        decode(instance, [l for l in model if abs(l) != t1])
    broken = [-t1 if l == t1 else l for l in model]  # q=2 set, q=1 not
    with pytest.raises(ModelError, match="^threshold ladder broken at g=0 q=2$"):
        decode(instance, broken)
    unset = full_threshold_model(instance, [(1, 1, 1)] * 3, [0, 2, 2])
    with pytest.raises(ModelError, match="^gate 0 decodes to threshold 0$"):
        decode(instance, unset)


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


def test_builder_folds_constant_literals():
    """A clause holding _TRUE is dropped and _FALSE is left out of it, while
    the variable literals 1 and -1 always stay (a bool constant would take
    them for True and -True)."""
    b = _CnfBuilder()
    b.add(1, -1)
    b.add(_TRUE, 2, -1)
    b.add(-3, _FALSE, 1)
    b.add(-_TRUE, -1, _FALSE)  # negation swaps the constants
    b.add(4, -_FALSE)
    assert b.take().tolist() == [[1, -1], [-3, 1], [-1, 0]]
    assert b.num_vars == 0 and b.clauses == []


def unpadded(rows: np.ndarray) -> list[list[int]]:
    return [[lit for lit in row if lit] for row in rows.tolist()]


@pytest.mark.parametrize("theta", [1, 2, 4])
def test_threshold_gate_at_a_fixed_level(theta):
    """At its one level theta a gate leaves Sinz's counter over its
    literals, then (-o, f) and (o, -f), f the counter's cell for (at least
    theta); a constant output leaves the one unit clause (f) or (-f)."""
    lits = [1, 2, 3, 4]
    ref = _CnfBuilder(5)
    f = _counter_cells(ref, lits, theta)[theta - 1]
    counter = unpadded(ref.take())
    for out, tail in [(5, [[-5, f], [5, -f]]), (_TRUE, [[f]]), (_FALSE, [[-f]])]:
        b = _CnfBuilder(5)
        _threshold_gate(b, out, lits, {theta: _TRUE})
        assert b.num_vars == ref.num_vars
        assert unpadded(b.take()) == counter + tail


def test_threshold_gate_short_of_its_level_makes_no_counter():
    b = _CnfBuilder(3)
    _threshold_gate(b, 3, [1, 2], {3: _TRUE})
    assert b.num_vars == 3
    assert b.take().tolist() == [[-3]]


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
    (dict(n=5, k=5, multiplicity_max=1, standard_thresholds=False), "06e6cdf2fd485362240a3f88264d722e9cb57783f94f65a5537922891c0dda73", 931, 3202),
    # weight*multiplicity < theta on every constraint, and k > n*multiplicity:
    # each gate's exactly-k is the empty clause, written "0"
    (dict(n=3, k=5, multiplicity_max=1), "978db9961d16ea61699714bda877b561cf9c175284f77394837df342f8ef873e", 155, 399),
    (dict(n=1, k=1), "07f1cca6a999a2ba8a4343ba2fe674669ab9e46b397f835b44e1a9b86331055c", 11, 25),
    (dict(n=9, k=7), "009846da290dbed59952d425ae13ff224b48f4b1d27bc62e988f51e6fa99a567", 61268, 215387),
]
# n=11, k=9, m=2: 416817 variables, 1504445 clauses
N11_DIGEST = "1ea58d809cacca6f6741cdc606fc2715f4a8ca903db1960d8eb5b8355804630a"
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


@pytest.mark.parametrize("kw", [kw for kw, *_ in DIMACS_GOLDEN], ids=GOLDEN_IDS)
def test_variable_map_is_the_encodings_without_its_clauses(kw, monkeypatch):
    spec = SearchSpaceSpec(**kw)
    instance = encode(spec)
    assert variable_map(spec) == (spec, instance.sel, instance.thr)
    if spec.n == 7:
        # the published n7 circuit: gate g carries each variable it lists
        vectors = [[row.count(i + 1) for i in range(7)] for row in published_rows("n7")]
        model = full_selector_model(instance, vectors)
        monkeypatch.setattr("majcirc.search._CnfBuilder", None)  # builds no clause
        assert decode(variable_map(spec), model) == decode(instance, model)


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
    return k * per_gate + counter_clauses(k, spec.theta) + 1


@pytest.mark.parametrize("kw", [kw for kw, *_ in DIMACS_GOLDEN], ids=GOLDEN_IDS)
def test_sections_count_each_part(kw):
    spec = SearchSpaceSpec(**kw)
    instance = encode(spec)
    n, k, mult = spec.n, spec.k, spec.multiplicity_max
    length = n * mult
    layers = [majority_threshold(n), majority_threshold(n) - 1]
    assert instance.sections == {
        "ladders": k * n * (mult - 1) + (0 if spec.standard_thresholds else k * k),
        "exactly_k": k * (counter_clauses(length, k + 1) + (1 if k >= length else 2)),
        "per_assignment": sum(math.comb(n, w) * block_clauses(spec, w) for w in layers),
        "symmetry": (k - 1) * (3 * length - 2),
    }
    assert sum(instance.sections.values()) == len(instance.clauses)


# sha256 of write_dimacs per (n, k, multiplicity_max, standard_thresholds)
# with k at and one below the row length n*multiplicity_max, computed with
# the encoder that capped the exactly-k counter at the row length and wrote
# an unsatisfiable pair of unit clauses past it
ROW_LENGTH_GOLDEN = [
    (1, 1, 1, True, "00f083952b20be8f7a0f5f27d3c460af91dd32cb5babf8bd492a9a1e8aa0de3a"),
    (1, 1, 1, False, "869bfd47107a5d78fc33a44f6067c473a31f734269c990c896a79635accfef94"),
    (1, 1, 2, True, "07f1cca6a999a2ba8a4343ba2fe674669ab9e46b397f835b44e1a9b86331055c"),
    (1, 1, 2, False, "f71e9e943dc6097c16986b4286ce7286598315893c516a26c82f1029eb9cd92a"),
    (1, 2, 2, True, "0b5c34ba59380f90d057923663ae9b73003699e0a2b990907b62a665dc9eaa8e"),
    (1, 2, 2, False, "0da26436b6103f4052d715713b2a66a9885edcced38c7fb655f8b4259cdd87b7"),
    (2, 1, 1, True, "74c706336852f217113cc62589ff70618abff3c98a9c27e940fe1b34c598a10e"),
    (2, 1, 1, False, "b54c2efc1bc202234fee9c9ce850d7994661f716ce71d9bb2390439d42abe75c"),
    (2, 2, 1, True, "c9e51e371e4121e3a918ba12a8636bd2a6819eae8571ec29d2ce66f610c880d7"),
    (2, 2, 1, False, "eaf5ac2c73877fcc4b89528b99b2c18ee72c703307bbf267495dddec56a4ef5c"),
    (2, 3, 2, True, "c82dd3e2b5c057bddb1a704f3beb4b8942ff64ef59c1e16845281a23e8f349ee"),
    (2, 3, 2, False, "ea4bcdec0916ace1ed1f10923e0e5c6a28c7531c29c8dc487c2a49357d503e7f"),
    (2, 4, 2, True, "5ef4ac16485195e8b2bb6c37ea859878e600377f846cd3a4baa80fe4a52c1bd8"),
    (2, 4, 2, False, "e0f76710681c3024dd419aa07a910f035f536f3d06c5cd3ce9ffe2640d02b7ad"),
    (3, 2, 1, True, "e2b2a1ebf49c7f5421dd85f60d577ae859628a012d7a48077641a159e1a82a5e"),
    (3, 2, 1, False, "8eac501263662893cbaeca6775005972f121d1ff293e98e98789df1fed5344cc"),
    (3, 3, 1, True, "b1fd493ed39c9f0ef4745469a2e2dd8aea5cb0a7102cd1dad837cfbe121da61a"),
    (3, 3, 1, False, "ed270c67d87280d0b26ad3af9d4796e37e92a8ef7470e9b0a235f2920dc03286"),
    (3, 5, 2, True, "57cd406ea26c5de4ca89a56810e8d5fc5c11e02eefc92eabaa4e05b459641ced"),
    (3, 5, 2, False, "303eef38aedc0b865e767065f3e7cf8d62adf2021398b9be672aac0b25fefa40"),
    (3, 6, 2, True, "fef4d9d930f8d34ca658873ffe3836a2965ac6cab13d5841758aa4abf6f07ec5"),
    (3, 6, 2, False, "ca50c045b6a19b135d7cd675a60f99c7d12109051688915806c8353da455874c"),
    (4, 3, 1, True, "aede96a801ab18602cf6fc3f5bcbe7c28561cd45b9aa0f6e3d263a87f5d42c14"),
    (4, 3, 1, False, "5f6667286845994bd7e872d124edfe2267542942e89e72b9b1cf61d24f4d460e"),
    (4, 4, 1, True, "0f09a275e6ee016ae210998f99b069e1c5f303a810ead6163bb96f257225dc1b"),
    (4, 4, 1, False, "ca2ad945abd53db59140cbd53127938ffc17e66e1802c80b607b087948d954c2"),
    (4, 7, 2, True, "9e2d90027bc0ad4f97480db6c26925feefa17f791d2065e1ab8ff55603dbf133"),
    (4, 7, 2, False, "c42818147526c3f87731217f7ab2cbf3c164d6aaf00f8c7c9dac08ececd3206f"),
    (4, 8, 2, True, "61f166f768e5fed7ad4fc8ca1b7acbca5ce42332cb6775a5fbb6d7922d3aaccf"),
    (4, 8, 2, False, "dee26089b333c041a1a559174f5cc838ba2d1ccc0183f9eaa1492f5de7a8fc29"),
]


@pytest.mark.parametrize("n, k, mult, standard, digest", ROW_LENGTH_GOLDEN)
def test_dimacs_bytes_up_to_the_row_length_are_pinned(n, k, mult, standard, digest, tmp_path):
    encode(SearchSpaceSpec(n, k, mult, standard)).write_dimacs(tmp_path / "x.cnf")
    assert hashlib.sha256((tmp_path / "x.cnf").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_spaces_past_the_row_length_are_empty(n, tmp_path):
    """With k past n*multiplicity_max no row weighs k: each gate's exactly-k
    constraint is the empty clause, an all-zero row written "0", and both
    engines find the space empty."""
    for mult in (1, 2):
        for k in (n * mult + 1, n * mult + 2):
            for standard in (True, False):
                spec = SearchSpaceSpec(n, k, mult, standard)
                instance = encode(spec)
                empty = ~instance.clauses.any(axis=1)
                lo = instance.sections["ladders"]
                assert empty[lo : lo + instance.sections["exactly_k"]].sum() == k, spec
                assert empty.sum() == k, spec
                out = tmp_path / f"{n}-{k}-{mult}-{standard}"
                assert solve_spec(spec, solver=BUILTIN_SOLVER, keep_files=out) is None, spec
                lines = (out / f"maj-n{n}-k{k}.cnf").read_text().splitlines()
                assert lines.count("0") == k, spec
                assert exhaustive_search(spec) is None, spec


def test_encoding_memory_is_the_clause_matrix(tmp_path: Path, monkeypatch):
    """encode holds about 16 bytes per clause, and write_dimacs's transient
    memory is set by its batch size, not by the clause count or num_vars."""
    batch = 2**12
    monkeypatch.setattr("majcirc.search._DIMACS_BATCH", batch)
    cases = [
        (SearchSpaceSpec(n=9, k=7), 8 * 2**20, DIMACS_GOLDEN[-1][1]),
        (SearchSpaceSpec(n=11, k=9), 32 * 2**20, N11_DIGEST),
    ]
    for spec, held_bound, golden in cases:
        tracemalloc.start()
        try:
            instance = encode(spec)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            instance.write_dimacs(tmp_path / "batched.cnf")
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert held < held_bound, spec
        # at most 4 literals a row and under 100 bytes of Python objects each
        assert len(instance.clauses) > 50 * batch
        assert peak < batch * instance.clauses.shape[1] * 100, spec
        digest = hashlib.sha256((tmp_path / "batched.cnf").read_bytes()).hexdigest()
        assert digest == golden, spec


def reference_dimacs(instance: CnfInstance, path: Path) -> None:
    """The %-format writer write_dimacs replaced: one template per row
    length, filled from Python ints, _DIMACS_BATCH rows per format call."""
    from majcirc.search import _DIMACS_BATCH

    templates = ["%d " * length + "0\n" for length in range(instance.clauses.shape[1] + 1)]
    with open(path, "w") as fh:
        fh.write(f"p cnf {instance.num_vars} {len(instance.clauses)}\n")
        for lo in range(0, len(instance.clauses), _DIMACS_BATCH):
            batch = instance.clauses[lo : lo + _DIMACS_BATCH]
            lengths = np.count_nonzero(batch, axis=1).tolist()
            fmt = "".join([templates[length] for length in lengths])
            fh.write(fmt % tuple(batch[batch != 0].tolist()))


# num_vars at each digit-count boundary, up to the largest int32
DIGIT_BOUNDARIES = [1, 9, 10, 99, 9999, 10**4, 999999, 10**6, 9999999, 2**31 - 1]


@st.composite
def clause_matrices(draw):
    """(num_vars, 0-padded clause matrix): widths 1..5, one row of every
    length 0..width among random rows, mixed signs, literals at +-1 and
    +-num_vars among uniform ones."""
    num_vars = draw(st.sampled_from(DIGIT_BOUNDARIES))
    width = draw(st.integers(1, 5))
    var = st.one_of(st.sampled_from([1, num_vars]), st.integers(1, num_vars))
    lit = st.tuples(var, st.booleans()).map(lambda vs: -vs[0] if vs[1] else vs[0])
    lengths = list(range(width + 1)) + draw(st.lists(st.integers(0, width), max_size=12))
    order = draw(st.permutations(lengths))
    rows = np.zeros((len(order), width), dtype=np.int32)
    for r, length in enumerate(order):
        rows[r, :length] = draw(st.lists(lit, min_size=length, max_size=length))
    return num_vars, rows


@settings(max_examples=200, deadline=None)
@given(clause_matrices(), st.sampled_from([1, 3, 4096]))
def test_write_dimacs_matches_the_reference_writer(matrix, batch):
    num_vars, clauses = matrix
    instance = CnfInstance(SearchSpaceSpec(n=1, k=1), num_vars, clauses, {}, {}, {})
    with tempfile.TemporaryDirectory() as tmp, mock.patch("majcirc.search._DIMACS_BATCH", batch):
        instance.write_dimacs(Path(tmp) / "numpy.cnf")
        reference_dimacs(instance, Path(tmp) / "reference.cnf")
        written = (Path(tmp) / "numpy.cnf").read_bytes()
        assert written == (Path(tmp) / "reference.cnf").read_bytes()
    # a row of length 0 is the empty clause, written "0\n"
    assert b"\n0\n" in written



def test_write_dimacs_slots_only_the_columns_a_batch_uses(tmp_path: Path):
    """A batch whose trailing columns are all padding gets no slots for
    them, and the bytes stay the reference writer's."""
    clauses = np.zeros((7, 4), dtype=np.int32)
    clauses[:4, :3] = [[1, -2, 3], [-4, 5, 0], [6, 0, 0], [0, 0, 0]]
    clauses[4:, :] = [[7, 0, 0, 0], [-8, 9, -10, 11], [12, 13, 0, 0]]
    instance = CnfInstance(SearchSpaceSpec(n=1, k=1), 13, clauses, {}, {}, {})
    shapes = []

    def recording(lits, out):
        shapes.append(out.shape)
        _literal_slots(lits, out)

    with mock.patch("majcirc.search._DIMACS_BATCH", 4), \
            mock.patch("majcirc.search._literal_slots", recording):
        instance.write_dimacs(tmp_path / "trimmed.cnf")
        reference_dimacs(instance, tmp_path / "reference.cnf")
    assert shapes == [(4, 3, 1), (3, 4, 1)]
    assert (tmp_path / "trimmed.cnf").read_bytes() == (tmp_path / "reference.cnf").read_bytes()


def test_write_dimacs_slots_every_batch_in_one_buffer(tmp_path: Path):
    """Each batch's slots view the one buffer a write allocates, whatever
    width the batch trims to."""
    instance = encode(SearchSpaceSpec(n=5, k=3))
    bases = []

    def recording(lits, out):
        bases.append(out.base)
        _literal_slots(lits, out)

    with mock.patch("majcirc.search._DIMACS_BATCH", 64), \
            mock.patch("majcirc.search._literal_slots", recording):
        instance.write_dimacs(tmp_path / "shared.cnf")
        reference_dimacs(instance, tmp_path / "reference.cnf")
    assert len(bases) == -(-len(instance.clauses) // 64) > 1
    assert all(base is bases[0] for base in bases)
    assert bases[0].nbytes == 64 * (instance.clauses.shape[1] + 1) * 8
    assert (tmp_path / "shared.cnf").read_bytes() == (tmp_path / "reference.cnf").read_bytes()


def test_encode_peak_is_the_clause_matrix():
    """Replicated blocks are gathered straight into the one clause matrix,
    a bounded group of copies at a time, with no copy of a whole layer."""
    tracemalloc.start()
    try:
        instance = encode(SearchSpaceSpec(n=11, k=9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * instance.clauses.nbytes


def reference_replicate(block, base, slots, nvars):
    """The fancy-indexing replication _replicate replaced: every copy of
    the block, stacked, as wide as the block."""
    count, width = slots.shape
    table = np.zeros((count, 1 + width + nvars), dtype=np.int64)
    table[:, 1 : 1 + width] = slots
    table[:, 1 + width :] = base + nvars * np.arange(count)[:, None] + np.arange(1, nvars + 1)
    mag = np.abs(block)
    fixed = mag <= base
    out = table[:, np.where(fixed, 0, mag - base)]
    np.copyto(out, mag, where=fixed)
    out *= np.sign(block)
    return out.reshape(-1, block.shape[1])


@pytest.mark.parametrize("gather_rows", [1, 7, 2**16])
def test_replicate_matches_the_reference(gather_rows, monkeypatch):
    """Random blocks over fixed variables of both signs, placeholders, own
    variables and padding, written into a wider slice than the block."""
    monkeypatch.setattr("majcirc.search._GATHER_ROWS", gather_rows)
    rng = np.random.default_rng(gather_rows)
    for trial in range(20):
        base = int(rng.integers(1, 12))
        # the first block is plain: no placeholder, no own variable
        width, nvars = (int(v) for v in rng.integers(0, 12, 2) * (trial > 0))
        count, rows, cols = (int(v) for v in rng.integers(1, 9, 3))
        mags = rng.integers(0, base + width + nvars + 1, (rows, cols))
        block = mags * rng.choice([-1, 1], (rows, cols))
        slots = rng.integers(1, 1000, (count, width), dtype=np.int32)
        out = np.full((count * rows + 2, cols + 1), -99, dtype=np.int32)
        _replicate(block.astype(np.int32), base, slots, nvars, out[1:-1])
        expected = reference_replicate(block, base, slots, nvars)
        assert np.array_equal(out[1:-1, :cols], expected)
        assert not out[1:-1, cols:].any()
        assert (out[[0, -1]] == -99).all()


# -- solver output parsing ---------------------------------------------------


def test_parse_model_text_verdict_lines():
    assert parse_model_text("s SATISFIABLE\nv 1 -2 3 0\n") == (1, -2, 3)
    assert parse_model_text("s UNSATISFIABLE\n") is None
    assert parse_model_text("c comment\ns SATISFIABLE\nv 1 0\nv -2 0\n") == (1, -2)
    # an explicit UNSAT outweighs stray literals
    assert parse_model_text("s UNSATISFIABLE\nv 1 0\n") is None


def test_parse_model_text_bare_markers():
    assert parse_model_text("SAT\n1 -2 3 0\n") == (1, -2, 3)
    assert parse_model_text("UNSAT\n") is None
    assert parse_model_text("1 -2 0\n") == (1, -2)


def test_parse_model_text_unknown():
    for text in ("", "c nothing to see\n", "junk\n"):
        with pytest.raises(SolverError, match="no verdict"):
            parse_model_text(text)
        with pytest.raises(SolverError, match="no verdict"):
            parse_model_text(text, exit_code=10)
        assert parse_model_text(text, exit_code=20) is None
    for text in ("s SATISFIABLE\n", "SAT\n", "s SATISFIABLE\nv 0\n"):
        for code in (None, 10, 20):
            with pytest.raises(SolverError, match="SAT without a model"):
                parse_model_text(text, exit_code=code)


def test_parse_model_text_exit_code_20_yields_to_a_sat_claim():
    assert parse_model_text("s SATISFIABLE\nv 1 -2 0\n", exit_code=20) == (1, -2)
    assert parse_model_text("1 -2 0\n", exit_code=20) == (1, -2)
    assert parse_model_text("s UNSATISFIABLE\n", exit_code=10) is None


def test_find_solver_env_override(monkeypatch):
    monkeypatch.setenv("MAJCIRC_SAT_SOLVER", "/opt/somewhere/mysolver")
    assert find_solver() == "/opt/somewhere/mysolver"


def test_find_solver_skips_minisat(monkeypatch):
    """MiniSat prints no model on stdout, so a satisfiable run through it
    would end in SolverError; the built-in solver is picked instead."""
    monkeypatch.delenv("MAJCIRC_SAT_SOLVER", raising=False)
    monkeypatch.setattr(
        "majcirc.search.shutil.which", lambda name: "/usr/bin/minisat" if name == "minisat" else None
    )
    assert find_solver() == BUILTIN_SOLVER


def test_find_solver_takes_the_first_candidate_on_path(monkeypatch, tmp_path):
    monkeypatch.delenv("MAJCIRC_SAT_SOLVER", raising=False)
    for name in ("cadical", "kissat"):
        fake = tmp_path / name
        fake.write_text("#!/bin/sh\nexit 0\n")
        fake.chmod(0o755)
    monkeypatch.setenv("PATH", str(tmp_path))
    assert find_solver() == str(tmp_path / "kissat")


def test_run_solver_without_any_solver(monkeypatch, tmp_path):
    """With nothing configured or on PATH, the built-in solver answers."""
    monkeypatch.delenv("MAJCIRC_SAT_SOLVER", raising=False)
    monkeypatch.setattr("majcirc.search.shutil.which", lambda name: None)
    assert find_solver() == BUILTIN_SOLVER
    assert Path(BUILTIN_SOLVER).is_file()

    clauses = [[1, 2], [-1, 3], [-2, -3], [-3, 4]]
    sat_cnf = tmp_path / "sat.cnf"
    sat_cnf.write_text("p cnf 5 4\n" + "".join(f"{a} {b} 0\n" for a, b in clauses))
    model = run_solver(sat_cnf)
    assert isinstance(model, tuple)
    assert sorted(abs(lit) for lit in model) == [1, 2, 3, 4, 5]
    assert all(any(lit in model for lit in cl) for cl in clauses)

    unsat_cnf = tmp_path / "unsat.cnf"
    unsat_cnf.write_text("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
    assert run_solver(unsat_cnf) is None

    with pytest.raises(SolverError, match="no verdict"):
        run_solver(tmp_path / "absent.cnf")


# -- exhaustive engine -------------------------------------------------------


def test_exhaustive_raises_when_a_leaf_fails_verification(monkeypatch):
    """Every leaf is right on both critical layers by the pruning; should
    the check on all inputs disagree, the search raises instead of walking
    on past it."""
    monkeypatch.setattr(
        "majcirc.search.verify_all", lambda c: VerificationReport("exhaustive", 8, 1)
    )
    with pytest.raises(EncoderBug, match="^found circuit disagrees with the majority on 1 of 8 inputs"):
        exhaustive_search(SearchSpaceSpec(3, 3))


def test_exhaustive_finds_majority_of_majorities():
    c = exhaustive_search(SearchSpaceSpec(n=3, k=3))
    assert c is not None
    assert verify_all(c).errors == 0


def test_exhaustive_single_gate_space_is_empty():
    # the three weight-1 rows are dictators; none computes majority
    assert exhaustive_search(SearchSpaceSpec(n=3, k=1, multiplicity_max=1)) is None


def test_exhaustive_n5_k3_standard_is_infeasible():
    assert exhaustive_search(SearchSpaceSpec(n=5, k=3)) is None


def test_exhaustive_counts_stay_within_one_input_matrix():
    # the firing counts are summed a one-position column at a time, so no
    # (candidates x inputs x weight) array is ever held
    tracemalloc.start()
    try:
        assert exhaustive_search(SearchSpaceSpec(n=14, k=3)) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60 * 2**20


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


def first_circuit_in_order(spec: SearchSpaceSpec) -> tuple[LayeredCircuit | None, int]:
    """The first tuple of combinations_with_replacement over the candidates
    (rows in lexicographic order, thresholds 1..k within a row in full
    mode) that is right on both critical layers and on all inputs, and the
    number of tuples right on both critical layers up to it, each of which
    gets a verify_all call."""
    n, k = spec.n, spec.k
    rows = [v for v in product(range(spec.multiplicity_max + 1), repeat=n) if sum(v) == k]
    thetas = [spec.theta] if spec.standard_thresholds else range(1, k + 1)
    cands = [(v, t) for v in rows for t in thetas]
    w = majority_threshold(n)
    critical = [(ones, 1) for ones in combinations(range(n), w)]
    critical += [(ones, 0) for ones in combinations(range(n), w - 1)]
    # fires[c][a]: candidate c fires on critical input a
    fires = [[sum(v[i] for i in ones) >= t for ones, _ in critical] for v, t in cands]
    top = majority_gate(range(k))
    verified = 0
    for chosen in combinations_with_replacement(range(len(cands)), k):
        if any(
            (sum(fires[c][a] for c in chosen) >= top.theta) != bool(want)
            for a, (_, want) in enumerate(critical)
        ):
            continue
        gates = tuple(
            ThresholdGate(tuple((i, m) for i, m in enumerate(cands[c][0]) if m), cands[c][1])
            for c in chosen
        )
        circuit = LayeredCircuit(n=n, k=k, layers=(gates, (top,)), top=0)
        verified += 1
        if verify_all(circuit).errors == 0:
            return circuit, verified
    return None, verified


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exhaustive_returns_the_first_circuit_in_order(n):
    """The backtracking search returns exactly the first tuple in
    combinations_with_replacement order that works, and reaches as leaves
    only tuples right on both critical layers: its pruning keeps the
    visiting order, drops no solution and lets no wrong leaf through."""
    found = 0
    for k in range(1, n + 2):
        for mult in (1, 2):
            for standard in (True, False):
                spec = SearchSpaceSpec(
                    n=n, k=k, multiplicity_max=mult, standard_thresholds=standard
                )
                want, verified = first_circuit_in_order(spec)
                with mock.patch("majcirc.search.verify_all", wraps=verify_all) as leaves:
                    assert exhaustive_search(spec) == want, spec
                assert leaves.call_count == verified, spec
                found += want is not None
    assert found > 0


@pytest.mark.parametrize("block", [1, 300])
def test_exhaustive_tables_in_blocks_keep_every_result(block, monkeypatch):
    """Firing tables filled, and their rows read, a few cells at a time
    (one critical input per block at 1) give the same circuit, or None,
    after the same leaves as one block per table."""
    spaces = [
        SearchSpaceSpec(n=n, k=k, multiplicity_max=mult, standard_thresholds=standard or n > 4)
        for n in range(1, 6) for k in range(1, n + 1) for mult in (1, 2) for standard in (True, False)
    ] + [SearchSpaceSpec(n=6, k=4)]
    results = []
    for table_block in (None, block):
        if table_block is not None:
            monkeypatch.setattr("majcirc.search._TABLE_BLOCK", table_block)
        with mock.patch("majcirc.search.verify_all", wraps=verify_all) as leaves:
            results.append([(exhaustive_search(spec), leaves.call_count) for spec in spaces])
    assert results[0] == results[1]
    assert any(c is not None for c, _ in results[0]) and any(c is None for c, _ in results[0])


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
    model = run_solver(cnf)
    assert model is not None
    c = decode(instance, model)
    assert row_multiset(c) == row_multiset(published_circuit(tag))


# -- fooling inputs for fan-in n-2 circuits ----------------------------------


def test_fooling_input_worked_example():
    c = omission_circuit(5, [(1, 2), (3, 4), (4, 5)])
    a = fooling_input(c)
    assert a == Assignment((0, 0, 1, 1, 1))
    assert majority_value(a) == 1
    assert eval_circuit(c, a) == 0


def test_omission_components_shape():
    c = omission_circuit(7, [(1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
    comps = omission_components(c)
    verts = sorted(v for vertices, _ in comps for v in vertices)
    assert verts == list(range(1, 8))
    assert sum(len(edges) for _, edges in comps) == 5
    assert sum(len(edges) - len(vertices) for vertices, edges in comps) == -2
    assert [vertices for vertices, _ in comps] == [(1, 2, 3), (4, 5, 6, 7)]

    # vertices come in breadth-first order from the lowest vertex,
    # neighbours ascending: 1, then its neighbours 3 and 5, then theirs
    edges = [(1, 5), (1, 3), (2, 5), (3, 4), (6, 7)]
    comps = omission_components(omission_circuit(7, edges))
    assert comps == [((1, 3, 5, 4, 2), tuple(edges[:4])), ((6, 7), ((6, 7),))]


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_omission_components_always_has_two_trees(n):
    for seed in range(8):
        c = omission_circuit(n, random_omission_pairs(n, seed))
        p = [len(edges) - len(vertices) for vertices, edges in omission_components(c)]
        assert sum(p) == -2
        assert p.count(-1) >= 2


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
        edges = [e for _, comp_edges in omission_components(c) for e in comp_edges]
        assert len(edges) == n - 2
        covered = sum(1 for e in edges if zeros & set(e))
        assert covered <= l - 1


@pytest.mark.parametrize("n", [5, 7])
def test_fooling_input_on_every_omission_multiset(n):
    """All multisets of n-2 omitted pairs: 220 circuits at n=5, 53,130 at n=7."""
    l = (n - 1) // 2
    pairs = list(combinations(range(1, n + 1), 2))
    count = 0
    for omitted in combinations_with_replacement(pairs, n - 2):
        c = omission_circuit(n, list(omitted))
        a = fooling_input(c)
        assert a.weight == l + 1
        assert majority_value(a) == 1
        assert eval_circuit(c, a) == 0
        zeros = {i + 1 for i, b in enumerate(a.bits) if b == 0}
        assert sum(1 for e in omitted if zeros & set(e)) <= l - 1
        count += 1
    assert count == math.comb(len(pairs) + n - 3, n - 2)


@pytest.mark.parametrize(
    "omitted, bits",
    [
        # trees {6} and {7} are taken whole, then the tree {4, 5} gives the
        # tail of its BFS order, 5 (peeling its lowest leaf would give 4)
        ([(1, 2), (1, 2), (1, 2), (1, 3), (4, 5)], "1111000"),
        # the split component {1, ..., 5} is not a tree
        ([(1, 2), (1, 2), (1, 3), (1, 4), (1, 5)], "1111000"),
        # the smallest tree {3} alone is the whole coloring
        ([(1, 2)], "110"),
    ],
)
def test_fooling_input_examples(omitted, bits):
    c = omission_circuit(len(omitted) + 2, omitted)
    a = fooling_input(c)
    assert "".join(map(str, a.bits)) == bits
    assert majority_value(a) == 1
    assert eval_circuit(c, a) == 0


def test_fooling_preconditions_rejected():
    with pytest.raises(ValueError, match="odd"):
        fooling_input(omission_circuit(6, [(1, 2), (3, 4), (5, 6), (1, 3)]))
    one = LayeredCircuit(
        n=1, k=1, layers=((majority_gate([0]),), (majority_gate([0]),)), top=0
    )
    with pytest.raises(ValueError, match="odd n >= 3, got n=1"):
        fooling_input(one)
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

    # and read them at the standard threshold of its fan-in
    strict_top = ThresholdGate(((0, 1), (1, 1), (2, 1)), theta=3)
    c6 = LayeredCircuit(n=5, k=3, layers=(tuple(good), (strict_top,)), top=0)
    with pytest.raises(ValueError, match="^non-standard threshold on the top gate: 3 over fan-in 3$"):
        fooling_input(c6)
