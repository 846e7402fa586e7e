"""Exhaustive and sampled correctness checks against the majority function."""

import bisect
import collections
import dataclasses
import hashlib
import itertools
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majcirc.construct import (
    BlockParams,
    CorrelationParams,
    Depth3Params,
    build_block_circuit,
    build_correlation,
    build_depth3,
    default_block_params,
    published_circuit,
)
from majcirc import verify
from majcirc._rand import philox
from majcirc.core import (
    Assignment,
    LayeredCircuit,
    ThresholdGate,
    eval_circuit,
    majority_gate,
    majority_threshold,
    majority_value,
    parse_circuit,
    serialize_circuit,
)
from majcirc.verify import (
    CapExceeded,
    VerificationReport,
    _chunks,
    _rows,
    compile_circuit,
    estimate_agreement,
    eval_bulk,
    eval_counts,
    sample_class_counts,
    sample_layer_chunk,
    truth_table,
    verify_all,
    verify_minmax,
)


def constant_one_circuit(n: int) -> LayeredCircuit:
    g = ThresholdGate(((0, 1),), theta=0)
    return LayeredCircuit(n=n, k=1, layers=((g,),), top=0)


def single_majority(n: int) -> LayeredCircuit:
    return LayeredCircuit(n=n, k=n, layers=((majority_gate(range(n)),),), top=0)


# -- bulk evaluation ---------------------------------------------------------


def test_eval_bulk_matches_scalar_eval():
    c = published_circuit("n9")
    rows = np.array(
        [[1] * 9, [0] * 9, [1, 0] * 4 + [1], [0, 1] * 4 + [0]], dtype=np.uint8
    )
    out = eval_bulk(c, rows)
    for row, o in zip(rows, out):
        assert int(o) == eval_circuit(c, Assignment(tuple(int(v) for v in row)))


def test_eval_bulk_is_exact_past_float64_precision():
    # 2^53 + 1 is not a float64, so a float64 sum of 11 reads 2^53 + 2 - 1
    c = parse_circuit(
        "majcirc 1\nn 2 k 9007199254740994 depth 1\n"
        "gate 1:0 theta 9007199254740994 : x1*9007199254740993 x2*1\ntop g1:0\n"
    )
    rows = np.array([[1, 1], [1, 0], [0, 1]], dtype=np.uint8)
    assert eval_bulk(c, rows).tolist() == [1, 0, 0]
    assert compile_circuit(c).layers[0].dtype == np.int64


def test_eval_bulk_rejects_entries_other_than_0_and_1():
    # the packed float32 product carries an entry above 1 into the next
    # sum's digit: all 2s give layer-1 sums of 0 and 513, not 512 each
    plan = compile_circuit(build_correlation(CorrelationParams(1001, 256, 3)))
    twos = np.full((1, 1001), 2, dtype=np.uint8)
    assert np.unique(verify._sums(plan.layers[0], twos)).tolist() == [0, 513]
    for bad in (twos, np.full((1, 1001), -1), np.full((1, 1001), 0.5)):
        with pytest.raises(ValueError, match="0 or 1"):
            eval_bulk(plan, bad)
    assert eval_bulk(plan, np.ones((1, 1001), dtype=bool)).tolist() == [1]
    for shape in ((1001,), (1, 1000), (1, 1, 1001)):
        with pytest.raises(ValueError, match=rf"^expected a \(m, 1001\) bit matrix, got {re.escape(str(shape))}$"):
            eval_bulk(plan, np.zeros(shape, dtype=np.uint8))


# Weight ranges whose largest fan-in plus one (at most 6 inputs) falls in
# each arithmetic tier: float32, int64 and Python integers.  The int64 range
# spans 2^53, past which float64 sums would round.
TIERS = [
    (1, 3, np.float32),
    (2**24, 2**59, np.int64),
    (2**63, 2**80, object),
]


@st.composite
def tiered_circuits(draw):
    lo, hi, dtype = draw(st.sampled_from(TIERS))
    n = draw(st.integers(1, 6))
    layers = []
    width = n
    for _ in range(draw(st.integers(1, 3))):
        gates = []
        for _ in range(draw(st.integers(1, 4))):
            support = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=width, unique=True))
            weights = [draw(st.integers(lo, hi)) for _ in support]
            # thresholds at a subset sum plus -1, 0 or 1 land where rounding
            # would flip a comparison; others fall anywhere, outside 0..fanin too
            picked = draw(st.lists(st.booleans(), min_size=len(weights), max_size=len(weights)))
            near = sum(w for w, on in zip(weights, picked) if on) + draw(st.integers(-1, 1))
            theta = draw(st.one_of(st.just(near), st.integers(-3, sum(weights) + 3)))
            gates.append(ThresholdGate(tuple(zip(support, weights)), theta))
        layers.append(tuple(gates))
        width = len(gates)
    k = max(g.fanin for layer in layers for g in layer)
    top = draw(st.integers(0, width - 1))
    return LayeredCircuit(n=n, k=k, layers=tuple(layers), top=top), dtype


def assert_matches_eval_circuit(c: LayeredCircuit, dtype) -> None:
    """eval_bulk equals eval_circuit on every input, with all layer sums
    gathered and with all of them dense, and the plan takes step tables
    exactly above the layers whose gates share supports."""
    rows = np.array(list(itertools.product((0, 1), repeat=c.n)), dtype=np.uint8)
    expect = [eval_circuit(c, Assignment(tuple(int(v) for v in row))) for row in rows]
    for advantage in (0, math.inf):  # all gather sums, then all dense products
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "_DENSE_ADVANTAGE", advantage)
            plan = compile_circuit(c)
        assert plan.layers[0].dtype == dtype
        for below, lp in zip(plan.layers, plan.layers[1:]):
            assert (lp.steps is not None) == (below.group is not None)
        assert all((lp.matrix is not None) == (bool(advantage) and lp.steps is None) for lp in plan.layers)
        assert eval_bulk(plan, rows).tolist() == expect


@settings(max_examples=300, deadline=None)
@given(tiered_circuits())
def test_eval_bulk_matches_eval_layers_in_every_tier(case):
    assert_matches_eval_circuit(*case)


@st.composite
def shared_support_circuits(draw):
    """Circuits of two or three layers whose gates share supports: each
    weighted support carries one to four thresholds, near its subset sums,
    anywhere in -2..fanin+2, or far outside it (+-2^70, past int64)."""
    lo, hi, dtype = draw(st.sampled_from(TIERS))
    n = draw(st.integers(1, 6))
    layers = []
    width = n
    for _ in range(draw(st.integers(2, 3))):
        gates = []
        for _ in range(draw(st.integers(1, 3))):
            support = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=min(width, 6), unique=True))
            weights = [draw(st.integers(lo, hi)) for _ in support]
            first = None
            for _ in range(draw(st.integers(1, 4))):
                picked = draw(st.lists(st.booleans(), min_size=len(weights), max_size=len(weights)))
                near = sum(w for w, on in zip(weights, picked) if on) + draw(st.integers(-1, 1))
                theta = draw(st.one_of(
                    st.just(near), st.integers(-2, sum(weights) + 2), st.sampled_from([-(2**70), 2**70])
                ))
                # gates on one support share one inputs object or check their own
                if first and draw(st.booleans()):
                    gate = first.with_theta(theta)
                else:
                    gate = ThresholdGate(tuple(zip(support, weights)), theta)
                first = first or gate
                gates.append(gate)
        layers.append(tuple(draw(st.permutations(gates))))
        width = len(gates)
    k = max(g.fanin for layer in layers for g in layer)
    top = draw(st.integers(0, width - 1))
    return LayeredCircuit(n=n, k=k, layers=tuple(layers), top=top), dtype


@settings(max_examples=300, deadline=None)
@given(shared_support_circuits())
def test_step_tables_match_eval_circuit_in_every_tier(case):
    assert_matches_eval_circuit(*case)


def assert_parts_follow_their_definition(c: LayeredCircuit) -> None:
    """Each step table part, looked up alone through _sums, equals the
    binary-search definition cumulative[bisect_right(thresholds, x)], over
    the sorted clamped thresholds of its gates: at 0 and at every sum x from
    two under the least threshold to two past the largest; or, when it keeps
    the thresholds, at 0 and at every threshold and its neighbours."""
    plan = compile_circuit(c)
    for d, lp in enumerate(plan.layers[1:], start=1):
        if lp.steps is None:
            continue
        below, lower = plan.layers[d - 1], c.layers[d - 1]
        sigs = list(dict.fromkeys(g.inputs for g in c.layers[d]))
        for sig, parts in zip(sigs, lp.steps, strict=True):
            for part in parts:
                s = part[0]
                on_s = [(lower[p], w) for p, w in sig if below.group[p] == s]
                steps = sorted((min(max(g.theta, 0), g.fanin + 1), w) for g, w in on_s)
                thresholds = [t for t, _ in steps]
                cumulative = [0, *itertools.accumulate(w for _, w in steps)]
                if part[2] is None:
                    xs = sorted({0, *range(max(thresholds[0] - 2, 0), thresholds[-1] + 3)})
                else:
                    xs = sorted({0, *(x for t in thresholds for x in (t - 1, t, t + 1) if x >= 0)})
                rows = np.zeros((len(xs), below.columns), dtype=below.dtype)
                rows[:, s] = np.array(xs, dtype=below.dtype)
                got = verify._sums(dataclasses.replace(lp, steps=((part,),)), rows)[:, 0].tolist()
                expect = [cumulative[bisect.bisect_right(thresholds, x)] for x in xs]
                assert [int(v) for v in got] == expect


@settings(max_examples=200, deadline=None)
@given(shared_support_circuits())
def test_step_table_lookups_follow_the_binary_search_definition(case):
    assert_parts_follow_their_definition(case[0])


def test_step_tables_index_by_the_sum_up_to_a_chunk_of_entries():
    # weights 1; weight 8192 with thresholds 1 and 8191, a table of exactly
    # DEFAULT_CHUNK entries; and thresholds 1 and 8192, one entry more
    supports = (((0, 1), (1, 1)), ((0, 8192), (1, 1)), ((0, 8192), (1, 2)))
    bottom = []
    for inputs, thetas in zip(supports, ((1, 2), (1, 8191), (1, 8192))):
        first = ThresholdGate(inputs, thetas[0])
        bottom += [first, first.with_theta(thetas[1])]
    top = ThresholdGate(tuple((g, 1) for g in range(6)), 4)
    c = LayeredCircuit(n=2, k=8194, layers=(tuple(bottom), (top,)), top=0)
    (a, b, wide), = compile_circuit(c).layers[1].steps
    assert [(s, lo, len(table)) for s, lo, thresholds, table in (a, b) if thresholds is None] == [
        (0, 0, 3), (1, 0, verify.DEFAULT_CHUNK)
    ]
    assert wide[:2] == (2, None) and wide[2].tolist() == [1, 8192] and wide[3].tolist() == [0, 1, 2]
    assert_parts_follow_their_definition(c)
    assert_matches_eval_circuit(c, np.float32)


def test_unit_weights_reach_the_binary_search_fallback():
    # one block with every threshold 1..8192: the top gate's table would
    # need DEFAULT_CHUNK + 1 entries though every weight is 1
    c = build_block_circuit(BlockParams(8192, 8192, 8192))
    ((s, lo, thresholds, table),), = compile_circuit(c).layers[1].steps
    assert (s, lo) == (0, None)
    assert thresholds.tolist() == list(range(1, 8193)) and table.tolist() == list(range(8193))
    report = verify_minmax(c, samples=64, seed=1)
    assert (report.total_checked, report.errors) == (128, 0)


def test_a_table_shifted_by_one_is_caught(monkeypatch):
    # three thresholds on one sum under a majority of them: majority of three
    first = ThresholdGate(((0, 1), (1, 1), (2, 1)), 1)
    bottom = (first, first.with_theta(2), first.with_theta(3))
    c = LayeredCircuit(n=3, k=3, layers=(bottom, (majority_gate(range(3)),)), top=0)
    assert_matches_eval_circuit(c, np.float32)
    step_tables = verify._step_tables

    def as_if_left(*args):
        # each table counts the thresholds below the sum, as
        # searchsorted(..., side="left") would, not those it reaches
        tables = step_tables(*args)
        return tuple(tuple((s, lo + 1, None, table) for s, lo, _, table in parts) for parts in tables)

    monkeypatch.setattr(verify, "_step_tables", as_if_left)
    with pytest.raises(AssertionError):
        assert_matches_eval_circuit(c, np.float32)
    with pytest.raises(AssertionError):
        assert_parts_follow_their_definition(c)


def digit_circuit(fanin: int) -> LayeredCircuit:
    """Seven gates of the given fan-in on 8 variables, weights near
    fanin / 8 and different per gate, under one majority of them."""
    base, extra = divmod(fanin, 8)
    bottom = []
    for j in range(7):
        weights = [base + (i < extra) for i in range(8)]
        weights[j] -= 1
        weights[(j + 1) % 8] += 1
        bottom.append(ThresholdGate(tuple(enumerate(weights)), fanin // 2 + j))
    return LayeredCircuit(n=8, k=fanin, layers=(tuple(bottom), (majority_gate(range(7)),)), top=0)


def gather_plan(c: LayeredCircuit):
    """c compiled with every sum gathered, no dense product."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_DENSE_ADVANTAGE", 0)
        return compile_circuit(c)


@pytest.mark.parametrize(
    "fanin, base, width",
    [(255, 256, 3), (256, 512, 4), (4095, 4096, 4), (4096, 8192, 7)],
    ids=["B256-p3", "B512-p2", "B4096-p2", "B8192-p1"],
)
def test_packed_products_are_exact_at_the_digit_boundaries(fanin, base, width):
    # 7 sums in ceil(7 / p) product columns, so a digit past p would be
    # used and pass 2^24; at fan-in 4095 an all-ones row makes the largest
    # packed value, 4095 * 4097 = 2^24 - 1
    c = digit_circuit(fanin)
    dense, gathered = compile_circuit(c), gather_plan(c)
    first = dense.layers[0]
    assert first.dtype == np.float32 and first.base == base and first.matrix.shape == (8, width)
    assert gathered.layers[0].matrix is None
    rng = np.random.default_rng(fanin)
    rows = np.vstack([rng.integers(0, 2, size=(2000, 8), dtype=np.uint8), np.ones((2, 8), dtype=np.uint8)])
    if fanin == 4095:
        assert (rows[-1:].astype(np.float32) @ first.matrix).max() == 2**24 - 1
    sums = verify._sums(first, rows)
    assert np.array_equal(sums, verify._sums(gathered.layers[0], rows))
    assert sums[-1].tolist() == [fanin] * 7
    assert eval_bulk(dense, rows).tolist() == eval_bulk(gathered, rows).tolist()
    for top in range(7):  # each layer-1 gate as the top gate
        alone = LayeredCircuit(c.n, c.k, c.layers[:1], top)
        assert eval_bulk(alone, rows).tolist() == eval_bulk(gather_plan(alone), rows).tolist()


def test_truth_table_single_gate():
    c = single_majority(4)
    tt = truth_table(c)
    assert tt.shape == (16,)
    for idx in range(16):
        bits = tuple((idx >> (3 - i)) & 1 for i in range(4))
        assert int(tt[idx]) == majority_value(Assignment(bits))


# -- exhaustive verification -------------------------------------------------


def test_verify_all_published_n7():
    report = verify_all(published_circuit("n7"))
    assert report.mode == "exhaustive"
    assert report.total_checked == 128
    assert report.errors == 0
    assert report.checked_by_weight == {w: math.comb(7, w) for w in range(8)}
    assert report.errors_by_weight == {}
    assert report.agreement == 1


def test_verify_all_single_gate_is_exact():
    for n in [1, 2, 5, 8]:
        assert verify_all(single_majority(n)).errors == 0


def test_verify_all_constant_one():
    report = verify_all(constant_one_circuit(3))
    # wrong exactly below the majority threshold: weights 0 and 1
    assert report.errors == 4
    assert report.errors_by_weight == {0: 1, 1: 3}
    assert report.error_fraction(1) == 1
    assert report.error_fraction(2) == 0


def test_verify_all_cap():
    with pytest.raises(CapExceeded, match="exceeds the exhaustive cap"):
        verify_all(single_majority(12), cap=10)


def test_verify_all_refuses_n_past_64_before_making_jobs(monkeypatch):
    def no_jobs(*args):
        raise AssertionError("job list built for an input space over 2^64")

    monkeypatch.setattr(verify, "_chunks", no_jobs)
    with pytest.raises(CapExceeded, match="up to 64"):
        verify_all(single_majority(65), cap=100)


def test_verify_all_worker_count_does_not_change_the_report():
    c = published_circuit("n7")
    base = verify_all(c, workers=1).to_json()
    assert verify_all(c, workers=3).to_json() == base
    with mock.patch("majcirc.verify.DEFAULT_CHUNK", 17):
        assert verify_all(c, workers=2).to_json() == base


class InlinePool:
    """A stand-in for ProcessPoolExecutor that runs each job when its result
    is read and records the most jobs submitted and not yet read."""

    def __init__(self, max_workers, initializer, initargs):
        initializer(*initargs)
        self.open = self.most = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, job):
        self.open += 1
        self.most = max(self.most, self.open)
        return mock.Mock(result=lambda: self._read(fn, job))

    def _read(self, fn, job):
        self.open -= 1
        return fn(job)


def test_check_keeps_two_jobs_per_worker_in_flight(monkeypatch):
    pools = []

    def pool(**kwargs):
        pools.append(InlinePool(**kwargs))
        return pools[-1]

    monkeypatch.setattr(verify, "ProcessPoolExecutor", pool)
    c = published_circuit("n7")
    base = verify_all(c).to_json()
    with mock.patch("majcirc.verify.DEFAULT_CHUNK", 5):  # 26 jobs
        assert verify_all(c, workers=3).to_json() == base
    assert len(pools) == 1 and pools[0].most == 6 and pools[0].open == 0


# -- rank-range enumeration ---------------------------------------------------


def colex_rank(ones: tuple[int, ...]) -> int:
    """Rank of a strictly increasing tuple of one-positions in colex order."""
    r = 0
    for j, p in enumerate(sorted(ones), start=1):
        r += math.comb(p, j)
    return r


def colex_unrank(n: int, w: int, rank: int) -> tuple[int, ...]:
    """Inverse of colex_rank over 0-based position tuples of length w."""
    if not 0 <= rank < math.comb(n, w):
        raise ValueError(f"rank {rank} out of range for C({n},{w})")
    ones = []
    for j in range(w, 0, -1):
        p = j - 1
        while math.comb(p + 1, j) <= rank:
            p += 1
        ones.append(p)
        rank -= math.comb(p, j)
    return tuple(reversed(ones))


def test_colex_round_trip():
    n, w = 8, 3
    seen = set()
    for rank in range(math.comb(n, w)):
        ones = colex_unrank(n, w, rank)
        assert colex_rank(ones) == rank
        seen.add(ones)
    assert len(seen) == math.comb(n, w)
    assert colex_rank((0, 1, 2)) == 0
    for i in range(6):
        assert colex_rank((i,)) == i
    with pytest.raises(ValueError):
        colex_unrank(5, 2, 10)


def layer_rows(n: int, w: int) -> list[tuple[int, ...]]:
    """All weight-w rows of n bits in ascending value, x1 the top bit."""
    rows = [tuple(int(i in ones) for i in range(n)) for ones in itertools.combinations(range(n), w)]
    return sorted(rows, key=lambda bits: int("".join(map(str, bits)), 2))


def test_rows_layer_order():
    assert _rows(3, 2, 0, 3).tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_rows_layer_counts():
    rows = [tuple(r) for r in _rows(7, 4, 0, math.comb(7, 4)).tolist()]
    assert len(rows) == len(set(rows)) == 35
    assert all(sum(r) == 4 for r in rows)
    assert _rows(4, 0, 0, math.comb(4, 0)).tolist() == [[0, 0, 0, 0]]
    # a layer above n is empty: no chunks, no rows
    assert list(_chunks(math.comb(3, 5), 8)) == []
    assert _rows(3, 5, 0, 0).shape == (0, 3)


def test_rows_match_combinations_up_to_n12():
    for n in range(1, 13):
        for w in range(n + 1):
            got = [tuple(r) for r in _rows(n, w, 0, math.comb(n, w)).tolist()]
            assert got == layer_rows(n, w), (n, w)
        sweep = _rows(n, None, 0, 2**n).tolist()
        assert [tuple(r) for r in sweep] == list(itertools.product((0, 1), repeat=n))


def test_rows_agree_with_colex_unrank_up_to_n64():
    def ones_of(row):
        # bit p counted from the least significant end, i.e. from x_n
        return tuple(sorted(len(row) - 1 - i for i, v in enumerate(row) if v))

    rng = random.Random(1)
    cases = [(64, 32, math.comb(64, 32) - 5), (64, 1, 60), (64, 63, 60), (64, 0, 0)]
    for _ in range(40):
        n = rng.randint(1, 64)
        w = rng.randint(0, n)
        cases.append((n, w, rng.randrange(math.comb(n, w))))
    for n, w, lo in cases:
        hi = min(lo + 5, math.comb(n, w))
        for rank, row in zip(range(lo, hi), _rows(n, w, lo, hi).tolist()):
            assert ones_of(row) == colex_unrank(n, w, rank), (n, w, rank)
    last = _rows(64, 32, math.comb(64, 32) - 1, math.comb(64, 32))
    assert last.tolist() == [[1] * 32 + [0] * 32]


def test_chunks_tile_a_layer_once():
    n, w = 11, 5
    total = math.comb(n, w)
    chunks = list(_chunks(total, 37))
    assert [index for index, _, _ in chunks] == list(range(len(chunks)))
    assert all(hi - lo == 37 for _, lo, hi in chunks[:-1])
    tiled = np.concatenate([_rows(n, w, lo, hi) for _, lo, hi in chunks])
    assert [tuple(r) for r in tiled.tolist()] == layer_rows(n, w)


def test_chunks_are_made_lazily():
    # 2^17 chunks of the 2^30 inputs of n=30, read one at a time
    tracemalloc.start()
    try:
        last = collections.deque(_chunks(2**30, 8192), maxlen=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(last) == [(2**17 - 1, 2**30 - 8192, 2**30)]
    assert peak < 2**20


def test_sample_layer_shapes_and_weights():
    for n, w, count in [(12, 5, 1000), (9, 0, 40), (9, 9, 40), (1, 1, 3), (40, 20, 256)]:
        rows = sample_layer_chunk(n, w, count, seed=7, chunk_index=2)
        assert rows.shape == (count, n) and rows.dtype == np.uint8
        assert (rows.sum(axis=1) == w).all()


def test_sample_layer_rejects_weights_outside_the_layer():
    for w in (-1, 6):
        with pytest.raises(ValueError, match="out of range"):
            sample_layer_chunk(5, w, 10, seed=0, chunk_index=0)


def test_sample_layer_deterministic():
    # each chunk owns a derived stream, so (seed, chunk index) pins the draw exactly
    a = sample_layer_chunk(10, 4, 500, seed=3, chunk_index=1)
    assert (a == sample_layer_chunk(10, 4, 500, seed=3, chunk_index=1)).all()
    assert not (a == sample_layer_chunk(10, 4, 500, seed=4, chunk_index=1)).all()
    assert not (a == sample_layer_chunk(10, 4, 500, seed=3, chunk_index=0)).all()


def test_sample_layer_is_roughly_uniform():
    # chi-square over every cell of the layer at p = 0.001: 19 degrees of
    # freedom (n=6, w=3) and 34 (n=7, w=4)
    for n, w, bound in [(6, 3, 43.82), (7, 4, 65.25)]:
        cells = layer_rows(n, w)
        draws = 1000 * len(cells)
        rows = np.concatenate([sample_layer_chunk(n, w, draws // 2, seed=11, chunk_index=i) for i in range(2)])
        seen = {bits: 0 for bits in cells}
        for row in rows.tolist():
            seen[tuple(row)] += 1
        assert len(seen) == len(cells) == math.comb(n, w)
        chi2 = sum((got - 1000) ** 2 / 1000 for got in seen.values())
        assert chi2 < bound, (n, w, chi2)


def test_sample_layer_memory_is_about_one_byte_per_bit():
    n, count = 1001, 8192
    tracemalloc.start()
    try:
        rows = sample_layer_chunk(n, n // 2, count, seed=1, chunk_index=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (count, n)
    assert peak < 1.25 * n * count, f"traced peak {peak / (n * count):.2f} bytes per bit"


# -- critical-layer verification ---------------------------------------------


def test_verify_minmax_exact_published_n11():
    report = verify_minmax(published_circuit("n11"))
    assert report.mode == "layers"
    assert report.total_checked == math.comb(11, 6) + math.comb(11, 5) == 924
    assert report.errors == 0


def test_verify_minmax_constant_one():
    report = verify_minmax(constant_one_circuit(5))
    assert report.checked_by_weight == {3: math.comb(5, 3), 2: math.comb(5, 2)}
    assert report.errors == math.comb(5, 2)
    assert report.error_fraction(2) == 1
    assert report.error_fraction(3) == 0


def test_verify_minmax_n1():
    report = verify_minmax(single_majority(1))
    assert report.total_checked == 2  # weights 1 and 0
    assert report.errors == 0


def test_minmax_decides_full_correctness_for_monotone_circuits():
    """Zero errors on the two critical layers iff zero errors anywhere."""
    circuits = [
        published_circuit("intro7"),
        published_circuit("n9"),
        build_block_circuit(BlockParams(n=16, p=4, window_t=2)),
        build_block_circuit(BlockParams(n=16, p=4, window_t=4)),
        build_depth3(Depth3Params(b=2)),
        build_correlation(CorrelationParams(n=9, k=3, seed=0)),
        build_correlation(CorrelationParams(n=11, k=5, seed=2)),
    ]
    for c in circuits:
        exact = verify_all(c).errors == 0
        minmax = verify_minmax(c).errors == 0
        assert exact == minmax


def test_verify_minmax_sampled():
    c = published_circuit("n9")
    report = verify_minmax(c, samples=500, seed=3)
    assert report.mode == "sample"
    assert report.seed == 3
    assert report.total_checked == 1000
    assert report.checked_by_weight == {5: 500, 4: 500}
    assert report.errors == 0
    again = verify_minmax(c, samples=500, seed=3)
    assert again.to_json() == report.to_json()


def test_verify_minmax_sampled_needs_seed():
    with pytest.raises(ValueError, match="seed"):
        verify_minmax(published_circuit("n9"), samples=10)


@pytest.mark.parametrize("samples", [0, -5])
def test_verify_minmax_sampled_rejects_empty_run(samples):
    with pytest.raises(ValueError, match="at least one sample"):
        verify_minmax(published_circuit("n9"), samples=samples, seed=0)


def test_verify_minmax_sampled_sees_errors():
    report = verify_minmax(constant_one_circuit(9), samples=400, seed=1)
    assert report.errors_by_weight == {4: 400}
    assert report.error_fraction(4) == 1


def test_verify_minmax_exact_cap():
    with pytest.raises(CapExceeded, match="sampled mode"):
        verify_minmax(single_majority(24), cap=10**4)
    # C(65, 33) + C(65, 32), about 7.2e18 rows, under a cap of 1e19
    with pytest.raises(CapExceeded, match="^exact layer enumeration supports n up to 64$"):
        verify_minmax(single_majority(65), cap=10**19)


def test_truth_table_cap_and_the_empty_report():
    with pytest.raises(CapExceeded, match=r"^n=31 exceeds the exhaustive cap 30; use verify_minmax"):
        truth_table(single_majority(31))
    with pytest.raises(ValueError, match="^empty report has no agreement rate$"):
        VerificationReport("sample", 0, 0).agreement


def test_verify_minmax_exact_memory_stays_per_chunk():
    # 705432 rows of 21 bits; holding them at once would take over 14 MB
    c = single_majority(21)
    tracemalloc.start()
    try:
        report = verify_minmax(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.total_checked == 2 * math.comb(21, 11) and report.errors == 0
    assert peak < 4 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def test_verify_minmax_worker_count_does_not_change_the_report():
    c = build_correlation(CorrelationParams(n=15, k=5, seed=9))
    base = verify_minmax(c, samples=300, seed=5, workers=1).to_json()
    assert verify_minmax(c, samples=300, seed=5, workers=2).to_json() == base
    assert verify_minmax(c, samples=300, seed=5, workers=4).to_json() == base


# -- shared gate inputs -------------------------------------------------------


def unshared(c: LayeredCircuit) -> LayeredCircuit:
    """c with every gate's inputs checked into an object of its own."""
    layers = tuple(
        tuple(ThresholdGate(g.inputs, g.theta) for g in layer) for layer in c.layers
    )
    return LayeredCircuit(c.n, c.k, layers, c.top)


def same_plan(x, y) -> bool:
    """Field-by-field equality of plans, arrays compared with their dtypes;
    step tables are tuples of (support, lo, thresholds, table) entries."""
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and x.dtype == y.dtype and np.array_equal(x, y)
    if dataclasses.is_dataclass(x):
        return type(x) is type(y) and all(
            same_plan(getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x)
        )
    if isinstance(x, tuple):
        return type(y) is tuple and len(x) == len(y) and all(map(same_plan, x, y))
    return type(x) is type(y) and x == y


# -- compile_circuit against a per-entry reference ---------------------------


def reference_sum_form(sigs: list, width: int, dtype, top: int) -> dict:
    """LayerPlan matrix, base and supports of the sums of sigs, built entry
    by entry; the dense matrix puts base^i times sum c + i*h in column c."""
    gather_cost = sum(len(sig) for sig in sigs)
    if width * (verify._DENSE_ADVANTAGE + len(sigs)) <= verify._DENSE_ADVANTAGE * gather_cost:
        plain = np.zeros((width, len(sigs)), dtype=dtype)
        rows = [p for sig in sigs for p, _ in sig]
        cols = [j for j, sig in enumerate(sigs) for _ in sig]
        plain[rows, cols] = np.array([w for sig in sigs for _, w in sig], dtype=dtype)
        base = 2 ** top.bit_length()
        digits = 24 // top.bit_length() if dtype == np.float32 else 1
        h = -(-len(sigs) // digits)
        matrix = np.zeros((width, h), dtype=dtype)
        for c in range(h):
            for i in range(digits):
                if c + i * h < len(sigs):
                    matrix[:, c] += base**i * plain[:, c + i * h]
        return {"matrix": matrix, "base": base, "supports": ()}
    supports = []
    for sig in sigs:
        positions = [p for p, _ in sig]
        start, stop = positions[0], positions[-1] + 1
        if stop - start == len(positions):
            idx = slice(start, stop)
        else:
            idx = np.asarray(positions, dtype=np.intp)
        wts = None
        if any(w != 1 for _, w in sig):
            wts = np.array([w for _, w in sig], dtype=dtype)
        supports.append((idx, wts))
    return {"matrix": None, "base": 0, "supports": tuple(supports)}


def reference_step_tables(sigs: list, below, dtype) -> tuple:
    """Step tables of sigs over the sums of the layer below, entry by entry:
    per support below, the weight at each sum from one under the least
    threshold to the largest, or the sorted thresholds and their
    cumulative weights when that is more than DEFAULT_CHUNK sums."""
    tables = []
    for sig in sigs:
        parts = []
        for s in sorted({int(below.group[p]) for p, _ in sig}):
            steps = sorted((int(below.theta[p]), w) for p, w in sig if below.group[p] == s)
            lo, hi = steps[0][0] - 1, steps[-1][0]
            if hi - lo < verify.DEFAULT_CHUNK:
                table = [sum(w for t, w in steps if t <= v) for v in range(lo, hi + 1)]
                parts.append((s, lo, None, np.array(table, dtype=dtype)))
            else:
                thresholds = np.array([t for t, _ in steps], dtype=below.dtype)
                cumulative = np.array([0, *itertools.accumulate(w for _, w in steps)], dtype=dtype)
                parts.append((s, None, thresholds, cumulative))
        tables.append(tuple(parts))
    return tuple(tables)


def reference_compile_layer(gates, width: int, below):
    """compile_circuit's layer, its distinct supports and largest fan-in,
    from per-entry Python loops."""
    columns: dict[tuple, int] = {}
    group = [columns.setdefault(g.inputs, len(columns)) for g in gates]
    sigs = list(columns)
    fanins = [sum(w for _, w in sig) for sig in sigs]
    dtype = verify._arithmetic(max(fanins) + 1)
    theta = np.array([min(max(g.theta, 0), fanins[j] + 1) for g, j in zip(gates, group)], dtype=dtype)
    grouped = None if len(sigs) == len(gates) else np.asarray(group, dtype=np.intp)
    if below is not None and below.group is not None:
        steps = reference_step_tables(sigs, below, dtype)
        return verify.LayerPlan(dtype, theta, grouped, len(sigs), None, 0, (), steps), sigs, max(fanins)
    form = reference_sum_form(sigs, width, dtype, max(fanins))
    return verify.LayerPlan(dtype, theta, grouped, len(sigs), steps=None, **form), sigs, max(fanins)


def reference_compile(c: LayeredCircuit):
    """compile_circuit from per-entry Python loops: variable columns as
    tuples of (support, weight) pairs, classes numbered by first variable.
    The class form is built for every circuit; when every class is one
    variable it equals layer 1, which compile_circuit uses itself."""
    first, sigs, top = reference_compile_layer(c.layers[0], c.n, None)
    layers = [first]
    for lower, gates in zip(c.layers, c.layers[1:]):
        layers.append(reference_compile_layer(gates, len(lower), layers[-1])[0])
    var_columns: list[list[tuple[int, int]]] = [[] for _ in range(c.n)]
    for j, sig in enumerate(sigs):
        for p, w in sig:
            var_columns[p].append((j, w))
    ids: dict[tuple, int] = {}
    class_of = [ids.setdefault(tuple(col), len(ids)) for col in var_columns]
    sizes = np.bincount(class_of, minlength=len(ids))
    class_sigs: list[list[tuple[int, int]]] = [[] for _ in sigs]
    for cls, col in enumerate(ids):
        for j, w in col:
            class_sigs[j].append((cls, w))
    classes = dataclasses.replace(first, **reference_sum_form(class_sigs, len(ids), first.dtype, top))
    return verify.Plan(c.n, c.top, tuple(layers), sizes, classes)


@pytest.mark.parametrize(
    "build",
    [
        lambda: published_circuit("n7"),
        lambda: published_circuit("n9"),
        lambda: published_circuit("n11"),
        lambda: build_correlation(CorrelationParams(n=41, k=9, seed=3)),
        lambda: build_correlation(CorrelationParams(n=1001, k=256, seed=1)),
        lambda: build_block_circuit(default_block_params(4096)),
        lambda: build_depth3(Depth3Params(3)),
        lambda: weighted_block_circuit(),
    ],
    ids=["n7", "n9", "n11", "corr41", "corr1001", "block4096", "depth3_b3", "weighted-blocks"],
)
def test_compile_matches_the_per_entry_reference(build):
    c = build()
    assert same_plan(compile_circuit(c), reference_compile(c))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_DENSE_ADVANTAGE", math.inf)  # every sum dense
        assert same_plan(compile_circuit(c), reference_compile(c))


@settings(max_examples=100, deadline=None)
@given(st.one_of(tiered_circuits(), shared_support_circuits()))
def test_compile_matches_the_per_entry_reference_in_every_tier(case):
    c, _ = case
    for advantage in (0, math.inf):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "_DENSE_ADVANTAGE", advantage)
            assert same_plan(compile_circuit(c), reference_compile(c))


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_block_circuit(default_block_params(4096)),
        lambda: build_depth3(Depth3Params(3)),
    ],
    ids=["block4096", "depth3_b3"],
)
def test_shared_inputs_compile_and_verify_like_unshared_ones(build):
    c = parse_circuit(serialize_circuit(build()))
    alone = unshared(c)
    assert len({id(g.inputs) for g in c.layers[0]}) < len(c.layers[0])
    assert len({id(g.inputs) for g in alone.layers[0]}) == len(alone.layers[0])
    plan = compile_circuit(c)
    assert same_plan(plan, compile_circuit(alone))
    assert not same_plan(plan, compile_circuit(build_depth3(Depth3Params(2))))
    # the steps of the top gate's first table moved by one: a different plan
    top = plan.layers[-1]
    (s, lo, thresholds, table), *rest = top.steps[0]
    moved = dataclasses.replace(top, steps=(((s, lo + 1, thresholds, table), *rest), *top.steps[1:]))
    assert not same_plan(plan, dataclasses.replace(plan, layers=(*plan.layers[:-1], moved)))
    with mock.patch("majcirc.verify.DEFAULT_CHUNK", 500):
        base = verify_minmax(alone, samples=1500, seed=8).to_json()
        for workers in (1, 2):
            assert verify_minmax(c, samples=1500, seed=8, workers=workers).to_json() == base


def test_step_tables_follow_the_plan_shape():
    # one gate per support: every layer hands up its gates' 0/1 outputs
    for c in (published_circuit("n9"), build_correlation(CorrelationParams(n=41, k=9, seed=3))):
        plan = compile_circuit(c)
        assert all(lp.group is None and lp.steps is None for lp in plan.layers)
    # many thresholds per support: every layer above the first reads the
    # sums below through one table indexed by the sum per pair of supports
    block = compile_circuit(build_block_circuit(default_block_params(4096)))
    depth3 = compile_circuit(build_depth3(Depth3Params(3)))
    for plan, pairs in ((block, [16]), (depth3, [9, 3])):
        above = plan.layers[1:]
        assert all(lp.steps is not None and lp.matrix is None and lp.supports == () for lp in above)
        assert [sum(map(len, lp.steps)) for lp in above] == pairs
        assert all(thresholds is None for lp in above for parts in lp.steps for _, _, thresholds, _ in parts)
    # the top gate reads each of the 1840 window gates once: the tables'
    # totals, at their largest sums, count them
    assert sum(table[-1] for _, _, _, table in block.layers[1].steps[0]) == 1840


def test_eval_counts_memory_stays_per_support():
    # per-gate sum columns would take 8192 x 1840 float32s, about 60 MB
    plan = compile_circuit(build_block_circuit(default_block_params(4096)))
    w = majority_threshold(4096)
    counts = sample_class_counts(plan.sizes, w, 8192, seed=1, chunk_index=0)
    tracemalloc.start()
    try:
        out = eval_counts(plan, counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.tolist() == [1] * 8192
    assert peak < 8 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


# -- variable classes ---------------------------------------------------------


def test_class_compression_rule():
    block = compile_circuit(build_block_circuit(default_block_params(4096)))
    assert block.sizes.tolist() == [256] * 16 and block.classes is not block.layers[0]
    depth3 = compile_circuit(build_depth3(Depth3Params(b=3)))
    assert depth3.sizes.tolist() == [18] * 3 and depth3.classes is not depth3.layers[0]
    # the published circuits read every variable differently: one variable
    # per class, so the class layer is layer 1 and counts are bits
    n9 = compile_circuit(published_circuit("n9"))
    assert n9.sizes.tolist() == [1] * 9 and n9.classes is n9.layers[0]
    bits = np.array([[1, 1, 1, 1, 1, 0, 0, 0, 0], [1, 1, 1, 1, 0, 0, 0, 0, 0]])
    assert eval_counts(n9, bits).tolist() == eval_bulk(n9, bits).tolist() == [1, 0]
    # 32 classes do not compress (8 * 32 > 41): the class layer is
    # compiled, but sampling draws bit rows
    c = build_correlation(CorrelationParams(n=41, k=9, seed=3))
    corr = compile_circuit(c)
    assert len(corr.sizes) == 32 and corr.classes is not corr.layers[0]
    with mock.patch("majcirc.verify.sample_class_counts", side_effect=AssertionError):
        assert verify_minmax(c, samples=100, seed=2).total_checked == 200
    # variables no gate reads form one class of their own
    idle = LayeredCircuit(n=16, k=2, layers=((ThresholdGate(((0, 1), (1, 1)), 1),),), top=0)
    assert compile_circuit(idle).sizes.tolist() == [2, 14]


def test_eval_counts_rejects_counts_outside_the_class_sizes():
    plan = compile_circuit(build_depth3(Depth3Params(b=2)))
    assert plan.sizes.tolist() == [8, 8]
    for bad in ([9, 0], [0, -1]):
        with pytest.raises(ValueError, match="class sizes"):
            eval_counts(plan, np.array([[8, 8], bad]))
    assert eval_counts(plan, np.array([[8, 8], [0, 0]])).tolist() == [1, 0]
    for shape in ((2,), (1, 3)):
        with pytest.raises(ValueError, match=rf"^expected a \(m, 2\) count matrix, got {re.escape(str(shape))}$"):
            eval_counts(plan, np.zeros(shape, dtype=np.int64))


def class_members(c: LayeredCircuit) -> list[list[int]]:
    """Variables grouped by their weight column into layer 1, groups in
    order of their first variable (the Plan's class order)."""
    columns: dict[int, list] = {v: [] for v in range(c.n)}
    for gate in c.layers[0]:
        for v, w in gate.inputs:
            columns[v].append((gate.inputs, w))
    groups: dict[tuple, list[int]] = {}
    for v in range(c.n):
        groups.setdefault(tuple(columns[v]), []).append(v)
    return list(groups.values())


def expand_counts(circuit, counts, rng):
    """One bit row per count row: c_j ones on random members of class j."""
    bits = np.zeros((len(counts), circuit.n), dtype=np.uint8)
    members = class_members(circuit)
    for row, cnt in zip(bits, counts):
        for m, c in zip(members, cnt):
            row[rng.choice(m, size=c, replace=False)] = 1
    return bits


def weighted_block_circuit() -> LayeredCircuit:
    """Four blocks of 8 read with block-dependent weights, some gates
    spanning two blocks, pooled by a weighted top gate."""
    blocks = [range(8 * b, 8 * b + 8) for b in range(4)]
    bottom = []
    for b, block in enumerate(blocks):
        for m in (3, 5, 9):
            bottom.append(ThresholdGate(tuple((v, b + 1) for v in block), m * (b + 1) // 2))
    pair = tuple((v, 1) for v in blocks[0]) + tuple((v, 3) for v in blocks[1])
    bottom += [ThresholdGate(pair, 14), ThresholdGate(pair, 17)]
    top = ThresholdGate(tuple((g, 1 + g % 2) for g in range(len(bottom))), 11)
    k = max(g.fanin for g in bottom + [top])
    return LayeredCircuit(n=32, k=k, layers=(tuple(bottom), (top,)), top=0)


@pytest.mark.parametrize(
    "circuit",
    [
        build_block_circuit(BlockParams(n=64, p=8, window_t=2)),
        build_depth3(Depth3Params(b=2)),
        build_depth3(Depth3Params(b=3)),
        weighted_block_circuit(),
        published_circuit("n9"),
        build_correlation(CorrelationParams(n=41, k=9, seed=3)),
    ],
    ids=["block64-window2", "depth3-b2", "depth3-b3", "weighted-blocks", "n9", "corr41"],
)
def test_class_counts_evaluate_like_their_bit_rows(circuit):
    plan = compile_circuit(circuit)
    assert [len(m) for m in class_members(circuit)] == plan.sizes.tolist()
    rng = np.random.default_rng(0)
    w_min = majority_threshold(circuit.n)
    outs = []
    for w in (w_min, w_min - 1):
        counts = sample_class_counts(plan.sizes, w, 500, seed=4, chunk_index=0)
        assert (counts.sum(axis=1) == w).all() and (counts <= plan.sizes).all()
        out = eval_counts(plan, counts)
        assert out.tolist() == eval_bulk(circuit, expand_counts(circuit, counts, rng)).tolist()
        outs.append(out)
    assert 0 < np.concatenate(outs).sum() < 2 * len(outs[0])  # both outputs occur


def class_subset_circuit(sizes, weights, subsets) -> LayeredCircuit:
    """One layer-1 gate per subset of classes, reading class j's sizes[j]
    variables (numbered class by class) with weight weights[j], under a
    majority of those gates."""
    starts = list(itertools.accumulate(sizes, initial=0))
    bottom = []
    for sub in subsets:
        inputs = tuple((v, weights[j]) for j in sorted(sub) for v in range(starts[j], starts[j + 1]))
        bottom.append(ThresholdGate(inputs, (sum(w for _, w in inputs) + 1) // 2))
    k = max(len(bottom), max(g.fanin for g in bottom))
    return LayeredCircuit(n=starts[-1], k=k, layers=(tuple(bottom), (majority_gate(range(len(bottom))),)), top=0)


def nonempty_subsets(items):
    return [set(sub) for r in range(1, len(items) + 1) for sub in itertools.combinations(items, r)]


@pytest.mark.parametrize(
    "circuit, dense_bits",
    [
        # a class of 100 in one support makes bit rows gather and count rows dense
        (class_subset_circuit([100, 1, 1, 1, 1], [1] * 5,
                              [s | {0} if len(s) == 4 else s for s in nonempty_subsets(range(1, 5))]), False),
        (class_subset_circuit([8] * 4, [1, 2, 3, 4], nonempty_subsets(range(4))), True),
    ],
    ids=["gathered-bits", "dense-bits"],
)
def test_class_layer_packs_its_own_product(circuit, dense_bits):
    # largest fan-in 104 or 80: base 128 and 3 digits, 15 sums in 5 columns
    plan = compile_circuit(circuit)
    assert (plan.layers[0].matrix is not None) == dense_bits
    assert plan.classes.base == 128 and plan.classes.matrix.shape == (len(plan.sizes), 5)
    rng = np.random.default_rng(6)
    counts = np.vstack([rng.integers(0, plan.sizes + 1, size=(1000, len(plan.sizes))), plan.sizes[None, :]])
    bits = expand_counts(circuit, counts, rng)
    assert np.array_equal(verify._sums(plan.classes, counts), verify._sums(plan.layers[0], bits))
    out = eval_counts(plan, counts)
    assert out.tolist() == eval_bulk(plan, bits).tolist() and 0 < out.sum() < len(out)


def test_class_counts_follow_the_hypergeometric_law():
    sizes = compile_circuit(build_block_circuit(BlockParams(n=12, p=4, window_t=2))).sizes
    n, w, draws = 12, 6, 30000
    counts = np.concatenate([sample_class_counts(sizes, w, 10000, seed=2, chunk_index=i) for i in range(3)])
    seen: dict[tuple, int] = {}
    for row in counts.tolist():
        seen[tuple(row)] = seen.get(tuple(row), 0) + 1
    cells = [c for c in itertools.product(range(5), repeat=3) if sum(c) == w]
    assert len(cells) == 19 and set(seen) <= set(cells)
    chi2 = 0.0
    for cell in cells:
        pmf = math.prod(math.comb(int(s), c) for s, c in zip(sizes, cell)) / math.comb(n, w)
        chi2 += (seen.get(cell, 0) - draws * pmf) ** 2 / (draws * pmf)
    assert chi2 < 42.31  # chi-square, 18 degrees of freedom, p = 0.001


class ScriptedBits:
    """A bit generator whose random_raw hands out the given 64-bit words."""

    def __init__(self, words):
        self.words = list(words)

    def random_raw(self, size=None):
        if size is None:
            return self.words.pop(0)
        out = np.array(self.words[:size], dtype=np.uint64)
        assert len(out) == size, "script ran out of words"
        del self.words[:size]
        return out


def hypergeometric_cells(sizes, w):
    """Every count row of weight w, with its hypergeometric probability."""
    n = sum(sizes)
    cells = [c for c in itertools.product(*(range(s + 1) for s in sizes)) if sum(c) == w]
    return {c: math.prod(math.comb(s, x) for s, x in zip(sizes, c)) / math.comb(n, w) for c in cells}


def draw_by_rejection(sizes, w, count, seed):
    return verify._rejection_counts(np.array(sizes), w, count, np.random.Philox(seed))


def draw_by_shuffle(sizes, w, count, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.multivariate_hypergeometric(sizes, w, size=count, method="count")


# chi-square at p = 0.001: 23 degrees of freedom (w=6), 22 (w=5)
@pytest.mark.parametrize("w,bound", [(6, 49.73), (5, 48.27)])
@pytest.mark.parametrize("draw", [draw_by_rejection, draw_by_shuffle], ids=["rejection", "shuffle"])
def test_each_class_draw_follows_the_law_on_unequal_sizes(draw, w, bound):
    sizes, draws = [1, 2, 3, 6], 30000
    pmf = hypergeometric_cells(sizes, w)
    assert len(pmf) == 24 if w == 6 else 23
    seen: dict[tuple, int] = {}
    for row in draw(sizes, w, draws, 3).tolist():
        seen[tuple(row)] = seen.get(tuple(row), 0) + 1
    assert set(seen) <= set(pmf)
    chi2 = sum((seen.get(c, 0) - draws * p) ** 2 / (draws * p) for c, p in pmf.items())
    assert chi2 < bound


def test_class_draw_choice_follows_the_cost_rule():
    block = compile_circuit(build_block_circuit(default_block_params(4096))).sizes
    assert verify._rejection_pays(block, 2048) and verify._rejection_pays(block, 2047)
    assert not verify._rejection_pays(np.array([16] * 256), 2048)  # BlockParams(4096, 16, 4)
    assert not verify._rejection_pays(np.array([5, 5]), 0)
    # the float rule agrees with its exact integer form
    for sizes in ([1, 2, 3, 6], [18] * 3, [8, 8], [64] * 64, [1, 40], [30, 2, 2, 2]):
        n, big, c = sum(sizes), max(sizes), len(sizes)
        for w in range(n + 1):
            cost = verify._REJECTION_COST * (c - 1) * math.comb(big, big // 2) << (n - big)
            exact = 0 < min(w, n - w) and cost <= min(w, n - w) * math.comb(n, w)
            assert verify._rejection_pays(np.array(sizes), w) == exact, (sizes, w)
    # A = 2 C(7, 3) / C(8, 4) = 1: the cost 4 * A * (C - 1) = 4 equals the
    # min(4, 4) shuffle steps, a tie the exact integer comparison settles
    for sizes in ([1, 7], [7, 1]):
        assert verify._rejection_pays(np.array(sizes), 4)


def test_sample_class_counts_checks_its_weight_and_one_class():
    with pytest.raises(ValueError, match="weight 13 out of range 0..12"):
        sample_class_counts(np.array([4, 8]), 13, 5, seed=0, chunk_index=0)
    with pytest.raises(ValueError, match="weight -1 out of range"):
        sample_class_counts(np.array([4, 8]), -1, 5, seed=0, chunk_index=0)
    rows = sample_class_counts(np.array([7]), 3, 4, seed=0, chunk_index=0)
    assert rows.dtype == np.int64 and rows.tolist() == [[3]] * 4
    assert sample_class_counts([7], 0, 1, seed=0, chunk_index=0).tolist() == [[0]]


def reference_below(words, num, den):
    """(V < num/den, words read) for V in [0, 1) beginning with words, or
    None when the words do not decide it."""
    bound = Fraction(num, den)
    for k in range(1, len(words) + 1):
        low = Fraction(int("".join(f"{u:064b}" for u in words[:k]), 2), 2 ** (64 * k))
        if low + Fraction(1, 2 ** (64 * k)) <= bound:
            return True, k
        if low >= bound:
            return False, k
    return None


def expansion_words(num, den, count):
    """The first count 64-bit words of num/den in binary."""
    return [(num << 64 * k) // den % 2**64 for k in range(1, count + 1)]


@settings(max_examples=200, deadline=None)
@given(
    den=st.integers(1, 2**200),
    frac=st.floats(0, 1, exclude_max=True),
    ties=st.integers(0, 3),
    step=st.sampled_from([-1, 1, 2**40, -(2**40)]),
)
def test_below_settles_equal_words_exactly(den, frac, ties, step):
    num = int(frac * den)
    # the first words equal the expansion of num/den, the next one leaves it
    words = expansion_words(num, den, ties + 1)
    last = words[-1] + step
    words[-1] = last if 0 <= last < 2**64 else words[-1] - step
    want = reference_below(words, num, den)
    assert want is not None  # dyadic num/den can be decided sooner
    # the helper gets the leading word and draws the rest from the script
    script = ScriptedBits(words[1:] + [12345])
    prefix = words[:1]
    assert verify._below(script, prefix, num, den) == want[0]
    assert prefix == words[: want[1]]


def test_below_on_exact_and_unit_fractions():
    # V = 1/2 exactly is not below 1/2; one word short of it is
    assert verify._below(ScriptedBits([]), [2**63], 1, 2) is False
    assert verify._below(ScriptedBits([]), [2**63 - 1], 1, 2) is True
    # every V is below 1, even with its leading word all ones
    assert verify._below(ScriptedBits([]), [2**64 - 1], 6, 6) is True
    # 1/3 = 0.0101...: tie twice, then decided by the third word
    third = expansion_words(1, 3, 3)
    assert verify._below(ScriptedBits([third[1], third[2] - 1]), [third[0]], 1, 3) is True
    assert verify._below(ScriptedBits([third[1], third[2] + 1]), [third[0]], 1, 3) is False


def test_rejection_draw_settles_ties_exactly():
    # classes of 2 (the largest, L) and 1; Bin(1, 1/2) has floor 2^63
    sizes = np.array([2, 1])
    # class 1 draws 2^63 + 5: y = 1, so b = 0, kept with probability
    # C(2, 0) / C(2, 1) = 1/2, whose floor 2^63 the word ties; V >= 1/2,
    # so the row is rejected.  The redraw 0 gives y = 0, b = 1, ratio 1.
    words = [2**63 + 5, 2**63, 0, 2**64 - 1]
    assert verify._rejection_counts(sizes, 1, 1, ScriptedBits(words)).tolist() == [[1, 0]]
    # a binomial word on its table floor: V = 1/2 is not below
    # P(Bin(1, 1/2) <= 0) = 1/2, so y = 1 and b = 1, ratio 1
    words = [2**63, 7]
    assert verify._rejection_counts(sizes, 2, 1, ScriptedBits(words)).tolist() == [[1, 1]]


@pytest.mark.parametrize("continuation,y", [(0, 0), (2**27, 0), (2**28, 1), (2**40, 2), (2**63, 8)])
def test_binomial_draw_shares_one_continuation_across_tied_floors(continuation, y):
    # Bin(100, 1/2): P(<= x) < 2^-64 for x up to 7, so those floors are 0
    # and a leading word 0 ties all of them
    assert verify._binomial_floors(100)[:9].tolist() == [0] * 8 + [2]
    v = Fraction(continuation, 2**128)
    cdf = itertools.accumulate(math.comb(100, x) for x in range(101))
    assert y == sum(v >= Fraction(c, 2**100) for c in cdf)
    words = np.array([0], dtype=np.uint64)
    assert verify._binomial_draws(ScriptedBits([continuation]), 100, words).tolist() == [y]


GUIDE_SIZES = (1, 2, 7, 100, 255, 256, 300, 4097)


def guide_words(floors):
    """Every floor - 1, floor and floor + 1, modulo 2^64, and the first and
    last word of every top-16-bit bucket, as sorted distinct uint64."""
    starts = np.arange(1 << 16, dtype=np.uint64) << np.uint64(48)
    one = np.uint64(1)
    words = [floors - one, floors, floors + one, starts, starts + np.uint64(2**48 - 1)]
    return np.unique(np.concatenate(words))


def assert_guide_matches_search(floors, lo, mixed):
    words = guide_words(floors)
    bucket = (words >> np.uint64(48)).astype(np.intp)
    settled = ~mixed[bucket]
    assert (lo[bucket[settled]] == np.searchsorted(floors, words[settled])).all()
    # a word equal to a floor must reach the search and the tie check
    assert mixed[(floors >> np.uint64(48)).astype(np.intp)].all()


@pytest.mark.parametrize("s", GUIDE_SIZES)
def test_binomial_guide_lookup_equals_searchsorted(s):
    floors = verify._binomial_floors(s)
    lo, mixed = verify._binomial_guide(s)
    assert lo.dtype == np.uint16 and lo.shape == mixed.shape == (2**16,)
    assert_guide_matches_search(floors, lo, mixed)
    # the draw itself: words off every floor need no further word
    words = guide_words(floors)
    words = words[~np.isin(words, floors)]
    ys = verify._binomial_draws(ScriptedBits([]), s, words)
    assert (ys == np.searchsorted(floors, words)).all()


def test_binomial_guide_marks_floors_on_a_bucket_edge(monkeypatch):
    # floors on the first and last words of buckets.  In the binomial
    # tables only 2^64 - 1 is a bucket's last word, and other floors mark
    # its bucket mixed anyway, so only a made-up table shows whether a
    # bucket's own last word is counted in it.
    floors = np.array([2**48 - 1, 2**48, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64)
    monkeypatch.setattr(verify, "_binomial_floors", lambda s: floors)
    lo, mixed = verify._binomial_guide.__wrapped__(len(floors))  # uncached
    assert_guide_matches_search(floors, lo, mixed)
    assert np.flatnonzero(mixed).tolist() == [0, 1, 2**15 - 1, 2**15, 2**16 - 1]


def test_rejection_round_settles_ties_after_its_block():
    # classes of 100, 100 and 300 (the largest, L): one round draws the
    # block [0, 2^63], one word per proposal class.  Word 0 ties the zero
    # floors of Bin(100, 1/2); its continuation 2^40 comes after the block
    # and gives y = 2.  P(Bin(100, 1/2) <= 49) < 1/2 < P(<= 50), so 2^63
    # gives y = 50 with no tie.  b = 202 - 52 = 150 = s_L // 2 is kept by
    # any acceptance word below 2^64 - 1.
    sizes = np.array([100, 100, 300])
    words = [0, 2**63, 2**40, 0]
    assert verify._rejection_counts(sizes, 202, 1, ScriptedBits(words)).tolist() == [[2, 50, 150]]


def test_probability_tables_are_exact_floors():
    for s in (1, 2, 7, 64, 65, 300):
        cdf = list(itertools.accumulate(math.comb(s, x) for x in range(s + 1)))
        want = [c * 2**64 // 2**s for c in cdf[:-1]]
        assert verify._binomial_floors(s).tolist() == want
        top = math.comb(s, s // 2)
        want = [min(math.comb(s, b) * 2**64 // top, 2**64 - 1) for b in range(s + 1)]
        assert verify._acceptance_floors(s).tolist() == want


def test_sampled_class_path_matches_exact_error_rate():
    c = build_block_circuit(BlockParams(n=16, p=8, window_t=2))
    exact = verify_minmax(c)
    sampled = verify_minmax(c, samples=20000, seed=6)
    for w in (7, 8):
        p = float(exact.error_fraction(w))
        sd = math.sqrt(p * (1 - p) / 20000)
        assert abs(float(sampled.error_fraction(w)) - p) <= 5 * sd + 1e-9
    with mock.patch("majcirc.verify.DEFAULT_CHUNK", 700):
        assert verify_minmax(c, samples=3000, seed=6, workers=2).to_json() == (
            verify_minmax(c, samples=3000, seed=6).to_json()
        )


# Reports of circuits whose classes do not compress, as computed before
# class sampling existed (minmax-corr41 since the bit sampler draws one
# column at a time): they must keep their draws byte for byte.
PINNED_REPORTS = {
    "minmax-n9": '{"mode": "sample", "total_checked": 6000, "errors": 0, "agreement": "1", '
    '"checked_by_weight": {"4": 3000, "5": 3000}, "errors_by_weight": {}, "seed": 5}',
    "agree-n9": '{"mode": "sample", "total_checked": 3000, "errors": 0, "agreement": "1", '
    '"checked_by_weight": {"0": 5, "1": 55, "2": 223, "3": 446, "4": 761, "5": 742, "6": 501, '
    '"7": 214, "8": 43, "9": 10}, "errors_by_weight": {}, "seed": 5, '
    '"ci_halfwidth": 0.02971620592243688}',
    "minmax-corr41": '{"mode": "sample", "total_checked": 6000, "errors": 2521, '
    '"agreement": "3479/6000", "checked_by_weight": {"20": 3000, "21": 3000}, '
    '"errors_by_weight": {"20": 1257, "21": 1264}, "seed": 5}',
    "agree-corr41": '{"mode": "sample", "total_checked": 3000, "errors": 563, '
    '"agreement": "2437/3000", "checked_by_weight": {"12": 6, "13": 25, "14": 59, "15": 100, '
    '"16": 138, "17": 205, "18": 269, "19": 338, "20": 366, "21": 361, "22": 330, "23": 275, '
    '"24": 218, "25": 143, "26": 85, "27": 47, "28": 23, "29": 8, "30": 3, "31": 1}, '
    '"errors_by_weight": {"16": 7, "17": 16, "18": 35, "19": 93, "20": 142, "21": 141, '
    '"22": 80, "23": 33, "24": 13, "25": 3}, "seed": 5, "ci_halfwidth": 0.02971620592243688}',
}


def test_non_compressing_circuits_keep_their_draws():
    circuits = {
        "n9": published_circuit("n9"),
        "corr41": build_correlation(CorrelationParams(n=41, k=9, seed=3)),
    }
    with mock.patch("majcirc.verify.DEFAULT_CHUNK", 1000):
        for name, c in circuits.items():
            got = verify_minmax(c, samples=3000, seed=5).to_json()
            assert got == PINNED_REPORTS[f"minmax-{name}"]
            got = estimate_agreement(c, 3000, 5).to_json()
            assert got == PINNED_REPORTS[f"agree-{name}"]


def uneven_block_circuit(sizes):
    """Thresholds s // 2 and s // 2 + 1 on each block of the given sizes,
    pooled by a top gate that needs as many firing gates as blocks."""
    gates, start = [], 0
    for s in sizes:
        first = ThresholdGate(tuple((v, 1) for v in range(start, start + s)), s // 2)
        gates += [first, first.with_theta(s // 2 + 1)]
        start += s
    top = ThresholdGate(tuple((g, 1) for g in range(len(gates))), len(sizes))
    return LayeredCircuit(n=start, k=max(*sizes, len(gates)), layers=(tuple(gates), (top,)), top=0)


# Sampled reports of circuits whose classes compress, all on the rejection
# class draw, with the sha256 of the class counts their chunks draw, as
# computed before the guide-table lookup: block and depth-3 reports have no
# errors, so only the digest shows a changed draw.  The uneven layout's
# proposal classes are 60, 40, 60 and 20 (100 takes the rest).
PINNED_CLASS_DRAWS = {
    "block4096": (
        '{"mode": "sample", "total_checked": 6000, "errors": 0, "agreement": "1", '
        '"checked_by_weight": {"2047": 3000, "2048": 3000}, "errors_by_weight": {}, "seed": 5}',
        "b425e99026eff82f3a4f0cc0eb4ed6084543f38ef29c0264d3d51b9ee13d3916",
    ),
    "depth3-b3": (
        '{"mode": "sample", "total_checked": 6000, "errors": 0, "agreement": "1", '
        '"checked_by_weight": {"26": 3000, "27": 3000}, "errors_by_weight": {}, "seed": 5}',
        "03dea70ccd7af454c976cea4e5665fdef8b6a3b97bdb32405d9207afa78be549",
    ),
    "uneven": (
        '{"mode": "sample", "total_checked": 6000, "errors": 2752, "agreement": "203/375", '
        '"checked_by_weight": {"139": 3000, "140": 3000}, '
        '"errors_by_weight": {"139": 1651, "140": 1101}, "seed": 5}',
        "ca34457fbb292a9c7ace8ab839ef2b8ed397609caff13d5805d37d73f9598498",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CLASS_DRAWS))
def test_compressing_circuits_keep_their_draws(name):
    c = {
        "block4096": lambda: build_block_circuit(default_block_params(4096)),
        "depth3-b3": lambda: build_depth3(Depth3Params(3)),
        "uneven": lambda: uneven_block_circuit((60, 40, 60, 20, 100)),
    }[name]()
    report, digest = PINNED_CLASS_DRAWS[name]
    sizes = compile_circuit(c).sizes
    w = majority_threshold(c.n)
    assert all(verify._rejection_pays(sizes, layer) for layer in (w, w - 1))
    with mock.patch("majcirc.verify.DEFAULT_CHUNK", 1000):
        assert verify_minmax(c, samples=3000, seed=5).to_json() == report
        assert verify_minmax(c, samples=3000, seed=5, workers=2).to_json() == report
    draws = [
        sample_class_counts(sizes, layer, hi - lo, 5, index)
        for layer in (w, w - 1)
        for index, lo, hi in _chunks(3000, 1000)
    ]
    assert hashlib.sha256(np.concatenate(draws).tobytes()).hexdigest() == digest


# -- random-input agreement --------------------------------------------------


def test_estimate_agreement_exact_circuit():
    report = estimate_agreement(single_majority(9), 2000, seed=0)
    assert report.errors == 0
    assert report.agreement == 1
    assert report.mode == "sample"


def test_estimate_agreement_constant_one_is_a_coin_flip():
    samples = 20000
    report = estimate_agreement(constant_one_circuit(9), samples, seed=1)
    half_width = math.sqrt(math.log(2 / 0.01) / (2 * samples))
    assert report.ci_halfwidth == pytest.approx(half_width)
    assert abs(float(report.agreement) - 0.5) <= half_width


def test_estimate_agreement_delta_shapes_the_interval():
    r1 = estimate_agreement(single_majority(5), 100, seed=0, delta=0.01)
    r2 = estimate_agreement(single_majority(5), 100, seed=0, delta=0.5)
    assert r1.ci_halfwidth > r2.ci_halfwidth


@pytest.mark.parametrize("n", [1, 3, 5, 41, 1001])
def test_uniform_rows_are_numpys_bounded_integers(n):
    # m * n runs over values that are not multiples of 4 or 8
    cases = [(m, index) for m in (1, 3, 7, 1000) for index in (0, 7)]
    seen, tiles = [], []

    def keep_rows(plan, rows, first):
        tiles.append(rows.copy())
        return np.zeros(len(rows), dtype=np.uint8)

    verify._pool_init({"plan": compile_circuit(single_majority(n)), "seed": 11})
    with mock.patch.object(verify, "_run", keep_rows):
        for m, index in cases:
            verify._work(("uniform", None, index, 0, m))
            # a job evaluates its rows one tile at a time
            seen.append(np.concatenate(tiles))
            tiles.clear()
    for rows, (m, index) in zip(seen, cases, strict=True):
        expect = philox(11, "agreement", n, index).integers(0, 2, size=(m, n), dtype=np.uint8)
        assert rows.dtype == np.uint8 and rows.shape == (m, n) and np.array_equal(rows, expect)


def whole_chunk_counts(plan, rows, first):
    """One _tally over a whole chunk, the counts a job's tiles must sum to."""
    return np.array(verify._tally(rows, verify._run(plan, rows, first), plan.n))


@pytest.mark.parametrize("kind", ["uniform", "bit-layer", "rows", "class-layer"])
def test_tiles_sum_to_one_tally_over_the_chunk(kind, monkeypatch):
    seed, index, m = 11, 2, verify.DEFAULT_CHUNK
    if kind in ("uniform", "bit-layer"):
        plan = compile_circuit(build_correlation(CorrelationParams(n=1001, k=256, seed=3)))
        first = plan.layers[0]
        if kind == "uniform":
            job = ("uniform", None, index, 0, m)
            rows = philox(seed, "agreement", 1001, index).integers(0, 2, size=(m, 1001), dtype=np.uint8)
        else:
            job = ("layer", 501, index, 0, m)
            rows = sample_layer_chunk(1001, 501, m, seed, index)
    elif kind == "rows":
        plan = compile_circuit(build_block_circuit(BlockParams(25, 5, 5)))
        job, rows, first = ("rows", 13, index, 100, 100 + m), _rows(25, 13, 100, 100 + m), plan.layers[0]
    else:
        plan = compile_circuit(build_block_circuit(BlockParams(400, 50, 9)))
        job, first = ("layer", 200, index, 0, m), plan.classes
        rows = sample_class_counts(plan.sizes, 200, m, seed, index)
    width = rows.shape[1]
    if width <= 64:
        # narrow rows are one tile at the module's budget; a smaller budget
        # cuts the chunk into tiles of 1000 rows
        assert verify._tile_rows(width) >= m
        monkeypatch.setattr(verify, "_TILE_BYTES", 4 * width * 1000)
        monkeypatch.setattr(verify, "_TILE_FLOOR", 8)
    step = verify._tile_rows(width)
    verify._pool_init({"plan": plan, "seed": seed})
    seen = []
    run = verify._run
    monkeypatch.setattr(verify, "_run", lambda plan, tile, first: seen.append(len(tile)) or run(plan, tile, first))
    got = verify._work(job)
    assert seen == [min(step, m - lo) for lo in range(0, m, step)] and len(seen) > 1
    assert np.array_equal(got, whole_chunk_counts(plan, rows, first))


def test_tile_rows_follow_the_row_width():
    # tiles are whole words of uniform bits, and narrow rows are one tile
    # per chunk: n <= 64 sweeps and the class counts of block circuits
    for width in (1, 3, 25, 64, 100, 1001, 4096, 10001, 10**6):
        assert verify._tile_rows(width) % 8 == 0
    assert verify._tile_rows(64) >= verify.DEFAULT_CHUNK
    assert verify._tile_rows(1001) == 520
    assert verify._tile_rows(10001) == verify._TILE_FLOOR


def test_a_uniform_job_holds_one_tile_at_a_time():
    verify._pool_init(
        {"plan": compile_circuit(build_correlation(CorrelationParams(n=1001, k=256, seed=3))), "seed": 5}
    )
    job = ("uniform", None, 0, 0, verify.DEFAULT_CHUNK)
    verify._work(job)
    tracemalloc.start()
    try:
        verify._work(job)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a whole 8192 x 1001 chunk and its float32 cast take 41 MB
    assert peak < 8 * 10**6, f"traced peak {peak / 1e6:.1f} MB"


def test_estimate_agreement_worker_count_does_not_change_the_report():
    c = build_correlation(CorrelationParams(n=21, k=9, seed=0))
    base = estimate_agreement(c, 2000, 7, workers=1).to_json()
    assert estimate_agreement(c, 2000, 7, workers=2).to_json() == base


def test_estimate_agreement_rejects_empty_run():
    with pytest.raises(ValueError):
        estimate_agreement(single_majority(3), 0, seed=0)


@pytest.mark.parametrize("delta", [0, 1, 2, -1])
def test_estimate_agreement_rejects_delta_outside_the_open_unit_interval(delta):
    with pytest.raises(ValueError, match="delta must lie strictly between 0 and 1"):
        estimate_agreement(single_majority(3), 100, seed=0, delta=delta)


# -- report formats ----------------------------------------------------------


def test_report_json_fields():
    report = verify_all(constant_one_circuit(3))
    obj = json.loads(report.to_json())
    assert obj["mode"] == "exhaustive"
    assert obj["total_checked"] == 8
    assert obj["errors"] == 4
    assert obj["agreement"] == "1/2"
    assert obj["checked_by_weight"] == {"0": 1, "1": 3, "2": 3, "3": 1}
    assert obj["errors_by_weight"] == {"0": 1, "1": 3}
    assert "seed" not in obj and "ci_halfwidth" not in obj


def test_report_error_fraction_requires_data():
    report = verify_all(single_majority(3))
    with pytest.raises(ValueError, match="weight 9"):
        report.error_fraction(9)
