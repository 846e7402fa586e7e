"""Hypergeometric and binomial estimates, influence, kill costs, the walk."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majcirc.analyze import (
    BRUTE_FORCE_CAP,
    HypergeomParams,
    KillCost,
    WalkConfig,
    antichain_prob,
    binomial_mid_check,
    boundary_size,
    hypergeom_pmf,
    hypergeom_tail,
    hypergeom_tail_check,
    influence,
    kill_cost,
    majority_boundary_closed,
    majority_influence_closed,
    majority_truth_table,
    max_antichain_size,
    pmf_scaling_probe,
    tail_bound_sweep,
    walk,
)
from majcirc.construct import CorrelationParams, build_correlation
from majcirc.core import (
    Assignment,
    LayeredCircuit,
    ThresholdGate,
    eval_circuit,
    majority_gate,
    majority_value,
)
from majcirc.verify import CapExceeded, truth_table


def enumerate_hits(p: HypergeomParams):
    """Distribution of |T ∩ marked| by listing every t-subset of 0..m-1."""
    marked = set(range(p.kk))
    counts: dict[int, int] = {}
    for t_set in itertools.combinations(range(p.m), p.t_draws):
        hits = len(marked & set(t_set))
        counts[hits] = counts.get(hits, 0) + 1
    denom = math.comb(p.m, p.t_draws)
    return {l: Fraction(c, denom) for l, c in counts.items()}


# -- hypergeometric law ------------------------------------------------------


def test_pmf_small_case_against_enumeration():
    p = HypergeomParams(m=4, kk=2, t_draws=2)
    dist = enumerate_hits(p)
    assert hypergeom_pmf(p, 1) == dist[1] == Fraction(2, 3)
    assert hypergeom_pmf(p, 0) == dist[0] == Fraction(1, 6)
    assert hypergeom_pmf(p, 2) == dist[2] == Fraction(1, 6)


@pytest.mark.parametrize(
    "m,kk,t", [(5, 2, 3), (6, 3, 2), (7, 3, 4), (8, 4, 4), (9, 2, 5)]
)
def test_pmf_matches_enumeration(m, kk, t):
    p = HypergeomParams(m, kk, t)
    dist = enumerate_hits(p)
    for l in range(-1, kk + 2):
        assert hypergeom_pmf(p, l) == dist.get(l, Fraction(0))


def test_pmf_out_of_support():
    p = HypergeomParams(m=10, kk=3, t_draws=4)
    assert hypergeom_pmf(p, 4) == 0  # more hits than marked elements
    assert hypergeom_pmf(p, -1) == 0
    tight = HypergeomParams(m=6, kk=4, t_draws=5)
    assert hypergeom_pmf(tight, 2) == 0  # 3 unmarked cannot fill 5 draws


@given(
    st.integers(1, 12).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(0, m), st.integers(0, m))
    )
)
def test_pmf_sums_to_one(mkt):
    p = HypergeomParams(*mkt)
    total = sum(hypergeom_pmf(p, l) for l in range(p.kk + 1))
    assert total == 1


def test_tail_examples():
    p = HypergeomParams(m=4, kk=2, t_draws=2)
    assert hypergeom_tail(p, 1) == Fraction(5, 6)
    assert hypergeom_tail(p, 0) == 1
    assert hypergeom_tail(p, 3) == 0


def test_tail_is_the_sum_of_the_pmf_above_l():
    for m in range(1, 13):
        for kk in range(m + 1):
            for t in range(m + 1):
                p = HypergeomParams(m, kk, t)
                for l in range(-1, kk + 3):
                    want = sum((hypergeom_pmf(p, j) for j in range(max(l, 0), kk + 1)), Fraction(0))
                    assert hypergeom_tail(p, l) == want, (p, l)


def test_tail_check_example():
    p = HypergeomParams(m=4, kk=2, t_draws=2)
    check = hypergeom_tail_check(p, 1)
    assert check.tail == Fraction(5, 6)
    assert check.bound == Fraction(1, 1)
    assert check.holds


def test_tail_check_requires_nonnegative_l():
    with pytest.raises(ValueError):
        hypergeom_tail_check(HypergeomParams(4, 2, 2), -1)


def test_tail_bound_sweep_small():
    checked, violations = tail_bound_sweep(max_m=16)
    assert violations == []
    assert checked > 500
    # recount one slice independently: cases for m=16 follow the grid shape
    expected_16 = sum(
        kk + 1
        for kk in range(0, 9)
        for _t in range(16 // 4 + 1, min((3 * 16 - 1) // 4, 16) + 1)
    )
    checked_15, _ = tail_bound_sweep(max_m=15)
    assert checked - checked_15 == expected_16


def test_params_validation():
    with pytest.raises(ValueError):
        HypergeomParams(m=0, kk=0, t_draws=0)
    with pytest.raises(ValueError):
        HypergeomParams(m=4, kk=5, t_draws=2)
    with pytest.raises(ValueError):
        HypergeomParams(m=4, kk=2, t_draws=5)


# -- antichain hitting probability -------------------------------------------


def antichain_oracle(p: HypergeomParams, family):
    members = [frozenset(s) for s in family]
    marked = set(range(p.kk))
    hits = 0
    for t_set in itertools.combinations(range(p.m), p.t_draws):
        if frozenset(marked & set(t_set)) in members:
            hits += 1
    return Fraction(hits, math.comb(p.m, p.t_draws))


def test_antichain_prob_single_member_is_a_pmf_slice():
    p = HypergeomParams(m=6, kk=3, t_draws=3)
    # one member of each size r: probability C(m-kk, t-r)/C(m, t)
    for r in range(4):
        member = tuple(range(r))
        got = antichain_prob(p, [member])
        assert got == Fraction(math.comb(3, 3 - r), math.comb(6, 3))


@pytest.mark.parametrize(
    "family",
    [
        [(0, 1), (1, 2), (0, 2)],
        [(0,), (1, 2)],
        [(0, 1, 2)],
        [()],
    ],
)
def test_antichain_prob_matches_enumeration(family):
    p = HypergeomParams(m=7, kk=3, t_draws=4)
    assert antichain_prob(p, family) == antichain_oracle(p, family)


def test_antichain_prob_rejects_bad_families():
    p = HypergeomParams(m=6, kk=3, t_draws=3)
    with pytest.raises(ValueError, match="outside the marked set"):
        antichain_prob(p, [(0, 4)])
    with pytest.raises(ValueError, match="duplicate"):
        antichain_prob(p, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="not an antichain"):
        antichain_prob(p, [(0,), (0, 1)])


def test_max_antichain_size():
    assert max_antichain_size(4) == 6
    assert max_antichain_size(5) == 10
    assert max_antichain_size(0) == 1
    # the middle layer really is an antichain of that size
    p = HypergeomParams(m=8, kk=4, t_draws=4)
    family = list(itertools.combinations(range(4), 2))
    assert len(family) == max_antichain_size(4)
    assert antichain_prob(p, family) == antichain_oracle(p, family)


# -- pmf scaling and binomial centre -----------------------------------------


def test_pmf_scaling_probe_rows():
    rows = pmf_scaling_probe([4, 16])
    assert [r.kk for r in rows] == [4, 16]
    for r in rows:
        p = HypergeomParams(m=4 * r.kk, kk=r.kk, t_draws=2 * r.kk)
        assert r.pmf_max == max(hypergeom_pmf(p, l) for l in range(r.kk + 1))
        assert r.pmf_max == hypergeom_pmf(p, r.mode)
        assert r.normalized == pytest.approx(float(r.pmf_max) * math.sqrt(r.kk))


def test_pmf_scaling_probe_large_kk_uses_the_mode_shortcut():
    (row,) = pmf_scaling_probe([128])
    p = HypergeomParams(m=512, kk=128, t_draws=256)
    assert row.pmf_max == max(hypergeom_pmf(p, l) for l in range(129))


@pytest.mark.parametrize("c", [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)], ids=str)
def test_pmf_scaling_probe_window_matches_a_full_scan(c):
    """The mode-1..mode+1 window picks the same l as scanning the whole
    support, the first maximum in increasing l."""
    grid = [kk for kk in range(1, 65) if (c * 4 * kk).denominator == 1]
    for row in pmf_scaling_probe(grid, c):
        p = HypergeomParams(m=4 * row.kk, kk=row.kk, t_draws=int(c * 4 * row.kk))
        pmf = [hypergeom_pmf(p, l) for l in range(row.kk + 1)]
        assert (row.mode, row.pmf_max) == (pmf.index(max(pmf)), max(pmf)), row.kk


def test_pmf_scaling_probe_validation():
    with pytest.raises(ValueError):
        pmf_scaling_probe([])
    with pytest.raises(ValueError):
        pmf_scaling_probe([4], c=Fraction(3, 2))
    with pytest.raises(ValueError, match=r"^kk must be positive, got 0$"):
        pmf_scaling_probe([4, 0])
    # m = 4 and c = 1/3: c*m = 4/3 draws
    with pytest.raises(ValueError, match=r"^t_draws = c\*m must be an integer, got 1/3\*4$"):
        pmf_scaling_probe([1], c=Fraction(1, 3))


def test_pmf_scaling_is_flat_in_normalized_units():
    rows = pmf_scaling_probe([16, 64, 256])
    values = [r.normalized for r in rows]
    assert max(values) / min(values) < 1.1


def test_binomial_mid_check_n2():
    (row,) = binomial_mid_check([2])
    assert row.mid_normalized == pytest.approx(0.5 * math.sqrt(2))
    assert row.off_index == 1 + round(0.5 * math.sqrt(2 * math.log(2)) / 2)
    off_pmf = math.comb(2, row.off_index) / 4
    assert row.off_normalized == pytest.approx(off_pmf * 2 ** (0.5 + 0.125))


def test_binomial_mid_check_formulas():
    for row in binomial_mid_check([8, 32, 128]):
        n = row.n
        mid = math.comb(n, n // 2) / 2**n
        assert row.mid_normalized == pytest.approx(mid * math.sqrt(n))
        expected_idx = n // 2 + round(0.5 * math.sqrt(n * math.log(n)) / 2)
        assert row.off_index == expected_idx
        off = math.comb(n, row.off_index) / 2**n
        assert row.off_normalized == pytest.approx(off * n ** (0.5 + 0.125))


def test_binomial_mid_check_validation():
    with pytest.raises(ValueError):
        binomial_mid_check([3])  # odd n has no exact centre
    with pytest.raises(ValueError):
        binomial_mid_check([8], c=1.5)
    with pytest.raises(ValueError):
        binomial_mid_check([])


# -- boundary and influence --------------------------------------------------


def test_boundary_majority_small_odd():
    for l in [1, 3, 5, 7, 9]:
        maj = majority_truth_table(l)
        assert boundary_size(maj, l) == majority_boundary_closed(l)
        assert influence(maj, l) == majority_influence_closed(l)


def test_boundary_closed_form_values():
    assert majority_boundary_closed(1) == 2
    assert majority_boundary_closed(3) == 12
    assert majority_influence_closed(3) == Fraction(3, 2)
    assert majority_influence_closed(1) == 1


def gate_table(gate: ThresholdGate, l: int) -> np.ndarray:
    return truth_table(LayeredCircuit(n=l, k=gate.fanin, layers=((gate,),), top=0))


def cube(l: int) -> np.ndarray:
    """Row i holds the bits of i, x1 the most significant."""
    return np.array(list(itertools.product((0, 1), repeat=l)), dtype=np.uint8)


def test_influence_accepts_callables_and_gates():
    # tables of rules on the bits, and of a gate
    dictator = cube(5)[:, 0]
    assert influence(dictator, 5) == 1
    assert boundary_size(dictator, 5) == 2**5
    assert influence(gate_table(majority_gate(range(3)), 3), 3) == Fraction(3, 2)
    xor = cube(4).sum(axis=1) % 2
    assert influence(xor, 4) == 4  # every edge is a boundary edge
    assert influence(xor.tolist(), 4) == 4
    with pytest.raises(ValueError, match="2\\^4 entries"):
        influence(xor[:-1], 4)


def test_callable_truth_table_matches_the_circuit_branch():
    for l in range(1, 10):
        by_call = [majority_value(Assignment(a)) for a in itertools.product((0, 1), repeat=l)]
        assert majority_truth_table(l).tolist() == by_call
    # a weighted gate is not symmetric, so this also pins x1 as the top bit
    gate = ThresholdGate(((0, 3), (1, 1), (3, 1)), theta=3)
    circuit = LayeredCircuit(n=4, k=gate.fanin, layers=((gate,),), top=0)
    by_call = [eval_circuit(circuit, Assignment(a)) for a in itertools.product((0, 1), repeat=4)]
    assert truth_table(circuit).tolist() == by_call


def test_influence_equals_boundary_over_cube_size():
    tt = gate_table(ThresholdGate(((0, 2), (1, 1), (2, 1)), theta=2), 3)
    l = 3
    assert influence(tt, l) == Fraction(boundary_size(tt, l), 2**l)


@pytest.mark.parametrize("l", range(7))
def test_boundary_size_counts_every_sensitive_pair(l):
    tt = np.random.default_rng(l).integers(0, 2, 2**l)
    pairs = sum(int(tt[x] != tt[x ^ (1 << i)]) for x in range(2**l) for i in range(l))
    assert boundary_size(tt, l) == pairs


def test_majority_influence_scaling():
    # normalized influence sqrt(l)*pmf-style constant stays bounded
    for l in [3, 5, 9, 13]:
        val = float(majority_influence_closed(l)) / math.sqrt(l)
        assert 0.5 < val < 1.0


def test_boundary_brute_force_cap():
    with pytest.raises(CapExceeded):
        boundary_size(np.zeros(2, dtype=np.uint8), BRUTE_FORCE_CAP + 1)
    with pytest.raises(CapExceeded, match="^l=23 exceeds the brute-force cap 22$"):
        majority_truth_table(BRUTE_FORCE_CAP + 1)


@pytest.mark.parametrize(
    "tt", [[1, 2], np.array([256, 0]), np.array([0.5, 1.0]), [-1, 1]], ids=["2", "256", "half", "-1"]
)
def test_boundary_and_influence_reject_tables_that_are_not_boolean(tt):
    # a uint8 cast read these as 2, a constant table, 2 and an OverflowError
    for fn in (boundary_size, influence):
        with pytest.raises(ValueError, match="^truth table entries must be 0 or 1$"):
            fn(tt, 1)
    assert boundary_size([True, False], 1) == 2



def test_boundary_check_makes_no_table_sized_temporary():
    """The 0/1 check reads the table a block at a time: at l = 22 the peak
    is the halves comparison's 2 MB, and an entry past the first block
    is still caught."""
    tt = majority_truth_table(22)
    tracemalloc.start()
    try:
        count = boundary_size(tt, 22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # weight-11 inputs are sensitive on their ones, weight-10 ones on their zeros
    assert count == 11 * math.comb(22, 11) + 12 * math.comb(22, 10)
    assert peak <= 2.5 * 2**20
    late = np.zeros(2**18, dtype=np.uint8)
    late[-1] = 2
    with pytest.raises(ValueError, match="^truth table entries must be 0 or 1$"):
        boundary_size(late, 18)

def test_closed_forms_reject_even_n():
    with pytest.raises(ValueError):
        majority_boundary_closed(4)
    with pytest.raises(ValueError, match="^closed form applies to odd l$"):
        majority_influence_closed(4)


# -- kill costs --------------------------------------------------------------


def test_kill_cost_examples():
    g = ThresholdGate(((0, 3), (1, 1), (2, 1)), theta=3)
    cost = kill_cost(g)
    assert cost.zeros_to_fix0 == 1  # drop the weight-3 wire
    assert cost.ones_to_fix1 == 1  # the weight-3 wire alone reaches theta
    g5 = majority_gate(range(5))
    assert kill_cost(g5) == KillCost(3, 3)


def test_kill_cost_degenerate():
    always = ThresholdGate(((0, 1), (1, 1)), theta=0)
    cost = kill_cost(always)
    assert cost.zeros_to_fix0 == math.inf
    assert cost.ones_to_fix1 == 0
    never = ThresholdGate(((0, 1), (1, 1)), theta=3)
    cost = kill_cost(never)
    assert cost.zeros_to_fix0 == 0
    assert cost.ones_to_fix1 == math.inf


def brute_kill_cost(gate: ThresholdGate) -> KillCost:
    """Try every pin set; positions all carry distinct weights, so optimal
    solutions are found exhaustively."""
    weights = [w for _, w in gate.inputs]
    total = sum(weights)
    n = len(weights)
    zeros = math.inf
    ones = math.inf
    for r in range(n + 1):
        for pins in itertools.combinations(range(n), r):
            pinned = sum(weights[i] for i in pins)
            if total - pinned < gate.theta:
                zeros = min(zeros, r)
            if pinned >= gate.theta:
                ones = min(ones, r)
    return KillCost(zeros, ones)


@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=7),
    st.integers(0, 12),
)
@settings(max_examples=80, deadline=None)
def test_kill_cost_greedy_is_optimal(weights, theta):
    gate = ThresholdGate(tuple(enumerate(weights)), theta)
    got = kill_cost(gate)
    want = brute_kill_cost(gate)
    if theta <= 0:
        assert got.zeros_to_fix0 == math.inf
        assert got.ones_to_fix1 == 0
    else:
        assert got.zeros_to_fix0 == want.zeros_to_fix0
        assert got.ones_to_fix1 == want.ones_to_fix1


# -- the weight-reducing walk ------------------------------------------------


def two_tracked_gates():
    g0 = ThresholdGate(((0, 1), (6, 1)), theta=2)  # x1, x7
    g1 = ThresholdGate(((1, 1), (6, 1)), theta=2)  # x2, x7
    filler = majority_gate([2])
    top = majority_gate(range(3))
    return LayeredCircuit(n=7, k=3, layers=((g0, g1, filler), (top,)), top=0)


def test_walk_forced_trace():
    """With one available 1 per qualifying gate the trace is fully forced."""
    c = two_tracked_gates()
    a = Assignment((1, 1, 1, 0, 0, 0, 0))
    cfg = WalkConfig(s=3, d=1, x_star=7, g_star=(0, 1))
    trace = walk(c, a, cfg)
    assert trace.stop_reason == "no_negative_gate"
    assert len(trace.steps) == 2
    s1, s2 = trace.steps
    assert (s1.gate, s1.ones_available, s1.flipped) == (0, 1, 1)
    assert s1.diffs_after == ((0, -2), (1, -1))
    assert (s2.gate, s2.ones_available, s2.flipped) == (1, 1, 2)
    assert s2.diffs_after == ((0, -2), (1, -2))
    assert trace.final == Assignment((0, 0, 1, 0, 0, 0, 0))


def test_walk_step_budget():
    c = two_tracked_gates()
    a = Assignment((1, 1, 1, 0, 0, 0, 0))
    trace = walk(c, a, WalkConfig(s=1, d=1, x_star=7, g_star=(0, 1)))
    assert trace.stop_reason == "exhausted_s"
    assert len(trace.steps) == 1


def test_walk_stops_immediately_without_negative_gates():
    g = majority_gate([0, 1, 3])  # x1, x2, x4; margin 0 on the start below
    c = LayeredCircuit(n=5, k=3, layers=((g,), (majority_gate([0]),)), top=0)
    a = Assignment((1, 1, 0, 0, 0))
    trace = walk(c, a, WalkConfig(s=5, d=1, x_star=4, g_star=(0,)))
    assert trace.stop_reason == "no_negative_gate"
    assert trace.steps == ()
    assert trace.final == a


def test_walk_weight_drops_one_per_step():
    # d=1 on standard fan-in-5 gates: a qualifying gate holds exactly two
    # ones, so every step has a non-empty flip pool
    c = build_correlation(CorrelationParams(n=9, k=5, seed=2))
    x_star = c.layers[0][0].support[0] + 1
    g_star = tuple(
        i for i, g in enumerate(c.layers[0]) if x_star - 1 in g.support
    )
    candidates = [v for v in range(1, 10) if v != x_star]
    for ones in itertools.combinations(candidates, 4):
        a = Assignment.from_ones(9, ones)
        diffs = [
            sum(a.bits[p] for p in c.layers[0][g].support) - 3 for g in g_star
        ]
        if -1 in diffs:
            break
    else:
        pytest.fail("no weight-4 start puts a tracked gate at margin -1")
    cfg = WalkConfig(s=4, d=1, x_star=x_star, g_star=g_star, seed=5, gate_choice="random")
    trace = walk(c, a, cfg)
    assert len(trace.steps) >= 1
    assert trace.start.weight - len(trace.steps) == trace.final.weight
    for step in trace.steps:
        assert step.ones_available >= 1
    # same configuration, same trace
    assert walk(c, a, cfg) == trace


def test_walk_preconditions():
    c = two_tracked_gates()
    good = Assignment((1, 1, 1, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="one below the majority threshold"):
        walk(c, Assignment((1, 1, 1, 1, 0, 0, 0)), WalkConfig(1, 1, 7, (0,)))
    with pytest.raises(ValueError, match="x_star must be 0"):
        walk(c, Assignment((1, 1, 0, 0, 0, 0, 1)), WalkConfig(1, 1, 7, (0,)))
    with pytest.raises(ValueError, match="does not read x4"):
        walk(c, good, WalkConfig(1, 1, 4, (0,)))
    for x_star in (0, 8):
        with pytest.raises(ValueError, match=rf"^x_star={x_star} out of range 1\.\.7$"):
            walk(c, good, WalkConfig(1, 1, x_star, (0,)))
    with pytest.raises(ValueError, match="g_star"):
        walk(c, good, WalkConfig(1, 1, 7, ()))
    with pytest.raises(ValueError, match="out of range"):
        walk(c, good, WalkConfig(1, 1, 7, (5,)))
    with pytest.raises(ValueError, match="width"):
        walk(c, Assignment((1, 1, 0)), WalkConfig(1, 1, 7, (0,)))


def test_walk_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(s=0, d=1, x_star=1, g_star=(0,))
    with pytest.raises(ValueError):
        WalkConfig(s=1, d=0, x_star=1, g_star=(0,))
    with pytest.raises(ValueError, match="gate_choice"):
        WalkConfig(s=1, d=1, x_star=1, g_star=(0,), gate_choice="greedy")
