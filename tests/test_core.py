"""Gate evaluation, circuit evaluation, and the text format."""

import copy
import itertools
import pickle
import tracemalloc
from typing import Callable
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from majcirc.core import (
    Assignment,
    CircuitError,
    CircuitParseError,
    CircuitStats,
    LayeredCircuit,
    MAX_VARS,
    ThresholdGate,
    eval_circuit,
    eval_gate,
    eval_layers,
    flip,
    gate_diff,
    inspect_circuit,
    majority_diff,
    majority_gate,
    majority_gate_over_vars,
    majority_threshold,
    majority_value,
    parse_circuit,
    serialize_circuit,
    standard_theta,
    with_top,
)
from majcirc.construct import (
    Depth3Params,
    build_block_circuit,
    build_depth3,
    default_block_params,
    published_circuit,
    published_rows,
)


def brute_eval(c: LayeredCircuit, a: Assignment) -> int:
    """Gate-by-gate reference evaluation, written independently of eval_*."""
    values = list(a.bits)
    for layer in c.layers:
        nxt = []
        for g in layer:
            s = 0
            for pos, w in g.inputs:
                s += w * values[pos]
            nxt.append(1 if s >= g.theta else 0)
        values = nxt
    return values[c.top]


# -- thresholds and the majority function -----------------------------------


@pytest.mark.parametrize(
    "fanin,theta", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3), (7, 4)]
)
def test_standard_theta(fanin, theta):
    assert standard_theta(fanin) == theta


def test_majority_threshold_matches_standard_theta():
    for n in range(1, 40):
        assert majority_threshold(n) == standard_theta(n)


def test_majority_value_examples():
    assert majority_value(Assignment((1, 0, 1))) == 1
    assert majority_value(Assignment((1, 0, 0))) == 0
    assert majority_value(Assignment((1, 1, 0, 0))) == 1  # ties round up
    assert majority_value(Assignment((1, 0, 0, 0))) == 0
    assert majority_value(Assignment((0,))) == 0
    assert majority_value(Assignment((1,))) == 1


@given(st.lists(st.integers(0, 1), min_size=1, max_size=64))
def test_majority_diff_sign_agrees_with_value(bits):
    a = Assignment(tuple(bits))
    assert majority_value(a) == int(majority_diff(a) >= 0)
    assert majority_diff(a) == a.weight - (a.n + 1) // 2


# -- assignments -------------------------------------------------------------


def test_assignment_basics():
    a = Assignment((1, 0, 1, 1))
    assert a.n == 4
    assert a.weight == 3
    assert str(a) == "1011"
    assert Assignment.zeros(3) == Assignment((0, 0, 0))
    assert Assignment.from_ones(5, [2, 5]) == Assignment((0, 1, 0, 0, 1))


def test_assignment_rejects_non_bits():
    with pytest.raises(ValueError):
        Assignment((0, 2, 0))
    with pytest.raises(IndexError):
        Assignment.from_ones(3, [4])


def test_flip_examples():
    a = Assignment((1, 0, 1))
    assert flip(a, 2) == Assignment((1, 1, 1))
    assert flip(a, 1) == Assignment((0, 0, 1))
    with pytest.raises(IndexError):
        flip(a, 0)
    with pytest.raises(IndexError):
        flip(a, 4)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=32), st.data())
def test_flip_is_an_involution_and_moves_weight_by_one(bits, data):
    a = Assignment(tuple(bits))
    i = data.draw(st.integers(1, a.n))
    b = flip(a, i)
    assert flip(b, i) == a
    assert abs(b.weight - a.weight) == 1
    assert b.weight - a.weight == (1 if a.bits[i - 1] == 0 else -1)


# -- single gates ------------------------------------------------------------


def test_eval_gate_majority3():
    g = majority_gate([0, 1, 2])
    assert g.theta == 2
    assert eval_gate(g, (1, 1, 0)) == 1
    assert eval_gate(g, (1, 0, 0)) == 0
    assert eval_gate(g, (0, 0, 0)) == 0
    assert eval_gate(g, (1, 1, 1)) == 1


def test_eval_gate_with_multiplicity():
    # the row 2 2 4 5 6 as a gate: x2 carries weight 2, theta is 3
    g = majority_gate_over_vars([2, 2, 4, 5, 6])
    assert g.inputs == ((1, 2), (3, 1), (4, 1), (5, 1))
    assert g.theta == 3
    values = [0] * 7
    values[1] = 1  # x2
    values[3] = 1  # x4
    assert eval_gate(g, values) == 1
    values[3] = 0
    assert eval_gate(g, values) == 0


def test_degenerate_thetas():
    g0 = ThresholdGate(((0, 1),), theta=0)
    assert eval_gate(g0, (0,)) == 1  # constant 1
    g_hi = ThresholdGate(((0, 1), (1, 1)), theta=3)
    assert eval_gate(g_hi, (1, 1)) == 0  # constant 0
    assert not g_hi.is_standard()


def test_gate_diff_examples():
    g = majority_gate([0, 1, 2])
    assert gate_diff(g, (1, 1, 0)) == 0
    assert gate_diff(g, (0, 0, 0)) == -2
    weighted = ThresholdGate(((0, 3), (1, 1)), theta=2)
    assert gate_diff(weighted, (0, 1)) == -1
    assert gate_diff(weighted, (1, 0)) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 10, 15])
def test_gate_diff_on_all_ones(n):
    g = majority_gate(range(n))
    assert gate_diff(g, (1,) * n) == n - (n + 1) // 2


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=6),
    st.integers(-2, 8),
    st.data(),
)
def test_eval_gate_is_sign_of_diff(weights, theta, data):
    g = ThresholdGate(tuple(enumerate(weights)), theta)
    values = data.draw(
        st.lists(st.integers(0, 1), min_size=len(weights), max_size=len(weights))
    )
    assert eval_gate(g, values) == int(gate_diff(g, values) >= 0)


def test_gate_validation():
    with pytest.raises(CircuitError):
        ThresholdGate((), theta=1)
    with pytest.raises(CircuitError):
        ThresholdGate(((0, 1), (0, 1)), theta=1)  # duplicate position
    with pytest.raises(CircuitError):
        ThresholdGate(((0, 0),), theta=1)  # zero weight
    with pytest.raises(CircuitError):
        ThresholdGate(((-1, 1),), theta=1)


def test_with_theta_shares_the_inputs():
    g = ThresholdGate(((2, 1), (0, 3)), theta=2)
    assert g.inputs == ((0, 3), (2, 1)) and type(g.inputs) is tuple
    assert not hasattr(g, "__dict__")
    # with_theta copies the inputs object and the recorded bounds; it never
    # runs the check again
    with mock.patch.object(ThresholdGate, "__post_init__", side_effect=AssertionError):
        h = g.with_theta(1)
    assert h.inputs is g.inputs and h.theta == 1
    assert (h.fanin, h.max_weight) == (g.fanin, g.max_weight) == (4, 3)
    assert h == ThresholdGate(((0, 3), (2, 1)), theta=1)
    # the constructor checks any inputs into a fresh tuple, a gate's own too
    assert ThresholdGate(g.inputs, theta=2).inputs is not g.inputs
    assert ThresholdGate(g.inputs, theta=2) == g


@pytest.mark.parametrize(
    "inputs,message",
    [
        (((0, 1), (2, 0)), "non-positive weight 0 on position 2"),
        (((0, 1), (0, 1)), "duplicate input position 0"),
        (((1, 1), (-3, 1)), "negative input position -3"),
    ],
)
def test_inputs_not_made_by_the_check_are_checked(inputs, message):
    # every inputs value is checked: tuples, lists and tuple subclasses
    # raise the same message
    class Pairs(tuple):
        __slots__ = ()

    for bad in (inputs, list(inputs), Pairs(inputs)):
        with pytest.raises(CircuitError) as err:
            ThresholdGate(bad, theta=1)
        assert str(err.value) == message


def reference_gate_check(inputs, theta):
    """The pair loop the builtins check replaced: (inputs, theta, fanin,
    max_weight) of the gate, or the CircuitError naming its first bad pair
    in sorted order."""
    pairs = [(int(p), int(w)) for p, w in inputs]
    pairs.sort()
    if not pairs:
        raise CircuitError("gate has no inputs")
    seen = set()
    fanin = max_weight = 0
    for p, w in pairs:
        if p < 0:
            raise CircuitError(f"negative input position {p}")
        if p in seen:
            raise CircuitError(f"duplicate input position {p}")
        seen.add(p)
        if w < 1:
            raise CircuitError(f"non-positive weight {w} on position {p}")
        fanin += w
        if w > max_weight:
            max_weight = w
    return tuple(pairs), int(theta), fanin, max_weight


# positions and weights of every type the check converts, around each bound
_CHECK_VALUES = st.one_of(
    st.integers(-2, 9),
    st.integers(2**63 - 2, 2**66),
    st.booleans(),
    st.integers(-2, 9).map(np.int64),
    st.integers(0, 9).map(np.uint8),
    st.booleans().map(np.bool_),
)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.tuples(_CHECK_VALUES, _CHECK_VALUES).flatmap(
            lambda pair: st.sampled_from([pair, list(pair)])
        ),
        max_size=8,
    ).flatmap(lambda pairs: st.sampled_from([tuple(pairs), pairs])),
    st.one_of(st.integers(-3, 40), st.integers(0, 9).map(np.int64)),
)
# each fault alone, where random lists mostly carry several
@example([(3, 1), (-2, 2)], 1)
@example(((4, 1), (0, 2), (4, 3)), 2)
@example([[2, 0], (1, 1)], 1)
@example(((1, 5), (0, -1)), 1)
@example(((np.int64(2), True), (np.uint8(0), 2**64)), np.int64(3))
def test_gate_check_matches_the_reference_loop(inputs, theta):
    """Unsorted and repeated pairs, pairs given as lists, numpy ints and
    bools, negative positions, weights below 1 and ints past 2^63: the
    check keeps the same gate, or raises the same message, as the loop."""
    try:
        expected = reference_gate_check(inputs, theta)
    except CircuitError as e:
        with pytest.raises(CircuitError) as err:
            ThresholdGate(inputs, theta)
        assert str(err.value) == str(e)
        return
    g = ThresholdGate(inputs, theta)
    assert (g.inputs, g.theta, g.fanin, g.max_weight) == expected
    assert all(type(pair) is tuple for pair in g.inputs)
    assert {type(v) for pair in g.inputs for v in pair} | {type(g.fanin), type(g.max_weight)} == {int}


def test_gate_properties():
    g = majority_gate([4, 0, 0, 2])
    assert g.support == (0, 2, 4)
    assert g.weights == (2, 1, 1)
    assert g.fanin == 4
    assert g.max_weight == 2
    assert g.theta == 2
    assert g.is_standard()


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.integers(0, 50),
        st.one_of(st.integers(1, 9), st.integers(2**63 - 2, 2**66)),
        min_size=1,
        max_size=8,
    ),
    st.integers(-3, 40),
)
def test_recorded_fanin_and_max_weight_match_the_weights(by_position, theta):
    """The check records the sum and the largest of the weights, also past
    int64, and the record travels with the gate: to a gate that with_theta
    makes, through pickle and through deepcopy."""
    g = ThresholdGate(tuple(by_position.items())[::-1], theta)
    weights = list(by_position.values())
    shared = g.with_theta(theta + 1)
    assert shared.inputs is g.inputs
    for h in (g, shared, pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert h.fanin == sum(weights) == sum(h.weights)
        assert h.max_weight == max(weights) == max(h.weights)
        assert h.is_standard() == (h.theta == standard_theta(sum(weights)))
    # one pickle or deepcopy keeps two gates on one inputs object sharing it
    for a, b in (pickle.loads(pickle.dumps((g, shared))), copy.deepcopy((g, shared))):
        assert (a, b) == (g, shared)
        assert a.inputs is b.inputs and b.fanin == g.fanin and b.max_weight == g.max_weight


@pytest.mark.parametrize("theta, top_theta", [(None, 2), (3, 3), (-1, -1)])
def test_with_top_reads_the_last_layer_once(theta, top_theta):
    wide = ThresholdGate(((0, 2), (1, 1), (2, 1), (3, 1)), 3)
    c = with_top(4, [[wide, majority_gate([0]), majority_gate([1, 2])]], theta)
    assert c.depth == 2 and c.top == 0
    assert c.top_gate == ThresholdGate(((0, 1), (1, 1), (2, 1)), top_theta)
    # k is the widest gate anywhere, here in layer 1
    assert c.k == 5 == inspect_circuit(c).max_fanin


# -- circuit evaluation ------------------------------------------------------


def test_eval_circuit_published_n7_spot_check():
    c = published_circuit("n7")
    a = Assignment((0, 0, 1, 1, 1, 1, 0))
    assert majority_value(a) == 1
    assert eval_circuit(c, a) == 1
    assert brute_eval(c, a) == 1


@pytest.mark.parametrize("tag", ["intro7", "n7"])
def test_eval_circuit_agrees_with_reference_everywhere(tag):
    c = published_circuit(tag)
    for bits in itertools.product((0, 1), repeat=7):
        a = Assignment(bits)
        assert eval_circuit(c, a) == brute_eval(c, a)


def test_eval_layers_by_hand():
    # two bottom gates, top takes the AND of them via theta = 2
    g1 = majority_gate([0, 1])  # x1 or x2 (theta 1)
    g2 = majority_gate([1, 2, 2])  # weight 2 on x3, theta 2
    top = ThresholdGate(((0, 1), (1, 1)), theta=2)
    c = LayeredCircuit(n=3, k=3, layers=((g1, g2), (top,)), top=0)
    layers = eval_layers(c, Assignment((0, 1, 1)))
    assert layers == [(1, 1), (1,)]
    layers = eval_layers(c, Assignment((1, 0, 0)))
    assert layers == [(1, 0), (0,)]


def test_eval_circuit_rejects_wrong_arity():
    c = published_circuit("n7")
    with pytest.raises(ValueError):
        eval_circuit(c, Assignment((1, 0, 1)))


def circuit_function(c: LayeredCircuit) -> Callable[[Assignment], int]:
    """Closure form of eval_circuit."""
    return lambda a: eval_circuit(c, a)


def test_circuit_function_closure():
    c = published_circuit("n9")
    f = circuit_function(c)
    for bits in [(1,) * 9, (0,) * 9, (1, 0, 1, 0, 1, 0, 1, 0, 1)]:
        a = Assignment(bits)
        assert f(a) == eval_circuit(c, a)


# -- structural validation ---------------------------------------------------


def test_circuit_rejects_fanin_over_bound():
    gates = (majority_gate(range(4)),)
    with pytest.raises(CircuitError, match="fan-in"):
        LayeredCircuit(n=4, k=3, layers=(gates,), top=0)


def test_circuit_rejects_dangling_reference():
    g = majority_gate([0, 5])
    with pytest.raises(CircuitError, match="width"):
        LayeredCircuit(n=4, k=4, layers=((g,),), top=0)


def test_circuit_checks_each_distinct_support_after_shared_ones():
    ok = majority_gate([0, 1])
    shared = (ok, ok.with_theta(2))
    wide = majority_gate([0, 1, 2, 3])
    with pytest.raises(CircuitError) as err:
        LayeredCircuit(n=4, k=3, layers=(shared + (wide,),), top=0)
    assert str(err.value) == "gate 1:2 fan-in 4 exceeds bound k=3"
    dangling = majority_gate([1, 4])
    with pytest.raises(CircuitError) as err:
        LayeredCircuit(n=4, k=3, layers=(shared + (ok.with_theta(0), dangling),), top=0)
    assert str(err.value) == "gate 1:3 references position 4 but layer below has width 4"
    # a support read by two layers is checked against each layer's width
    below = (ok, majority_gate([2]))
    with pytest.raises(CircuitError, match="gate 3:0 references position 1 but layer below has width 1"):
        LayeredCircuit(n=4, k=3, layers=(below, (ok.with_theta(1),), (ok,)), top=0)


def test_circuit_rejects_n_k_and_depth_out_of_range():
    g = majority_gate([0])
    for n in (0, MAX_VARS + 1):
        with pytest.raises(CircuitError, match=rf"^variable count {n} out of range 1\.\.{MAX_VARS}$"):
            LayeredCircuit(n=n, k=1, layers=((g,),), top=0)
    with pytest.raises(CircuitError, match=r"^fan-in bound 0 must be positive$"):
        LayeredCircuit(n=1, k=0, layers=((g,),), top=0)
    for layers in ((), ((g,), (g,), (g,), (g,))):
        with pytest.raises(CircuitError, match=rf"^depth {len(layers)} out of range 1\.\.3$"):
            LayeredCircuit(n=1, k=1, layers=layers, top=0)


def test_circuit_rejects_bad_top_and_empty_layer():
    g = majority_gate([0])
    with pytest.raises(CircuitError, match="top"):
        LayeredCircuit(n=1, k=1, layers=((g,),), top=1)
    with pytest.raises(CircuitError, match="empty"):
        LayeredCircuit(n=1, k=1, layers=((g,), ()), top=0)


def test_weighted_fanin_counts_toward_bound():
    g = ThresholdGate(((0, 3), (1, 1)), theta=2)
    assert g.fanin == 4
    with pytest.raises(CircuitError):
        LayeredCircuit(n=2, k=3, layers=((g,),), top=0)
    LayeredCircuit(n=2, k=4, layers=((g,),), top=0)  # fits exactly


def test_inspect_circuit_fields():
    c = published_circuit("n7")
    stats = inspect_circuit(c)
    assert stats.n == 7
    assert stats.k == 5
    assert stats.depth == 2
    assert stats.gate_count == 6  # five rows plus the top gate
    assert stats.max_fanin == 5
    assert stats.max_weight == 2  # repeated variables in two of the rows
    assert stats.all_standard


def test_inspect_circuit_flags_nonstandard():
    g = ThresholdGate(((0, 1), (1, 1), (2, 1)), theta=3)
    c = LayeredCircuit(n=3, k=3, layers=((g,),), top=0)
    stats = inspect_circuit(c)
    assert not stats.all_standard
    assert stats.gate_count == 1


def shared_nonstandard() -> LayeredCircuit:
    """Two gates on one inputs object, only the first standard."""
    a = ThresholdGate(((0, 1), (1, 2), (2, 1)), theta=2)
    b = a.with_theta(3)
    top = majority_gate([0, 1])
    return LayeredCircuit(n=3, k=4, layers=((a, b), (top,)), top=0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_block_circuit(default_block_params(4096)),
        lambda: build_depth3(Depth3Params(b=3)),
        lambda: LayeredCircuit(n=3, k=3, layers=((ThresholdGate(((0, 1), (1, 1), (2, 1)), theta=3),),), top=0),
        shared_nonstandard,
    ],
    ids=["block4096", "depth3-b3", "nonstandard", "shared-nonstandard"],
)
def test_inspect_circuit_matches_gate_by_gate_stats(build):
    c = build()
    gates = [g for _, _, g in c.gates()]
    assert inspect_circuit(c) == CircuitStats(
        n=c.n,
        k=c.k,
        depth=c.depth,
        gate_count=len(gates),
        max_fanin=max(g.fanin for g in gates),
        max_weight=max(g.max_weight for g in gates),
        all_standard=all(g.is_standard() for g in gates),
    )


# -- text format -------------------------------------------------------------


def test_serialize_round_trip_published():
    for tag in ["intro7", "n7", "n9", "n11"]:
        c = published_circuit(tag)
        assert parse_circuit(serialize_circuit(c)) == c


def test_serialized_text_shape():
    c = published_circuit("n7")
    lines = serialize_circuit(c).splitlines()
    assert lines[0] == "majcirc 1"
    assert lines[1] == "n 7 k 5 depth 2"
    assert lines[2].startswith("gate 1:0 theta 3 : x1*1")
    assert lines[-1] == "top g2:0"


def test_parse_accepts_comments_and_reordered_gates():
    text = """\
# hand-written majority of three
majcirc 1
n 3 k 3 depth 2
gate 2:9 theta 2 : g1:5*1 g1:9*1 g1:2*1   # top row first; ids are per layer
gate 1:9 theta 2 : x1*1 x2*1 x3*1
gate 1:5 theta 1 : x2*1
gate 1:2 theta 3 : x1*1 x2*1 x3*1
top g2:9
"""
    c = parse_circuit(text)
    assert c.depth == 2
    # gate ids map to positions in file order: 9 -> 0, 5 -> 1, 2 -> 2
    assert c.layers[0][1].theta == 1
    assert c.layers[1][0].inputs == ((0, 1), (1, 1), (2, 1))
    for bits in itertools.product((0, 1), repeat=3):
        a = Assignment(bits)
        assert eval_circuit(c, a) == brute_eval(c, a)


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("majcirc 2\nn 1 k 1 depth 1\ngate 1:0 theta 1 : x1*1\ntop g1:0\n", 1),
        ("majcirc 1\nn 1 k 1\ngate 1:0 theta 1 : x1*1\ntop g1:0\n", 2),
        ("majcirc 1\nn 1 k 1 depth 1\ngate 1:0 theta 1 : x2*1\ntop g1:0\n", 3),
        ("majcirc 1\nn 1 k 1 depth 1\ngate 1:0 theta 1 : x1*0\ntop g1:0\n", 3),
        ("majcirc 1\nn 1 k 1 depth 1\ngate 1:0 theta 1 : x1*1 x1*1\ntop g1:0\n", 3),
        ("majcirc 1\nn 1 k 1 depth 1\ngate 1:0 theta 1 : x1*1\ntop g1:3\n", 4),
        ("majcirc 1\nn 1 k 1 depth 1\ngate 1:0 theta 1 : x1*1\n", 3),
        ("majcirc 1\nn 2 k 2 depth 2\ngate 1:0 theta 1 : x1*1\n"
         "gate 2:0 theta 1 : g1:4*1\ntop g2:0\n", 4),
        ("majcirc 1\nn 1 k 1 depth 1\nwires 3\ngate 1:0 theta 1 : x1*1\ntop g1:0\n", 3),
        ("majcirc 1\nn 2 k 2 depth 1\ngate 1:0 theta 1 : x1*1\n"
         "gate 1:0 theta 1 : x2*1\ntop g1:0\n", 4),
        ("majcirc 1\nn 1 k 1 depth 1\ngate 1:0 theta 1 : x1*1\ntop g1:0\ntop g1:0\n", 5),
        ("majcirc 1\nn 1 k 1 depth 1\ngate 1:0 theta 1 : x1*1\n"
         "gate 2:0 theta 1 : g1:0*1\ntop g1:0\n", 4),
        ("majcirc 1\nn 1 k 1 depth 1\ngate 0:0 theta 1 : x1*1\ntop g1:0\n", 3),
        ("majcirc 1\nn 1 k 1 depth 0\ngate 1:0 theta 1 : x1*1\ntop g1:0\n", 3),
        ("majcirc 1\nn 1 k 1 depth 0\ntop g0:0\n", 3),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(text)
    assert err.value.line == line


_ONE_GATE = "majcirc 1\nn 1 k 1 depth 1\n"
_THREE_LAYERS = "majcirc 1\nn 1 k 1 depth 3\ngate 1:0 theta 1 : x1*1\ngate 2:0 theta 1 : g1:0*1\n"


@pytest.mark.parametrize(
    "text,line,reason",
    [
        ("majcirc 1\n", 1, "missing header line"),
        (_ONE_GATE + "gate 1:0 theta x : x1*1\ntop g1:0\n", 3, "bad gate line 'gate 1:0 theta x : x1*1'"),
        (_ONE_GATE + "gate 1:0 theta 1 : x1*1\ntop 1:0\n", 4, "bad top line 'top 1:0'"),
        (_ONE_GATE + "gate 1:0 theta 1 : y1*1\ntop g1:0\n", 3, "bad input reference 'y1*1'"),
        (_ONE_GATE + "gate 1:0 theta 1 : g1:0*1\ntop g1:0\n", 3, "layer 1 gate may only reference variables"),
        (_THREE_LAYERS + "gate 3:0 theta 1 : g1:0*1\ntop g3:0\n", 5, "layer 3 gate may only reference layer 2 gates"),
        (_THREE_LAYERS + "gate 3:0 theta 1 : x1*1\ntop g3:0\n", 5, "layer 3 gate may only reference layer 2 gates"),
        (_THREE_LAYERS + "gate 3:0 theta 1 : g2:0*1\ntop g2:0\n", 6, "top must name a layer 3 gate"),
    ],
    ids=["header", "gate", "top", "reference", "layer1", "layer3", "layer3-variable", "top-layer"],
)
def test_parse_errors_name_their_check(text, line, reason):
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(text)
    assert (err.value.line, err.value.reason) == (line, reason)


def test_parse_reports_a_repeated_bad_body_on_its_first_line():
    text = (
        "majcirc 1\nn 2 k 2 depth 1\n"
        "gate 1:0 theta 1 : x1*1 x2*1\n"
        "gate 1:1 theta 2 : x1*1 x2*1\n"
        "gate 1:2 theta 1 : x2*1 x2*1\n"
        "gate 1:3 theta 2 : x2*1 x2*1\n"
        "gate 1:4 theta 1 : x2*1 x2*1\n"
        "top g1:0\n"
    )
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(text)
    assert err.value.line == 5
    assert err.value.reason == "duplicate input position 1"


def test_parse_shares_inputs_between_gates_with_one_body():
    text = (
        "majcirc 1\nn 3 k 3 depth 2\n"
        "gate 1:0 theta 1 : x1*1 x3*2\n"
        "gate 1:1 theta 2 : x1*1 x3*2\n"
        "gate 1:2 theta 2 : x3*2 x1*1\n"
        "gate 2:0 theta 1 : g1:0*1 g1:2*2\n"
        "gate 2:1 theta 3 : g1:0*1 g1:2*2\n"
        "top g2:1\n"
    )
    c = parse_circuit(text)
    first, second = c.layers
    assert first[0].inputs is first[1].inputs
    # the same pairs written in another order are another body
    assert first[2].inputs == first[0].inputs and first[2].inputs is not first[0].inputs
    assert second[0].inputs is second[1].inputs
    # layer 2's body names the same positions as layer 1's, but reads gates
    assert second[0].inputs == first[0].inputs and second[0].inputs is not first[0].inputs
    assert serialize_circuit(c) == serialize_circuit(
        LayeredCircuit(c.n, c.k, tuple(unshared(layer) for layer in c.layers), c.top)
    )


def test_parse_memory_does_not_grow_with_declared_depth():
    text = "majcirc 1\nn 1 k 1 depth 1000000\ngate 1:0 theta 1 : x1*1\ntop g1:0\n"
    tracemalloc.start()
    try:
        with pytest.raises(CircuitParseError) as err:
            parse_circuit(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.line == 2
    assert peak < 1 << 20


def test_parse_reads_its_text_a_block_at_a_time():
    """Parsing splits one block of the text into lines at a time, so its
    peak stays far below the text; "\r\n" line ends parse and number like
    "\n"."""
    c = build_block_circuit(default_block_params(4096))
    text = serialize_circuit(c)
    tracemalloc.start()
    try:
        parsed = parse_circuit(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == c
    assert peak < len(text) / 2
    assert parse_circuit(text.replace("\n", "\r\n")) == c
    crlf = "majcirc 1\r\n\r\nn 1 k 1 depth 1  # x\r\ngate 1:0 theta 1 : x1*1\r\n\r\n"
    with pytest.raises(CircuitParseError, match="missing top line") as err:
        parse_circuit(crlf)
    assert err.value.line == 4


def test_parse_rejects_fanin_over_declared_bound():
    text = (
        "majcirc 1\nn 4 k 3 depth 1\n"
        "gate 1:0 theta 2 : x1*1 x2*1 x3*1 x4*1\ntop g1:0\n"
    )
    with pytest.raises(CircuitError, match="fan-in"):
        parse_circuit(text)


def test_parse_rejects_cross_layer_reference():
    text = (
        "majcirc 1\nn 2 k 2 depth 2\n"
        "gate 1:0 theta 1 : x1*1\n"
        "gate 2:0 theta 1 : x2*1\ntop g2:0\n"
    )
    with pytest.raises(CircuitParseError):
        parse_circuit(text)


# one body on a depth-1 circuit (line 3) or on layer 2 of a depth-2 one
# (line 5), whose layer 1 is x1 and x2 alone
_BODY_ON_LAYER1 = "majcirc 1\nn {n} k 10000000000000000000 depth 1\ngate 1:0 theta 1 : {body}\ntop g1:0\n"
_BODY_ON_LAYER2 = (
    "majcirc 1\nn {n} k 3 depth 2\ngate 1:0 theta 1 : x1*1\ngate 1:1 theta 1 : x2*1\n"
    "gate 2:0 theta 1 : {body}\ntop g2:0\n"
)
# layer-1 gate ids of 19 digits, the first of them 2^63 - 1
_BODY_ON_WIDE_IDS = (
    "majcirc 1\nn {n} k 3 depth 2\ngate 1:9223372036854775807 theta 1 : x1*1\n"
    "gate 1:9999999999999999999 theta 1 : x2*1\ngate 2:0 theta 1 : {body}\ntop g2:0\n"
)


@pytest.mark.parametrize(
    "template,n,body,expected,by_tokens",
    [
        (_BODY_ON_LAYER1, 2, "x1*1 x2*1", ((0, 1), (1, 1)), False),
        (_BODY_ON_LAYER2, 2, "g1:1*1 g1:0*2", ((0, 2), (1, 1)), False),
        (_BODY_ON_LAYER1, 2, "x1*1\tx2*1", ((0, 1), (1, 1)), True),
        (_BODY_ON_LAYER1, 2, "x1*1  x2*1", ((0, 1), (1, 1)), True),
        (_BODY_ON_LAYER1, 2, " x1*1 x2*1", ((0, 1), (1, 1)), True),
        (_BODY_ON_LAYER1, 2, "x١*1", ((0, 1),), True),
        (_BODY_ON_LAYER1, 2, "x1*1234567890123456789", ((0, 1234567890123456789),), True),
        (_BODY_ON_LAYER1, 2, "x1*-1", (3, "non-positive weight -1 on position 0"), True),
        (_BODY_ON_LAYER1, 2, "x1*0", (3, "non-positive weight 0 on position 0"), True),
        (_BODY_ON_LAYER1, 2, "x0*1", (3, "variable x0 out of range 1..2"), True),
        (_BODY_ON_LAYER1, 1, "x2*1", (3, "variable x2 out of range 1..1"), True),
        (_BODY_ON_LAYER1, 2, "x2*1 x2*3", (3, "duplicate input position 1"), False),
        (_BODY_ON_LAYER2, 2, "g1:0*1 g1:9*1", (5, "dangling reference g1:9"), True),
        (_BODY_ON_LAYER2, 2, "g0:0*1", (5, "layer 2 gate may only reference layer 1 gates"), True),
        (_BODY_ON_LAYER2, 2, "g1:0*1 x1*1", (5, "layer 2 gate may only reference layer 1 gates"), True),
        (_BODY_ON_WIDE_IDS, 2, "g1:9999999999999999999*1", ((1, 1),), True),
    ],
    ids=[
        "plain", "plain-layer2", "tab", "double-space", "leading-space", "arabic-indic-digit",
        "19-digit-weight", "negative-weight", "zero-weight", "x0", "x2-at-n1", "repeat",
        "dangling", "wrong-layer", "variable-on-layer2", "19-digit-gate-id",
    ],
)
def test_parse_reads_bodies_off_the_bulk_pattern_token_by_token(
    template, n, body, expected, by_tokens
):
    """A body with other spacing or digits, a sign, a weight below 1, a
    number of 19 digits, or a reference that does not resolve is read
    token by token, and parses, or fails with the line and reason, as
    before the one-pass reader; a repeated input passes that reader and
    fails in the gate."""
    from majcirc import core

    text = template.format(n=n, body=body)
    with mock.patch.object(core, "_token_inputs", wraps=core._token_inputs) as tokens:
        if isinstance(expected[0], tuple):
            assert parse_circuit(text).layers[-1][0].inputs == expected
        else:
            with pytest.raises(CircuitParseError) as err:
                parse_circuit(text)
            assert (err.value.line, err.value.reason) == expected
    assert tokens.called == by_tokens


@st.composite
def heavy_circuit_strategy(draw):
    """Random depth-1..3 circuits whose weights reach 10^18 and 2^63,
    on both sides of the one-pass reader's 18-digit bound."""
    weight = st.one_of(
        st.integers(1, 3), st.integers(10**18 - 2, 10**18 + 1), st.integers(2**63 - 1, 2**70)
    )
    n = draw(st.integers(1, 6))
    layers = []
    width = n
    for _ in range(draw(st.integers(1, 3))):
        layer = []
        for _ in range(draw(st.integers(1, 4))):
            support = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=width, unique=True))
            layer.append(ThresholdGate(tuple((p, draw(weight)) for p in support), draw(st.integers(-1, 4))))
        layers.append(tuple(layer))
        width = len(layer)
    k = max(g.fanin for layer in layers for g in layer)
    return LayeredCircuit(n=n, k=k, layers=tuple(layers), top=draw(st.integers(0, width - 1)))


@settings(max_examples=150, deadline=None)
@given(heavy_circuit_strategy(), st.randoms(use_true_random=False))
def test_round_trip_with_huge_weights_and_interleaved_layers(c, rnd):
    """Gate lines of different layers interleaved at random, each layer's
    lines kept in order, parse back to the circuit."""
    text = serialize_circuit(c)
    lines = text.splitlines(keepends=True)
    by_layer = [[line for line in lines[2:-1] if line.startswith(f"gate {d}:")] for d in (1, 2, 3)]
    shuffled = []
    while any(by_layer):
        shuffled.append(rnd.choice([layer for layer in by_layer if layer]).pop(0))
    back = parse_circuit("".join(lines[:2] + shuffled + lines[-1:]))
    assert back == c
    assert serialize_circuit(back) == text


def gate_strategy(width: int, k: int):
    """Random gates over a layer of the given width, fan-in at most k."""
    return st.lists(
        st.tuples(st.integers(0, width - 1), st.integers(1, 3)),
        min_size=1,
        max_size=min(width, k),
        unique_by=lambda pw: pw[0],
    ).flatmap(
        lambda inputs: st.builds(
            ThresholdGate,
            st.just(tuple(inputs)),
            st.integers(0, sum(w for _, w in inputs) + 1),
        )
        if sum(w for _, w in inputs) <= k
        else st.nothing()
    )


@st.composite
def circuit_strategy(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(2, 6))
    depth = draw(st.integers(1, 3))
    layers = []
    width = n
    for _ in range(depth):
        size = draw(st.integers(1, 4))
        layers.append(tuple(draw(gate_strategy(width, k)) for _ in range(size)))
        width = size
    top = draw(st.integers(0, len(layers[-1]) - 1))
    return LayeredCircuit(n=n, k=k, layers=tuple(layers), top=top)


@settings(max_examples=60, deadline=None)
@given(circuit_strategy())
def test_round_trip_random_circuits(c):
    assert parse_circuit(serialize_circuit(c)) == c


def unshared(layer):
    """The layer with every gate's inputs checked into an object of its own."""
    return tuple(ThresholdGate(g.inputs, g.theta) for g in layer)


def serialize_gate_by_gate(c: LayeredCircuit) -> str:
    """The text format written one gate at a time, sharing nothing."""
    lines = ["majcirc 1", f"n {c.n} k {c.k} depth {c.depth}"]
    for d, layer in enumerate(c.layers, start=1):
        for g, gate in enumerate(layer):
            refs = " ".join(
                f"x{p + 1}*{w}" if d == 1 else f"g{d - 1}:{p}*{w}" for p, w in gate.inputs
            )
            lines.append(f"gate {d}:{g} theta {gate.theta} : {refs}")
    lines.append(f"top g{c.depth}:{c.top}")
    return "\n".join(lines) + "\n"


@st.composite
def shared_circuit_strategy(draw):
    """Random circuits whose gates repeat some supports: on one shared
    inputs object by with_theta, as a gate checked from an equal tuple,
    and, across layers, as the same object read by gates of two layers."""
    c = draw(circuit_strategy())
    layers = []
    for layer in c.layers:
        gates = list(layer)
        for _ in range(draw(st.integers(0, 3))):
            src = draw(st.sampled_from(gates))
            if draw(st.booleans()):
                again = src.with_theta(src.theta + 1)
            else:
                again = ThresholdGate(src.inputs, src.theta + 1)
            gates.insert(draw(st.integers(0, len(gates))), again)
        layers.append(tuple(gates))
    for d in range(1, len(layers)):
        # a later layer may reuse an earlier layer's object where it fits
        reuse = [g for g in layers[d - 1] if g.inputs[-1][0] < len(layers[d - 1])]
        if reuse and draw(st.booleans()):
            layers[d] = layers[d] + (draw(st.sampled_from(reuse)).with_theta(1),)
    top = draw(st.integers(0, len(layers[-1]) - 1))
    return LayeredCircuit(n=c.n, k=10**6, layers=tuple(layers), top=top)


@settings(max_examples=80, deadline=None)
@given(shared_circuit_strategy())
def test_round_trip_with_repeated_bodies_keeps_the_text(c):
    text = serialize_circuit(c)
    assert text == serialize_gate_by_gate(c)
    back = parse_circuit(text)
    assert back == c
    assert serialize_circuit(back) == text
    for parsed, built in zip(back.layers, c.layers):
        # gates share inputs exactly when their bodies are equal
        by_body = {}
        for g in parsed:
            assert by_body.setdefault(g.inputs, g.inputs) is g.inputs
        assert len(by_body) == len({g.inputs for g in built})


@settings(max_examples=40, deadline=None)
@given(circuit_strategy(), st.data())
def test_monotone_on_comparable_inputs(c, data):
    """Flipping a zero to a one never turns the output off."""
    bits = data.draw(st.lists(st.integers(0, 1), min_size=c.n, max_size=c.n))
    a = Assignment(tuple(bits))
    lo = eval_circuit(c, a)
    zero_positions = [i + 1 for i, b in enumerate(a.bits) if b == 0]
    if not zero_positions:
        return
    i = data.draw(st.sampled_from(zero_positions))
    assert eval_circuit(c, flip(a, i)) >= lo


def test_published_rows_are_immutable_views():
    rows = published_rows("n7")
    assert isinstance(rows, tuple)
    assert all(isinstance(r, tuple) for r in rows)
    with pytest.raises(ValueError, match="unknown circuit tag"):
        published_rows("n8")
