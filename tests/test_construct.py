"""Circuit builders: correlation, block, depth-3, and the fixed catalogue."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from majcirc.construct import (
    BlockParams,
    CorrelationParams,
    Depth3Params,
    block_threshold_range,
    block_window,
    build_block_circuit,
    build_correlation,
    build_depth3,
    default_block_params,
    default_correlation_k,
    depth3_y_blocks,
    middle_window,
    middle_window_weights,
    omission_circuit,
    pad_to_block_multiple,
    published_circuit,
    published_rows,
    PUBLISHED_TAGS,
    random_omission_pairs,
)
from majcirc.core import (
    Assignment,
    eval_circuit,
    inspect_circuit,
    majority_threshold,
    majority_value,
    parse_circuit,
    serialize_circuit,
)
from majcirc.search import SearchSpaceSpec, exhaustive_search
from majcirc.verify import sample_layer_chunk, truth_table, verify_all


# -- correlation circuits ----------------------------------------------------


def test_correlation_structure():
    c = build_correlation(CorrelationParams(n=9, k=3, seed=5))
    assert c.n == 9 and c.k == 3 and c.depth == 2
    assert len(c.layers[0]) == 3
    for g in c.layers[0]:
        assert len(g.support) == 3  # distinct variables
        assert g.weights == (1, 1, 1)
        assert g.theta == 2
        assert all(0 <= p < 9 for p in g.support)
    top = c.top_gate
    assert top.support == (0, 1, 2)
    assert top.theta == 2


def test_correlation_deterministic_in_seed():
    p = CorrelationParams(n=20, k=7, seed=123)
    assert build_correlation(p) == build_correlation(p)
    other = build_correlation(CorrelationParams(n=20, k=7, seed=124))
    assert other != build_correlation(p)


def test_correlation_trivial_size_computes_x1():
    c = build_correlation(CorrelationParams(n=1, k=1, seed=0))
    assert eval_circuit(c, Assignment((0,))) == 0
    assert eval_circuit(c, Assignment((1,))) == 1


def test_correlation_params_validation():
    with pytest.raises(ValueError):
        CorrelationParams(n=5, k=6, seed=0)
    with pytest.raises(ValueError):
        CorrelationParams(n=0, k=1, seed=0)


def test_default_correlation_k():
    assert default_correlation_k(1001) == 256
    assert default_correlation_k(1) == 1
    assert default_correlation_k(4) == 4  # clamped to n
    for n in [10, 100, 1000]:
        k = default_correlation_k(n)
        assert 1 <= k <= n


# -- block circuits ----------------------------------------------------------


def test_block_threshold_range_examples():
    assert list(block_threshold_range(4, 2)) == [1, 2, 3]
    assert list(block_threshold_range(4, 4)) == [1, 2, 3, 4]
    assert list(block_threshold_range(8, 3)) == [3, 4, 5]
    assert list(block_threshold_range(8, 8)) == [1, 2, 3, 4, 5, 6, 7, 8]
    # clamped into 1..p; only t = 0 with odd p can come out empty
    for p in range(1, 12):
        for t in range(0, p + 1):
            r = block_threshold_range(p, t)
            if len(r) == 0:
                assert t == 0 and p % 2 == 1
                continue
            assert 1 <= r.start <= r.stop - 1 <= p
            assert len(r) in (t, t + 1)


def test_block_params_validation():
    with pytest.raises(ValueError, match="divide"):
        BlockParams(n=16, p=5, window_t=2)
    with pytest.raises(ValueError, match="out of range"):
        BlockParams(n=16, p=4, window_t=5)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: BlockParams(n=16, p=0, window_t=0), "^p must be positive$"),
        (lambda: default_block_params(0), "^n must be positive$"),
        (lambda: pad_to_block_multiple(10, 0), "^p must be positive$"),
        (lambda: Depth3Params(0), "^b must be positive$"),
        # window_t = 0 at odd p leaves no threshold between p/2 and p/2
        (lambda: build_block_circuit(BlockParams(3, 3, 0)),
         r"^empty threshold window for p=3, window_t=0$"),
    ],
    ids=["block-p", "default-n", "pad-p", "depth3-b", "empty-window"],
)
def test_size_parameters_out_of_range_are_refused(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_block_structure_16_4():
    c = build_block_circuit(BlockParams(n=16, p=4, window_t=2))
    assert c.depth == 2
    assert len(c.layers[0]) == 12  # three window thresholds per block
    thetas = sorted({g.theta for g in c.layers[0]})
    assert thetas == [1, 2, 3]
    for b in range(4):
        block_gates = c.layers[0][3 * b : 3 * b + 3]
        for g in block_gates:
            assert g.support == tuple(range(4 * b, 4 * b + 4))
    assert c.k == 12
    top = c.top_gate
    assert top.fanin == 12
    # window starts at threshold 1, so no dropped certain-win correction
    assert top.theta == majority_threshold(16)


def test_block_full_window_is_exact():
    for n, p in [(8, 2), (12, 3), (16, 4), (20, 5), (18, 6)]:
        c = build_block_circuit(BlockParams(n=n, p=p, window_t=p))
        assert c.top_gate.is_standard()
        report = verify_all(c)
        assert report.errors == 0
        assert report.total_checked == 2**n


def test_block_correct_inside_window():
    """Inputs whose block weights all stay in the window are never wrong."""
    params = BlockParams(n=16, p=4, window_t=2)
    c = build_block_circuit(params)
    ms = block_threshold_range(params.p, params.window_t)
    tt = truth_table(c)
    idx = np.arange(2**16, dtype=np.uint32)
    bits = (idx[:, None] >> np.arange(15, -1, -1)[None, :]) & 1
    blocks = bits.reshape(-1, 4, 4).sum(axis=2)
    inside = ((blocks >= ms.start) & (blocks <= ms[-1])).all(axis=1)
    maj = bits.sum(axis=1) >= 8
    assert (tt[inside] == maj[inside]).all()
    # the narrow window does miss some out-of-window inputs
    assert (tt != maj).any()


def test_block_top_threshold_accounts_for_dropped_gates():
    params = BlockParams(n=64, p=8, window_t=3)
    c = build_block_circuit(params)
    ms = block_threshold_range(8, 3)
    assert ms.start == 3
    assert c.top_gate.theta == 32 - 8 * (3 - 1)


def test_default_block_params_values():
    bp = default_block_params(4096)
    assert bp.p == 256
    expected_t = math.ceil(3.0 * math.sqrt(256 * math.log(256)))
    assert bp.window_t == expected_t == 114
    assert default_block_params(8).p == 4
    assert default_block_params(8).window_t == 4  # clamped to p, full window
    assert default_block_params(27).p == 9
    assert default_block_params(12).p == 6


@pytest.mark.parametrize("alpha", [0.0, -3.0, math.nan, math.inf, -math.inf])
def test_block_window_rejects_alpha_that_is_not_finite_and_positive(alpha):
    for p in (1, 64):
        with pytest.raises(ValueError, match="alpha=.* must be finite and positive"):
            block_window(p, alpha)
    with pytest.raises(ValueError, match="alpha"):
        default_block_params(64, alpha)


def test_block_window_small_positive_alpha_still_clamps_to_one():
    assert block_window(64, 1e-9) == 1
    assert block_window(64, 100.0) == 64


def pairwise_nearest_divisor(n: int) -> int:
    """The divisor of n nearest n^(2/3), ties to the smaller, by walking all
    divisors in order and keeping the nearer of each and the best so far;
    the oracle for default_block_params."""

    def closer(d1: int, d2: int) -> int:
        c1, c2 = d1**3, d2**3
        sq = n * n
        if c1 >= sq:  # both at or above the target
            return d1
        if c2 <= sq:  # both at or below
            return d2
        return d1 if (d1 + d2) ** 3 >= 8 * sq else d2

    divisors = sorted(d for d in range(1, n + 1) if n % d == 0)
    p = divisors[0]
    for d in divisors[1:]:
        p = closer(p, d) if p < d else p
    return p


def test_default_block_params_matches_the_pairwise_scan():
    for n in [*range(1, 3001), 4096, 32768, 46656, 65536, 99999, 100000]:
        assert default_block_params(n).p == pairwise_nearest_divisor(n), n


def test_default_block_params_reads_divisors_up_to_the_square_root():
    assert default_block_params(10**6).p == 10**4
    # a scan of all n candidate divisors would not finish here
    assert default_block_params(10**12).p == 10**8


def test_default_block_params_picks_divisor_near_two_thirds_power():
    for n in [6, 10, 24, 36, 100, 128, 1000, 4096]:
        bp = default_block_params(n)
        assert n % bp.p == 0
        target = n ** (2 / 3)
        competitors = [d for d in range(1, n + 1) if n % d == 0]
        best = min(abs(d - target) for d in competitors)
        assert abs(bp.p - target) <= best + 1e-9
        assert 1 <= bp.window_t <= bp.p


def test_pad_to_block_multiple():
    assert pad_to_block_multiple(10, 4) == (12, 1, 1)
    assert pad_to_block_multiple(16, 4) == (16, 0, 0)
    for n in range(1, 13):
        for p in range(1, 7):
            n_pad, zeros, ones = pad_to_block_multiple(n, p)
            assert n_pad >= n and n_pad % p == 0
            assert zeros + ones == n_pad - n
            # appending `ones` ones shifts the majority cut-off by exactly that
            assert majority_threshold(n_pad) == majority_threshold(n) + ones


# -- depth-3 circuits --------------------------------------------------------


def test_depth3_structure_b2():
    params = Depth3Params(b=2)
    assert params.n == 16 and params.p == 8
    c = build_depth3(params)
    assert c.depth == 3
    assert len(c.layers[0]) == 16  # every threshold 1..8 per block
    assert all(g.fanin == 8 for g in c.layers[0])
    assert len(c.layers[1]) == 10  # window 2..6, two strided re-blocks
    assert sorted({g.theta for g in c.layers[1]}) == [2, 3, 4, 5, 6]
    assert all(g.fanin == 8 for g in c.layers[1])
    top = c.top_gate
    assert top.fanin == 10
    assert top.theta == 6  # b^2 + b


def test_depth3_y_blocks_partition():
    params = Depth3Params(b=3)
    blocks = depth3_y_blocks(params)
    assert len(blocks) == 3
    assert all(len(y) == params.p for y in blocks)
    flat = sorted(pos for y in blocks for pos in y)
    assert flat == list(range(3 * 18))
    assert blocks[0][:4] == (0, 3, 6, 9)


def test_middle_window():
    assert list(middle_window(Depth3Params(b=2))) == [2, 3, 4, 5, 6]
    assert list(middle_window(Depth3Params(b=3))) == [6, 7, 8, 9, 10, 11, 12]


def test_depth3_b1_exact():
    c = build_depth3(Depth3Params(b=1))
    assert c.n == 2
    report = verify_all(c)
    assert report.errors == 0


def test_depth3_balanced_inputs_hit_the_window():
    """Weight-n/2 inputs drive every re-block weight into the middle window."""
    params = Depth3Params(b=3)
    window = middle_window(params)
    rng_rows = sample_layer_chunk(params.n, params.n // 2, 50, 99, 0)
    for row in rng_rows:
        a = Assignment(tuple(int(v) for v in row))
        for w in middle_window_weights(params, a):
            assert window.start <= w <= window[-1]


def test_depth3_spot_inputs():
    c = build_depth3(Depth3Params(b=2))
    assert eval_circuit(c, Assignment((1,) * 16)) == 1
    assert eval_circuit(c, Assignment((0,) * 16)) == 0
    exact_half = Assignment((1, 0) * 8)
    assert eval_circuit(c, exact_half) == majority_value(exact_half)
    one_below = Assignment((1,) * 7 + (0,) * 9)
    assert majority_value(one_below) == 0
    assert eval_circuit(c, one_below) == 0


# -- fixed catalogue ---------------------------------------------------------

EXPECTED_ROWS = {
    "intro7": (
        (1, 2, 3, 4, 5),
        (1, 2, 5, 6, 7),
        (1, 3, 4, 6, 6),
        (2, 3, 3, 5, 6),
        (2, 4, 5, 7, 7),
    ),
    "n7": (
        (1, 2, 3, 4, 5),
        (1, 2, 3, 6, 7),
        (1, 4, 5, 6, 7),
        (2, 2, 4, 5, 6),
        (3, 4, 5, 7, 7),
    ),
}


def test_published_tags():
    assert PUBLISHED_TAGS == ("intro7", "n11", "n7", "n9")


@pytest.mark.parametrize("tag", ["intro7", "n7"])
def test_published_rows_exact(tag):
    assert published_rows(tag) == EXPECTED_ROWS[tag]


@pytest.mark.parametrize("tag,n", [("intro7", 7), ("n7", 7), ("n9", 9), ("n11", 11)])
def test_published_shapes(tag, n):
    rows = published_rows(tag)
    k = n - 2
    assert len(rows) == k
    assert all(len(r) == k for r in rows)
    assert all(1 <= v <= n for r in rows for v in r)
    # each circuit leans on repeated variables somewhere
    assert any(len(set(r)) < len(r) for r in rows)
    c = published_circuit(tag)
    stats = inspect_circuit(c)
    assert stats.n == n and stats.k == k and stats.depth == 2
    assert stats.gate_count == k + 1
    assert stats.all_standard


def test_published_gate_weights_follow_multiplicity():
    c = published_circuit("n7")
    # row 2 2 4 5 6: weight 2 on x2
    g = c.layers[0][3]
    assert g.inputs == ((1, 2), (3, 1), (4, 1), (5, 1))
    assert g.theta == 3


def test_published_unknown_tag():
    with pytest.raises(ValueError, match="unknown circuit tag"):
        published_circuit("n13")


# -- omission circuits -------------------------------------------------------


def test_omission_circuit_structure():
    pairs = [(1, 2), (3, 4), (4, 5)]
    c = omission_circuit(5, pairs)
    assert c.n == 5 and c.k == 3 and c.depth == 2
    assert len(c.layers[0]) == 3
    for gate, (a, b) in zip(c.layers[0], pairs):
        kept = tuple(v - 1 for v in range(1, 6) if v not in (a, b))
        assert gate.support == kept
        assert gate.weights == (1, 1, 1)
        assert gate.theta == 2
    assert c.top_gate.theta == 2


def test_omission_circuit_validation():
    with pytest.raises(ValueError):
        omission_circuit(5, [(1, 1), (3, 4), (4, 5)])  # endpoints must differ
    with pytest.raises(ValueError):
        omission_circuit(5, [(0, 2), (3, 4), (4, 5)])
    # the builder itself does not pin the pair count
    c = omission_circuit(5, [(1, 2), (3, 4)])
    assert len(c.layers[0]) == 2


def test_random_omission_pairs():
    pairs = random_omission_pairs(9, seed=4)
    assert len(pairs) == 7
    for a, b in pairs:
        assert 1 <= a < b <= 9
    assert random_omission_pairs(9, seed=4) == pairs
    assert random_omission_pairs(9, seed=5) != pairs
    # the induced circuit is well-formed for every small odd n
    for n in [5, 7, 9, 11, 13]:
        c = omission_circuit(n, random_omission_pairs(n, seed=1))
        assert inspect_circuit(c).all_standard


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_correlation(CorrelationParams(n=21, k=9, seed=3)),
        lambda: build_block_circuit(default_block_params(64)),
        lambda: build_block_circuit(BlockParams(16, 4, 4)),
        lambda: build_depth3(Depth3Params(2)),
        lambda: omission_circuit(7, [(1, 2), (3, 4), (5, 6), (7, 1), (2, 3)]),
    ],
    ids=["correlation", "block_default", "block_16_4", "depth3_b2", "omission7"],
)
def test_every_family_round_trips_through_the_text_format(build):
    c = build()
    assert parse_circuit(serialize_circuit(c)) == c


@pytest.mark.parametrize(
    "build, digest",
    [
        (lambda: build_block_circuit(default_block_params(64)),
         "945bc6672e46396cb0b02d0475d1564a36ec0f51f586cbd0a7c9d3b00430f355"),
        (lambda: build_block_circuit(default_block_params(1000)),
         "0d01b9f345edea1676ecc348a4243138b9faac751aa6fccb4dbc74bbb8a73e7f"),
        (lambda: build_block_circuit(default_block_params(4096)),
         "57850fa662d812df7f5b4c9b6bb199dc828f3cb287eb301efe0189df73225ada"),
        (lambda: build_block_circuit(BlockParams(25, 5, 5)),
         "ccfec526e44736f09c988849677fe4129dcb076784715121f087c5c672948348"),
        (lambda: build_block_circuit(BlockParams(4096, 16, 4)),
         "b195238ebcc79a6cece80a3a0ab6a92b158fc67ed2d14e064d488e070aefc063"),
        (lambda: build_block_circuit(BlockParams(9, 3, 3)),
         "738be4fd5457384f6a6949f31de0fc5e997881695f89a6b88d88d465136ce0ae"),
        (lambda: build_depth3(Depth3Params(1)),
         "dade044e7f8ed8f3a961342a83338384b7fc283948de274318545a2cf113fc1b"),
        (lambda: build_depth3(Depth3Params(2)),
         "6a04d5c7747aa15a52a2e30d5d34e3f1597d2fb889501c0d7f3cabd8778f6c0e"),
        (lambda: build_depth3(Depth3Params(3)),
         "6587704c0da83b8ac7286fb0c5b74645ef3ffffe05b07c654fae4eb42202bc19"),
        (lambda: build_depth3(Depth3Params(4)),
         "13f2d1bba0f329427c17e6cdd53542533687379d86cb8304b547dfcd3e512a76"),
        (lambda: build_depth3(Depth3Params(5)),
         "3b021ce8dc14280bb2a1de94586cbb841466f2c079476342650829efcf16ea52"),
    ],
    ids=["block_64", "block_1000", "block_4096", "block_25_5_5", "block_4096_16_4",
         "block_9_3_3", "depth3_b1", "depth3_b2", "depth3_b3", "depth3_b4", "depth3_b5"],
)
def test_builder_text_bytes_are_pinned(build, digest):
    """sha256 of the serialized block and depth-3 circuits: the gates, their
    order and their thresholds stay fixed across rewrites of the builders."""
    text = serialize_circuit(build())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# every assembler that goes through core.with_top, with the sha256 of its
# circuit's text followed by repr(inspect_circuit(...)), computed before
# the builders shared with_top
PINNED_BUILDS = {
    "correlation_41": (
        lambda: build_correlation(CorrelationParams(41, 13, seed=2)),
        "e293abff603cde453054b5853ed03defa72b73576c9d86036724c58856d613dc"),
    "correlation_1001": (
        lambda: build_correlation(CorrelationParams(1001, 256, seed=3)),
        "85e80ed52b21b57b88b0cf795d6a261322e3a62f778bbcbf51470c6a8f008d72"),
    "block_4096": (
        lambda: build_block_circuit(default_block_params(4096)),
        "9ddf7eac79fa2ced995e0d2643172fab961884760d965151aa0c08868f02d5b5"),
    "block_25_5_5": (
        lambda: build_block_circuit(BlockParams(25, 5, 5)),
        "4c3715d8615f0846101f9ee66eacbc59c88f20b9b5829532d47b0e0b0b7fefbc"),
    "block_64_8_2": (
        lambda: build_block_circuit(BlockParams(64, 8, 2)),
        "87085683e76d25885badebdbb9d97ccfda1103565d4d0f8dcd929d05c4705a00"),
    # one block of 64 under a top gate of 3: k is the bottom fan-in
    "block_64_64_2": (
        lambda: build_block_circuit(BlockParams(64, 64, 2)),
        "684b555b13dc694b6b7e6c12b8fa559632782d2a0dc366dcd2294aad3c8a229a"),
    "depth3_b2": (
        lambda: build_depth3(Depth3Params(2)),
        "d165cc0b80c8d0e4646e1d99b3029640e080c2b946af026e2a9f8eaed6c3bd10"),
    "depth3_b3": (
        lambda: build_depth3(Depth3Params(3)),
        "9446a9186ed3817da901d00d68aa5f5f9aca904e352796eccc19979645c52435"),
    "published_intro7": (
        lambda: published_circuit("intro7"),
        "d1b7da6b3ddb69c623144ce383bf5a85b2aea8043f57470d9b10f2b2764cdfc2"),
    "published_n7": (
        lambda: published_circuit("n7"),
        "de487beec3ebecdcddb72bd1644cd33c27967a2c621d90ebb886c97056d67ac5"),
    "published_n9": (
        lambda: published_circuit("n9"),
        "f8f55df7da5d21c866f88e3c1ff737d5d255a099a668c885a5de1af29ef46e92"),
    "published_n11": (
        lambda: published_circuit("n11"),
        "546c44ba6662cb09d2dfe746078f5d4da34fcf6f7ea70bebe2ad40f59faad408"),
    "omission_9": (
        lambda: omission_circuit(9, random_omission_pairs(9, seed=1)),
        "e8fc9912123447e4fd0d0d241abf35af8641b926764206c46a580687a8c7ab6a"),
    "omission_15": (
        lambda: omission_circuit(15, random_omission_pairs(15, seed=1)),
        "3bd5a50d0511a3c310eeb1a6e12e2d04f7808683accb0231f3ae396a21e1bb2b"),
    # two gates of fan-in 7: k is the bottom fan-in
    "omission_9_two_gates": (
        lambda: omission_circuit(9, [(1, 2), (3, 4)]),
        "3f960c99f6d927d9d3c35f595cafd4b39f2b5d6f2d41cd31e444b963b74ce20f"),
    "exhaustive_3_3_1_std": (
        lambda: exhaustive_search(SearchSpaceSpec(3, 3, 1, True)),
        "d4e3489f64dbb06bc6ab329306951e0fffafa2d59fbe04b52a67ec4a0e58c1a9"),
    "exhaustive_3_3_2_full": (
        lambda: exhaustive_search(SearchSpaceSpec(3, 3, 2, False)),
        "95bb0fd9001a9bd2e44ec1b392e2541057121bb44587d2f4b49db3fa1e5ade24"),
    "exhaustive_4_4_2_std": (
        lambda: exhaustive_search(SearchSpaceSpec(4, 4, 2, True)),
        "c5185e69b5d0dd7e23968bcd772d7d9335ba3bfcdd83be2bc82ccc04283f07bb"),
    "exhaustive_4_3_2_full": (
        lambda: exhaustive_search(SearchSpaceSpec(4, 3, 2, False)),
        "71689fb7673f466f422b1991a676272aeb5db0d835760e74ecff9cb9780aaaeb"),
    "exhaustive_5_5_1_std": (
        lambda: exhaustive_search(SearchSpaceSpec(5, 5, 1, True)),
        "76a8cb55c31916dc5f0e5776e2d5bc9f6a4f2a4bcebd9e7c572faa3fb7230274"),
    "exhaustive_5_5_2_std": (
        lambda: exhaustive_search(SearchSpaceSpec(5, 5, 2, True)),
        "1a303268d24a84b73c69e335c81d83d6ec927a3bee3922ba1552ea847fb47e14"),
    "exhaustive_5_4_2_full": (
        lambda: exhaustive_search(SearchSpaceSpec(5, 4, 2, False)),
        "d8b310c90171edf21a8eaf0f27f5399634c3abf0670ca4302fe73f210b921c3d"),
    "exhaustive_5_5_1_full": (
        lambda: exhaustive_search(SearchSpaceSpec(5, 5, 1, False)),
        "230ceb6f958d56d488c9a43e218cdc4e09943f2174f72e0b60889005c76bce47"),
}


@pytest.mark.parametrize("name", PINNED_BUILDS)
def test_builder_bytes_and_stats_are_pinned(name):
    build, digest = PINNED_BUILDS[name]
    c = build()
    text = serialize_circuit(c) + repr(inspect_circuit(c))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", PINNED_BUILDS)
def test_declared_k_is_the_largest_fanin(name):
    c = PINNED_BUILDS[name][0]()
    assert c.k == inspect_circuit(c).max_fanin
    assert c.k == max(sum(g.weights) for _, _, g in c.gates())


def distinct_inputs(layer) -> int:
    return len({id(g.inputs) for g in layer})


def test_block_gates_share_one_inputs_object_per_block():
    bp = default_block_params(4096)
    c = build_block_circuit(bp)
    back = parse_circuit(serialize_circuit(c))
    for circuit in (c, back):
        assert len(circuit.layers[0]) == 16 * len(block_threshold_range(bp.p, bp.window_t))
        assert distinct_inputs(circuit.layers[0]) == bp.n // bp.p == 16
        assert distinct_inputs(circuit.layers[1]) == 1


def test_depth3_gates_share_one_inputs_object_per_block():
    params = Depth3Params(3)
    c = build_depth3(params)
    back = parse_circuit(serialize_circuit(c))
    for circuit in (c, back):
        # b blocks of p variables, then b strided re-blocks
        assert distinct_inputs(circuit.layers[0]) == 3
        assert distinct_inputs(circuit.layers[1]) == 3
        assert distinct_inputs(circuit.layers[2]) == 1


def test_block_round_trip_at_32768_keeps_memory_per_distinct_support():
    """Load cost scales with distinct supports, not gates: 8096 gates of 1024
    inputs on 32 supports.  Checking and formatting every gate's full tuple
    took 16 s and 1.6 GB max RSS on 2 CPUs; sharing takes 0.34 s and 183 MB.
    The text alone is 69 MB; serialize peaks near 75 MB and parse near
    150 MB (tracemalloc)."""
    bp = default_block_params(32768)
    assert (bp.p, bp.window_t) == (1024, 253)
    c = build_block_circuit(bp)
    tracemalloc.start()
    try:
        text = serialize_circuit(c)
        serialize_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = parse_circuit(text)
        parse_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) < 80 << 20
    assert serialize_peak < len(text) + (16 << 20)
    assert parse_peak < 2 * len(text) + (32 << 20)
    assert distinct_inputs(back.layers[0]) == 32
    assert back == c
