"""Builders for majority circuits of depth 2 and 3.

Three parametric families plus a small catalogue of fixed hand-crafted
circuits:

* correlation circuits: k random size-k variable subsets, each fed to a
  standard majority gate, combined by a standard majority at the top.
  Correct only with high probability over random inputs.
* block circuits: the variables are cut into n/p blocks; each block gets a
  run of threshold gates that together act as a sorting network for the
  block sum, and the top majority reads all of them.  Exactly correct when
  the threshold window spans all of 1..p.
* depth-3 circuits: block circuits whose middle layer re-blocks the sorted
  outputs with a stride, cutting the top fan-in to O(n^(1/3) log n) gates.

All builders return LayeredCircuit values whose declared fan-in bound k is
tight for the family.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .core import (
    Assignment,
    LayeredCircuit,
    ThresholdGate,
    eval_layers,
    majority_gate,
    majority_gate_over_vars,
    standard_theta,
)
from ._rand import philox

# window-size constant for block_window: window_t ~ alpha*sqrt(p ln p)
DEFAULT_ALPHA = 3.0


@dataclass(frozen=True)
class CorrelationParams:
    """n variables, k gates of k distinct variables each, seeded subset draw."""

    n: int
    k: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k={self.k} must be within 1..n={self.n}")


def default_correlation_k(n: int, beta: float = 8.0) -> int:
    """Subset size beta*ceil(sqrt(n)) used when no k is given."""
    return min(n, int(beta) * math.isqrt(n - 1) + int(beta) if n > 1 else 1)


def build_correlation(params: CorrelationParams) -> LayeredCircuit:
    """Draw k subsets of size k without replacement, one majority gate each.

    Subset draws are independent across gates: gate i uses its own derived
    Philox stream, so the circuit depends only on (n, k, seed).
    """
    n, k = params.n, params.k
    bottom = []
    for i in range(k):
        rng = philox(params.seed, "correlation", n, k, i)
        subset = sorted(rng.permutation(n)[:k].tolist())
        bottom.append(majority_gate(subset))
    top = majority_gate(range(k))
    return LayeredCircuit(n=n, k=k, layers=(tuple(bottom), (top,)), top=0)


@dataclass(frozen=True)
class BlockParams:
    """n variables in n/p blocks of p, thresholds in a window of width t.

    Each block gets one gate [block sum >= m] for every m in the window
    centred at p/2, clamped to 1..p.  window_t = p gives the full window and
    an exactly correct circuit; narrower windows trade correctness near the
    balance point for fewer gates.
    """

    n: int
    p: int
    window_t: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be positive")
        if self.n < 1 or self.n % self.p != 0:
            raise ValueError(f"p={self.p} must divide n={self.n}")
        if not 0 <= self.window_t <= self.p:
            raise ValueError(f"window_t={self.window_t} out of range 0..p={self.p}")


def block_threshold_range(p: int, window_t: int) -> range:
    """Thresholds ceil(p/2 - t/2)..floor(p/2 + t/2), clamped to 1..p."""
    lo = max(1, (p - window_t + 1) // 2)
    hi = min(p, (p + window_t) // 2)
    return range(lo, hi + 1)


def build_block_circuit(params: BlockParams) -> LayeredCircuit:
    """Window thresholds per block, pooled by an imbalance-corrected top gate.

    Were every threshold 1..p materialized per block, the number of firing
    gates would equal the input weight exactly and the standard majority of
    all of them would be MAJ_n.  The window keeps only thresholds lo..hi
    around p/2, silently dropping lo-1 gates per block that fire on every
    input whose blocks stay inside the window.  The top gate therefore uses
    the full-family cut-off minus those dropped certain wins,
    ceil(n/2) - (n/p)*(lo-1), which coincides with the standard majority
    when window_t = p.  On any input whose every block weight lies inside
    [lo, hi] the circuit then outputs MAJ_n exactly; errors are confined to
    inputs with an out-of-window block.
    """
    n, p = params.n, params.p
    ms = block_threshold_range(p, params.window_t)
    if len(ms) == 0:
        raise ValueError(f"empty threshold window for p={p}, window_t={params.window_t}")
    bottom = []
    for b in range(n // p):
        block = tuple((v, 1) for v in range(b * p, (b + 1) * p))
        for m in ms:
            bottom.append(ThresholdGate(block, m))
    theta_top = (n + 1) // 2 - (n // p) * (ms.start - 1)
    top = ThresholdGate(tuple((g, 1) for g in range(len(bottom))), theta_top)
    k = max(p, len(bottom))
    return LayeredCircuit(n=n, k=k, layers=(tuple(bottom), (top,)), top=0)


def _closer_to_cbrt_sq(n: int, d1: int, d2: int) -> int:
    """Pick whichever of d1 <= d2 is closer to n^(2/3), ties to d1.

    Exact integer comparison: d1 is at least as close iff (d1+d2)^3 >= 8n^2
    when both straddle the target, while same-side cases reduce to cube
    comparisons.
    """
    c1, c2 = d1**3, d2**3
    sq = n * n
    if c1 >= sq:  # both at or above the target
        return d1
    if c2 <= sq:  # both at or below
        return d2
    return d1 if (d1 + d2) ** 3 >= 8 * sq else d2


def block_window(p: int, alpha: float = DEFAULT_ALPHA) -> int:
    """Window width ceil(alpha*sqrt(p ln p)) for blocks of p, clamped to 1..p
    so the threshold range is never empty and never leaves 1..p."""
    t = math.ceil(alpha * math.sqrt(p * math.log(p))) if p > 1 else 1
    return max(1, min(p, t))


def default_block_params(n: int, alpha: float = DEFAULT_ALPHA) -> BlockParams:
    """p = divisor of n nearest n^(2/3) (ties smaller); t = block_window(p)."""
    if n < 1:
        raise ValueError("n must be positive")
    divisors = sorted(d for d in range(1, n + 1) if n % d == 0)
    p = divisors[0]
    for d in divisors[1:]:
        p = _closer_to_cbrt_sq(n, p, d) if p < d else p
    return BlockParams(n=n, p=p, window_t=block_window(p, alpha))


def pad_to_block_multiple(n: int, p: int) -> tuple[int, int, int]:
    """Smallest n' >= n divisible by p, with filler bits preserving majority.

    Returns (n', zeros, ones) where appending that many constant zeros and
    ones to an n-bit input makes an n'-bit input whose majority value equals
    the original: the threshold shifts by exactly the number of ones added.
    """
    if p < 1:
        raise ValueError("p must be positive")
    n_pad = n if n % p == 0 else n + (p - n % p)
    zeros = n_pad // 2 - n // 2
    ones = (n_pad + 1) // 2 - (n + 1) // 2
    return n_pad, zeros, ones


@dataclass(frozen=True)
class Depth3Params:
    """Single size parameter b >= 1: n = 2b^3 variables in blocks of p = 2b^2."""

    b: int

    def __post_init__(self):
        if self.b < 1:
            raise ValueError("b must be positive")

    @property
    def n(self) -> int:
        return 2 * self.b**3

    @property
    def p(self) -> int:
        return 2 * self.b**2


def depth3_y_blocks(params: Depth3Params) -> tuple[tuple[int, ...], ...]:
    """Strided re-blocking of the layer-1 outputs.

    Layer 1 emits, block by block, the sorted bits of each block (gate
    b*p + (m-1) fires iff block b holds at least m ones).  Re-block i picks
    every b-th position starting at i, so each of the b re-blocks sees 2b
    positions of every sorted run and its weight tracks the total input
    weight to within b.
    """
    b, p = params.b, params.p
    total = b * p
    return tuple(tuple(range(i, total, b)) for i in range(b))


def middle_window(params: Depth3Params) -> range:
    """Thresholds p/2 - b .. p/2 + b used by every middle-layer gate."""
    b = params.b
    return range(b * b - b, b * b + b + 1)


def build_depth3(params: Depth3Params) -> LayeredCircuit:
    """Exact depth-3 majority circuit with top fan-in b(2b+1).

    The top threshold is b^2 + b rather than the standard majority of the
    b(2b+1) middle outputs.  Conceptually the top gate takes the majority of
    the full families [re-block sum >= m] for m in 1..p, of which the middle
    layer only materializes the window around p/2: per re-block, the window
    omits p/2 - b - 1 thresholds that always fire on near-balanced inputs
    but p/2 - b that never do.  Correcting the pooled count for that
    one-per-block imbalance gives the b^2 + b cut-off; using the plain
    majority of the materialized outputs instead miscounts by floor(b/2) and
    fails on every input of weight n/2 - 1 once b >= 2.
    """
    b, n, p = params.b, params.n, params.p
    layer1 = []
    for blk in range(b):
        block = tuple((v, 1) for v in range(blk * p, (blk + 1) * p))
        for m in range(1, p + 1):
            layer1.append(ThresholdGate(block, m))
    layer2 = []
    for y in depth3_y_blocks(params):
        refs = tuple((pos, 1) for pos in y)
        for m in middle_window(params):
            layer2.append(ThresholdGate(refs, m))
    top = ThresholdGate(tuple((g, 1) for g in range(len(layer2))), b * b + b)
    k = max(p, len(layer2))
    return LayeredCircuit(
        n=n, k=k, layers=(tuple(layer1), tuple(layer2), (top,)), top=0
    )


# middle_window_weights runs once per input: build each circuit once
_depth3_once = functools.lru_cache(maxsize=8)(build_depth3)


def middle_window_weights(params: Depth3Params, a: Assignment) -> tuple[int, ...]:
    """Weights of the strided re-blocks on the layer-1 output for input a.

    On any input with exactly n/2 ones, every returned weight lands inside
    middle_window(params); this is the invariant that makes the narrow
    middle layer sufficient.
    """
    layer1 = eval_layers(_depth3_once(params), a)[0]
    return tuple(sum(layer1[pos] for pos in y) for y in depth3_y_blocks(params))


# ---------------------------------------------------------------------------
# Fixed hand-crafted circuits: depth-2, all gates standard majorities of
# fan-in k = n - 2 (except intro7 where k = 5 = n - 2 as well).  Rows list
# 1-based variable numbers with multiplicities.
# ---------------------------------------------------------------------------

_PUBLISHED_ROWS: dict[str, tuple[int, tuple[tuple[int, ...], ...]]] = {
    "intro7": (
        7,
        (
            (1, 2, 3, 4, 5),
            (1, 2, 5, 6, 7),
            (1, 3, 4, 6, 6),
            (2, 3, 3, 5, 6),
            (2, 4, 5, 7, 7),
        ),
    ),
    "n7": (
        7,
        (
            (1, 2, 3, 4, 5),
            (1, 2, 3, 6, 7),
            (1, 4, 5, 6, 7),
            (2, 2, 4, 5, 6),
            (3, 4, 5, 7, 7),
        ),
    ),
    "n9": (
        9,
        (
            (1, 2, 3, 4, 5, 6, 7),
            (1, 2, 3, 4, 5, 8, 9),
            (1, 2, 3, 6, 7, 8, 9),
            (1, 4, 5, 6, 7, 8, 9),
            (1, 3, 5, 5, 7, 9, 9),
            (1, 2, 4, 6, 6, 8, 8),
            (2, 3, 4, 5, 6, 7, 8),
        ),
    ),
    "n11": (
        11,
        (
            (1, 2, 3, 4, 5, 6, 7, 8, 9),
            (1, 2, 3, 4, 5, 6, 7, 10, 11),
            (1, 2, 3, 4, 5, 8, 9, 10, 11),
            (1, 2, 3, 6, 7, 8, 9, 10, 11),
            (1, 4, 5, 6, 7, 8, 9, 10, 11),
            (1, 2, 2, 4, 6, 6, 8, 10, 10),
            (2, 4, 4, 5, 6, 7, 8, 10, 11),
            (3, 3, 5, 5, 7, 7, 8, 9, 11),
            (3, 3, 6, 8, 9, 9, 9, 10, 10),
        ),
    ),
}

PUBLISHED_TAGS = tuple(sorted(_PUBLISHED_ROWS))


def published_rows(tag: str) -> tuple[tuple[int, ...], ...]:
    """The raw gate rows (1-based variable numbers) of a catalogue circuit."""
    if tag not in _PUBLISHED_ROWS:
        raise ValueError(f"unknown circuit tag {tag!r}; known: {', '.join(PUBLISHED_TAGS)}")
    return _PUBLISHED_ROWS[tag][1]


def published_circuit(tag: str) -> LayeredCircuit:
    if tag not in _PUBLISHED_ROWS:
        raise ValueError(f"unknown circuit tag {tag!r}; known: {', '.join(PUBLISHED_TAGS)}")
    n, rows = _PUBLISHED_ROWS[tag]
    bottom = tuple(majority_gate_over_vars(row) for row in rows)
    top = majority_gate(range(len(bottom)))
    k = max(len(rows[0]), len(bottom))
    return LayeredCircuit(n=n, k=k, layers=(bottom, (top,)), top=0)


def omission_circuit(n: int, omitted_pairs: list[tuple[int, int]]) -> LayeredCircuit:
    """Depth-2 circuit where gate j is the standard majority of all variables
    except the two in omitted_pairs[j] (1-based, distinct).

    With n odd and n - 2 gates this is the family whose behaviour on
    balanced inputs is governed by the multigraph of omitted pairs.
    """
    bottom = []
    for i, j in omitted_pairs:
        if i == j or not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"bad omitted pair ({i}, {j})")
        keep = [v for v in range(1, n + 1) if v != i and v != j]
        bottom.append(majority_gate_over_vars(keep))
    top = majority_gate(range(len(bottom)))
    return LayeredCircuit(
        n=n, k=max(n - 2, len(bottom)), layers=(tuple(bottom), (top,)), top=0
    )


def random_omission_pairs(n: int, seed: int) -> list[tuple[int, int]]:
    """n - 2 uniformly random distinct-endpoint pairs (repeats across gates allowed)."""
    rng = philox(seed, "omission", n)
    pairs = []
    for _ in range(n - 2):
        i, j = sorted(rng.permutation(n)[:2].tolist())
        pairs.append((i + 1, j + 1))
    return pairs
