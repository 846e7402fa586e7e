"""Exact combinatorial quantities behind the circuit constructions.

Everything here is computed in exact rational arithmetic (fractions over
math.comb) unless a float is explicitly requested, so the numeric claims
the constructions rely on can be checked rather than trusted:

* hypergeometric pmf, tail bounds and antichain hitting probabilities for
  the random-subset analysis;
* central binomial estimates used to size the balanced layers;
* boundary and influence of small boolean functions, given as truth
  tables, by brute force, next to their closed forms for majority;
* per-gate kill costs (how many variables must be pinned to force a gate);
* the weight-reducing walk over low-margin gates.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from ._rand import derive_seed
from .core import (
    Assignment,
    LayeredCircuit,
    ThresholdGate,
    gate_diff,
    majority_gate,
    majority_threshold,
)
from .verify import CapExceeded, truth_table

# Brute-force boundary/influence walk the full 2^l truth table; beyond this
# the arrays stop fitting comfortably in memory.
BRUTE_FORCE_CAP = 22


# -- hypergeometric law of |T ∩ S'| -----------------------------------------


@dataclass(frozen=True)
class HypergeomParams:
    """Uniform size-t_draws subset T of an m-element ground set holding a
    marked size-kk subset; the quantities below describe |T ∩ marked|."""

    m: int
    kk: int
    t_draws: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be positive")
        if not 0 <= self.kk <= self.m:
            raise ValueError(f"kk={self.kk} out of range 0..m={self.m}")
        if not 0 <= self.t_draws <= self.m:
            raise ValueError(f"t_draws={self.t_draws} out of range 0..m={self.m}")


def hypergeom_pmf(p: HypergeomParams, l: int) -> Fraction:
    """Probability that the draw hits exactly l marked elements."""
    if l < 0 or l > p.kk or l > p.t_draws or p.t_draws - l > p.m - p.kk:
        return Fraction(0)
    return Fraction(
        math.comb(p.kk, l) * math.comb(p.m - p.kk, p.t_draws - l),
        math.comb(p.m, p.t_draws),
    )


def _tail_numerators(m: int, kk: int, t: int) -> list[int]:
    """Entry l counts the size-t draws that hit at least l of the kk marked
    elements: suffix sums of C(kk, j) C(m - kk, t - j) for l = 0..min(kk, t),
    then a closing 0."""
    tails = [0]
    for j in range(min(kk, t), -1, -1):
        tails.append(tails[-1] + math.comb(kk, j) * math.comb(m - kk, t - j))
    return tails[::-1]


def hypergeom_tail(p: HypergeomParams, l: int) -> Fraction:
    """Probability of hitting at least l marked elements."""
    tails = _tail_numerators(p.m, p.kk, p.t_draws)
    return Fraction(tails[min(max(l, 0), len(tails) - 1)], math.comb(p.m, p.t_draws))


@dataclass(frozen=True)
class TailCheck:
    tail: Fraction
    bound: Fraction
    holds: bool


def hypergeom_tail_check(p: HypergeomParams, l: int) -> TailCheck:
    """Exact comparison of the upper tail with (t_draws*kk/m)^l.

    Cross-multiplied big integers throughout, so the verdict is exact even
    where both sides underflow doubles.
    """
    if l < 0:
        raise ValueError("l must be non-negative")
    tail = hypergeom_tail(p, l)
    bound = Fraction(p.t_draws * p.kk, p.m) ** l
    return TailCheck(tail, bound, tail <= bound)


def tail_bound_sweep(
    max_m: int = 60,
) -> tuple[int, list[tuple[HypergeomParams, int]]]:
    """Exercise the tail bound across a dense small-parameter grid.

    Covers every m <= max_m, kk <= m/2, m/4 < t_draws < 3m/4, 0 <= l <= kk.
    Returns (cases checked, violations); the violation list is expected to
    stay empty.  The inner loop compares tail_numerator * m^l against
    (t_draws*kk)^l * C(m, t_draws) in plain integers, avoiding Fraction
    overhead across the few hundred thousand cases.
    """
    checked = 0
    violations = []
    for m in range(1, max_m + 1):
        denom = [math.comb(m, t) for t in range(m + 1)]
        for kk in range(0, m // 2 + 1):
            for t in range(m // 4 + 1, min((3 * m - 1) // 4, m) + 1):
                # every l in 0..kk counts; past the tails the tail is 0,
                # which no bound is below
                checked += kk + 1
                for l, tail in enumerate(_tail_numerators(m, kk, t)[: kk + 1]):
                    if tail * m**l > (t * kk) ** l * denom[t]:
                        violations.append((HypergeomParams(m, kk, t), l))
    return checked, violations


def antichain_prob(p: HypergeomParams, family: Sequence[Iterable[int]]) -> Fraction:
    """Exact probability that the drawn marked part is a member of the family.

    Members are subsets of the marked set, given over 0..kk-1.  The events
    "T ∩ marked equals this member" are disjoint, and each has probability
    C(m-kk, t_draws-|member|) / C(m, t_draws), so the sum is exact.  The
    family must be an antichain with no repeats; both are checked.
    """
    sets: list[frozenset[int]] = []
    for member in family:
        s = frozenset(member)
        for e in s:
            if not 0 <= e < p.kk:
                raise ValueError(f"element {e} outside the marked set 0..{p.kk - 1}")
        if s in sets:
            raise ValueError("family has duplicate members")
        sets.append(s)
    for i, a in enumerate(sets):
        for b in sets[i + 1 :]:
            if a <= b or b <= a:
                raise ValueError("family is not an antichain")
    denom = math.comb(p.m, p.t_draws)
    total = Fraction(0)
    for s in sets:
        r = len(s)
        if r <= p.t_draws and p.t_draws - r <= p.m - p.kk:
            total += Fraction(math.comb(p.m - p.kk, p.t_draws - r), denom)
    return total


def max_antichain_size(kk: int) -> int:
    """Largest antichain over a kk-element ground set."""
    return math.comb(kk, kk // 2)


@dataclass(frozen=True)
class ScalingRow:
    kk: int
    mode: int
    pmf_max: Fraction
    normalized: float


def pmf_scaling_probe(
    k_grid: Sequence[int], c: Fraction = Fraction(1, 2)
) -> list[ScalingRow]:
    """max_l pmf at m = 4*kk, t_draws = c*m, normalized by sqrt(kk).

    The pmf is unimodal with mode floor((t+1)(kk+1)/(m+2)), so probing the
    mode and its neighbours finds the maximum.  The normalized values are
    expected to sit in a constant window as kk grows.
    """
    if not k_grid:
        raise ValueError("k_grid must not be empty")
    c = Fraction(c)
    if not 0 < c < 1:
        raise ValueError(f"c must lie strictly between 0 and 1, got {c}")
    rows = []
    for kk in k_grid:
        if kk < 1:
            raise ValueError(f"kk must be positive, got {kk}")
        m = 4 * kk
        t = c * m
        if t.denominator != 1:
            raise ValueError(f"t_draws = c*m must be an integer, got {c}*{m}")
        t = int(t)
        p = HypergeomParams(m, kk, t)
        mode = ((t + 1) * (kk + 1)) // (m + 2)
        best_l, best = 0, Fraction(0)
        for l in range(max(0, mode - 1), min(kk, mode + 1) + 1):
            v = hypergeom_pmf(p, l)
            if v > best:
                best_l, best = l, v
        rows.append(ScalingRow(kk, best_l, best, float(best) * math.sqrt(kk)))
    return rows


# -- central binomial estimates ---------------------------------------------


@dataclass(frozen=True)
class BinomialMidRow:
    n: int
    mid_normalized: float
    off_index: int
    off_normalized: float


def binomial_mid_check(n_grid: Sequence[int], c: float = 0.5) -> list[BinomialMidRow]:
    """Normalized central and off-center binomial masses.

    For even n, C(n, n/2)/2^n * sqrt(n) approaches sqrt(2/pi) from below,
    and the mass c*sqrt(n ln n)/2 steps off the middle, scaled by
    n^(1/2 + c^2/2), stays in a constant window.  Rows carry both
    normalized values so a sweep can pin the windows.
    """
    if not n_grid:
        raise ValueError("n_grid must not be empty")
    if not 0 < c < 1:
        raise ValueError(f"c must lie strictly between 0 and 1, got {c}")
    rows = []
    for n in n_grid:
        if n < 2 or n % 2:
            raise ValueError(f"even n >= 2 required, got {n}")
        mid = Fraction(math.comb(n, n // 2), 2**n)
        step = round(c * math.sqrt(n * math.log(n)) / 2.0)
        off_index = n // 2 + step
        off = Fraction(math.comb(n, off_index), 2**n)
        rows.append(
            BinomialMidRow(
                n,
                float(mid) * math.sqrt(n),
                off_index,
                float(off) * n ** (0.5 + c * c / 2.0),
            )
        )
    return rows


# -- boundary and influence -------------------------------------------------


def majority_truth_table(l: int) -> np.ndarray:
    if l < 1:
        raise ValueError(f"majority needs at least one variable, got {l}")
    if l > BRUTE_FORCE_CAP:
        raise CapExceeded(f"l={l} exceeds the brute-force cap {BRUTE_FORCE_CAP}")
    return truth_table(LayeredCircuit(n=l, k=l, layers=((majority_gate(range(l)),),), top=0))


def boundary_size(tt: Sequence[int] | np.ndarray, l: int) -> int:
    """Number of (assignment, coordinate) pairs where flipping the
    coordinate flips the function, by brute force over all 2^l inputs.

    tt is the function's truth table: 2^l 0/1 entries, entry i the value
    on the assignment with x1 as the most significant bit of i.
    """
    if l > BRUTE_FORCE_CAP:
        raise CapExceeded(f"l={l} exceeds the brute-force cap {BRUTE_FORCE_CAP}")
    tt = np.asarray(tt)
    if tt.shape != (2**l,):
        raise ValueError(f"truth table must have 2^{l} entries, got shape {tt.shape}")
    # a block of entries at a time, so the check makes no 2^l-entry temporary
    for lo in range(0, tt.size, 2**16):
        part = tt[lo : lo + 2**16]
        if not ((part == 0) | (part == 1)).all():
            raise ValueError("truth table entries must be 0 or 1")
    # the two halves of the cube along axis i: each place they differ is
    # two sensitive pairs, one from each end
    halves = (np.moveaxis(tt.reshape((2,) * l), i, 0) for i in range(l))
    return 2 * sum(int(np.count_nonzero(lo != hi)) for lo, hi in halves)


def influence(tt: Sequence[int] | np.ndarray, l: int) -> Fraction:
    """Expected number of sensitive coordinates on a uniform assignment;
    tt is a truth table as in boundary_size."""
    return Fraction(boundary_size(tt, l), 2**l)


def majority_boundary_closed(n: int) -> int:
    """Boundary size of odd-n majority: (n+1) * C(n, (n+1)/2).

    Every boundary pair straddles weights (n-1)/2 and (n+1)/2: a
    weight-(n+1)/2 assignment is sensitive on its (n+1)/2 ones, a
    weight-(n-1)/2 one on its (n+1)/2 zeros, and nothing else is sensitive
    anywhere, giving 2 * C(n, (n+1)/2) * (n+1)/2 pairs.
    """
    if n % 2 == 0:
        raise ValueError("closed form applies to odd n")
    return (n + 1) * math.comb(n, (n + 1) // 2)


def majority_influence_closed(l: int) -> Fraction:
    """Influence of odd-l majority: l * C(l-1, (l-1)/2) / 2^(l-1)."""
    if l % 2 == 0:
        raise ValueError("closed form applies to odd l")
    return Fraction(l * math.comb(l - 1, (l - 1) // 2), 2 ** (l - 1))


# -- gate kill costs --------------------------------------------------------


@dataclass(frozen=True)
class KillCost:
    """Fewest variable pins forcing a gate constant.

    zeros_to_fix0: variables set to 0 so the gate can never fire again;
    ones_to_fix1: variables set to 1 so the gate always fires.  Infinite
    where no pinning suffices (theta <= 0 cannot be silenced; theta above
    the total weight cannot be met).
    """

    zeros_to_fix0: int | float
    ones_to_fix1: int | float


def kill_cost(gate: ThresholdGate) -> KillCost:
    """Both counts take the heaviest weights first.

    Silencing: the adversary sets the surviving variables to 1, so the
    pinned zeros must remove enough weight that even the full remaining
    sum misses theta; removing heavier weights first is optimal.  Forcing:
    the pinned ones alone must reach theta against all-zero survivors;
    again heaviest first reaches it with the fewest pins.
    """
    # pre[j]: the weight of the j heaviest inputs
    pre = [0, *accumulate(sorted(gate.weights, reverse=True))]
    total, theta = pre[-1], gate.theta
    zeros = bisect_right(pre, total - theta) if theta > 0 else math.inf
    ones = bisect_left(pre, theta) if theta <= total else math.inf
    return KillCost(zeros, ones)


# -- weight-reducing walk ---------------------------------------------------


@dataclass(frozen=True)
class WalkConfig:
    """Walk parameters: at most s steps, gates qualify while their margin
    lies in -d..-1 and they read a one, x_star (1-based) is the tracked
    coordinate, g_star the bottom-layer gates reading it.  gate_choice
    picks among qualifying gates: "lowest" index for reproducible traces,
    or seeded "random"."""

    s: int
    d: int
    x_star: int
    g_star: tuple[int, ...]
    seed: int = 0
    gate_choice: str = "lowest"

    def __post_init__(self):
        if self.s < 1 or self.d < 1:
            raise ValueError("s and d must be positive")
        if self.gate_choice not in ("lowest", "random"):
            raise ValueError(f"unknown gate_choice {self.gate_choice!r}")


@dataclass(frozen=True)
class WalkStep:
    """One iteration: the gate chosen, how many of its variables were 1
    (the candidate pool), the 1-based variable flipped to 0, and every
    tracked gate's margin after the flip."""

    gate: int
    ones_available: int
    flipped: int
    diffs_after: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class WalkTrace:
    start: Assignment
    final: Assignment
    steps: tuple[WalkStep, ...]
    stop_reason: str


def walk(c: LayeredCircuit, a: Assignment, cfg: WalkConfig) -> WalkTrace:
    """Repeatedly flip a one inside a tracked negative-margin gate.

    Starts from an assignment one flip below the majority threshold with
    the tracked coordinate at 0.  Each step picks a qualifying tracked gate
    (margin in -d..-1 and at least one input at 1), flips a uniformly
    random one-variable that gate depends on, and records the margins of
    all tracked gates; the weight drops by exactly 1 per step.  Stops
    after s steps (exhausted_s) or when no tracked gate qualifies
    (no_negative_gate).
    """
    bottom = c.layers[0]
    if a.n != c.n:
        raise ValueError(f"assignment width {a.n} does not match circuit n={c.n}")
    if a.weight != majority_threshold(c.n) - 1:
        raise ValueError(
            f"walk starts one below the majority threshold: weight "
            f"{majority_threshold(c.n) - 1} expected, got {a.weight}"
        )
    if not 1 <= cfg.x_star <= c.n:
        raise ValueError(f"x_star={cfg.x_star} out of range 1..{c.n}")
    if a.bits[cfg.x_star - 1] != 0:
        raise ValueError("x_star must be 0 in the starting assignment")
    if not cfg.g_star:
        raise ValueError("g_star must not be empty")
    for g in cfg.g_star:
        if not 0 <= g < len(bottom):
            raise ValueError(f"gate index {g} out of range for the bottom layer")
        if cfg.x_star - 1 not in bottom[g].support:
            raise ValueError(f"gate {g} does not read x{cfg.x_star}")

    rng = random.Random(derive_seed(cfg.seed, "walk"))
    bits = list(a.bits)
    steps: list[WalkStep] = []
    stop_reason = "exhausted_s"
    for _ in range(cfg.s):
        qualifying = [
            g
            for g in cfg.g_star
            if -cfg.d <= gate_diff(bottom[g], bits) <= -1
            and any(bits[p] for p in bottom[g].support)
        ]
        if not qualifying:
            stop_reason = "no_negative_gate"
            break
        if cfg.gate_choice == "lowest":
            g = qualifying[0]
        else:
            g = qualifying[rng.randrange(len(qualifying))]
        ones = [p for p in bottom[g].support if bits[p] == 1]
        y = ones[rng.randrange(len(ones))]
        bits[y] = 0
        after = tuple((h, gate_diff(bottom[h], bits)) for h in cfg.g_star)
        steps.append(WalkStep(g, len(ones), y + 1, after))
    return WalkTrace(a, Assignment(tuple(bits)), tuple(steps), stop_reason)
