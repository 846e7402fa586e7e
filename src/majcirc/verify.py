"""Verification of candidate majority circuits against the majority function.

Three regimes:

* verify_all: exhaustive truth-table sweep for small n.
* verify_minmax: the two critical weight layers only (least weight where
  majority is 1 and largest where it is 0), exhaustively or by exact-uniform
  sampling.  For monotone circuits, zero errors on these two layers implies
  exactness everywhere, which is what makes this mode decisive.
* estimate_agreement: i.i.d. uniform inputs, with a distribution-free
  confidence half-width for the agreement rate.

Every verify_* call compiles its circuit once (compile_circuit) into a Plan
that each worker receives once.  Per layer the Plan holds the distinct
weighted supports (one dense weight matrix or one gather per support), each
gate's support column and threshold, and the arithmetic: float32 when it
holds every value the layer compares (all circuits the package builds),
else int64, else Python integers, so every sum is exact.  A float32 matrix
packs several sums into each column.  Every sum is below B = 2^bitlen(F),
F the layer's largest fan-in; with S sums, p = floor(24 / log2 B) and
h = ceil(S / p), column c holds B^i times the weights of sum c + i*h for
each i < p, so each product entry is a base-B number whose digits are
sums.  Entries and partial sums are integers below B^p <= 2^24, so the
product is exact in any order of addition, and exact divisions by the
power of two B split off the digits.  int64 and object matrices hold one
sum per column.  A layer whose gates share supports (block and depth-3
circuits put many thresholds on one block sum) hands up its support sums,
not one 0/1 column per gate: the layer above reads each of them through a
step table indexed by the sum itself, whose entry for a sum is the
weight of the gates on it that the sum reaches, and only the top gate
compares a sum with a threshold.  Where a table would be longer than
DEFAULT_CHUNK entries (its thresholds span more than DEFAULT_CHUNK: large
weights, or a wide support, such as the top gate of one block with every
threshold 1..8192), the gates' sorted thresholds and cumulative weights
are kept instead, looked up by binary search.  Layers whose gates each
have a support of their own (published, correlation) hand up 0/1 outputs.

Variables whose weight columns into layer 1 are identical form a variable
class; only the number of ones in each class matters to the circuit, and
every plan compiles layer 1 over class counts as well (eval_counts).  When
the classes compress, i.e. a count row is no larger than a bit row
(8 * C <= n for C classes), sampled verify_minmax draws each chunk's class
counts directly: a multivariate hypergeometric draw, exactly uniform over
the weight-w layer like the bit sampler.  With few large classes (block
circuits) it is a rejection draw whose cost grows with C, not with n:
exact Binomial(s_j, 1/2) counts for every class but the largest, which
takes the rest, kept by one exact test; otherwise it is numpy's integer
Fisher-Yates draw, O(min(w, n - w)) per row.  The choice reads only the
class sizes and w.  Layer 1 then sums counts times class weights, which
equals its sum on every bit row with those counts, so the report has the
same law; later layers and the tally are unchanged.  Circuits that do
not compress (published, correlation) keep the bit sampler: each bit
column is drawn with numpy's exact bounded integers, one column at a
time, in about 1 byte per bit of the chunk.  Uniform inputs for
estimate_agreement take one bit per byte of the chunk's Philox words:
input bit r * n + i is the top bit of byte r * n + i of the words read
as little-endian bytes, the bits numpy's integers(0, 2, dtype=uint8)
returns from the same stream.

Every check runs through one function, _check, and one chunk worker, _work.
The entry points only cut their rows into jobs (source, w, index, lo, hi)
of at most DEFAULT_CHUNK rows, a fixed size, made lazily.  _check compiles
the circuit once, runs the jobs inline or in a process pool, at most two
per worker in flight, and merges their counts in job order; _work makes a
chunk's rows as its source says (a rank range of an exhaustive sweep,
draws from the weight-w layer, or uniform bits), then evaluates and
tallies them one row tile at a time and sums the tiles' counts.  A tile
holds as many rows as keep their float32 cast within _TILE_BYTES (2 MiB:
520 rows at n = 1001), at least _TILE_FLOOR and a multiple of 8, so rows
of up to 64 entries (n <= 64 sweeps, block class counts) are one tile per
chunk.  A job holds one tile's cast at a time; a uniform job makes its
bits a tile at a time too, so it holds one tile's rows.  It draws each
tile's words in stream order, and every tile but the last holds a
multiple of 8 bytes, so the cuts fall on word boundaries: the bits are
those of one draw for the chunk, and reports do not depend on tiling.
Sampled and exhaustive jobs make the chunk's rows as one array and slice
it.  An exhaustive job decodes its own rank range, so memory is O(chunk)
whatever the cap.  Each sampled chunk owns its random stream,
derived from the seed and its index, so a report depends only on the
circuit, the sample count and the seed, never on how many worker
processes produced it.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import json
import math
from collections.abc import Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import LayeredCircuit, ThresholdGate, majority_threshold
from ._rand import philox

DEFAULT_CHUNK = 8192
EXHAUSTIVE_CAP = 30
LAYER_CAP = 10**8

# A layer's sums come from one dense product (a pass casting the rows, then
# BLAS) or from one gather sum per distinct support.  A multiply-add in the
# product costs about 1/_DENSE_ADVANTAGE of a gathered read.
_DENSE_ADVANTAGE = 16

# Class counts replace bit rows when C classes make a count row (int64) no
# larger than a bit row (uint8): 8 * C <= n.
_CLASS_COMPRESSION = 8

# One table lookup of the rejection class draw costs about this many steps
# of numpy's Fisher-Yates class draw.
_REJECTION_COST = 4

# A chunk is evaluated in row tiles whose float32 cast takes at most
# _TILE_BYTES, so a tile's rows, cast and product stay in cache; the floor
# keeps each BLAS product long enough to run at speed on wide rows.
_TILE_BYTES = 2**21
_TILE_FLOOR = 512

# Arithmetic by the largest value a layer compares: integers are exact up
# to 2^24 in float32, whose products run on BLAS.  Every term of a sum is
# nonnegative, so no partial sum exceeds the full one in any order of
# addition.
_FLOAT32_BITS = 24
_TIERS = ((2**_FLOAT32_BITS, np.float32), (2**63 - 1, np.int64))


class CapExceeded(ValueError):
    """The requested exhaustive sweep is too large; use layer or sample modes."""


def _arithmetic(top: int) -> np.dtype:
    for limit, dtype in _TIERS:
        if top <= limit:
            return np.dtype(dtype)
    return np.dtype(object)


@dataclass(frozen=True)
class LayerPlan:
    """One compiled layer of gates.

    The distinct weighted supports of the gates give the `columns` sum
    columns.  Gate g fires when sum column group[g] reaches theta[g]; group
    is None when gate g reads column g.  Thresholds are clamped into
    0..fanin+1, which keeps every gate's truth table, so dtype holds the
    largest fan-in plus one exactly.

    A layer with group None hands its gates' 0/1 outputs up; a layer with
    group set hands up its sums, and compile_circuit reads its group and
    theta into the next layer's `steps`.  _run reads group to tell the two
    apart, and the last layer's group and theta for the top gate.  The
    sums of a layer come from what it reads:

    * the sums of a layer below with group set: `steps` holds, per support
      T, one (S, lo, thresholds, table) step table for each support S
      below that T's gates sit on.  T's sum adds up the weights of T's
      gates on S whose clamped threshold sum_S reaches, read from table,
      which is in this layer's dtype.  Sums and clamped thresholds are
      nonnegative integers; with thresholds from t_min to t_max, let lo =
      t_min - 1.  When t_max - lo + 1 <= DEFAULT_CHUNK, table[i] is the
      weight of the gates whose threshold is at most lo + i, sum_S reads
      table[clip(sum_S, lo, t_max) - lo], and thresholds is None.
      Otherwise lo is None, thresholds are sorted, in the dtype of the
      layer below, table is their cumulative weights from 0, and sum_S
      reads table[searchsorted(thresholds, sum_S, side="right")].
    * 0/1 outputs, bits or class counts: one product with `matrix` (width
      x h) when it is set, else one gather per `supports` entry (positions
      as a slice or index array, and weights, None when all are 1); steps
      is None.  Every sum is below `base`, a power of two, and matrix
      column c holds base^i times the weights of sum c + i*h, for every
      i with c + i*h < columns: product entry c is the base-`base` number
      whose digit i is sum c + i*h.  A float32 matrix packs the most
      digits whose numbers stay below 2^24, so its product is exact; an
      int64 or object matrix holds one digit (h = columns).  base is 0
      when matrix is None.
    """

    dtype: np.dtype
    theta: np.ndarray
    group: np.ndarray | None
    columns: int
    matrix: np.ndarray | None
    base: int
    supports: tuple
    steps: tuple | None


@dataclass(frozen=True)
class Plan:
    """A circuit compiled for bulk evaluation.

    layers[d] reads the sums of layers[d - 1] through step tables when the
    gates of layers[d - 1] share supports, and its 0/1 outputs otherwise.
    Variables with identical weight columns into layer 1 form a class,
    classes numbered in order of their first variable; sizes[j] is the size
    of class j.  classes is layer 1 reading class counts in place of bits;
    when every class is one variable, counts are bits and it is layers[0].
    """

    n: int
    top: int
    layers: tuple[LayerPlan, ...]
    sizes: np.ndarray
    classes: LayerPlan


def _sum_form(entries: tuple, columns: int, width: int, dtype: np.dtype, top: int) -> dict:
    """The LayerPlan fields matrix, base and supports that compute the
    `columns` sums of entries, no sum above top, over rows of `width`.

    entries are flat (positions, weights, column) arrays, weights in dtype,
    ordered by column and by position within a column."""
    positions, weights, column = entries
    if width * (_DENSE_ADVANTAGE + columns) <= _DENSE_ADVANTAGE * len(positions):
        bits = top.bit_length()
        digits = _FLOAT32_BITS // bits if dtype == np.float32 else 1
        h = -(-columns // digits)
        plain = np.zeros((width, digits * h), dtype=dtype)
        plain[positions, column] = weights
        scales = np.array([1 << bits * i for i in range(digits)], dtype=dtype)
        matrix = (plain.reshape(width, digits, h) * scales[:, None]).sum(axis=1)
        return {"matrix": matrix, "base": 1 << bits, "supports": ()}
    supports = []
    ends = np.cumsum(np.bincount(column, minlength=columns)).tolist()
    for start, stop in zip([0, *ends], ends):
        idx, wts = positions[start:stop], weights[start:stop]
        first, last = int(idx[0]), int(idx[-1])
        if last + 1 - first == stop - start:
            idx = slice(first, last + 1)
        supports.append((idx, None if (wts == 1).all() else wts))
    return {"matrix": None, "base": 0, "supports": tuple(supports)}


def _step_tables(sigs: list, below: LayerPlan, dtype: np.dtype) -> tuple:
    """Step tables of the supports sigs over the sums of the layer below."""
    group, theta = below.group.tolist(), below.theta.tolist()
    tables = []
    for sig in sigs:
        by_support: dict[int, list] = {}
        for p, w in sig:
            by_support.setdefault(group[p], []).append((theta[p], w))
        parts = []
        for s in sorted(by_support):
            steps = sorted(by_support[s])
            thresholds = np.array([t for t, _ in steps], dtype=below.dtype)
            cumulative = np.array([0, *itertools.accumulate(w for _, w in steps)], dtype=dtype)
            lo, hi = int(steps[0][0]) - 1, int(steps[-1][0])
            # a table no longer than a chunk costs less to build than a
            # chunk of binary searches: their results at every sum lo..hi
            if hi - lo < DEFAULT_CHUNK:
                every = np.arange(lo, hi + 1, dtype=below.dtype)
                parts.append((s, lo, None, cumulative[np.searchsorted(thresholds, every, side="right")]))
            else:
                parts.append((s, None, thresholds, cumulative))
        tables.append(tuple(parts))
    return tuple(tables)


def _compile_layer(
    gates: tuple[ThresholdGate, ...], width: int, below: LayerPlan | None
) -> tuple[LayerPlan, tuple, int]:
    """The layer's plan, the flat (positions, weights, column) entries of
    its distinct supports in column order, weights in the layer's dtype,
    and its largest fan-in; below is the compiled layer under it, None for
    layer 1."""
    columns: dict[tuple, int] = {}
    # gates on one support usually share one inputs object: hash it once
    by_id: dict[int, int] = {}
    group, fanins = [], []
    for g in gates:
        j = by_id.get(id(g.inputs))
        if j is None:
            j = by_id[id(g.inputs)] = columns.setdefault(g.inputs, len(columns))
            if j == len(fanins):  # g opens column j
                fanins.append(g.fanin)
        group.append(j)
    sigs = list(columns)
    lengths = np.fromiter(map(len, sigs), dtype=np.intp, count=len(sigs))
    flat = list(itertools.chain.from_iterable(itertools.chain.from_iterable(sigs)))
    top = max(fanins)
    dtype = _arithmetic(top + 1)
    entries = (
        np.array(flat[0::2], dtype=np.intp),
        np.array(flat[1::2], dtype=dtype),
        np.repeat(np.arange(len(sigs)), lengths),
    )
    theta = np.array([min(max(g.theta, 0), fanins[j] + 1) for g, j in zip(gates, group)], dtype=dtype)
    # with every support distinct, setdefault numbered gate g's column g
    grouped = None if len(sigs) == len(gates) else np.asarray(group, dtype=np.intp)
    if below is not None and below.group is not None:
        steps = _step_tables(sigs, below, dtype)
        return LayerPlan(dtype, theta, grouped, len(sigs), None, 0, (), steps), entries, top
    form = _sum_form(entries, len(sigs), width, dtype, top)
    return LayerPlan(dtype, theta, grouped, len(sigs), steps=None, **form), entries, top


def _classes(n: int, entries: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Each variable's class and each class's first variable, classes
    numbered in order of their first variable: variables are in one class
    when their (column, weight) entries into layer 1 are equal."""
    positions, weights, column = entries
    codes = np.unique(weights, return_inverse=True)[1].reshape(-1)
    keys = column * (int(codes.max()) + 1) + codes
    # row v lists variable v's keys by column, padded with -1
    order = np.argsort(positions, kind="stable")
    degree = np.bincount(positions, minlength=n)
    slot = np.arange(len(order)) - np.repeat(np.cumsum(degree) - degree, degree)
    rows = np.full((n, int(degree.max())), -1, dtype=np.int64)
    rows[positions[order], slot] = keys[order]
    # one opaque item per row compares rows by their bytes
    items = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(items, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse.reshape(-1)], np.sort(first)


def compile_circuit(c: LayeredCircuit) -> Plan:
    """Compile c once for eval_bulk, the workers and the class sampler."""
    first, entries, top = _compile_layer(c.layers[0], c.n, None)
    layers = [first]
    for lower, gates in zip(c.layers, c.layers[1:]):
        layers.append(_compile_layer(gates, len(lower), layers[-1])[0])
    class_of, leaders = _classes(c.n, entries)
    sizes = np.bincount(class_of, minlength=len(leaders))
    classes = first
    if len(leaders) < c.n:
        # every member of a class sits in the same supports with the same
        # weight, so a support's sum is its classes' counts times weights:
        # the entries of each class's first variable, renamed to the class
        positions, weights, column = entries
        kept = np.isin(positions, leaders)
        class_entries = (class_of[positions[kept]], weights[kept], column[kept])
        form = _sum_form(class_entries, first.columns, len(leaders), first.dtype, top)
        classes = dataclasses.replace(first, **form)
    return Plan(c.n, c.top, tuple(layers), sizes, classes)


def _sums(lp: LayerPlan, rows: np.ndarray) -> np.ndarray:
    """Sum columns of a compiled layer on a batch of rows: the sums of the
    layer below when lp.steps is set, else 0/1 outputs, bits or counts."""
    if lp.steps is not None:
        sums = np.zeros((rows.shape[0], len(lp.steps)), dtype=lp.dtype)
        for t, parts in enumerate(lp.steps):
            # one statement per lookup: no index array outlives its part
            for s, lo, thresholds, table in parts:
                if thresholds is None:
                    sums[:, t] += table.take(
                        (np.clip(rows[:, s], lo, lo + len(table) - 1) - lo).astype(np.intp)
                    )
                else:
                    sums[:, t] += table[np.searchsorted(thresholds, rows[:, s], side="right")]
        return sums
    if lp.matrix is not None:
        # digit i of product column c is sum c + i*h; division by the
        # power of two base is exact
        packed = rows.astype(lp.dtype) @ lp.matrix
        h = packed.shape[1]
        sums = np.empty((rows.shape[0], lp.columns), dtype=lp.dtype)
        *lower, last = range(0, lp.columns, h)
        for lo in lower:
            high = packed / lp.base
            np.floor(high, out=high)
            np.subtract(packed, high * lp.base, out=sums[:, lo : lo + h])
            packed = high
        sums[:, last:] = packed[:, : lp.columns - last]
        return sums
    sums = np.empty((rows.shape[0], len(lp.supports)), dtype=lp.dtype)
    for j, (idx, wts) in enumerate(lp.supports):
        cols = rows[:, idx]
        if wts is None:
            sums[:, j] = cols.sum(axis=1, dtype=lp.dtype)
        else:
            sums[:, j] = cols.astype(lp.dtype) @ wts
    return sums


def _run(plan: Plan, rows: np.ndarray, first: LayerPlan) -> np.ndarray:
    """Top-gate outputs, with layer 1 compiled as `first` reading rows.

    A layer with shared supports hands its sums to the next layer's step
    tables; any other layer hands up its gates' 0/1 outputs.  Only the top
    gate compares the last layer's sums with a threshold.
    """
    *below, last = (first, *plan.layers[1:])
    values = rows
    for lp in below:
        values = _sums(lp, values)
        if lp.group is None:
            values = np.greater_equal(values, lp.theta).view(np.uint8)
    column = plan.top if last.group is None else last.group[plan.top]
    return np.greater_equal(_sums(last, values)[:, column], last.theta[plan.top]).view(np.uint8)


def eval_bulk(c: LayeredCircuit | Plan, bits: np.ndarray) -> np.ndarray:
    """Top-gate outputs for a (m, n) 0/1 matrix of assignments.

    c is a circuit or its compile_circuit plan; pass the plan when
    evaluating many batches.
    """
    plan = c if isinstance(c, Plan) else compile_circuit(c)
    if bits.ndim != 2 or bits.shape[1] != plan.n:
        raise ValueError(f"expected a (m, {plan.n}) bit matrix, got {bits.shape}")
    # a packed layer would carry an entry above 1 into the next sum's digit
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError("bit matrix entries must be 0 or 1")
    return _run(plan, bits, plan.layers[0])


def eval_counts(plan: Plan, counts: np.ndarray) -> np.ndarray:
    """Top-gate outputs for a (m, C) matrix of ones per variable class.

    Equal to eval_bulk on any bit row with those counts.
    """
    if counts.ndim != 2 or counts.shape[1] != len(plan.sizes):
        raise ValueError(f"expected a (m, {len(plan.sizes)}) count matrix, got {counts.shape}")
    if not ((counts >= 0) & (counts <= plan.sizes)).all():
        raise ValueError("class counts must lie between 0 and the class sizes")
    return _run(plan, counts, plan.classes)


def _rows(n: int, w: int | None, lo: int, hi: int) -> np.ndarray:
    """Bit rows lo..hi-1 of an exhaustive sweep, x1 the most significant bit.

    With w None the rows are the values lo..hi-1 of all 2^n inputs.  With
    an integer w they are ranks lo..hi-1 of the weight-w layer in colex
    order, which is ascending value: the value with ones at bits
    p_w > ... > p_1 (bit 0 least significant) has rank sum C(p_j, j), so
    p_j is the largest p with C(p, j) no more than what remains of the
    rank.  Every C(p, j) with p < n <= 64 fits int64.
    """
    if w is None:
        vals = np.arange(lo, hi, dtype=np.uint64)
    else:
        vals = np.zeros(hi - lo, dtype=np.uint64)
        ranks = np.arange(lo, hi, dtype=np.int64)
        for j in range(w, 0, -1):
            comb = np.array([math.comb(p, j) for p in range(n)], dtype=np.int64)
            p = np.searchsorted(comb, ranks, side="right") - 1
            vals |= np.uint64(1) << p.astype(np.uint64)
            ranks -= comb[p]
    bits = np.unpackbits(vals.astype(">u8").view(np.uint8).reshape(-1, 8), axis=1)
    return np.ascontiguousarray(bits[:, 64 - n :])


def _chunks(total: int, chunk: int) -> Iterator[tuple[int, int, int]]:
    """(index, lo, hi) of each chunk when total rows are cut into chunks,
    made one at a time as they are read."""
    return ((index, lo, min(lo + chunk, total)) for index, lo in enumerate(range(0, total, chunk)))


def _sweep_cap(n: int, cap: int) -> None:
    """Refuse a sweep of all 2^n inputs past the exhaustive cap."""
    if n > cap:
        raise CapExceeded(
            f"n={n} exceeds the exhaustive cap {cap}; use verify_minmax or estimate_agreement"
        )


def truth_table(c: LayeredCircuit) -> np.ndarray:
    """Full 2^n truth table, index i holding the output where x1 is the most
    significant bit of i.  Only for n small enough to enumerate."""
    _sweep_cap(c.n, EXHAUSTIVE_CAP)
    plan = compile_circuit(c)
    chunks = _chunks(2**c.n, DEFAULT_CHUNK)
    return np.concatenate([_run(plan, _rows(c.n, None, lo, hi), plan.layers[0]) for _, lo, hi in chunks])


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification run.

    checked_by_weight / errors_by_weight map input weight to counts (weights
    with zero checked inputs are omitted).  agreement is exact over what was
    checked; ci_halfwidth is only set in sample mode.
    """

    mode: str
    total_checked: int
    errors: int
    checked_by_weight: dict[int, int] = field(default_factory=dict)
    errors_by_weight: dict[int, int] = field(default_factory=dict)
    seed: int | None = None
    ci_halfwidth: float | None = None

    @property
    def agreement(self) -> Fraction:
        if self.total_checked == 0:
            raise ValueError("empty report has no agreement rate")
        return Fraction(self.total_checked - self.errors, self.total_checked)

    def error_fraction(self, weight: int) -> Fraction:
        checked = self.checked_by_weight.get(weight, 0)
        if checked == 0:
            raise ValueError(f"no inputs of weight {weight} were checked")
        return Fraction(self.errors_by_weight.get(weight, 0), checked)

    def to_json(self) -> str:
        obj: dict = {
            "mode": self.mode,
            "total_checked": self.total_checked,
            "errors": self.errors,
            "agreement": str(self.agreement) if self.total_checked else None,
            "checked_by_weight": {str(w): self.checked_by_weight[w] for w in sorted(self.checked_by_weight)},
            "errors_by_weight": {str(w): self.errors_by_weight[w] for w in sorted(self.errors_by_weight)},
        }
        if self.seed is not None:
            obj["seed"] = self.seed
        if self.ci_halfwidth is not None:
            obj["ci_halfwidth"] = self.ci_halfwidth
        return json.dumps(obj, separators=(", ", ": "))


def _tally(rows: np.ndarray, outs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Checked and wrong counts by weight; rows are bits or class counts,
    so either way a row's sum is its input weight."""
    # a row sums to at most n, so the narrowest type holding n is exact
    weights = rows.sum(axis=1, dtype=np.min_scalar_type(n))
    truth = weights >= majority_threshold(n)
    wrong = outs.astype(bool) != truth
    checked = np.bincount(weights, minlength=n + 1)
    errors = np.bincount(weights[wrong], minlength=n + 1)
    return checked, errors


# Worker processes receive the compiled plan and the seed once at pool
# start-up and read them from this module-level slot; job tuples then stay
# tiny.  Results are merged in the order the jobs were submitted, so the
# merged report cannot depend on scheduling.
_WORK_CTX: dict = {}


def _pool_init(ctx: dict) -> None:
    _WORK_CTX.clear()
    _WORK_CTX.update(ctx)


def _tile_rows(width: int) -> int:
    """Rows per tile for rows of `width` entries: as many as keep their
    float32 cast (4 bytes an entry) within _TILE_BYTES, at least
    _TILE_FLOOR, rounded down to a multiple of 8 so that a tile of uniform
    bits ends on a word boundary of its stream."""
    return max(_TILE_FLOOR, _TILE_BYTES // (4 * width)) // 8 * 8


def _uniform_tiles(bits, count: int, n: int) -> Iterator[np.ndarray]:
    """count rows of n uniform bits from the bit generator, one tile at a
    time: the top bit of each little-endian byte of its words.  Every tile
    but the last holds a multiple of 8 bytes, so the tiles read the words
    one draw of all count * n bytes would read."""
    step = _tile_rows(n)
    for lo in range(0, count, step):
        m = min(step, count - lo)
        rows = bits.random_raw(-(-m * n // 8)).astype("<u8", copy=False).view(np.uint8)[: m * n]
        rows >>= 7
        yield rows.reshape(m, n)


def _work(job: tuple) -> np.ndarray:
    """Checked and wrong counts by weight, as rows 0 and 1, of the hi - lo
    rows of one chunk: "rows" unranks rows lo..hi-1 of the 2^n inputs (w
    None) or of the weight-w layer, "layer" draws from the weight-w layer
    (class counts when the classes compress, else bits), "uniform" draws
    uniform bits.  The rows are evaluated and tallied one tile at a time;
    uniform bits are also drawn a tile at a time."""
    source, w, index, lo, hi = job
    plan, seed = _WORK_CTX["plan"], _WORK_CTX["seed"]
    first = plan.layers[0]
    if source == "uniform":
        tiles = _uniform_tiles(philox(seed, "agreement", plan.n, index).bit_generator, hi - lo, plan.n)
    else:
        if source == "rows":
            rows = _rows(plan.n, w, lo, hi)
        elif _CLASS_COMPRESSION * len(plan.sizes) <= plan.n:
            rows, first = sample_class_counts(plan.sizes, w, hi - lo, seed, index), plan.classes
        else:
            rows = sample_layer_chunk(plan.n, w, hi - lo, seed, index)
        step = _tile_rows(rows.shape[1])
        tiles = (rows[t : t + step] for t in range(0, len(rows), step))
    counts = np.zeros((2, plan.n + 1), dtype=np.int64)
    for tile in tiles:
        counts += _tally(tile, _run(plan, tile, first), plan.n)
    return counts


def _check(
    c: LayeredCircuit,
    mode: str,
    jobs: Iterable[tuple],
    workers: int,
    seed: int | None = None,
    ci_halfwidth: float | None = None,
) -> VerificationReport:
    """Compile c once, run _work on every job and merge the counts, in job
    order, into one report.

    Jobs are read as they are needed: a pool holds at most 2 * workers of
    them in flight, so memory does not grow with their number.  Sampling
    and random generation hold the interpreter lock, so scaling comes from
    processes, not threads.  A single worker, or a single job, runs inline.
    """
    ctx = {"plan": compile_circuit(c), "seed": seed}
    counts = np.zeros((2, c.n + 1), dtype=np.int64)
    jobs = iter(jobs)
    ahead = list(itertools.islice(jobs, 2 * workers)) if workers > 1 else []
    if len(ahead) <= 1:
        _pool_init(ctx)
        for job in itertools.chain(ahead, jobs):
            counts += _work(job)
    else:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(ahead)), initializer=_pool_init, initargs=(ctx,)
        ) as pool:
            flight = collections.deque(pool.submit(_work, job) for job in ahead)
            while flight:
                counts += flight.popleft().result()
                job = next(jobs, None)
                if job is not None:
                    flight.append(pool.submit(_work, job))
    checked, errors = counts
    return VerificationReport(
        mode, int(checked.sum()), int(errors.sum()),
        {w: int(checked[w]) for w in np.flatnonzero(checked).tolist()},
        {w: int(errors[w]) for w in np.flatnonzero(errors).tolist()},
        seed=seed, ci_halfwidth=ci_halfwidth,
    )


def verify_all(
    c: LayeredCircuit,
    *,
    workers: int = 1,
    cap: int = EXHAUSTIVE_CAP,
) -> VerificationReport:
    """Compare the circuit with majority on every one of the 2^n inputs."""
    _sweep_cap(c.n, cap)
    if c.n > 64:
        raise CapExceeded("exhaustive enumeration supports n up to 64")
    jobs = (("rows", None, *ch) for ch in _chunks(2**c.n, DEFAULT_CHUNK))
    return _check(c, "exhaustive", jobs, workers)


# -- weight-layer sampling ---------------------------------------------------


def sample_layer_chunk(n: int, w: int, count: int, seed: int, chunk_index: int) -> np.ndarray:
    """One chunk of exact-uniform weight-w samples as a (count, n) matrix.

    Bits are drawn left to right: bit i is one when an exact-uniform integer
    in [0, n - i) (numpy's bounded integers, drawn one column at a time) is
    below the ones that remain, so the resulting vector is uniform over the
    weight-w layer.  The rows are the F-ordered transpose of the column
    draws, about 1 byte per bit.  The chunk owns stream (seed, "layer", n,
    w, index) regardless of which worker runs it.
    """
    if not 0 <= w <= n:
        raise ValueError(f"weight {w} out of range 0..{n}")
    rng = philox(seed, "layer", n, w, chunk_index)
    ones_left = np.full(count, w, dtype=np.uint32)
    bits = np.empty((n, count), dtype=bool)
    for i in range(n):
        np.less(rng.integers(0, n - i, size=count, dtype=np.uint32), ones_left, out=bits[i])
        ones_left -= bits[i]
    return bits.T.view(np.uint8)


def _binomials(s: int) -> list[int]:
    """C(s, x) for x = 0..s, by C(s, x + 1) = C(s, x) (s - x) / (x + 1)."""
    terms = [1]
    for x in range(s):
        terms.append(terms[-1] * (s - x) // (x + 1))
    return terms


@functools.lru_cache(maxsize=64)
def _binomial_floors(s: int) -> np.ndarray:
    """floor(2^64 * P(Bin(s, 1/2) <= x)) for x = 0..s-1, as uint64."""
    cdf = itertools.accumulate(_binomials(s)[:-1])
    floors = np.array([(c << 64) >> s for c in cdf], dtype=np.uint64)
    floors.flags.writeable = False  # cached, shared by every caller
    return floors


@functools.lru_cache(maxsize=64)
def _acceptance_floors(s: int) -> np.ndarray:
    """floor(2^64 * C(s, b) / C(s, s // 2)) for b = 0..s, as uint64; the
    ratio 1 at b = s // 2 is stored as 2^64 - 1 and settled as a tie."""
    terms = _binomials(s)
    top = terms[s // 2]
    floors = np.array([min((t << 64) // top, 2**64 - 1) for t in terms], dtype=np.uint64)
    floors.flags.writeable = False
    return floors


def _below(bits, words: list[int], num: int, den: int) -> bool:
    """Whether V < num/den, exactly, for V uniform in [0, 1).

    words holds V's leading 64-bit words, as drawn; further words come from
    the bit generator bits and are appended, so comparisons of one V with
    several fractions stay consistent.
    """
    v = k = 0
    while True:
        if len(words) == k:
            words.append(int(bits.random_raw()))
        v = v << 64 | words[k]
        k += 1
        scaled = num << 64 * k
        if (v + 1) * den <= scaled:
            return True
        if v * den >= scaled:
            return False


@functools.lru_cache(maxsize=64)
def _binomial_guide(s: int) -> tuple[np.ndarray, np.ndarray]:
    """_binomial_floors(s) by a word's top 16 bits, as (lo, mixed).

    Bucket b holds the words b * 2^48 .. (b + 1) * 2^48 - 1.  lo[b] counts
    the floors below its first word, so it is np.searchsorted(floors, u)
    for every word u of the bucket unless mixed[b], a floor inside the
    bucket.  A word equal to a floor lies in a mixed bucket.  lo is uint16
    when s < 2^16.
    """
    floors = _binomial_floors(s)
    below = np.searchsorted(floors, np.arange(1 << 16, dtype=np.uint64) << np.uint64(48))
    # the floors below the next bucket's first word; all s below 2^64
    mixed = below != np.append(below[1:], s)
    lo = below.astype(np.uint16 if s < 1 << 16 else np.uint32)
    lo.flags.writeable = mixed.flags.writeable = False
    return lo, mixed


def _binomial_draws(bits, s: int, words: np.ndarray) -> np.ndarray:
    """Exact Binomial(s, 1/2) draws, one per word: the least y with
    V < P(Bin(s, 1/2) <= y) for a uniform V in [0, 1) whose leading 64
    bits are the word.

    y is np.searchsorted(floors, word), read off _binomial_guide by the
    word's top 16 bits; only words in mixed buckets are searched.  A word
    strictly on one side of a table floor decides its comparison; a word
    equal to one is settled by _below, drawing further words from bits.
    """
    floors = _binomial_floors(s)
    lo, mixed = _binomial_guide(s)
    # the last uint16 of each word's little-endian bytes: its top 16 bits
    top = words.astype("<u8", copy=False).view("<u2")[3::4]
    ys = lo[top]
    near = np.flatnonzero(mixed[top])
    ys[near] = np.searchsorted(floors, words[near])
    for i in near[floors[np.minimum(ys[near], s - 1)] == words[near]]:
        u, y = int(words[i]), int(ys[i])
        terms, prefix = _binomials(s), [u]
        cdf = sum(terms[: y + 1])
        while y < s and int(floors[y]) == u and not _below(bits, prefix, cdf, 1 << s):
            y += 1
            cdf += terms[y]
        ys[i] = y
    return ys


def _rejection_counts(sizes: np.ndarray, w: int, count: int, bits) -> np.ndarray:
    """count exact multivariate hypergeometric rows by rejection.

    The largest class L (lowest index on ties) takes the rest b of w after
    independent Binomial(s_j, 1/2) draws for every other class j; a row is
    kept when 0 <= b <= s_L and then with probability C(s_L, b) / C(s_L,
    s_L // 2), and rejected rows are drawn again.  A kept row has
    probability proportional to prod_j C(s_j, y_j), the hypergeometric law.

    Each round draws one block of words for the rows still pending, class
    by class (class-major), and reads each run of equal-sized classes
    through one _binomial_draws lookup; the words that settle ties come
    after the block, then the acceptance words.  Only kept rows are written
    to the output.  A block (8 bytes per pending row and proposal class)
    is no larger than the output, and its proposals take 2 bytes each
    while s_L < 2^16.
    """
    big = int(np.argmax(sizes))
    s_big = int(sizes[big])
    others = [(j, s) for j, s in enumerate(sizes.tolist()) if j != big and s]
    runs, stop = [], 0
    for s, run in itertools.groupby(s for _, s in others):
        start, stop = stop, stop + len(list(run))
        runs.append((start, stop, s))
    acceptance = _acceptance_floors(s_big)
    top = math.comb(s_big, s_big // 2)
    out = np.zeros((count, len(sizes)), dtype=np.int64)
    pending = np.arange(count)
    while m := len(pending):
        block = bits.random_raw(m * len(others))
        ys = []
        for a, b, s in runs:
            ys.extend(_binomial_draws(bits, s, block[a * m : b * m]).reshape(b - a, m))
        rest = np.full(m, w, dtype=np.int64)
        for y in ys:
            rest -= y
        fits = (rest >= 0) & (rest <= s_big)
        np.clip(rest, 0, s_big, out=rest)
        words = bits.random_raw(m)
        floors = acceptance[rest]
        keep = fits & (words < floors)
        for i in np.flatnonzero(fits & (words == floors)):
            keep[i] = _below(bits, [int(words[i])], math.comb(s_big, int(rest[i])), top)
        at = np.flatnonzero(keep)
        kept = pending[at]
        out[kept, big] = rest[at]
        for (j, _), y in zip(others, ys):
            out[kept, j] = y[at]
        pending = pending[~keep]
    return out


def _rejection_pays(sizes: np.ndarray, w: int) -> bool:
    """Whether _REJECTION_COST * A * (C - 1) <= min(w, n - w), A being the
    expected proposals per row of _rejection_counts and min(w, n - w) the
    shuffle steps per row of numpy's "count" method.

    A = 2^(n - s_L) C(s_L, s_L // 2) / C(n, w); its logarithm is compared
    in floating point, and exactly when the two sides come within 1e-9.
    """
    n, s_big, c = int(sizes.sum()), int(sizes.max()), len(sizes)
    steps = min(w, n - w)
    if steps == 0:
        return False

    def log_comb(a: int, b: int) -> float:
        return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)

    lhs = math.log(_REJECTION_COST * (c - 1)) + (n - s_big) * math.log(2)
    lhs += log_comb(s_big, s_big // 2) - log_comb(n, w)
    if abs(lhs - math.log(steps)) > 1e-9:
        return lhs < math.log(steps)
    cost = _REJECTION_COST * (c - 1) * math.comb(s_big, s_big // 2) << (n - s_big)
    return cost <= steps * math.comb(n, w)


def sample_class_counts(sizes: np.ndarray, w: int, count: int, seed: int, chunk_index: int) -> np.ndarray:
    """Class counts of count exact-uniform weight-w samples, as a (count, C) matrix.

    Row r holds the ones a uniform weight-w assignment puts in each class of
    the given sizes: a multivariate hypergeometric draw, P(y) = prod_j
    C(s_j, y_j) / C(n, w).  Two exact draws give that law:

    * rejection (_rejection_counts): Binomial(s_j, 1/2) proposals for all
      classes but the largest, L, which takes the rest b; a row is kept with
      probability C(s_L, b) / C(s_L, s_L // 2).  Each proposal costs C - 1
      guide-table lookups, one by the top 16 bits of each word of a
      block drawn once per round, and A = 2^(n - s_L) C(s_L, s_L // 2) /
      C(n, w) proposals are expected per row.
    * shuffle: numpy's "count" method, an integer Fisher-Yates over
      min(w, n - w) of the n slots per row (its "marginals" method is
      faster but rests on floating-point hypergeometric draws).

    Rejection is taken when _REJECTION_COST * A * (C - 1) <= min(w, n - w),
    a rule on the sizes and w alone.  Every random comparison is exact: a
    64-bit word is compared with the floor of 2^64 times a probability, and
    a word equal to that floor is settled by drawing further words.  One
    class gets every one of the w ones.  The chunk owns stream (seed,
    "classes", n, w, index) regardless of which worker runs it.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    n = int(sizes.sum())
    if not 0 <= w <= n:
        raise ValueError(f"weight {w} out of range 0..{n}")
    if len(sizes) == 1:
        return np.full((count, 1), w, dtype=np.int64)
    rng = philox(seed, "classes", n, w, chunk_index)
    if _rejection_pays(sizes, w):
        return _rejection_counts(sizes, w, count, rng.bit_generator)
    return rng.multivariate_hypergeometric(sizes, w, size=count, method="count")


def verify_minmax(
    c: LayeredCircuit,
    *,
    samples: int | None = None,
    seed: int | None = None,
    workers: int = 1,
    cap: int = LAYER_CAP,
) -> VerificationReport:
    """Check the two critical weight layers: ceil(n/2) and ceil(n/2) - 1.

    With samples=None both layers are enumerated exhaustively (subject to
    cap).  Otherwise each layer gets `samples` exact-uniform draws using the
    given seed, as class counts when the circuit's variable classes
    compress and as bit rows otherwise.  Both layers hold inputs for every
    n >= 1: at n=1 they are weights 1 and 0.
    """
    n = c.n
    w_min = majority_threshold(n)
    layers = [w_min, w_min - 1]
    if samples is None:
        need = sum(math.comb(n, w) for w in layers)
        if need > cap:
            raise CapExceeded(
                f"critical layers hold {need} assignments, over the cap {cap}; "
                "use sampled mode"
            )
        if n > 64:
            raise CapExceeded("exact layer enumeration supports n up to 64")
        jobs = (("rows", w, *ch) for w in layers for ch in _chunks(math.comb(n, w), DEFAULT_CHUNK))
        return _check(c, "layers", jobs, workers)
    if samples < 1:
        raise ValueError("need at least one sample")
    if seed is None:
        raise ValueError("sampled mode needs a seed")
    jobs = (("layer", w, *ch) for w in layers for ch in _chunks(samples, DEFAULT_CHUNK))
    return _check(c, "sample", jobs, workers, seed=seed)


def estimate_agreement(
    c: LayeredCircuit,
    samples: int,
    seed: int,
    *,
    delta: float = 0.01,
    workers: int = 1,
) -> VerificationReport:
    """Agreement rate with majority over i.i.d. uniform random inputs.

    The reported half-width sqrt(ln(2/delta) / (2*samples)) bounds the
    deviation of the observed rate from the true one with probability at
    least 1 - delta, with no distributional assumptions.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if not 0 < delta < 1:
        raise ValueError("delta must lie strictly between 0 and 1")
    jobs = (("uniform", None, *ch) for ch in _chunks(samples, DEFAULT_CHUNK))
    half = math.sqrt(math.log(2.0 / delta) / (2.0 * samples))
    return _check(c, "sample", jobs, workers, seed=seed, ci_halfwidth=half)
