"""Synthesis of depth-2 bounded-fan-in majority circuits, and a constructive
refutation for the fan-in n-2 family.

Two independent engines look for a circuit of k weight-k bottom threshold
gates under a fixed standard-majority top gate:

* a CNF encoding handed to a DIMACS SAT solver, external or the built-in
  majcirc.sat (selector variables per gate/variable/multiplicity level,
  a sequential counter per threshold gate), plus a decoder that rebuilds
  the circuit from a model, reading every unary ladder one way, and
  always re-verifies it on all inputs.  Each constraint, a threshold gate
  and the counter's one recurrence too, is written once over constant
  literals that the clause builder folds away: a fixed threshold and the
  top gate are constant levels.  Clauses are held as one int32 matrix, a
  clause per row padded with 0, allocated once.  The inputs of one
  critical layer get the same block of clauses up to the selectors they
  read and where their own variables start, so each layer records one
  block over placeholder selectors and gathers its copies from a table
  straight into its rows of the matrix; the DIMACS text is built in numpy
  from fixed-width literal slots, a batch of rows at a time and only as
  wide as the batch uses, and its bytes are those of building every
  clause on its own;
* a backtracking enumerator over lexicographically non-decreasing gate rows
  with minterm/maxterm pruning, all children of a node tested at once on
  the critical inputs one more gate decides.

Because every candidate circuit is monotone, correctness on all minterms
and maxterms of the majority implies correctness everywhere, so both
engines constrain only these two critical layers (_critical_layers).

The last section builds, for any depth-2 circuit of n-2 standard majority
gates over n-2 distinct variables each, an explicit minterm the circuit
gets wrong: gates are the edges of a multigraph on the variables (each
joins the pair it omits), and coloring (n-1)/2 vertices, whole components
and the tail of one component's breadth-first order, fires too few gates.
"""

from __future__ import annotations

import functools
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from itertools import chain, combinations, product, starmap
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import (
    Assignment,
    LayeredCircuit,
    ThresholdGate,
    majority_threshold,
    standard_theta,
    with_top,
)
from .verify import verify_all

DEFAULT_CLAUSE_CAP = 5_000_000
DEFAULT_SPACE_CAP = 10**9
# clause rows formatted per write in CnfInstance.write_dimacs; at 2**16
# rows a batch's byte slots outgrew the cache, and 2**13 wrote faster
_DIMACS_BATCH = 2**13
# clause rows gathered at a time while encode replicates a block
_GATHER_ROWS = 2**16
# count cells summed at a time while exhaustive_search fills a firing table
_TABLE_BLOCK = 2**16


@functools.cache
def _text_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Little-endian int64 byte tables for the 8-byte DIMACS literal slot:
    sign in byte 0, the digits right-aligned in bytes 1..6, a space in
    byte 7, and NUL in every unused byte.

    low[c] holds c < 10^4 in bytes 3..6 with leading NULs and the space,
    low[10^4 + c] the same zero-padded to four digits; low[0] is all NUL,
    the padding literal.  top[h] holds h < 100 in bytes 1..2, and top[~h]
    adds the minus sign.  step[h] = 10^4 [h > 0] - 10^4 h, so that
    low[v + step[v // 10^4]] is the low four digits of v, padded exactly
    when v has more.  Built on the first write, so importing the package
    allocates none of them.
    """
    c = np.arange(10**4, dtype=np.int64)
    low = np.full(2 * 10**4, 0x20 << 56, dtype=np.int64)
    for p in range(4):
        digit = (c // 10**p % 10 + 0x30) << (8 * (6 - p))
        low[10**4 :] |= digit
        low[: 10**4] |= np.where(c >= 10**p, digit, 0)
    low[0] = 0
    h = np.arange(100, dtype=np.int64)
    tens = np.where(h >= 10, (h // 10 + 0x30) << 8, 0)
    digits = tens | np.where(h >= 1, (h % 10 + 0x30) << 16, 0)
    top = np.concatenate([digits, (digits | 0x2D)[::-1]])
    step = np.where(h > 0, 10**4, 0) - 10**4 * h
    for table in (low, top, step):
        table.flags.writeable = False
    return low, top, step


# the four digit bytes of a low-table entry, without its space
_LOW_DIGITS = 0xFFFFFFFF << 24


def _literal_slots(lits: np.ndarray, out: np.ndarray) -> None:
    """Write the DIMACS text of each literal into its slot of out, one or
    two little-endian int64 words per literal (out.shape = lits.shape +
    (words,)); NUL fills every byte that is not text, and literal 0 is all
    NUL.

    One word holds literals of up to six digits: the sign in byte 0, the
    digits from byte 1 and the space in byte 7.  Two words hold up to ten
    digits, which covers int32: the sign and two top digits in bytes 4..6,
    the middle four digits in bytes 7..10 and the low four and the space in
    bytes 11..15.
    """
    low_text, top_text, low_step = _text_tables()
    mag = np.abs(lits)
    neg = lits >> 31  # int32: -1 on negative literals, so top ^ neg indexes top[~h]
    if out.shape[-1] == 1:
        top = mag // 10**4
        np.bitwise_or(
            top_text.take(top ^ neg), low_text.take(mag + low_step.take(top)), out=out[..., 0]
        )
        return
    mid = mag // 10**4
    top = mid // 10**4
    inner = low_text.take(mid + low_step.take(top)) & _LOW_DIGITS
    out[..., 0] = (top_text.take(top ^ neg) | inner) << 32
    out[..., 1] = (inner >> 32) | low_text.take(mag - 10**4 * mid + 10**4 * (mid > 0))


# solver executables probed on PATH, in order, when none is configured;
# each prints its model on stdout, which MiniSat 2.2 does not
SOLVER_CANDIDATES = ("varisat", "kissat", "cadical", "cryptominisat5", "glucose")
SOLVER_ENV = "MAJCIRC_SAT_SOLVER"
# the pure-Python CDCL solver shipped with the package, run under this
# interpreter when no other solver is found
BUILTIN_SOLVER = str(Path(__file__).resolve().with_name("sat.py"))


class SpaceTooLarge(ValueError):
    """The requested search space exceeds a size cap; carries the estimate."""

    def __init__(self, message: str, estimate: int):
        super().__init__(message)
        self.estimate = estimate


class ModelError(ValueError):
    """A claimed model does not consistently describe a circuit."""


class EncoderBug(RuntimeError):
    """A circuit returned by either engine failed verification: the engine is wrong."""


class SolverError(RuntimeError):
    """The SAT solver produced no usable verdict."""


@dataclass(frozen=True)
class SearchSpaceSpec:
    """The space of candidate circuits: k bottom gates, each a threshold
    gate of total weight exactly k over the n variables with per-variable
    multiplicity at most multiplicity_max, under a fixed standard-majority
    top gate reading all k bottom gates.

    standard_thresholds pins every bottom threshold to ceil(k/2), the
    least integer at least k/2 (standard_theta); switching it off adds the
    threshold itself (1..k per gate) to the search; the CNF writes a gate
    once, a fixed threshold as a constant level.  multiplicity_max=1
    forbids repeated variables.  Both engines keep only gate rows in
    lexicographic order, which loses no verdict: the top gate reads each
    bottom gate once, unweighted, so sorting the gates of any circuit
    (full-threshold ones too) keeps its function.  Every candidate is
    monotone, so the search constrains only the two critical weight
    layers; both engines re-verify what they find on all 2^n inputs.
    """

    n: int
    k: int
    multiplicity_max: int = 2
    standard_thresholds: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.multiplicity_max < 1:
            raise ValueError("multiplicity_max must be at least 1")

    @property
    def theta(self) -> int:
        """Top-gate threshold, and every bottom gate's in standard mode."""
        return standard_theta(self.k)


def _thresholds(spec: SearchSpaceSpec) -> Sequence[int]:
    """The thresholds a bottom gate may carry, ascending."""
    return (spec.theta,) if spec.standard_thresholds else range(1, spec.k + 1)


def _critical_layers(n: int) -> Iterator[tuple[np.ndarray, int]]:
    """(ones, required output) per critical weight layer, made one layer
    at a time: the minterms (weight ceil(n/2), output 1), then the
    maxterms (one lighter, output 0).  ones holds each input's
    one-positions as a row, in combinations order, in the least unsigned
    dtype that holds n - 1."""
    for w, value in ((majority_threshold(n), 1), (majority_threshold(n) - 1, 0)):
        flat = chain.from_iterable(combinations(range(n), w))
        count = math.comb(n, w)
        yield np.fromiter(flat, np.min_scalar_type(n - 1), count * w).reshape(count, w), value


# -- CNF construction -------------------------------------------------------


# the constant literals of _CnfBuilder, folded away by take(): negation
# swaps them, and unlike the bools (1 == True) they equal no variable
_TRUE, _FALSE = math.inf, -math.inf


class _CnfBuilder:
    """Fresh variables after num_vars, and the clauses added since the last
    take()."""

    def __init__(self, num_vars: int = 0):
        self.num_vars = num_vars
        self.clauses: list[tuple[float, ...]] = []

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add(self, *lits: float) -> None:
        self.clauses.append(lits)

    def take(self) -> np.ndarray:
        """The pending clauses as a 0-padded int32 matrix, one per row, with
        constants folded: a clause holding _TRUE is satisfied and dropped,
        and _FALSE is left out of it (all-zero row: the empty clause)."""
        rows, self.clauses = self.clauses, []
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        lits = np.fromiter(chain.from_iterable(rows), dtype=np.float64, count=lengths.sum())
        row = np.repeat(np.arange(len(rows)), lengths)
        dropped = np.bincount(row[lits == _TRUE], minlength=len(rows)) > 0
        keep = ~dropped[row] & (lits != _FALSE)
        lengths = np.bincount(row[keep], minlength=len(rows))[~dropped]
        out = np.zeros((len(lengths), int(lengths.max(initial=0))), dtype=np.int32)
        out[np.arange(out.shape[1]) < lengths[:, None]] = lits[keep]
        return out


def _replicate(
    block: np.ndarray, base: int, slots: np.ndarray, nvars: int, out: np.ndarray
) -> None:
    """Write one copy of a recorded block per row of slots into out, the
    (len(slots) * len(block), width) rows of the clause matrix that the
    copies fill, width at least the block's; the columns past it get 0.

    The block was recorded with codes: up to base the real variables, then
    slots.shape[1] placeholders that copy a takes from its row of slots,
    then the block's own nvars variables, which copy a moves to
    base + a*nvars + 1 onwards.  Copy a's table row holds the values of
    the codes, their negations and the block's fixed literals (0 among
    them), so each literal of the padded block reads one column, and a
    group of copies is one gather from its table rows straight into out.
    A plain block, base past its every literal, is copied once by a
    single row of slots with no placeholder and nvars 0.
    """
    count, width = slots.shape
    codes = width + nvars
    lits = np.zeros((len(block), out.shape[1]), dtype=np.int32)
    lits[:, : block.shape[1]] = block
    mag = np.abs(lits)
    fixed = mag <= base
    consts, const_col = np.unique(lits[fixed], return_inverse=True)
    col = np.where(lits < 0, codes, 0) + mag - base - 1
    col[fixed] = 2 * codes + const_col
    col = col.ravel()
    own = np.arange(base + 1, base + nvars + 1, dtype=np.int32)
    copies = out.reshape(count, col.size)
    group = max(1, _GATHER_ROWS // max(len(block), 1))
    for lo in range(0, count, group):
        hi = min(lo + group, count)
        table = np.empty((hi - lo, 2 * codes + len(consts)), dtype=np.int32)
        table[:, :width] = slots[lo:hi]
        table[:, width:codes] = own + nvars * np.arange(lo, hi, dtype=np.int32)[:, None]
        np.negative(table[:, :codes], out=table[:, codes : 2 * codes])
        table[:, 2 * codes :] = consts
        # every column is in range; "clip" writes out in place, "raise" via a buffer
        table.take(col, axis=1, out=copies[lo:hi], mode="clip")


def _counter_cells(b: _CnfBuilder, lits: Sequence[int], qmax: int) -> list[int]:
    """Sinz's sequential counter over lits, returning final cells where
    cells[q-1] is equivalent to (at least q of lits are true), for
    q = 1..min(len, qmax).

    Every cell is c[r][q] <-> c[r-1][q] or (c[r-1][q-1] and x_r), both
    directions, over a column whose c[r-1][0] is _TRUE and whose cells
    past the last are _FALSE."""
    col: list[float] = [_TRUE]  # c[r-1][0..]
    for x in lits:
        cells = [b.new_var() for _ in range(min(len(col), qmax))]
        col.append(_FALSE)
        for cq, diag, up in zip(cells, col, col[1:]):
            b.add(-diag, -x, cq)
            b.add(-up, cq)
            b.add(-cq, up, diag)
            b.add(-cq, up, x)
        col = [_TRUE, *cells]
    return col[1:]


def _at_least(cells: Sequence[int], q: int) -> float:
    """The literal for (at least q counted literals are true), q >= 1:
    cells[q-1] of _counter_cells, and _FALSE past the last cell."""
    return cells[q - 1] if q <= len(cells) else _FALSE


def _threshold_gate(
    b: _CnfBuilder, out: float, lits: Sequence[float], levels: dict[int, float]
) -> None:
    """Clauses for out <-> (at least t of lits are true), where levels maps
    each threshold q the gate may carry, ascending, to the literal (t >= q):
    variables when t is searched, {t: _TRUE} when it is fixed, which take()
    folds to out <-> (the counter reaches t).  Lits short of every level
    never fire and get no counter."""
    cells = _counter_cells(b, lits, max(levels)) if len(lits) >= min(levels) else []
    for q, tq in levels.items():
        fires = _at_least(cells, q)
        b.add(-out, -tq, fires)  # firing reaches every level up to t
        b.add(out, -tq, levels.get(q + 1, _FALSE), -fires)  # t = q, sum short: silent


def _counter_cost(length: int, qmax: int) -> int:
    """Clause-count upper bound for _counter_cells (4 per cell)."""
    cells = sum(min(r, qmax) for r in range(1, length + 1))
    return 4 * cells


@dataclass
class CnfInstance:
    """A CNF whose models are exactly the circuits of the space that agree
    with the majority on both critical layers, together with the variable map
    needed to read a circuit back out of a model.

    sel maps (gate, variable, level) to the CNF variable asserting that the
    gate carries the variable with multiplicity at least level (variables
    and gates 0-based here, levels from 1).  thr, in full-threshold mode,
    maps (gate, q) to "threshold at least q".  Every other CNF variable is
    an auxiliary counter or indicator cell.

    clauses is an (m, width) int32 matrix holding one clause per row, its
    literals first and 0 after them (0 is never a literal in DIMACS), so
    len(clauses) is the clause count and width the longest clause; an
    all-zero row is the empty clause, written as "0".  The
    per_assignment rows are one recorded block per critical layer,
    gathered by encode straight into this matrix for each of the layer's
    inputs; write_dimacs writes the same bytes as emitting every clause on
    its own.  sections counts
    the clauses of each part of the encoding, in file order: ladders,
    exactly_k, per_assignment and symmetry (the rows' lexicographic order).
    """

    spec: SearchSpaceSpec
    num_vars: int
    clauses: np.ndarray
    sel: dict[tuple[int, int, int], int]
    thr: dict[tuple[int, int], int]
    sections: dict[str, int]

    def write_files(self, directory: str | Path) -> Path:
        """Write maj-n<n>-k<k>.cnf and its .varmap sidecar into directory,
        creating it if needed; return the .cnf path."""
        base = Path(directory)
        base.mkdir(parents=True, exist_ok=True)
        stem = f"maj-n{self.spec.n}-k{self.spec.k}"
        self.write_dimacs(base / f"{stem}.cnf")
        self.write_varmap(base / f"{stem}.varmap")
        return base / f"{stem}.cnf"

    def write_dimacs(self, path: str | Path) -> None:
        """Write the DIMACS file, its text built in numpy _DIMACS_BATCH
        clause rows at a time.

        A batch first drops its trailing columns that hold only padding:
        standard-threshold per-assignment rows use 3 of the matrix's 4.
        Each of its rows then becomes fixed-width byte slots: one per
        literal column (sign, digits, space; see _literal_slots), 8 bytes
        while num_vars has at most six digits and 16 beyond, then one
        holding "0\\n".  Every DIMACS character is nonzero, so dropping
        the NUL bytes leaves exactly the text, and the padding literal 0
        leaves nothing.  The slots of every batch are views of one buffer,
        allocated once per write and sized by _DIMACS_BATCH and the matrix
        width, so the transient arrays are set by the batch, not by
        num_vars or the clause count.
        """
        rows, cols = self.clauses.shape
        words = 1 if self.num_vars < 10**6 else 2
        buffer = np.empty(min(rows, _DIMACS_BATCH) * (cols + 1) * words, dtype=np.int64)
        end = np.zeros(words, dtype=np.int64)
        end[0] = int.from_bytes(b"0\n", "little")
        with open(path, "wb") as fh:
            fh.write(f"p cnf {self.num_vars} {rows}\n".encode())
            for lo in range(0, rows, _DIMACS_BATCH):
                batch = self.clauses[lo : lo + _DIMACS_BATCH]
                width = cols
                while width and not batch[:, width - 1].any():
                    width -= 1
                batch = batch[:, :width]
                shape = (len(batch), width + 1, words)
                slots = buffer[: math.prod(shape)].reshape(shape)
                slots[:, width] = end
                _literal_slots(batch, slots[:, :width])
                fh.write(slots.tobytes().translate(None, b"\0"))

    def write_varmap(self, path: str | Path) -> None:
        """Sidecar mapping CNF variables back to circuit structure.

        Lines: `v <id> g <gate> x <variable> j <level>` for selectors (the
        variable index is 1-based to match the circuit format) and
        `t <id> g <gate> q <q>` for threshold levels.
        """
        s = self.spec
        with open(path, "w") as fh:
            fh.write(
                f"c majcirc varmap n={s.n} k={s.k} "
                f"multiplicity_max={s.multiplicity_max} "
                f"standard_thresholds={int(s.standard_thresholds)}\n"
            )
            for (g, i, j), var in sorted(self.sel.items(), key=lambda kv: kv[1]):
                fh.write(f"v {var} g {g} x {i + 1} j {j}\n")
            for (g, q), var in sorted(self.thr.items(), key=lambda kv: kv[1]):
                fh.write(f"t {var} g {g} q {q}\n")


class VariableMap(NamedTuple):
    """The CNF variables that describe a circuit of the space, sel and thr
    as in CnfInstance: all that decode reads of an encoding."""

    spec: SearchSpaceSpec
    sel: dict[tuple[int, int, int], int]
    thr: dict[tuple[int, int], int]


def variable_map(spec: SearchSpaceSpec) -> VariableMap:
    """The variable map of encode(spec), built without any clause: the
    selectors first, so the varmap occupies the low ids, then the
    threshold levels."""
    n, k, mult = spec.n, spec.k, spec.multiplicity_max
    sel = {key: v for v, key in enumerate(product(range(k), range(n), range(1, mult + 1)), 1)}
    levels = () if spec.standard_thresholds else product(range(k), range(1, k + 1))
    thr = {key: v for v, key in enumerate(levels, len(sel) + 1)}
    return VariableMap(spec, sel, thr)


def _levels(vm: CnfInstance | VariableMap, g: int) -> dict[int, float]:
    """Gate g's levels for _threshold_gate: variables, or _TRUE if fixed."""
    return {q: vm.thr.get((g, q), _TRUE) for q in _thresholds(vm.spec)}


def estimate_clauses(spec: SearchSpaceSpec) -> int:
    """Upper estimate of the clause count encode would produce."""
    n, k, mult = spec.n, spec.k, spec.multiplicity_max
    length = n * mult
    est = k * n * (mult - 1)  # selector ladders
    est += k * (_counter_cost(length, k + 1) + 2)  # exactly-k
    if not spec.standard_thresholds:
        est += k * k  # threshold ladders and floor units
    thresholds = _thresholds(spec)
    for w in (majority_threshold(n), majority_threshold(n) - 1):
        per_gate = _counter_cost(w * mult, max(thresholds)) + 2 * len(thresholds)
        est += math.comb(n, w) * (k * per_gate + _counter_cost(k, spec.theta) + 1)
    return est + (k - 1) * 3 * length  # symmetry


def encode(spec: SearchSpaceSpec, clause_cap: int = DEFAULT_CLAUSE_CAP) -> CnfInstance:
    """Build the CNF for the space.

    Satisfiable exactly when some circuit in the space agrees with the
    majority on both critical layers, which means computing it on all
    inputs, since candidates are monotone.  Refuses with an estimate when
    the projected clause count exceeds clause_cap.  For k past n *
    multiplicity_max each gate's exactly-k is an all-zero (empty) clause.
    """
    est = estimate_clauses(spec)
    if est > clause_cap:
        raise SpaceTooLarge(
            f"encoding estimated at {est} clauses, over the cap {clause_cap}", est
        )
    n, k, mult = spec.n, spec.k, spec.multiplicity_max
    vm = variable_map(spec)
    sel = vm.sel
    b = _CnfBuilder(len(sel) + len(vm.thr))

    # multiplicity ladders: carrying level j implies carrying level j-1
    for (g, i, j), v in sel.items():
        b.add(-v, sel.get((g, i, j - 1), _TRUE))
    # threshold ladders, each threshold at least the least it may carry
    levels = [_levels(vm, g) for g in range(k)]
    for lv in levels:
        for q, tq in lv.items():
            b.add(-lv.get(q + 1, _FALSE), tq)
        b.add(lv[min(lv)])
    ladders = b.take()

    sel_ids = np.array(list(sel.values()), dtype=np.int32).reshape(k, n, mult)
    gate_lits = sel_ids.reshape(k, -1).tolist()
    # total weight exactly k per gate; with k past the row length, (at
    # least k) reads _FALSE and take() keeps the empty clause
    for lits in gate_lits:
        cells = _counter_cells(b, lits, k + 1)
        b.add(_at_least(cells, k))
        b.add(-_at_least(cells, k + 1))
    exactly_k = b.take()

    # per-input gate outputs and the fixed top majority.  The blocks of one
    # critical layer differ only in the selectors they read and where their
    # own variables start, so the layer records one block over placeholder
    # selectors and replicates it.
    layers = []
    for ones, value in _critical_layers(n):
        w = ones.shape[1]
        base = b.num_vars
        blk = _CnfBuilder(base + k * w * mult)
        # placeholder[g] stands for gate g's selectors of the input's
        # ones, by one-position then level
        placeholder = np.arange(base + 1, blk.num_vars + 1).reshape(k, w * mult).tolist()
        outs = []
        for lits, lv in zip(placeholder, levels):
            # each output is numbered right before its gate's counter
            outs.append(blk.new_var())
            _threshold_gate(blk, outs[-1], lits, lv)
        # the top gate's output is the required value
        _threshold_gate(blk, (_FALSE, _TRUE)[value], outs, {spec.theta: _TRUE})
        nvars = blk.num_vars - base - k * w * mult
        slots = sel_ids[:, ones, :].transpose(1, 0, 2, 3).reshape(len(ones), -1)
        layers.append((blk.take(), base, slots, nvars))
        b.num_vars += len(ones) * nvars

    # rows in lexicographically non-decreasing order over the flattened
    # selector vectors; sound because the top gate is symmetric in the rows
    for a, c in zip(gate_lits, gate_lits[1:]):
        guard = _FALSE  # -e, e: the rows agree before this position
        for ap, cp in zip(a[:-1], c[:-1]):
            b.add(guard, -ap, cp)
            e = b.new_var()
            b.add(guard, -ap, -cp, e)
            b.add(guard, ap, cp, e)
            guard = -e
        b.add(guard, -a[-1], c[-1])

    symmetry = b.take()

    # one matrix, every cell written once, its rows in file order: each
    # layer's copies are gathered straight into their rows, and a plain
    # part is a block of fixed literals copied once
    once = (b.num_vars, np.empty((1, 0), dtype=np.int32), 0)
    parts = [(ladders, *once), (exactly_k, *once), *layers, (symmetry, *once)]
    sections = {
        "ladders": len(ladders),
        "exactly_k": len(exactly_k),
        "per_assignment": sum(len(block) * len(slots) for block, _, slots, _ in layers),
        "symmetry": len(symmetry),
    }
    width = max(block.shape[1] for block, *_ in parts)
    clauses = np.empty((sum(sections.values()), width), dtype=np.int32)
    row = 0
    for block, base, slots, nvars in parts:
        rows = len(block) * len(slots)
        _replicate(block, base, slots, nvars, clauses[row : row + rows])
        row += rows
    return CnfInstance(spec, b.num_vars, clauses, sel, vm.thr, sections)


# -- models and decoding ----------------------------------------------------


def parse_model_text(text: str, exit_code: int | None = None) -> tuple[int, ...] | None:
    """The model in a solver's output, or None when its verdict is
    unsatisfiable.

    Understands `s SATISFIABLE` / `s UNSATISFIABLE` verdict lines, `v `
    model lines, bare SAT/UNSAT markers, and raw whitespace-separated
    literal lines terminated by 0 (MiniSat's result-file format).  The
    last verdict counts; literals without one count as SAT.  With neither,
    exit_code 20 (the SAT-competition code for UNSAT) means unsatisfiable.
    No verdict otherwise, or SAT without literals, raises SolverError.
    """
    sat: bool | None = None
    lits: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        upper = line.upper()
        if upper.startswith("S "):
            verdict = upper[2:].strip()
            if "UNSAT" in verdict:
                sat = False
            elif "SAT" in verdict:
                sat = True
            continue
        if upper in ("SAT", "SATISFIABLE"):
            sat = True
            continue
        if upper in ("UNSAT", "UNSATISFIABLE"):
            sat = False
            continue
        if line.startswith(("v", "V")):
            line = line[1:]
        try:
            values = [int(tok) for tok in line.split()]
        except ValueError:
            continue
        lits.extend(v for v in values if v != 0)
    if sat is None:
        if not lits and exit_code != 20:
            raise SolverError("no verdict")
        sat = bool(lits)
    if not sat:
        return None
    if not lits:
        raise SolverError("SAT without a model")
    return tuple(lits)


def find_solver() -> str:
    """The solver run_solver uses when none is given.

    In order: the executable named by MAJCIRC_SAT_SOLVER, the first of
    SOLVER_CANDIDATES found on PATH, and else BUILTIN_SOLVER, the absolute
    path of majcirc/sat.py.  The built-in solver handles the small spaces
    (n up to about 7); larger ones want an external solver.
    """
    configured = os.environ.get(SOLVER_ENV)
    if configured:
        return configured
    for name in SOLVER_CANDIDATES:
        path = shutil.which(name)
        if path:
            return path
    return BUILTIN_SOLVER


def run_solver(dimacs_path: str | Path, solver: str | None = None) -> tuple[int, ...] | None:
    """Run a DIMACS solver on a file and return what parse_model_text reads
    from its stdout and exit code: the model, or None when unsatisfiable.

    solver defaults to find_solver(); BUILTIN_SOLVER runs under the current
    interpreter, anything else as an executable.  The SolverError for no
    verdict, or SAT without a model, names the command, its exit code and
    the start of its output.
    """
    cmd = solver or find_solver()
    argv = [sys.executable, cmd] if cmd == BUILTIN_SOLVER else [cmd]
    proc = subprocess.run(argv + [str(dimacs_path)], capture_output=True, text=True)
    try:
        return parse_model_text(proc.stdout, proc.returncode)
    except SolverError as e:
        raise SolverError(
            f"{cmd}: {e} (exit {proc.returncode}); output began: "
            + (proc.stdout or proc.stderr)[:200]
        ) from None


def _checked(n: int, gates: Sequence[ThresholdGate]) -> LayeredCircuit:
    """The gates under a standard-majority top gate, verified on all 2^n
    inputs: the one exit of both engines, raising EncoderBug if it errs."""
    circuit = with_top(n, [gates])
    if (report := verify_all(circuit)).errors:
        raise EncoderBug(f"found circuit disagrees with the majority on {report.errors} "
                         f"of {report.total_checked} inputs; the search is unsound")
    return circuit


def decode(instance: CnfInstance | VariableMap, model: Iterable[int]) -> LayeredCircuit:
    """Rebuild the circuit a model describes, then verify it; instance is
    the encoding or its variable_map.

    The model must assign every selector (and threshold) variable, the
    multiplicity and threshold ladders must be downward closed, and every
    row must weigh exactly k; anything else is a ModelError.  A model of
    the encoding is right on both critical layers, hence on all inputs,
    and the checked exit confirms it on all 2^n before returning; a
    failure there means the encoding lied and raises EncoderBug.
    """
    spec = instance.spec
    assign: dict[float, bool] = {_TRUE: True, _FALSE: False}
    for lit in model:
        if lit == 0:
            continue
        assign[abs(lit)] = lit > 0
    n, k, mult = spec.n, spec.k, spec.multiplicity_max

    def level(kind: str, where: str, ladder: dict[int, float]) -> int:
        """The top level set on a ladder {level: literal} of consecutive
        levels, every level below its first counting as set."""
        top = min(ladder) - 1
        for j, var in ladder.items():
            if var not in assign:
                raise ModelError(f"model does not assign {kind} {where}={j} (CNF variable {var})")
            if assign[var]:
                if j != top + 1:
                    raise ModelError(f"{kind} ladder broken at {where}={j}")
                top = j
        return top

    rows: list[ThresholdGate] = []
    for g in range(k):
        inputs = []
        for i in range(n):
            ladder = {j: instance.sel[(g, i, j)] for j in range(1, mult + 1)}
            m = level("selector", f"g={g} x{i + 1} j", ladder)
            if m:
                inputs.append((i, m))
        weight = sum(m for _, m in inputs)
        if weight != k:
            raise ModelError(f"gate {g} carries weight {weight}, expected {k}")
        theta = level("threshold", f"g={g} q", _levels(instance, g))
        if theta < 1:
            raise ModelError(f"gate {g} decodes to threshold {theta}")
        rows.append(ThresholdGate(tuple(inputs), theta))

    return _checked(n, rows)


def solve_spec(
    spec: SearchSpaceSpec,
    solver: str | None = None,
    clause_cap: int = DEFAULT_CLAUSE_CAP,
    keep_files: str | Path | None = None,
) -> LayeredCircuit | None:
    """Encode, solve with run_solver, decode.  None when unsatisfiable.

    keep_files names a directory to leave the DIMACS and varmap in;
    otherwise they live in a temporary directory.
    """
    instance = encode(spec, clause_cap=clause_cap)
    if keep_files is not None:
        model = run_solver(instance.write_files(keep_files), solver)
    else:
        with tempfile.TemporaryDirectory(prefix="majcirc-") as tmp:
            model = run_solver(instance.write_files(tmp), solver)
    return None if model is None else decode(instance, model)


# -- exhaustive engine ------------------------------------------------------


def _candidate_rows(spec: SearchSpaceSpec) -> list[tuple[int, ...]]:
    """All multiplicity vectors of total weight k, in lexicographic order,
    built one coordinate at a time: each prefix takes, in ascending order,
    every value that leaves a weight the coordinates after it can make."""
    m = spec.multiplicity_max
    rows = [((), spec.k)]  # (prefix, weight still to place)
    for left in range(spec.n - 1, -1, -1):
        rows = [((*row, v), rest - v) for row, rest in rows
                for v in range(max(0, rest - m * left), min(m, rest) + 1)]
    return [row for row, _ in rows]


def _candidate_count(spec: SearchSpaceSpec) -> int:
    """Number of candidate gates, rows times the thresholds each may carry.

    The rows, vectors in {0..m}^n summing to k, are counted by
    inclusion-exclusion over the j coordinates forced above m:
    sum_j (-1)^j C(n, j) C(k - j(m+1) + n - 1, n - 1).
    """
    n, k, m = spec.n, spec.k, spec.multiplicity_max
    rows = sum(
        (-1) ** j * math.comb(n, j) * math.comb(k - j * (m + 1) + n - 1, n - 1)
        for j in range(min(n, k // (m + 1)) + 1)
    )
    return rows * len(_thresholds(spec))


def estimate_space(spec: SearchSpaceSpec) -> int:
    """Number of non-decreasing k-tuples of candidate gates."""
    return math.comb(_candidate_count(spec) + spec.k - 1, spec.k)


def exhaustive_search(
    spec: SearchSpaceSpec, space_cap: int = DEFAULT_SPACE_CAP
) -> LayeredCircuit | None:
    """Backtracking over non-decreasing gate rows; the independent oracle
    for the SAT pipeline.

    Prunes a branch as soon as some minterm cannot reach the top threshold
    even if all remaining gates fire, or some maxterm already reaches it.
    A node tests its children only on the critical inputs that one more
    gate decides: the minterms one short of the threshold after the free
    gates, on which a child must fire, and the maxterms one short of it,
    on which it must stay silent.  No minterm is ever two short: none is
    at the root, and a child fires on every minterm one short.  All
    children are tested at once, and the survivors are entered in
    increasing candidate order, so the search visits nodes in the same
    order as testing one child at a time.  Every leaf is right on both
    critical layers by the pruning, hence on all inputs; the checked exit
    confirms the first and returns it, or raises EncoderBug.
    """
    n, k = spec.n, spec.k
    # sized before anything is built: the k-tuples, then a firing table row
    # per critical input, C(n, w) + C(n, w - 1) = C(n + 1, w), x candidates
    count = _candidate_count(spec)
    for size, what in (
        (estimate_space(spec), "search space estimated at {} candidates"),
        (math.comb(n + 1, majority_threshold(n)) * count, "critical-input tables of {} cells"),
    ):
        if size > space_cap:
            raise SpaceTooLarge(f"{what.format(size)}, over the cap {space_cap}", size)
    if not count:
        return None
    cands = [(vec, t) for vec in _candidate_rows(spec) for t in _thresholds(spec)]

    # [i, c]: candidate c's multiplicity of variable i, in the dtype of k,
    # which holds any candidate's count on an input
    dtype = np.min_scalar_type(k)
    mults = np.array([vec for vec, _ in cands], dtype=dtype).T.copy()
    thetas = np.array([t for _, t in cands], dtype=dtype)

    # critical inputs per block: about _TABLE_BLOCK cells of a table
    step = max(1, _TABLE_BLOCK // len(cands))

    def fires(ones: np.ndarray, _: int) -> np.ndarray:
        """[a, c] is True when candidate c fires on critical input a, as
        rows per input, which recurse selects.  The table is filled one
        block of inputs at a time, each block's counts summed one
        one-position column at a time."""
        table = np.empty((len(ones), len(cands)), dtype=bool)
        for lo in range(0, len(ones), step):
            block = ones[lo : lo + step]
            counts = np.zeros((len(block), len(cands)), dtype=dtype)
            for col in block.T:
                counts += mults[col]
            np.greater_equal(counts, thetas, out=table[lo : lo + step])
        return table

    # starmap drops each layer's positions once its table is built
    fires_min, fires_max = starmap(fires, _critical_layers(n))
    theta = spec.theta
    chosen: list[int] = []

    def blocks(table: np.ndarray, rows: np.ndarray, start: int) -> Iterator[np.ndarray]:
        """table[rows, start:] for a boolean mask rows, a block at a time,
        so no copy holds more than a block of the table."""
        at = np.flatnonzero(rows)
        return (table[at[lo : lo + step], start:] for lo in range(0, len(at), step))

    def recurse(start: int, depth: int, mins: np.ndarray, maxs: np.ndarray):
        """mins, maxs: firing counts of the chosen gates per minterm and
        per maxterm."""
        if depth == k:
            return _checked(n, [
                ThresholdGate(tuple((i, m) for i, m in enumerate(cands[c][0]) if m), cands[c][1])
                for c in chosen
            ])
        # how far each minterm stays from theta if the k - depth - 1 gates
        # after the child all fire
        short = theta - (k - depth - 1) - mins
        ok = np.ones(len(cands) - start, dtype=bool)
        for part in blocks(fires_min, short == 1, start):
            ok &= part.all(axis=0)
        for part in blocks(fires_max, maxs == theta - 1, start):
            ok &= ~part.any(axis=0)
        for c in (np.flatnonzero(ok) + start).tolist():
            chosen.append(c)
            found = recurse(c, depth + 1, mins + fires_min[:, c], maxs + fires_max[:, c])
            if found is not None:
                return found
            chosen.pop()
        return None

    return recurse(0, 0, *(np.zeros(len(f), dtype=np.int32) for f in (fires_min, fires_max)))


# -- the fan-in n-2 refutation ----------------------------------------------


def _fooling_preconditions(c: LayeredCircuit) -> list[tuple[int, int]]:
    """Validate the fan-in n-2 shape and return the omitted pair per gate."""
    n = c.n
    if n < 3 or n % 2 == 0:
        raise ValueError(f"the construction needs an odd n >= 3, got n={n}")
    if c.depth != 2:
        raise ValueError(f"depth-2 circuit required, got depth {c.depth}")
    k = n - 2
    bottom = c.layers[0]
    if len(bottom) != k:
        raise ValueError(f"expected {k} bottom gates, got {len(bottom)}")
    top = c.layers[1][c.top]
    if tuple(top.inputs) != tuple((g, 1) for g in range(k)):
        raise ValueError("top gate must read every bottom gate once, unweighted")
    if not top.is_standard():
        raise ValueError(
            f"non-standard threshold on the top gate: {top.theta} over fan-in {k}"
        )
    pairs = []
    for idx, gate in enumerate(bottom):
        if gate.fanin != len(gate.inputs):
            raise ValueError(f"repeated variable in bottom gate {idx}")
        if len(gate.inputs) != k:
            raise ValueError(
                f"wrong fan-in on bottom gate {idx}: {len(gate.inputs)}, expected {k}"
            )
        if not gate.is_standard():
            raise ValueError(
                f"non-standard threshold on bottom gate {idx}: {gate.theta}"
            )
        omitted = sorted(set(range(n)) - set(gate.support))
        pairs.append((omitted[0] + 1, omitted[1] + 1))
    return pairs


def omission_components(
    c: LayeredCircuit,
) -> list[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]]:
    """(vertices, edges) per connected component of the multigraph on the
    variables (1-based) with one edge per bottom gate, joining the two
    variables it omits.  Components come in order of their lowest vertex;
    vertices are in breadth-first order from it, neighbours ascending, so
    every vertex but the first comes after its BFS parent; edges are in
    gate order."""
    edges = _fooling_preconditions(c)
    adj: dict[int, list[int]] = {v: [] for v in range(1, c.n + 1)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen: set[int] = set()
    comps = []
    for root in range(1, c.n + 1):
        if root in seen:
            continue
        seen.add(root)
        order = [root]
        for u in order:  # the queue is the order itself, read as it grows
            for w in sorted(adj[u]):
                if w not in seen:
                    seen.add(w)
                    order.append(w)
        members = set(order)
        comps.append((tuple(order), tuple(e for e in edges if e[0] in members)))
    return comps


def fooling_input(c: LayeredCircuit) -> Assignment:
    """A minterm of the majority on which the circuit outputs 0.

    Applies to depth-2 circuits of exactly n-2 bottom gates, each a
    standard majority of n-2 distinct variables, under a standard majority
    top gate.  Each bottom gate omits two variables; a gate fires on a
    weight-((n+1)/2) assignment exactly when at least one omitted variable
    is 0.  Coloring l = (n-1)/2 vertices of the multigraph of omitted pairs
    0 while touching at most l-1 edges thus leaves fewer than the required
    l gates firing, and the top gate stays 0.

    Components are taken whole in increasing order of p = edges - vertices
    (ties by size, then lowest vertex) while they fit; the next one, C,
    gives the last ``need`` vertices of its breadth-first order.  Why the
    bound holds:

    * n vertices and n-2 edges give sum(p) = -2, and p >= -1, so at least
      two components are trees and every prefix of two or more components
      in this order has sum(p) <= -2;
    * the smallest tree has at most l vertices, so it is always taken whole;
    * the uncolored part of C is a BFS prefix, connected because each
      vertex's parent comes before it, so it keeps >= |C| - need - 1 edges;
    * so the zeros touch at most l + 1 + sum(p, whole components) + p(C)
      <= l - 1 edges (l + sum(p, whole components) if none is split).
    """
    n = c.n
    l = (n - 1) // 2
    comps = sorted(
        omission_components(c),
        key=lambda comp: (len(comp[1]) - len(comp[0]), len(comp[0]), comp[0][0]),
    )
    smallest, smallest_edges = comps[0]
    if len(smallest_edges) != len(smallest) - 1 or len(smallest) > l:
        raise RuntimeError(
            "component accounting failed: the smallest component should be "
            f"a tree of at most {l} vertices"
        )
    zeros: set[int] = set()
    for vertices, _ in comps:
        need = l - len(zeros)
        if need == 0:
            break
        zeros.update(vertices[-need:])  # all of it, or its BFS tail
    return Assignment(tuple(0 if v in zeros else 1 for v in range(1, n + 1)))
