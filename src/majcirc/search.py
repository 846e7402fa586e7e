"""Synthesis of depth-2 bounded-fan-in majority circuits, and a constructive
refutation for the fan-in n-2 family.

Two independent engines look for a circuit of k weight-k bottom threshold
gates under a fixed standard-majority top gate:

* a CNF encoding handed to a DIMACS SAT solver, external or the built-in
  majcirc.sat (selector variables per gate/variable/multiplicity level,
  sequential-counter cardinality, unary comparisons per critical input),
  plus a decoder that rebuilds the circuit from a model and always
  re-verifies it on all inputs.  Clauses are held as one int32 matrix, a
  clause per row padded with 0.  The inputs of one critical layer get the
  same block of clauses up to the selectors they read and where their
  own variables start, so each layer records one block over placeholder
  selectors and numpy replicates it; the DIMACS bytes are those of
  building every clause on its own;
* a backtracking enumerator over lexicographically non-decreasing gate rows
  with minterm/maxterm pruning.

Because every candidate circuit is monotone, correctness on all minterms
and maxterms of the majority implies correctness everywhere, so both
engines constrain only these two critical layers (_critical_layers).

The last section builds, for any depth-2 circuit of n-2 standard majority
gates over n-2 distinct variables each, an explicit minterm the circuit
gets wrong: gates correspond to edges of a multigraph on the variables
(each gate contributes the pair it omits), and a careful coloring of
(n-1)/2 vertices leaves too few gates firing.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from itertools import chain, combinations, product
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import (
    Assignment,
    LayeredCircuit,
    ThresholdGate,
    majority_gate,
    majority_threshold,
    standard_theta,
)
from .verify import verify_all

DEFAULT_CLAUSE_CAP = 5_000_000
DEFAULT_SPACE_CAP = 10**9
# clause rows formatted per write in CnfInstance.write_dimacs
_DIMACS_BATCH = 2**16

# solver executables probed on PATH, in order, when none is configured
SOLVER_CANDIDATES = ("varisat", "kissat", "cadical", "cryptominisat5", "glucose", "minisat")
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
    """A decoded circuit failed verification: the encoding itself is wrong."""


class SolverError(RuntimeError):
    """The SAT solver produced no usable verdict."""


@dataclass(frozen=True)
class SearchSpaceSpec:
    """The space of candidate circuits: k bottom gates, each a threshold
    gate of total weight exactly k over the n variables with per-variable
    multiplicity at most multiplicity_max, under a fixed standard-majority
    top gate reading all k bottom gates.

    standard_thresholds pins every bottom threshold to ceil((k+1)/2)... the
    least majority threshold for weight k; switching it off adds the
    threshold itself (1..k per gate) to the search.  multiplicity_max=1
    forbids repeated variables.  symmetry_breaking orders the gate rows.
    Every candidate is monotone, so the search constrains only the two
    critical weight layers, and decode re-verifies on all 2^n inputs.
    """

    n: int
    k: int
    multiplicity_max: int = 2
    standard_thresholds: bool = True
    symmetry_breaking: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.multiplicity_max < 1:
            raise ValueError("multiplicity_max must be at least 1")

    @property
    def theta(self) -> int:
        """Bottom-gate threshold in standard mode."""
        return standard_theta(self.k)

    @property
    def theta_top(self) -> int:
        return standard_theta(self.k)


def _critical_layers(n: int) -> list[tuple[np.ndarray, int]]:
    """(ones, required output) per critical weight layer: the minterms
    (weight ceil(n/2), output 1), then the maxterms (one lighter, output
    0).  ones holds each input's one-positions as a row, in combinations
    order."""
    out = []
    for w, value in ((majority_threshold(n), 1), (majority_threshold(n) - 1, 0)):
        count = math.comb(n, w)
        flat = chain.from_iterable(combinations(range(n), w))
        ones = np.fromiter(flat, dtype=np.intp, count=count * w).reshape(count, w)
        out.append((ones, value))
    return out


# -- CNF construction -------------------------------------------------------


class _CnfBuilder:
    """Fresh variables after num_vars, and the clauses added since the last
    take()."""

    def __init__(self, num_vars: int = 0):
        self.num_vars = num_vars
        self.clauses: list[tuple[int, ...]] = []

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add(self, *lits: int) -> None:
        self.clauses.append(lits)

    def take(self) -> np.ndarray:
        """The pending clauses as a 0-padded int32 matrix, one per row."""
        rows, self.clauses = self.clauses, []
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        out = np.zeros((len(rows), int(lengths.max(initial=0))), dtype=np.int32)
        out[np.arange(out.shape[1]) < lengths[:, None]] = np.fromiter(
            chain.from_iterable(rows), dtype=np.int32
        )
        return out


def _replicate(block: np.ndarray, base: int, slots: np.ndarray, nvars: int) -> np.ndarray:
    """One copy of a recorded block per row of slots, stacked.

    The block was recorded with codes: up to base the real variables, then
    slots.shape[1] placeholders that copy a takes from its row of slots,
    then the block's own nvars variables, which copy a moves to
    base + a*nvars + 1 onwards.
    """
    count, width = slots.shape
    table = np.empty((count, 1 + width + nvars), dtype=np.int32)
    table[:, 0] = 0
    table[:, 1 : 1 + width] = slots
    table[:, 1 + width :] = (
        base + nvars * np.arange(count, dtype=np.int32)[:, None]
        + np.arange(1, nvars + 1, dtype=np.int32)
    )
    mag = np.abs(block)
    fixed = mag <= base
    out = table[:, np.where(fixed, 0, mag - base)]
    np.copyto(out, mag, where=fixed)
    out *= np.sign(block)
    return out.reshape(-1, block.shape[1])


def _counter_cells(b: _CnfBuilder, lits: Sequence[int], qmax: int) -> list[int]:
    """Sequential counter over lits, returning final cells where cells[q-1]
    is equivalent to (at least q of lits are true), for q = 1..min(len, qmax).

    Both implication directions are emitted, so each cell is an exact
    cardinality predicate rather than a one-sided relaxation.
    """
    prev: list[int] = []
    for r, x in enumerate(lits, start=1):
        cur = [b.new_var() for _ in range(min(r, qmax))]
        for q in range(1, len(cur) + 1):
            cq = cur[q - 1]
            up = prev[q - 1] if q - 1 < len(prev) else None
            if q == 1:
                # c[r][1] <-> c[r-1][1] or x
                b.add(-x, cq)
                if up is not None:
                    b.add(-up, cq)
                    b.add(-cq, up, x)
                else:
                    b.add(-cq, x)
            else:
                # c[r][q] <-> c[r-1][q] or (c[r-1][q-1] and x)
                diag = prev[q - 2]
                b.add(-diag, -x, cq)
                if up is not None:
                    b.add(-up, cq)
                    b.add(-cq, up, diag)
                    b.add(-cq, up, x)
                else:
                    b.add(-cq, diag)
                    b.add(-cq, x)
        prev = cur
    return prev


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
    len(clauses) is the clause count and width the longest clause.  The
    per_assignment rows are one recorded block per critical layer,
    replicated with numpy over the layer's inputs; write_dimacs writes
    the same bytes as emitting every clause on its own.  sections counts
    the clauses of each part of the encoding, in file order: ladders,
    exactly_k, per_assignment and symmetry.
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
        """Write the DIMACS file, _DIMACS_BATCH clause rows per format call,
        so the transient Python ints stay bounded by the batch, not the
        clause count."""
        templates = ["%d " * length + "0\n" for length in range(self.clauses.shape[1] + 1)]
        with open(path, "w") as fh:
            fh.write(f"p cnf {self.num_vars} {len(self.clauses)}\n")
            for lo in range(0, len(self.clauses), _DIMACS_BATCH):
                batch = self.clauses[lo : lo + _DIMACS_BATCH]
                lengths = np.count_nonzero(batch, axis=1).tolist()
                fmt = "".join([templates[length] for length in lengths])
                fh.write(fmt % tuple(batch[batch != 0].tolist()))

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


def estimate_clauses(spec: SearchSpaceSpec) -> int:
    """Upper estimate of the clause count encode would produce."""
    n, k, mult = spec.n, spec.k, spec.multiplicity_max
    length = n * mult
    est = k * n * (mult - 1)  # selector ladders
    est += k * (_counter_cost(length, k + 1) + 2)  # exactly-k
    if not spec.standard_thresholds:
        est += k * k  # threshold ladders and floor units
    for w in (majority_threshold(n), majority_threshold(n) - 1):
        count = math.comb(n, w)
        r = w * mult
        qmax = spec.theta if spec.standard_thresholds else min(k, r)
        per_gate = _counter_cost(r, qmax) + (2 if spec.standard_thresholds else 2 * k)
        est += count * (k * per_gate + _counter_cost(k, spec.theta_top) + 1)
    if spec.symmetry_breaking and k >= 2:
        est += (k - 1) * 3 * length
    return est


def encode(spec: SearchSpaceSpec, clause_cap: int = DEFAULT_CLAUSE_CAP) -> CnfInstance:
    """Build the CNF for the space.

    Satisfiable exactly when some circuit in the space agrees with the
    majority on both critical layers, which means computing it on all
    inputs, since candidates are monotone.  Refuses with an estimate when
    the projected clause count exceeds clause_cap.
    """
    est = estimate_clauses(spec)
    if est > clause_cap:
        raise SpaceTooLarge(
            f"encoding estimated at {est} clauses, over the cap {clause_cap}", est
        )
    n, k, mult = spec.n, spec.k, spec.multiplicity_max
    b = _CnfBuilder()

    # selector variables first so the varmap occupies the low ids
    sel: dict[tuple[int, int, int], int] = {}
    for g in range(k):
        for i in range(n):
            for j in range(1, mult + 1):
                sel[(g, i, j)] = b.new_var()
    thr: dict[tuple[int, int], int] = {}
    if not spec.standard_thresholds:
        for g in range(k):
            for q in range(1, k + 1):
                thr[(g, q)] = b.new_var()

    # multiplicity ladders: carrying level j implies carrying level j-1
    for g in range(k):
        for i in range(n):
            for j in range(2, mult + 1):
                b.add(-sel[(g, i, j)], sel[(g, i, j - 1)])
    # threshold ladders, thresholds at least 1
    for g in range(k):
        if not spec.standard_thresholds:
            for q in range(2, k + 1):
                b.add(-thr[(g, q)], thr[(g, q - 1)])
            b.add(thr[(g, 1)])
    ladders = b.take()

    def gate_lits(g: int) -> list[int]:
        return [sel[(g, i, j)] for i in range(n) for j in range(1, mult + 1)]

    # total weight exactly k per gate
    for g in range(k):
        lits = gate_lits(g)
        cells = _counter_cells(b, lits, min(k + 1, len(lits)))
        if k > len(lits):
            # a row of weight k does not exist in this space
            v = b.new_var()
            b.add(v)
            b.add(-v)
        else:
            b.add(cells[k - 1])
            if k + 1 <= len(cells):
                b.add(-cells[k])
    exactly_k = b.take()

    # per-input gate outputs and the fixed top majority.  The blocks of one
    # critical layer differ only in the selectors they read and where their
    # own variables start, so the layer records one block over placeholder
    # selectors and replicates it.
    sel_ids = np.array(list(sel.values()), dtype=np.int32).reshape(k, n, mult)
    theta = spec.theta
    per_assignment = []
    for ones, value in _critical_layers(n):
        w = ones.shape[1]
        base = b.num_vars
        blk = _CnfBuilder(base + k * w * mult)
        # placeholder[g] stands for gate g's selectors of the input's
        # ones, by one-position then level
        placeholder = np.arange(base + 1, blk.num_vars + 1).reshape(k, w * mult).tolist()
        outs = []
        for g in range(k):
            lits = placeholder[g]
            o = blk.new_var()
            outs.append(o)
            if spec.standard_thresholds:
                if len(lits) < theta:
                    blk.add(-o)
                else:
                    cells = _counter_cells(blk, lits, theta)
                    blk.add(-o, cells[theta - 1])
                    blk.add(o, -cells[theta - 1])
            else:
                cells = _counter_cells(blk, lits, min(k, len(lits)))
                for q in range(1, k + 1):
                    tq = thr[(g, q)]
                    if q <= len(cells):
                        # fires -> sum reaches every level up to the threshold
                        blk.add(-o, -tq, cells[q - 1])
                        # threshold exactly q and sum short of q -> silent
                        above = [thr[(g, q + 1)]] if q + 1 <= k else []
                        blk.add(o, -tq, *above, -cells[q - 1])
                    else:
                        blk.add(-o, -tq)
        top = _counter_cells(blk, outs, spec.theta_top)
        if value:
            blk.add(top[spec.theta_top - 1])
        else:
            blk.add(-top[spec.theta_top - 1])
        nvars = blk.num_vars - base - k * w * mult
        slots = sel_ids[:, ones, :].transpose(1, 0, 2, 3).reshape(len(ones), -1)
        per_assignment.append(_replicate(blk.take(), base, slots, nvars))
        b.num_vars += len(ones) * nvars

    # rows in lexicographically non-decreasing order over the flattened
    # selector vectors; sound because the top gate is symmetric in the rows
    if spec.symmetry_breaking and k >= 2:
        for g in range(k - 1):
            a, c = gate_lits(g), gate_lits(g + 1)
            prefix_eq = None
            for p in range(len(a)):
                ap, cp = a[p], c[p]
                if prefix_eq is None:
                    b.add(-ap, cp)
                else:
                    b.add(-prefix_eq, -ap, cp)
                if p == len(a) - 1:
                    break
                e = b.new_var()
                if prefix_eq is None:
                    b.add(-ap, -cp, e)
                    b.add(ap, cp, e)
                else:
                    b.add(-prefix_eq, -ap, -cp, e)
                    b.add(-prefix_eq, ap, cp, e)
                prefix_eq = e

    symmetry = b.take()

    parts = [ladders, exactly_k, *per_assignment, symmetry]
    clauses = np.zeros(
        (sum(len(m) for m in parts), max(m.shape[1] for m in parts)), dtype=np.int32
    )
    row = 0
    for m in parts:
        clauses[row : row + len(m), : m.shape[1]] = m
        row += len(m)
    sections = {
        "ladders": len(ladders),
        "exactly_k": len(exactly_k),
        "per_assignment": sum(len(m) for m in per_assignment),
        "symmetry": len(symmetry),
    }
    return CnfInstance(spec, b.num_vars, clauses, sel, thr, sections)


# -- models and decoding ----------------------------------------------------


def parse_model_text(text: str) -> tuple[str, list[int] | None]:
    """Extract a verdict and model literals from solver output.

    Understands `s SATISFIABLE` / `s UNSATISFIABLE` verdict lines, `v `
    model lines, bare SAT/UNSAT markers, and raw whitespace-separated
    literal lines terminated by 0.  Returns (status, literals) with status
    one of sat, unsat, unknown.
    """
    status = "unknown"
    lits: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        upper = line.upper()
        if upper.startswith("S "):
            verdict = upper[2:].strip()
            if "UNSAT" in verdict:
                status = "unsat"
            elif "SAT" in verdict:
                status = "sat"
            continue
        if upper in ("SAT", "SATISFIABLE"):
            status = "sat"
            continue
        if upper in ("UNSAT", "UNSATISFIABLE"):
            status = "unsat"
            continue
        if line.startswith(("v", "V")):
            line = line[1:]
        try:
            values = [int(tok) for tok in line.split()]
        except ValueError:
            continue
        lits.extend(v for v in values if v != 0)
    if status == "unknown" and lits:
        status = "sat"
    if status != "sat":
        return status, None
    return status, lits


@dataclass(frozen=True)
class SolverResult:
    status: str
    model: tuple[int, ...] | None


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


def run_solver(
    dimacs_path: str | Path, solver: str | None = None, timeout: float | None = None
) -> SolverResult:
    """Run a DIMACS solver on a file and parse its verdict.

    solver defaults to find_solver(); BUILTIN_SOLVER runs under the current
    interpreter, anything else as an executable.  A verdict in the output
    (an `s` line or a bare marker, see parse_model_text) is trusted first;
    exit code 20 counts as unsatisfiable only when the output claims no
    SAT.  SAT without model literals, or no verdict at all, raises
    SolverError.
    """
    cmd = solver or find_solver()
    argv = [sys.executable, cmd] if cmd == BUILTIN_SOLVER else [cmd]
    proc = subprocess.run(
        argv + [str(dimacs_path)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    status, lits = parse_model_text(proc.stdout)
    if proc.returncode == 20 and status != "sat":
        return SolverResult("unsat", None)
    if status == "sat":
        if not lits:
            raise SolverError(f"{cmd} reported SAT without a model")
        return SolverResult("sat", tuple(lits))
    if status == "unsat":
        return SolverResult("unsat", None)
    raise SolverError(
        f"{cmd} gave no verdict (exit {proc.returncode}); output began: "
        + (proc.stdout or proc.stderr)[:200]
    )


def decode(instance: CnfInstance, model: Iterable[int]) -> LayeredCircuit:
    """Rebuild the circuit a model describes, then verify it.

    The model must assign every selector (and threshold) variable, the
    multiplicity and threshold ladders must be downward closed, and every
    row must weigh exactly k; anything else is a ModelError.  The rebuilt
    circuit is checked against the majority on all inputs before being
    returned; a failure there means the encoding lied and raises
    EncoderBug.
    """
    spec = instance.spec
    assign: dict[int, bool] = {}
    for lit in model:
        if lit == 0:
            continue
        assign[abs(lit)] = lit > 0
    n, k, mult = spec.n, spec.k, spec.multiplicity_max

    def lookup(var: int, what: str) -> bool:
        if var not in assign:
            raise ModelError(f"model does not assign {what} (CNF variable {var})")
        return assign[var]

    rows: list[ThresholdGate] = []
    for g in range(k):
        inputs = []
        weight = 0
        for i in range(n):
            m = 0
            for j in range(1, mult + 1):
                on = lookup(instance.sel[(g, i, j)], f"selector g={g} x{i + 1} j={j}")
                if on:
                    if j != m + 1:
                        raise ModelError(
                            f"selector ladder broken at g={g} x{i + 1} j={j}"
                        )
                    m = j
            if m:
                inputs.append((i, m))
                weight += m
        if weight != k:
            raise ModelError(f"gate {g} carries weight {weight}, expected {k}")
        if spec.standard_thresholds:
            theta = spec.theta
        else:
            theta = 0
            for q in range(1, k + 1):
                if lookup(instance.thr[(g, q)], f"threshold g={g} q={q}"):
                    if q != theta + 1:
                        raise ModelError(f"threshold ladder broken at g={g} q={q}")
                    theta = q
            if theta < 1:
                raise ModelError(f"gate {g} decodes to threshold {theta}")
        rows.append(ThresholdGate(tuple(inputs), theta))

    top = majority_gate(range(k))
    circuit = LayeredCircuit(n=n, k=k, layers=(tuple(rows), (top,)), top=0)
    report = verify_all(circuit)
    if report.errors:
        raise EncoderBug(
            f"decoded circuit disagrees with the majority on {report.errors} "
            f"of {report.total_checked} inputs; the encoding is unsound"
        )
    return circuit


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
    with tempfile.TemporaryDirectory(prefix="majcirc-") as tmp:
        cnf = instance.write_files(tmp if keep_files is None else keep_files)
        return solve_instance(instance, cnf, solver)


def solve_instance(
    instance: CnfInstance, dimacs_path: str | Path, solver: str | None = None
) -> LayeredCircuit | None:
    """Solve the instance's DIMACS file and decode the model.  None when
    unsatisfiable."""
    result = run_solver(dimacs_path, solver)
    if result.status == "unsat":
        return None
    return decode(instance, result.model)


# -- exhaustive engine ------------------------------------------------------


def _candidate_rows(spec: SearchSpaceSpec) -> list[tuple[int, ...]]:
    """All multiplicity vectors of total weight k, in lexicographic order."""
    return [
        vec
        for vec in product(range(spec.multiplicity_max + 1), repeat=spec.n)
        if sum(vec) == spec.k
    ]


def estimate_space(spec: SearchSpaceSpec) -> int:
    """Number of non-decreasing k-tuples of candidate gates, without
    enumerating them.

    The rows, vectors in {0..m}^n summing to k, are counted by
    inclusion-exclusion over the j coordinates forced above m:
    sum_j (-1)^j C(n, j) C(k - j(m+1) + n - 1, n - 1).
    """
    n, k, m = spec.n, spec.k, spec.multiplicity_max
    rows = sum(
        (-1) ** j * math.comb(n, j) * math.comb(k - j * (m + 1) + n - 1, n - 1)
        for j in range(min(n, k // (m + 1)) + 1)
    )
    cands = rows if spec.standard_thresholds else rows * spec.k
    return math.comb(cands + spec.k - 1, spec.k)


def exhaustive_search(
    spec: SearchSpaceSpec, space_cap: int = DEFAULT_SPACE_CAP
) -> LayeredCircuit | None:
    """Backtracking over non-decreasing gate rows; the independent oracle
    for the SAT pipeline.

    Prunes a branch as soon as some minterm cannot reach the top threshold
    even if all remaining gates fire, or some maxterm already reaches it.
    The first complete candidate is verified on all inputs and returned.
    """
    est = estimate_space(spec)
    if est > space_cap:
        raise SpaceTooLarge(
            f"search space estimated at {est} candidates, over the cap {space_cap}",
            est,
        )
    n, k = spec.n, spec.k
    rows = _candidate_rows(spec)
    if spec.standard_thresholds:
        cands = [(vec, spec.theta) for vec in rows]
    else:
        cands = [(vec, theta) for vec in rows for theta in range(1, k + 1)]
    if not cands:
        return None

    layers = _critical_layers(n)
    vecs = np.array([vec for vec, _ in cands], dtype=np.int64)
    # sums[a, c]: candidate c's weight on critical input a
    sums = np.concatenate([vecs[:, ones].sum(axis=2).T for ones, _ in layers])
    minterm = np.concatenate([np.full(len(ones), bool(value)) for ones, value in layers])
    maxterm = ~minterm
    thetas = np.array([theta for _, theta in cands], dtype=np.int64)
    fires = (sums >= thetas[None, :]).astype(np.int32)

    theta_top = spec.theta_top
    counts = np.zeros(len(minterm), dtype=np.int32)
    chosen: list[int] = []

    def feasible(depth: int) -> bool:
        slack = k - depth
        if np.any(counts[minterm] + slack < theta_top):
            return False
        if np.any(counts[maxterm] >= theta_top):
            return False
        return True

    def recurse(start: int, depth: int) -> LayeredCircuit | None:
        nonlocal counts
        if depth == k:
            if np.all(counts[minterm] >= theta_top):
                gates = tuple(
                    ThresholdGate(
                        tuple((i, m) for i, m in enumerate(cands[c][0]) if m),
                        cands[c][1],
                    )
                    for c in chosen
                )
                top = majority_gate(range(k))
                circuit = LayeredCircuit(n=n, k=k, layers=(gates, (top,)), top=0)
                if verify_all(circuit).errors == 0:
                    return circuit
            return None
        for c in range(start, len(cands)):
            counts += fires[:, c]
            chosen.append(c)
            if feasible(depth + 1):
                found = recurse(c, depth + 1)
                if found is not None:
                    return found
            chosen.pop()
            counts -= fires[:, c]
        return None

    return recurse(0, 0)


# -- the fan-in n-2 refutation ----------------------------------------------


@dataclass(frozen=True)
class GraphComponent:
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def p(self) -> int:
        """Edges minus vertices; -1 exactly for trees."""
        return len(self.edges) - len(self.vertices)


@dataclass(frozen=True)
class OmissionGraph:
    """Multigraph on the variables with one edge per bottom gate, joining
    the two variables that gate omits.  Vertices are 1-based."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def components(self) -> tuple[GraphComponent, ...]:
        adj: dict[int, list[int]] = {v: [] for v in range(1, self.n + 1)}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen: set[int] = set()
        comps = []
        for v in range(1, self.n + 1):
            if v in seen:
                continue
            stack, members = [v], set()
            seen.add(v)
            while stack:
                u = stack.pop()
                members.add(u)
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            cedges = tuple(e for e in self.edges if e[0] in members)
            comps.append(GraphComponent(tuple(sorted(members)), cedges))
        return tuple(comps)

    @property
    def p_values(self) -> tuple[int, ...]:
        return tuple(c.p for c in self.components)


def _fooling_preconditions(c: LayeredCircuit) -> list[tuple[int, int]]:
    """Validate the fan-in n-2 shape and return the omitted pair per gate."""
    n = c.n
    if n % 2 == 0:
        raise ValueError("the construction needs an odd number of variables")
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
        if any(w != 1 for _, w in gate.inputs):
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


def omission_graph(c: LayeredCircuit) -> OmissionGraph:
    return OmissionGraph(c.n, tuple(_fooling_preconditions(c)))


def _peel_order(vertices: Sequence[int], edges: Sequence[tuple[int, int]]) -> list[int]:
    """Leaf-peeling order of a tree: repeatedly remove the lowest-index leaf.

    Peeling j < v(T) vertices touches exactly j edges, which is the bound
    the coloring argument needs.
    """
    degree = {v: 0 for v in vertices}
    adj = {v: set() for v in vertices}
    for a, bb in edges:
        adj[a].add(bb)
        adj[bb].add(a)
        degree[a] += 1
        degree[bb] += 1
    alive = set(vertices)
    order = []
    while alive:
        leaf = min(v for v in alive if degree[v] <= 1)
        order.append(leaf)
        alive.discard(leaf)
        for w in adj[leaf]:
            if w in alive:
                degree[w] -= 1
                adj[w].discard(leaf)
    return order


def _spanning_tree(comp: GraphComponent) -> list[tuple[int, int]]:
    """Breadth-first spanning tree from the lowest vertex, neighbours in
    ascending order."""
    adj: dict[int, list[int]] = {v: [] for v in comp.vertices}
    for a, b in comp.edges:
        adj[a].append(b)
        adj[b].append(a)
    for v in adj:
        adj[v].sort()
    root = comp.vertices[0]
    seen = {root}
    queue = [root]
    tree = []
    while queue:
        u = queue.pop(0)
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                tree.append((min(u, w), max(u, w)))
                queue.append(w)
    return tree


def fooling_input(c: LayeredCircuit) -> Assignment:
    """A minterm of the majority on which the circuit outputs 0.

    Applies to depth-2 circuits of exactly n-2 bottom gates, each a
    standard majority of n-2 distinct variables, under a standard majority
    top gate.  Each bottom gate omits two variables; a gate fires on a
    weight-((n+1)/2) assignment exactly when at least one omitted variable
    is 0.  In the multigraph of omitted pairs, components are taken in
    increasing order of p(H) = edges - vertices (ties by size, then lowest
    vertex), whole components first, the last one partially via
    leaf-peeling of its (spanning) tree.  That colors l = (n-1)/2 vertices
    0 while leaving at most l-1 edges with a 0 endpoint, so fewer than the
    required l gates fire and the top gate stays 0.
    """
    graph = omission_graph(c)
    n = c.n
    l = (n - 1) // 2
    comps = sorted(
        graph.components, key=lambda h: (h.p, len(h.vertices), h.vertices[0])
    )
    if comps[0].p != -1 or len(comps[0].vertices) > l:
        raise RuntimeError(
            "component accounting failed: the smallest component should be "
            f"a tree of at most {l} vertices"
        )
    colored: set[int] = set()
    for comp in comps:
        need = l - len(colored)
        if need == 0:
            break
        if len(comp.vertices) <= need:
            colored.update(comp.vertices)
            continue
        # a tree is its own breadth-first spanning tree
        order = _peel_order(comp.vertices, _spanning_tree(comp))
        colored.update(order[:need])
        break
    bits = tuple(0 if v in colored else 1 for v in range(1, n + 1))
    return Assignment(bits)
