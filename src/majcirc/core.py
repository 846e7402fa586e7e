"""Layered threshold circuits over boolean variables.

A gate fires when a weighted sum of its inputs reaches an integer threshold.
Weights are positive integers, so every gate (and every circuit built from
them) is monotone.  Circuits are organized in layers: gates in layer 1 read
the input variables, gates in layer d read the outputs of layer d-1, and a
single designated top gate produces the circuit output.

Index conventions.  Gate input references are 0-based positions into the
layer below (for layer 1, position i means variable number i+1).  Variable
numbers in the public API and in the text format are 1-based, matching the
usual x1..xn naming.

Shared supports.  A gate's check stores its inputs as a sorted tuple and
records their weighted fan-in and largest weight on the gate.
ThresholdGate.with_theta makes a gate at another threshold on the same
inputs object, with the same record and no second check.  So gates that
read one support (a block circuit has n/p distinct layer-1 supports among
its thousands of gates) share one inputs object, loading, checking and
serializing a circuit cost work per distinct support, not per gate, and
fan-in bounds are read, never recomputed.  The check reads the positions
and weights as whole columns with builtins (zip, set, min, sum, max),
converting with int() only inputs that hold a value of another type, and
walks the pairs one by one only to name the first bad one.

Parsing.  parse_circuit matches only the short head of each gate line
(gate d:id theta t).  Each distinct body of a layer gets one pattern check
and one conversion of all its numbers; the token-by-token reader, which
names every error in a body, runs only for a body that fails the check.
Each variable's position is made once per parse, so the gates that read
a variable share one int.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

MAX_VARS = 10**6


class CircuitError(ValueError):
    """A structurally invalid gate or circuit."""


class CircuitParseError(CircuitError):
    """Unparseable circuit text; carries the offending 1-based line number."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


def standard_theta(fanin: int) -> int:
    """Threshold of a standard majority gate: least integer >= fanin/2."""
    return (fanin + 1) // 2


def majority_threshold(n: int) -> int:
    """Number of ones needed for the n-bit majority function to output 1."""
    return (n + 1) // 2


@dataclass(frozen=True, slots=True)
class ThresholdGate:
    """[sum of weight*input >= theta] over distinct input positions.

    ``inputs`` holds (position, weight) pairs; positions are 0-based indices
    into the layer below and may not repeat (a repeat is expressed by its
    weight).  theta may be any integer: theta <= 0 gives a constant-1 gate
    and theta > fanin a constant-0 gate, both occasionally useful as
    degenerate cases.  The check records ``fanin``, the total fan-in
    counting weights (a weight-w wire counts w times), and ``max_weight``.
    """

    inputs: tuple[tuple[int, int], ...]
    theta: int
    fanin: int = field(init=False, compare=False, repr=False)
    max_weight: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        pairs = tuple(self.inputs)
        if not pairs:
            raise CircuitError("gate has no inputs")
        positions, weights = zip(*pairs, strict=True)
        # pairs other than tuples of two ints are converted, as int() reads them
        types = {*map(type, positions), *map(type, weights)}
        if {*map(type, pairs)} != {tuple} or types != {int}:
            pairs = [(int(p), int(w)) for p, w in pairs]
            positions, weights = zip(*pairs)
        pairs = sorted(pairs)
        if min(positions) < 0 or len(set(positions)) < len(pairs) or min(weights) < 1:
            # name the first bad pair in sorted order
            seen = set()
            for p, w in pairs:
                if p < 0:
                    raise CircuitError(f"negative input position {p}")
                if p in seen:
                    raise CircuitError(f"duplicate input position {p}")
                seen.add(p)
                if w < 1:
                    raise CircuitError(f"non-positive weight {w} on position {p}")
        object.__setattr__(self, "inputs", tuple(pairs))
        object.__setattr__(self, "theta", int(self.theta))
        object.__setattr__(self, "fanin", sum(weights))
        object.__setattr__(self, "max_weight", max(weights))

    def with_theta(self, theta: int) -> ThresholdGate:
        """This gate at threshold theta: the same inputs object and recorded
        bounds, without a second check."""
        gate = object.__new__(ThresholdGate)
        object.__setattr__(gate, "inputs", self.inputs)
        object.__setattr__(gate, "theta", int(theta))
        object.__setattr__(gate, "fanin", self.fanin)
        object.__setattr__(gate, "max_weight", self.max_weight)
        return gate

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.inputs)

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(w for _, w in self.inputs)

    def is_standard(self) -> bool:
        return self.theta == standard_theta(self.fanin)


def majority_gate(refs: Iterable[int]) -> ThresholdGate:
    """Standard majority over a multiset of 0-based positions.

    Repeated positions turn into weights, and the threshold is the standard
    one for the total fan-in (multiplicities included).
    """
    counts: dict[int, int] = {}
    for r in refs:
        counts[r] = counts.get(r, 0) + 1
    fanin = sum(counts.values())
    return ThresholdGate(tuple(sorted(counts.items())), standard_theta(fanin))


def majority_gate_over_vars(var_ids: Iterable[int]) -> ThresholdGate:
    """Like majority_gate but takes 1-based variable numbers."""
    return majority_gate(v - 1 for v in var_ids)


@dataclass(frozen=True)
class Assignment:
    """An immutable 0/1 assignment to x1..xn; bits[i] is the value of x(i+1)."""

    bits: tuple[int, ...]
    weight: int = field(init=False, compare=False)

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("assignment bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "weight", sum(bits))

    @property
    def n(self) -> int:
        return len(self.bits)

    @classmethod
    def zeros(cls, n: int) -> "Assignment":
        return cls((0,) * n)

    @classmethod
    def from_ones(cls, n: int, ones: Iterable[int]) -> "Assignment":
        """Build from 1-based positions of the one-bits."""
        bits = [0] * n
        for i in ones:
            if not 1 <= i <= n:
                raise IndexError(f"variable index {i} out of range 1..{n}")
            bits[i - 1] = 1
        return cls(tuple(bits))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def flip(a: Assignment, i: int) -> Assignment:
    """Return a with variable xi toggled (i is 1-based)."""
    if not 1 <= i <= a.n:
        raise IndexError(f"variable index {i} out of range 1..{a.n}")
    bits = list(a.bits)
    bits[i - 1] ^= 1
    return Assignment(tuple(bits))


def majority_value(a: Assignment) -> int:
    """The majority function itself: 1 iff at least half the bits are ones."""
    return int(a.weight >= majority_threshold(a.n))


def majority_diff(a: Assignment) -> int:
    """Signed margin of the majority function, weight minus its threshold."""
    return a.weight - majority_threshold(a.n)


def gate_diff(gate: ThresholdGate, values: Sequence[int]) -> int:
    """Signed margin of a gate: weighted input sum minus theta.

    values is indexed by input position (the layer below).  The gate fires
    exactly when the returned margin is >= 0.
    """
    return sum(w * values[p] for p, w in gate.inputs) - gate.theta


def eval_gate(gate: ThresholdGate, values: Sequence[int]) -> int:
    return int(gate_diff(gate, values) >= 0)


@dataclass(frozen=True)
class LayeredCircuit:
    """A depth-1..3 layered threshold circuit with a declared fan-in bound k.

    layers[0] reads the n input variables; layers[d] reads layers[d-1].
    ``top`` is an index into the last layer.  Every gate must respect the
    fan-in bound (weighted), and every input reference must resolve in the
    layer directly below.
    """

    n: int
    k: int
    layers: tuple[tuple[ThresholdGate, ...], ...]
    top: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VARS:
            raise CircuitError(f"variable count {self.n} out of range 1..{MAX_VARS}")
        if self.k < 1:
            raise CircuitError(f"fan-in bound {self.k} must be positive")
        layers = tuple(tuple(layer) for layer in self.layers)
        if not 1 <= len(layers) <= 3:
            raise CircuitError(f"depth {len(layers)} out of range 1..3")
        width_below = self.n
        for d, layer in enumerate(layers, start=1):
            if not layer:
                raise CircuitError(f"layer {d} is empty")
            for g, gate in enumerate(layer):
                if gate.fanin > self.k:
                    raise CircuitError(
                        f"gate {d}:{g} fan-in {gate.fanin} exceeds bound k={self.k}"
                    )
                hi = gate.inputs[-1][0]  # inputs are sorted by position
                if hi >= width_below:
                    raise CircuitError(
                        f"gate {d}:{g} references position {hi} but layer below "
                        f"has width {width_below}"
                    )
            width_below = len(layer)
        if not 0 <= self.top < len(layers[-1]):
            raise CircuitError(f"top index {self.top} out of range for last layer")
        object.__setattr__(self, "layers", layers)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def top_gate(self) -> ThresholdGate:
        return self.layers[-1][self.top]

    def gates(self) -> Iterator[tuple[int, int, ThresholdGate]]:
        """Yield (layer number 1-based, index in layer, gate)."""
        for d, layer in enumerate(self.layers, start=1):
            for g, gate in enumerate(layer):
                yield d, g, gate


def with_top(
    n: int, layers: Sequence[Sequence[ThresholdGate]], theta: int | None = None
) -> LayeredCircuit:
    """The layers under one top gate that reads each gate of the last layer
    once, at theta, or at the standard majority threshold when theta is
    None.  k is the largest fan-in of any gate."""
    width = len(layers[-1])
    if theta is None:
        theta = standard_theta(width)
    layers = (*map(tuple, layers), (ThresholdGate(tuple((g, 1) for g in range(width)), theta),))
    k = max(g.fanin for layer in layers for g in layer)
    return LayeredCircuit(n=n, k=k, layers=layers, top=0)


@dataclass(frozen=True)
class CircuitStats:
    n: int
    k: int
    depth: int
    gate_count: int
    max_fanin: int
    max_weight: int
    all_standard: bool


def inspect_circuit(c: LayeredCircuit) -> CircuitStats:
    gates = [g for _, _, g in c.gates()]
    return CircuitStats(
        n=c.n,
        k=c.k,
        depth=c.depth,
        gate_count=len(gates),
        max_fanin=max(g.fanin for g in gates),
        max_weight=max(g.max_weight for g in gates),
        all_standard=all(g.is_standard() for g in gates),
    )


def eval_layers(c: LayeredCircuit, a: Assignment) -> list[tuple[int, ...]]:
    """Evaluate every gate, returning one output tuple per layer."""
    if a.n != c.n:
        raise ValueError(f"assignment has {a.n} bits, circuit expects {c.n}")
    values: Sequence[int] = a.bits
    out: list[tuple[int, ...]] = []
    for layer in c.layers:
        values = tuple(eval_gate(g, values) for g in layer)
        out.append(values)
    return out


def eval_circuit(c: LayeredCircuit, a: Assignment) -> int:
    return eval_layers(c, a)[-1][c.top]


# ---------------------------------------------------------------------------
# Text format
#
#   majcirc 1
#   n 7 k 5 depth 2
#   gate 1:0 theta 3 : x1*1 x2*1 x3*1 x4*1 x5*1
#   gate 2:0 theta 3 : g1:0*1 g1:1*1 g1:2*1 g1:3*1 g1:4*1
#   top g2:0
#
# One construct per line; '#' starts a comment.  Gate ids are arbitrary
# integers unique within their layer and are remapped to positional indices
# in file order.  References name either variables (x<i>, 1-based) for layer
# 1 or gates of the layer directly below (g<layer-1>:<id>).  Weights are
# explicit, and a reference may appear at most once per gate line.
# ---------------------------------------------------------------------------

_MAGIC = "majcirc 1"
_REF_RE = re.compile(r"^(x(\d+)|g(\d+):(\d+))\*(-?\d+)$")
_GATE_HEAD_RE = re.compile(r"gate (\d+):(\d+) theta (-?\d+)")
# numbers in the bodies parse reads in one pass: ASCII digits, no sign and
# at most 18 of them, so every number fits an int64; weights start at 1
_REF_NUMBER = "[0-9]{1,18}"
_WEIGHT = "[1-9][0-9]{0,17}"
# characters of text that parse_circuit splits into lines at once
_LINE_BLOCK = 1 << 16


def serialize_circuit(c: LayeredCircuit) -> str:
    # the text is joined once from pieces, each distinct body formatted once
    parts = [f"{_MAGIC}\nn {c.n} k {c.k} depth {c.depth}\n"]
    for d, layer in enumerate(c.layers, start=1):
        bodies: dict[int, str] = {}  # id of a shared inputs object -> its text
        for g, gate in enumerate(layer):
            refs = bodies.get(id(gate.inputs))
            if refs is None:
                refs = bodies[id(gate.inputs)] = " ".join(
                    (f"x{p + 1}*{w}" if d == 1 else f"g{d - 1}:{p}*{w}")
                    for p, w in gate.inputs
                ) + "\n"
            parts += (f"gate {d}:{g} theta {gate.theta} : ", refs)
    parts.append(f"top g{c.depth}:{c.top}\n")
    return "".join(parts)


def _parse_header(line_no: int, line: str) -> tuple[int, int, int]:
    m = re.fullmatch(r"n (\d+) k (\d+) depth (\d+)", line)
    if not m:
        raise CircuitParseError(line_no, f"bad header {line!r}")
    return int(m.group(1)), int(m.group(2)), int(m.group(3))


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, text without its comment and outer whitespace) of each
    line that keeps any, numbered as by str.splitlines.  The text is split
    one block of about _LINE_BLOCK characters at a time, cut after a
    newline, so memory holds one block's lines and not the whole list."""
    no = start = 0
    while start < len(text):
        end = text.find("\n", start + _LINE_BLOCK) + 1 or len(text)
        for no, raw in enumerate(text[start:end].splitlines(), no + 1):
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                yield no, stripped
        start = end


def _token_inputs(
    no: int, d: int, n: int, body: str, below: dict[int, int]
) -> list[tuple[int, int]]:
    """The (position, weight) pairs of a layer-d gate body, read one
    whitespace-separated token at a time; below maps the gate ids of layer
    d-1 to their positions.  Every parse error in a body is named here."""
    inputs = []
    for tok in body.split():
        m = _REF_RE.fullmatch(tok)
        if not m:
            raise CircuitParseError(no, f"bad input reference {tok!r}")
        if m.group(2) is not None:
            if d != 1:
                raise CircuitParseError(
                    no, f"layer {d} gate may only reference layer {d - 1} gates"
                )
            v = int(m.group(2))
            if not 1 <= v <= n:
                raise CircuitParseError(no, f"variable x{v} out of range 1..{n}")
            pos = v - 1
        else:
            ref_layer, ref_id = int(m.group(3)), int(m.group(4))
            if d == 1:
                raise CircuitParseError(no, "layer 1 gate may only reference variables")
            if ref_layer != d - 1:
                raise CircuitParseError(
                    no, f"layer {d} gate may only reference layer {d - 1} gates"
                )
            if ref_id not in below:
                raise CircuitParseError(no, f"dangling reference g{ref_layer}:{ref_id}")
            pos = below[ref_id]
        inputs.append((pos, int(m.group(5))))
    return inputs


class _VariablePositions(dict):
    """Position v - 1 of each variable x<v> in 1..n, added on its first
    lookup, so the gates that read a variable share one int object; a
    number outside 1..n raises KeyError."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, v: int) -> int:
        if not 1 <= v <= self.n:
            raise KeyError(v)
        self[v] = v - 1
        return v - 1


def _bulk_inputs(
    body: str, pattern: re.Pattern, prefix: str, positions: Mapping[int, int]
) -> tuple[tuple[int, int], ...] | None:
    """The (position, weight) pairs of a body that pattern admits and whose
    references all resolve in positions, read in one pass; None for any
    other body, which _token_inputs then reads.  pattern admits only
    references prefix<number>*<weight> joined by single spaces, so one
    int64 conversion of the whole body reads every number as int() would."""
    if not pattern.fullmatch(body):
        return None
    nums = np.fromstring(body.replace(prefix, "").replace("*", " "), dtype=np.int64, sep=" ")
    try:
        return tuple(zip(map(positions.__getitem__, nums[0::2].tolist()), nums[1::2].tolist()))
    except LookupError:
        return None


def parse_circuit(text: str) -> LayeredCircuit:
    """Parse the text format back into a circuit.

    The parser checks the text itself: syntax, the header, gate layers and
    ids, and that every reference resolves.  A gate line is split once at
    " : " and its short head matched; each distinct body of a layer is
    checked against one pattern and its numbers converted in one pass, and
    only a body that fails the check (other spacing or digits, a sign, a
    reference that does not resolve) is read token by token, the one place
    that names an error in a body.  Each gate is then built as a
    ThresholdGate, whose CircuitError (no inputs, repeated input, weight
    below 1) comes back as a CircuitParseError with the gate's line number.
    Circuit checks, such as fan-in over the declared bound k, come from
    LayeredCircuit as a plain CircuitError.
    """
    lines = _content_lines(text)
    no, magic = next(lines, (1, None))
    if magic is None:
        raise CircuitParseError(no, "empty input")
    if magic != _MAGIC:
        raise CircuitParseError(no, f"expected {_MAGIC!r}, got {magic!r}")
    header_no, header = next(lines, (no, None))
    if header is None:
        raise CircuitParseError(no, "missing header line")
    n, k, depth = _parse_header(header_no, header)

    # Per layer, each gate id's position and each gate line's (line number,
    # theta, body).  A gate's position in its layer is the order of its line
    # in the file, so lines may come in any order across layers.
    ids: dict[int, dict[int, int]] = {}
    rows: dict[int, list[tuple[int, int, str]]] = {}
    bodies: dict[str, str] = {}
    top_ref: tuple[int, int, int] | None = None
    no = header_no
    for no, line in lines:
        if line.startswith("gate "):
            head, sep, body = line.partition(" : ")
            m = _GATE_HEAD_RE.fullmatch(head)
            if not (sep and m):
                raise CircuitParseError(no, f"bad gate line {line!r}")
            d, gid = int(m.group(1)), int(m.group(2))
            if not 1 <= d <= depth:
                raise CircuitParseError(no, f"gate layer {d} out of range 1..{depth}")
            layer = ids.setdefault(d, {})
            if gid in layer:
                raise CircuitParseError(no, f"duplicate gate id {d}:{gid}")
            layer[gid] = len(layer)
            body = bodies.setdefault(body, body)  # one copy of a repeated body
            rows.setdefault(d, []).append((no, int(m.group(3)), body))
        elif line.startswith("top "):
            m = re.fullmatch(r"top g(\d+):(\d+)", line)
            if not m:
                raise CircuitParseError(no, f"bad top line {line!r}")
            if top_ref is not None:
                raise CircuitParseError(no, "duplicate top line")
            top_ref = (no, int(m.group(1)), int(m.group(2)))
        else:
            raise CircuitParseError(no, f"unrecognized line {line!r}")
    last_no = no

    layers: list[tuple[ThresholdGate, ...]] = []
    for d in range(1, depth + 1):
        if d not in rows:
            raise CircuitParseError(header_no, f"layer {d} has no gates")
        below = ids.get(d - 1, {})
        prefix, positions = ("x", _VariablePositions(n)) if d == 1 else (f"g{d - 1}:", below)
        ref = f"{prefix}{_REF_NUMBER}\\*{_WEIGHT}"
        pattern = re.compile(f"{ref}(?: {ref})*")
        gates = []
        # body text -> the first gate built from it, whose inputs the gates
        # that repeat the body share.  A body is kept only once its gate is
        # built, so a bad body fails on the first line that carries it.
        parsed: dict[str, ThresholdGate] = {}
        for no, theta, body in rows[d]:
            shared = parsed.get(body)
            if shared is not None:
                gates.append(shared.with_theta(theta))
                continue
            inputs = _bulk_inputs(body, pattern, prefix, positions)
            if inputs is None:
                inputs = _token_inputs(no, d, n, body, below)
            try:
                gate = ThresholdGate(inputs, theta)
            except CircuitError as e:
                raise CircuitParseError(no, str(e)) from None
            parsed[body] = gate
            gates.append(gate)
        layers.append(tuple(gates))

    if top_ref is None:
        raise CircuitParseError(last_no, "missing top line")
    no, top_layer, top_id = top_ref
    if top_layer != depth:
        raise CircuitParseError(no, f"top must name a layer {depth} gate")
    top = ids.get(depth, {}).get(top_id)
    if top is None:
        raise CircuitParseError(no, f"dangling top reference g{top_layer}:{top_id}")
    return LayeredCircuit(n=n, k=k, layers=tuple(layers), top=top)
