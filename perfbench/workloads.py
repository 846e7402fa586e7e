"""The four benchmark workloads.

Each workload builds its circuits or specs in `setup` and round-trips every
circuit through `serialize_circuit` -> `parse_circuit`, as the CLI does, so
the program only ever sees the parsed objects.  `op` makes the timed program
call(s), `check` returns the reasons an op's result is wrong, and `replay`
(verify workloads only) repeats the op's work stage by stage through public
calls so the traced run can split the op's time by module.
"""

from __future__ import annotations

import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np

from majcirc import construct, core, search, verify

# Rows per replayed chunk: the chunk size of the ROADMAP baseline table.
REPLAY_CHUNK = 8192


def derive_seed(*labels) -> int:
    """A 63-bit seed from the workload seed and a label path."""
    digest = hashlib.blake2b(repr(labels).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def _round_trip(circuit, trace):
    with trace.span("core.serialize"):
        text = core.serialize_circuit(circuit)
    with trace.span("core.parse"):
        return core.parse_circuit(text)


def _peak_mb(fn) -> float:
    """Peak bytes numpy and Python allocate while fn runs, in MB."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def layer_chunks(n: int, w: int, chunk: int):
    """All weight-w rows of n bits, in ascending order of their value with x1
    as the most significant bit, `chunk` rows at a time: the chunks exact
    `verify_minmax` evaluates."""
    if n > 31:
        raise ValueError("exact replay supports n up to 31")
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint32)
    ones = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)
    pending = np.empty(0, dtype=np.uint32)
    step = 1 << 20
    for start in range(0, 1 << n, step):
        vals = np.arange(start, min(start + step, 1 << n), dtype=np.uint32)
        pending = np.concatenate([pending, vals[ones[vals & 0xFFFF] + ones[vals >> 16] == w]])
        while len(pending) >= chunk:
            yield ((pending[:chunk, None] >> shifts) & 1).astype(np.uint8)
            pending = pending[chunk:]
    if len(pending):
        yield ((pending[:, None] >> shifts) & 1).astype(np.uint8)


class VerifyWorkload:
    """One verify call per op on one circuit.

    mode is "sampled" (verify_minmax with `samples` per critical layer),
    "agreement" (estimate_agreement with `samples` uniform inputs) or
    "exact" (verify_minmax enumerating both critical layers).
    """

    def __init__(self, name, build, mode, samples, workers, check_workers,
                 reference=None, min_agreement=None):
        self.name = name
        self.build = build  # workload seed -> circuit
        self.mode = mode
        self.samples = samples
        self.workers = workers
        self.check_workers = check_workers
        self.reference = reference  # stored workers=1 report, exact mode only
        self.min_agreement = min_agreement

    def setup(self, seed, workdir, trace):
        with trace.span("construct.build"):
            circuit = self.build(seed)
        return _round_trip(circuit, trace)

    def _layers(self, c):
        w = core.majority_threshold(c.n)
        return [v for v in (w, w - 1) if 0 <= v <= c.n]

    def inputs_per_op(self, c) -> int:
        if self.mode == "sampled":
            return self.samples * len(self._layers(c))
        if self.mode == "agreement":
            return self.samples
        return sum(math.comb(c.n, w) for w in self._layers(c))

    def op(self, c, op_seed, workers, trace):
        if self.mode == "sampled":
            report = verify.verify_minmax(c, samples=self.samples, seed=op_seed, workers=workers)
        elif self.mode == "agreement":
            report = verify.estimate_agreement(c, self.samples, op_seed, workers=workers)
        else:
            report = verify.verify_minmax(c, workers=workers)
        return report.to_json()

    def digest(self, result) -> str:
        return hashlib.sha256(result.encode()).hexdigest()[:16]

    def check(self, c, result) -> list[str]:
        rep = json.loads(result)
        bad = []
        if self.mode == "agreement":
            if rep["total_checked"] != self.samples:
                bad.append(f"checked {rep['total_checked']} inputs, requested {self.samples}")
            agreement = (rep["total_checked"] - rep["errors"]) / max(1, rep["total_checked"])
            if agreement < self.min_agreement:
                bad.append(f"agreement {agreement:.4f} below {self.min_agreement:.4f}")
        else:
            per_layer = {w: self.samples if self.mode == "sampled" else math.comb(c.n, w)
                         for w in self._layers(c)}
            want = {str(w): per_layer[w] for w in sorted(per_layer)}
            if rep["checked_by_weight"] != want:
                bad.append(f"checked {rep['checked_by_weight']}, requested {want}")
            if rep["total_checked"] != sum(per_layer.values()):
                bad.append(f"total_checked {rep['total_checked']}, requested {sum(per_layer.values())}")
            if rep["errors"] or rep["errors_by_weight"]:
                bad.append(f"exact circuit reports {rep['errors']} errors")
        if self.reference is not None and result != self.reference:
            bad.append("report bytes differ from the stored workers=1 reference")
        return bad

    def _replay_chunks(self, c, op_seed):
        """(sampler, None) or, in exact mode, (None, bits) per chunk, in op order."""
        if self.mode == "exact":
            for w in self._layers(c):
                for bits in layer_chunks(c.n, w, REPLAY_CHUNK):
                    yield None, bits
            return
        if self.mode == "sampled":
            for w in self._layers(c):
                for index, start in enumerate(range(0, self.samples, REPLAY_CHUNK)):
                    size = min(REPLAY_CHUNK, self.samples - start)
                    yield (lambda w=w, size=size, index=index:
                           verify.sample_layer_chunk(c.n, w, size, op_seed, index)), None
            return
        for index, start in enumerate(range(0, self.samples, REPLAY_CHUNK)):
            size = min(REPLAY_CHUNK, self.samples - start)
            rng = np.random.Generator(np.random.Philox(key=derive_seed(op_seed, "uniform", index)))
            yield (lambda rng=rng, size=size:
                   rng.integers(0, 2, size=(size, c.n), dtype=np.uint8)), None

    def _prefixes(self, c):
        return [core.LayeredCircuit(c.n, c.k, c.layers[:d], top=0) for d in range(1, c.depth)] + [c]

    def replay(self, c, op_seed, trace):
        """The op's input generation and evaluation, one chunk at a time.

        Layer d's time is the eval_bulk time of the depth-d prefix circuit
        minus that of the depth-(d-1) prefix.  Enumeration in exact mode is
        not replayed; it stays in the residual with tally, merge and
        dispatch.
        """
        prefixes = self._prefixes(c)
        for sampler, bits in self._replay_chunks(c, op_seed):
            if sampler is not None:
                with trace.span("verify.sample"):
                    bits = sampler()
            for d, prefix in enumerate(prefixes, start=1):
                with trace.span(f"verify.eval_prefix{d}"):
                    verify.eval_bulk(prefix, bits)

    def peak_probe(self, c, op_seed) -> dict[str, float]:
        """Peak MB of one chunk's input generation and of its evaluation."""
        sampler, bits = next(iter(self._replay_chunks(c, op_seed)))
        sample_mb = 0.0
        if sampler is not None:
            sample_mb = _peak_mb(sampler)
            bits = sampler()
        return {"verify.sample_peak_mb": sample_mb,
                "verify.eval_peak_mb": _peak_mb(lambda: verify.eval_bulk(c, bits))}

    def layer_metrics(self, c, ops) -> list[dict[str, float]]:
        """Per-op module metrics from the op time and the replay's span totals."""
        rows = self.inputs_per_op(c)
        fanin1 = sum(g.fanin for g in c.layers[0])
        out = []
        for op in ops:
            tot = op["spans"]
            sample = tot.get("verify.sample", (0, 0.0))[1]
            chunks, p1 = tot["verify.eval_prefix1"]
            p2 = tot[f"verify.eval_prefix{c.depth}"][1]
            residual = op["op_s"] - sample - p2
            out.append({
                "verify.sample_s": sample,
                "verify.sample_inputs_per_s": rows / sample if sample else 0.0,
                "verify.eval_l1_s": p1,
                "verify.eval_l2_s": p2 - p1,
                "verify.eval_l1_macs_per_s": rows * fanin1 / p1,
                "verify.residual_s": residual,
                "verify.residual_share": residual / op["op_s"],
                "verify.chunks": chunks,
                "verify.workers": self.workers,
                "verify.inputs_per_s": rows / op["op_s"],
            })
        return out


class SearchPipeline:
    """Encode and write DIMACS for several spaces, decode stand-in solver
    models built from published circuits, sweep small spaces with the
    backtracking engine, and construct fooling inputs for omission circuits.
    """

    workers = 1
    check_workers = None
    replay = None

    def __init__(self, name, encode_nk, multiplicity, decode_tags, exhaustive,
                 fool_ns, fool_per_n, reference):
        self.name = name
        self.encode_nk = encode_nk
        self.multiplicity = multiplicity
        self.decode_tags = decode_tags
        self.exhaustive = exhaustive  # (n, k, multiplicity_max) per space
        self.fool_ns = fool_ns
        self.fool_per_n = fool_per_n
        self.reference = reference  # {"encode": {"n,k": [vars, clauses]}, "exhaustive": {"n,k,m": found}}

    def setup(self, seed, workdir, trace):
        with trace.span("construct.build"):
            specs = [search.SearchSpaceSpec(n=n, k=k, multiplicity_max=self.multiplicity)
                     for n, k in self.encode_nk]
            small = [search.SearchSpaceSpec(n=n, k=k, multiplicity_max=m) for n, k, m in self.exhaustive]
            published = [construct.published_circuit(tag) for tag in self.decode_tags]
            omission = [construct.omission_circuit(n, construct.random_omission_pairs(
                            n, derive_seed(seed, "omission", n, i)))
                        for n in self.fool_ns for i in range(self.fool_per_n)]
        return {
            "specs": specs,
            "small": small,
            "published": [_round_trip(c, trace) for c in published],
            "omission": [_round_trip(c, trace) for c in omission],
            "workdir": Path(workdir),
        }

    def inputs_per_op(self, state) -> int:
        return 0

    @staticmethod
    def _model(instance, circuit) -> list[int]:
        """A full model asserting exactly the circuit's selector levels."""
        on = {instance.sel[(g, i, j)]
              for g, gate in enumerate(circuit.layers[0])
              for i, m in gate.inputs for j in range(1, m + 1)}
        return [v if v in on else -v for v in range(1, instance.num_vars + 1)]

    def op(self, state, op_seed, workers, trace):
        result = {"encode": {}, "dimacs_bytes": 0, "decode": {}, "exhaustive": {}, "fool": []}
        instances = {}
        for spec in state["specs"]:
            with trace.span("search.encode"):
                inst = search.encode(spec)
            path = state["workdir"] / f"maj-n{spec.n}-k{spec.k}.cnf"
            with trace.span("search.write_dimacs"):
                inst.write_dimacs(path)
            key = f"{spec.n},{spec.k}"
            result["encode"][key] = [inst.num_vars, len(inst.clauses)]
            result["dimacs_bytes"] += path.stat().st_size
            instances[(spec.n, spec.k)] = inst
        for c in state["published"]:
            inst = instances[(c.n, len(c.layers[0]))]
            model = self._model(inst, c)
            with trace.span("search.decode"):
                decoded = search.decode(inst, model)
            result["decode"][f"n{c.n}"] = core.serialize_circuit(decoded) == core.serialize_circuit(c)
        with trace.span("search.exhaustive"):
            for spec in state["small"]:
                key = f"{spec.n},{spec.k},{spec.multiplicity_max}"
                result["exhaustive"][key] = search.exhaustive_search(spec) is not None
        with trace.span("search.fool"):
            fooling = [search.fooling_input(c) for c in state["omission"]]
        result["fool"] = ["".join(map(str, a.bits)) for a in fooling]
        return result

    def digest(self, result) -> str:
        return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()[:16]

    def check(self, state, result) -> list[str]:
        bad = []
        for key, counts in result["encode"].items():
            if counts != self.reference["encode"][key]:
                bad.append(f"encode {key}: vars, clauses {counts}, reference {self.reference['encode'][key]}")
        for key, same in result["decode"].items():
            if not same:
                bad.append(f"decode {key} did not return the published circuit")
        want = {key: self.reference["exhaustive"][key] for key in result["exhaustive"]}
        if result["exhaustive"] != want:
            bad.append(f"exhaustive verdicts {result['exhaustive']}, reference {want}")
        for c, bits in zip(state["omission"], result["fool"]):
            a = core.Assignment(tuple(int(b) for b in bits))
            if a.weight != core.majority_threshold(c.n) or core.eval_circuit(c, a) != 0:
                bad.append(f"fooling input {bits} is not a minterm the n={c.n} circuit gets wrong")
        if len(result["fool"]) != len(state["omission"]):
            bad.append(f"{len(result['fool'])} fooling inputs for {len(state['omission'])} circuits")
        return bad

    def layer_metrics(self, state, ops) -> list[dict[str, float]]:
        out = []
        for op in ops:
            tot = op["spans"]
            res = op["result"]
            encode_s = tot["search.encode"][1]
            clauses = sum(c for _, c in res["encode"].values())
            out.append({
                "search.encode_s": encode_s,
                "search.encode_vars": sum(v for v, _ in res["encode"].values()),
                "search.encode_clauses": clauses,
                "search.clauses_per_s": clauses / encode_s,
                "search.write_dimacs_s": tot["search.write_dimacs"][1],
                "search.dimacs_mb": res["dimacs_bytes"] / 2**20,
                "search.decode_s": tot.get("search.decode", (0, 0.0))[1],
                "search.exhaustive_s": tot["search.exhaustive"][1],
                "search.exhaustive_spaces": len(res["exhaustive"]),
                "search.fool_s": tot["search.fool"][1],
                "search.fool_inputs": len(res["fool"]),
            })
        return out


def _criterion10_sweep(max_n):
    return [(n, k, m) for n in range(1, max_n + 1) for k in range(1, n + 1) for m in (1, 2)]


def full_workloads(reference) -> dict:
    """The benchmark's workloads at their measured sizes."""
    return {w.name: w for w in (
        VerifyWorkload(
            "sampled_block4096",
            lambda seed: construct.build_block_circuit(construct.default_block_params(4096)),
            "sampled", samples=8192, workers=1, check_workers=2),
        VerifyWorkload(
            "agree_corr1001",
            lambda seed: construct.build_correlation(construct.CorrelationParams(n=1001, k=256, seed=seed)),
            "agreement", samples=65536, workers=1, check_workers=2, min_agreement=2 / 3),
        VerifyWorkload(
            "exact_block25",
            lambda seed: construct.build_block_circuit(construct.BlockParams(25, 5, 5)),
            "exact", samples=None, workers=2, check_workers=1,
            reference=reference["exact_block25"]),
        SearchPipeline(
            "search_pipeline", encode_nk=[(7, 5), (9, 7), (11, 9)], multiplicity=2,
            decode_tags=["n7", "n9"], exhaustive=_criterion10_sweep(5) + [(6, 4, 2)],
            fool_ns=[5, 7, 9, 11, 13, 15], fool_per_n=100, reference=reference["search_pipeline"]),
    )}
