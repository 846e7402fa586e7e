"""Closed-loop runner of the majcirc benchmark.

One run sets a workload up several times, runs one untimed warm-up op, then
runs ops back to back (each starts when the previous one returns) for as
long as the next op is expected to end within the given seconds, and
finally re-runs the warm-up op at the other worker count, which must give
the same bytes.  Every op's result is checked.  End-to-end times are scaled
by a speed probe taken next to each of them (see SpeedProbe); the unscaled
figures are printed beside them.  With tracing on, spans are kept in memory
around the calls into each module, verify ops are followed by a
stage-by-stage replay, and the spans are written out when the run ends.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import tempfile
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from majcirc import verify
from workloads import derive_seed

# End-to-end metrics (--trace 0) and module metrics (--trace 1), with units.
E2E_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "construct.build_s": "s",
    "core.serialize_s": "s",
    "core.parse_s": "s",
    "verify.sample_s": "s",
    "verify.sample_inputs_per_s": "1/s",
    "verify.sample_peak_mb": "MB",
    "verify.eval_l1_s": "s",
    "verify.eval_l2_s": "s",
    "verify.eval_l1_macs_per_s": "1/s",
    "verify.eval_peak_mb": "MB",
    "verify.residual_s": "s",
    "verify.residual_share": "ratio",
    "verify.chunks": "count",
    "verify.workers": "count",
    "verify.inputs_per_s": "1/s",
    "verify.worker_peak_mb": "MB",
    "search.encode_s": "s",
    "search.encode_vars": "count",
    "search.encode_clauses": "count",
    "search.clauses_per_s": "1/s",
    "search.write_dimacs_s": "s",
    "search.dimacs_mb": "MB",
    "search.decode_s": "s",
    "search.exhaustive_s": "s",
    "search.exhaustive_spaces": "count",
    "search.fool_s": "s",
    "search.fool_inputs": "count",
    "trace_overhead": "ratio",
}

# Set-up is repeated at least this often, and until it has taken this long.
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 3.0
SETUP_MAX_REPS = 5000
# op_tail_s is the slowest op that still has this many ops beyond it.
TAIL_BEYOND = 10
# End-to-end times are scaled to this speed-probe time (about the probe's
# time on the 2-CPU host the benchmark was tuned on).
PROBE_REF_S = 0.02
# Set-ups shorter than this are timed in batches that share one probe pair.
PROBE_BATCH_S = 0.1


class SpeedProbe:
    """Times a fixed mix of interpreter, BLAS and memory-bound work.

    Shared hosts drift in speed by tens of percent over minutes.  Each
    end-to-end time is scaled by PROBE_REF_S over the mean of the probes
    taken just before and after it; the probe runs no program code, so the
    drift cancels and a slower program still shows.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((1024, 1001))
        self._b = rng.random((1001, 64))
        self._u = np.zeros(8 << 20, dtype=np.uint8)
        self()  # first touch of the buffers and BLAS start-up

    def __call__(self) -> float:
        t0 = perf_counter()
        total = 0
        for i in range(300_000):
            total += i
        self._a @ self._b
        np.add(self._u, 1, out=self._u)
        np.add(self._u, 1, out=self._u)
        return perf_counter() - t0


class Trace:
    """Spans kept in memory.  A disabled trace records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []
        self.span_cost = self._calibrate() if enabled else 0.0

    def _calibrate(self, count: int = 2000) -> float:
        """Seconds one empty span costs."""
        t0 = perf_counter()
        for _ in range(count):
            with self.span("calibrate"):
                pass
        cost = (perf_counter() - t0) / count
        self.spans.clear()
        return cost

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "name": name, "op": self.op,
               "parent": self._stack[-1] if self._stack else None,
               "start": perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def totals(self, op) -> dict[str, tuple[int, float]]:
        """(count, seconds) of the spans of one op, by span name."""
        out: dict[str, tuple[int, float]] = {}
        for s in self.spans:
            if s["op"] == op:
                count, secs = out.get(s["name"], (0, 0.0))
                out[s["name"]] = (count + 1, secs + s["end"] - s["start"])
        return out

    def write(self, path: Path, t0: float) -> None:
        spans = [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in self.spans]
        path.write_text(json.dumps({"spans": spans}) + "\n")


def tail(times: list[float]) -> tuple[float, float]:
    """(op time, percentile) of the slowest op with TAIL_BEYOND ops beyond
    it.  With fewer ops than that no percentile qualifies, and the fastest
    op is reported at percentile 0."""
    ordered = sorted(times)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    pct = 100.0 * (len(ordered) - TAIL_BEYOND) / len(ordered) if len(ordered) > TAIL_BEYOND else 0.0
    return ordered[index], pct


def _blas_threads():
    """Threads the OpenBLAS bundled with numpy will use, when it says."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*.so")):
        try:
            return ctypes.CDLL(path).scipy_openblas_get_num_threads64_()
        except (OSError, AttributeError):
            continue
    return None


def environment(workload, seed: int) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return (f"nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas_version} blas_threads={_blas_threads()} "
            f"(OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}) "
            f"workers={workload.workers} check_workers={workload.check_workers} "
            f"verify.DEFAULT_CHUNK={getattr(verify, 'DEFAULT_CHUNK', None)} seed={seed}")


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def run(workload, seed: int, seconds: float, trace_on: bool, out_dir: Path) -> dict:
    """Run one workload and return the result object of the last output line."""
    out_dir.mkdir(parents=True, exist_ok=True)
    trace = Trace(trace_on)
    t_start = perf_counter()
    print(f"# workload {workload.name} seed {seed} seconds {seconds} trace {int(trace_on)}")
    print("env " + environment(workload, seed))
    attempted = failed = 0
    probe = SpeedProbe()
    probes: list[float] = []

    def scaled(seconds, before, after):
        return seconds * 2 * PROBE_REF_S / (before + after)

    with tempfile.TemporaryDirectory(prefix="work-", dir=out_dir) as workdir:
        setup_s: list[float] = []
        setup_scaled: list[float] = []
        while len(setup_s) < SETUP_MIN_REPS or (
                sum(setup_s) < SETUP_MIN_SECONDS and len(setup_s) < SETUP_MAX_REPS):
            probes.append(probe())
            batch: list[float] = []
            while not batch or (sum(batch) < PROBE_BATCH_S and len(setup_s) + len(batch) < SETUP_MAX_REPS):
                trace.op = f"setup{len(setup_s) + len(batch)}"
                t0 = perf_counter()
                state = workload.setup(seed, workdir, trace)
                batch.append(perf_counter() - t0)
            probes.append(probe())
            setup_s += batch
            setup_scaled += [scaled(t, probes[-2], probes[-1]) for t in batch]
        print(f"setup {len(setup_s)} reps, median {statistics.median(setup_s):.4f} s")

        def op_seed(index):
            return derive_seed(seed, workload.name, "op", index)

        def attempt(label, index, workers, expect=None):
            """Run and check one op; returns (seconds, result), or (None, None) if it raised."""
            nonlocal attempted, failed
            attempted += 1
            trace.op = label
            t0 = perf_counter()
            try:
                with trace.span("op"):
                    result = workload.op(state, op_seed(index), workers, trace)
            except Exception:
                failed += 1
                print(f"FAIL op {label}: raised")
                traceback.print_exc()
                return None, None
            dt = perf_counter() - t0
            bad = workload.check(state, result)
            if expect is not None and result != expect:
                bad.append(f"workers={workers} result differs from the warm-up op's")
            print(f"op {label} seed {op_seed(index)} workers={workers} {dt:.4f} s digest {workload.digest(result)}")
            for reason in bad:
                print(f"FAIL op {label}: {reason}")
            failed += bool(bad)
            return dt, result

        _, warm = attempt("warm-up", 0, workload.workers)

        times: list[float] = []
        times_scaled: list[float] = []
        records: list[dict] = []
        rounds: list[float] = []  # each op with its check and, traced, its replay
        loop_start = perf_counter()
        index = 1
        # Start another op only while it is expected to end inside the window.
        while not rounds or perf_counter() - loop_start + statistics.median(rounds) <= seconds:
            round_start = perf_counter()
            spans_before = len(trace.spans)
            before = probe()
            dt, result = attempt(index, index, workload.workers)
            probes.append(probe())
            if dt is not None:
                times.append(dt)
                times_scaled.append(scaled(dt, before, probes[-1]))
                if trace_on:
                    spans_in_op = len(trace.spans) - spans_before
                    t0 = perf_counter()
                    if workload.replay is not None:
                        with trace.span("replay"):
                            workload.replay(state, op_seed(index), trace)
                    untraced = dt - spans_in_op * trace.span_cost
                    records.append({"index": index, "op_s": dt, "cycle_s": dt + perf_counter() - t0,
                                    "untraced_s": untraced, "spans": trace.totals(index),
                                    "result": result})
            rounds.append(perf_counter() - round_start)
            index += 1

        if workload.check_workers is not None:
            attempt("check", 0, workload.check_workers, expect=warm)

    if trace_on:
        metrics = _layer_metrics(workload, state, setup_s, records, trace)
        path = out_dir / f"trace-{workload.name}-seed{seed}.json"
        trace.write(path, t_start)
        print(f"trace written to {path}")
    else:
        metrics = _e2e_metrics(workload, state, setup_s, setup_scaled, times, times_scaled, probes)
    print(f"failed_ops {failed} of {attempted}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _e2e_metrics(workload, state, setup_s, setup_scaled, times, times_scaled, probes) -> dict:
    tail_s, tail_pct = tail(times_scaled) if times else (0.0, 0.0)
    values = {
        "setup_s": statistics.median(setup_scaled),
        "op_p50_s": statistics.median(times_scaled) if times else 0.0,
        "op_tail_s": tail_s,
        "peak_rss_mb": _rss_mb(resource.RUSAGE_SELF),
    }
    raw = {
        "setup_s": statistics.median(setup_s),
        "op_p50_s": statistics.median(times) if times else 0.0,
        "op_tail_s": tail(times)[0] if times else 0.0,
    }
    for name, value in values.items():
        note = f" (unscaled {raw[name]:.6g} {E2E_UNITS[name]})" if name in raw else ""
        print(f"{name} {value:.6g} {E2E_UNITS[name]}{note}")
    print(f"  times are scaled to a speed-probe time of {PROBE_REF_S * 1000:g} ms;"
          f" the median probe took {statistics.median(probes) * 1000:.4g} ms")
    print(f"  op_p50_s is over {len(times)} timed ops; op_tail_s is percentile {tail_pct:.1f}"
          f" ({min(TAIL_BEYOND, max(0, len(times) - 1))} ops beyond it)")
    inputs = workload.inputs_per_op(state)
    if inputs and times:
        print(f"inputs_per_s {inputs * len(times) / sum(times):.6g} 1/s ({inputs} inputs per op)")
    if workload.check_workers is not None:
        print(f"  peak_rss_mb of the largest worker: {_rss_mb(resource.RUSAGE_CHILDREN):.6g} MB")
    return {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in values.items()}


def _layer_metrics(workload, state, setup_s, records, trace) -> dict:
    values = dict.fromkeys(LAYER_UNITS, 0.0)
    for stage in ("construct.build", "core.serialize", "core.parse"):
        values[f"{stage}_s"] = statistics.median(
            trace.totals(f"setup{r}").get(stage, (0, 0.0))[1] for r in range(len(setup_s)))
    per_op = workload.layer_metrics(state, records)
    for name in per_op[0] if per_op else ():
        values[name] = statistics.median(m[name] for m in per_op)
    if hasattr(workload, "peak_probe"):
        values.update(workload.peak_probe(state, derive_seed(0, workload.name, "probe")))
        values["verify.worker_peak_mb"] = _rss_mb(resource.RUSAGE_CHILDREN)
    values["trace_overhead"] = statistics.median(
        r["cycle_s"] / r["untraced_s"] - 1 for r in records) if records else 0.0

    for name, value in values.items():
        print(f"{name} {value:.6g} {LAYER_UNITS[name]}")
    if workload.replay is not None:
        for r, m in zip(records, per_op):
            stage = m["verify.sample_s"] + m["verify.eval_l1_s"] + m["verify.eval_l2_s"]
            print(f"op {r['index']}: op {r['op_s']:.4f} s = replayed stages {stage:.4f} s"
                  f" + verify.residual_s {m['verify.residual_s']:.4f} s")
        chunks = values["verify.chunks"] or 1
        gates = len(state.layers[0])
        ms = {k: 1000 * values[k] / chunks for k in
              ("verify.sample_s", "verify.eval_l1_s", "verify.eval_l2_s", "verify.residual_s")}
        rows = workload.inputs_per_op(state) / chunks
        print(f"per chunk of {rows:.0f} inputs (medians over ops, {chunks:g} chunks per op):")
        print("| workload | input gen | layer 1 | layer 2 | tally+rest |")
        print("|---|---|---|---|---|")
        print(f"| {workload.name} | {ms['verify.sample_s']:.1f} ms | {ms['verify.eval_l1_s']:.1f} ms"
              f" ({gates} gates) | {ms['verify.eval_l2_s']:.1f} ms | {ms['verify.residual_s']:.1f} ms |")
    return {name: {"value": value, "unit": LAYER_UNITS[name]} for name, value in values.items()}
