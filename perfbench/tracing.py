"""Span recording for the traced run, and the per-layer metrics from spans.

``instrument`` replaces public rctm functions, on every module attribute
through which callers reach them, with wrappers that record one span per
call: name, start, end, parent span and work units.  Spans stay in memory.
A span's self time is its duration minus that of its child spans; a
layer's self time is the sum over its spans.

``core.orbit_chunks`` is a generator: it is timed only inside its
``next()`` calls, so the consumer's work between yields stays with the
consumer's layer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

NIST_TESTS = ("monobit", "block_frequency", "runs", "longest_run", "cusum_forward",
              "cusum_reverse", "approximate_entropy", "serial", "dft")


def _bits(args, kwargs, result):
    return len(args[0])


def _size(args, kwargs, result):
    return result.size


def _ent_bytes(args, kwargs, result):
    return result.n_bytes


def _offsets(args, kwargs, result):
    """Perturbation offsets (used, tried): skipped offsets are retries."""
    return result.pairs, result.pairs + len(result.skipped_offsets)


# (module, function, work units of one call).  Spans are named
# "<module>.<function>"; the module is the layer.
CALLS = [
    ("core", "iterate", None),
    ("core", "iterate_batch", _size),
    ("prbg", "generate_bits", None),
    ("prbg", "segmented_streams", None),
    ("prbg", "generate_quantized", None),
    ("prbg", "pack_bytes", None),
    ("prbg", "quantize_values", None),
    ("nist", "nist_battery", None),
    ("nist", "stream_outcomes", None),
    *[("nist", test, _bits) for test in NIST_TESTS],
    ("ent", "ent_battery", _ent_bytes),
    ("analysis", "correlation_sweep", _offsets),
    ("analysis", "entropy_sweep", None),
    ("analysis", "pearson_correlation", None),
    ("dynamics", "lyapunov_grid", None),
    ("cli", "main", None),
]
# Callers whose calls stay in their own layer's self time: quantizing for a
# sweep counts as analysis work.
UNTRACED_CALLERS = {("prbg", "quantize_values"): {"analysis"}}
# iterate_batch calls are classed by the sweep that makes them
BATCH_SHAPES = {
    "wide": "analysis.correlation_sweep",
    "narrow": "analysis.entropy_sweep",
    "grid": "dynamics.lyapunov_grid",
}


class Tracer:
    """Spans as [name, start, end, parent index, units], in opening order."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def open(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])

    def close(self, units=0) -> None:
        span = self.spans[self._open.pop()]
        span[2] = time.perf_counter()
        span[4] = units

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            out[span[0].split(".")[0]] += own
        return dict(out)


def _traced_call(tracer: Tracer, name: str, fn, units):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(units(args, kwargs, result) if units and result is not None else 0)
    return traced


def _traced_generator(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            tracer.open(name)
            try:
                block = next(gen)
            except StopIteration:
                tracer.close()
                return
            except BaseException:
                tracer.close()
                raise
            tracer.close(block.size)
            yield block
    return traced


def instrument(rctm, tracer: Tracer) -> list[tuple]:
    """Wrap the traced functions wherever rctm modules refer to them.

    Returns the replaced (module, attribute, original) triples for
    :func:`restore`.
    """
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "rctm" or name.startswith("rctm."))]
    plan = []
    for layer, fn, units in CALLS:
        original = getattr(getattr(rctm, layer), fn)
        plan.append((layer, fn, original, _traced_call(tracer, f"{layer}.{fn}", original, units)))
    chunks = rctm.core.orbit_chunks
    plan.append(("core", "orbit_chunks", chunks,
                 _traced_generator(tracer, "core.orbit_chunks", chunks)))
    replaced = []
    for layer, fn, original, wrapper in plan:
        skip = UNTRACED_CALLERS.get((layer, fn), set())
        for module in modules:
            if module.__name__.rsplit(".", 1)[-1] in skip:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    replaced.append((module, attr, original))
    return replaced


def restore(replaced: list[tuple]) -> None:
    for module, attr, original in reversed(replaced):
        setattr(module, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Per-layer metrics; None where the traced calls never reached a layer."""
    spans = tracer.spans
    layer_self = tracer.layer_self()

    def totals(match):
        dur = units = 0.0
        for span in spans:
            if match(span):
                dur += span[2] - span[1]
                units += span[4]
        return dur, units

    def rate(match, scale, per):
        dur, units = totals(match)
        return dur * scale / (units / per) if units else None

    m = {"core.scalar_ns_per_sample": rate(lambda s: s[0] == "core.orbit_chunks", 1e9, 1)}
    for shape, parent in BATCH_SHAPES.items():
        m[f"core.batch_{shape}_ns_per_sample"] = rate(
            lambda s, p=parent: s[0] == "core.iterate_batch" and s[3] >= 0 and spans[s[3]][0] == p,
            1e9, 1)
    m["core.samples"] = int(totals(lambda s: s[0] in ("core.orbit_chunks", "core.iterate_batch"))[1])
    for layer in ("prbg", "nist", "analysis", "dynamics", "cli"):
        m[f"{layer}.self_s"] = layer_self.get(layer)
    for test in NIST_TESTS:
        m[f"nist.{test}_ms"] = rate(lambda s, n=f"nist.{test}": s[0] == n, 1e3, 1e6)
    m["ent.ms_per_mbyte"] = rate(lambda s: s[0] == "ent.ent_battery", 1e3, 1e6)
    calls = sum(1 for s in spans if s[0] == "analysis.pearson_correlation")
    m["analysis.pearson_calls"] = calls if "analysis" in layer_self else None
    offsets = [s[4] for s in spans if s[0] == "analysis.correlation_sweep" and s[4]]
    tried = sum(t for _, t in offsets)
    m["analysis.offset_yield"] = sum(u for u, _ in offsets) / tried if tried else None
    m["cli.bytes_written"] = tracer.counts.get("cli.bytes_written") if "cli" in layer_self else None
    return m


# The workload whose scaled-down probe times a metric that the traced
# workload itself never reached, by metric name prefix.
PROBE_WORKLOAD = {
    "core.scalar": "battery",
    "core.batch_": "sweeps",
    "prbg.": "battery",
    "nist.": "battery",
    "ent.": "cli_stream",
    "cli.": "cli_stream",
    "analysis.": "sweeps",
    "dynamics.": "sweeps",
}


def probe_workload(metric: str) -> str | None:
    return next((w for prefix, w in PROBE_WORKLOAD.items() if metric.startswith(prefix)), None)
