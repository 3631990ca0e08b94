"""Span recorder that wraps the library's public functions from outside it.

The library binds names at import time (``from .estimate import
estimate_drift``), so a wrapper only takes effect where it replaces the
name a caller looks up.  :meth:`Tracer.wrap` therefore replaces every
reference to the original function object in every loaded ``grou``
module, the package namespace included.  Modules are reached through
``sys.modules`` because the package attribute ``grou.forecast`` is the
function ``forecast``, not the submodule.

Each span records its name, start, end, parent and thread, plus optional
process CPU time and counts.  Spans are held in memory and written out
when the run ends.  A span opened on a pool thread with no open span of
its own takes as parent the innermost span open on the main thread, which
is the call that handed the work to the pool.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import sys
import threading
import time
import types
from collections import Counter


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "cpu", "counts", "attrs", "error")

    def __init__(self, sid, name, parent, thread, start):
        self.id = sid
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = None
        self.cpu = None
        self.counts = Counter()
        self.attrs = {}
        self.error = None

    @property
    def duration(self):
        return self.end - self.start

    def to_json(self, origin):
        doc = {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "thread": self.thread,
            "start": self.start - origin,
            "end": self.end - origin,
        }
        if self.cpu is not None:
            doc["cpu"] = self.cpu
        if self.counts:
            doc["counts"] = dict(self.counts)
        if self.attrs:
            doc["attrs"] = self.attrs
        if self.error:
            doc["error"] = self.error
        return doc


class _SpanContext:
    def __init__(self, tracer, name, cpu):
        self.tracer, self.name, self.want_cpu = tracer, name, cpu

    def __enter__(self):
        self.span = self.tracer._open(self.name)
        if self.want_cpu:
            self.cpu0 = time.process_time()
        return self.span

    def __exit__(self, exc_type, exc, tb):
        if self.want_cpu:
            self.span.cpu = time.process_time() - self.cpu0
        if exc_type is not None:
            self.span.error = exc_type.__name__
        self.tracer._close(self.span)
        return False


class Tracer:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.origin = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            main = self._main_stack
            parent = main[-1].id if main else None
        span = Span(next(self._ids), name, parent, threading.get_ident(), time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def span(self, name, cpu=False):
        return _SpanContext(self, name, cpu)

    def count(self, name, n=1):
        """Add ``n`` to counter ``name`` on every span open in this thread.

        A pool thread with no open span of its own counts on the spans open
        on the main thread, which handed it the work.
        """
        stack = self._stack() or self._main_stack
        with self._lock:
            for span in stack:
                span.counts[name] += n

    # -- installing wrappers -------------------------------------------------

    def _replace(self, original, replacement, modules=None):
        """Point every ``grou`` module attribute bound to ``original`` at ``replacement``."""
        targets = modules or [
            m for key, m in list(sys.modules.items()) if key == "grou" or key.startswith("grou.")
        ]
        for module in targets:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def wrap(self, module_name, attr, cpu=False, on_exit=None, name_from=None):
        """Wrap ``module_name.attr`` at every import site.

        ``on_exit(span, args, kwargs, result)`` records attributes from the
        call; ``name_from(args, kwargs)`` names the span per call.
        """
        original = getattr(sys.modules[module_name], attr)
        tracer = self
        fixed = f"{module_name.split('.')[-1]}.{attr}"

        def wrapper(*args, **kwargs):
            name = name_from(args, kwargs) if name_from else fixed
            with tracer.span(name, cpu=cpu) as span:
                result = original(*args, **kwargs)
                if on_exit is not None:
                    on_exit(span, args, kwargs, result)
                return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        self._replace(original, wrapper)

    def count_calls(self, module_names, attr, counter):
        """Count calls to ``attr`` (a foreign function) at the named import sites only."""
        modules = [sys.modules[m] for m in module_names]
        original = getattr(modules[0], attr)
        tracer = self

        def counting(*args, **kwargs):
            tracer.count(counter)
            return original(*args, **kwargs)

        self._replace(original, counting, modules)

    def record_warnings(self, module_name, classify):
        """Count warnings issued by ``module_name`` by reason, then issue them as usual."""
        module = sys.modules[module_name]
        real = module.warnings
        tracer = self

        def warn(message, category=None, stacklevel=1):
            tracer.count(f"warn.{classify(str(message))}")
            real.warn(message, category, stacklevel + 1)

        shim = types.SimpleNamespace(warn=warn)
        self._restore.append((module, "warnings", real))
        module.warnings = shim

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, file):
        with open(file, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.to_json(self.origin)) + "\n")


# -- per-layer metrics ---------------------------------------------------------

LAYERS = ("graphs", "model", "noise", "simulate", "estimate", "forecast", "benchmarks", "selection", "mrc", "cli")


def install_library_spans(tracer: Tracer) -> None:
    """Wrap the public functions of every layer of ``grou``.

    Every layer module is imported first, so that each import site exists.
    """
    for layer in LAYERS:
        importlib.import_module(f"grou.{layer}")

    def set_attr(key, fn):
        def on_exit(span, args, kwargs, result):
            span.attrs[key] = fn(args, kwargs, result)

        return on_exit

    def sim_exit(span, args, kwargs, result):
        arrivals = result.truth.arrival_times if result.truth is not None else None
        span.attrs["points"] = int(result.n_points)
        if arrivals is not None:
            span.attrs["jumps"] = int(arrivals.size)

    w = tracer.wrap
    w("grou.graphs", "weight_matrices")
    w("grou.graphs", "random_er_graph", on_exit=set_attr("edges", lambda a, k, r: r.n_edges))
    w("grou.model", "stationary_moments")
    w("grou.model", "lyapunov_solve")
    w("grou.model", "cov_integral")
    w("grou.noise", "sample_increments")
    w("grou.simulate", "simulate_path", on_exit=sim_exit)
    n_coarse = set_attr("n_coarse", lambda a, k, r: int(r.n_coarse))
    w("grou.estimate", "estimate_drift", on_exit=n_coarse)
    w("grou.estimate", "estimate_mcar", cpu=True, on_exit=n_coarse)
    w("grou.estimate", "estimate_triplet")
    w("grou.forecast", "one_step_map")
    w("grou.forecast", "rolling_forecast")
    w(
        "grou.benchmarks",
        "fit_benchmark",
        name_from=lambda a, k: f"benchmarks.fit.{str(a[0] if a else k['kind']).upper()}",
    )
    w("grou.benchmarks", "evaluate")
    w("grou.benchmarks", "monte_carlo_study", cpu=True)
    w("grou.selection", "select_model")
    w("grou.selection", "joint_network_model_search", cpu=True)
    w("grou.mrc", "ingest_prices", on_exit=set_attr("rows", lambda a, k, r: int(r.times.size + r.skipped_rows)))
    w(
        "grou.mrc",
        "rolling_mrc",
        on_exit=lambda s, a, k, r: s.attrs.update(
            windows=int(r.values.shape[0]), skipped=int(r.skipped_windows)
        ),
    )
    w("grou.mrc", "write_edge_series_csv")
    w("grou.mrc", "read_edge_series_csv")
    w("grou.cli", "run", name_from=lambda a, k: f"cli.{(a[0] if a else k['argv'])[0]}")
    tracer.count_calls(["grou.simulate", "grou.model"], "expm", "expm")
    tracer.record_warnings("grou.selection", _skip_reason)


def _skip_reason(message):
    if "skipped in screening" in message:
        return "screen_error"
    if "skipped in selection" in message:
        return "select_error"
    if message.startswith("shape ") and "skipped" in message:
        return "shape_error"
    return "other"


SKIP_REASONS = ("empty_graph", "screen_error", "shape_error", "select_error")


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _mean(values):
    return float(statistics.fmean(values)) if values else 0.0


def _union_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cursor = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def layer_metrics(spans, reps: int) -> dict:
    """Per-layer metrics from the spans under the benchmark's ``bench.work`` spans.

    Times suffixed ``.ms`` and ``.s`` are medians per call; counts are per
    replication.  A layer that the workload never calls reads 0.
    """
    by_id = {s.id: s for s in spans}

    def root_name(span):
        while span.parent is not None and span.parent in by_id:
            span = by_id[span.parent]
        return span.name

    work = [s for s in spans if root_name(s) == "bench.work"]
    by_name: dict[str, list[Span]] = {}
    for s in work:
        by_name.setdefault(s.name, []).append(s)
    children: dict[int, list[Span]] = {}
    for s in work:
        children.setdefault(s.parent, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def ms(name):
        return 1e3 * _median([s.duration for s in named(name)])

    def secs(name):
        return _median([s.duration for s in named(name)])

    def per_rep(n):
        return n / reps if reps else 0.0

    def cpu_per_wall(name):
        group = named(name)
        wall = sum(s.duration for s in group)
        return sum(s.cpu for s in group) / wall if wall > 0 else 0.0

    sims = named("simulate.simulate_path")
    fits = named("estimate.estimate_drift") + named("estimate.estimate_mcar")
    graphs = named("graphs.random_er_graph")
    cli_spans = [s for s in work if s.name.startswith("cli.")]
    cli_self = sum(
        s.duration
        - _union_length([(c.start, c.end) for c in children.get(s.id, [])], s.start, s.end)
        for s in cli_spans
    )
    skipped = {
        reason: sum(s.counts[f"warn.{reason}"] for s in named("bench.work"))
        for reason in SKIP_REASONS[1:]
    }
    skipped["empty_graph"] = sum(1 for g in graphs if g.attrs.get("edges") == 0)

    out = {
        "simulate.simulate_path.ms": ms("simulate.simulate_path"),
        "simulate.points_per_s": _median([s.attrs["points"] / s.duration for s in sims]),
        "simulate.expm_calls": _mean([s.counts["expm"] for s in sims]),
        "simulate.jumps": _mean([s.attrs["jumps"] for s in sims if "jumps" in s.attrs]),
        "noise.sample_increments.ms": ms("noise.sample_increments"),
        "model.stationary_moments.ms": ms("model.stationary_moments"),
        "model.lyapunov_solve.calls": per_rep(len(named("model.lyapunov_solve"))),
        "model.cov_integral.calls": per_rep(len(named("model.cov_integral"))),
        "estimate.estimate_mcar.ms": ms("estimate.estimate_mcar"),
        "estimate.estimate_mcar.cpu_per_wall": cpu_per_wall("estimate.estimate_mcar"),
        "estimate.estimate_drift.ms": ms("estimate.estimate_drift"),
        "estimate.estimate_triplet.ms": ms("estimate.estimate_triplet"),
        "estimate.n_coarse": _median([s.attrs["n_coarse"] for s in fits]),
        "forecast.one_step_map.ms": ms("forecast.one_step_map"),
        "forecast.rolling_forecast.ms": ms("forecast.rolling_forecast"),
    }
    for kind in ("NA", "AR", "VAR", "GNAR", "OU", "MCAR", "GROU"):
        out[f"benchmarks.fit.{kind}.ms"] = ms(f"benchmarks.fit.{kind}")
    out.update(
        {
            "benchmarks.evaluate.ms": ms("benchmarks.evaluate"),
            "benchmarks.monte_carlo_study.cpu_per_wall": cpu_per_wall("benchmarks.monte_carlo_study"),
            "selection.joint_network_model_search.s": secs("selection.joint_network_model_search"),
            "selection.screened": per_rep(sum(1 for g in graphs if g.attrs.get("edges", 0) > 0)),
            "selection.skipped": per_rep(sum(skipped.values())),
        }
    )
    for reason in SKIP_REASONS:
        out[f"selection.skipped.{reason}"] = per_rep(skipped[reason])
    out.update(
        {
            "selection.select_model.ms": ms("selection.select_model"),
            "selection.cpu_per_wall": cpu_per_wall("selection.joint_network_model_search"),
            "graphs.weight_matrices.ms": ms("graphs.weight_matrices"),
            "graphs.weight_matrices.calls": per_rep(len(named("graphs.weight_matrices"))),
            "mrc.ingest_prices.s": secs("mrc.ingest_prices"),
            "mrc.ingest_rows_per_s": _median(
                [s.attrs["rows"] / s.duration for s in named("mrc.ingest_prices")]
            ),
            "mrc.rolling_mrc.s": secs("mrc.rolling_mrc"),
            "mrc.windows": per_rep(sum(s.attrs["windows"] for s in named("mrc.rolling_mrc"))),
            "mrc.skipped_windows": per_rep(sum(s.attrs["skipped"] for s in named("mrc.rolling_mrc"))),
            "mrc.write_edge_series_csv.s": secs("mrc.write_edge_series_csv"),
            "mrc.read_edge_series_csv.s": secs("mrc.read_edge_series_csv"),
            "cli.benchmark.s": secs("cli.benchmark"),
            "cli.mrc.s": secs("cli.mrc"),
            "cli.select.s": secs("cli.select"),
            "cli.self_s": per_rep(cli_self),
        }
    )
    return out


# unit and better direction of every per-layer metric, in output order
LAYER_UNITS = {
    "simulate.simulate_path.ms": ("ms", "lower"),
    "simulate.points_per_s": ("1/s", "higher"),
    "simulate.expm_calls": ("count", "lower"),
    "simulate.jumps": ("count", "lower"),
    "noise.sample_increments.ms": ("ms", "lower"),
    "model.stationary_moments.ms": ("ms", "lower"),
    "model.lyapunov_solve.calls": ("count", "lower"),
    "model.cov_integral.calls": ("count", "lower"),
    "estimate.estimate_mcar.ms": ("ms", "lower"),
    "estimate.estimate_mcar.cpu_per_wall": ("s/s", "lower"),
    "estimate.estimate_drift.ms": ("ms", "lower"),
    "estimate.estimate_triplet.ms": ("ms", "lower"),
    "estimate.n_coarse": ("count", "lower"),
    "forecast.one_step_map.ms": ("ms", "lower"),
    "forecast.rolling_forecast.ms": ("ms", "lower"),
    **{f"benchmarks.fit.{k}.ms": ("ms", "lower") for k in ("NA", "AR", "VAR", "GNAR", "OU", "MCAR", "GROU")},
    "benchmarks.evaluate.ms": ("ms", "lower"),
    "benchmarks.monte_carlo_study.cpu_per_wall": ("s/s", "lower"),
    "selection.joint_network_model_search.s": ("s", "lower"),
    "selection.screened": ("count", "higher"),
    "selection.skipped": ("count", "lower"),
    **{f"selection.skipped.{r}": ("count", "lower") for r in SKIP_REASONS},
    "selection.select_model.ms": ("ms", "lower"),
    "selection.cpu_per_wall": ("s/s", "lower"),
    "graphs.weight_matrices.ms": ("ms", "lower"),
    "graphs.weight_matrices.calls": ("count", "lower"),
    "mrc.ingest_prices.s": ("s", "lower"),
    "mrc.ingest_rows_per_s": ("1/s", "higher"),
    "mrc.rolling_mrc.s": ("s", "lower"),
    "mrc.windows": ("count", "higher"),
    "mrc.skipped_windows": ("count", "lower"),
    "mrc.write_edge_series_csv.s": ("s", "lower"),
    "mrc.read_edge_series_csv.s": ("s", "lower"),
    "cli.benchmark.s": ("s", "lower"),
    "cli.mrc.s": ("s", "lower"),
    "cli.select.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.reps_per_s": ("1/s", "higher"),
}
