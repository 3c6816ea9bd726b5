"""Span tracing of dvrchan from outside the package.

The tracer replaces public functions at the module boundaries with timing
wrappers for the length of a ``with tracer.installed():`` block, then puts the
originals back.  Nothing under ``src/`` is changed.

Two kinds of record are kept in memory and written out only at the end:

* spans, one per call of a coarse function (``run_experiment``,
  ``sample_block``, ``mean_toa``, ...), with their parent span id;
* counters, for scalar hot paths called ~10^5-10^6 times per command
  (``lens_area``, ``distance_cdf_*``): a call count and summed time, kept on
  the enclosing span so their time can still be subtracted from it.

The current span travels in a ``contextvars.ContextVar``.  The simulator's
``ThreadPoolExecutor`` is swapped for a subclass that runs every submitted
block job in a copy of the submitting context, inside a ``simulator.block``
span, so spans made on pool threads keep the ``run_experiment`` that launched
them as their ancestor.  A per-thread stack would lose that parent.

Counted functions must not call spanned ones (true for the functions wrapped
here); otherwise a span's time would be subtracted from its parent twice.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import dvrchan.analytics
import dvrchan.cli
import dvrchan.geometry
import dvrchan.pointprocess
import dvrchan.simulator


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "thread", "attrs", "counters", "open")

    def __init__(self, span_id, parent, name):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.thread = threading.get_ident()
        self.attrs = {}
        # counter name -> [calls, inclusive seconds, self seconds]
        self.counters = {}
        # accumulators of nested counter time, one per open counted call
        self.open = []
        self.start = perf_counter()
        self.end = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "thread": self.thread,
            "attrs": self.attrs,
            "counters": self.counters,
        }


def _run_experiment_n(args, kwargs):
    return kwargs["n_realizations"] if "n_realizations" in kwargs else args[2]


def _mpcs(summary) -> int:
    hist = summary.mpc_count_histogram
    return int(np.arange(len(hist)) @ hist)


def _sample_attrs(args, kwargs, result):
    """Points drawn, and the candidates the rejection sampler needs for them on average."""
    lens = args[0]
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    points = 1 if size is None else int(size)
    x_lo, x_hi, y_lo, y_hi = dvrchan.geometry.lens_bounding_box(lens)
    accept = dvrchan.geometry.lens_area(lens) / ((x_hi - x_lo) * (y_hi - y_lo))
    return {"points": points, "candidates": points / accept}


def _sample_block_attrs(args, kwargs, block):
    return {
        "realizations": int(args[1]),
        "scatterers": int(block.n_short.sum() + block.n_tall.sum()),
    }


def _run_experiment_attrs(args, kwargs, summary):
    return {"realizations": int(_run_experiment_n(args, kwargs)), "mpcs": _mpcs(summary)}


class Tracer:
    """Collects spans and counters while installed; analyses them afterwards."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=None)

    # -- recording ---------------------------------------------------------

    def _open(self, name) -> Span:
        parent = self._current.get()
        span = Span(next(self._ids), None if parent is None else parent.id, name)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name):
        """Record a span around a block of benchmark code (used for commands)."""
        span = self._open(name)
        token = self._current.set(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._current.reset(token)

    def spanned(self, fn, name, attrs=None):
        current = self._current

        def wrapper(*args, **kwargs):
            span = self._open(name)
            token = current.set(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                current.reset(token)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def counted(self, fn, name):
        current = self._current

        def wrapper(*args, **kwargs):
            span = current.get()
            open_ = span.open
            open_.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                nested = open_.pop()
                record = span.counters.get(name)
                if record is None:
                    record = span.counters[name] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - nested
                if open_:
                    open_[-1] += elapsed

        return wrapper

    def _executor_class(self):
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                job = tracer.spanned(fn, "simulator.block")
                return super().submit(contextvars.copy_context().run, job, *args, **kwargs)

        return TracedExecutor

    def replacements(self):
        """(owner, attribute, replacement) for every wrapped boundary."""
        cli, sim, pp, an, geo = (
            dvrchan.cli,
            dvrchan.simulator,
            dvrchan.pointprocess,
            dvrchan.analytics,
            dvrchan.geometry,
        )
        sample = geo.sample_uniform_in_lens
        lens_area = geo.lens_area
        return [
            (cli, "load_config", self.spanned(cli.load_config, "config.load_config")),
            (
                cli,
                "run_experiment",
                self.spanned(cli.run_experiment, "simulator.run_experiment", _run_experiment_attrs),
            ),
            (cli, "mean_toa", self.spanned(cli.mean_toa, "analytics.mean_toa")),
            (
                cli,
                "mean_received_power",
                self.spanned(cli.mean_received_power, "analytics.mean_received_power"),
            ),
            (cli, "mpc_pmf", self.spanned(cli.mpc_pmf, "analytics.mpc_pmf")),
            (cli, "sample_uniform_in_lens", self.spanned(sample, "geometry.sample", _sample_attrs)),
            (cli, "lens_area", self.counted(lens_area, "geometry.lens_area")),
            (
                sim,
                "sample_block",
                self.spanned(sim.sample_block, "pointprocess.sample_block", _sample_block_attrs),
            ),
            (sim, "ThreadPoolExecutor", self._executor_class()),
            (sim.RunSummary, "merge", self.spanned(sim.RunSummary.merge, "simulator.merge")),
            (pp, "sample_uniform_in_lens", self.spanned(sample, "geometry.sample", _sample_attrs)),
            (an, "sample_uniform_in_lens", self.spanned(sample, "geometry.sample", _sample_attrs)),
            (an, "lens_area", self.counted(lens_area, "geometry.lens_area")),
            (an, "distance_cdf_bs", self.counted(an.distance_cdf_bs, "analytics.distance_cdf")),
            (an, "distance_cdf_ms", self.counted(an.distance_cdf_ms, "analytics.distance_cdf")),
            (an, "moment_terms", self.spanned(an.moment_terms, "analytics.moment_terms")),
        ]

    @contextmanager
    def installed(self):
        with patched(self.replacements()):
            yield self

    # -- analysis ----------------------------------------------------------

    def layer_metrics(self, root_prefix="cli.") -> dict:
        """Per-layer totals over the recorded command spans.

        Time is apportioned so that the layer self times add up to the summed
        duration of the root (command) spans: where k sibling spans run at the
        same moment, each gets 1/k of that moment, and a span's descendants
        are scaled by the share of wall time the span received.
        """
        children = defaultdict(list)
        for span in self.spans:
            children[span.parent].append(span)
        roots = [s for s in children[None] if s.name.startswith(root_prefix)]

        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        calls = defaultdict(int)
        attrs = defaultdict(float)
        pool_busy = 0.0
        pool_wall = 0.0

        stack = [(root, 1.0) for root in roots]
        while stack:
            span, scale = stack.pop()
            kids = children.get(span.id, [])
            shares, covered = _apportion(span, kids)
            counter_self = sum(rec[2] for rec in span.counters.values())
            own = max(span.duration - covered - counter_self, 0.0)
            self_s[span.name] += scale * own
            incl_s[span.name] += scale * span.duration
            calls[span.name] += 1
            for name, (n, inclusive, exclusive) in span.counters.items():
                calls[name] += n
                incl_s[name] += scale * inclusive
                self_s[name] += scale * exclusive
            for key, value in span.attrs.items():
                attrs[f"{span.name}.{key}"] += value
            blocks = [k for k in kids if k.name == "simulator.block"]
            if blocks:
                pool_busy += sum(k.duration for k in blocks)
                pool_wall += span.duration
            for kid in kids:
                share = shares[kid.id] / kid.duration if kid.duration > 0 else 0.0
                stack.append((kid, scale * share))

        def layer_self(layer):
            return sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)

        points = attrs["geometry.sample.points"]
        return {
            "config.load_config_s": layer_self("config"),
            "cli.self_s": layer_self("cli"),
            "simulator.run_experiment.calls": calls["simulator.run_experiment"],
            "simulator.run_experiment_s": incl_s["simulator.run_experiment"],
            "simulator.kernel_self_s": self_s["simulator.run_experiment"]
            + self_s["simulator.block"],
            "simulator.merge.calls": calls["simulator.merge"],
            "simulator.merge_s": self_s["simulator.merge"],
            "simulator.pool_concurrency": pool_busy / pool_wall if pool_wall > 0 else 0.0,
            "pointprocess.sample_block.calls": calls["pointprocess.sample_block"],
            "pointprocess.sample_block_self_s": layer_self("pointprocess"),
            "pointprocess.realizations": attrs["pointprocess.sample_block.realizations"],
            "pointprocess.scatterers": attrs["pointprocess.sample_block.scatterers"],
            "geometry.self_s": layer_self("geometry"),
            "geometry.sample.calls": calls["geometry.sample"],
            "geometry.sample_s": incl_s["geometry.sample"],
            "geometry.points": points,
            "geometry.accept_ratio": points / attrs["geometry.sample.candidates"] if points > 0 else 0.0,
            "geometry.lens_area.calls": calls["geometry.lens_area"],
            "geometry.lens_area_s": self_s["geometry.lens_area"],
            "analytics.self_s": layer_self("analytics"),
            "analytics.distance_cdf.calls": calls["analytics.distance_cdf"],
            "analytics.distance_cdf_s": incl_s["analytics.distance_cdf"],
            "analytics.moment_terms.calls": calls["analytics.moment_terms"],
            "analytics.moment_terms_s": incl_s["analytics.moment_terms"],
            "analytics.mean_toa.calls": calls["analytics.mean_toa"],
            "analytics.mean_toa_s": incl_s["analytics.mean_toa"],
            "analytics.mpc_pmf_s": incl_s["analytics.mpc_pmf"],
        }


def _apportion(parent: Span, kids: list[Span]) -> tuple[dict, float]:
    """Split the parent's interval among its (possibly concurrent) children.

    Returns each child's share of wall time and the total time covered by
    at least one child.
    """
    shares = {kid.id: 0.0 for kid in kids}
    if not kids:
        return shares, 0.0
    events = []
    for kid in kids:
        start = max(kid.start, parent.start)
        end = min(kid.end, parent.end)
        if end > start:
            events.append((start, 1, kid.id))
            events.append((end, -1, kid.id))
    events.sort(key=lambda e: (e[0], e[1]))
    active: set = set()
    covered = 0.0
    last = None
    for time, kind, kid_id in events:
        if active and last is not None and time > last:
            step = time - last
            covered += step
            for active_id in active:
                shares[active_id] += step / len(active)
        last = time
        if kind > 0:
            active.add(kid_id)
        else:
            active.discard(kid_id)
    return shares, covered


@contextmanager
def patched(replacements):
    """Set each ``owner.attribute`` to its replacement, restoring on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, new in replacements:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def count_runs(fn, totals):
    """Wrap ``run_experiment`` to add its realizations and MPCs to ``totals``.

    Used with tracing off too: it costs a few microseconds per call, and
    ``run_experiment`` is called at most a few dozen times per command.
    """

    def wrapper(*args, **kwargs):
        summary = fn(*args, **kwargs)
        totals["realizations"] += int(_run_experiment_n(args, kwargs))
        totals["mpcs"] += _mpcs(summary)
        return summary

    return wrapper
