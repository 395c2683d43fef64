"""Span tracing of pdvol's layers from outside the package.

``Tracer.install()`` replaces every public function of each layer module with
a wrapper that records a span (name, start, end, parent, attributes, error),
in its own module and in every pdvol module that imported the same function
object, so that ``distribution.cgf`` and ``cumulants.cgf`` are traced as
``exactlaw.cgf``.  The sampler's module-level proposal generators are wrapped
as counters: each batch size is appended to every open span.  Spans stay in
memory until the run ends; ``layer_metrics`` turns them into the per-layer
numbers and ``write_jsonl`` stores them.

Nothing here changes a computed value: wrappers pass arguments and results
through untouched and consume no random numbers.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import time

import numpy as np

LAYERS = (
    "specfun",
    "exactlaw",
    "polygamma_sums",
    "cumulants",
    "distribution",
    "sampling",
    "delaunay2d",
    "report",
    "cli",
)

PROPOSAL_GENERATORS = ("_uniform_circle", "_uniform_sphere")

#: bytes of one complex128 entry of the (points x n) row-sum matrix
ROW_TERM_BYTES = 16


def _shape_attrs(name, args, kwargs):
    """Call shape recorded for the spans whose cost depends on it."""
    if name == "exactlaw.cgf":
        return {"n": args[0].n, "points": int(np.size(args[1]))}
    if name in ("exactlaw.log_volume_moment", "exactlaw.sphere_representation_gap"):
        n = args[0].n if name == "exactlaw.log_volume_moment" else int(args[0])
        return {"n": n, "points": 1}
    if name == "sampling.sample_volume":
        params = args[0]
        size = args[2] if len(args) > 2 else kwargs["size"]
        return {"n": params.n, "mu": params.mu, "size": int(size)}
    if name == "delaunay2d.delaunay_triangulate":
        return {"points": len(args[0])}
    return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "error", "index")

    def __init__(self, name, start, end, parent, attrs=None, error=None, index=-1):
        self.index = index
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs
        self.error = error


class Tracer:
    """Collects spans while installed; ``uninstall`` restores every binding."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = Span(name, clock(), 0, stack[-1].index if stack else -1,
                        _shape_attrs(name, args, kwargs), index=len(spans))
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                stack.pop()
                span.end = clock()

        traced.__wrapped__ = fn
        return traced

    def count_proposals(self, fn):
        stack = self._stack

        def counted(rng, count):
            for span in stack:
                if span.attrs is None:
                    span.attrs = {}
                span.attrs.setdefault("proposals", []).append(int(count))
            return fn(rng, count)

        return counted

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "pdvol" or k.startswith("pdvol.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"pdvol.{layer}")
            names = getattr(mod, "__all__", None) or [k for k in vars(mod) if not k.startswith("_")]
            for attr in names:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._rebind(modules, fn, self.wrap(f"{layer}.{attr}", fn))
        sampling = importlib.import_module("pdvol.sampling")
        for attr in PROPOSAL_GENERATORS:
            fn = getattr(sampling, attr)
            self._rebind([sampling], fn, self.count_proposals(fn))

    def _rebind(self, modules, fn, replacement):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, replacement)
                    self._patched.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()


# ---------------------------------------------------------------------------
# analysis


def self_times(spans):
    """Self time of each span in ns: its duration minus its direct children's.
    Spans come from one thread's call stack, so children never overlap."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def row_terms(spans):
    """Computed from call shapes: (sum of points*n log-gamma row terms,
    largest points*n*16 bytes of one call's row matrix)."""
    total = biggest = 0
    for s in spans:
        if s.error is None and s.attrs and "points" in s.attrs and "n" in s.attrs:
            terms = s.attrs["points"] * s.attrs["n"]
            total += terms
            biggest = max(biggest, terms * ROW_TERM_BYTES)
    return total, biggest


def _ancestor_named(spans, i, name):
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return p
        p = spans[p].parent
    return -1


def point_key(n, mu):
    return f"n{n}.mu{mu:g}"


def acceptance_consistent(batches, size, rate, delivered, k=6.0):
    """Whether the proposal batches of one rejection run are consistent with
    the exact acceptance rate: the accepted count ~ Binomial(P, rate) must have
    stayed below ``size`` before the last batch and, when the run delivered,
    reached it after the last batch (each to within k standard deviations)."""
    total = sum(batches)
    before = total - batches[-1] if delivered else total

    def sd(p):
        return math.sqrt(max(p * rate * (1.0 - rate), 1.0))

    below_before = rate * before - k * sd(before) < size
    reached = (not delivered) or rate * total + k * sd(total) >= size
    return below_before and reached


def in_layer_times(spans, selfs):
    """Time each span spent in its own layer: its self time plus that of the
    descendants reached without leaving the layer."""
    out = list(selfs)
    for j, s in enumerate(spans):
        layer = s.name.split(".", 1)[0]
        p = s.parent
        while p >= 0 and spans[p].name.split(".", 1)[0] == layer:
            out[p] += selfs[j]
            p = spans[p].parent
    return out


def layer_metrics(spans, exact_rate=None):
    """Per-layer metrics of one traced pass; returns (metrics, problems).

    ``<layer>.self_s`` is the time spent in the layer's own code.
    ``<layer>.<fn>.self_s`` is the time ``fn`` spent in its own layer: its
    duration minus its calls into other layers, so helpers of the same layer
    count towards it (and towards each of them).
    ``exact_rate(n, mu)`` gives the exact angular acceptance rate for the
    proposal cross-check."""
    selfs = self_times(spans)
    in_layer = in_layer_times(spans, selfs)
    m = {}
    problems = []

    def add(key, value):
        m[key] = m.get(key, 0.0) + value

    for s, st, own in zip(spans, selfs, in_layer):
        add(f"{s.name.split('.', 1)[0]}.self_s", st * 1e-9)
        add(f"{s.name}.self_s", own * 1e-9)
        add(f"{s.name}.calls", 1)

    points = sum(s.attrs["points"] for s in spans if s.name == "exactlaw.cgf" and s.attrs)
    m["exactlaw.cgf.points"] = points
    m["exactlaw.cgf.us_per_point"] = m.get("exactlaw.cgf.self_s", 0.0) / points * 1e6 if points else 0.0
    m["exactlaw.row_terms"], m["exactlaw.max_call_bytes"] = row_terms(spans)

    n_cdf = m.get("distribution.standardized_cdf.calls", 0)
    under = sum(s.attrs["points"] for i, s in enumerate(spans)
                if s.name == "exactlaw.cgf" and s.attrs
                and _ancestor_named(spans, i, "distribution.standardized_cdf") >= 0)
    m["distribution.cgf_points_per_cdf"] = under / n_cdf if n_cdf else 0.0

    m["delaunay2d.estimators.self_s"] = (m.get("delaunay2d.estimate_typical_moment.self_s", 0.0)
                                         + m.get("delaunay2d.estimate_radius_cdf.self_s", 0.0))
    m["delaunay2d.delaunay_triangulate.points"] = sum(
        s.attrs["points"] for s in spans if s.name == "delaunay2d.delaunay_triangulate")

    per_point = {}  # key -> [delivered draws, seconds, proposals]
    for s in spans:
        if s.name != "sampling.sample_volume":
            continue
        a = s.attrs
        batches = a.get("proposals", [])
        delivered = a["size"] if s.error is None else 0
        key = point_key(a["n"], a["mu"])
        acc = per_point.setdefault(key, [0, 0.0, 0])
        acc[0] += delivered
        acc[1] += (s.end - s.start) * 1e-9
        acc[2] += sum(batches)
        if exact_rate is not None and batches:
            rate = exact_rate(a["n"], a["mu"])
            if not acceptance_consistent(batches, a["size"], rate, delivered > 0):
                problems.append(f"sample_volume {key}: {sum(batches)} proposals for {delivered} of "
                                f"{a['size']} draws contradict the exact acceptance rate {rate:.4g}")
    for key, (delivered, seconds, proposals) in per_point.items():
        m[f"sampling.draws_per_s.{key}"] = delivered / seconds
        m[f"sampling.acceptance.{key}"] = delivered / proposals if proposals else 0.0
    draws = sum(v[0] for v in per_point.values())
    proposals = sum(v[2] for v in per_point.values())
    m["sampling.sample_volume.draws"] = draws
    m["sampling.proposals"] = proposals
    m["sampling.acceptance"] = draws / proposals if proposals else 0.0
    return m, problems


def write_jsonl(spans, path):
    selfs = self_times(spans)
    with open(path, "w", encoding="utf-8") as fh:
        for i, (s, st) in enumerate(zip(spans, selfs)):
            fh.write(json.dumps({"id": i, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                                 "parent": s.parent, "self_ns": st, "attrs": s.attrs,
                                 "error": s.error}) + "\n")
