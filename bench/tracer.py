"""Spans and counters recorded around calls into the berezin modules.

The tracer replaces module attributes with timing wrappers, under the name
each caller looks the function up by (``geometry.convex_hull`` for the calls
inside ``geometry``, ``matrix_oracle.normalized_kernel_matrix`` for the
oracle's own import of it, ``numpy.linalg.eigh`` for the harness).  Nothing
in ``src/`` changes; ``restore`` puts every original back.

A span is (id, parent id, op id, name, layer, start, end).  Spans stay in
memory and are written out once, after the run.  A layer's self time is the
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

LAYERS = (
    "cli",
    "closed_form",
    "symbols",
    "geometry",
    "output",
    "matrix_oracle",
    "kernels",
    "inequalities",
    "linalg",
    "verify",
    "harness",
)

COMPOSITION_ORDERS = (256, 512, 1024)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent, op]
        self.counts = {}
        self._stack = []
        self._patched = []
        self.op = None  # spans are recorded only while an op runs
        self.hook_s = 0.0  # time spent in ``after`` hooks

    # -- spans --------------------------------------------------------------

    def begin(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, time.perf_counter(), None, parent, self.op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- patching -----------------------------------------------------------

    def wrap(self, module, attr: str, name, layer: str, after=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span per call.

        ``name`` is the span name, or a function of the call's arguments that
        returns it.  ``after(tracer, args, kwargs, result)`` runs once the
        span has ended, to record counters; its own time falls outside that
        span and is summed in ``hook_s``.
        """
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return original(*args, **kwargs)
            idx = tracer.begin(name(*args, **kwargs) if callable(name) else name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                t0 = time.perf_counter()
                after(tracer, args, kwargs, result)
                tracer.hook_s += time.perf_counter() - t0
            return result

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def install(self, berezin) -> None:
        """Patch every traced boundary of the berezin package."""
        cf, sym, geo = berezin.closed_form, berezin.symbols, berezin.geometry
        out, mo, ker = berezin.output, berezin.matrix_oracle, berezin.kernels
        ineq, ver = berezin.inequalities, berezin.verify

        self.wrap(berezin.cli, "main", "cli.main", "cli")

        def sampled(t, args, kwargs, result):
            values = np.asarray(result.values).ravel()
            t.count("closed_form.samples", values.size)
            t.count("closed_form.unique", np.unique(values).size)

        for fn in ("sample_range", "hardy_transform", "bergman_transform", "model_transform"):
            self.wrap(cf, fn, f"closed_form.{fn}", "closed_form",
                      after=sampled if fn == "sample_range" else None)
        for fn in ("apply", "symbol_series"):
            self.wrap(sym, fn, f"symbols.{fn}", "symbols")

        def hull_built(t, args, kwargs, result):
            t.count("geometry.convex_hull.calls")
            t.count("geometry.hull_vertices", len(result))

        def report_done(t, args, kwargs, result):
            t.count("geometry.convexity_report.calls")
            t.count("geometry.points_in", result.sample_count)

        self.wrap(geo, "convex_hull", "geometry.convex_hull", "geometry", after=hull_built)
        self.wrap(geo, "convexity_report", "geometry.convexity_report", "geometry", after=report_done)
        for fn in ("classify_shape", "default_tolerance", "hausdorff_distance", "hull_signed_depth"):
            self.wrap(geo, fn, f"geometry.{fn}", "geometry")
        self._wrap_kdtree(geo)

        def wrote(t, args, kwargs, result):
            t.count("output.bytes", os.path.getsize(args[0]))

        for fn in ("write_csv", "write_json", "write_svg"):
            self.wrap(out, fn, f"output.{fn}", "output", after=wrote)

        def grid_evaluated(t, args, kwargs, result):
            op = args[0]
            points = int(np.size(result))
            t.count("matrix_oracle.berezin_grid.points", points)
            t.count("matrix_oracle.kernel_matrix_bytes", op.truncation * points * 16)

        self.wrap(mo, "composition_matrix",
                  lambda space, symbol, N: f"matrix_oracle.composition_matrix.N{int(N)}",
                  "matrix_oracle")
        self.wrap(mo, "berezin_grid", "matrix_oracle.berezin_grid", "matrix_oracle", after=grid_evaluated)
        for fn in ("model_berezin_range", "numerical_range_boundary"):
            self.wrap(mo, fn, f"matrix_oracle.{fn}", "matrix_oracle")

        def kernels_built(t, args, kwargs, result):
            t.count("kernels.normalized_kernel_matrix.calls")

        for module in (ker, mo):
            self.wrap(module, "normalized_kernel_matrix", "kernels.normalized_kernel_matrix",
                      "kernels", after=kernels_built)

        def trials_done(t, args, kwargs, result):
            t.count("inequalities.trials", result.trials)

        self.wrap(ineq, "run_trials", "inequalities.run_trials", "inequalities", after=trials_done)
        self.wrap(ineq, "random_psd", "inequalities.random_psd", "inequalities")
        for fn in ("functional_calculus", "abs_op"):
            self.wrap(ineq, fn, f"inequalities.{fn}", "inequalities",
                      after=lambda t, a, k, r, fn=fn: t.count(f"inequalities.{fn}.calls"))
        for fn in ("eigh", "eigvalsh"):
            self._wrap_linalg(fn)

        self.wrap(ver, "run_suite", lambda suite: f"verify.run_suite.{suite}", "verify")

    def _wrap_kdtree(self, geo) -> None:
        """geometry.cKDTree: time the build and every query of the tree."""
        original = geo.cKDTree
        tracer = self

        class TracedTree:
            def __init__(self, tree):
                self._tree = tree

            def query(self, *args, **kwargs):
                idx = tracer.begin("geometry.kdtree.query", "geometry")
                try:
                    return self._tree.query(*args, **kwargs)
                finally:
                    tracer.end(idx)

        def cKDTree(*args, **kwargs):
            if tracer.op is None:
                return original(*args, **kwargs)
            idx = tracer.begin("geometry.kdtree.build", "geometry")
            try:
                return TracedTree(original(*args, **kwargs))
            finally:
                tracer.end(idx)

        setattr(geo, "cKDTree", cKDTree)
        self._patched.append((geo, "cKDTree", original))

    def _wrap_linalg(self, fn: str) -> None:
        """numpy.linalg.<fn>, counted per calling suite as well as in total."""

        def counted(t, args, kwargs, result):
            t.count(f"linalg.{fn}.calls")
            suite = next((t.spans[i][0] for i in reversed(t._stack)
                          if t.spans[i][0].startswith("verify.run_suite.")), None)
            if suite is not None:
                t.count(f"linalg.{fn}.calls.{suite.rsplit('.', 1)[1]}")
            if any(t.spans[i][0] == "inequalities.run_trials" for i in t._stack):
                t.count(f"linalg.{fn}.calls.in_trials")

        self.wrap(np.linalg, fn, f"linalg.{fn}", "linalg", after=counted)

    # -- reporting ----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] is not None:
                own[s[4]] -= s[3] - s[2]
        return own

    def write_jsonl(self, path: str, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, layer, start, end, parent, op) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "parent": parent, "op": op, "name": name, "layer": layer,
                    "start": start - t0, "end": end - t0,
                }) + "\n")


def layer_metrics(tracer: Tracer, suites) -> dict:
    """Per-layer metrics as {name: (value, unit)} from one traced pass."""
    inclusive = {}
    for name, _, start, end, _, _ in tracer.spans:
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
    own = {layer: 0.0 for layer in LAYERS}
    for span, t in zip(tracer.spans, tracer.self_times()):
        own[span[1]] += t
    c = tracer.counts.get
    s = lambda name: inclusive.get(name, 0.0)  # noqa: E731

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "cli.main.self_s": (own["cli"], "s"),
        "closed_form.sample_range.s": (s("closed_form.sample_range"), "s"),
        "closed_form.samples": (c("closed_form.samples", 0), "count"),
        "closed_form.unique_ratio": (ratio(c("closed_form.unique", 0), c("closed_form.samples", 0)), "ratio"),
        "symbols.apply.s": (s("symbols.apply"), "s"),
        "symbols.symbol_series.s": (s("symbols.symbol_series"), "s"),
        "geometry.convexity_report.s": (s("geometry.convexity_report"), "s"),
        "geometry.convex_hull.s": (s("geometry.convex_hull"), "s"),
        "geometry.convex_hull.calls": (c("geometry.convex_hull.calls", 0), "count"),
        "geometry.hull_builds_per_report": (
            ratio(_count_under(tracer, "geometry.convex_hull", "geometry.convexity_report"),
                  c("geometry.convexity_report.calls", 0)), "ratio"),
        "geometry.kdtree.s": (s("geometry.kdtree.build") + s("geometry.kdtree.query"), "s"),
        "geometry.points_in": (c("geometry.points_in", 0), "count"),
        "geometry.hull_vertices": (c("geometry.hull_vertices", 0), "count"),
        "output.write_csv.s": (s("output.write_csv"), "s"),
        "output.write_svg.s": (s("output.write_svg"), "s"),
        "output.write_json.s": (s("output.write_json"), "s"),
        "output.bytes": (c("output.bytes", 0), "bytes"),
    }
    for n in COMPOSITION_ORDERS:
        m[f"matrix_oracle.composition_matrix.s.N{n}"] = (s(f"matrix_oracle.composition_matrix.N{n}"), "s")
    m.update({
        "matrix_oracle.berezin_grid.s": (s("matrix_oracle.berezin_grid"), "s"),
        "matrix_oracle.berezin_grid.points": (c("matrix_oracle.berezin_grid.points", 0), "count"),
        "matrix_oracle.kernel_matrix_bytes": (c("matrix_oracle.kernel_matrix_bytes", 0), "bytes"),
        "matrix_oracle.model_berezin_range.s": (s("matrix_oracle.model_berezin_range"), "s"),
        "matrix_oracle.numerical_range_boundary.s": (s("matrix_oracle.numerical_range_boundary"), "s"),
        "kernels.normalized_kernel_matrix.s": (s("kernels.normalized_kernel_matrix"), "s"),
        "kernels.normalized_kernel_matrix.calls": (c("kernels.normalized_kernel_matrix.calls", 0), "count"),
        "inequalities.run_trials.s": (s("inequalities.run_trials"), "s"),
        "inequalities.trials": (c("inequalities.trials", 0), "count"),
        "inequalities.random_psd.s": (s("inequalities.random_psd"), "s"),
        "inequalities.functional_calculus.calls": (c("inequalities.functional_calculus.calls", 0), "count"),
        "inequalities.abs_op.calls": (c("inequalities.abs_op.calls", 0), "count"),
        "linalg.eigh.calls": (c("linalg.eigh.calls", 0), "count"),
        "linalg.eigvalsh.calls": (c("linalg.eigvalsh.calls", 0), "count"),
        "inequalities.eigh_per_trial": (
            ratio(c("linalg.eigh.calls.in_trials", 0), c("inequalities.trials", 0)), "ratio"),
    })
    for suite in suites:
        m[f"verify.run_suite.s.{suite}"] = (s(f"verify.run_suite.{suite}"), "s")
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.self_s"] = (own[layer], "s")
    return m


def _count_under(tracer: Tracer, name: str, ancestor: str) -> int:
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    spans = tracer.spans
    n = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[4]
        while parent is not None and spans[parent][0] != ancestor:
            parent = spans[parent][4]
        n += parent is not None
    return n
