"""Spans around the calls into each ``coxvol`` layer, recorded from outside.

``Tracer`` replaces each layer-boundary function in the module namespace
that calls it (``from x import f`` makes one binding per importing
module), records one span per call with its parent span and op, and puts
every binding back on ``close``.  Spans stay in memory until ``dump``.
With ``memory`` set, each census call also runs under ``tracemalloc``;
that slows it several times over, so the runner does it in a batch of
its own whose spans it drops.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
import tracemalloc

# (module holding the binding, attribute, layer).  The span name is
# "<layer>.<attribute>", whichever module the binding lives in.
BINDINGS = (
    ("coxvol.poly_model", "parse_polyhedron", "poly_model"),
    ("coxvol.poly_model", "validate", "poly_model"),
    ("coxvol.census", "validate", "poly_model"),
    ("coxvol.census", "automorphisms", "poly_model"),
    ("coxvol.circuits", "enumerate_circuits", "circuits"),
    ("coxvol.andreev", "enumerate_circuits", "circuits"),
    ("coxvol.census", "enumerate_circuits", "circuits"),
    ("coxvol.haken", "circuits_up_to", "circuits"),
    ("coxvol.haken", "separating_triangles", "circuits"),
    ("coxvol.andreev", "check", "andreev"),
    ("coxvol.haken", "classify", "haken"),
    ("coxvol.census", "classify", "haken"),
    ("coxvol.haken", "is_compressible", "haken"),
    ("coxvol.realization", "solve_at", "realization"),
    # continuation and its nearest-cache scan, called from the volume layer
    ("coxvol.realization", "PathRealizer.solution_at", "realization"),
    ("coxvol.realization", "realize", "realization"),
    ("coxvol.volume", "schlafli_volume", "volume"),
    ("coxvol.census", "enumerate_labelings", "census"),
    ("coxvol.census", "cube_three_threes", "census"),
    ("coxvol.census", "pyramid_census", "census"),
)
LAYERS = ("poly_model", "circuits", "andreev", "haken", "realization", "volume", "census")

# Work a call did, read from its arguments and return value.
_WORK = {
    "circuits.enumerate_circuits": lambda args, out: len(out),
    "circuits.circuits_up_to": lambda args, out: len(out),
    "realization.solve_at": lambda args, out: out[2],
    "volume.schlafli_volume": lambda args, out: out.nodes,
    "census.enumerate_labelings": lambda args, out: (len(out), (args[1] - 1) ** len(args[0].edges)),
}

ID, PARENT, OP, LAYER, NAME, T0, T1, WORK, ERROR = range(9)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.memory = False
        self.mem_peaks: list[int] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for mod_name, path, layer in BINDINGS:
            owner = importlib.import_module(mod_name)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(f"{layer}.{attr}", layer, fn))

    def close(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _wrap(self, name: str, layer: str, fn):
        work = _WORK.get(name)
        census = layer == "census"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else None, self.op,
                    layer, name, 0.0, 0.0, None, None]
            self.spans.append(span)
            self._stack.append(span[ID])
            top_census = census and self.memory and not tracemalloc.is_tracing()
            if top_census:
                tracemalloc.start()
            span[T0] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[T1] = time.perf_counter()
                self._stack.pop()
                if top_census:
                    self.mem_peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if work is not None:
                span[WORK] = work(args, out)
            return out

        return traced

    def dump(self, path) -> None:
        fields = ["id", "parent", "op", "layer", "name", "t0", "t1", "work", "error"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)

    def metrics(self, ops: int, wall_s: float, volume_errors, overhead_s: float) -> dict:
        """Per-layer metrics over ``ops`` traced ops that took ``wall_s``.

        Times named after a function are seconds per call; ``self_s`` is
        a layer's self time per op and ``wall_share`` its share of the
        traced wall time; counts are per op unless named otherwise.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[T1] - s[T0]
        self_s = dict.fromkeys(LAYERS, 0.0)
        by_name: dict[str, list] = {}
        for s in spans:
            self_s[s[LAYER]] += s[T1] - s[T0] - child[s[ID]]
            by_name.setdefault(s[NAME], []).append(s)

        def calls(name):
            return by_name.get(name, [])

        def mean_s(name):
            ss = calls(name)
            return statistics.fmean(s[T1] - s[T0] for s in ss) if ss else 0.0

        def per_op(n):
            return n / ops

        def inside(s, name):
            while s[PARENT] is not None:
                s = spans[s[PARENT]]
                if s[NAME] == name:
                    return True
            return False

        vols = calls("volume.schlafli_volume")
        solves = calls("realization.solve_at")
        ok_solves = [s for s in solves if s[ERROR] is None]
        classify = calls("haken.classify")
        tested = sum(1 for s in calls("haken.is_compressible") if inside(s, "haken.classify"))
        classify_circuits = sum(s[WORK] or 0 for s in calls("circuits.circuits_up_to")
                                if inside(s, "haken.classify"))
        enum = calls("circuits.enumerate_circuits")
        labelings = [s for s in calls("census.enumerate_labelings") if s[ERROR] is None]
        orbits = sum(s[WORK][0] for s in labelings)
        candidates = sum(s[WORK][1] for s in labelings)
        worst_err = max((e for e, _ in volume_errors), default=0.0)
        # a zero estimate is floored at 1e-16 so a wrong volume reported
        # with no error bar gives a huge ratio instead of a division by zero
        err_ratio = max((e / max(est, 1e-16) for e, est in volume_errors), default=0.0)

        m = {
            "volume.schlafli_s": mean_s("volume.schlafli_volume"),
            "volume.integrand_nodes": statistics.fmean(s[WORK] or 0 for s in vols) if vols else 0.0,
            "volume.solves_per_volume":
                sum(1 for s in solves if inside(s, "volume.schlafli_volume")) / len(vols) if vols else 0.0,
            "volume.max_abs_err": worst_err,
            "volume.err_over_estimate": err_ratio,
            "realization.solve_calls": per_op(len(solves)),
            "realization.solve_failures": per_op(len(solves) - len(ok_solves)),
            "realization.newton_iters":
                statistics.fmean(s[WORK] for s in ok_solves) if ok_solves else 0.0,
            "realization.solve_s": mean_s("realization.solve_at"),
            "realization.realize_s": mean_s("realization.realize"),
            "haken.classify_s": mean_s("haken.classify"),
            "haken.orbifolds_tested": tested / len(classify) if classify else 0.0,
            "haken.useful_ratio": tested / (2 * classify_circuits) if classify_circuits else 0.0,
            "circuits.enumerate_calls": per_op(len(enum)),
            "circuits.enumerated": per_op(sum(s[WORK] or 0 for s in enum)),
            "circuits.enumerate_s": mean_s("circuits.enumerate_circuits"),
            "andreev.check_calls": per_op(len(calls("andreev.check"))),
            "andreev.check_s": mean_s("andreev.check"),
            "poly_model.parse_s": mean_s("poly_model.parse_polyhedron"),
            "poly_model.validate_s": mean_s("poly_model.validate"),
            "poly_model.automorphisms_calls": per_op(len(calls("poly_model.automorphisms"))),
            "poly_model.automorphisms_s": mean_s("poly_model.automorphisms"),
            "census.enumerate_s": mean_s("census.enumerate_labelings"),
            "census.candidates": candidates / len(labelings) if labelings else 0.0,
            "census.orbits": orbits / len(labelings) if labelings else 0.0,
            "census.orbit_ratio": orbits / candidates if candidates else 0.0,
            "census.three_threes_s": mean_s("census.cube_three_threes"),
            "census.pyramid_s": mean_s("census.pyramid_census"),
            "census.tracemalloc_peak_mb": max(self.mem_peaks, default=0) / 2**20,
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = per_op(self_s[layer])
            m[f"{layer}.wall_share"] = self_s[layer] / wall_s
        m["trace.overhead_s"] = overhead_s
        return m
