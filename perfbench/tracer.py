"""Per-layer counters installed from outside the package.

``install()`` replaces public functions with wrappers in every loaded
``coarsegeo`` module that binds the original object, and wraps methods
on their class.  The benchmark's own code calls the package through
module attributes, so it reaches the wrappers too.  A timed wrapper
records calls and self time: its own duration minus the time spent in
timed wrappers it called.  Functions called millions of times are only
counted, and the memoised Farey and model distances are read from their
own ``cache_info()`` counters, so the trace does not wrap them at all.
The end-to-end figures never come from a process in which these
wrappers were installed.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

from coarsegeo import bbf, constants, consreal, effdiff, harness, hypgraph, pathsflats, surfmodel

# (module, attribute) pairs timed for calls and self time
TIMED = [
    (surfmodel, "distance_formula"),
    (surfmodel, "project"),
    (effdiff, "differentiate_box"),
    (effdiff, "coarse_length"),
    (effdiff, "hyperbolic_subbox"),
    (effdiff, "efficiency_test"),
    (consreal, "consistency_check"),
    (consreal, "realize"),
    (consreal, "tuple_of_projections"),
    (bbf, "build_pk_graph"),
    (bbf, "shared_embedding"),
    (bbf, "embedding_for_pair"),
    (pathsflats, "extract_no_backtrack"),
    (pathsflats, "annular_center"),
    (pathsflats, "farey_center"),
    (pathsflats, "preferred_path"),
    (pathsflats, "candidate_flats"),
    (pathsflats, "flat_fit"),
    (harness, "run_pipeline"),
    (harness, "net_separation_count"),
    (constants, "default_constants"),
]
TIMED_METHODS = [(bbf, bbf.QuasiTree, "distance")]
COUNTED = [(surfmodel, "twist_number")]
# constructors whose returned handle gets a counting distance
HANDLES = {"model": (hypgraph, "model_handle"), "farey": (hypgraph, "farey_handle"),
           "embedded": (bbf, "embedded_handle")}
CACHED = ["model_distance", "farey_distance", "farey_geodesic"]

# the per-layer metrics a traced run reports, in BENCHMARK.json order
# ("trace.overhead_s" is measured by the runner, not by the wrappers)
PER_LAYER = [
    "surfmodel.distance_formula.calls", "surfmodel.distance_formula.self_s",
    "surfmodel.model_distance.hits", "surfmodel.model_distance.misses",
    "surfmodel.farey_distance.hits", "surfmodel.farey_distance.misses",
    "surfmodel.farey_geodesic.hits", "surfmodel.farey_geodesic.misses",
    "surfmodel.project.calls", "surfmodel.project.self_s",
    "surfmodel.twist_number.calls",
    "effdiff.differentiate_box.self_s", "effdiff.differentiate_box.level",
    "effdiff.differentiate_box.tiles",
    "effdiff.coarse_length.calls", "effdiff.coarse_length.self_s",
    "effdiff.hyperbolic_subbox.self_s", "effdiff.efficiency_test.self_s",
    "hypgraph.distance.model.calls", "hypgraph.distance.farey.calls",
    "hypgraph.distance.embedded.calls",
    "consreal.consistency_check.calls", "consreal.consistency_check.self_s",
    "consreal.realize.calls", "consreal.realize.self_s",
    "consreal.tuple_of_projections.self_s",
    "bbf.build_pk_graph.calls", "bbf.build_pk_graph.self_s",
    "bbf.pk.edges", "bbf.window.cores",
    "bbf.QuasiTree.distance.calls", "bbf.QuasiTree.distance.self_s",
    "bbf.shared_embedding.self_s", "bbf.embedding_for_pair.calls",
    "pathsflats.extract_no_backtrack.self_s",
    "pathsflats.annular_center.calls", "pathsflats.annular_center.self_s",
    "pathsflats.farey_center.calls", "pathsflats.farey_center.self_s",
    "pathsflats.preferred_path.calls", "pathsflats.preferred_path.self_s",
    "pathsflats.candidate_flats.self_s", "pathsflats.flat_fit.self_s",
    "harness.run_pipeline.self_s", "harness.net_separation_count.self_s",
    "harness.box_map.evals",
    "constants.default_constants.self_s",
]


def _short(mod) -> str:
    return mod.__name__.rsplit(".", 1)[-1]


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "level" if name.endswith(".level") else "count"


class Tracer:
    def __init__(self):
        self.values: dict[str, float] = {}
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _add(self, name: str, amount: float) -> None:
        self.values[name] = self.values.get(name, 0) + amount

    def _timed(self, key: str, fn, post=None):
        values, stack = self.values, self._stack
        calls, self_s = f"{key}.calls", f"{key}.self_s"
        values.setdefault(calls, 0)
        values.setdefault(self_s, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                values[calls] += 1
                values[self_s] += dt - child
                if stack:
                    stack[-1] += dt
            if post is not None:
                post(args, out)
            return out
        return wrapper

    def _counted(self, name: str, fn):
        values = self.values

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            values[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _hooked(self, fn, post):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            post(out)
            return out
        return wrapper

    def _post_differentiate(self, _args, rep) -> None:
        level = "effdiff.differentiate_box.level"
        self.values[level] = max(self.values[level], rep.level)
        self._add("effdiff.differentiate_box.tiles", len(rep.box_verdicts) + rep.untested_boxes)

    def _post_pk(self, args, pk) -> None:
        self._add("bbf.pk.edges", len(pk.edges))
        self._add("bbf.window.cores", len(args[0].cores))

    def _count_handle(self, kind: str):
        def post(handle):
            handle.distance = self._counted(f"hypgraph.distance.{kind}.calls", handle.distance)
        return post

    def _count_box_map(self, fmap) -> None:
        fmap.fn = self._counted("harness.box_map.evals", fmap.fn)

    # -- installation -----------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "coarsegeo" or name.startswith("coarsegeo.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every target; counters keep adding up across installs."""
        for name in PER_LAYER:
            self.values.setdefault(name, 0)
        posts = {"differentiate_box": self._post_differentiate,
                 "build_pk_graph": self._post_pk}
        for mod, name in TIMED:
            fn = getattr(mod, name)
            self._replace(fn, self._timed(f"{_short(mod)}.{name}", fn, posts.get(name)))
        for mod, cls, name in TIMED_METHODS:
            fn = vars(cls)[name]
            self._undo.append((cls, name, fn))
            setattr(cls, name, self._timed(f"{_short(mod)}.{cls.__name__}.{name}", fn))
        for mod, name in COUNTED:
            fn = getattr(mod, name)
            self._replace(fn, self._counted(f"{_short(mod)}.{name}.calls", fn))
        for kind, (mod, name) in HANDLES.items():
            fn = getattr(mod, name)
            self._replace(fn, self._hooked(fn, self._count_handle(kind)))
        fn = harness.noisy_flat_map
        self._replace(fn, self._hooked(fn, self._count_box_map))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reporting ----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The PER_LAYER metrics as name -> (value, unit)."""
        values = dict(self.values)
        for key in CACHED:
            info = getattr(surfmodel, key).cache_info()
            values[f"surfmodel.{key}.hits"] = info.hits
            values[f"surfmodel.{key}.misses"] = info.misses
        return {name: (values[name], unit(name)) for name in PER_LAYER}
