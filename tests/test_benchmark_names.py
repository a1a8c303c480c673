"""The benchmark's tracer still finds every name it wraps.

`perfbench/tracer.py` wraps package functions and methods by name, and
only a traced benchmark run (`--trace 1`) installs it, so a rename in
the package would break those runs alone.  Installing and uninstalling
the tracer here reaches every name it wraps and every cache counter it
reads, and a call through each hooked constructor's product reaches the
attributes the hooks replace: a box map's `fn` and a handle's
`distance`."""

import importlib.util
from pathlib import Path

from coarsegeo import bbf, harness, hypgraph, surfmodel
from coarsegeo.surfmodel import ModelSurface, base_point, twist_move

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_the_tracer_installs_and_uninstalls():
    tracer = _load_tracer()
    originals = {(mod, name): getattr(mod, name) for mod, name in tracer.TIMED + tracer.COUNTED}
    t = tracer.Tracer()
    try:
        t.install()
        assert all(getattr(mod, name) is not fn for (mod, name), fn in originals.items())
        assert set(t.metrics()) == set(tracer.PER_LAYER)
        surface = ModelSurface(((1, 1),), flavor="marking")
        x = base_point(surface)
        y = twist_move(x, 0, 5)
        harness.noisy_flat_map(harness.twist_flat(surface, 10), 1, 3).fn([2])
        hypgraph.model_handle(surface).distance(x, y)
        hypgraph.farey_handle().distance(x.alpha(0), y.alpha(0))
        bbf.embedded_handle([x, y], 2).distance(x, y)
        for name in ("harness.box_map.evals", "hypgraph.distance.model.calls",
                     "hypgraph.distance.farey.calls", "hypgraph.distance.embedded.calls"):
            assert t.values[name] == 1, name
        # a batch goes through the handle's counted `distance`, once a
        # pair, and the model-distance counters the tracer reads count it
        before = surfmodel.model_distance.cache_info()
        z = twist_move(x, 0, 9)
        assert hypgraph.model_handle(surface).pairwise([x, z], [y, y]) == \
            [surfmodel.model_distance(x, y), surfmodel.model_distance(z, y)]
        after = surfmodel.model_distance.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (3, 1)
        assert t.metrics()["surfmodel.model_distance.misses"][0] == after.misses
        assert t.values["hypgraph.distance.model.calls"] == 3
    finally:
        t.uninstall()
    assert all(getattr(mod, name) is fn for (mod, name), fn in originals.items())
