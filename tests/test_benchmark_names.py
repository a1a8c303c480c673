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

from coarsegeo import bbf, harness, hypgraph
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
    finally:
        t.uninstall()
    assert all(getattr(mod, name) is fn for (mod, name), fn in originals.items())
