"""The benchmark's tracer still finds every name it wraps.

`perfbench/tracer.py` wraps package functions and methods by name, and
only a traced benchmark run (`--trace 1`) installs it, so a rename in
the package would break those runs alone.  Installing and uninstalling
the tracer here reaches every name it wraps and every cache counter it
reads."""

import importlib.util
from pathlib import Path

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
    finally:
        t.uninstall()
    assert all(getattr(mod, name) is fn for (mod, name), fn in originals.items())
