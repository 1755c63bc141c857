"""The benchmark's tracer still finds a bound name for every layer group.

``bench/tracing.py`` wraps library names from outside the library, and a
group none of whose names exist any more reports null: the traced run's
result then carries a null metric.  This reads ``bench/`` and changes
nothing in it; the wrappers are removed again before the test ends.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_layer_metric_has_a_bound_name():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        metrics = tracing.layer_metrics(tracer)
    finally:
        tracer.uninstall()
    unbound = sorted(name for name, value in metrics.items() if value is None)
    assert not unbound, f"{unbound} have no bound name; missing names: {tracer.missing}"


def test_uninstall_restores_the_library():
    import goodturing.sampler as sampler

    before = sampler._urn_pitman_yor
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    assert sampler._urn_pitman_yor is not before
    tracer.uninstall()
    assert sampler._urn_pitman_yor is before
