"""The benchmark's tracer wraps ringext functions by name, so every
(module, attribute) it lists must exist: a missing one makes every traced
benchmark run fail before it starts."""

import importlib.util
import os
import sys

import ringext  # noqa: F401  (imports every module the tracer looks up)
import ringext.linalg

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", os.path.join(ROOT, "bench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    missing = []
    for module, attr in tracer.TARGETS:
        obj = sys.modules.get(f"{tracer.PACKAGE}.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_rational_backend_is_named():
    """Every benchmark run records the Q backend by module and name in its
    environment fingerprint, read from ringext.linalg._rational."""
    rational = getattr(ringext.linalg, "_rational", None)
    assert isinstance(getattr(rational, "__module__", None), str)
    assert isinstance(getattr(rational, "__name__", None), str)
