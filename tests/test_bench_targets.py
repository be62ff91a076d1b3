"""The names the benchmark's tracer wraps resolve in the package.

``bench/tracer.py`` wraps each (module, attribute) of its ``TARGETS`` by
name, ``Cls.meth`` for a method; renaming or deleting one of them would
otherwise show only when the benchmark runs.  The tracer uses the standard
library alone, so it is loaded here from its file.
"""

import importlib
import importlib.util
import pathlib

import pytest

_TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, _, _ in tracer.TARGETS]


@pytest.mark.parametrize("module,attr", _targets(), ids=lambda x: x)
def test_pinned_name_resolves(module, attr):
    obj = importlib.import_module(f"vilenkin.{module}")
    for part in attr.split("."):
        assert hasattr(obj, part), f"vilenkin.{module} has no {attr}"
        obj = getattr(obj, part)
    assert callable(obj)
