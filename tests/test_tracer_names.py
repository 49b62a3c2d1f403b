"""Every function the benchmark tracer wraps still exists.

bench/tracer.py reports a per-layer metric as absent, instead of failing,
when a name it wraps is gone, so a rename in the package would silently
drop that metric from traced benchmark runs. The tracer is loaded by path
because bench/ is not a package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("spinladder_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names():
    tracer = _tracer()
    names = {source for sources in tracer.BUCKETS.values() for source in sources}
    names.update(tracer.COUNT_SOURCES.values())
    names.update(tracer._USEFUL_SINKS)
    return sorted(names)


@pytest.mark.parametrize("module,attr", _traced_names())
def test_traced_name_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
