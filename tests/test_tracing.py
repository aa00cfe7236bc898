"""The benchmark's tracer (perfbench/tracing.py) wraps qesf's layers by
module and attribute name; every name it wraps must exist, or a traced
benchmark run fails when it installs its wrappers."""

import importlib.util
from pathlib import Path

import qesf


def _wrapped() -> list:
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.WRAPPED


def test_every_wrapped_name_resolves_on_qesf():
    wrapped = _wrapped()
    assert wrapped
    for module, attr, _ in wrapped:
        assert callable(getattr(getattr(qesf, module), attr, None)), f"{module}.{attr}"
