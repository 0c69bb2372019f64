"""The benchmark's tracer patches package attributes by name; every name it
lists must exist, or a traced benchmark run fails at start-up."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = load_tracing().SPANS
    assert spans
    for name, module_name, attr in spans:
        target = importlib.import_module(f"poisson_nlie.{module_name}")
        for part in attr.split("."):
            assert hasattr(target, part), f"{name}: poisson_nlie.{module_name}.{attr}"
            target = getattr(target, part)
        assert callable(target), name
