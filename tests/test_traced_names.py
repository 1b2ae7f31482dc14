"""Every function the benchmark's tracer wraps by name exists in decgauge.

The tracer looks the names up only when a traced run starts, so without
this check a removed or renamed function fails only there."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = [f"{mod}.{name}" for mod, names in tracing.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"{tracing.PACKAGE}.{mod}"), name, None))]
    assert missing == []
    assert len(tracing.SPAN_NAMES) == sum(map(len, tracing.TRACED.values()))
