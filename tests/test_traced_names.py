"""Every name the benchmark's traced run wraps still exists in the program.

``perfbench/traced.py`` swaps each ``(module, name)`` of its ``LAYER_CALLS``
for a span-recording wrapper and fails the traced op when one is missing.
This test reads that table, without running anything else from the
benchmark, so a refactor that drops a traced name fails here first.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def test_every_layer_call_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    missing = [f"{module}.{name}" for module, name, _ in traced.LAYER_CALLS
               if not hasattr(importlib.import_module(module), name)]
    assert traced.LAYER_CALLS
    assert missing == []
