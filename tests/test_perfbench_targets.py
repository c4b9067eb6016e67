"""Every function the benchmark's tracer wraps still exists.

perfbench/layers.py names its targets as strings; one that no longer
resolves is skipped there and its metrics read null, so a rename shows
up here instead.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from layers import TARGETS, target_name  # noqa: E402


@pytest.mark.parametrize(
    "owner, attr", [(owner, attr) for owner, attr, _ in TARGETS], ids=lambda v: v
)
def test_target_resolves(owner, attr):
    module_name, _, class_name = owner.partition(":")
    holder = importlib.import_module(module_name)
    if class_name:
        holder = getattr(holder, class_name)
    assert hasattr(holder, attr), f"{target_name(owner, attr)} is gone"

