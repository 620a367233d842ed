"""Compatibility names left from the retired exec-codegen engine.

Cone-sliced probe replay now lives on
:class:`~repro.netlist.compiled.CompiledKernel`; nothing in the package
imports this module.
"""

from __future__ import annotations

# perfbench/layers.py wraps ConeRunner.step under this module path
from repro.netlist.compiled import ConeRunner

__all__ = ["ConeRunner", "set_active_kernel_cache"]


def set_active_kernel_cache(cache) -> None:
    """No-op kept for perfbench/child.py, which still installs a cache."""
