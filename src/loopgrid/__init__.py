"""Cycle-level simulator and mapping toolchain for tagged-token loop
acceleration on a reconfigurable grid, plus trace-based loop analytics.

The public names below are loaded on first use (PEP 562), so importing the
package, or one submodule such as ``loopgrid.cli``, compiles only the
modules that are actually run."""

import importlib

_EXPORTS = {
    "ir": ("DataflowGraph", "DfgError", "Edge", "LiveIn", "Node", "Violation",
           "parse_dfg", "load_dfg", "format_dfg", "validate", "reference_execute"),
    "analysis": ("LoopCarriedDep", "LoopPattern", "find_deps", "classify"),
    "grid": ("GridSpec", "GridConfig", "default_grid", "place", "route", "map_graph"),
    "sim": ("MachineParams", "SimReport", "simulate", "steady_state_ii"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
