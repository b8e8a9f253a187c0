"""Cycle-level simulator and mapping toolchain for tagged-token loop
acceleration on a reconfigurable grid, plus trace-based loop analytics.

The public names below are loaded on first use (PEP 562), so importing the
package, or one submodule such as ``loopgrid.cli``, compiles only the
modules that are actually run.

Immutable records are ``typing.NamedTuple`` classes and mutable ones derive
from ``_Record``.  No module uses ``dataclasses``: its import (through
``inspect``) and the methods it generates and compiles for each record are
a large share of a one-shot command's run time."""

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


class _Record:
    """Base of the mutable records, which list their attributes in
    ``_fields`` as a ``NamedTuple`` does: equal only to an object of the same
    class whose fields compare equal as tuples (so a field holding ``nan``
    equals itself), unhashable, and shown as ``Name(field=value, ...)``."""

    _fields: tuple[str, ...] = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"


# the default of a container field: each instance gets a new, empty one
_FRESH = object()


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
