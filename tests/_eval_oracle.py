"""The if-chain ``loopgrid.ir.eval_op`` had before the ``ir.OPS`` table
replaced it, kept verbatim as a differential oracle for that table."""

from __future__ import annotations

import math

from loopgrid.ir import ExecError, wrap64


def eval_op(kind: str, a, b, memory: dict):
    """Evaluate one operation; shared by the interpreter and the simulator."""
    if kind == "add":
        r = a + b
        return wrap64(r) if isinstance(r, int) else r
    if kind == "sub":
        r = a - b
        return wrap64(r) if isinstance(r, int) else r
    if kind == "mul":
        r = a * b
        return wrap64(r) if isinstance(r, int) else r
    if kind == "cmp":
        return 1 if a < b else 0
    if kind in ("and", "or", "shift"):
        for x in (a, b):
            if isinstance(x, float) and not math.isfinite(x):
                raise ExecError("non-finite", f"'{kind}' needs an integer, got {x}")
        if kind == "and":
            return wrap64(int(a) & int(b))
        if kind == "or":
            return wrap64(int(a) | int(b))
        return wrap64(int(a) << (int(b) & 63))
    if kind == "fadd":
        return float(a) + float(b)
    if kind == "fmul":
        return float(a) * float(b)
    if kind == "fdiv":
        if float(b) == 0.0:
            raise ExecError("fdiv-zero", "float division by zero")
        return float(a) / float(b)
    if kind == "load":
        if a not in memory:
            raise ExecError("bad-address", f"load from unmapped address {a}")
        return memory[a]
    if kind == "store":
        memory[a] = b
        return b
    if kind == "control":
        # predicated pass-through: forward the value when the predicate holds
        return b if a else 0
    if kind in ("splitjoin", "sink"):
        return a
    raise ExecError("bad-kind", f"cannot evaluate kind '{kind}'")
