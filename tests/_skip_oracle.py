"""Every fast-forward checked against stepping, state by state.

``install(monkeypatch)`` wraps ``SimState._skip``.  Before each call it
deep-copies the state; after a successful skip it steps the copy, which
never skips (its fire log is ``None``), to the skipped state's cycle and
compares the two: the cycle, the live-out values still missing, memory, the
load count, dropped retags, the pending arrivals and completions, the units
to visit and the emitters, the primary unit's issue cycles, and per unit the
fire count, stall total, buffers, emit count, held results, ``since`` and
its row.  A skip may clear the row ids that no consumer reads any more
(never on a live-out's row); every other id must hold the stepped value.

The copy steps the same kernel, so this checks the skip against stepping;
``tests/_stepper_oracle.py`` checks the kernel itself.
"""

import copy

from loopgrid import sim


class Tally:
    def __init__(self):
        self.skips = 0
        self.mismatches = []  # (cycle after the skip, the fields that differ)


def same(a, b) -> bool:
    """Equal values, a nan equal to itself."""
    return a is b or a == b or (a != a and b != b)


def issues(state) -> list[int]:
    """The primary unit's issue cycles, each skip's runs counted in place."""
    count = len(state.primary_issues) + sum(len(r[1]) * r[3] for r in state.issue_runs)
    return [state._issue(q) for q in range(count)]


def completions(state) -> dict[int, list]:
    """Pending completions with each unit named by its index."""
    return {a: [(u.index, t) for u, t in es] for a, es in state.completions.items()}


def differences(stepped, skipped) -> list[str]:
    """The names of the fields in which the skipped state differs."""
    wrong = []

    def check(name, a, b):
        if a != b:
            wrong.append(name)

    check("cycle", stepped.cycle, skipped.cycle)
    check("missing", stepped._missing, skipped._missing)
    check("mem_outstanding", stepped.mem_outstanding, skipped.mem_outstanding)
    check("dropped_retags", stepped.dropped_retags, skipped.dropped_retags)
    check("arrivals", stepped.arrivals, skipped.arrivals)
    check("completions", completions(stepped), completions(skipped))
    check("wake", stepped._wake, skipped._wake)
    check("emit", stepped._emit, skipped._emit)
    check("issues", issues(stepped), issues(skipped))
    if (stepped.memory.keys() != skipped.memory.keys()
            or not all(same(v, skipped.memory[a]) for a, v in stepped.memory.items())):
        wrong.append("memory")
    for a, b in zip(stepped.units, skipped.units):
        nid = a.node.id
        check(f"fires {nid}", a.fires, b.fires)
        check(f"stalls {nid}", stepped._stall_total(a), skipped._stall_total(b))
        check(f"since {nid}", a.since, b.since)
        check(f"buffers {nid}", a.buffers, b.buffers)
        check(f"emitted {nid}", a.emitted, b.emitted)
        check(f"held {nid}", a.held, b.held)
        # the lowest id a consumer still reads; the skip clears none at or above it
        low = b.fires
        for u in skipped.units:
            for p, d, _ in u.sources:
                if p == b.index:
                    low = min(low, u.fires - d)
        if b.liveout:
            low = 0
        if not all(same(x, y) or (y is None and t < low)
                   for t, (x, y) in enumerate(zip(a.row, b.row))):
            wrong.append(f"row {nid}")
    return wrong


def install(monkeypatch) -> Tally:
    """Check every successful ``SimState._skip`` from here on."""
    tally = Tally()
    skip = sim.SimState._skip

    def checked(self, saved):
        stepped = copy.deepcopy(self)
        if not skip(self, saved):
            return False
        tally.skips += 1
        stepped._log = None
        while stepped.cycle < self.cycle:
            stepped.step()
        wrong = differences(stepped, self)
        if wrong:
            tally.mismatches.append((self.cycle, wrong))
        return True

    monkeypatch.setattr(sim.SimState, "_skip", checked)
    return tally
