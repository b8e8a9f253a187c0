"""Run one loopgrid CLI command as the ``loopgrid`` console script does
(``sys.exit(loopgrid.cli.main())``) and report where its process spent
time and memory.

Every cli-oneshot op runs this file.  The last line on stderr is a JSON
object: the CLOCK_MONOTONIC marks of when the interpreter reached this
file, when ``loopgrid.cli`` was imported and when the command returned
with stdout flushed, and the process's own peak resident set in KiB.
"""

import sys
import time

start = time.monotonic()
import loopgrid.cli  # noqa: E402

imported = time.monotonic()
rc = loopgrid.cli.main(sys.argv[1:])
sys.stdout.flush()
done = time.monotonic()

import json  # noqa: E402


def peak_kb() -> int:
    # VmHWM counts this address space only; ru_maxrss would also keep the
    # peak of the parent's address space that exec replaced
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


sys.stderr.write(json.dumps({"start": start, "imported": imported, "done": done,
                             "peak_kb": peak_kb()}) + "\n")
sys.exit(rc)
