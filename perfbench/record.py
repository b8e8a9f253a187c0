"""Record ``expected.json``: the output digest of every op any seed can run.

    python3 perfbench/record.py

Runs each fixture op and every item of the generated pools once against
``src/`` of this checkout.  Re-record only when a change is meant to alter
outputs (or the generators change), and say so in the change; a change
that should keep outputs identical must pass against the old file.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import workloads  # noqa: E402


def all_specs(name: str, work: Path) -> list[dict]:
    specs = workloads.fixed_specs(name, work, ROOT)
    if name == "many-graphs":
        specs += [workloads.graph_spec("small", i) for i in range(gen.SMALL_POOL)]
        specs += [workloads.graph_spec(f"chain{d}", i)
                  for d in gen.CHAIN_DEPTHS for i in range(gen.CHAIN_POOL)]
    elif name == "trace-mine":
        specs += [workloads.trace_spec(kind, i, work)
                  for kind in workloads.TRACE_KINDS for i in range(gen.TRACE_POOL)]
    return specs


def main() -> int:
    import loopgrid

    if Path(loopgrid.__file__).resolve().parent.parent != (ROOT / "src").resolve():
        sys.exit(f"record: loopgrid resolves to {loopgrid.__file__}, not {ROOT}/src")
    work = ROOT / ".perfbench" / "record"
    work.mkdir(parents=True, exist_ok=True)
    expected = {}
    try:
        for name in workloads.WORKLOADS:
            t0 = time.monotonic()
            manifest = {"workload": name, "seed": None, "root": str(ROOT),
                        "ops": all_specs(name, work)}
            for op in workloads.load(manifest).ops:
                _counts, got, err = op.check(op.run())
                if err is not None:
                    sys.exit(f"record: {op.key}: {err}")
                expected[op.key] = got
            print(f"{name}: {len(manifest['ops'])} ops in {time.monotonic() - t0:.1f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    refused = sorted({v for v in expected.values() if v.startswith("refused:")})
    print(f"{len(expected)} digests; refusals recorded: {refused}")
    workloads.EXPECTED.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
