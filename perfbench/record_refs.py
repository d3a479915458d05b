#!/usr/bin/env python3
"""Record the reference outputs that every benchmark run is checked against.

Run from the repository root, only when outputs are meant to change::

    python3 perfbench/record_refs.py

For each size it runs every workload's fixed-seed reference realizations
and one analytic pass, checks them against the cross-route bounds, and
writes ``perfbench/refs/<size>.json``.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    run.cap_threads()
    for size in workloads.SIZES.values():
        recorded = {}
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(0, size, run.WORKDIR / name, refs=None)
            ops = wl.reference_check()
            if name == "analytic_curves":
                ops += wl.step(0)
            errors = [op.error for op in ops if op.error]
            if errors:
                print("\n".join(errors), file=sys.stderr)
                return 1
            recorded.update(wl.recorded)
        path = workloads.REFS_DIR / f"{size.name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(recorded, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path} ({len(recorded)} outputs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
