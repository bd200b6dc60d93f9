"""Recompute perfbench/digests.json from the program as it stands.

Run only when a change is meant to alter outputs, and say so in the
change: the digests are the benchmark's definition of a correct output.

    python3 perfbench/freeze.py
"""

import json
import math

import workloads as wl


def main() -> int:
    table = {}
    for name, workload in wl.WORKLOADS.items():
        table[name] = {}
        for seed in wl.FROZEN_SEEDS:
            session = workload.reference(seed)
            records, _ = wl.closed_loop(session, math.inf, max_ops=session.size)
            if any(r[3] is None for r in records):
                raise SystemExit(f"{name} seed {seed}: an operation raised")
            table[name][str(seed)] = [r[3] for r in records]
            print(f"{name} seed {seed}: {len(records)} digests")
    wl.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
