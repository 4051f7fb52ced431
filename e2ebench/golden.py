"""Rewrite ``golden.json``: the simulated clock and engine counters of each
workload at the golden seed.

    python3 e2ebench/golden.py

Every benchmark run at the golden seed fails any sample that differs
from these values, so rewrite them only for a change that is meant to
alter the simulation, and say so in its description.
"""

from __future__ import annotations

import json
import shutil
import sys
from time import monotonic

from run import GOLDEN_SEED, HERE, ROOT, WORKLOADS, run_child


def main() -> int:
    golden = {}
    workdir = ROOT / ".e2ebench_work" / "golden"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in WORKLOADS:
            args = ["--workload", workload, "--seed", str(GOLDEN_SEED)]
            prepared, crash = run_child([*args, "--prepare"], 600.0)
            if prepared is None:
                raise SystemExit(f"{workload}: {crash}")
            record, crash = run_child(
                [*args, "--workdir", str(workdir),
                 "--expected", json.dumps(prepared["expected"]),
                 "--spawned", repr(monotonic())], 600.0)
            if record is None or record.get("errors"):
                raise SystemExit(f"{workload}: {crash or record['errors']}")
            golden[workload] = {"simulated_time": record["simulated_time"],
                                "counters": record["counters"]}
            print(f"{workload}: simulated {record['sim_s']:.9g} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    (HERE / "golden.json").write_text(json.dumps(golden, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
