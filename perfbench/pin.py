"""Regenerate ``pins.json``: the output digest of every pooled input.

    python3 perfbench/pin.py [workload ...]

Run it only when a change is meant to alter simulated outputs, and say
so in that change; the benchmark counts every operation whose digests
differ from these pins as failed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import PINS_PATH, POOL, SRC, WORKLOADS, Fig3Sweep  # noqa: E402


def pins_for(workload, work: Path) -> dict[str, str]:
    if isinstance(workload, Fig3Sweep):
        # One sweep over the whole seed pool pins every cell at once.
        whole = Fig3Sweep(workload.protocols, workload.lambdas,
                          workload.rounds, n_seeds=POOL)
        return whole.operation(0, work).digests
    pins: dict[str, str] = {}
    for seed in range(POOL):
        pins.update(workload.operation(seed, work).digests)
    return pins


def main(names: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.is_file() else {}
    work = HERE / "_work" / "pin"
    try:
        for name in names or sorted(WORKLOADS):
            work.mkdir(parents=True, exist_ok=True)
            pins[name] = dict(sorted(pins_for(WORKLOADS[name], work).items()))
            print(f"pinned {name}: {len(pins[name])} digests")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
