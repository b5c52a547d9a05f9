"""Fresh-interpreter entry points the benchmark runner starts.

``child.py setup <workload> <seed> <work> <sizes.json>``
    Run the workload's real operation and, at the first simulated round,
    print ``READY`` and exit at once.  The runner times the interpreter
    from spawn to that line: set-up time.
``child.py cli <stamp> <trace.json | -> <repro argv...>``
    Run ``repro <argv>`` in-process, as ``python -m repro`` would, and
    write the wall-clock epoch of the first simulated round to
    ``stamp``.  With a trace path, run it under :class:`layers.Tracer`
    and write the tracer's aggregates there.
``child.py import <module>``
    Print the seconds one import of ``module`` takes in this interpreter.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from pathlib import Path


def _on_first_round(callback) -> None:
    """Call ``callback`` once, when the first round of any engine starts."""
    from repro.simulation.engine import SimulationEngine

    run_round = SimulationEngine.run_round
    pending = [callback]

    def first_round_hook(engine):
        if pending:
            pending.pop()()
        return run_round(engine)

    SimulationEngine.run_round = first_round_hook


def _setup(name: str, seed: int, work: Path, params: dict) -> int:
    def ready():
        sys.stdout.write("READY\n")
        sys.stdout.flush()
        os._exit(0)

    _on_first_round(ready)
    from workloads import Fig3Sweep, sized

    workload = sized(name, params)
    if isinstance(workload, Fig3Sweep):
        from repro.cli import main

        main(workload.sweep_argv(seed, work / "sweep.jsonl"))
    else:
        workload.operation(seed, work)
    print("no simulated round was reached", file=sys.stderr)
    return 1


def _cli(stamp: Path, trace: str, argv: list[str]) -> int:
    first: list[float] = []
    _on_first_round(lambda: first.append(time.time()))
    from repro.cli import main

    if trace == "-":
        rc = main(argv)
    else:
        from layers import Tracer

        with Tracer().install(sweep=True) as tracer:
            rc = main(argv)
        Path(trace).write_text(json.dumps(tracer.to_json()))
    if first:
        stamp.write_text(repr(first[0]))
    return rc


def _import(module: str) -> int:
    t0 = time.perf_counter()
    importlib.import_module(module)
    print(repr(time.perf_counter() - t0))
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        return _setup(rest[0], int(rest[1]), Path(rest[2]), json.loads(rest[3]))
    if mode == "cli":
        return _cli(Path(rest[0]), rest[1], rest[2:])
    if mode == "import":
        return _import(rest[0])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
