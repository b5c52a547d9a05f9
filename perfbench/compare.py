"""Compare two sets of benchmark runs, refusing cross-host comparisons.

    python3 perfbench/compare.py BEFORE.txt AFTER.txt

Each file holds the captured output of any number of ``run.py`` runs;
only their ``perfbench-record`` lines are read.  For every workload and
end-to-end metric the medians and quartile spreads of both sides are
printed beside the bound from ``BENCHMARK.json``.  A metric is
``worse`` when the after-median is worse than the before-median by more
than its bound, and ``unresolved`` when either side's spread exceeds the
bound.  Records from different hosts, toolchains or benchmark code are
refused (exit 2) rather than compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Fingerprint fields that must agree for two records to be comparable
#: (``git_sha``/``src_sha256`` are what a comparison is *about*).
HOST_FIELDS = ("cpu", "nproc", "python", "numpy", "scipy", "backend",
               "bench_sha256")


def load_records(path: str) -> list[dict]:
    records = []
    for line in Path(path).read_text().splitlines():
        if '"perfbench-record"' not in line:
            continue
        record = json.loads(line)
        if record.get("kind") == "perfbench-record" and not record["trace"]:
            records.append(record)
    return records


def host(record: dict) -> tuple:
    return tuple(record["fingerprint"].get(k) for k in HOST_FIELDS)


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def _values(records: list[dict], workload: str, name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in records
            if r["workload"] == workload]


def compare(before: list[dict], after: list[dict], bench: dict) -> list[dict]:
    hosts = {host(r) for r in before + after}
    if len(hosts) > 1:
        raise ValueError(
            "records come from different hosts or benchmark code: "
            + "; ".join(str(dict(zip(HOST_FIELDS, h))) for h in sorted(hosts, key=str))
        )
    rows = []
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            b, a = _values(before, w["name"], name), _values(after, w["name"], name)
            if not (a and b):
                continue
            mb, ma = statistics.median(b), statistics.median(a)
            change = (ma - mb) / mb if mb else 0.0
            if m["better"] == "lower":
                worse, all_better = change > bound, max(a) < min(b)
            else:
                worse, all_better = -change > bound, min(a) > max(b)
            if max(spread(a), spread(b)) > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "worse" if worse else "ok"
            rows.append({
                "workload": w["name"], "metric": name, "unit": m["unit"],
                "before": mb, "after": ma, "change": change, "bound": bound,
                "runs": (len(b), len(a)), "verdict": verdict,
            })
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    try:
        rows = compare(load_records(argv[0]), load_records(argv[1]), bench)
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    for r in rows:
        print(f"{r['workload']:<14} {r['metric']:<18} {r['before']:>12.5g} -> "
              f"{r['after']:<12.5g} {r['unit']:<6} {100 * r['change']:+7.2f}% "
              f"(bound {100 * r['bound']:.0f}%, runs {r['runs'][0]}/{r['runs'][1]}) "
              f"{r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
