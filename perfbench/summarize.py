"""Summarize run records from perfbench/out/ as markdown tables.

    python3 perfbench/summarize.py [RECORD.json ...]

With no arguments every record in perfbench/out/ is read. For each workload
and each end-to-end metric it prints the run count, the median, the quartiles
(statistics.quantiles, n=4) and the quartile spread as a share of the median.
Traced runs give the per-layer medians and the tracing overhead. A traced
run times one block per workload, the first in its process, so it is set
against the first block of the untraced runs, which is slower than the rest.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (Q3 - Q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(paths: list[str]) -> int:
    files = [Path(p) for p in paths] or sorted(OUT.glob("*.json"))
    records = [json.loads(f.read_text()) for f in files]
    untraced, traced = defaultdict(list), []
    for rec in records:
        if rec["trace"]:
            traced.append(rec)
        else:
            untraced[rec["workload"]].append(rec)

    print("| workload | metric | runs | median | Q1 | Q3 | (Q3-Q1)/median |")
    print("|---|---|---|---|---|---|---|")
    first_block = {
        workload: statistics.median(
            r["detail"]["items_per_block"] / r["detail"]["block_s"][0] for r in recs
        )
        for workload, recs in untraced.items()
    }
    for workload, recs in sorted(untraced.items()):
        for name in recs[0]["summary"]["metrics"]:
            values = [r["summary"]["metrics"][name]["value"] for r in recs]
            unit = recs[0]["summary"]["metrics"][name]["unit"]
            med, q1, q3, share = spread(values)
            print(f"| {workload} | {name} ({unit}) | {len(values)} | {med:.6g} | {q1:.6g} | {q3:.6g} | {share:.3f} |")
    print()
    print("| workload | failed/attempted | blocks per run | steal s per run | cpu/wall in window |")
    print("|---|---|---|---|---|")
    for workload, recs in sorted(untraced.items()):
        failed = sum(r["summary"]["failed"] for r in recs)
        attempted = sum(r["summary"]["attempted"] for r in recs)
        blocks = statistics.median(len(r["detail"]["block_s"]) for r in recs)
        steal = [r["detail"]["window_steal_s"] for r in recs if r["detail"]["window_steal_s"] is not None]
        busy = statistics.median(r["detail"]["window_cpu_s"] / r["detail"]["window_s"] for r in recs)
        steal_text = f"{statistics.median(steal):.2f} (max {max(steal):.2f})" if steal else "n/a"
        print(f"| {workload} | {failed}/{attempted} | {blocks:g} | {steal_text} | {busy:.3f} |")
    if traced:
        print()
        print("| per-layer metric | unit | traced runs | median | Q1 | Q3 |")
        print("|---|---|---|---|---|---|")
        for name, first in traced[0]["summary"]["metrics"].items():
            values = [r["summary"]["metrics"][name]["value"] for r in traced]
            med, q1, q3, _ = spread(values)
            print(f"| {name} | {first['unit']} | {len(values)} | {med:.6g} | {q1:.6g} | {q3:.6g} |")
        print()
        print("| workload | traced block items/s (median) | untraced first block items/s (median) | overhead |")
        print("|---|---|---|---|")
        for workload in traced[0]["detail"]["traced_items_per_s"]:
            t = statistics.median(r["detail"]["traced_items_per_s"][workload] for r in traced)
            u = first_block.get(workload)
            if u is None:
                print(f"| {workload} | {t:.6g} | n/a | n/a |")
            else:
                print(f"| {workload} | {t:.6g} | {u:.6g} | {u / t - 1:+.1%} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
