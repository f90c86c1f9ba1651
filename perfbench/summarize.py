#!/usr/bin/env python3
"""Reduce benchmark runs: each metric's median, quartiles and spread across
runs, per workload, and whether exact counts agree between runs of a seed.

    python3 perfbench/summarize.py [--since NS] [--reports DIR]

Reads the records `run.py` leaves in `.bench_out/reports/` (only those
written after `--since`, a time.time_ns() value, if given). The spread is
(q3 - q1) / median with the quartiles of Python's
`statistics.quantiles(values, n=4)`; a `!` marks a spread above a third of
the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--reports", default=str(ROOT / ".bench_out" / "reports"))
    p.add_argument("--since", type=int, default=0)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    runs = defaultdict(list)
    for path in sorted(Path(args.reports).glob("*.json")):
        if int(path.name.split("-")[0]) < args.since:
            continue
        r = json.loads(path.read_text())
        runs[(r["workload"], r["trace"])].append(r)

    hosts = set()
    for (workload, trace), rs in sorted(runs.items()):
        seeds = sorted({r["seed"] for r in rs})
        print(f"== {workload} trace {trace}: {len(rs)} run(s), seeds {seeds}")
        print(f"  {'metric':32} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
              f"{'bound':>6}")
        for name in rs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in rs if name in r["metrics"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "!" if bound and name != "setup_s" and spread > bound / 3 else ""
            print(f"  {name:32} {len(vals):3} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6} {flag}")
        by_seed = defaultdict(list)
        for r in rs:
            by_seed[r["seed"]].append((r["counts"], r["digest"]))
            hosts.add(json.dumps(r.get("host"), sort_keys=True))
        drift = [s for s, cs in by_seed.items() if any(c != cs[0] for c in cs)]
        repeated = sum(1 for cs in by_seed.values() if len(cs) > 1)
        print(f"  exact counts: {repeated} seed(s) run more than once, "
              f"{'drift on seeds ' + str(drift) if drift else 'all identical'}")
        failed = [r for r in rs if not r["result"]["correct"] or r["result"]["failed"]]
        print(f"  runs with failures: {len(failed)}")
    for h in hosts:
        print(f"host: {h}")


if __name__ == "__main__":
    main()
