"""Summarize the results that benchmark runs left in bench_out/.

    python3 bench/summarize.py [--seeds 1-10] > summary.json

Prints one JSON object: the distinct environments the runs recorded, and for
each kind of run (end_to_end for --trace 0, per_layer for --trace 1),
workload and metric, the seeds, the per-run values and their median; and,
given two runs or more, their first and third quartiles and spread (quartile
distance over the median), as statistics.quantiles(values, n=4) gives them.
bench/baseline.json was made this way.
"""
from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent.parent / "bench_out"
KINDS = ("end_to_end", "per_layer")


def stats(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def summarize(results: list[dict]) -> dict:
    environments = []
    runs: dict[str, dict[str, list[dict]]] = {kind: {} for kind in KINDS}
    for result in results:
        if result["environment"] not in environments:
            environments.append(result["environment"])
        runs[KINDS[result["trace"]]].setdefault(result["workload"], []).append(result)
    summary: dict = {"environments": environments}
    for kind in KINDS:
        summary[kind] = {}
        for workload, group in sorted(runs[kind].items()):
            group.sort(key=lambda r: r["seed"])
            entry = {"seeds": [r["seed"] for r in group], "seconds": group[0]["seconds"],
                     "failed": sum(r["failed"] for r in group)}
            for name, metric in group[0]["metrics"].items():
                entry[name] = {"unit": metric["unit"],
                               **stats([r["metrics"][name]["value"] for r in group])}
            summary[kind][workload] = entry
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="", help="inclusive range such as 1-10; default all")
    args = parser.parse_args()
    low, _, high = args.seeds.partition("-")
    results = []
    for path in sorted(OUT_DIR.glob("result-*.json")):
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        if not args.seeds or int(low) <= result["seed"] <= int(high or low):
            results.append(result)
    print(json.dumps(summarize(results), indent=1))


if __name__ == "__main__":
    main()
