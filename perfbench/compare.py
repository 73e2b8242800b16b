"""Compare benchmark records of two commits, metric by metric.

    python3 perfbench/compare.py --base a/*.json --new b/*.json

Records are the JSON files run.py writes to perfbench/out/. Each side's
runs are grouped by (workload, trace); per metric the medians and the
change against the bound in BENCHMARK.json are printed. Records whose
environment stamps differ are refused (exit 2): numba alone moves kernel
numbers by orders of magnitude.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import checkout


class StampMismatch(ValueError):
    pass


def load(paths) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def common_stamp(records: list[dict]) -> dict:
    stamps = {json.dumps(r["stamp"], sort_keys=True) for r in records}
    if len(stamps) != 1:
        raise StampMismatch("runs with different environment stamps: " + " vs ".join(sorted(stamps)))
    return records[0]["stamp"]


def grouped(records: list[dict]) -> dict:
    out = defaultdict(lambda: defaultdict(list))
    for r in records:
        for name, m in r["metrics"].items():
            out[(r["workload"], r["trace"])][name].append(m["value"])
    return out


def compare(base: list[dict], new: list[dict], bench: dict) -> list[str]:
    common_stamp(base + new)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    b, n = grouped(base), grouped(new)
    lines = [f"{'workload':<14}{'metric':<28}{'base':>12}{'new':>12}{'change':>9}  verdict"]
    for key in sorted(b.keys() & n.keys()):
        for name in sorted(b[key].keys() & n[key].keys()):
            bm, nm = statistics.median(b[key][name]), statistics.median(n[key][name])
            change = (nm - bm) / bm if bm else 0.0
            m = spec.get(name, {})
            worse = -change if m.get("better") == "higher" else change
            bound = m.get("bound")
            verdict = "" if bound is None else ("REGRESSION" if worse > bound else "ok")
            lines.append(f"{key[0]:<14}{name:<28}{bm:>12.5g}{nm:>12.5g}{change:>+9.1%}  {verdict}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark records.")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    try:
        lines = compare(load(args.base), load(args.new), bench)
    except StampMismatch as err:
        print(f"refusing to compare: {err}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
