"""Compare two sets of benchmark runs, one row per (workload, end-to-end metric).

Usage::

    python3 bench/compare.py before.jsonl after.jsonl

Each file holds run records as ``bench/run.py --record`` appends them; only
untraced runs count. A row shows each side's run count, median and
quartiles, the change of the median, and one verdict, using the metric's
``bound`` from BENCHMARK.json:

- ``unresolved``: either side's quartile spread, as a share of its median,
  exceeds the bound, and the runs of the two sides interleave;
- ``worse``: the second median is worse than the first by more than the bound;
- ``better``: the second median is better by more than the first side's
  quartile spread, and the second side wins at least nine tenths of the
  run pairs (runs paired in file order);
- ``unchanged``: otherwise.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def load(path) -> dict:
    """{workload: {metric: [values in file order]}} from untraced run records."""
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("trace"):
            continue
        per = out.setdefault(rec["workload"], {})
        for name, m in rec["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(a, b, bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0  # positive worsening = worse
    q1a, med_a, q3a = quartiles(a)
    _, med_b, _ = quartiles(b)
    worsening = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "worse"
        return "unresolved"
    if worsening > bound:
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if sign * (med_a - med_b) > q3a - q1a and wins >= 0.9 * len(pairs):
        return "better"
    return "unchanged"


def compare(first: dict, second: dict) -> list[dict]:
    rows = []
    for wl in [w["name"] for w in SPEC["workloads"]]:
        if wl not in first or wl not in second:
            continue
        for m in SPEC["end_to_end"]:
            a, b = first[wl].get(m["name"]), second[wl].get(m["name"])
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            rows.append({
                "workload": wl, "metric": m["name"], "unit": m["unit"], "bound": m["bound"],
                "first": {"runs": len(a), "q1": qa[0], "median": qa[1], "q3": qa[2], "spread": spread(a)},
                "second": {"runs": len(b), "q1": qb[0], "median": qb[1], "q3": qb[2], "spread": spread(b)},
                "change": (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0,
                "verdict": verdict(a, b, m["bound"], m["better"]),
            })
    return rows


def _fmt(side):
    return f"{side['median']:.4g} [{side['q1']:.4g}, {side['q3']:.4g}] n={side['runs']} sp={side['spread']:.3f}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write("usage: compare.py FIRST.jsonl SECOND.jsonl\n")
        return 2
    rows = compare(load(argv[0]), load(argv[1]))
    print(f"{'workload':16} {'metric':12} {'unit':6} {'bound':>6}  {'first: median [q1, q3]':44} "
          f"{'second: median [q1, q3]':44} {'change':>8}  verdict")
    for r in rows:
        print(f"{r['workload']:16} {r['metric']:12} {r['unit']:6} {r['bound']:6.3f}  {_fmt(r['first']):44} "
              f"{_fmt(r['second']):44} {r['change']:+8.3f}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
