#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or check the spread of one set.

    python3 perfbench/compare.py pair.json                  # two sides in one file
    python3 perfbench/compare.py parent.json change.json    # one side per file
    python3 perfbench/compare.py results.json --spread      # one set: is it steady?

Inputs are files written by collect.py. A run is "good" when it ended without
an error and reported ``correct: true``. Runs are paired by seed (by position
when the two sides used different seeds). For every workload it first compares
failed operations (a run that errored counts as one): a change that fails more
than the parent is a ``regression`` of the workload. Then, for every
end-to-end metric, it prints each side's median and quartiles
(``statistics.quantiles``, n=4) over its good runs (``ok_frac`` over all
runs), the pairs the change won (a pair with a bad run on either side is lost;
ties count for neither), and a verdict against the metric's bound from
BENCHMARK.json:

* ``gain``: the change won at least 9 of every 10 pairs, the medians differ by
  more than the parent's interquartile distance, and the change fails no more
  operations than the parent;
* ``regression``: the change's median is worse than the parent's by more than
  the bound (a share of the parent's median);
* ``unresolved``: the parent's own spread (interquartile distance over median)
  exceeds the bound, unless every change run beats every parent run;
* ``within bound``: none of these.

With ``--spread`` it prints, for one set, each metric's interquartile distance
as a share of its median next to the bound, and flags spreads above a third of
the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def good(run):
    return "metrics" in run and run.get("correct", False)


def values_of(runs, metric):
    """A metric's values over the good runs; ok_frac over every run (0 if it errored)."""
    if metric == "ok_frac":
        return [r["metrics"][metric]["value"] if "metrics" in r else 0.0 for r in runs]
    return [r["metrics"][metric]["value"] for r in runs if good(r)]


def failures(runs):
    """Failed operations over a side's runs; a run that errored counts as one."""
    return sum(r["failed"] if "metrics" in r else 1 for r in runs)


def paired(parent, change):
    """(parent run, change run) by seed, or by position when no seed is shared."""
    by_seed = {r["seed"]: r for r in change}
    if any(p["seed"] in by_seed for p in parent):
        return [(p, by_seed[p["seed"]]) for p in parent if p["seed"] in by_seed]
    return list(zip(parent, change))


def better(a, b, direction):
    """True when a is better than b."""
    return a < b if direction == "lower" else a > b


def verdict(parent_runs, change_runs, spec, more_failures):
    name, direction, bound = spec["name"], spec["better"], spec["bound"]
    parent, change = values_of(parent_runs, name), values_of(change_runs, name)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = paired(parent_runs, change_runs)
    wins = sum(good(p) and good(c) and better(c["metrics"][name]["value"],
                                              p["metrics"][name]["value"], direction)
               for p, c in pairs)
    all_better = bool(parent and change) and all(
        better(c, p, direction) for c in change for p in parent)
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    worse_by = (cm - pm) / abs(pm) if direction == "lower" else (pm - cm) / abs(pm)
    if (pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > (p3 - p1)
            and not more_failures):
        v = "gain"
    elif worse_by > bound:
        v = "regression"
    elif spread > bound and not all_better:
        v = "unresolved"
    else:
        v = "within bound"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins, "pairs": len(pairs),
            "parent_spread": spread, "worse_by": worse_by, "verdict": v}


def fmt(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("files", nargs="+")
    ap.add_argument("--spread", action="store_true", help="check the spread of one set")
    ap.add_argument("--parent", default=None, help="side label of the parent (two-side file)")
    args = ap.parse_args()

    docs = [load(p) for p in args.files]
    specs = docs[0]["benchmark"]["end_to_end"]
    sides = [(label, runs) for d in docs for label, runs in d["sides"].items()]

    if args.spread:
        steady = True
        for label, by_workload in sides:
            print(f"# {label}")
            for workload, runs in by_workload.items():
                bad = [r for r in runs if not good(r)]
                print(f"{workload}: {len(runs)} runs, {len(bad)} failed or incorrect")
                steady &= not bad
                for spec in specs:
                    vals = values_of(runs, spec["name"])
                    q1, qm, q3 = quartiles(vals)
                    spread = (q3 - q1) / abs(qm) if qm else float("inf")
                    bound = spec["bound"]
                    flag = ""
                    if spec["name"] != "setup_s" and spread > bound / 3:
                        flag = "  <-- above a third of the bound"
                        steady = False
                    print(f"  {spec['name']:<38} {fmt((q1, qm, q3)):<44} "
                          f"spread {spread:7.2%}  bound {bound:.2f}{flag}")
        print("steady" if steady else "NOT steady")
        return 0

    if len(sides) != 2:
        print("error: need exactly two sides (parent and change)", file=sys.stderr)
        return 1
    if args.parent and sides[1][0] == args.parent:
        sides.reverse()
    (plabel, parent), (clabel, change) = sides
    print(f"parent = {plabel}, change = {clabel}; median [q1, q3]")
    for workload in parent:
        p_runs, c_runs = parent[workload], change.get(workload, [])
        p_fail, c_fail = failures(p_runs), failures(c_runs)
        more_failures = c_fail > p_fail
        print(f"== {workload}: failed operations parent {p_fail}, change {c_fail}"
              + ("  -> regression (no gain counts)" if more_failures else ""))
        for spec in specs:
            if not values_of(p_runs, spec["name"]) or not values_of(c_runs, spec["name"]):
                print(f"  {spec['name']:<24} missing: no good run on one side")
                continue
            r = verdict(p_runs, c_runs, spec, more_failures)
            print(f"  {spec['name']:<24} parent {fmt(r['parent']):<40} change {fmt(r['change']):<40} "
                  f"won {r['wins']}/{r['pairs']}  worse by {r['worse_by']:+.2%}  "
                  f"parent spread {r['parent_spread']:.2%}  -> {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
