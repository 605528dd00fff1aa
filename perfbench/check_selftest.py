#!/usr/bin/env python3
"""Show that the benchmark's output checks fail on a wrong expected value.

    python3 perfbench/check_selftest.py

1. For every value recorded in expected.json, a copy with only that value
   changed must be rejected by the reference check, and the recorded values
   themselves must pass.
2. For each workload, a one-second benchmark run against an expected file with
   one wrong value must report ``correct: false`` with at least one failed
   operation, and a run against the true file must report ``correct: true``.

The checks that compare repeated runs with each other (bit-identical loss
histories and predictions, byte-identical CLI output) have no expected value
to break; they are exercised by changing the program instead (see README.md).
Exits 0 when every check behaved as required.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402

EXPECTED = os.path.join(HERE, "expected.json")


def leaves(doc, path=()):
    if isinstance(doc, dict):
        for k in sorted(doc):
            yield from leaves(doc[k], path + (k,))
    else:
        yield path


def perturbed(doc, path):
    doc = copy.deepcopy(doc)
    node = doc
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = node[path[-1]] * (1 + 1e-3) + 1e-3
    return doc


def unit_checks(expected) -> list[str]:
    bad = []
    for workload, want in expected.items():
        if worker.reference_problems(workload, want, want):
            bad.append(f"{workload}: recorded values do not pass their own check")
        for path in leaves(want):
            if not worker.reference_problems(workload, perturbed(want, path), want):
                bad.append(f"{workload}.{'.'.join(path)}: a wrong value was not caught")
    return bad


def run(workload, expected_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0", "--expected", expected_path],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end_checks(expected) -> list[str]:
    bad = []
    tmp = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp, exist_ok=True)
    for workload, want in expected.items():
        path = next(iter(leaves(want)))
        wrong = dict(expected, **{workload: perturbed(want, path)})
        wrong_path = os.path.join(tmp, f"selftest-{workload}.json")
        with open(wrong_path, "w", encoding="utf-8") as fh:
            json.dump(wrong, fh)
        try:
            got = run(workload, wrong_path)
        finally:
            os.remove(wrong_path)
        caught = not got["correct"] and got["failed"] >= 1
        print(f"{workload}: wrong {'.'.join(path)} -> correct={got['correct']} "
              f"failed={got['failed']}/{got['attempted']}")
        if not caught:
            bad.append(f"{workload}: a run with a wrong expected value passed")
        got = run(workload, EXPECTED)
        print(f"{workload}: recorded values -> correct={got['correct']} "
              f"failed={got['failed']}/{got['attempted']}")
        if not got["correct"]:
            bad.append(f"{workload}: a run with the recorded values failed")
    return bad


def main() -> int:
    with open(EXPECTED, "r", encoding="utf-8") as fh:
        expected = json.load(fh)
    n = sum(1 for w in expected.values() for _ in leaves(w))
    bad = unit_checks(expected)
    print(f"{n} recorded values: each perturbed alone, {n - len(bad)} caught")
    bad += end_to_end_checks(expected)
    for line in bad:
        print(f"FAIL {line}")
    print("all checks caught their wrong values" if not bad else "some checks did not")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
