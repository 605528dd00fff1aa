#!/usr/bin/env python3
"""Run the benchmark many times and save every run's result, for compare.py.

    python3 perfbench/collect.py --runs 10 --out results.json
    python3 perfbench/collect.py --runs 10 --out pair.json \\
        --checkout parent=../parent --checkout change=.

With one checkout (default: this one) it runs each workload ``--runs`` times,
seed ``--seed-base + i`` for run i. With two, run i of both sides uses the same
seed, and the side that goes first alternates from pair to pair. Runs are
sequential: one benchmark process at a time. The output holds the machine
description, BENCHMARK.json and, per side and workload, every run's last JSON
line plus its wall time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def machine_info() -> dict:
    probe = (
        "import json, numpy, scipy\n"
        "cfg = numpy.show_config(mode='dicts')\n"
        "blas = cfg.get('Build Dependencies', {}).get('blas', {})\n"
        "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,"
        " 'blas': blas.get('name', '?') + ' ' + str(blas.get('version', '?'))}))\n"
    )
    libs = json.loads(subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                     text=True, check=True).stdout)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        **libs,
        "blas_threads_in_workers": 1,
    }


def bench_digest(checkout: str) -> str:
    """Hash of BENCHMARK.json and the benchmark's files, to confirm both sides match."""
    with open(os.path.join(checkout, "BENCHMARK.json"), "rb") as fh:
        paths = json.loads(fh.read())["paths"]
    h = hashlib.sha256()
    files = [os.path.join(checkout, "BENCHMARK.json")]
    for rel in paths:
        for dirpath, dirnames, filenames in os.walk(os.path.join(checkout, rel)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        h.update(os.path.relpath(path, checkout).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def one_run(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"seed": seed, "error": proc.stderr[-2000:], "wall_s": wall}
    doc = json.loads(lines[-1])
    doc.update(seed=seed, wall_s=wall)
    return doc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--checkout", action="append", default=[], metavar="LABEL=DIR")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    sides = [c.split("=", 1) for c in args.checkout] or [["this", ROOT]]
    sides = [(label, os.path.abspath(d)) for label, d in sides]
    with open(os.path.join(sides[0][1], "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    digests = {label: bench_digest(d) for label, d in sides}
    if len(set(digests.values())) > 1:
        print(f"warning: the benchmark differs between checkouts: {digests}", file=sys.stderr)
    workloads = [w["name"] for w in bench["workloads"]]

    doc = {"machine": machine_info(), "benchmark": bench, "digests": digests,
           "sides": {label: {w: [] for w in workloads} for label, _ in sides}}
    for workload in workloads:
        for i in range(args.runs):
            order = sides if i % 2 == 0 else sides[::-1]
            for label, checkout in order:
                r = one_run(checkout, workload, args.seed_base + i, bench["run_seconds"])
                doc["sides"][label][workload].append(r)
                status = "error" if "error" in r else f"correct={r['correct']}"
                print(f"{workload} run {i} {label}: {status} {r['wall_s']:.1f}s", file=sys.stderr)
                with open(args.out, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
