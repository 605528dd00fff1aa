#!/usr/bin/env python3
"""The demol benchmark.

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Run from the root of a source checkout. Each run generates its inputs from
``--seed`` (gen.py), starts fresh worker processes (worker.py) with
PYTHONPATH set to the checkout's ``src``, and checks the program's outputs.
It prints the workload's metrics by name and unit, then, as the last line of
stdout, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer metrics with ``--trace 1``. All files it makes stay in the
checkout: inputs under ``.perfbench_tmp/`` (removed at exit) and span files
under ``.perfbench_out/``.

Load is one closed loop: one operation at a time, each started when the
previous one ends. Workers run with one BLAS thread so that runs on a shared
two-CPU machine stay comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import layers  # noqa: E402

SETUP_PROBES = 7  # set-up-only workers per run; setup_s is their median
WORKER_SLACK_S = 120
# Stages of one prediction, reported per molecule by traced predict_large runs.
STAGES = ("pipeline.featurize_molecule", "model.prepare", "model.forward_features")


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_small_set(directory: str, seed: int) -> None:
    targets = {}
    for name, xyz, target in gen.small_set(seed):
        write(os.path.join(directory, name + ".xyz"), xyz)
        targets[name] = target
    write(directory + ".targets.json", json.dumps(targets, sort_keys=True))


def write_inputs(workload: str, seed: int, tmp: str) -> None:
    if workload == "train_small":
        write_small_set(os.path.join(tmp, "small"), seed)
        write_small_set(os.path.join(tmp, "ref_small"), gen.REFERENCE_SEED)
    elif workload == "predict_large":
        for name, xyz, _ in gen.large_set(seed):
            write(os.path.join(tmp, "large", name + ".xyz"), xyz)
        for name, xyz, _ in gen.large_set(gen.REFERENCE_SEED):
            write(os.path.join(tmp, "ref_large", name + ".xyz"), xyz)
    else:
        write(os.path.join(tmp, "water.xyz"), gen.WATER_XYZ)
        for name, xyz, _ in gen.small_set(seed):
            write(os.path.join(tmp, "small", name + ".xyz"), xyz)
        for name, xyz, _ in gen.small_set(gen.REFERENCE_SEED):
            write(os.path.join(tmp, "ref_small", name + ".xyz"), xyz)


def worker_env() -> dict:
    env = os.environ.copy()
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(argv: list[str], timeout: float) -> None:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")] + argv,
        env=worker_env(), cwd=ROOT, timeout=timeout, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: float, trace: bool, expected: str,
            record: bool = False) -> dict:
    """Run one workload in fresh processes; return the worker's result plus set-up samples."""
    tmp = os.path.join(ROOT, ".perfbench_tmp", f"{workload}-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        write_inputs(workload, seed, tmp)
        # Compile bytecode and warm the file cache before anything is timed.
        subprocess.run([sys.executable, "-c", "import demol.cli"], env=worker_env(),
                       cwd=ROOT, timeout=WORKER_SLACK_S, check=True)
        common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                  "--inputs", tmp, "--expected", expected]
        setup = []
        for k in range(SETUP_PROBES):
            out = os.path.join(tmp, f"setup{k}.json")
            run_worker(common + ["--out", out, "--setup-only"], WORKER_SLACK_S)
            setup.append(read_json(out)["setup_s"])
        out = os.path.join(tmp, "result.json")
        extra = (["--trace", "1"] if trace else []) + (["--record"] if record else [])
        run_worker(common + ["--out", out] + extra, seconds + WORKER_SLACK_S)
        result = read_json(out)
        result["setup_samples"] = setup
        if trace:
            docs = [read_json(result["trace"])] if workload != "cli" else [
                read_json(p) for p in result["metrics"].pop("cli_traces")]
            per_layer, rows, ops = layers.summarize(docs)
            result["stage_ms_by_molecule"] = layers.by_operation_label(docs, STAGES)
            if workload == "train_small":
                per_layer["training.checkpoint_bytes"] = result["metrics"]["checkpoint_bytes"]
            result.update(per_layer=per_layer, self_time=rows, traced_ops=ops)
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(out_dir, f"spans-{workload}.json")  # latest traced run only
            if workload == "cli":
                with open(spans, "w", encoding="utf-8") as fh:
                    json.dump(docs, fh)
            else:
                shutil.move(result["trace"], spans)
            result["spans_file"] = os.path.relpath(spans, ROOT)
        result["metrics"].pop("cli_traces", None)
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def named_metrics(workload: str, result: dict) -> list[tuple[str, float, str, str]]:
    """The workload's own metrics by their specific names: (name, value, unit, note)."""
    m = result["metrics"]
    setup = result["setup_samples"]
    rows = [
        ("setup_s", statistics.median(setup), "s", f"median of {len(setup)} fresh processes"),
        ("peak_rss_mb", m["peak_rss_mb"], "MB", "max resident set size"),
        ("fail_frac", result["failed"] / result["attempted"], "share",
         f"{result['failed']} of {result['attempted']} operations"),
    ]
    if workload == "train_small":
        n = m["train_step_samples"]
        rows += [
            ("train_step_ms_p50", m["train_step_ms_p50"], "ms", f"n={n}"),
            ("train_step_ms_p95", m["train_step_ms_p95"], "ms",
             f"n={n}, {n - int(0.95 * n)} beyond"),
            ("train_steps_per_s", m["train_steps_per_s"], "1/s",
             f"median of {m['train_calls']} train() calls, init included"),
        ]
    elif workload == "predict_large":
        k = m["predict_samples_per_molecule"]
        rows += [
            ("predict_atoms_per_s", m["predict_atoms_per_s"], "1/s", f"{6 * k} predictions"),
            ("predict_n800_s_p50", m["predict_n800_s_p50"], "s",
             f"mean of chain and cluster medians, n={k} each"),
            ("scaling_slope", m["scaling_slope"], "1", "log-log fit over N=200,400,800"),
        ]
    else:
        rows += [
            ("cli_predict_s_p50", m["cli_predict_s_p50"], "s", f"n={m['cli_predict_samples']}"),
            ("cli_featurize_s_p50", m["cli_featurize_s_p50"], "s",
             f"n={m['cli_featurize_samples']}, {m['dataset_molecules']} molecules each"),
        ]
    return rows


def end_to_end(workload: str, result: dict) -> dict:
    """BENCHMARK.json's end-to-end metrics; each has a meaning on every workload."""
    m = result["metrics"]
    if workload == "train_small":
        op_ms, rate = m["train_step_ms_p50"], m["train_steps_per_s"]
    elif workload == "predict_large":
        op_ms, rate = 1000.0 * m["predict_n800_s_p50"], m["predict_atoms_per_s"]
    else:
        op_ms = 1000.0 * m["cli_predict_s_p50"]
        rate = m["dataset_molecules"] / m["cli_featurize_s_p50"]
    return {
        "setup_s": statistics.median(result["setup_samples"]),
        "peak_rss_mb": m["peak_rss_mb"],
        "ok_frac": 1.0 - result["failed"] / result["attempted"],
        "op_ms_p50": op_ms,
        "rate_per_s": rate,
    }


def print_named(workload: str, result: dict, label: str) -> None:
    print(f"== {workload} ({label}) ==")
    for name, value, unit, note in named_metrics(workload, result):
        print(f"  {name:<24} {value:>14.6g} {unit:<6} {note}")
    for why in result.get("errors", []):
        print(f"  check failed: {why}")


def print_layers(result: dict) -> None:
    print(f"  per-layer metrics over {result['traced_ops']} traced operations:")
    for name in sorted(result["per_layer"]):
        value = result["per_layer"][name]
        shown = "n/a (not called)" if value is None else f"{value:.6g}"
        print(f"    {name:<38} {shown:>16} {layers.unit_of(name)}")
    print("  self time by span (ms over the timed operations):")
    for label, calls, incl, self_ms in result["self_time"]:
        print(f"    {label:<36} calls={calls:<8} inclusive={incl:<12.4f} self={self_ms:.4f}")
    if result.get("stage_ms_by_molecule"):
        print("  median ms per prediction stage (featurize, prepare, forward):")
        for label, stages in sorted(result["stage_ms_by_molecule"].items()):
            print(f"    {label:<12} " + "  ".join(f"{stages.get(s, 0.0):10.2f}" for s in STAGES))
    print(f"  spans written to {result['spans_file']}")


def json_line(result: dict, metrics: dict, keys: list[dict]) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k["name"]: {"value": metrics[k["name"]], "unit": k["unit"]} for k in keys},
    })


def main() -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=names, help="one workload (default: all, both modes)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected", default=os.path.join(HERE, "expected.json"),
                    help="recorded reference values to check against")
    ap.add_argument("--record", action="store_true",
                    help="record the reference values of this commit into --expected")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "demol", "__init__.py")):
        print(f"error: no demol source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    if args.record:
        for workload in names:
            result = measure(workload, args.seed, 1, False, args.expected, record=True)
            print(f"recorded {workload}: {result['attempted']} operations")
        return 0

    if args.workload:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.expected)
        label = "traced" if args.trace else "untraced"
        print_named(args.workload, result, label)
        if args.trace:
            print_layers(result)
            metrics = {k: (v if v is not None else 0.0) for k, v in result["per_layer"].items()}
            print(json_line(result, metrics, bench["per_layer"]))
        else:
            print(json_line(result, end_to_end(args.workload, result), bench["end_to_end"]))
        return 0

    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for workload in names:
        print(f"# {workload}: {gen.WORKLOADS[workload]}")
        plain = measure(workload, args.seed, args.seconds, False, args.expected)
        traced = measure(workload, args.seed, args.seconds, True, args.expected)
        print_named(workload, plain, "untraced")
        print_named(workload, traced, "traced")
        print("  tracing overhead (traced - untraced):")
        for (name, a, unit, _), (_, b, _, _) in zip(named_metrics(workload, plain),
                                                    named_metrics(workload, traced)):
            print(f"    {name:<24} {b - a:>+14.6g} {unit}")
        print_layers(traced)
        for r in (plain, traced):
            summary["attempted"] += r["attempted"]
            summary["failed"] += r["failed"]
        summary["workloads"][workload] = {
            "end_to_end": end_to_end(workload, plain), "per_layer": traced["per_layer"]}
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
