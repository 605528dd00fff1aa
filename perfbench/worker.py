"""One benchmark worker: set up, run one workload closed-loop, check outputs.

Started in a fresh process by run.py, with PYTHONPATH pointing at the
checkout's ``src``. It reads the generated inputs from ``--inputs``, writes
its result as JSON to ``--out`` and prints nothing on stdout.

With ``--setup-only`` it only sets up and reports the time (the ``setup_s``
metric) from the first statement of this file to where the first timed
operation would start: importing demol, building ``Model(ModelConfig())`` and
parsing the workload's XYZ text. The measuring cli worker imports no demol at
all: it only spawns ``demol`` processes and checks their output.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402

TRAIN_STEPS = 64  # per train() call: 4 epochs of the 16-molecule set
REFERENCE_TRAIN_SEED = 7  # TrainConfig seed of the reference run in expected.json
CLI_TIMEOUT_S = 120


def parse_args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--expected", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="write the observed reference values to --expected")
    return ap.parse_args()


def close(a: float, b: float, rtol: float, atol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= atol + rtol * abs(b)


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def xyz_files(directory):
    return [os.path.join(directory, n) for n in sorted(os.listdir(directory)) if n.endswith(".xyz")]


def own_peak_rss_mb() -> float:
    """Peak RSS of this process image.

    VmHWM starts afresh at exec; ru_maxrss also keeps the peak of the process
    that spawned this one, which made a worker look as big as run.py.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """Counts attempted and failed operations; keeps the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(why)


# ---------------------------------------------------------------------------
# train_small
# ---------------------------------------------------------------------------


def load_small_set(demol, directory):
    targets = json.loads(read(directory + ".targets.json"))
    out = []
    for path in xyz_files(directory):
        mol = demol.molecule.parse_xyz(read(path))
        out.append(demol.Molecule(mol.atoms, targets[mol.name], mol.name))
    return out


def train_once(demol, dataset, seed, ckpt_path, tr, on_step=None):
    """train + evaluate + save/load checkpoint; returns what the checks need."""
    import numpy as np

    training = demol.training
    cfg = training.TrainConfig(seed=seed, steps=TRAIN_STEPS, lr=1e-3, log_every=1)
    t0 = time.perf_counter()
    res = training.train(dataset, demol.model.ModelConfig(), cfg, log=on_step)
    wall = time.perf_counter() - t0
    if tr is not None:
        tr.op_id = -1  # evaluation and checkpointing are not part of a step
    mae = training.evaluate(dataset, res.model)
    training.save_checkpoint(ckpt_path, res.model, res.optimizer, res.rng, res.step)
    ckpt_bytes = os.path.getsize(ckpt_path)
    model2, opt2, rng2, step2 = training.load_checkpoint(ckpt_path)
    os.remove(ckpt_path)  # every save writes a new file, as a fresh run would
    same_ckpt = (
        np.array_equal(res.model.params.flat().view(np.uint64), model2.params.flat().view(np.uint64))
        and np.array_equal(res.optimizer.m.view(np.uint64), opt2.m.view(np.uint64))
        and np.array_equal(res.optimizer.v.view(np.uint64), opt2.v.view(np.uint64))
        and res.optimizer.t == opt2.t
        and res.rng.state() == rng2.state()
        and step2 == res.step
    )
    history = [tuple(sorted(rec.items())) for rec in res.history]
    finite = all(math.isfinite(v) for rec in res.history for v in rec.values())
    return {
        "wall": wall, "history": history, "finite": finite, "mae": mae,
        "final": res.history[-1]["total"], "same_ckpt": same_ckpt, "ckpt_bytes": ckpt_bytes,
    }


def run_train_small(demol, args, model, tr, outcome):
    dataset = load_small_set(demol, os.path.join(args.inputs, "small"))
    ckpt = os.path.join(args.inputs, "ckpt.bin")
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        return setup_s, {}

    step_ms: list[float] = []
    call_rates: list[float] = []  # steps per second of each train() call, init included
    first = None
    ckpt_bytes = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        stamps: list[float] = []
        r = train_once(demol, dataset, args.seed, ckpt, tr,
                       on_step=lambda _msg: stamps.append(time.perf_counter()))
        step_ms += [1000.0 * (b - a) for a, b in zip(stamps, stamps[1:])]
        call_rates.append(len(stamps) / r["wall"])
        ckpt_bytes = r["ckpt_bytes"]
        if first is None:
            first = r
        problems = []
        if not r["finite"] or not math.isfinite(r["mae"]):
            problems.append("non-finite loss history or MAE")
        if r["history"] != first["history"] or r["mae"] != first["mae"]:
            problems.append("loss history differs from the first run of the same set")
        if not r["same_ckpt"]:
            problems.append("checkpoint save/load did not round-trip bit for bit")
        outcome.record(not problems, "; ".join(problems))
        if time.perf_counter() >= deadline and outcome.attempted >= 2:
            break
    if tr is not None:
        tr.freeze()

    ref = train_once(demol, load_small_set(demol, os.path.join(args.inputs, "ref_small")),
                     REFERENCE_TRAIN_SEED, ckpt, tr)
    observed = {"final_total": ref["final"], "mae_ev": ref["mae"]}
    check_reference(args, outcome, "train_small", observed)

    metrics = {
        "train_step_ms_p50": statistics.median(step_ms),
        # Linear interpolation between order statistics, as numpy's default.
        "train_step_ms_p95": statistics.quantiles(step_ms, n=100, method="inclusive")[94],
        "train_step_samples": len(step_ms),
        "train_steps_per_s": statistics.median(call_rates),
        "train_calls": len(call_rates),
        "checkpoint_bytes": ckpt_bytes,
    }
    return setup_s, metrics


# ---------------------------------------------------------------------------
# predict_large
# ---------------------------------------------------------------------------


def run_predict_large(demol, args, model, tr, outcome):
    mols = [demol.molecule.parse_xyz(read(p)) for p in xyz_files(os.path.join(args.inputs, "large"))]
    mols.sort(key=lambda m: (m.n_atoms, m.name))
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        return setup_s, {}

    times = {m.name: [] for m in mols}
    first: dict[str, float] = {}
    atoms = 0
    busy = 0.0
    deadline = time.perf_counter() + args.seconds
    passes = 0
    while True:
        for mol in mols:
            if tr is not None:
                tr.next_op()
                tr.op_labels.append(mol.name)
            t0 = time.perf_counter()
            pred = model.predict(mol)
            dt = time.perf_counter() - t0
            times[mol.name].append(dt)
            atoms += mol.n_atoms
            busy += dt
            first.setdefault(mol.name, pred)
            ok = math.isfinite(pred) and pred == first[mol.name]
            outcome.record(ok, f"{mol.name}: prediction {pred!r} not finite or not repeatable")
        passes += 1
        if time.perf_counter() >= deadline and passes >= 2:
            break
    if tr is not None:
        tr.op_id = -1
        tr.freeze()

    observed = {}
    for path in xyz_files(os.path.join(args.inputs, "ref_large")):
        mol = demol.molecule.parse_xyz(read(path))
        observed[mol.name] = model.predict(mol)
    check_reference(args, outcome, "predict_large", observed)

    by_n: dict[int, list[float]] = {}
    for mol in mols:
        by_n.setdefault(mol.n_atoms, []).append(statistics.median(times[mol.name]))
    t_n = {n: sum(v) / len(v) for n, v in by_n.items()}
    slope = fit_slope(t_n)
    metrics = {
        "predict_atoms_per_s": atoms / busy,
        "predict_n800_s_p50": t_n[800],
        "scaling_slope": slope,
        "predict_s_p50_by_molecule": {k: statistics.median(v) for k, v in times.items()},
        "predict_samples_per_molecule": passes,
    }
    return setup_s, metrics


def fit_slope(t_n: dict[int, float]) -> float:
    """Least-squares slope of log(time) against log(N)."""
    xs = [math.log(n) for n in sorted(t_n)]
    ys = [math.log(t_n[n]) for n in sorted(t_n)]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def cli_command(argv, trace_path):
    if trace_path is None:
        return [sys.executable, "-m", "demol"] + argv
    return [sys.executable, os.path.join(HERE, "cli_entry.py"), trace_path] + argv


def run_cli_process(args, argv, trace_path=None):
    t0 = time.perf_counter()
    proc = subprocess.run(
        cli_command(argv, trace_path), cwd=args.inputs, capture_output=True,
        timeout=CLI_TIMEOUT_S, env=os.environ.copy(),
    )
    return time.perf_counter() - t0, proc


def dir_digest(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def feature_summary(directory):
    """Per file: sizes, and the sum of every matrix in the feature bundle."""
    out = {}
    for name in sorted(os.listdir(directory)):
        doc = json.loads(read(os.path.join(directory, name)))
        entry = {"n_atoms": doc["n_atoms"], "n_bonds": doc["n_bonds"]}
        for key in ("phi_atom", "phi_bond", "phi_a2b", "phi_b2a", "cosines",
                    "mask_atom", "mask_bond", "spd_atom", "spd_bond"):
            entry[key] = math.fsum(v for row in doc[key] for v in row)
        out[name] = entry
    return out


def setup_cli(demol, args, model, tr, outcome):
    """Set-up only: the measuring cli worker runs ``run_cli`` without demol."""
    demol.molecule.parse_xyz(read(os.path.join(args.inputs, "water.xyz")))
    for path in xyz_files(os.path.join(args.inputs, "small")):
        demol.molecule.parse_xyz(read(path))
    return time.perf_counter() - T0, {}


def run_cli(args, outcome):
    trace_dir = os.path.join(args.inputs, "cli_traces")
    os.makedirs(trace_dir, exist_ok=True)
    n_molecules = len(xyz_files(os.path.join(args.inputs, "small")))
    want_water = load_expected(args).get("cli", {}).get("predict_water_ev")
    rtol, atol = TOLERANCES["cli"]
    times = {"predict": [], "featurize": []}
    first = {}
    traces = []

    def predict_problems(proc):
        value = json.loads(proc.stdout)["prediction_ev"]
        if not args.record and (want_water is None or not close(value, want_water, rtol, atol)):
            return [f"predict value {value!r} != recorded {want_water!r}"]
        return []

    def featurize_problems(proc):
        if len(json.loads(proc.stdout)["written"]) != n_molecules:
            return ["featurize did not write one file per molecule"]
        return []

    commands = {
        "predict": (["predict", "water.xyz"], predict_problems, None),
        "featurize": (["featurize", "--dataset", "small", "--out", "features"],
                      featurize_problems, "features"),
    }
    # Two short predict processes per featurize process keep both sample counts up.
    schedule = ("predict", "featurize", "predict")
    deadline = time.perf_counter() + args.seconds
    while True:
        for kind in schedule:
            argv, check, out_dir = commands[kind]
            trace_path = os.path.join(trace_dir, f"{len(traces):04d}.json") if args.trace else None
            if out_dir:
                # Rewriting existing files costs a flush per file on ext4; users
                # export to a new directory, so each run gets one.
                shutil.rmtree(os.path.join(args.inputs, out_dir), ignore_errors=True)
            dt, proc = run_cli_process(args, argv, trace_path)
            times[kind].append(dt)
            traces.append(trace_path)
            if proc.returncode != 0:
                outcome.record(False, f"{kind} exit {proc.returncode}: {proc.stderr[-300:]!r}")
                continue
            state = (proc.stdout, dir_digest(os.path.join(args.inputs, out_dir)) if out_dir else None)
            first.setdefault(kind, state)
            problems = check(proc)
            if state != first[kind]:
                problems.append(f"{kind} stdout or files differ from the first run")
            outcome.record(not problems, "; ".join(problems))
        if time.perf_counter() >= deadline and len(times["featurize"]) >= 2:
            break

    _, proc = run_cli_process(args, ["featurize", "--dataset", "ref_small", "--out", "ref_features"])
    observed = {
        "predict_water_ev": json.loads(first["predict"][0])["prediction_ev"]
        if "predict" in first else None,
        "featurize": feature_summary(os.path.join(args.inputs, "ref_features"))
        if proc.returncode == 0 else None,
    }
    check_reference(args, outcome, "cli", observed)

    # ru_maxrss of a child also keeps the peak of the image it was spawned
    # from; this process imports no demol, so it is far smaller than a demol
    # process and the figure is the demol processes' own peak.
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    metrics = {
        "cli_predict_s_p50": statistics.median(times["predict"]),
        "cli_featurize_s_p50": statistics.median(times["featurize"]),
        "cli_predict_samples": len(times["predict"]),
        "cli_featurize_samples": len(times["featurize"]),
        "dataset_molecules": n_molecules,
        "peak_rss_mb": rss,
        "cli_traces": [p for p in traces if p],
    }
    return metrics


# ---------------------------------------------------------------------------
# Reference values
# ---------------------------------------------------------------------------

TOLERANCES = {
    # (rtol, atol): training accumulates rounding over 64 steps, so its bound is
    # looser than that of a single prediction or a feature sum.
    "train_small": (1e-6, 1e-9),
    "predict_large": (1e-8, 1e-12),
    "cli": (1e-9, 1e-9),
}


def load_expected(args) -> dict:
    if not os.path.exists(args.expected):
        return {}
    return json.loads(read(args.expected))


def flatten(prefix, value, out):
    if isinstance(value, dict):
        for k in sorted(value):
            flatten(f"{prefix}.{k}", value[k], out)
    else:
        out[prefix] = value
    return out


def check_reference(args, outcome, workload, observed) -> None:
    """Compare the reference-input results with the recorded ones (one operation)."""
    if args.record:
        doc = load_expected(args)
        doc[workload] = observed
        with open(args.expected, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        outcome.record(True)
        return
    problems = reference_problems(workload, load_expected(args).get(workload, {}), observed)
    outcome.record(not problems, "; ".join(problems))


def reference_problems(workload, recorded, observed) -> list[str]:
    """Every observed value that is missing or outside the tolerance of the recorded one."""
    rtol, atol = TOLERANCES[workload]
    want = flatten(workload, recorded, {})
    got = flatten(workload, observed, {})
    problems = [
        f"{key}: {got.get(key)!r} != recorded {value!r}"
        for key, value in want.items()
        if not isinstance(got.get(key), (int, float)) or not close(got[key], value, rtol, atol)
    ]
    if not want or set(want) != set(got):
        problems.append(f"{workload}: recorded and observed reference keys differ")
    return problems


# ---------------------------------------------------------------------------


RUNNERS = {"train_small": run_train_small, "predict_large": run_predict_large, "cli": setup_cli}


def write_result(args, result) -> None:
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main() -> int:
    args = parse_args()
    outcome = Outcome()
    if args.workload == "cli" and not args.setup_only:
        metrics = run_cli(args, outcome)
        write_result(args, {"attempted": outcome.attempted, "failed": outcome.failed,
                            "errors": outcome.errors, "metrics": metrics})
        return 0

    tr = None
    import_ms = None
    if args.trace:
        tr = tracing.Tracer()
        tr.start_gc()
        import_ms = tracing.timed_import()
        tracing.install(tr)

    import demol
    import demol.cli  # noqa: F401  (set-up imports what a demol process imports)
    import demol.model
    import demol.molecule
    import demol.training

    # Every workload builds the default model during set-up, so setup_s means
    # the same thing on all of them; predict_large measures with it.
    model = demol.model.Model(demol.model.ModelConfig())
    setup_s, metrics = RUNNERS[args.workload](demol, args, model, tr, outcome)
    if args.setup_only:
        write_result(args, {"setup_s": setup_s})
        return 0
    metrics["peak_rss_mb"] = own_peak_rss_mb()
    result = {"attempted": outcome.attempted, "failed": outcome.failed, "errors": outcome.errors,
              "metrics": metrics}
    if tr is not None:
        tr.stop_gc()
        trace_path = os.path.join(args.inputs, "trace.json")
        tracing.write(tr, trace_path, {"import_ms": [import_ms]})
        result["trace"] = trace_path
    write_result(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
