"""Per-layer metrics from the span files a traced run writes.

A span's self time is its duration minus the time its child spans cover.
Per-operation metrics (``.ms`` and ``.calls`` of the pipeline, model, autodiff
and training layers, GC) sum the outermost span of each name over the timed
operations and divide by their number: a training step, one prediction, or one
CLI process. Per-call metrics (import, model init, parse, checkpoints) average
over every call in the run, set-up included, since that is where they happen.
A layer the workload never calls reports None.
"""

from __future__ import annotations

import statistics

from tracer import load_spans

# metric -> (span name, how): "op" = ms per timed operation, "call" = ms per call
SPAN_METRICS = {
    "bonds.predict_bonds.ms": ("bonds.predict_bonds", "op"),
    "graphs.build_bond_graph.ms": ("graphs.build_bond_graph", "op"),
    "encodings.spd_matrix.ms": ("encodings.spd_matrix", "op"),
    "encodings.cosine_matrix.ms": ("encodings.cosine_matrix", "op"),
    "masks.build_masks.ms": ("masks.build_masks", "op"),
    "model.prepare.ms": ("model.prepare", "op"),
    "pipeline.featurize_molecule.ms": ("pipeline.featurize_molecule", "op"),
    "autodiff.softmax_bias_mask.ms": ("autodiff.softmax_bias_mask", "op"),
    "autodiff.scatter_pairs.ms": ("autodiff.scatter_pairs", "op"),
    "autodiff.matmul.ms": ("autodiff.matmul", "op"),
    "autodiff.gaussian_kernel_features.ms": ("autodiff.gaussian_kernel_features", "op"),
    "model.forward_features.ms": ("model.forward_features", "op"),
    "model.total_loss.ms": ("model.total_loss", "op"),
    "autodiff.backward.ms": ("autodiff.backward", "op"),
    "autodiff.flat_gradients.ms": ("autodiff.flat_gradients", "op"),
    "training.adamw_update.ms": ("training.adamw_update", "op"),
    "training.clip_gradients.ms": ("training.clip_gradients", "op"),
    "encodings.assemble_bundle.ms": ("encodings.assemble_bundle", "op"),
    "cli.emit_json.ms": ("cli.emit_json", "op"),
    "model.init.ms": ("model.init", "call"),
    "molecule.parse_xyz.ms": ("molecule.parse_xyz", "call"),
    "training.save_checkpoint.ms": ("training.save_checkpoint", "call"),
    "training.load_checkpoint.ms": ("training.load_checkpoint", "call"),
}
CALL_METRICS = {
    "pipeline.featurize_molecule.calls": "pipeline.featurize_molecule",
    "model.forward_features.calls": "model.forward_features",
}
UNITS = {
    "bonds.hit_frac": "share", "masks.atom_density": "share", "masks.bond_density": "share",
    "autodiff.tape_nodes": "count", "rng.normal.calls": "count",
    "runtime.gc_collections": "count", "training.checkpoint_bytes": "bytes",
    **{k: "count" for k in CALL_METRICS},
}


def unit_of(metric: str) -> str:
    return UNITS.get(metric, "ms")


def _ratio(a, b):
    return a / b if b else None


def summarize(docs: list[dict]) -> tuple[dict, list[tuple[str, int, float, float]], int]:
    """(metrics, rows of (span name, calls, inclusive ms, self ms), timed ops)."""
    ops = 0
    timed_outer = {}  # name -> [calls, inclusive ns]
    all_outer = {}
    self_ns = {}
    timed_calls = {}
    gc_count = 0
    gc_ns = 0
    counters: dict[str, float] = {}
    timed_counters: dict[str, float] = {}
    import_ms: list[float] = []
    for doc in docs:
        names = doc["names"]
        name, start, end, parent, op = load_spans(doc)
        timed = doc["timed_ops"]
        ops += timed
        n = len(name)
        child = [0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        for i in range(n):
            dur = end[i] - start[i]
            label = names[name[i]]
            outer = True
            p = parent[i]
            while p >= 0:
                if name[p] == name[i]:
                    outer = False
                    break
                p = parent[p]
            in_timed = 0 <= op[i] < timed
            if outer:
                acc = all_outer.setdefault(label, [0, 0])
                acc[0] += 1
                acc[1] += dur
                if in_timed:
                    acc = timed_outer.setdefault(label, [0, 0])
                    acc[0] += 1
                    acc[1] += dur
            if in_timed:
                self_ns[label] = self_ns.get(label, 0) + dur - child[i]
                timed_calls[label] = timed_calls.get(label, 0) + 1
        for t0, t1, gop in doc["gc"]:
            if 0 <= gop < timed:
                gc_count += 1
                gc_ns += t1 - t0
        for src, dst in ((doc["counters"], counters), (doc["timed_counters"], timed_counters)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        import_ms += doc.get("import_ms", [])

    metrics: dict[str, float | None] = {}
    for metric, (span, how) in SPAN_METRICS.items():
        if how == "op":
            acc = timed_outer.get(span)
            metrics[metric] = acc[1] / 1e6 / ops if acc and ops else None
        else:
            acc = all_outer.get(span)
            metrics[metric] = acc[1] / 1e6 / acc[0] if acc else None
    for metric, span in CALL_METRICS.items():
        acc = timed_outer.get(span)
        metrics[metric] = acc[0] / ops if acc and ops else None
    tc = timed_counters
    metrics["bonds.hit_frac"] = _ratio(tc.get("bonds.found", 0), tc.get("bonds.pairs", 0))
    metrics["masks.atom_density"] = _ratio(tc.get("masks.atom_allowed", 0),
                                           tc.get("masks.atom_entries", 0))
    metrics["masks.bond_density"] = _ratio(tc.get("masks.bond_allowed", 0),
                                           tc.get("masks.bond_entries", 0))
    metrics["autodiff.tape_nodes"] = _ratio(tc.get("autodiff.tape_nodes", 0), ops) or None
    inits = all_outer.get("model.init", [0])[0]
    metrics["rng.normal.calls"] = _ratio(counters.get("rng.normal.init_calls", 0), inits)
    metrics["runtime.gc_collections"] = _ratio(gc_count, ops)
    metrics["runtime.gc_pause_ms"] = _ratio(gc_ns / 1e6, ops)
    metrics["cli.import.ms"] = sum(import_ms) / len(import_ms) if import_ms else None

    rows = sorted(
        ((label, timed_calls[label], timed_outer.get(label, [0, 0])[1] / 1e6,
          self_ns[label] / 1e6) for label in self_ns),
        key=lambda r: -r[3],
    )
    return metrics, rows, ops


def by_operation_label(docs: list[dict], spans: tuple[str, ...]) -> dict[str, dict[str, float]]:
    """Median inclusive ms of each listed span per operation label (e.g. molecule name)."""
    samples: dict[str, dict[str, list[float]]] = {}
    for doc in docs:
        labels = doc.get("op_labels") or []
        names = doc["names"]
        name, start, end, parent, op = load_spans(doc)
        per_op: dict[tuple[int, str], float] = {}
        for i in range(len(name)):
            label = names[name[i]]
            if label in spans and 0 <= op[i] < len(labels) and op[i] < doc["timed_ops"]:
                key = (op[i], label)
                per_op[key] = per_op.get(key, 0.0) + (end[i] - start[i]) / 1e6
        for (o, label), ms in per_op.items():
            samples.setdefault(labels[o], {}).setdefault(label, []).append(ms)
    out = {}
    for op_label, by_span in samples.items():
        out[op_label] = {}
        for span, values in by_span.items():
            out[op_label][span] = statistics.median(values)
    return out
