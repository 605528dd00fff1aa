"""Benchmark-side tracing: spans around calls into demol's public functions.

Nothing here edits the program. ``install`` rebinds each traced name where its
caller looks it up (names are bound at import time), so ``demol.pipeline``'s
``predict_bonds`` is patched in ``demol.pipeline``, ``ad.<op>`` calls in
``model.py`` are covered by patching ``demol.autodiff.<op>``, and methods are
patched on their class.

Spans are kept in memory as parallel integer arrays (name id, start ns, end ns,
parent span, operation id) and written out once, at the end, as JSON. The operation id
is set by the caller: a training step, a prediction or a CLI process; -1 marks
set-up and other untimed work.
"""

from __future__ import annotations

import base64
import gc
import json
import time
from array import array

perf_ns = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.n_ops = 0
        self.op_labels: list[str] = []  # optional name of each operation
        self.counters: dict[str, float] = {}
        self.gc_events: list[tuple[int, int, int]] = []  # (start ns, end ns, op id)
        self._gc_start = 0
        self.in_init = False
        self.timed_ops = None
        self.timed_counters = None

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def next_op(self) -> int:
        """Start a new timed operation; later spans belong to it."""
        self.op_id = self.n_ops
        self.n_ops += 1
        return self.op_id

    def freeze(self) -> None:
        """Mark the end of the timed operations; later work is not reported."""
        self.timed_ops = self.n_ops
        self.timed_counters = dict(self.counters)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name: str, after=None):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.start.append(0)
            self.end.append(0)
            self.stack.append(idx)
            t0 = perf_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_ns()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                after(args, out)
            return out

        return traced

    def _gc_callback(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = perf_ns()
        else:
            self.gc_events.append((self._gc_start, perf_ns(), self.op_id))

    def start_gc(self) -> None:
        gc.callbacks.append(self._gc_callback)

    def stop_gc(self) -> None:
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    def dump(self) -> dict:
        return {
            "names": self.names,
            # int64 arrays, base64 of their native bytes: compact to write and load
            "spans": [base64.b64encode(a.tobytes()).decode("ascii")
                      for a in (self.name, self.start, self.end, self.parent, self.op)],
            "op_labels": self.op_labels,
            "timed_ops": self.n_ops if self.timed_ops is None else self.timed_ops,
            "counters": self.counters,
            "timed_counters": self.counters if self.timed_counters is None else self.timed_counters,
            "gc": [list(e) for e in self.gc_events],
        }


def install(tr: Tracer) -> None:
    """Patch every traced name of the demol modules."""
    import demol.autodiff as ad
    import demol.cli as cli
    import demol.encodings as encodings
    import demol.model as model
    import demol.molecule as molecule
    import demol.pipeline as pipeline
    import demol.rng as rng
    import demol.training as training

    def on_bonds(args, bonds):
        n = args[0].n_atoms
        tr.count("bonds.found", len(bonds))
        tr.count("bonds.pairs", n * (n - 1) // 2)

    def on_masks(args, masks):
        tr.count("masks.atom_allowed", int(masks.atom.sum()))
        tr.count("masks.atom_entries", masks.atom.size)
        tr.count("masks.bond_allowed", int(masks.bond.sum()))
        tr.count("masks.bond_entries", masks.bond.size)

    def on_backward(args, grads):
        tr.count("autodiff.tape_nodes", len(args[0]))
        tr.count("autodiff.backward_calls")

    def patch(module, attr, name, after=None):
        setattr(module, attr, tr.wrap(getattr(module, attr), name, after))

    patch(pipeline, "predict_bonds", "bonds.predict_bonds", on_bonds)
    patch(pipeline, "build_bond_graph", "graphs.build_bond_graph")
    patch(pipeline, "spd_matrix", "encodings.spd_matrix")
    patch(encodings, "spd_matrix", "encodings.spd_matrix")
    patch(pipeline, "cosine_matrix", "encodings.cosine_matrix")
    patch(encodings, "cosine_matrix", "encodings.cosine_matrix")
    patch(pipeline, "build_masks", "masks.build_masks", on_masks)
    patch(model, "featurize_molecule", "pipeline.featurize_molecule")
    patch(cli, "featurize_molecule", "pipeline.featurize_molecule")
    patch(molecule, "parse_xyz", "molecule.parse_xyz")
    patch(cli, "parse_xyz", "molecule.parse_xyz")
    patch(cli, "assemble_bundle", "encodings.assemble_bundle")
    for op in ("softmax_bias_mask", "scatter_pairs", "matmul", "gaussian_kernel_features"):
        patch(ad, op, f"autodiff.{op}")
    patch(ad.TapeParams, "flat_gradients", "autodiff.flat_gradients")
    patch(training, "backward", "autodiff.backward", on_backward)
    patch(training, "adamw_update", "training.adamw_update")
    patch(training, "clip_gradients", "training.clip_gradients")
    patch(training, "save_checkpoint", "training.save_checkpoint")
    patch(training, "load_checkpoint", "training.load_checkpoint")
    patch(model.Model, "prepare", "model.prepare")
    patch(model.Model, "forward_features", "model.forward_features")
    patch(model.Model, "total_loss", "model.total_loss")

    init = model.Model.__init__

    def traced_init(self, *args, **kwargs):
        tr.in_init = True
        try:
            return init(self, *args, **kwargs)
        finally:
            tr.in_init = False

    model.Model.__init__ = tr.wrap(traced_init, "model.init")

    normal = rng.RandomStream.normal

    def counted_normal(self, sigma=1.0):
        if tr.in_init:
            tr.count("rng.normal.init_calls")
        return normal(self, sigma)

    rng.RandomStream.normal = counted_normal

    class _Json:
        """Stands in for the ``json`` module inside demol.cli."""

        dumps = staticmethod(tr.wrap(json.dumps, "cli.emit_json"))
        loads = staticmethod(json.loads)

    cli.json = _Json

    # A new step starts where training.train creates its tape.
    tape_cls = training.Tape

    def new_step_tape():
        tr.next_op()
        return tape_cls()

    training.Tape = new_step_tape


def timed_import() -> float:
    """Import the CLI module (and so all of demol); return milliseconds taken."""
    t0 = perf_ns()
    import demol.cli  # noqa: F401

    return (perf_ns() - t0) / 1e6


def load_spans(doc: dict) -> list[array]:
    """The (name, start, end, parent, op) arrays of a written trace."""
    out = []
    for blob in doc["spans"]:
        a = array("q")
        a.frombytes(base64.b64decode(blob))
        out.append(a)
    return out


def write(tr: Tracer, path: str, extra: dict) -> None:
    doc = tr.dump()
    doc.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
