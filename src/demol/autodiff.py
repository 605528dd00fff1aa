"""Minimal dense-matrix reverse-mode differentiation.

Every tensor is a 2-D float64 matrix; scalars are (1, 1). A ``Tape`` records
operations in execution order, which is already topological, so the backward
pass visits each node exactly once in reverse. Tensors built without a tape
compute values only (inference mode). Any operation that produces NaN or Inf
raises ``NonFiniteError``. Attention runs on an ``EdgeList`` of the allowed
(query, key) pairs, for all heads in one op, so masked pairs cost nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

from .errors import NonFiniteError, ShapeError

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _as_matrix(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise ShapeError(f"tensors are 2-D matrices, got shape {arr.shape}")
    return arr


def _check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    # single-pass screen: any NaN/Inf makes the sum non-finite; desk-scale
    # magnitudes cannot overflow a finite sum
    if arr.size and not math.isfinite(float(arr.sum())):
        if np.isfinite(arr).all():  # pathological overflow of the screen only
            return arr
        raise NonFiniteError(f"operation {op!r} produced non-finite values")
    return arr


class Tape:
    """Execution-ordered record of operations for one forward pass.

    Nothing the tape holds refers back to it: backward closures keep arrays,
    and parameter leaves are kept as node ids, so a tape is freed as soon as
    its last ``Tensor`` is, without the cyclic collector.
    """

    __slots__ = ("_parents", "_backward", "_param_leaves", "__weakref__")

    def __init__(self):
        self._parents: list[tuple[int, ...]] = []
        self._backward: list[Callable[[np.ndarray], Sequence[np.ndarray | None]] | None] = []
        # id(registry) -> (registry, parameter name -> leaf node id)
        self._param_leaves: dict[int, tuple["ModelParams", dict[str, int]]] = {}

    def __len__(self) -> int:
        return len(self._parents)

    def _record(self, parents, backward) -> int:
        self._parents.append(parents)
        self._backward.append(backward)
        return len(self._parents) - 1

    def leaf(self, value) -> "Tensor":
        arr = _check_finite(_as_matrix(value), "leaf")
        return Tensor(arr, self, self._record((), None))


class Tensor:
    __slots__ = ("value", "tape", "node_id")

    def __init__(self, value: np.ndarray, tape: Tape | None = None, node_id: int = -1):
        self.value = value
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape  # type: ignore[return-value]

    def item(self) -> float:
        if self.value.shape != (1, 1):
            raise ShapeError(f"item() needs a (1, 1) tensor, got {self.value.shape}")
        return float(self.value[0, 0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.value.shape}, taped={self.tape is not None})"

    # operator sugar
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __neg__(self) -> "Tensor":
        return scale(self, -1.0)


def constant(value, tape: Tape | None = None) -> Tensor:
    """Wrap an array as a non-differentiable input."""
    arr = _check_finite(_as_matrix(value), "constant")
    return Tensor(arr, None, -1) if tape is None else tape.leaf(arr)


def _tape_of(*tensors: Tensor) -> Tape | None:
    tape = None
    for t in tensors:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ShapeError("operands recorded on different tapes")
    return tape


def _emit(op: str, value: np.ndarray, inputs: tuple[Tensor, ...], backward) -> Tensor:
    value = _check_finite(value, op)
    tape = _tape_of(*inputs)
    if tape is None:
        return Tensor(value, None, -1)
    parents = tuple(t.node_id for t in inputs)
    return Tensor(value, tape, tape._record(parents, backward))


# ---------------------------------------------------------------------------
# Elementwise and structural operations
# ---------------------------------------------------------------------------


def _need_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{op}: shapes {a.value.shape} and {b.value.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _need_same_shape("add", a, b)
    return _emit("add", a.value + b.value, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _need_same_shape("sub", a, b)
    return _emit("sub", a.value - b.value, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _need_same_shape("mul", a, b)
    av, bv = a.value, b.value
    return _emit("mul", av * bv, (a, b), lambda g: (g * bv, g * av))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _emit("scale", a.value * c, (a,), lambda g: (g * c,))


def scale_by(a: Tensor, s: Tensor) -> Tensor:
    """Multiply a matrix by a (1, 1) tensor."""
    if s.value.shape != (1, 1):
        raise ShapeError(f"scale_by: scale must be (1, 1), got {s.value.shape}")
    av, sv = a.value, s.value
    return _emit(
        "scale_by",
        av * sv[0, 0],
        (a, s),
        lambda g: (g * sv[0, 0], np.array([[float(np.sum(g * av))]])),
    )


def add_rowvec(a: Tensor, row: Tensor) -> Tensor:
    """Add a (1, d) row vector to every row of an (n, d) matrix."""
    if row.value.shape != (1, a.value.shape[1]):
        raise ShapeError(
            f"add_rowvec: row shape {row.value.shape} does not match matrix {a.value.shape}"
        )
    return _emit(
        "add_rowvec",
        a.value + row.value,
        (a, row),
        lambda g: (g, g.sum(axis=0, keepdims=True)),
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul: shapes {a.value.shape} and {b.value.shape} incompatible")
    av, bv = a.value, b.value
    return _emit("matmul", av @ bv, (a, b), lambda g: (g @ bv.T, av.T @ g))


def concat_rows(tensors: Sequence[Tensor]) -> Tensor:
    if not tensors:
        raise ShapeError("concat_rows needs at least one tensor")
    cols = tensors[0].value.shape[1]
    for t in tensors:
        if t.value.shape[1] != cols:
            raise ShapeError("concat_rows: column counts differ")
    sizes = [t.value.shape[0] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        return tuple(g[offsets[k] : offsets[k + 1]] for k in range(len(sizes)))

    return _emit("concat_rows", np.vstack([t.value for t in tensors]), tuple(tensors), backward)


def concat_cols(tensors: Sequence[Tensor]) -> Tensor:
    if not tensors:
        raise ShapeError("concat_cols needs at least one tensor")
    rows = tensors[0].value.shape[0]
    for t in tensors:
        if t.value.shape[0] != rows:
            raise ShapeError("concat_cols: row counts differ")
    sizes = [t.value.shape[1] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        return tuple(g[:, offsets[k] : offsets[k + 1]] for k in range(len(sizes)))

    return _emit("concat_cols", np.hstack([t.value for t in tensors]), tuple(tensors), backward)


def mean_rows(a: Tensor) -> Tensor:
    n = a.value.shape[0]
    if n < 1:
        raise ShapeError("mean_rows needs at least one row")
    return _emit(
        "mean_rows",
        a.value.mean(axis=0, keepdims=True),
        (a,),
        lambda g: (np.repeat(g / n, n, axis=0),),
    )


def sum_all(a: Tensor) -> Tensor:
    shape = a.value.shape
    return _emit(
        "sum_all",
        np.array([[float(a.value.sum())]]),
        (a,),
        lambda g: (np.full(shape, g[0, 0]),),
    )


def sum_cols(a: Tensor) -> Tensor:
    """Row sums: (n, d) -> (n, 1)."""
    d = a.value.shape[1]
    return _emit(
        "sum_cols",
        a.value.sum(axis=1, keepdims=True),
        (a,),
        lambda g: (np.repeat(g, d, axis=1),),
    )


def abs_elem(a: Tensor) -> Tensor:
    sign = np.sign(a.value)
    return _emit("abs", np.abs(a.value), (a,), lambda g: (g * sign,))


def gather_rows(a: Tensor, ids) -> Tensor:
    ids = np.asarray(ids, dtype=np.intp).reshape(-1)
    n = a.value.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ShapeError(f"gather_rows: id out of range for {n} rows")
    shape = a.value.shape

    def backward(g):
        out = np.zeros(shape)
        np.add.at(out, ids, g)
        return (out,)

    return _emit("gather_rows", a.value[ids].copy(), (a,), backward)


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-CDF form x * Phi(x)."""
    x = a.value
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    pdf = np.exp(-0.5 * x * x) / _SQRT_2PI
    return _emit("gelu", x * cdf, (a,), lambda g: (g * (cdf + x * pdf),))


def row_normalize(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Zero-mean unit-variance per row (parameter-free normalization)."""
    x = a.value
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (x - mu) * inv

    def backward(g):
        gm = g.mean(axis=1, keepdims=True)
        gy = (g * y).mean(axis=1, keepdims=True)
        return (inv * (g - gm - y * gy),)

    return _emit("row_normalize", y, (a,), backward)


class _Segments:
    """Runs of equal keys in a key-sorted edge array, for ``reduceat``."""

    __slots__ = ("ids", "starts", "counts", "n")

    def __init__(self, sorted_keys: np.ndarray, n: int):
        counts = np.bincount(sorted_keys, minlength=n)
        self.ids = np.flatnonzero(counts)  # keys that have edges
        self.counts = counts[self.ids]
        self.starts = np.cumsum(self.counts) - self.counts
        self.n = n

    def reduce(self, ufunc, x: np.ndarray) -> np.ndarray:
        """One reduction per key that has edges, spread back over its edges."""
        return np.repeat(ufunc.reduceat(x, self.starts, axis=0), self.counts, axis=0)

    def sum(self, x: np.ndarray) -> np.ndarray:
        """(E, ...) per edge -> (n, ...) per key; keys without edges get zeros."""
        out = np.zeros((self.n,) + x.shape[1:])
        if self.ids.size:
            out[self.ids] = np.add.reduceat(x, self.starts, axis=0)
        return out


class EdgeList:
    """The (query row, key column) pairs one attention kind may use, sorted by row.

    Reductions over a row's edges are ``reduceat`` over the row starts; those
    over a column's edges run on the column-sorted permutation ``col_order``.
    """

    __slots__ = ("rows", "cols", "n_rows", "n_cols", "by_row", "col_order", "by_col")

    def __init__(self, rows, cols, n_rows: int, n_cols: int):
        rows = np.asarray(rows, dtype=np.intp).reshape(-1)
        cols = np.asarray(cols, dtype=np.intp).reshape(-1)
        if rows.shape != cols.shape:
            raise ShapeError(f"EdgeList: {rows.size} rows for {cols.size} columns")
        if rows.size and (
            rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols
        ):
            raise ShapeError(f"EdgeList: edge out of range for a ({n_rows}, {n_cols}) pattern")
        if (np.diff(rows) < 0).any():
            raise ShapeError("EdgeList: edges must be sorted by row")
        self.rows, self.cols = rows, cols
        self.n_rows, self.n_cols = int(n_rows), int(n_cols)
        self.by_row = _Segments(rows, self.n_rows)
        self.col_order = np.argsort(cols, kind="stable")
        self.by_col = _Segments(cols[self.col_order], self.n_cols)

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "EdgeList":
        rows, cols = np.nonzero(mask)
        return cls(rows, cols, *mask.shape)

    def __len__(self) -> int:
        return self.rows.size

    def dense(self, values: np.ndarray) -> np.ndarray:
        """(E,) per-edge values as an (n_rows, n_cols) matrix, zero off the edges."""
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.rows, self.cols] = values
        return out


def _head_blocks(t: Tensor, rows: int, heads: int, op: str) -> np.ndarray:
    """An (rows, heads * d) operand viewed as (rows, heads, d)."""
    r, width = t.value.shape
    if r != rows or width % heads:
        raise ShapeError(f"{op}: operand {t.value.shape} is not ({rows}, {heads} * d)")
    return t.value.reshape(rows, heads, width // heads)


def softmax_bias_mask(q: Tensor, k: Tensor, bias: Tensor, edges: EdgeList, heads: int) -> Tensor:
    """Attention weights of all heads on every edge: (R, H*d), (C, H*d), (E, 1) -> (E, H).

    z[e, h] = q[row_e, h] . k[col_e, h] / sqrt(d) + bias[e], and each head's
    weights are a softmax of z over the edges of one query row. A pair with no
    edge never enters a normalization; a row with no edges has no weights.
    """
    qv = _head_blocks(q, edges.n_rows, heads, "softmax_bias_mask")
    kv = _head_blocks(k, edges.n_cols, heads, "softmax_bias_mask")
    if bias.value.shape != (len(edges), 1):
        raise ShapeError(f"softmax_bias_mask: bias {bias.value.shape} for {len(edges)} edges")
    q_shape, k_shape = q.value.shape, k.value.shape  # the closure keeps no Tensor
    rows, cols, by_row = edges.rows, edges.cols, edges.by_row
    inv_sqrt_d = 1.0 / math.sqrt(qv.shape[2])
    z = np.einsum("ehd,ehd->eh", qv[rows], kv[cols]) * inv_sqrt_d + bias.value
    w = np.exp(z - by_row.reduce(np.maximum, z))
    w /= by_row.reduce(np.add, w)

    def backward(g):
        dz = w * (g - by_row.reduce(np.add, g * w))
        ds = (dz * inv_sqrt_d)[:, :, None]
        order = edges.col_order
        dq = by_row.sum(ds * kv[cols])
        dk = edges.by_col.sum(ds[order] * qv[rows[order]])
        return dq.reshape(q_shape), dk.reshape(k_shape), dz.sum(axis=1, keepdims=True)

    return _emit("softmax_bias_mask", w, (q, k, bias), backward)


def scatter_pairs(weights: Tensor, v: Tensor, edges: EdgeList) -> Tensor:
    """Weighted sums of values into the query rows: (E, H), (C, H*d) -> (R, H*d).

    out[i, h] is the sum over the edges e of row i of weights[e, h] * v[col_e, h].
    """
    heads = weights.value.shape[1]
    if weights.value.shape[0] != len(edges):
        raise ShapeError(f"scatter_pairs: {weights.value.shape[0]} weights for {len(edges)} edges")
    vv = _head_blocks(v, edges.n_cols, heads, "scatter_pairs")
    wv = weights.value
    rows, cols = edges.rows, edges.cols
    v_shape = v.value.shape
    out = edges.by_row.sum(wv[:, :, None] * vv[cols]).reshape(edges.n_rows, v_shape[1])

    def backward(g):
        gv = g.reshape(edges.n_rows, heads, v_shape[1] // heads)
        order = edges.col_order
        dw = np.einsum("ehd,ehd->eh", gv[rows], vv[cols])
        dv = edges.by_col.sum(wv[order, :, None] * gv[rows[order]])
        return dw, dv.reshape(v_shape)

    return _emit("scatter_pairs", out, (weights, v), backward)


def gaussian_kernel_features(
    alpha: Tensor, beta: Tensor, x: np.ndarray, mu: np.ndarray, sigma: float
) -> Tensor:
    """Kernel bank responses for P scalars: (P, 1) params -> (P, K).

    f[p, k] = -(1 / (sqrt(2 pi) sigma)) * exp(-((alpha_p x_p + beta_p - mu_k) / sigma)^2 / 2)
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    if alpha.value.shape != x.shape or beta.value.shape != x.shape:
        raise ShapeError(
            f"gaussian_kernel_features: params {alpha.value.shape}/{beta.value.shape} "
            f"do not match inputs {x.shape}"
        )
    sigma = abs(float(sigma))
    u = alpha.value * x + beta.value
    z = (u - mu.reshape(1, -1)) / sigma
    f = -np.exp(-0.5 * z * z) / (_SQRT_2PI * sigma)

    def backward(g):
        du = g * (-z * f) / sigma  # (P, K)
        du = du.sum(axis=1, keepdims=True)
        return (du * x, du)

    return _emit("gaussian_kernel_features", f, (alpha, beta), backward)


# ---------------------------------------------------------------------------
# Fused losses
# ---------------------------------------------------------------------------


def cross_entropy_rows(logits: Tensor, targets) -> Tensor:
    """Sum over rows of -log softmax(logits)[target]."""
    targets = np.asarray(targets, dtype=np.intp).reshape(-1)
    n, c = logits.value.shape
    if targets.shape[0] != n:
        raise ShapeError(f"cross_entropy_rows: {targets.shape[0]} targets for {n} rows")
    if targets.size and (targets.min() < 0 or targets.max() >= c):
        raise ShapeError(f"cross_entropy_rows: target id out of range for {c} classes")
    x = logits.value
    rowmax = x.max(axis=1, keepdims=True)
    e = np.exp(x - rowmax)
    s = e.sum(axis=1, keepdims=True)
    logp = (x - rowmax) - np.log(s)
    loss = -logp[np.arange(n), targets].sum()
    p = e / s

    def backward(g):
        dx = p.copy()
        dx[np.arange(n), targets] -= 1.0
        return (dx * g[0, 0],)

    return _emit("cross_entropy_rows", np.array([[loss]]), (logits,), backward)


def bce_with_logits_mean(logits: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy with a stable logit formulation."""
    labels = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    if labels.shape != logits.value.shape or logits.value.shape[1] != 1:
        raise ShapeError("bce_with_logits_mean: logits and labels must be (P, 1)")
    x = logits.value
    n = x.shape[0]
    if n == 0:
        raise ShapeError("bce_with_logits_mean: empty input")
    per = np.maximum(x, 0.0) - x * labels + np.log1p(np.exp(-np.abs(x)))
    e = np.exp(-np.abs(x))  # overflow-free logistic
    sig = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g):
        return ((sig - labels) * (g[0, 0] / n),)

    return _emit("bce_with_logits_mean", np.array([[per.mean()]]), (logits,), backward)


# ---------------------------------------------------------------------------
# Backward pass and parameter registry
# ---------------------------------------------------------------------------


class Gradients:
    """Per-node adjoints produced by one backward pass."""

    def __init__(self, grads: dict[int, np.ndarray]):
        self._grads = grads

    def wrt(self, t: Tensor) -> np.ndarray | None:
        return self._grads.get(t.node_id)


def backward(tape: Tape, loss: Tensor) -> Gradients:
    """Reverse accumulation from a scalar loss; each node visited once."""
    if loss.tape is not tape or loss.node_id < 0:
        raise ShapeError("loss was not recorded on this tape")
    if loss.value.shape != (1, 1):
        raise ShapeError(f"loss must be a (1, 1) scalar, got {loss.value.shape}")
    grads: dict[int, np.ndarray] = {loss.node_id: np.ones((1, 1))}
    for node_id in range(loss.node_id, -1, -1):
        g = grads.pop(node_id, None)
        if g is None:
            continue
        fn = tape._backward[node_id]
        if fn is None:
            grads[node_id] = g  # leaf: keep its accumulated adjoint
            continue
        parent_grads = fn(g)
        for pid, pg in zip(tape._parents[node_id], parent_grads):
            if pg is None or pid < 0:  # pid -1: an untaped input such as a constant
                continue
            acc = grads.get(pid)
            grads[pid] = pg if acc is None else acc + pg
    return Gradients(grads)


class ModelParams:
    """Named registry of learnable arrays with a stable flat view."""

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def register(self, name: str, value) -> np.ndarray:
        if name in self._arrays:
            raise ValueError(f"duplicate parameter name {name!r}")
        arr = np.ascontiguousarray(np.asarray(value, dtype=np.float64))
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        self._arrays[name] = arr
        return arr

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def names(self) -> tuple[str, ...]:
        return tuple(self._arrays)

    def items(self) -> Iterable[tuple[str, np.ndarray]]:
        return self._arrays.items()

    @property
    def size(self) -> int:
        return sum(a.size for a in self._arrays.values())

    def slices(self) -> dict[str, slice]:
        out: dict[str, slice] = {}
        offset = 0
        for name, arr in self._arrays.items():
            out[name] = slice(offset, offset + arr.size)
            offset += arr.size
        return out

    def flat(self) -> np.ndarray:
        if not self._arrays:
            return np.zeros(0)
        return np.concatenate([a.ravel() for a in self._arrays.values()])

    def set_flat(self, vector: np.ndarray) -> None:
        vector = np.asarray(vector, dtype=np.float64).ravel()
        if vector.size != self.size:
            raise ShapeError(f"flat vector has {vector.size} entries, expected {self.size}")
        offset = 0
        for arr in self._arrays.values():
            arr[...] = vector[offset : offset + arr.size].reshape(arr.shape)
            offset += arr.size


class TapeParams:
    """Registry arrays as tape leaves; one leaf per used array and tape.

    Every view of one registry on one tape shares the tape's leaf ids, so
    gradients accumulate on a single node per parameter. A view holds the
    tape, never the reverse.
    """

    def __init__(self, params: ModelParams, tape: Tape | None):
        self.params = params
        self.tape = tape
        self._leaf_ids: dict[str, int] = (
            {} if tape is None else tape._param_leaves.setdefault(id(params), (params, {}))[1]
        )

    def __getitem__(self, name: str) -> Tensor:
        arr = self.params[name]
        if self.tape is None:
            return Tensor(arr, None, -1)
        node_id = self._leaf_ids.get(name)
        if node_id is None:
            node_id = self._leaf_ids[name] = self.tape.leaf(arr).node_id
        return Tensor(arr, self.tape, node_id)

    def flat_gradients(self, grads: Gradients) -> np.ndarray:
        """Gradient vector aligned with the registry flat view; unused -> 0."""
        out = np.zeros(self.params.size)
        slices = self.params.slices()
        for name, node_id in self._leaf_ids.items():
            g = grads._grads.get(node_id)
            if g is not None:
                out[slices[name]] = g.ravel()
        return out


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_err: float
    mean_rel_err: float
    n_coordinates: int
    per_param: dict[str, float]  # name -> worst relative error in that array

    def worst(self, k: int = 5) -> list[tuple[str, float]]:
        ranked = sorted(self.per_param.items(), key=lambda kv: -kv[1])
        return ranked[:k]


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(1e-8, abs(a) + abs(b))


def grad_check(
    f: Callable[[Tape | None], tuple[Tensor | float, TapeParams | None]],
    params: ModelParams,
    step: float = 1e-4,
) -> GradCheckReport:
    """Compare reverse-mode gradients of ``f`` against central differences.

    ``f`` must be deterministic given the current parameter values and return
    ``(loss, tape_params)``: the analytic call receives a tape and must hand
    back the ``TapeParams`` view it read parameters through, so leaf
    gradients can be collected; finite-difference calls receive ``None`` and
    may return ``(float, None)``. Relative error per coordinate is
    |a - b| / max(1e-8, |a| + |b|).
    """
    tape = Tape()
    loss, tp = f(tape)
    if not isinstance(loss, Tensor) or loss.tape is not tape or tp is None:
        raise ShapeError("grad_check: analytic call must return (taped Tensor, TapeParams)")
    analytic = tp.flat_gradients(backward(tape, loss))

    def value_only() -> float:
        out, _ = f(None)
        return out.item() if isinstance(out, Tensor) else float(out)

    n = params.size
    errors = np.zeros(n)
    idx = 0
    for _, arr in params.items():
        view = arr.reshape(-1)
        for k in range(view.size):
            original = view[k]
            view[k] = original + step
            up = value_only()
            view[k] = original - step
            down = value_only()
            view[k] = original
            fd = (up - down) / (2.0 * step)
            errors[idx] = relative_error(analytic[idx], fd)
            idx += 1

    per_param = {
        name: float(errors[sl].max()) if errors[sl].size else 0.0
        for name, sl in params.slices().items()
    }
    return GradCheckReport(
        max_rel_err=float(errors.max()) if n else 0.0,
        mean_rel_err=float(errors.mean()) if n else 0.0,
        n_coordinates=n,
        per_param=per_param,
    )
