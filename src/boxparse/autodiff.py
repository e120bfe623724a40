"""Reverse-mode automatic differentiation over dense numpy arrays.

Only the operations a recurrent attention encoder-decoder composes are
provided: products, concat, elementwise add/mul, tanh, embedding lookup,
masked softmax and softmax cross-entropy, and reductions. ``matmul``
multiplies a matrix by a matrix or by a vector (a row on its left, a column
on its right), and ``dot`` two vectors. No broadcasting beyond row-bias
addition and scalar scaling.

A computation graph is the set of Tensors linked through ``_parents``;
``backward`` walks it once in reverse topological order and accumulates
gradients, so a parameter used several times receives the summed gradient.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

_DTYPE = np.float64


def set_dtype(dtype) -> None:
    """Switch the default float precision (float64 for tests, float32 for speed)."""
    global _DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ShapeError(f"unsupported dtype {dtype!r}")
    _DTYPE = dt.type


class Tensor:
    """A dense array with an optional gradient and parent links.

    ``data`` is row-major; ``grad`` (once populated) always matches its shape.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_DTYPE)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=_DTYPE), requires_grad=requires_grad)


def uniform(shape, rng: np.random.Generator, scale: float = 0.08,
            requires_grad: bool = True) -> Tensor:
    """Uniform(-scale, scale) initialization for trainable matrices."""
    return Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=requires_grad)


def _wants_grad(t: Tensor) -> bool:
    return t.requires_grad or bool(t._parents)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if any(_wants_grad(p) for p in parents):
        out._parents = parents
        out._backward = backward_fn
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; also supports matrix + row bias and anything + scalar."""
    if not (a.data.shape == b.data.shape or a.data.ndim == 0 or b.data.ndim == 0
            or a.data.ndim == 2 and b.data.shape == a.data.shape[1:]):
        raise ShapeError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}")
    out_data = a.data + b.data

    def bwd(g):
        _acc_reduced(a, g)
        _acc_reduced(b, g)

    return _make(out_data, (a, b), bwd)


def _acc_reduced(t: Tensor, g: np.ndarray) -> None:
    """Accumulate g into t, summing the leading axes that broadcasting added."""
    if not _wants_grad(t):
        return
    if g.ndim > t.data.ndim:
        g = g.sum(axis=tuple(range(g.ndim - t.data.ndim)))
    if g.shape != t.data.shape:
        raise ShapeError(f"gradient shape {g.shape} does not reduce to {t.data.shape}")
    t._accumulate(g)


def scale(a: Tensor, k: float) -> Tensor:
    out_data = a.data * k

    def bwd(g):
        _acc_reduced(a, g * k)

    return _make(out_data, (a,), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; one operand may be a scalar tensor."""
    if not (a.data.shape == b.data.shape or a.data.ndim == 0 or b.data.ndim == 0):
        raise ShapeError(f"mul: incompatible shapes {a.data.shape} and {b.data.shape}")
    out_data = a.data * b.data

    def bwd(g):
        _acc_reduced(a, g * b.data)
        _acc_reduced(b, g * a.data)

    return _make(out_data, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if not (1 <= a.data.ndim <= 2 and 1 <= b.data.ndim <= 2):
        raise ShapeError("matmul requires 1D or 2D operands")
    if a.data.ndim == b.data.ndim == 1:
        raise ShapeError("matmul of two vectors: use dot")
    try:
        out_data = a.data @ b.data
    except ValueError as e:
        raise ShapeError(str(e)) from e

    def bwd(g):
        # each operand's gradient is g contracted with the other operand
        ad, bd = a.data, b.data
        if _wants_grad(a):
            a._accumulate(g @ bd.T if bd.ndim == 2 else np.multiply.outer(g, bd))
        if _wants_grad(b):
            b._accumulate(ad.T @ g if ad.ndim == 2 else np.multiply.outer(ad, g))

    return _make(out_data, (a, b), bwd)


def dot(a: Tensor, b: Tensor) -> Tensor:
    """Inner product of two equal-length vectors, as a 0-d tensor."""
    if a.data.ndim != 1 or b.data.ndim != 1 or a.data.shape != b.data.shape:
        raise ShapeError(f"dot: need equal 1D shapes, got {a.data.shape}, {b.data.shape}")

    def bwd(g):
        if _wants_grad(a):
            a._accumulate(g * b.data)
        if _wants_grad(b):
            b._accumulate(g * a.data)

    return _make(a.data @ b.data, (a, b), bwd)


def concat(parts: list[Tensor]) -> Tensor:
    """Concatenate 0-d and 1D tensors into one 1D tensor.

    A scalar part counts as one entry, so attention scores built with ``dot``
    can be joined before a softmax. Each part's gradient keeps its own shape.
    """
    if not parts:
        raise ShapeError("concat of zero tensors")
    if any(p.data.ndim > 1 for p in parts):
        raise ShapeError("concat supports 0-d and 1D tensors only")
    out_data = np.concatenate([p.data.reshape(-1) for p in parts])

    def bwd(g):
        off = 0
        for p in parts:
            n = p.data.size
            _acc_reduced(p, g[off:off + n].reshape(p.data.shape))
            off += n

    return _make(out_data, tuple(parts), bwd)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def bwd(g):
        _acc_reduced(a, g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), bwd)


def sum_over(parts: list[Tensor]) -> Tensor:
    """Elementwise sum of same-shape tensors (empty-child sums are built by caller)."""
    if not parts:
        raise ShapeError("sum_over of zero tensors")
    shape = parts[0].data.shape
    if any(p.data.shape != shape for p in parts):
        raise ShapeError("sum_over requires identical shapes")
    out_data = parts[0].data.copy()
    for p in parts[1:]:
        out_data += p.data

    def bwd(g):
        for p in parts:
            _acc_reduced(p, g)

    return _make(out_data, tuple(parts), bwd)


def reduce_sum(a: Tensor) -> Tensor:
    out_data = a.data.sum()

    def bwd(g):
        _acc_reduced(a, np.full(a.data.shape, g, dtype=a.data.dtype))

    return _make(np.asarray(out_data), (a,), bwd)


def embedding_lookup(table: Tensor, index: int) -> Tensor:
    if table.data.ndim != 2:
        raise ShapeError("embedding table must be 2D")
    if not 0 <= index < table.data.shape[0]:
        raise ShapeError(f"embedding index {index} out of range {table.data.shape[0]}")
    out_data = table.data[index].copy()

    def bwd(g):
        if _wants_grad(table):
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            table.grad[index] += g

    return _make(out_data, (table,), bwd)


def _masked_softmax(logits: np.ndarray, mask) -> np.ndarray:
    z = logits.astype(logits.dtype, copy=True)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != z.shape:
            raise ShapeError("mask shape must match logits")
        if not mask.any():
            raise ShapeError("softmax with all positions masked")
        z = np.where(mask, z, -np.inf)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def softmax(a: Tensor, mask=None) -> Tensor:
    """Softmax over a 1D tensor; masked-out positions get probability zero."""
    if a.data.ndim != 1:
        raise ShapeError("softmax expects a 1D tensor")
    p = _masked_softmax(a.data, mask)

    def bwd(g):
        inner = (g * p).sum()
        _acc_reduced(a, p * (g - inner))

    return _make(p, (a,), bwd)


def softmax_cross_entropy(logits: Tensor, target: int, mask=None) -> Tensor:
    """Negative log-likelihood of ``target`` under softmax(logits)."""
    if logits.data.ndim != 1:
        raise ShapeError("softmax_cross_entropy expects 1D logits")
    if not 0 <= target < logits.data.shape[0]:
        raise ShapeError(f"target {target} out of range")
    p = _masked_softmax(logits.data, mask)
    if p[target] <= 0.0:
        raise ShapeError("target position is masked out")
    loss = -np.log(p[target])

    def bwd(g):
        d = p.copy()
        d[target] -= 1.0
        _acc_reduced(logits, g * d)

    return _make(np.asarray(loss), (logits,), bwd)


def backward(loss: Tensor) -> None:
    """Populate grads of every reachable tensor with d(loss)/d(tensor).

    Iterative post-order traversal: each node is visited exactly once even
    on diamond-shaped graphs, and repeated uses accumulate.
    """
    if loss.data.ndim != 0:
        raise ShapeError("backward requires a scalar loss")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss._accumulate(np.asarray(1.0, dtype=loss.data.dtype))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def clip_grad_norm(params: list[Tensor], max_norm: float) -> float:
    """Scale all grads so their global L2 norm is at most ``max_norm``."""
    sq = 0.0
    for p in params:
        if p.grad is not None:
            sq += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(sq))
    if norm > max_norm > 0.0:
        k = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= k
    return norm


class Adam:
    """Adam over one parameter list: first/second moment estimates and a step
    counter. ``step`` updates in place and skips tensors with
    requires_grad=False."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self) -> None:
        b1, b2 = self.betas
        self.t += 1
        for i, p in enumerate(self.params):
            if not p.requires_grad:
                continue
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * (g * g)
            m_hat = self.m[i] / (1 - b1 ** self.t)
            v_hat = self.v[i] / (1 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
