"""Reverse-mode automatic differentiation over dense numpy arrays.

Only the operations a recurrent attention encoder-decoder composes are
provided: products, concat, elementwise add/mul, tanh, embedding lookup,
masked softmax and softmax cross-entropy, and reductions. ``matmul``
multiplies a matrix by a matrix or by a vector (a row on its left, a column
on its right), and ``dot`` two vectors. No broadcasting beyond row-bias
addition and scalar scaling.

A tensor's ``requires_grad`` says whether it wants a gradient. A leaf keeps
the value it was built with; an op's output wants one when one of its
operands does, and only then is it linked to them. So a backward asks each
operand that one flag.

A computation graph is the set of Tensors linked through ``_parents``. A
node holds its operands there, in ``_backward`` a module-level function
``(node, g)`` that passes the gradient ``g`` on to them, and in ``_ctx`` at
most one value it does not hold already (``scale``'s factor, say); ``tanh``
reads its output from ``data``. So the garbage collector tracks two objects
per node: the Tensor and its parents tuple. Each op numbers its node, and a
node's parents exist before it, so ``backward`` runs the reachable nodes'
backwards newest first, a reverse topological order. Gradients accumulate.
A matrix-vector product gives its matrix a rank-1 gradient; for a leaf
matrix, ``backward`` keeps the two factors and adds them all at its end in
one matrix product. Leaves have no backward of their own, so nothing reads
their gradient before then, and no pending factor outlives the call, even
one that raises.

A backward hands each operand its gradient through ``Tensor._accumulate``,
the one place that fits a gradient to its tensor: it sums the leading axes
that broadcasting added (a row bias, a scalar operand) and spreads a 0-d
gradient over the tensor. So the sums ``add``, ``sum_over`` and
``reduce_sum`` share one backward, which hands ``g`` to each operand, and
the products ``mul`` and ``dot`` share one, which hands each factor ``g``
times the other. No two tensors share a gradient array: ``_accumulate``
adopts a gradient the backward computed fresh, and copies one passed on
unchanged (a sum's ``g``, a spread scalar); ``concat`` copies its ``g``
once and hands each part a disjoint slice. So scaling one tensor's gradient
in place, as ``clip_grad_norm`` does, leaves every other gradient as it was.

Every tensor is float64. Data that numpy cannot turn into an array, or
reads as an array of any kind but bool, integer or float (None, a string, a
complex number or a date, which a float array would hold as NaN, the number
it spells, its real part or a day count), a softmax mask that numpy reads
as anything but bool or integer, and a shape that numpy rejects raise
``ShapeError``. A scale that ``uniform`` cannot draw from, logits
whose largest is NaN or infinite, a loss that is not finite, and a gradient
that is not finite, or whose square is not, in ``Adam.step`` raise
``NumericError``. A ``clip_grad_norm`` ``max_norm`` that is not above 0
(NaN included) and an ``Adam`` learning rate that is not finite and above 0
raise ``ConfigError`` before any gradient or parameter changes. An operand
that is not a ``Tensor`` raises ``AttributeError``: that is a caller's bug,
not bad data, and the ops do not test for it.
"""

from __future__ import annotations

import sys
from itertools import count
from operator import attrgetter, index as _as_index

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

class Tensor:
    """A dense array with an optional gradient and parent links.

    ``data`` is row-major; ``grad`` (once populated) always matches its shape.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_ctx",
                 "_created", "_factors")

    def __init__(self, data, requires_grad: bool = False):
        # numpy kinds b, i, u, f only: else None would read as NaN, "1" as 1.0
        self.data = _as_array(data, "biuf", "float array").astype(np.float64, copy=False)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        # a leaf's pending rank-1 terms (lefts, rights) while ``backward`` runs
        self._factors: tuple[list, list] | None = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add ``g``, fitted to this tensor's shape, to the gradient. A ``g``
        with more axes has the leading ones that broadcasting added summed
        away, and a 0-d ``g`` is spread over the tensor. A ``fresh`` array,
        one that nothing else holds, becomes the first gradient itself, and
        any other is copied."""
        shape = self.data.shape
        if g.shape != shape:
            if g.ndim > len(shape):
                g, fresh = (g.sum(axis=0) if shape else g.sum()), True
            else:  # a read-only view, so it is copied, not adopted
                g, fresh = np.broadcast_to(g, shape), False
        if self.grad is None:
            self.grad = g if fresh and type(g) is np.ndarray else np.array(g)
        else:
            self.grad += g


def _as_array(data, kinds: str, what: str) -> np.ndarray:
    """``data`` as a numpy array whose dtype kind is one of ``kinds``; data
    that numpy cannot read as one raises ShapeError, naming ``what``."""
    try:
        data = np.asarray(data)
    except (TypeError, ValueError) as e:
        raise ShapeError(f"not a {what}: {e}") from None
    if data.dtype.kind not in kinds:
        raise ShapeError(f"not a {what}: numpy reads the data as {data.dtype}")
    return data


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(_sized(np.zeros, shape), requires_grad=requires_grad)


def uniform(shape, rng: np.random.Generator, scale: float = 0.08) -> Tensor:
    """Uniform(-scale, scale) initialization for trainable matrices."""
    try:
        return Tensor(_sized(rng.uniform, shape, -scale, scale), requires_grad=True)
    except OverflowError as e:  # a range that is NaN or not finite
        raise NumericError(f"cannot draw from Uniform(-scale, scale), scale={scale}: {e}") \
            from None


def _sized(make, shape, *args) -> np.ndarray:
    """``make(*args, shape)``; a shape that numpy rejects raises ShapeError."""
    try:
        return make(*args, shape)
    except (TypeError, ValueError) as e:
        raise ShapeError(f"bad shape {shape!r}: {e}") from None


# numbers interior nodes as they are made; one counter serves every graph,
# since the order only has to put each node after its parents
_creation = count()
_new_tensor = object.__new__


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn, ctx=None) -> Tensor:
    """The node of an op's output. It wants a gradient, ``requires_grad``,
    if a parent does, and only then keeps ``parents``, ``backward_fn(node,
    g)`` and ``ctx``, a saved value that is not a Tensor, so a one-parent
    backward need not ask."""
    if type(data) is not np.ndarray:  # a 0-d result comes back as a numpy scalar
        data = np.asarray(data)
    out = _new_tensor(Tensor)
    out.data = data
    out.grad = out._factors = None
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._backward = backward_fn
            out._ctx = ctx
            out._created = next(_creation)
            return out
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; also supports matrix + row bias and anything + scalar."""
    if not (a.data.shape == b.data.shape or a.data.ndim == 0 or b.data.ndim == 0
            or a.data.ndim == 2 and b.data.shape == a.data.shape[1:]):
        raise ShapeError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}")
    return _make(a.data + b.data, (a, b), _sum_backward)


def _sum_backward(node: Tensor, g: np.ndarray) -> None:
    """For a sum (``add``, ``sum_over``, ``reduce_sum``): each operand that
    wants a gradient gets ``g``."""
    for p in node._parents:
        if p.requires_grad:
            p._accumulate(g)


def scale(a: Tensor, k: float) -> Tensor:
    k = float(k)
    return _make(a.data * k, (a,), _times_ctx_backward, k)


def _times_ctx_backward(node: Tensor, g: np.ndarray) -> None:
    """For an op whose gradient is ``g`` times a factor it saved in ``_ctx``."""
    node._parents[0]._accumulate(g * node._ctx, True)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; one operand may be a scalar tensor."""
    if not (a.data.shape == b.data.shape or a.data.ndim == 0 or b.data.ndim == 0):
        raise ShapeError(f"mul: incompatible shapes {a.data.shape} and {b.data.shape}")
    return _make(a.data * b.data, (a, b), _mul_backward)


def _mul_backward(node: Tensor, g: np.ndarray) -> None:
    a, b = node._parents
    if a.requires_grad:
        a._accumulate(g * b.data, True)
    if b.requires_grad:
        b._accumulate(g * a.data, True)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if not (1 <= a.data.ndim <= 2 and 1 <= b.data.ndim <= 2):
        raise ShapeError("matmul requires 1D or 2D operands")
    if a.data.ndim == b.data.ndim == 1:
        raise ShapeError("matmul of two vectors: use dot")
    try:
        out_data = a.data @ b.data
    except ValueError as e:
        raise ShapeError(str(e)) from e
    return _make(out_data, (a, b), _matmul_backward)


def _matmul_backward(node: Tensor, g: np.ndarray) -> None:
    # each operand's gradient is g contracted with the other operand
    a, b = node._parents
    ad, bd = a.data, b.data
    if a.requires_grad:
        if bd.ndim == 2:
            a._accumulate(g @ bd.T, True)
        else:
            _acc_outer(a, g, bd)
    if b.requires_grad:
        if ad.ndim == 2:
            b._accumulate(ad.T @ g, True)
        else:
            _acc_outer(b, ad, g)


def _acc_outer(t: Tensor, u: np.ndarray, v: np.ndarray) -> None:
    """Accumulate ``np.multiply.outer(u, v)`` into t, or, for a leaf that a
    running ``backward`` collects terms for, keep the factors."""
    if t._factors is None:
        t._accumulate(np.multiply.outer(u, v), True)
    else:
        t._factors[0].append(u)
        t._factors[1].append(v)


def dot(a: Tensor, b: Tensor) -> Tensor:
    """Inner product of two equal-length vectors, as a 0-d tensor."""
    x, y = a.data, b.data
    if x.ndim != 1 or x.shape != y.shape:
        raise ShapeError(f"dot: need equal 1D shapes, got {x.shape}, {y.shape}")
    # ndarray.dot skips the dispatch of ``@`` and gives the same bits on vectors
    return _make(x.dot(y), (a, b), _mul_backward)


def concat(parts: list[Tensor]) -> Tensor:
    """Concatenate 0-d and 1D tensors into one 1D tensor.

    A scalar part counts as one entry, so attention scores built with ``dot``
    can be joined before a softmax. Each part's gradient keeps its own shape.
    """
    if not parts:
        raise ShapeError("concat of zero tensors")
    datas = [p.data for p in parts]
    ndims = {d.ndim for d in datas}
    if not ndims <= {0, 1}:
        raise ShapeError("concat supports 0-d and 1D tensors only")
    out_data = np.array(datas) if ndims == {0} else np.concatenate(
        [d if d.ndim else d.reshape(1) for d in datas])
    return _make(out_data, tuple(parts), _concat_backward)


def _concat_backward(node: Tensor, g: np.ndarray) -> None:
    g = g.copy()  # each part adopts its own disjoint view of the copy
    off = 0
    for p in node._parents:
        d = p.data
        if p.requires_grad:
            p._accumulate(g[off:off + d.size] if d.ndim else g[off, ...], True)
        off += d.size


def tanh(a: Tensor) -> Tensor:
    return _make(np.tanh(a.data), (a,), _tanh_backward)


def _tanh_backward(node: Tensor, g: np.ndarray) -> None:
    y = node.data
    node._parents[0]._accumulate(g * (1.0 - y * y), True)


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
    return _make(out_data, tuple(parts), _sum_backward)


def reduce_sum(a: Tensor) -> Tensor:
    return _make(a.data.sum(), (a,), _sum_backward)


def _index(i, n: int, what: str) -> int:
    """``i`` as an int in range(n); anything else, a bool too, raises ShapeError."""
    try:
        if isinstance(i, bool):  # an int to Python, which reads True as 1
            raise TypeError
        k = _as_index(i)
    except TypeError:
        raise ShapeError(f"{what} {i!r} is not an integer") from None
    if not 0 <= k < n:
        raise ShapeError(f"{what} {i} out of range {n}")
    return k


def embedding_lookup(table: Tensor, index: int) -> Tensor:
    if table.data.ndim != 2:
        raise ShapeError("embedding table must be 2D")
    index = _index(index, table.data.shape[0], "embedding index")
    return _make(table.data[index].copy(), (table,), _embedding_backward, index)


def _embedding_backward(node: Tensor, g: np.ndarray) -> None:
    table = node._parents[0]
    if table.grad is None:
        table.grad = np.zeros_like(table.data)
    table.grad[node._ctx] += g


def _masked_softmax(logits: np.ndarray, mask) -> np.ndarray:
    z = logits
    if mask is not None:
        # bool or integer only: a string, a NaN or a 0.5 would read as "keep"
        mask = _as_array(mask, "biu", "bool mask").astype(bool, copy=False)
        if mask.shape != z.shape:
            raise ShapeError("mask shape must match logits")
        if not mask.any():
            raise ShapeError("softmax with all positions masked")
        z = np.where(mask, z, -np.inf)
    top = z.max()
    if not np.isfinite(top):  # a NaN or +inf logit, or all -inf
        raise NumericError(f"softmax of logits whose largest is {top}")
    with np.errstate(over="ignore"):  # a logit far below top gives -inf: exp 0
        e = z - top  # a new array, so the steps below may work in place
    np.exp(e, out=e)
    e /= e.sum()
    return e


def softmax(a: Tensor, mask=None) -> Tensor:
    """Softmax over a 1D tensor; masked-out positions get probability zero."""
    if a.data.ndim != 1 or not a.data.size:
        raise ShapeError("softmax expects a non-empty 1D tensor")
    return _make(_masked_softmax(a.data, mask), (a,), _softmax_backward)


def _softmax_backward(node: Tensor, g: np.ndarray) -> None:
    p = node.data
    inner = (g * p).sum()
    node._parents[0]._accumulate(p * (g - inner), True)


def softmax_cross_entropy(logits: Tensor, target: int, mask=None) -> Tensor:
    """Negative log-likelihood of ``target`` under softmax(logits)."""
    if logits.data.ndim != 1:
        raise ShapeError("softmax_cross_entropy expects 1D logits")
    target = _index(target, logits.data.shape[0], "target")
    p = _masked_softmax(logits.data, mask)
    if p[target] >= sys.float_info.min:
        loss = -np.log(p[target])
    elif mask is not None and not mask[target]:
        raise ShapeError("target position is masked out")
    else:
        # p[target] underflows, to 0 or to a float with few digits, so take
        # -log p[target] from the logits: the largest minus the target's, plus
        # log(sum(exp(logits - largest))), which is -log p.max()
        x = logits.data
        loss = float(x[p.argmax()]) - float(x[target]) - float(np.log(p.max()))
        if not np.isfinite(loss):
            raise NumericError(f"cross-entropy of target logit {x[target]} is {loss}")
    p[target] -= 1.0  # p is now d(loss)/d(logits), which is all backward needs
    return _make(loss, (logits,), _times_ctx_backward, p)


def backward(loss: Tensor) -> None:
    """Populate grads of every reachable tensor with d(loss)/d(tensor).

    Every interior node (one with parents) was made after its parents, so
    the reachable interior nodes, newest first, are in reverse topological
    order: each runs its backward once, after every node it feeds. A call
    resets their grads first, so it propagates its own loss only; leaves
    accumulate across calls, and a leaf used several times gets the sum.
    A leaf's rank-1 terms from matrix-vector products are added as one
    matrix product when the walk ends, and never outlive the call. A loss
    that is not finite raises ``NumericError`` before any grad is written.
    """
    if loss.data.ndim != 0:
        raise ShapeError("backward requires a scalar loss")
    if not np.isfinite(loss.data):
        raise NumericError(f"loss is {loss.data}")
    stack = [loss] if loss._parents else []
    # in the order the walk finds them, nearly newest first: a cheap sort
    interior = dict.fromkeys(stack)
    leaves: list[Tensor] = []  # that collect rank-1 terms
    while stack:
        node = stack.pop()
        node.grad = None
        for p in node._parents:
            if p._parents:
                if p not in interior:
                    interior[p] = None
                    stack.append(p)
            elif p.requires_grad and p._factors is None:
                p._factors = ([], [])
                leaves.append(p)
    try:
        loss._accumulate(np.ones(()), True)
        for node in sorted(interior, key=attrgetter("_created"), reverse=True):
            if node.grad is not None:
                node._backward(node, node.grad)
        for t in leaves:
            us, vs = t._factors
            if us:
                t._accumulate(np.array(us).T @ np.array(vs), True)
    finally:
        for t in leaves:
            t._factors = None


def clip_grad_norm(params: list[Tensor], max_norm: float) -> float:
    """Scale all grads so their global L2 norm is at most ``max_norm``, and
    return the norm they had. An infinite ``max_norm`` only measures, and
    one that is not above 0 raises ``ConfigError``. A norm that is not
    finite raises ``NumericError``. Either changes no grad. Finite grads
    whose squares overflow are measured again, divided by their largest
    magnitude."""
    if not max_norm > 0.0:  # NaN too
        raise ConfigError(f"clip_grad_norm needs max_norm > 0, got {max_norm}")
    grads = [p.grad for p in params if p.grad is not None]
    with np.errstate(over="ignore"):
        norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if norm == np.inf:  # an overflow, or an infinite grad
        big = max(float(np.abs(g).max(initial=0.0)) for g in grads)
        if big < np.inf:
            norm = big * float(np.sqrt(sum(float(((g / big) ** 2).sum()) for g in grads)))
    if not np.isfinite(norm):
        raise NumericError(f"gradient norm is {norm}")
    if norm > max_norm:
        k = max_norm / norm
        for g in grads:
            g *= k
    return norm


ADAM_BETAS = (0.9, 0.999)  # decay rates of Adam's first and second moment estimates
ADAM_EPS = 1e-8  # added to the root of Adam's second moment before dividing


class Adam:
    """Adam over one parameter list: first/second moment estimates and a step
    counter, with ``ADAM_BETAS`` and ``ADAM_EPS``. ``step`` updates in place
    and skips each tensor that wants no gradient, whose ``requires_grad`` is
    False: a leaf built so, or an op's output on such tensors only. A
    gradient whose value or square is not finite raises ``NumericError``
    before anything changes: it would write NaN into a parameter, or make
    its second moment infinite and so stop it moving for good. A learning
    rate that is not finite and above 0 raises ``ConfigError``."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        if not 0.0 < lr < np.inf:  # NaN too
            raise ConfigError(f"Adam needs a finite learning rate > 0, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self) -> None:
        # every grad before the first write, one square at a time: a square
        # that overflows reads inf, which the check refuses
        with np.errstate(over="ignore"):
            for p in self.params:
                if p.requires_grad and p.grad is not None and not np.isfinite(
                        top := (p.grad * p.grad).max(initial=0.0)):
                    raise NumericError(f"Adam step with a gradient whose square is {top}")
        b1, b2 = ADAM_BETAS
        self.t += 1
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if not p.requires_grad:
                continue
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
