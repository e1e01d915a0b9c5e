"""Dense float64 primitives of the composition pipeline.

Conventions: a vector is a 1-D float64 ndarray, a matrix a 2-D row-major
float64 ndarray. `affine`, `leaky_relu`, `abs_normalize` and
`cap_floor_clamp` also accept a leading few-class axis, so one call runs the
same step for every few class and gives each class the bits of its own
per-vector call. Gradients are closed-form: `_softmax_xent` makes a score
matrix its cross-entropy gradient in place, and each of the other four steps
has a `*_vjp` function that maps the gradient of its output to the gradients
of its inputs; `model.loss_and_grads` chains them. `_sgd_epochs` is the one
epoch/batch loop of both trainers. `finite_diff_check` is the harness the
tests use to certify the gradients against central differences.

Reductions call `np.add.reduce` and `np.maximum.reduce` directly: `np.sum`,
`.max()` and `.mean()` wrap the same ufuncs, so the bits are theirs, but the
wrappers' Python layers cost more than the reduction on these small arrays.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DegenerateAlphaError, NumericError, ShapeError

__all__ = [
    "as_vector",
    "affine",
    "leaky_relu",
    "abs_normalize",
    "cap_floor_clamp",
    "affine_vjp",
    "leaky_relu_vjp",
    "abs_normalize_vjp",
    "cap_floor_clamp_vjp",
    "sgd_momentum_step",
    "finite_diff_check",
]

#: Below this, the absolute-value sum of an alpha vector counts as degenerate.
DEGENERATE_EPS = 1e-12


def as_vector(x, what: str = "vector") -> np.ndarray:
    out = np.asarray(x, dtype=np.float64)
    if out.ndim != 1:
        raise ShapeError(f"{what}: expected 1-D, got shape {out.shape}")
    return out


# ---------------------------------------------------------------------------
# Forward operations


def affine(m: np.ndarray, v: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[..., r] = sum_c m[..., r, c] * v[..., c] + b[..., r].

    Leading axes shared by all three operands are batch axes: each batch
    entry gets its own matrix, vector and bias.
    """
    m, v, b = np.asarray(m), np.asarray(v), np.asarray(b)
    if m.ndim < 2 or m.shape[:-2] + m.shape[-1:] != v.shape:
        raise ShapeError(f"affine: matrix {m.shape} incompatible with vector {v.shape}")
    if b.shape != m.shape[:-1]:
        raise ShapeError(f"affine: matrix {m.shape} incompatible with bias {b.shape}")
    # An explicit length-1 axis keeps every batch entry on the matrix-vector
    # product that a lone 2-D @ 1-D call takes, so the bits agree.
    out = np.matmul(m, v[..., None])[..., 0]
    out += b
    return out


def leaky_relu(v: np.ndarray, slope: float) -> np.ndarray:
    """Identity for nonnegative entries, `slope * x` for negative ones."""
    if not 0.0 <= slope < 1.0:
        raise ValueError(f"leaky_relu slope must be in [0, 1), got {slope}")
    v = np.asarray(v)
    return np.where(v >= 0.0, v, slope * v)


def abs_normalize(v: np.ndarray, strict: bool = True) -> np.ndarray:
    """Divide each vector (last axis) by its sum of absolute values, so that
    sum(|out|) == 1 along that axis.

    With ``strict=True`` an (effectively) all-zero vector raises
    :class:`DegenerateAlphaError`; otherwise the denominator is floored at
    ``DEGENERATE_EPS``, which leaves non-degenerate inputs bit-identical to
    the strict result.
    """
    v = np.asarray(v, dtype=np.float64)
    s = np.add.reduce(np.abs(v), axis=-1, keepdims=True)
    if strict:
        degenerate = s <= DEGENERATE_EPS
        if degenerate.any():
            raise DegenerateAlphaError(
                "cannot normalize near-zero vector "
                f"(sum of |entries| = {float(s[degenerate][0]):g})"
            )
    return v / np.maximum(s, DEGENERATE_EPS)


def cap_floor_clamp(v: np.ndarray, cap: float, floor: float) -> np.ndarray:
    """Clamp |v[..., 0]| from above by `cap` and |v[..., 1:]| from below by `floor`.

    Signs are preserved; a floored exact zero becomes `+floor`. Used on
    normalized alpha vectors, where the cap keeps the original classifier
    from absorbing all the weight and the floor keeps every neighbor alive.
    """
    v = np.asarray(v, dtype=np.float64)
    # sign'(0) = +1: a zero coordinate is pushed to +floor.
    out = np.where(np.abs(v) < floor, np.where(v >= 0.0, floor, -floor), v)
    # The first coordinate takes no floor: it is clipped to [-cap, cap] instead.
    out[..., 0] = np.minimum(np.maximum(v[..., 0], -cap), cap)
    return out


# ---------------------------------------------------------------------------
# Vector-Jacobian products: `g` is the gradient of a forward operation's
# output, and leading few-class axes carry through as in the forward calls.


def affine_vjp(m: np.ndarray | None, v: np.ndarray, g: np.ndarray):
    """Gradients of `affine(m, v, b)` with respect to m, v and b. With `m`
    None the gradient for v, an input that needs none, is skipped as None."""
    g_v = None if m is None else np.matmul(np.swapaxes(m, -1, -2), g[..., None])[..., 0]
    return g[..., :, None] * v[..., None, :], g_v, g


def leaky_relu_vjp(v: np.ndarray, slope: float, g: np.ndarray) -> np.ndarray:
    """Gradient of `leaky_relu(v, slope)` with respect to v (slope 1 at 0)."""
    return np.where(v >= 0.0, 1.0, slope) * g


def abs_normalize_vjp(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of `abs_normalize(v)` with respect to v, by the quotient rule
    d(v_j/S)/d(v_k) = delta_jk/S - v_j sign(v_k)/S^2, summed against g as
    (g - (g . (v/S)) sign(v)) / S. Every entry of v/S is at most 1, so no
    intermediate overflows, as S^2 would from S = 2**512 on, and scaling v
    by a power of two scales the gradient exactly by its inverse."""
    s = np.maximum(np.add.reduce(np.abs(v), axis=-1, keepdims=True), DEGENERATE_EPS)
    g_dot = np.matmul(g[..., None, :], (v / s)[..., :, None])[..., 0]
    return (g - g_dot * np.sign(v)) / s


def cap_floor_clamp_vjp(v: np.ndarray, out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of `out = cap_floor_clamp(v, ...)` with respect to v: clamped
    coordinates pass nothing, the others pass `g` through."""
    return np.where(out == v, g, 0.0)


def _softmax_xent(g: np.ndarray, labels: np.ndarray):
    """Softmax cross-entropy gradient of the C-contiguous (n, N) scores `g`,
    in place: shift each row by its max, read the label scores, exponentiate
    and normalise, read the label probabilities and subtract 1 at the labels.
    `g` then holds n times the batch-mean gradient. Returns the shifted label
    scores, the row sums of the exponentials, (n, 1), and the label
    probabilities."""
    g -= np.maximum.reduce(g, axis=-1, keepdims=True)
    # Row i's label entry, at flat index i * N + label of a view of `g`.
    flat = g.reshape(-1)
    at = np.arange(0, flat.size, g.shape[1]) + labels
    label_shifted = flat[at]
    np.exp(g, out=g)
    total = np.add.reduce(g, axis=-1, keepdims=True)
    g /= total
    label_probs = flat[at]
    flat[at] = label_probs - 1.0
    return label_shifted, total, label_probs


def sgd_momentum_step(
    params: np.ndarray,
    grads: np.ndarray,
    velocity: np.ndarray,
    lr: float,
    momentum: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One SGD step: v <- momentum*v + g; p <- p - lr*v. Updates in place."""
    if not 0.0 < lr < np.inf:
        raise ValueError(f"lr must be positive and finite, got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    if params.shape != grads.shape:
        raise ShapeError(f"sgd step: params {params.shape} vs grads {grads.shape}")
    if params.shape != velocity.shape:
        raise ShapeError(f"sgd step: params {params.shape} vs velocity {velocity.shape}")
    velocity *= momentum
    velocity += grads
    params -= lr * velocity
    return params, velocity


def _sgd_epochs(params, batch_grads, draw, x, y, n_rows, batch_size, lrs, momentum):
    """Momentum SGD on `params` in place, one epoch per learning rate in the
    iterable `lrs`; yields each epoch's index and rate after its last step.
    An epoch gathers the `n_rows` rows of `x` and `y` that `draw()` picks into
    contiguous buffers allocated once (so `take` needs no temporary); each
    batch is a view of them, and one step applies `batch_grads(epoch, start,
    x, y)`."""
    velocity = np.zeros_like(params)
    epoch_x, epoch_y = np.empty((n_rows, x.shape[1])), np.empty(n_rows, dtype=y.dtype)
    for epoch, lr in enumerate(lrs):
        order = draw()
        np.take(x, order, axis=0, out=epoch_x, mode="clip")
        np.take(y, order, out=epoch_y, mode="clip")
        for start in range(0, n_rows, batch_size):
            stop = start + batch_size
            grads = batch_grads(epoch, start, epoch_x[start:stop], epoch_y[start:stop])
            sgd_momentum_step(params, grads, velocity, lr, momentum)
        yield epoch, lr


def finite_diff_check(
    f: Callable[[np.ndarray], float],
    x: np.ndarray,
    analytic_grad: np.ndarray,
    eps: float = 1e-5,
) -> float:
    """Max relative disagreement between `analytic_grad` and central differences.

    Per coordinate: |analytic - central| / max(1, |central|). `f` must be a
    scalar function of a flat parameter vector, evaluable at x +- eps*e_k.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    x = as_vector(x, "finite_diff_check x")
    analytic_grad = as_vector(analytic_grad, "analytic_grad")
    if x.shape != analytic_grad.shape:
        raise ShapeError(f"finite_diff_check: x {x.shape} vs grad {analytic_grad.shape}")
    worst = 0.0
    for k in range(x.shape[0]):
        bumped = x.copy()
        bumped[k] = x[k] + eps
        hi = float(f(bumped))
        bumped[k] = x[k] - eps
        lo = float(f(bumped))
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericError(f"non-finite objective at coordinate {k}")
        central = (hi - lo) / (2.0 * eps)
        err = abs(analytic_grad[k] - central) / max(1.0, abs(central))
        worst = max(worst, err)
    return worst
