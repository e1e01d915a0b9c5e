"""Primitive operations against brute-force oracles and finite differences."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import alphanet.model
from alphanet.data import ClassifierBank, assign_splits
from alphanet.errors import DegenerateAlphaError, NumericError, ShapeError
from alphanet.model import (
    AlphaModel,
    _composed_few_rows,
    _few_scores_vjp,
    _linear_mix,
    _linear_mix_vjp,
    alpha_pipeline,
    clamp_alpha,
    flatten_params,
    loss_and_grads,
    normalize_alpha,
    set_params,
    submodule_forward,
)
from alphanet.numerics import (
    _softmax_xent,
    abs_normalize,
    abs_normalize_vjp,
    affine,
    affine_vjp,
    cap_floor_clamp,
    cap_floor_clamp_vjp,
    finite_diff_check,
    leaky_relu,
    leaky_relu_vjp,
    sgd_momentum_step,
)


def test_affine_identity():
    out = affine(np.eye(2), np.array([3.0, 4.0]), np.zeros(2))
    assert np.array_equal(out, [3.0, 4.0])


def test_affine_single_row():
    out = affine(np.array([[1.0, 2.0]]), np.array([3.0, 4.0]), np.array([5.0]))
    assert out.shape == (1,)
    assert out[0] == 16.0


def test_affine_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(8, 8))
    v = rng.normal(size=8)
    b = rng.normal(size=8)
    expected = np.zeros(8)
    for r in range(8):
        acc = 0.0
        for c in range(8):
            acc += m[r, c] * v[c]
        expected[r] = acc + b[r]
    assert np.max(np.abs(affine(m, v, b) - expected)) < 1e-12


def test_affine_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        affine(np.zeros((2, 3)), np.zeros(4), np.zeros(2))
    assert "(2, 3)" in str(exc.value) and "(4,)" in str(exc.value)
    with pytest.raises(ShapeError):
        affine(np.zeros((2, 3)), np.zeros(3), np.zeros(5))


@given(
    a=st.floats(-5, 5),
    b=st.floats(-5, 5),
    seed=st.integers(0, 2**31),
)
def test_affine_is_linear(a, b, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(5, 4))
    u = rng.normal(size=4)
    v = rng.normal(size=4)
    zero = np.zeros(5)
    lhs = affine(m, a * u + b * v, zero)
    rhs = a * affine(m, u, zero) + b * affine(m, v, zero)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_leaky_relu_examples():
    assert np.array_equal(leaky_relu(np.array([1.0, -1.0]), 0.0), [1.0, 0.0])
    out = leaky_relu(np.array([2.0, -4.0]), 0.1)
    assert out[0] == 2.0
    assert out[1] == pytest.approx(-0.4)
    nonneg = np.array([0.0, 0.5, 3.0])
    assert np.array_equal(leaky_relu(nonneg, 0.3), nonneg)


def test_leaky_relu_rejects_bad_slope():
    with pytest.raises(ValueError):
        leaky_relu(np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        leaky_relu(np.zeros(2), -0.1)


def _mean_xent(scores, labels):
    """`loss_and_grads`'s cross-entropy path on a copy of `scores`: the
    in-place kernel, each row's log-sum-exp less its label's shifted score,
    and the 1/n scale. Returns the mean loss and its gradient."""
    grad = np.array(scores, dtype=np.float64)
    label_shifted, total, _ = _softmax_xent(grad, np.asarray(labels))
    grad *= 1.0 / grad.shape[0]
    return float((np.log(total[:, 0]) - label_shifted).mean()), grad


def _row_xent(scores, label):
    """Loss and gradient of one score row, as a one-row `_mean_xent`."""
    loss, grad = _mean_xent(np.asarray(scores)[None, :], [label])
    return loss, grad[0]


def test_softmax_xent_symmetric_pair():
    loss, grad = _row_xent(np.array([0.0, 0.0]), 0)
    assert loss == pytest.approx(math.log(2), abs=1e-15)
    assert grad == pytest.approx([-0.5, 0.5], abs=1e-15)


def test_softmax_xent_dominant_score():
    loss, _ = _row_xent(np.array([10.0, 0.0, 0.0]), 0)
    # direct evaluation of -log(e^10 / (e^10 + 2))
    assert loss == pytest.approx(math.log(1.0 + 2.0 * math.exp(-10.0)), rel=1e-12)
    assert loss == pytest.approx(9.08e-5, rel=1e-2)


def test_softmax_xent_label_out_of_range():
    """`loss_and_grads` checks the labels before the kernel runs: -1 would
    score the last column, and N, at the kernel's flat index i * N + label,
    would silently read the next row's first score."""
    model, x, y = _random_model(np.random.default_rng(0), 2, 1, 2, 3, _gamma(1, 0.5))
    n_classes = model.bank.n_classes
    for bad in (-1, n_classes):
        labels = y.copy()
        labels[0] = bad
        with pytest.raises(ShapeError, match=rf"\[0, {n_classes}\)"):
            loss_and_grads(model, x, labels)
    with pytest.raises(ShapeError):
        loss_and_grads(model, x, y[:-1])


@given(seed=st.integers(0, 2**31), n=st.integers(2, 12))
def test_softmax_xent_loss_nonnegative_grad_sums_to_zero(seed, n):
    rng = np.random.default_rng(seed)
    scores = rng.normal(scale=5.0, size=n)
    label = int(rng.integers(n))
    loss, grad = _row_xent(scores, label)
    assert loss >= 0.0
    assert abs(grad.sum()) < 1e-12


def _reference_softmax(scores):
    """The out-of-place softmax body that the in-place kernels replaced."""
    scores = np.asarray(scores, dtype=np.float64)
    shifted = scores - np.max(scores, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def _reference_mean_softmax_xent(scores, labels):
    """The out-of-place cross-entropy body that `loss_and_grads`' in-place
    path replaced (once `mean_softmax_xent`), its shape checks aside."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n = scores.shape[0]
    rows = np.arange(n)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    losses = np.log(total[:, 0]) - shifted[rows, labels]
    grad = e / total
    grad[rows, labels] -= 1.0
    return float(losses.mean()), (1.0 / n) * grad


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 70),
    n_classes=st.integers(1, 60),
    scale=st.floats(0.1, 100.0),
    edge=st.sampled_from(["random", "first", "last", "both"]),
)
def test_in_place_softmax_and_xent_match_the_reference_bits(seed, n, n_classes, scale, edge):
    """`_softmax_xent` works in its own buffer, and with the log-sum-exp loss
    and the 1/n scale that `loss_and_grads` adds it gives the bits of the
    out-of-place bodies."""
    rng = np.random.default_rng(seed)
    scores = rng.normal(scale=scale, size=(n, n_classes))
    labels = rng.integers(n_classes, size=n)
    if edge in ("first", "both"):
        labels[0] = 0
    if edge in ("last", "both"):
        labels[-1] = n_classes - 1

    rows = np.arange(n)
    g = scores.copy()
    label_shifted, total, label_probs = _softmax_xent(g, labels)
    probs = _reference_softmax(scores)
    assert label_probs.tobytes() == probs[rows, labels].tobytes()
    probs[rows, labels] -= 1.0
    assert g.tobytes() == probs.tobytes()
    shifted = scores - scores.max(axis=-1, keepdims=True)
    assert label_shifted.tobytes() == shifted[rows, labels].tobytes()
    assert total.tobytes() == np.exp(shifted).sum(axis=-1, keepdims=True).tobytes()
    loss, grad = _mean_xent(scores, labels)
    ref_loss, ref_grad = _reference_mean_softmax_xent(scores, labels)
    assert loss == ref_loss
    assert grad.tobytes() == ref_grad.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_loss_and_grads_cross_entropy_matches_the_reference_bits(seed, monkeypatch):
    """The loss of `loss_and_grads`, and the score gradient it passes on to
    the backward pass, are the reference's bits on the model's scores."""
    model, x, y = _random_model(np.random.default_rng(seed), 3, 2, 2, 3, _gamma(2, 0.5))
    seen = []

    def record(g_scores, few, features):
        seen.append(g_scores.copy())
        return _few_scores_vjp(g_scores, few, features)

    monkeypatch.setattr(alphanet.model, "_few_scores_vjp", record)
    scores = model.bank.scores(x)
    u, t = _composed_few_rows(model)
    scores[:, model.bank.split.few_index] = x @ u.T + t
    ref_loss, ref_grad = _reference_mean_softmax_xent(scores, y)
    loss, _ = loss_and_grads(model, x, y)
    assert loss == ref_loss
    assert seen[0].tobytes() == ref_grad.tobytes()


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 70),
    n_classes=st.integers(1, 60),
    scale=st.floats(0.1, 100.0),
)
def test_softmax_into_its_own_input_is_bit_equal(seed, n, n_classes, scale):
    """`_softmax_xent(s, labels)` overwrites the scores with the bits of the
    reference softmax, less 1 at the labels, also on a row slice of a larger
    buffer, as the baseline passes its last, partial batch."""
    rng = np.random.default_rng(seed)
    scores = rng.normal(scale=scale, size=(n, n_classes))
    labels = rng.integers(n_classes, size=n)
    expected = _reference_softmax(scores)
    expected_probs = expected[np.arange(n), labels]
    expected[np.arange(n), labels] -= 1.0
    rows = scores.copy()
    assert _softmax_xent(rows, labels)[2].tobytes() == expected_probs.tobytes()
    assert rows.tobytes() == expected.tobytes()
    m = max(1, n // 2)
    buffer = np.vstack([scores, scores])
    assert _softmax_xent(buffer[:m], labels[:m])[2].tobytes() == expected_probs[:m].tobytes()
    assert buffer[:m].tobytes() == expected[:m].tobytes()
    assert buffer[m:].tobytes() == np.vstack([scores, scores])[m:].tobytes()


def test_sgd_plain_step():
    params, _ = sgd_momentum_step(
        np.array([1.0]), np.array([2.0]), np.zeros(1), lr=0.1, momentum=0.0
    )
    assert params == pytest.approx([0.8])


def test_sgd_zero_grads_zero_velocity_is_noop():
    params = np.array([1.0, -2.0])
    before = params.copy()
    sgd_momentum_step(params, np.zeros(2), np.zeros(2), lr=0.5, momentum=0.9)
    assert np.array_equal(params, before)


def test_sgd_two_steps_match_hand_unrolled_recurrence():
    lr, mu = 0.1, 0.9
    g1 = np.array([1.0, -3.0])
    g2 = np.array([0.5, 2.0])
    p = np.array([1.0, 1.0])
    v = np.zeros(2)
    sgd_momentum_step(p, g1, v, lr, mu)
    sgd_momentum_step(p, g2, v, lr, mu)
    # unrolled: v1 = g1; p1 = p0 - lr g1; v2 = mu g1 + g2; p2 = p1 - lr v2
    expected = np.array([1.0, 1.0]) - lr * g1 - lr * (mu * g1 + g2)
    assert np.max(np.abs(p - expected)) < 1e-15
    assert np.max(np.abs(v - (mu * g1 + g2))) < 1e-15


def test_sgd_shape_mismatch():
    with pytest.raises(ShapeError):
        sgd_momentum_step(np.zeros(2), np.zeros(3), np.zeros(2), 0.1, 0.9)
    with pytest.raises(ShapeError):
        sgd_momentum_step(np.zeros(2), np.zeros(2), np.zeros(3), 0.1, 0.9)


def test_finite_diff_check_quadratic():
    err = finite_diff_check(lambda x: float(x[0] ** 2), np.array([3.0]), np.array([6.0]))
    assert err < 1e-8


def test_finite_diff_check_detects_corruption():
    err = finite_diff_check(
        lambda x: float(x[0] ** 2), np.array([3.0]), np.array([6.1])
    )
    assert err > 1e-2


def test_finite_diff_check_nonfinite_objective():
    with pytest.raises(NumericError):
        finite_diff_check(lambda x: float("inf"), np.array([1.0]), np.array([0.0]))


def test_abs_normalize_basic():
    out = abs_normalize(np.array([-1.0, 1.0, 2.0]))
    assert np.array_equal(out, [-0.25, 0.25, 0.5])


def test_abs_normalize_degenerate_strict_vs_lenient():
    zeros = np.zeros(3)
    with pytest.raises(DegenerateAlphaError):
        abs_normalize(zeros, strict=True)
    assert np.array_equal(abs_normalize(zeros, strict=False), zeros)


def test_cap_floor_clamp_zero_pushed_to_plus_floor():
    out = cap_floor_clamp(np.array([0.9, 0.0, -0.1]), cap=0.6, floor=0.2)
    assert out[0] == pytest.approx(0.6)
    assert out[1] == pytest.approx(0.2)   # sign'(0) = +1
    assert out[2] == pytest.approx(-0.2)  # sign preserved


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**31),
    f=st.integers(1, 4),
    n=st.integers(1, 5),
    ties=st.booleans(),
)
def test_batched_steps_match_per_vector_calls_bit_for_bit(seed, f, n, ties):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(f, 3, n))
    v = rng.normal(size=(f, n))
    b = rng.normal(size=(f, 3))
    if ties:  # repeated entries and exact zeros on every clamp boundary
        v = rng.choice([0.0, -0.25, 0.25, 0.5], size=(f, n))
    cap, floor = 0.5, 0.25
    assert affine(m, v, b).tobytes() == np.stack(
        [affine(m[i], v[i], b[i]) for i in range(f)]
    ).tobytes()
    norm = abs_normalize(v, strict=False)
    assert norm.tobytes() == np.stack(
        [abs_normalize(row, strict=False) for row in v]
    ).tobytes()
    assert cap_floor_clamp(v, cap, floor).tobytes() == np.stack(
        [cap_floor_clamp(row, cap, floor) for row in v]
    ).tobytes()


def test_abs_normalize_strict_rejects_any_degenerate_row():
    with pytest.raises(DegenerateAlphaError):
        abs_normalize(np.array([[1.0, 2.0], [0.0, 0.0]]), strict=True)


# ---------------------------------------------------------------------------
# The gradient tape of loss_and_grads, step by step
#
# loss_and_grads runs each step's vector-Jacobian product in reverse. Each is
# checked here against central differences of its forward step, contracted
# with a random upstream gradient `g`, on inputs with a leading few-class axis.


def _check_vjp(forward, x, g, analytic, tol=1e-5):
    err = finite_diff_check(
        lambda flat: float(np.sum(g * forward(flat.reshape(x.shape)))),
        x.ravel(),
        np.asarray(analytic).ravel(),
        eps=1e-5,
    )
    assert err < tol, f"finite-difference disagreement {err:.3g}"


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**31), f=st.integers(1, 3), r=st.integers(1, 5), n=st.integers(1, 5))
def test_tape_affine_gradients(seed, f, r, n):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(f, r, n))
    v = rng.normal(size=(f, n))
    b = rng.normal(size=(f, r))
    g = rng.normal(size=(f, r))
    g_m, g_v, g_b = affine_vjp(m, v, g)
    skipped = affine_vjp(None, v, g)  # a frozen input: no gradient for v
    assert skipped[1] is None
    assert skipped[0].tobytes() == g_m.tobytes() and skipped[2].tobytes() == g_b.tobytes()
    _check_vjp(lambda x: affine(x, v, b), m, g, g_m)
    _check_vjp(lambda x: affine(m, x, b), v, g, g_v)
    _check_vjp(lambda x: affine(m, v, x), b, g, g_b)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**31), f=st.integers(1, 3), n=st.integers(2, 16))
def test_tape_leaky_relu_gradients_away_from_kink(seed, f, n):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(f, n))
    v[np.abs(v) < 1e-3] = 0.5  # keep coordinates away from the kink at 0
    g = rng.normal(size=(f, n))
    _check_vjp(lambda x: leaky_relu(x, 0.01), v, g, leaky_relu_vjp(v, 0.01, g))


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**31), f=st.integers(1, 3), n=st.integers(2, 16))
def test_tape_abs_normalize_gradients(seed, f, n):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(f, n))
    v[np.abs(v) < 1e-2] = 0.5  # |.| is not differentiable at 0
    g = rng.normal(size=(f, n))
    _check_vjp(lambda x: abs_normalize(x, strict=False), v, g, abs_normalize_vjp(v, g))


@settings(deadline=None, max_examples=50)
@given(
    seed=st.integers(0, 2**31), f=st.integers(1, 3), n=st.integers(1, 16),
    e=st.integers(-400, 1000),
)
def test_abs_normalize_vjp_scales_exactly_with_its_input(seed, f, n, e):
    """`abs_normalize_vjp(2**e * v, g) * 2**e == abs_normalize_vjp(v, g)` bit
    for bit, across the float range: no intermediate overflows, as the square
    of the absolute sum would from 2**512 on. `v` is scaled up by 2**-e for
    a negative e, so that neither side falls below the degenerate floor.
    Where a gradient entry of either side is subnormal, it has fewer bits to
    keep, so such rare draws are skipped."""
    rng = np.random.default_rng(seed)
    v, g = np.ldexp(rng.normal(size=(f, n)), max(-e, 0)), rng.normal(size=(f, n))
    want = abs_normalize_vjp(v, g)
    smaller = np.abs(want) if e < 0 else np.abs(np.ldexp(want, -e))
    assume(np.all((smaller == 0.0) | (smaller >= np.finfo(np.float64).tiny)))
    got = np.ldexp(abs_normalize_vjp(np.ldexp(v, e), g), e)
    assert got.tobytes() == want.tobytes()


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**31), f=st.integers(1, 3), n=st.integers(2, 16))
def test_tape_clamp_gradients_away_from_boundaries(seed, f, n):
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.3, 0.55, size=(f, n)) * rng.choice([-1.0, 1.0], size=(f, n))
    g = rng.normal(size=(f, n))
    analytic = cap_floor_clamp_vjp(v, cap_floor_clamp(v, 0.6, 0.2), g)
    assert np.array_equal(analytic, g)  # no coordinate is clamped
    _check_vjp(lambda x: cap_floor_clamp(x, 0.6, 0.2), v, g, analytic)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**31), f=st.integers(1, 3), n=st.integers(1, 6))
def test_tape_linear_mix_gradients(seed, f, n):
    rng = np.random.default_rng(seed)
    full_rows = rng.normal(size=(f, n, 5))
    biases = rng.normal(size=(f, n))
    coeffs = rng.normal(size=(f, n))
    g_u = rng.normal(size=(f, 5))
    g_t = rng.normal(size=f)
    analytic = _linear_mix_vjp(full_rows, biases, g_u, g_t)

    def contracted(x):
        u, t = _linear_mix(x, full_rows, biases)
        return np.sum(g_u * u) + np.sum(g_t * t)

    _check_vjp(contracted, coeffs, 1.0, analytic)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**31))
def test_tape_softmax_xent_gradients(seed):
    rng = np.random.default_rng(seed)
    scores = rng.normal(scale=2.0, size=(4, 6))
    labels = rng.integers(0, 6, size=4)
    _, grad = _mean_xent(scores, labels)

    def f(flat):
        s = flat.reshape(4, 6)
        total = 0.0
        for row, lab in zip(s, labels):
            total += _row_xent(row, int(lab))[0]
        return total / 4.0

    err = finite_diff_check(f, scores.ravel(), grad.ravel(), eps=1e-5)
    assert err < 1e-5


def test_tape_batch_scores_and_overwrite_columns_gradients():
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(3, 4))
    w = rng.normal(size=(2, 4))
    b = rng.normal(size=2)
    base = rng.normal(size=(3, 5))
    labels = np.array([0, 2, 4])
    few = [1, 3]

    def loss(wf, bf):
        s = base.copy()
        s[:, few] = feats @ wf.T + bf
        return _mean_xent(s, labels)

    loss0, g_scores = loss(w, b)
    gw, gb = _few_scores_vjp(g_scores, few, feats)

    def mean_row_losses(wf, bf):
        s = base.copy()
        s[:, few] = feats @ wf.T + bf
        return float(
            np.mean([_row_xent(row, int(l))[0] for row, l in zip(s, labels)])
        )

    f_w = lambda flat: mean_row_losses(flat.reshape(2, 4), b)  # noqa: E731
    f_b = lambda flat: mean_row_losses(w, flat)  # noqa: E731
    assert finite_diff_check(f_w, w.ravel(), gw.ravel(), eps=1e-5) < 1e-5
    assert finite_diff_check(f_b, b.ravel(), gb.ravel(), eps=1e-5) < 1e-5
    assert loss0 > 0.0


# ---------------------------------------------------------------------------
# loss_and_grads vs central differences
#
# Random small models: F few classes, K neighbors each, reduced dim d, hidden
# width h != d, frozen neighbor tensors and a frozen base bank.


def _random_model(rng, f, k, d, h, gamma):
    n_base, dim = max(k, 1) + 1, 3
    split = assign_splits([150] * n_base + [5] * f)
    bank = ClassifierBank(
        weights=rng.normal(size=(n_base + f, dim)),
        biases=rng.normal(scale=0.5, size=n_base + f),
        split=split,
    )
    reduced, subs = rng.normal(size=(f, k + 1, d)), []
    # Uniform +-1/sqrt(fan-in) weights, the fc2 weights scaled down and the
    # fc2 bias at 2.5 times the interior target [a0, (1-a0)/k, ...], so the
    # coefficients stay near that target.
    s1, s2 = 1.0 / np.sqrt((k + 1) * d), 1.0 / np.sqrt(h)
    a0 = gamma - 0.5 * (gamma - 1.0 / (k + 1))
    fc2_b = 2.5 * (np.array([a0] + [(1.0 - a0) / k] * k) if k else np.ones(1))
    for _ in split.few_ids:
        fc1_w = rng.uniform(-s1, s1, size=(h, (k + 1) * d))
        fc1_b = rng.uniform(-s1, s1, size=h)
        fc2_w = 0.05 * rng.uniform(-s2, s2, size=(k + 1, h))
        subs.append((fc1_w, fc1_b, fc2_w, fc2_b))
    model = AlphaModel(
        gamma=gamma, top_k=k, reduced_dim=d, hidden=h, slope=0.01,
        neighbors=np.tile(np.arange(k), (f, 1)), distances=np.ones((f, k)), reduced=reduced,
        params=[np.stack(g) for g in zip(*subs)], bank=bank,
    )
    features = rng.normal(scale=2.0, size=(5, dim))
    labels = rng.integers(0, n_base + f, size=5)
    return model, features, labels


def _gamma(k, frac):
    """A cap above the uniform share 1/(K+1), so an interior start exists;
    without neighbors only gamma = 1 leaves the coefficient unclamped."""
    return 1.0 if k == 0 else 1.0 / (k + 1) + frac * (1.0 - 1.0 / (k + 1))


@settings(deadline=None, max_examples=12)
@given(
    seed=st.integers(0, 2**31),
    f=st.integers(1, 4),
    k=st.integers(0, 3),
    d=st.integers(1, 2),
    h=st.integers(1, 3),
    gamma_frac=st.floats(0.3, 1.0),
)
def test_loss_and_grads_match_central_differences(seed, f, k, d, h, gamma_frac):
    assume(h != d)
    gamma = _gamma(k, gamma_frac)
    model, x, y = _random_model(np.random.default_rng(seed), f, k, d, h, gamma)
    floor = (1.0 - gamma) / k if k else 0.0
    for i, (sub, ns) in enumerate(zip(model.submodules, model.neighbor_sets)):
        pre = affine(sub.fc1_w, ns.flat_input, sub.fc1_b)
        assume(np.min(np.abs(pre)) > 1e-3)  # away from the leaky-ReLU kink
        a = alpha_pipeline(model, i).values
        # strictly inside the clamp (K=0 with gamma=1 sits on the cap, unclamped)
        assume(k == 0 or abs(a[0]) < gamma - 1e-3)
        assume(k == 0 or np.min(np.abs(a[1:])) > floor + 1e-3)

    _, grads = loss_and_grads(model, x, y)
    flat_grad = np.concatenate([g.ravel() for g in grads])
    assert [g.shape for g in grads] == [p.shape for p in model.params]
    x0 = flatten_params(model)

    def f_loss(flat):
        set_params(model, flat)
        value = loss_and_grads(model, x, y)[0]
        set_params(model, x0)
        return value

    err = finite_diff_check(f_loss, x0, flat_grad, eps=1e-5)
    assert err < 1e-5, f"finite-difference disagreement {err:.3g}"


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 2**31), f=st.integers(1, 4), gamma_frac=st.floats(0.3, 0.9))
def test_loss_and_grads_is_zero_when_every_coordinate_is_clamped(seed, f, gamma_frac):
    gamma = _gamma(1, gamma_frac)
    model, x, y = _random_model(np.random.default_rng(seed), f, 1, 2, 3, gamma)
    for i, sub in enumerate(model.submodules):
        # alpha_0 is capped, which pushes alpha_1 below the (1 - gamma) floor
        sub.fc2_b[:] = [50.0, 0.001]
        a = alpha_pipeline(model, i).values
        assert a[0] == gamma and abs(a[1]) == 1.0 - gamma
    loss, grads = loss_and_grads(model, x, y)
    assert np.isfinite(loss)
    assert all(np.max(np.abs(g)) == 0.0 for g in grads)


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 2**31), f=st.integers(1, 4), k=st.integers(0, 3))
def test_loss_and_grads_is_bit_reproducible(seed, f, k):
    model, x, y = _random_model(np.random.default_rng(seed), f, k, 2, 3, _gamma(k, 0.5))
    loss1, g1 = loss_and_grads(model, x, y)
    loss2, g2 = loss_and_grads(model, x, y)
    assert np.float64(loss1).tobytes() == np.float64(loss2).tobytes()
    assert [g.tobytes() for g in g1] == [g.tobytes() for g in g2]


def _per_vector_alpha(model, i, strict):
    """Class `i`'s coefficients through the per-vector raw -> normalized ->
    clamped chain."""
    sub, ns = model.submodules[i], model.neighbor_sets[i]
    raw = submodule_forward(sub, ns.flat_input, model.slope)
    return clamp_alpha(normalize_alpha(raw, strict=strict), model.gamma)


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**31),
    f=st.integers(1, 4),
    k=st.integers(0, 3),
    d=st.integers(1, 3),
    h=st.integers(1, 4),
    gamma=st.floats(0.05, 1.0),
    scale=st.sampled_from([0.01, 1.0, 30.0]),
    degenerate=st.booleans(),
)
def test_batched_alpha_is_bit_equal_to_the_per_vector_chain(
    seed, f, k, d, h, gamma, scale, degenerate
):
    """`alpha_pipeline` reads the batched forward pass; every class gets the
    bits of its own per-vector chain, on and off the clamp boundaries."""
    rng = np.random.default_rng(seed)
    model, _, _ = _random_model(rng, f, k, d, h, gamma)
    for p in model.params:
        p[...] = scale * rng.normal(size=p.shape)
    if degenerate:  # a zero raw vector: the lenient floor keeps it at zero
        model.params[2][-1] = 0.0
        model.params[3][-1] = 0.0
    for i in range(f):
        batched = alpha_pipeline(model, i)
        assert batched.stage == "clamped"
        assert batched.values.tobytes() == _per_vector_alpha(model, i, strict=False).values.tobytes()


def test_strict_alpha_pipeline_raises_when_any_class_is_degenerate():
    model, _, _ = _random_model(np.random.default_rng(0), 3, 2, 2, 3, 0.6)
    model.strict_alpha = True
    model.params[2][-1] = 0.0
    model.params[3][-1] = 0.0
    # The healthy classes' own chains succeed, but the batched pass covers
    # every class, so each call raises.
    for i in range(2):
        _per_vector_alpha(model, i, strict=True)
    for i in range(3):
        with pytest.raises(DegenerateAlphaError):
            alpha_pipeline(model, i)
