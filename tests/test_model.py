"""Alpha pipeline stages, composition, gradients, training loop, snapshots."""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphanet.config import RunConfig
from alphanet.data import ClassifierBank, FeatureDataset, assign_splits
from alphanet.datagen import GenConfig, generate, train_baseline
import alphanet.numerics
from alphanet.errors import (
    ConfigError,
    DegenerateAlphaError,
    IntegrityError,
    NumericError,
    ShapeError,
    TrainingError,
)
from alphanet.model import (
    AlphaModel,
    AlphaVector,
    _composed_few_rows,
    alpha_pipeline,
    build_model,
    clamp_alpha,
    compose,
    export_composed,
    fit,
    flatten_params,
    load_model,
    loss_and_grads,
    normalize_alpha,
    sample_epoch,
    save_model,
    set_params,
    submodule_forward,
)
from alphanet.neighbors import NeighborSet
from alphanet.numerics import finite_diff_check
from alphanet.reports import split_report


# ---------------------------------------------------------------------------
# Stage pipeline


def test_normalize_divides_by_absolute_sum():
    out = normalize_alpha(AlphaVector(np.array([-1.0, 1.0, 2.0]), "raw"))
    assert out.stage == "normalized"
    assert np.array_equal(out.values, [-0.25, 0.25, 0.5])


def test_normalize_singleton():
    assert np.array_equal(normalize_alpha(AlphaVector(np.array([5.0]), "raw")).values, [1.0])
    assert np.array_equal(normalize_alpha(AlphaVector(np.array([-5.0]), "raw")).values, [-1.0])


def test_normalize_is_idempotent():
    once = normalize_alpha(AlphaVector(np.array([0.3, -0.2, 1.4]), "raw"))
    twice = normalize_alpha(AlphaVector(once.values, "raw"))
    assert np.max(np.abs(once.values - twice.values)) < 1e-12


def test_normalize_degenerate_strict_raises():
    with pytest.raises(DegenerateAlphaError):
        normalize_alpha(AlphaVector(np.zeros(2), "raw"))
    lenient = normalize_alpha(AlphaVector(np.zeros(2), "raw"), strict=False)
    assert np.array_equal(lenient.values, [0.0, 0.0])


@given(
    vals=st.lists(
        st.floats(-10, 10).filter(lambda x: abs(x) > 1e-6), min_size=1, max_size=8
    )
)
def test_normalize_unit_absolute_sum_signs_preserved(vals):
    out = normalize_alpha(AlphaVector(np.array(vals), "raw"))
    assert abs(np.sum(np.abs(out.values)) - 1.0) < 1e-9
    assert np.array_equal(np.sign(out.values), np.sign(vals))


def test_clamp_both_rules_bind():
    a = AlphaVector(np.array([0.9, 0.02, 0.02, 0.02, 0.02, 0.02]), "normalized")
    out = clamp_alpha(a, gamma=0.6)
    assert out.stage == "clamped"
    assert out.values == pytest.approx([0.6, 0.08, 0.08, 0.08, 0.08, 0.08], abs=1e-12)


def test_clamp_gamma_one_disables_the_cap():
    a = AlphaVector(np.array([0.7, -0.2, 0.1]), "normalized")
    out = clamp_alpha(a, gamma=1.0)
    assert np.array_equal(out.values, a.values)


def test_clamp_preserves_sign_of_alpha0():
    a = AlphaVector(np.array([-0.7, 0.3]), "normalized")
    out = clamp_alpha(a, gamma=0.6)
    assert out.values[0] == pytest.approx(-0.6, abs=1e-15)
    assert out.values[1] == pytest.approx(0.4, abs=1e-12)  # floored up


def test_clamp_zero_coordinate_floors_positive():
    a = AlphaVector(np.array([1.0, 0.0]), "normalized")
    out = clamp_alpha(a, gamma=0.6)
    assert out.values == pytest.approx([0.6, 0.4], abs=1e-12)


def test_clamp_does_not_renormalize():
    a = AlphaVector(np.array([0.5, 0.45, 0.05]), "normalized")
    out = clamp_alpha(a, gamma=0.6)  # only the last coordinate moves
    assert np.array_equal(out.values, [0.5, 0.45, 0.2])
    assert np.sum(np.abs(out.values)) == pytest.approx(1.15, abs=1e-12)


def test_clamp_validates_inputs():
    a = AlphaVector(np.array([0.5, 0.5]), "normalized")
    with pytest.raises(ConfigError):
        clamp_alpha(a, gamma=0.0)
    with pytest.raises(ValueError):
        clamp_alpha(AlphaVector(np.array([0.5, 0.5]), "raw"), gamma=0.6)


@settings(max_examples=200)
@given(
    vals=st.lists(
        st.floats(-10, 10).filter(lambda x: abs(x) > 1e-6), min_size=2, max_size=8
    ),
    gamma=st.floats(0.05, 1.0),
)
def test_clamp_bounds_always_hold(vals, gamma):
    out = clamp_alpha(normalize_alpha(AlphaVector(np.array(vals), "raw")), gamma)
    k = len(vals) - 1
    assert abs(out.values[0]) <= gamma + 1e-12
    assert np.all(np.abs(out.values[1:]) >= (1.0 - gamma) / k - 1e-12)


# ---------------------------------------------------------------------------
# Composition and scoring


def _neighbor_set(rng, k=2, d=4):
    return NeighborSet(
        target=9,
        neighbor_ids=tuple(range(1, k + 1)),
        reduced=rng.normal(size=(k + 1, 3)),
        biases=rng.normal(size=k + 1),
        full_rows=rng.normal(size=(k + 1, d)),
    )


def test_compose_identity_alpha_recovers_original():
    ns = _neighbor_set(np.random.default_rng(0))
    a = AlphaVector(np.array([1.0, 0.0, 0.0]), "clamped")
    u, t = compose(a, ns)
    assert np.max(np.abs(u - ns.full_rows[0])) <= 1e-12
    assert abs(t - ns.biases[0]) <= 1e-12


def test_compose_even_blend_example():
    ns = NeighborSet(
        target=3,
        neighbor_ids=(0,),
        reduced=np.zeros((2, 1)),
        biases=np.array([2.0, 4.0]),
        full_rows=np.array([[1.0, 0.0], [0.0, 1.0]]),
    )
    u, t = compose(AlphaVector(np.array([0.5, 0.5]), "clamped"), ns)
    assert np.array_equal(u, [0.5, 0.5])
    assert t == 3.0


def test_compose_matches_weighted_sum_oracle():
    rng = np.random.default_rng(1)
    ns = _neighbor_set(rng, k=5, d=16)
    vals = rng.normal(size=6)
    u, t = compose(AlphaVector(vals, "clamped"), ns)
    u_oracle = np.zeros(16)
    t_oracle = 0.0
    for j in range(6):
        u_oracle += vals[j] * ns.full_rows[j]
        t_oracle += vals[j] * ns.biases[j]
    assert np.max(np.abs(u - u_oracle)) < 1e-12
    assert abs(t - t_oracle) < 1e-12


def test_compose_is_linear_in_alpha():
    rng = np.random.default_rng(2)
    ns = _neighbor_set(rng, k=3, d=8)
    a = rng.normal(size=4)
    b = rng.normal(size=4)
    ua, ta = compose(AlphaVector(a, "clamped"), ns)
    ub, tb = compose(AlphaVector(b, "clamped"), ns)
    us, ts = compose(AlphaVector(a + b, "clamped"), ns)
    assert np.max(np.abs(us - (ua + ub))) < 1e-10
    assert abs(ts - (ta + tb)) < 1e-10


def test_compose_size_mismatch():
    ns = _neighbor_set(np.random.default_rng(3), k=2)
    with pytest.raises(ShapeError):
        compose(AlphaVector(np.array([1.0, 0.0]), "clamped"), ns)


def test_submodule_forward_zero_params_zero_output():
    from alphanet.model import SubModule

    sub = SubModule(
        fc1_w=np.zeros((3, 6)), fc1_b=np.zeros(3),
        fc2_w=np.zeros((2, 3)), fc2_b=np.zeros(2),
    )
    out = submodule_forward(sub, np.ones(6), slope=0.01)
    assert out.stage == "raw"
    assert np.array_equal(out.values, [0.0, 0.0])


def test_submodule_forward_single_path_selects_coordinate():
    from alphanet.model import SubModule

    fc1_w = np.zeros((2, 4))
    fc1_w[0, 2] = 1.0  # hidden unit 0 reads input coordinate 2
    fc2_w = np.zeros((1, 2))
    fc2_w[0, 0] = 1.0  # output reads hidden unit 0
    sub = SubModule(fc1_w=fc1_w, fc1_b=np.zeros(2), fc2_w=fc2_w, fc2_b=np.zeros(1))
    x = np.array([5.0, 6.0, 7.0, 8.0])
    assert submodule_forward(sub, x, slope=0.0).values[0] == 7.0


def test_submodule_forward_matches_primitive_replay():
    from alphanet.model import SubModule
    from alphanet.numerics import affine, leaky_relu

    rng = np.random.default_rng(4)
    sub = SubModule(
        fc1_w=rng.normal(size=(5, 8)), fc1_b=rng.normal(size=5),
        fc2_w=rng.normal(size=(3, 5)), fc2_b=rng.normal(size=3),
    )
    x = rng.normal(size=8)
    expected = affine(sub.fc2_w, leaky_relu(affine(sub.fc1_w, x, sub.fc1_b), 0.01), sub.fc2_b)
    assert np.array_equal(submodule_forward(sub, x, 0.01).values, expected)


# ---------------------------------------------------------------------------
# Full-model fixtures


def _small_problem(seed=0, feature_dim=6, **gen_kwargs):
    """8 classes at dim 6 unless told otherwise; classes 6 and 7 are few."""
    cfg = GenConfig(
        n_classes=8, feature_dim=feature_dim, head_count=120, tail_count=4,
        val_per_class=6, test_per_class=6, seed=seed, **gen_kwargs,
    )
    ds, split, _ = generate(cfg)
    bank = train_baseline(ds, epochs=8, seed=seed)
    return ds, bank


def _force_identity_alpha(model):
    """Pin every sub-module to alpha = [1, 0, ..., 0] (requires gamma=1)."""
    for sub in model.submodules:
        sub.fc2_w[:] = 0.0
        sub.fc2_b[:] = 0.0
        sub.fc2_b[0] = 1.0


def test_identity_composition_reproduces_baseline_scores():
    ds, bank = _small_problem()
    model = build_model(bank, ds, gamma=1.0, top_k=2, reduced_dim=3, seed=0)
    _force_identity_alpha(model)
    composed = export_composed(model)
    x, _ = ds.partition_arrays("val")
    diff = np.abs(composed.scores(x) - bank.scores(x))
    assert np.max(diff) <= 1e-12
    assert composed.weights.tobytes() == bank.weights.tobytes()
    assert composed.biases.tobytes() == bank.biases.tobytes()


def test_score_batch_zero_features_give_biases():
    ds, bank = _small_problem()
    scores = bank.scores(np.zeros((2, bank.feature_dim)))
    assert np.array_equal(scores[0], bank.biases)
    assert np.array_equal(scores[1], bank.biases)


def test_alpha_pipeline_invariants_on_fresh_model():
    ds, bank = _small_problem()
    model = build_model(bank, ds, gamma=0.6, top_k=3, reduced_dim=4, seed=1)
    floor = (1.0 - 0.6) / 3
    for i in range(len(model.submodules)):
        a = alpha_pipeline(model, i)
        assert a.stage == "clamped"
        assert abs(a.values[0]) <= 0.6 + 1e-12
        assert np.all(np.abs(a.values[1:]) >= floor - 1e-12)
        # the initialization aims near the weak classifier, strictly interior
        assert a.values[0] > floor


def test_build_model_validates_configuration():
    ds, bank = _small_problem()
    with pytest.raises(ConfigError):
        build_model(bank, ds, gamma=1.5)
    with pytest.raises(ConfigError):
        build_model(bank, ds, top_k=bank.split.n_base + 1)
    with pytest.raises(ConfigError, match="top_k -1 must be in"):
        build_model(bank, ds, top_k=-1)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"hidden": 0}, "hidden must be >= 1, got 0"),
        ({"hidden": -2}, "hidden must be >= 1, got -2"),
        ({"slope": 1.5}, r"slope must be in \[0, 1\), got 1.5"),
    ],
    ids=["hidden-0", "hidden-negative", "slope-1.5"],
)
def test_build_model_refuses_a_bad_hidden_or_slope(kwargs, message):
    """The ConfigError that `gamma` gets, before any sub-module is drawn."""
    ds, bank = _small_problem()
    with pytest.raises(ConfigError, match=message):
        build_model(bank, ds, **kwargs)


def test_model_shape_bookkeeping():
    ds, bank = _small_problem()
    model = build_model(bank, ds, gamma=0.6, top_k=2, reduced_dim=3, hidden=5, seed=0)
    n_few = len(bank.split.few_ids)
    assert len(model.submodules) == n_few
    assert len(model.params) == 4
    assert [p.shape for p in model.params] == [
        (n_few, 5, 3 * 3), (n_few, 5), (n_few, 3, 5), (n_few, 3)
    ]
    for sub in model.submodules:
        assert sub.fc1_w.shape == (5, 3 * 3)
        assert sub.fc2_w.shape == (3, 5)
    assert flatten_params(model).size == sum(p.size for p in model.params)


def test_params_are_views_of_one_contiguous_vector():
    ds, bank = _small_problem()
    model = build_model(bank, ds, gamma=0.6, top_k=2, reduced_dim=3, hidden=5, seed=0)
    flat = model.flat_params
    assert flat.dtype == np.float64 and flat.ndim == 1 and flat.flags.c_contiguous
    assert all(p.base is flat for p in model.params)
    ends = np.cumsum([p.size for p in model.params])
    flat[...] = np.arange(flat.size)
    for p, end in zip(model.params, ends, strict=True):
        assert np.array_equal(p.ravel(), np.arange(end - p.size, end))


def test_flatten_and_set_params_round_trip_through_one_copy():
    ds, bank = _small_problem()
    model = build_model(bank, ds, gamma=0.6, top_k=2, reduced_dim=3, hidden=5, seed=0)
    before = flatten_params(model)
    assert before.tobytes() == np.concatenate([p.ravel() for p in model.params]).tobytes()
    first = before[0]
    before[0] += 1.0  # a copy: the model does not see it
    assert flatten_params(model)[0] == model.params[0].flat[0] == first
    target = np.random.default_rng(1).normal(size=before.size)
    set_params(model, target)
    assert flatten_params(model).tobytes() == target.tobytes()
    assert model.submodules[-1].fc2_b.tobytes() == target[-model.top_k - 1 :].tobytes()
    with pytest.raises(ShapeError):
        set_params(model, target[:-1])


def test_copied_and_loaded_models_own_their_parameter_buffers(tmp_path):
    ds, bank = _small_problem()
    model = build_model(bank, ds, top_k=2, reduced_dim=3, seed=0)
    result = fit(model, ds, RunConfig(epochs=2, seed=0))
    save_model(tmp_path / "model.json", model)
    others = (result.model, replace(model), load_model(tmp_path / "model.json", bank))
    for other in others:
        assert other.flat_params.tobytes() == flatten_params(other).tobytes()
        assert not np.shares_memory(other.flat_params, model.flat_params)
    model.flat_params[...] = 0.0
    assert all(np.any(other.flat_params != 0.0) for other in others)


def test_alpha_model_rejects_mismatched_submodule_count():
    ds, bank = _small_problem()
    model = build_model(bank, ds, top_k=2, reduced_dim=3, seed=0)
    with pytest.raises(IntegrityError):
        AlphaModel(
            gamma=model.gamma,
            top_k=model.top_k,
            reduced_dim=model.reduced_dim,
            hidden=model.hidden,
            slope=model.slope,
            neighbors=model.neighbors,
            distances=model.distances,
            reduced=model.reduced,
            params=[p[:-1] for p in model.params],
            bank=bank,
        )


def test_a_split_with_no_few_class_builds_no_model():
    """`build_model` refuses it as a setting, `AlphaModel` as an artifact."""
    ds, bank = _small_problem()
    no_few = replace(bank, split=assign_splits(ds.train_counts(), few_lt=1))
    assert no_few.split.n_few == 0
    with pytest.raises(ConfigError, match="no few class"):
        build_model(no_few, ds)
    shapes = [(0, 1), (0, 1), (0, 2, 1), (0, 1, 2), (0, 1), (0, 2, 1), (0, 2)]
    neighbors, distances, reduced, *params = (np.zeros(shape) for shape in shapes)
    with pytest.raises(IntegrityError, match="at least one few class"):
        AlphaModel(
            gamma=0.6, top_k=1, reduced_dim=1, hidden=1, slope=0.0, neighbors=neighbors,
            distances=distances, reduced=reduced, params=params, bank=no_few,
        )


def test_strict_alpha_mode_raises_on_degenerate_forward():
    ds, bank = _small_problem()
    model = build_model(bank, ds, gamma=0.6, top_k=2, reduced_dim=3, seed=0,
                        strict_alpha=True)
    for p in model.params:
        p[...] = 0.0
    with pytest.raises(DegenerateAlphaError):
        export_composed(model)
    model.strict_alpha = False
    composed = export_composed(model)  # lenient mode floors the denominator
    assert np.all(np.isfinite(composed.weights))


# ---------------------------------------------------------------------------
# Loss and gradients


def test_loss_tiny_when_label_dominates():
    split = assign_splits([150, 30, 5])
    bank = ClassifierBank(
        weights=np.eye(3) * 20.0, biases=np.zeros(3), split=split
    )
    feats, labels, parts = [], [], []
    for c, n in enumerate([6, 5, 4]):
        feats.append(np.tile(np.eye(3)[c], (n, 1)))
        labels += [c] * n
        parts += [0] * n
    ds = FeatureDataset(
        features=np.concatenate(feats) * 2.0,
        labels=np.array(labels),
        partitions=np.array(parts, dtype=np.uint8),
        n_classes=3,
    )
    model = build_model(bank, ds, gamma=1.0, top_k=1, reduced_dim=2, seed=0)
    _force_identity_alpha(model)
    # one sample of the few class: its score is 40, every other 0
    loss, _ = loss_and_grads(model, ds.features[-1:], ds.labels[-1:])
    assert loss < 1e-8


def test_loss_stays_finite_when_the_label_trails_by_800():
    split = assign_splits([150, 30, 5])
    bank = ClassifierBank(weights=np.eye(3) * 20.0, biases=np.zeros(3), split=split)
    ds = FeatureDataset(
        features=np.concatenate([np.tile(np.eye(3)[c], (n, 1)) for c, n in enumerate([6, 5, 4])]),
        labels=np.repeat([0, 1, 2], [6, 5, 4]),
        partitions=np.zeros(15, dtype=np.uint8),
        n_classes=3,
    )
    model = build_model(bank, ds, gamma=1.0, top_k=1, reduced_dim=2, seed=0)
    _force_identity_alpha(model)
    # scores [0, 800, 0]: softmax of the label underflows to exactly 0
    loss, grads = loss_and_grads(model, np.array([[0.0, 40.0, 0.0]]), np.array([0]))
    assert loss == 800.0
    assert all(np.all(np.isfinite(g)) for g in grads)


def test_loss_mean_is_invariant_under_batch_duplication():
    ds, bank = _small_problem()
    model = build_model(bank, ds, top_k=2, reduced_dim=3, seed=0)
    x, y = ds.features[:10], ds.labels[:10]
    loss_once, _ = loss_and_grads(model, x, y)
    loss_twice, _ = loss_and_grads(
        model, np.concatenate([x, x]), np.concatenate([y, y])
    )
    assert loss_twice == pytest.approx(loss_once, abs=1e-12)


def test_loss_rejects_empty_batch():
    ds, bank = _small_problem()
    model = build_model(bank, ds, top_k=2, reduced_dim=3, seed=0)
    with pytest.raises(ShapeError):
        loss_and_grads(model, np.zeros((0, bank.feature_dim)), np.zeros(0, dtype=int))


def _toy_for_gradients():
    """3 classes, dim 2, K=1, hidden 4 — small enough for central differences."""
    rng = np.random.default_rng(7)
    split = assign_splits([150, 30, 5])
    bank = ClassifierBank(
        weights=rng.normal(0, 1, (3, 2)), biases=rng.normal(0, 0.5, 3), split=split
    )
    feats, labels, parts = [], [], []
    for c, n in enumerate([12, 8, 5]):
        feats.append(rng.normal(c * 2.0, 1.0, (n, 2)))
        labels += [c] * n
        parts += [0] * n
    ds = FeatureDataset(
        features=np.concatenate(feats),
        labels=np.array(labels),
        partitions=np.array(parts, dtype=np.uint8),
        n_classes=3,
    )
    model = build_model(bank, ds, gamma=0.6, top_k=1, reduced_dim=2, hidden=4, seed=3)
    for sub in model.submodules:
        sub.fc2_w *= 0.05  # keep the initial alphas strictly inside the clamp
    return model, ds


def test_full_model_gradients_match_central_differences():
    model, ds = _toy_for_gradients()
    a = alpha_pipeline(model, 0).values
    # the check is only meaningful away from the clamp boundaries
    assert abs(a[0]) < model.gamma - 1e-3
    assert abs(a[1]) > (1.0 - model.gamma) / model.top_k + 1e-3

    x, y = ds.features[:6], ds.labels[:6]
    _, grads = loss_and_grads(model, x, y)
    flat_grad = np.concatenate([g.ravel() for g in grads])
    assert np.linalg.norm(flat_grad) > 1e-3  # non-vacuous: flow is alive
    x0 = flatten_params(model)

    def f(flat):
        set_params(model, flat)
        value = loss_and_grads(model, x, y)[0]
        set_params(model, x0)
        return value

    assert finite_diff_check(f, x0, flat_grad, eps=1e-5) < 1e-5


def test_clamped_alpha_coordinates_get_zero_gradient():
    model, ds = _toy_for_gradients()
    # push the raw output so far toward alpha_0 that both rules bind
    model.submodules[0].fc2_b[:] = [50.0, 0.001]
    a = alpha_pipeline(model, 0).values
    assert a[0] == pytest.approx(0.6, abs=1e-12)
    assert a[1] == pytest.approx(0.4, abs=1e-12)
    _, grads = loss_and_grads(model, ds.features[:6], ds.labels[:6])
    assert all(np.max(np.abs(g)) == 0.0 for g in grads[:4])


# ---------------------------------------------------------------------------
# Epoch sampling


def _long_tailed_ds(rng, counts):
    feats, labels, parts = [], [], []
    for c, n in enumerate(counts):
        feats.append(rng.normal(size=(n, 3)))
        labels += [c] * n
        parts += [0] * n
    return FeatureDataset(
        features=np.concatenate(feats),
        labels=np.array(labels),
        partitions=np.array(parts, dtype=np.uint8),
        n_classes=len(counts),
    )


def _few_and_base(ds, split):
    """The few-class and the base train indices, as `fit` splits them once."""
    train_idx = ds.indices("train")
    is_few = split.is_few[ds.labels[train_idx]]
    return train_idx[is_few], train_idx[~is_few]


def test_sample_epoch_is_balanced():
    counts = [100, 60, 15, 10, 15, 10]  # few classes 2..5, 50 few samples
    split = assign_splits(counts)
    ds = _long_tailed_ds(np.random.default_rng(0), counts)
    epoch = sample_epoch(np.random.default_rng(1), *_few_and_base(ds, split))
    assert epoch.size == 100
    labels = ds.labels[epoch]
    few_mask = np.isin(labels, split.few_ids)
    assert few_mask.sum() == 50
    # every few sample exactly once, base samples unique
    few_expected = np.flatnonzero(np.isin(ds.labels, split.few_ids))
    assert np.array_equal(np.sort(epoch[few_mask]), few_expected)
    assert np.unique(epoch).size == epoch.size


def test_sample_epoch_redraws_base_but_reproducibly():
    counts = [100, 60, 15, 10]
    split = assign_splits(counts)
    ds = _long_tailed_ds(np.random.default_rng(0), counts)
    rng, (few_idx, base_idx) = np.random.default_rng(42), _few_and_base(ds, split)
    first = sample_epoch(rng, few_idx, base_idx)
    second = sample_epoch(rng, few_idx, base_idx)
    assert not np.array_equal(first, second)  # fresh base subset per epoch
    rng2 = np.random.default_rng(42)
    assert np.array_equal(first, sample_epoch(rng2, few_idx, base_idx))
    assert np.array_equal(second, sample_epoch(rng2, few_idx, base_idx))
    # `fit` draws every epoch from one split, so a draw must leave it as it was.
    for drawn_from, split_now in zip((few_idx, base_idx), _few_and_base(ds, split)):
        assert np.array_equal(drawn_from, split_now)


def test_sample_epoch_requires_enough_base_samples():
    counts = [25, 19, 19]  # base 25 < few 38
    split = assign_splits(counts)
    ds = _long_tailed_ds(np.random.default_rng(0), counts)
    with pytest.raises(ConfigError):
        sample_epoch(np.random.default_rng(0), *_few_and_base(ds, split))


# ---------------------------------------------------------------------------
# Training loop


def test_fit_zero_epochs_returns_initial_model():
    ds, bank = _small_problem()
    model = build_model(bank, ds, top_k=2, reduced_dim=3, seed=0)
    before = flatten_params(model).copy()
    result = fit(model, ds, RunConfig(epochs=0))
    assert result.log == []
    assert result.best_epoch == -1
    assert np.array_equal(flatten_params(result.model), before)


def test_fit_reports_epoch_and_batch_of_a_nonfinite_loss():
    ds, bank = _small_problem()
    model = build_model(bank, ds, top_k=2, reduced_dim=3, seed=0)
    model.submodules[0].fc2_b[1] = np.nan
    with pytest.raises(TrainingError, match="epoch 0, batch 0") as exc:
        fit(model, ds, RunConfig(epochs=1))
    assert isinstance(exc.value.__cause__, NumericError)


def test_fit_takes_one_optimizer_step_per_batch(monkeypatch):
    ds, bank = _small_problem()
    model = build_model(bank, ds, top_k=2, reduced_dim=3, seed=0)
    steps = []

    def counted(params, grads, velocity, lr, momentum):
        steps.append(params.shape)
        return sgd_momentum_step(params, grads, velocity, lr, momentum)

    # The one call site is the trainers' shared loop in `numerics`.
    sgd_momentum_step = alphanet.numerics.sgd_momentum_step
    monkeypatch.setattr(alphanet.numerics, "sgd_momentum_step", counted)
    epochs, batch_size = 3, 5
    result = fit(model, ds, RunConfig(epochs=epochs, batch_size=batch_size, weight_decay=1e-3))
    n_few = int(bank.split.is_few[ds.labels[ds.indices("train")]].sum())
    batches = -(-2 * n_few // batch_size)
    assert 2 * n_few % batch_size != 0  # the last batch of each epoch is partial
    assert steps == [model.flat_params.shape] * (epochs * batches)
    assert len(result.log) == epochs


def test_fit_learning_rate_schedule():
    ds, bank = _small_problem()
    model = build_model(bank, ds, top_k=2, reduced_dim=3, seed=0)
    result = fit(model, ds, RunConfig(epochs=41, lr0=0.1, seed=0))
    lrs = [entry["lr"] for entry in result.log]
    assert lrs[0] == pytest.approx(0.1)
    assert lrs[19] == pytest.approx(0.1)
    assert lrs[20] == pytest.approx(0.01)
    assert lrs[40] == pytest.approx(0.001)


def test_fit_is_bit_reproducible():
    ds, bank = _small_problem()

    def run():
        model = build_model(bank, ds, top_k=2, reduced_dim=3, seed=5)
        return fit(model, ds, RunConfig(epochs=5, seed=5))

    r1, r2 = run(), run()
    assert flatten_params(r1.model).tobytes() == flatten_params(r2.model).tobytes()
    assert r1.log == r2.log
    assert r1.best_epoch == r2.best_epoch


def test_fit_leaves_the_model_at_its_last_validated_parameters():
    ds, bank = _small_problem()
    model = build_model(bank, ds, top_k=2, reduced_dim=3, seed=5)
    before = flatten_params(model)
    result = fit(model, ds, RunConfig(epochs=3, seed=5))
    assert not np.array_equal(flatten_params(model), before)
    x, y = ds.partition_arrays("val")
    report = split_report(export_composed(model).scores(x), y, bank.split)
    assert report.to_dict() == result.log[-1]["val"]


@pytest.mark.parametrize("gamma, top_k", [(0.6, 2), (0.3, 5), (1.0, 0)])
def test_fit_validates_each_epoch_as_the_exported_bank_scores(gamma, top_k):
    """The per-epoch report, from cached base scores and one rank pass, is
    the report of the composed bank the model would export at that epoch."""
    ds, bank = _small_problem(seed=1)
    model = build_model(bank, ds, gamma=gamma, top_k=top_k, reduced_dim=3, seed=1)
    x, y = ds.partition_arrays("val")
    seen = []

    def check(entry):
        report = split_report(export_composed(model).scores(x), y, bank.split)
        assert entry["val"] == report.to_dict()
        seen.append(entry["epoch"])

    fit(model, ds, RunConfig(epochs=4, seed=1), on_epoch=check)
    assert seen == [0, 1, 2, 3]


@pytest.mark.parametrize("feature_dim", [6, 40])
def test_fit_validates_each_epoch_as_split_report_of_the_assembled_scores(feature_dim):
    """Each log entry is `split_report` of the frozen bank's validation scores
    with the few-class columns replaced by the epoch's composed rows, also at
    dims where that block is not bit-equal to the full product's columns."""
    ds, bank = _small_problem(seed=2, feature_dim=feature_dim)
    model = build_model(bank, ds, gamma=0.5, top_k=3, reduced_dim=3, seed=2)
    x, y = ds.partition_arrays("val")
    few = list(bank.split.few_ids)
    seen = []

    def check(entry):
        scores = bank.scores(x)
        u, t = _composed_few_rows(model)
        scores[:, few] = x @ u.T + t
        assert entry["val"] == split_report(scores, y, bank.split).to_dict()
        seen.append(entry["epoch"])

    fit(model, ds, RunConfig(epochs=4, seed=2), on_epoch=check)
    assert seen == [0, 1, 2, 3]


def test_fit_ties_keep_the_earlier_epoch():
    ds, bank = _small_problem()
    model = build_model(bank, ds, top_k=2, reduced_dim=3, seed=0)
    # a vanishing learning rate freezes the model, so every epoch evaluates
    # to the same validation score and only the first can count as best
    result = fit(model, ds, RunConfig(epochs=3, lr0=1e-12, seed=0))
    assert result.best_epoch == 0
    assert result.best_few_top1 == result.log[0]["val"]["few"]["top1"]


def test_fit_keeps_base_rows_frozen_and_moves_few_rows():
    ds, bank = _small_problem()
    model = build_model(bank, ds, top_k=2, reduced_dim=3, seed=0)
    result = fit(model, ds, RunConfig(epochs=4, seed=0))
    composed = export_composed(result.model)
    base_ids = list(bank.split.base_ids)
    assert composed.weights[base_ids].tobytes() == bank.weights[base_ids].tobytes()
    assert composed.biases[base_ids].tobytes() == bank.biases[base_ids].tobytes()
    for c in bank.split.few_ids:
        assert not np.array_equal(composed.weights[c], bank.weights[c])


def test_fit_log_records_val_reports():
    ds, bank = _small_problem()
    model = build_model(bank, ds, top_k=2, reduced_dim=3, seed=0)
    result = fit(model, ds, RunConfig(epochs=2, seed=0))
    for entry in result.log:
        assert set(entry) == {"epoch", "loss", "lr", "val"}
        assert "few" in entry["val"]
        assert 0.0 <= entry["val"]["few"]["top1"] <= 1.0
    best = max(e["val"]["few"]["top1"] for e in result.log)
    assert result.best_few_top1 == best


def test_export_composed_is_deterministic():
    ds, bank = _small_problem()
    model = build_model(bank, ds, top_k=2, reduced_dim=3, seed=0)
    a = export_composed(model)
    b = export_composed(model)
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.biases.tobytes() == b.biases.tobytes()
    assert "gamma=0.6" in a.provenance and "k=2" in a.provenance


def test_baseline_and_composed_banks_carry_the_train_digest():
    ds, bank = _small_problem()
    assert bank.train_digest == ds.train_digest()
    model = build_model(bank, ds, top_k=2, reduced_dim=3, seed=0)
    assert export_composed(model).train_digest == bank.train_digest


def test_fit_refuses_a_schedule_that_decays_to_zero():
    """At the default lr0 the step decay reaches 0.0 at epoch 6460; the
    schedule is refused before any epoch runs."""
    ds, bank = _small_problem()
    model = build_model(bank, ds, top_k=2, reduced_dim=3, seed=0)
    before = flatten_params(model)
    with pytest.raises(ConfigError, match="at epoch 6460 of 6461"):
        fit(model, ds, RunConfig(epochs=6461))
    assert flatten_params(model).tobytes() == before.tobytes()


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
        ({"momentum": 1.5}, "momentum must be in [0, 1), got 1.5"),
        ({"lr0": -1.0}, "lr0 must be positive, got -1.0"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"weight_decay": -1.0}, "weight_decay must be >= 0, got -1.0"),
    ],
)
def test_fit_refuses_a_bad_setting_with_the_config_message(setting, message):
    """`fit` validates its `RunConfig` before it trains: a bad setting is
    `RunConfig.validate`'s ConfigError, and no parameter moves."""
    ds, bank = _small_problem()
    model = build_model(bank, ds, top_k=2, reduced_dim=3, seed=0)
    before = flatten_params(model)
    with pytest.raises(ConfigError) as exc:
        fit(model, ds, RunConfig(epochs=1, **setting))
    assert str(exc.value) == message
    assert flatten_params(model).tobytes() == before.tobytes()


# ---------------------------------------------------------------------------
# Snapshot serialization


def test_model_round_trip_is_bit_exact(tmp_path):
    ds, bank = _small_problem()
    model = build_model(bank, ds, top_k=2, reduced_dim=3, seed=0)
    result = fit(model, ds, RunConfig(epochs=3, seed=0))
    save_model(tmp_path / "model.json", result.model)
    back = load_model(tmp_path / "model.json", bank)
    assert flatten_params(back).tobytes() == flatten_params(result.model).tobytes()
    assert back.distances.tobytes() == result.model.distances.tobytes()
    for ns1, ns2 in zip(result.model.neighbor_sets, back.neighbor_sets):
        assert ns1.target == ns2.target
        assert ns1.neighbor_ids == ns2.neighbor_ids
        assert ns1.reduced.tobytes() == ns2.reduced.tobytes()
        assert ns1.full_rows.tobytes() == ns2.full_rows.tobytes()
    a = export_composed(result.model)
    b = export_composed(back)
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.biases.tobytes() == b.biases.tobytes()


def test_submodules_are_views_of_the_stacked_parameters(tmp_path):
    ds, bank = _small_problem()
    model = build_model(bank, ds, top_k=2, reduced_dim=3, seed=0)
    fitted = fit(model, ds, RunConfig(epochs=3, seed=0)).model
    save_model(tmp_path / "model.json", fitted)
    for m in (model, fitted, load_model(tmp_path / "model.json", bank)):
        # export_composed's few rows are the per-class pipeline's, bit for bit
        composed = export_composed(m)
        for i, (c, ns) in enumerate(zip(m.few_ids, m.neighbor_sets)):
            u, t = compose(alpha_pipeline(m, i), ns)
            assert composed.weights[c].tobytes() == u.tobytes()
            assert composed.biases[c] == t

    x, y = ds.features[:6], ds.labels[:6]
    loss_before, _ = loss_and_grads(model, x, y)
    few_before = export_composed(model).weights[list(model.few_ids)].copy()
    edited = model.params[3][-1, 0] + 0.5
    model.submodules[-1].fc2_b[0] += 0.5  # an in-place edit through a view
    assert model.params[3][-1, 0] == edited
    assert loss_and_grads(model, x, y)[0] != loss_before
    few_after = export_composed(model).weights[list(model.few_ids)]
    assert np.array_equal(few_after[:-1], few_before[:-1])
    assert not np.array_equal(few_after[-1], few_before[-1])


def test_load_model_rejects_mismatched_bank(tmp_path):
    ds, bank = _small_problem(seed=0)
    model = build_model(bank, ds, top_k=2, reduced_dim=3, seed=0)
    save_model(tmp_path / "model.json", model)
    other_counts = [150, 120, 90, 60, 40, 30, 25, 5]  # only class 7 is few
    other = ClassifierBank(
        weights=bank.weights.copy(),
        biases=bank.biases.copy(),
        split=assign_splits(other_counts),
    )
    with pytest.raises(IntegrityError):
        load_model(tmp_path / "model.json", other)
    # same split, retrained with another seed: the stored rows are not this bank's
    retrained = train_baseline(ds, epochs=8, seed=11)
    assert retrained.split == bank.split
    with pytest.raises(IntegrityError) as exc:
        load_model(tmp_path / "model.json", retrained)
    assert "another bank" in str(exc.value)


#: Edits of the first few class's neighbor list in a saved model manifest;
#: classes 0-5 are base classes, 6 and 7 few.
_NEIGHBOR_EDITS = {
    "id_999": lambda ids: [999, *ids[1:]],
    "few_class_id": lambda ids: [7, *ids[1:]],
    "duplicate_id": lambda ids: [ids[0], ids[0]],
    "unused_base_id": lambda ids: [min(set(range(6)) - set(ids)), *ids[1:]],
}


@pytest.mark.parametrize("edit", list(_NEIGHBOR_EDITS))
def test_load_model_rejects_neighbors_the_bank_did_not_supply(tmp_path, edit):
    ds, bank = _small_problem(seed=0)
    path = tmp_path / "model.json"
    save_model(path, build_model(bank, ds, top_k=2, reduced_dim=3, seed=0))
    manifest = json.loads(path.read_text())
    manifest["neighbors"][0] = _NEIGHBOR_EDITS[edit](manifest["neighbors"][0])
    path.write_text(json.dumps(manifest))
    with pytest.raises(IntegrityError) as exc:
        load_model(path, bank)
    assert "model.json" in str(exc.value)


#: Ways to cut a saved model manifest short, each one field.
_MANIFEST_CUTS = {
    "short_neighbors": lambda m: m["neighbors"].pop(),
    "short_distances": lambda m: m["distances"].pop(),
    "short_neighbor_row": lambda m: m["neighbors"][0].pop(),
    "no_fc2_b_tensor": lambda m: m["tensor_files"].pop("fc2_b"),
    "no_gamma": lambda m: m.pop("gamma"),
    "no_slope": lambda m: m.pop("slope"),
    "no_strict_alpha": lambda m: m.pop("strict_alpha"),
}


@pytest.mark.parametrize("cut", list(_MANIFEST_CUTS))
def test_load_model_rejects_an_incomplete_manifest(tmp_path, cut):
    ds, bank = _small_problem(seed=0)
    path = tmp_path / "model.json"
    save_model(path, build_model(bank, ds, top_k=2, reduced_dim=3, seed=0))
    manifest = json.loads(path.read_text())
    _MANIFEST_CUTS[cut](manifest)
    path.write_text(json.dumps(manifest))
    with pytest.raises(IntegrityError) as exc:
        load_model(path, bank)
    assert "model.json" in str(exc.value)


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(0, 2**31),
    f=st.integers(1, 3),
    k=st.integers(0, 3),
    d=st.integers(1, 3),
    h=st.integers(1, 3),
    strict_alpha=st.booleans(),
)
def test_model_round_trip_is_bit_exact_for_any_shape(seed, f, k, d, h, strict_alpha):
    rng = np.random.default_rng(seed)
    n_base, dim = k + 1, 4
    bank = ClassifierBank(
        weights=rng.normal(size=(n_base + f, dim)),
        biases=rng.normal(size=n_base + f),
        split=assign_splits([150] * n_base + [5] * f),
    )
    shapes = [(f, h, (k + 1) * d), (f, h), (f, k + 1, h), (f, k + 1)]
    model = AlphaModel(
        gamma=float(rng.uniform(0.1, 1.0)), top_k=k, reduced_dim=d, hidden=h,
        slope=float(rng.uniform(0.0, 0.5)),
        neighbors=rng.random((f, n_base)).argsort(axis=1)[:, :k],
        distances=np.sort(rng.exponential(size=(f, k)), axis=1),
        reduced=rng.normal(size=(f, k + 1, d)),
        params=[rng.normal(size=shape) for shape in shapes], bank=bank,
        strict_alpha=strict_alpha,
    )
    with tempfile.TemporaryDirectory() as tmp:
        save_model(Path(tmp) / "model.json", model)
        back = load_model(Path(tmp) / "model.json", bank)
    for name in ("gamma", "top_k", "reduced_dim", "hidden", "slope", "strict_alpha"):
        assert getattr(back, name) == getattr(model, name)
    for p, q in zip(model.params, back.params, strict=True):
        assert p.shape == q.shape and p.tobytes() == q.tobytes()
    assert back.distances.tobytes() == model.distances.tobytes()
    assert len(back.neighbor_sets) == f
    for ns1, ns2 in zip(model.neighbor_sets, back.neighbor_sets):
        for name in ("target", "neighbor_ids"):
            assert getattr(ns1, name) == getattr(ns2, name)
        for name in ("reduced", "biases", "full_rows"):
            assert getattr(ns1, name).tobytes() == getattr(ns2, name).tobytes()
