"""Class means, PCA reduction, and nearest-neighbor selection vs oracles."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphanet.data import ClassifierBank, FeatureDataset, assign_splits
from alphanet.errors import ConfigError, DataError, IntegrityError, ShapeError
from alphanet.model import build_model, export_composed
from alphanet.neighbors import class_means, knn_base, pca_apply, pca_fit


def _dataset(features_by_class, partitions=None):
    feats, labels = [], []
    for c, rows in enumerate(features_by_class):
        feats.append(np.asarray(rows, dtype=float))
        labels += [c] * len(rows)
    n = sum(len(r) for r in features_by_class)
    return FeatureDataset(
        features=np.concatenate(feats),
        labels=np.array(labels),
        partitions=np.zeros(n, dtype=np.uint8) if partitions is None else partitions,
        n_classes=len(features_by_class),
    )


def test_class_means_hand_example():
    ds = _dataset([[(1.0, 1.0), (3.0, 3.0)], [(5.0, 7.0)]])
    means = class_means(ds)
    assert np.array_equal(means[0], [2.0, 2.0])
    assert np.array_equal(means[1], [5.0, 7.0])  # single sample -> the sample


def test_class_means_requires_train_samples():
    parts = np.array([0, 0, 1], dtype=np.uint8)  # class 1 has only a val sample
    ds = _dataset([[(0.0,), (2.0,)], [(9.0,)]], partitions=parts)
    with pytest.raises(DataError) as exc:
        class_means(ds)
    assert "class 1" in str(exc.value)


def test_class_means_matches_two_pass_oracle():
    rng = np.random.default_rng(3)
    ds = _dataset([rng.normal(size=(7, 5)), rng.normal(size=(4, 5)), rng.normal(size=(9, 5))])
    means = class_means(ds)
    for c in range(3):
        rows = ds.features[ds.labels == c]
        oracle = np.zeros(5)
        for row in rows:
            oracle += row
        oracle /= len(rows)
        assert np.max(np.abs(means[c] - oracle)) < 1e-12
    # interleaved classes and partitions: each mean is its class's masked train
    # rows' mean, bit for bit
    order = rng.permutation(ds.n_samples)
    mixed = FeatureDataset(
        features=ds.features[order], labels=ds.labels[order],
        partitions=rng.integers(0, 3, size=ds.n_samples).astype(np.uint8), n_classes=3,
    )
    train = mixed.partitions == 0
    for c, mean in enumerate(class_means(mixed)):
        rows = mixed.features[train & (mixed.labels == c)]
        assert mean.tobytes() == rows.mean(axis=0).tobytes()


def test_pca_line_in_2d():
    t = np.linspace(-2, 2, 9)
    direction = np.array([3.0, 4.0]) / 5.0
    rows = np.outer(t, direction) + np.array([1.0, -2.0])
    proj = pca_fit(rows, 1)
    axis = proj.components[:, 0]
    assert abs(abs(axis @ direction) - 1.0) < 1e-10
    total = np.var(rows, axis=0, ddof=1).sum()
    assert proj.variances[0] / total == pytest.approx(1.0, abs=1e-12)


def test_pca_orthonormal_columns():
    rng = np.random.default_rng(4)
    proj = pca_fit(rng.normal(size=(30, 6)), 4)
    gram = proj.components.T @ proj.components
    assert np.max(np.abs(gram - np.eye(4))) < 1e-8
    assert np.all(np.diff(proj.variances) <= 1e-12)


def test_pca_projected_variance_matches_eigen_oracle():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(20, 8))
    proj = pca_fit(rows, 4)
    centered = rows - rows.mean(axis=0)
    eigvals = np.linalg.eigvalsh(centered.T @ centered / (len(rows) - 1))
    top4 = np.sort(eigvals)[::-1][:4]
    projected = centered @ proj.components
    assert abs(np.var(projected, axis=0, ddof=1).sum() - top4.sum()) < 1e-8
    assert np.max(np.abs(np.sort(proj.variances)[::-1] - top4)) < 1e-8


def test_pca_sign_convention():
    rng = np.random.default_rng(6)
    proj = pca_fit(rng.normal(size=(15, 5)), 3)
    for j in range(3):
        col = proj.components[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_pca_fit_rejects_bad_dims():
    rng = np.random.default_rng(7)
    with pytest.raises(ConfigError):
        pca_fit(rng.normal(size=(5, 3)), 4)
    with pytest.raises(ConfigError):
        pca_fit(rng.normal(size=(1, 3)), 1)
    with pytest.raises(ShapeError):
        pca_fit(rng.normal(size=5), 1)


def test_pca_apply_mean_maps_to_zero():
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(12, 5))
    proj = pca_fit(rows, 3)
    out = pca_apply(proj, rows.mean(axis=0))
    assert np.max(np.abs(out)) < 1e-12


def test_pca_apply_is_nonexpansive_and_matches_matvec():
    rng = np.random.default_rng(9)
    rows = rng.normal(size=(12, 5))
    proj = pca_fit(rows, 3)
    v = rng.normal(size=5)
    out = pca_apply(proj, v)
    centered = v - proj.mean
    assert np.linalg.norm(out) <= np.linalg.norm(centered) + 1e-10
    oracle = np.zeros(3)
    for j in range(3):
        for i in range(5):
            oracle[j] += proj.components[i, j] * centered[i]
    assert np.max(np.abs(out - oracle)) < 1e-12
    with pytest.raises(ShapeError):
        pca_apply(proj, np.zeros(4))


# ---------------------------------------------------------------------------
# Nearest neighbors


def _line_split():
    # class 0 is few; 1..3 are base
    return assign_splits([10, 50, 60, 70])


def test_knn_base_1d_example():
    means = np.array([[0.0], [1.0], [2.0], [3.0]])
    assert knn_base(means, _line_split(), 0, 2) == (1, 2)


def test_knn_base_tie_broken_by_lower_id():
    means = np.array([[0.0], [1.0], [-1.0], [5.0]])
    assert knn_base(means, _line_split(), 0, 2) == (1, 2)
    # swap so the lower id is the farther one: still lower id first on ties
    means = np.array([[0.0], [-1.0], [1.0], [5.0]])
    assert knn_base(means, _line_split(), 0, 2) == (1, 2)


def test_knn_base_bounds_and_degenerate():
    means = np.zeros((4, 1))
    split = _line_split()
    assert knn_base(means, split, 0, 0) == ()
    with pytest.raises(ConfigError):
        knn_base(means, split, 0, 4)  # only 3 base classes
    with pytest.raises(ConfigError):
        knn_base(means, split, 1, 1)  # target must be a few class


def test_knn_base_matches_exhaustive_oracle():
    rng = np.random.default_rng(10)
    counts = [5] * 6 + [50] * 24  # classes 0..5 few, 6..29 base
    split = assign_splits(counts)
    for trial in range(100):
        means = rng.normal(size=(30, 4))
        target = int(rng.integers(0, 6))
        k = int(rng.integers(1, 6))
        oracle = sorted(
            (np.linalg.norm(means[target] - means[c]), c) for c in split.base_ids
        )
        assert knn_base(means, split, target, k) == tuple(c for _, c in oracle[:k])


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**31), shift=st.floats(-100, 100))
def test_knn_base_invariant_under_translation(seed, shift):
    rng = np.random.default_rng(seed)
    split = assign_splits([5, 5, 40, 40, 40, 40, 40])
    means = rng.normal(size=(7, 3))
    moved = means + shift
    for target in (0, 1):
        assert knn_base(means, split, target, 3) == knn_base(moved, split, target, 3)


# ---------------------------------------------------------------------------
# Neighbor sets


def _bank(rng, counts, d=6):
    return ClassifierBank(
        weights=rng.normal(size=(len(counts), d)),
        biases=rng.normal(size=len(counts)),
        split=assign_splits(counts),
    )


def _ranked_dataset(offsets, d=6):
    """One train sample per class, class c at offsets[c] along the first axis,
    so each class mean is exact and the neighbor order is known."""
    return _dataset([[np.eye(d)[0] * x] for x in offsets])


def test_model_neighbor_inputs_layout():
    rng = np.random.default_rng(11)
    bank = _bank(rng, [150, 120, 90, 60, 5])
    # base classes 2, 0, 3, 1 lie at distances 1, 2, 3, 4 from few class 4
    model = build_model(bank, _ranked_dataset([2, 4, 1, 3, 0]), top_k=3, reduced_dim=3)
    members = [4, 2, 0, 3]
    assert model.neighbors.tolist() == [members[1:]]
    assert model.distances.tolist() == [[1.0, 2.0, 3.0]]
    # index 0 is the target's own classifier, full rows follow neighbor order
    assert model.full_rows[0].tobytes() == bank.weights[members].tobytes()
    assert model.set_biases[0].tobytes() == bank.biases[members].tobytes()
    proj = pca_fit(bank.weights, 3)
    for j, c in enumerate(members):
        assert model.reduced[0, j].tobytes() == pca_apply(proj, bank.weights[c]).tobytes()
    (ns,) = model.neighbor_sets
    assert (ns.target, ns.neighbor_ids, ns.distances, ns.k) == (4, (2, 0, 3), (1.0, 2.0, 3.0), 3)
    assert np.shares_memory(ns.full_rows, model.full_rows)  # a view, not a copy
    # slot j of the flattened input is exactly reduced row j
    assert ns.flat_input.shape == (4 * 3,)
    for j in range(4):
        assert np.array_equal(ns.flat_input[j * 3:(j + 1) * 3], ns.reduced[j])


def test_model_neighbor_inputs_k0_degenerate():
    rng = np.random.default_rng(12)
    bank = _bank(rng, [150, 120, 5])
    model = build_model(bank, _ranked_dataset([1, 2, 0]), top_k=0, reduced_dim=2)
    (ns,) = model.neighbor_sets
    assert model.neighbors.shape == model.distances.shape == (1, 0)
    assert (ns.k, ns.distances) == (0, ())
    assert np.array_equal(ns.flat_input, pca_apply(pca_fit(bank.weights, 2), bank.weights[2]))


def test_model_rejects_bad_neighbor_ids():
    rng = np.random.default_rng(13)
    bank = _bank(rng, [150, 120, 5, 4])
    model = build_model(bank, _ranked_dataset([1, 2, 0, 3]), top_k=2, reduced_dim=2)
    assert model.neighbors.tolist() == [[0, 1], [1, 0]]
    for row in ([3, 1], [2, 1], [0, 0], [999, 1], [-1, 1]):  # few, self, duplicate, range
        with pytest.raises(IntegrityError):
            replace(model, neighbors=np.array([row, [1, 0]]))


def test_model_neighbor_rows_are_frozen_copies():
    rng = np.random.default_rng(14)
    bank = _bank(rng, [150, 120, 5])
    model = build_model(bank, _ranked_dataset([1, 2, 0]), top_k=2, reduced_dim=2)
    before = export_composed(model)
    bank.weights[[2, 0, 1]] += 100.0
    bank.biases[[2, 0, 1]] += 100.0
    after = export_composed(model)
    assert after.weights[2].tobytes() == before.weights[2].tobytes()
    assert after.biases[2] == before.biases[2]
