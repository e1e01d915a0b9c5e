"""Synthetic long-tailed generator and the frozen logistic-regression bank."""

import tracemalloc

import numpy as np
import pytest

from alphanet.data import FeatureDataset, assign_splits
from alphanet.datagen import GenConfig, count_profile, generate, train_baseline
from alphanet.errors import ConfigError, TrainingError
from alphanet.reports import split_report, topk_accuracy


def test_count_profile_endpoints_and_monotonicity():
    counts = count_profile(GenConfig(n_classes=10, head_count=200, tail_count=5))
    assert counts[0] == 200
    assert counts[-1] == 5
    assert np.all(np.diff(counts) <= 0)


def test_count_profile_matches_decay_formula():
    cfg = GenConfig(n_classes=10, head_count=200, tail_count=5, decay_exponent=1.6)
    counts = count_profile(cfg)
    for i in range(10):
        frac = (10 - 1 - i) / (10 - 1)
        expected = round(5 + (200 - 5) * frac**1.6)
        assert counts[i] == expected


def test_generate_fills_one_feature_matrix():
    """The tail-heavy profile (54,080 samples) is drawn into one matrix;
    no per-class arrays are held for a concatenation."""
    cfg = GenConfig(decay_exponent=2.5, test_per_class=1000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds, _, _ = generate(cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * ds.features.nbytes


def test_default_profile_leaves_ten_few_classes():
    cfg = GenConfig()
    counts = count_profile(cfg)
    split = assign_splits(counts)
    assert split.few_ids == tuple(range(40, 50))
    assert int(counts[40:].sum()) == 102


def test_explicit_counts_override():
    cfg = GenConfig(n_classes=3, explicit_counts=[120, 30, 6])
    assert np.array_equal(count_profile(cfg), [120, 30, 6])
    with pytest.raises(ConfigError):
        count_profile(GenConfig(n_classes=3, explicit_counts=[120, 30]))


def test_generate_is_deterministic():
    cfg = GenConfig(n_classes=8, head_count=120, tail_count=4, seed=13)
    ds1, split1, means1 = generate(cfg)
    ds2, split2, means2 = generate(cfg)
    assert ds1.features.tobytes() == ds2.features.tobytes()
    assert np.array_equal(ds1.labels, ds2.labels)
    assert np.array_equal(ds1.partitions, ds2.partitions)
    assert split1 == split2
    assert means1.tobytes() == means2.tobytes()


def test_generate_partition_sizes():
    cfg = GenConfig(n_classes=8, head_count=120, tail_count=4, val_per_class=7,
                    test_per_class=9, seed=2)
    ds, split, _ = generate(cfg)
    counts = count_profile(cfg)
    assert np.array_equal(ds.train_counts(), counts)
    assert ds.indices("val").size == 8 * 7
    assert ds.indices("test").size == 8 * 9


def test_generate_rejects_profiles_without_few_classes():
    with pytest.raises(ConfigError) as exc:
        generate(GenConfig(n_classes=4, explicit_counts=[200, 150, 100, 50]))
    assert "few" in str(exc.value)


def test_rho_one_copies_a_base_mean_exactly():
    cfg = GenConfig(n_classes=10, head_count=150, tail_count=4, rho=1.0, seed=5)
    ds, split, means = generate(cfg)
    base = means[list(split.base_ids)]
    for c in split.few_ids:
        assert any(np.array_equal(means[c], row) for row in base)


def test_rho_zero_means_are_unrelated_to_base_means():
    lo = GenConfig(n_classes=12, head_count=150, tail_count=4, rho=0.0, seed=5)
    hi = GenConfig(n_classes=12, head_count=150, tail_count=4, rho=0.95, seed=5)
    _, split, means_lo = generate(lo)
    _, _, means_hi = generate(hi)
    base_ids = list(split.base_ids)
    # base means are drawn before the correlation knob is applied and must
    # not depend on it
    assert means_lo[base_ids].tobytes() == means_hi[base_ids].tobytes()

    def nn_dist(means):
        return np.array([
            min(np.linalg.norm(means[c] - means[b]) for b in base_ids)
            for c in split.few_ids
        ])

    # strongly-inherited means sit close to a parent; fresh ones do not
    assert nn_dist(means_lo).mean() > 2.0 * nn_dist(means_hi).mean()


def test_rho_list_per_few_class():
    cfg = GenConfig(n_classes=10, head_count=150, tail_count=4,
                    rho=[1.0, 0.0, 0.0], seed=3)
    ds, split, means = generate(cfg)
    assert split.n_few == 3
    base = means[list(split.base_ids)]
    first_few = split.few_ids[0]
    assert any(np.array_equal(means[first_few], row) for row in base)
    with pytest.raises(ConfigError):
        generate(GenConfig(n_classes=10, head_count=150, tail_count=4, rho=[0.5, 0.5]))


def test_grouped_base_means_cluster():
    flat = GenConfig(n_classes=20, head_count=150, tail_count=4, n_groups=0, seed=9)
    grouped = GenConfig(n_classes=20, head_count=150, tail_count=4, n_groups=3,
                        group_spread=0.3, seed=9)
    _, split, means_flat = generate(flat)
    _, _, means_grp = generate(grouped)

    def spread(means):
        rows = means[list(split.base_ids)]
        d = [np.linalg.norm(a - b) for i, a in enumerate(rows) for b in rows[i + 1:]]
        return float(np.min(d))

    # with 3 centers over ~15 base classes, some pair shares a center and
    # sits much closer than any pair of independent draws
    assert spread(means_grp) < spread(means_flat)


def test_genconfig_validation():
    with pytest.raises(ConfigError):
        GenConfig(tail_count=1).validate()
    with pytest.raises(ConfigError):
        GenConfig(head_count=5, tail_count=5).validate()
    with pytest.raises(ConfigError):
        GenConfig(sigma=0.0).validate()
    with pytest.raises(ConfigError):
        GenConfig(rho=1.5).validate()
    with pytest.raises(ConfigError):
        GenConfig(few_lt=20.5).validate()
    with pytest.raises(ConfigError):
        GenConfig.from_dict({"n_classes": 10, "bogus_knob": 1})
    for bad in (
        {"feature_dim": "16"}, {"n_classes": 50.5}, {"n_groups": True},
        {"seed": 1.5}, {"sigma": "0.9"}, {"decay_exponent": False},
    ):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            GenConfig(**bad).validate()
    GenConfig(sigma=1, mean_scale=2).validate()  # an int is a valid float


def test_baseline_reaches_perfect_accuracy_on_separable_toy():
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    feats, labels = [], []
    for c in range(3):
        feats.append(rng.normal(centers[c], 0.1, size=(30, 2)))
        labels += [c] * 30
    ds = FeatureDataset(
        features=np.concatenate(feats),
        labels=np.array(labels),
        partitions=np.zeros(90, dtype=np.uint8),
        n_classes=3,
    )
    bank = train_baseline(ds, epochs=40, lr=0.5, seed=0)
    x, y = ds.partition_arrays("train")
    assert topk_accuracy(bank.scores(x), y, 1) == 1.0


def test_baseline_few_classifiers_are_weak():
    ds, split, _ = generate(GenConfig(seed=0))
    bank = train_baseline(ds, seed=0)
    x, y = ds.partition_arrays("val")
    scores = bank.scores(x)
    few_mask = np.isin(y, split.few_ids)
    few_acc = topk_accuracy(scores[few_mask], y[few_mask], 1)
    base_acc = topk_accuracy(scores[~few_mask], y[~few_mask], 1)
    assert few_acc < base_acc


def test_baseline_is_deterministic():
    ds, _, _ = generate(GenConfig(n_classes=10, head_count=120, tail_count=4, seed=4))
    b1 = train_baseline(ds, epochs=10, seed=7)
    b2 = train_baseline(ds, epochs=10, seed=7)
    assert b1.weights.tobytes() == b2.weights.tobytes()
    assert b1.biases.tobytes() == b2.biases.tobytes()
    assert "seed 7" in b1.provenance


def _reference_train_baseline(ds, epochs=60, lr=0.5, seed=0, batch_size=64, momentum=0.9):
    """The per-batch-gather `train_baseline` body that the epoch-buffer loop
    replaced, with its out-of-place softmax and per-batch -log divergence
    signal; returns (weights, biases)."""
    train_x, train_y = ds.partition_arrays("train")
    rng = np.random.default_rng(seed)
    n, d = ds.n_classes, ds.feature_dim
    weights = np.zeros((n, d))
    biases = np.zeros(n)
    vel_w = np.zeros_like(weights)
    vel_b = np.zeros_like(biases)
    n_train = train_x.shape[0]
    for epoch in range(epochs):
        order = rng.permutation(n_train)
        epoch_loss = 0.0
        for start in range(0, n_train, batch_size):
            idx = order[start : start + batch_size]
            x, y = train_x[idx], train_y[idx]
            scores = x @ weights.T + biases
            shifted = scores - np.max(scores, axis=-1, keepdims=True)
            e = np.exp(shifted)
            probs = e / np.sum(e, axis=-1, keepdims=True)
            picked = probs[np.arange(len(idx)), y]
            epoch_loss += float(-np.log(picked).sum())
            g = probs
            g[np.arange(len(idx)), y] -= 1.0
            g /= len(idx)
            vel_w *= momentum
            vel_w += g.T @ x
            weights -= lr * vel_w
            vel_b *= momentum
            vel_b += g.sum(axis=0)
            biases -= lr * vel_b
        if not np.isfinite(epoch_loss):
            raise TrainingError(f"baseline training diverged at epoch {epoch}")
    return weights, biases


@pytest.mark.parametrize(
    "cfg, epochs",
    [
        (GenConfig(), 60),  # 4,022 train samples: 62 full batches and one of 54
        (GenConfig(n_classes=12, head_count=80, tail_count=4, seed=2), 20),
        (GenConfig(feature_dim=64, seed=5), 6),
    ],
    ids=["default", "small", "dim64"],
)
def test_baseline_bank_is_byte_identical_to_the_reference(cfg, epochs):
    ds, _, _ = generate(cfg)
    n_train = ds.indices("train").size
    assert n_train % 64 != 0  # the last batch of each epoch is partial
    bank = train_baseline(ds, epochs=epochs, seed=3)
    weights, biases = _reference_train_baseline(ds, epochs=epochs, seed=3)
    assert bank.weights.tobytes() == weights.tobytes()
    assert bank.biases.tobytes() == biases.tobytes()


def test_baseline_divergence_reports_epoch():
    """The epoch is the one whose summed -log loss the reference finds
    infinite; the batch is the first in it with a zero label probability.
    At lr 1e308 the weights overflow within the epoch: no numpy warning
    escapes (the test session turns one into an error)."""
    ds, _, _ = generate(GenConfig(n_classes=10, head_count=120, tail_count=4, seed=4))
    for lr, batch_size, epoch, batch in [(1e18, 64, 0, 1), (20.0, 16, 1, 10), (1e308, 64, 0, 1)]:
        with pytest.raises(TrainingError) as exc:
            train_baseline(ds, epochs=3, lr=lr, seed=0, batch_size=batch_size)
        assert str(exc.value) == f"baseline training diverged at epoch {epoch}, batch {batch}"
        with pytest.raises(TrainingError) as ref, np.errstate(all="ignore"):
            _reference_train_baseline(ds, epochs=3, lr=lr, seed=0, batch_size=batch_size)
        assert str(ref.value) == f"baseline training diverged at epoch {epoch}"


def test_baseline_bank_carries_the_dataset_split():
    n_few = []
    for few_lt in (20, 40):
        cfg = GenConfig(n_classes=10, head_count=120, tail_count=4, few_lt=few_lt, seed=4)
        ds, split, _ = generate(cfg)
        bank = train_baseline(ds, epochs=2, seed=0)
        assert bank.split == split == ds.split()
        n_few.append(split.n_few)
        x, y = ds.partition_arrays("val")
        report = split_report(bank.scores(x), y, bank.split)
        assert set(report.per_split) <= {"many", "medium", "few", "all"}
    assert n_few[0] < n_few[1]
