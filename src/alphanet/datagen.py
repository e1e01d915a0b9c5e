"""Synthetic long-tailed feature datasets and a frozen baseline classifier.

The generator draws Gaussian clusters whose per-class train counts follow a
head-to-tail decay profile. A correlation knob `rho` pulls each few-class
mean toward a randomly chosen base-class mean, so tests can construct few
classes that do (or do not) have a semantically close strong neighbor. Base
means themselves are drawn around a handful of group centers (real label
spaces are clumpy: several strong classes resemble each other), which gives
a few class more than one informative neighbor. The baseline is a
multinomial logistic regression trained on the naturally imbalanced train
split; its few-class rows are genuinely weak, which is the precondition for
composition to have headroom.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .config import check_field_types
from .data import FEW_LT, MANY_GT, ClassifierBank, FeatureDataset, SplitSpec, assign_splits
from .errors import ConfigError, TrainingError
from .numerics import sgd_momentum_step, softmax


@dataclass
class GenConfig:
    """Knobs for the synthetic generator. Defaults are the desk-scale setup:
    50 classes at dim 16 with a decay profile leaving 10 few classes.

    `rho` may be a single fraction applied to every few class, or one value
    per few class (ascending class id) to mix close-neighbor and isolated
    few classes in one dataset. `n_groups` > 0 clusters the base-class means
    around that many shared centers (`group_spread` scales the within-group
    spread relative to `mean_scale`); 0 draws every mean independently.
    """

    n_classes: int = 50
    feature_dim: int = 16
    head_count: int = 200
    tail_count: int = 5
    decay_exponent: float = 1.6
    explicit_counts: list[int] | None = None
    sigma: float = 0.9
    rho: float | list[float] = 0.7
    mean_scale: float = 1.15
    n_groups: int = 0
    group_spread: float = 0.5
    val_per_class: int = 20
    test_per_class: int = 20
    many_gt: int = MANY_GT
    few_lt: int = FEW_LT
    seed: int = 0

    def validate(self) -> None:
        check_field_types(self)
        if self.n_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.n_classes}")
        if self.feature_dim < 1:
            raise ConfigError(f"feature_dim must be positive, got {self.feature_dim}")
        if self.tail_count < 2:
            raise ConfigError(f"tail_count must be >= 2, got {self.tail_count}")
        if self.head_count <= self.tail_count:
            raise ConfigError(
                f"head_count {self.head_count} must exceed tail_count {self.tail_count}"
            )
        if self.sigma <= 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if self.decay_exponent <= 0:
            raise ConfigError(f"decay_exponent must be positive, got {self.decay_exponent}")
        if self.val_per_class < 1 or self.test_per_class < 1:
            raise ConfigError("val_per_class and test_per_class must be >= 1")
        if self.n_groups < 0:
            raise ConfigError(f"n_groups must be >= 0, got {self.n_groups}")
        if self.group_spread <= 0:
            raise ConfigError(f"group_spread must be positive, got {self.group_spread}")
        for r in np.atleast_1d(np.asarray(self.rho, dtype=np.float64)):
            if not 0.0 <= r <= 1.0:
                raise ConfigError(f"rho values must lie in [0, 1], got {r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GenConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown generator config keys: {sorted(unknown)}")
        cfg = cls(**d)
        cfg.validate()
        return cfg


def count_profile(cfg: GenConfig) -> np.ndarray:
    """Per-class train counts, head first. Power-law interpolation between
    head_count and tail_count unless explicit counts are given."""
    if cfg.explicit_counts is not None:
        counts = np.asarray(cfg.explicit_counts, dtype=np.int64)
        if counts.shape != (cfg.n_classes,):
            raise ConfigError(
                f"explicit_counts has {counts.size} entries for {cfg.n_classes} classes"
            )
        if counts.min() < 1:
            raise ConfigError("explicit_counts must all be >= 1")
        return counts
    n = cfg.n_classes
    frac = (n - 1 - np.arange(n)) / (n - 1)
    counts = np.round(
        cfg.tail_count + (cfg.head_count - cfg.tail_count) * frac**cfg.decay_exponent
    ).astype(np.int64)
    return counts


def _few_rhos(cfg: GenConfig, n_few: int) -> np.ndarray:
    rho = np.asarray(cfg.rho, dtype=np.float64)
    if rho.ndim == 0:
        return np.full(n_few, float(rho))
    if rho.shape != (n_few,):
        raise ConfigError(
            f"rho list has {rho.size} entries but the profile yields {n_few} few classes"
        )
    return rho


def generate(cfg: GenConfig) -> tuple[FeatureDataset, SplitSpec, np.ndarray]:
    """Draw a dataset from the config. Returns (dataset, split, true class means).

    Train counts follow the decay profile; val and test are balanced per
    class. Fully deterministic given cfg.seed.
    """
    cfg.validate()
    counts = count_profile(cfg)
    split = assign_splits(counts, many_gt=cfg.many_gt, few_lt=cfg.few_lt)
    if split.n_few == 0:
        raise ConfigError(
            f"no class qualifies as few under threshold {cfg.few_lt}; "
            f"smallest count is {counts.min()}"
        )
    if split.n_base == 0:
        raise ConfigError("no class qualifies as base; adjust counts or thresholds")

    rng = np.random.default_rng(cfg.seed)
    n, d = cfg.n_classes, cfg.feature_dim
    means = rng.normal(0.0, cfg.mean_scale, size=(n, d))
    base_ids = np.asarray(split.base_ids)
    if cfg.n_groups > 0:
        # Base means clump around shared group centers; few-class fresh
        # components stay independent draws so rho=0 means no inheritance.
        centers = rng.normal(0.0, cfg.mean_scale, size=(cfg.n_groups, d))
        for j, c in enumerate(split.base_ids):
            means[c] = centers[j % cfg.n_groups] + cfg.group_spread * cfg.mean_scale * rng.normal(
                0.0, 1.0, size=d
            )
    rhos = _few_rhos(cfg, split.n_few)
    for rho, c in zip(rhos, split.few_ids):
        parent = int(rng.choice(base_ids))
        means[c] = rho * means[parent] + (1.0 - rho) * means[c]

    # One matrix, filled class by class: each class's train, val and test
    # samples in that order, with partition codes 0, 1 and 2.
    per_class = counts + cfg.val_per_class + cfg.test_per_class
    features = np.empty((int(per_class.sum()), d))
    partitions = np.full(features.shape[0], 2, dtype=np.uint8)
    start = 0
    for c, m in enumerate(per_class):
        features[start : start + m] = rng.normal(means[c], cfg.sigma, size=(m, d))
        val_start = start + counts[c]
        partitions[start:val_start] = 0
        partitions[val_start : val_start + cfg.val_per_class] = 1
        start += m

    ds = FeatureDataset(
        features=features,
        labels=np.repeat(np.arange(n, dtype=np.int64), per_class),
        partitions=partitions,
        n_classes=n,
        many_gt=cfg.many_gt,
        few_lt=cfg.few_lt,
    )
    return ds, split, means


def train_baseline(
    ds: FeatureDataset,
    epochs: int = 60,
    lr: float = 0.5,
    seed: int = 0,
    batch_size: int = 64,
    momentum: float = 0.9,
) -> ClassifierBank:
    """Fit one linear classifier per class by softmax cross-entropy SGD over
    the naturally imbalanced train partition, then freeze it.

    Training on the imbalanced joint distribution leaves the few-class rows
    under-fit on purpose. The bank carries the dataset's own split.
    Deterministic given the seed. A step that leaves some sample's label
    probability 0 or NaN (an infinite loss) is a TrainingError naming the
    epoch and the batch of the first such sample, raised at the epoch's end.
    """
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    if lr <= 0.0:
        raise ConfigError(f"lr must be positive, got {lr}")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if not 0.0 <= momentum < 1.0:
        raise ConfigError(f"momentum must be in [0, 1), got {momentum}")
    train_idx = ds.indices("train")
    if train_idx.size == 0:
        raise ConfigError("train partition is empty")
    split = ds.split()

    rng = np.random.default_rng(seed)
    n, d = ds.n_classes, ds.feature_dim
    weights = np.zeros((n, d))
    biases = np.zeros(n)
    vel_w = np.zeros_like(weights)
    vel_b = np.zeros_like(biases)
    n_train = train_idx.size
    # Each epoch's shuffled train partition is gathered into these buffers
    # once, and every batch is a view of them.
    epoch_x, epoch_y = np.empty((n_train, d)), np.empty(n_train, dtype=np.int64)
    # The softmax probability of each sample's label: -log of it is the
    # sample's loss, so an entry that is 0 or NaN marks a diverged step.
    label_probs = np.empty(n_train)
    rows = np.arange(min(batch_size, n_train))

    # A diverging step overflows to inf or NaN, which the check after each
    # epoch reports as a TrainingError; numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            order = train_idx[rng.permutation(n_train)]
            np.take(ds.features, order, axis=0, out=epoch_x)
            np.take(ds.labels, order, out=epoch_y)
            for start in range(0, n_train, batch_size):
                x, y = epoch_x[start : start + batch_size], epoch_y[start : start + batch_size]
                r = rows[: y.size]
                scores = x @ weights.T
                scores += biases
                g = softmax(scores)
                label_probs[start : start + y.size] = g[r, y]
                g[r, y] -= 1.0
                g /= y.size
                sgd_momentum_step(weights, g.T @ x, vel_w, lr, momentum)
                sgd_momentum_step(biases, g.sum(axis=0), vel_b, lr, momentum)
            # -log(p) is finite for 0 < p <= 1 and at most ~745 at the
            # smallest positive p, so "every p > 0" is "the epoch's summed
            # loss is finite".
            diverged = ~(label_probs > 0.0)
            if diverged.any():
                batch = int(np.argmax(diverged)) // batch_size
                raise TrainingError(f"baseline training diverged at epoch {epoch}, batch {batch}")

    return ClassifierBank(
        weights=weights,
        biases=biases,
        split=split,
        provenance=f"baseline-logreg seed {seed}",
    )
