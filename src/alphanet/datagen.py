"""Synthetic long-tailed feature datasets and a frozen baseline classifier.

The generator draws Gaussian clusters whose per-class train counts follow a
head-to-tail decay profile. A correlation knob `rho` pulls each few-class
mean toward a randomly chosen base-class mean, so tests can construct few
classes that do (or do not) have a semantically close strong neighbor. By
default (`n_groups` 0) every class mean is an independent draw; `n_groups` > 0
draws the base means around that many group centers instead (real label
spaces are clumpy: several strong classes resemble each other), which gives
a few class more than one informative neighbor. The baseline is a
multinomial logistic regression trained on the naturally imbalanced train
split; its few-class rows are genuinely weak, which is the precondition for
composition to have headroom.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .config import check_array_size, check_field_types
from .data import FEW_LT, MANY_GT, ClassifierBank, FeatureDataset, SplitSpec, assign_splits
from .errors import ConfigError, TrainingError
from .numerics import _sgd_epochs, _softmax_xent


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

    def validate(self) -> "GenConfig":
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
        # numpy's generator refuses a scale whose sign bit is set, -0.0 too.
        if math.copysign(1.0, self.mean_scale) < 0:
            raise ConfigError(f"mean_scale must be >= 0, got {self.mean_scale}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for r in np.atleast_1d(np.asarray(self.rho, dtype=np.float64)):
            if not 0.0 <= r <= 1.0:
                raise ConfigError(f"rho values must lie in [0, 1], got {r}")
        return self

    def to_dict(self) -> dict:
        return asdict(self)


def count_profile(cfg: GenConfig) -> np.ndarray:
    """Per-class train counts, head first. Power-law interpolation between
    head_count and tail_count unless explicit counts are given. Counts that,
    with `n_classes` and the per-class val and test samples, size a feature
    matrix numpy cannot hold are refused, before any count is cast."""
    n, d = cfg.n_classes, cfg.feature_dim
    check_array_size(f"n_classes {n} with feature_dim {d}", n, d)
    if cfg.explicit_counts is not None:
        counts = cfg.explicit_counts
        if len(counts) != n:
            raise ConfigError(f"explicit_counts has {len(counts)} entries for {n} classes")
        if min(counts) < 1:
            raise ConfigError("explicit_counts must all be >= 1")
    else:
        # A head count past float range would overflow the profile's
        # arithmetic, so one that no array could hold is refused first.
        check_array_size(f"head_count {cfg.head_count}", cfg.head_count, itemsize=1)
        frac = (n - 1 - np.arange(n)) / (n - 1)
        profile = np.round(
            cfg.tail_count + (cfg.head_count - cfg.tail_count) * frac**cfg.decay_exponent
        )
        counts = [int(c) for c in profile.tolist()]
    source = f"head_count {cfg.head_count}" if cfg.explicit_counts is None else "explicit_counts"
    rows = sum(counts) + n * (cfg.val_per_class + cfg.test_per_class)
    check_array_size(
        f"{source} with val_per_class {cfg.val_per_class} and test_per_class "
        f"{cfg.test_per_class} ({rows} samples)",
        rows,
        d,
    )
    return np.array(counts, dtype=np.int64)


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
    class. Fully deterministic given cfg.seed. Settings whose draws overflow
    (`mean_scale` 1e308, say) give non-finite features, which the dataset
    refuses with a NumericError; numpy's warnings would only repeat it.
    """
    cfg.validate()
    with np.errstate(over="ignore", invalid="ignore"):
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
        if cfg.n_groups > 0:
            check_array_size(f"n_groups {cfg.n_groups} with feature_dim {d}", cfg.n_groups, d)
            # Base means clump around shared group centers; few-class fresh
            # components stay independent draws so rho=0 means no inheritance.
            centers = rng.normal(0.0, cfg.mean_scale, size=(cfg.n_groups, d))
            spread = cfg.group_spread * cfg.mean_scale
            for j, c in enumerate(split.base_ids):
                means[c] = centers[j % cfg.n_groups] + spread * rng.normal(0.0, 1.0, size=d)
        rhos = _few_rhos(cfg, split.n_few)
        for rho, c in zip(rhos, split.few_ids):
            parent = int(rng.choice(split.base_index))
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
    under-fit on purpose. The bank carries the dataset's own split and its
    `train_digest`. Deterministic given the seed. A step that leaves some
    sample's label probability 0 or NaN (an infinite loss) is a
    TrainingError naming the epoch and the batch of the first such sample,
    raised at the epoch's end.
    """
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    if not 0.0 < lr < np.inf:
        raise ConfigError(f"lr must be positive and finite, got {lr}")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if not 0.0 <= momentum < 1.0:
        raise ConfigError(f"momentum must be in [0, 1), got {momentum}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    train_idx = ds.indices("train")
    if train_idx.size == 0:
        raise ConfigError("train partition is empty")
    # Taken before the training buffers exist, so that its copy of the train
    # partition does not add to their peak memory.
    split, train_digest = ds.split(), ds.train_digest()

    rng = np.random.default_rng(seed)
    n, d = ds.n_classes, ds.feature_dim
    # [W | b] is one buffer, so that one step updates both.
    params = np.zeros((n, d + 1))
    grads = np.empty_like(params)
    n_train = train_idx.size
    # The train partition beside a column of ones, which meets the bias
    # column in the GEMMs.
    train_x = np.empty((n_train, d + 1))
    train_x[:, :d], train_x[:, d] = ds.features[train_idx], 1.0
    # A batch's scores, then its gradient, are the first rows of this buffer.
    scores = np.empty((min(batch_size, n_train), n))
    # The softmax probability of each sample's label: -log of it is the
    # sample's loss, so an entry that is 0 or NaN marks a diverged step.
    label_probs = np.empty(n_train)

    def batch_grads(epoch, start, x, y):
        g = np.matmul(x, params.T, out=scores[: y.size])
        label_probs[start : start + y.size] = _softmax_xent(g, y)[2]
        g /= y.size
        return np.matmul(g.T, x, out=grads)

    # A diverging step overflows to inf or NaN, which the check after each
    # epoch reports as a TrainingError; numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch, _ in _sgd_epochs(
            params, batch_grads, lambda: rng.permutation(n_train), train_x,
            ds.labels[train_idx], n_train, batch_size, itertools.repeat(lr, epochs), momentum,
        ):
            # -log(p) is finite for 0 < p <= 1 and at most ~745 at the
            # smallest positive p, so "every p > 0" is "the epoch's summed
            # loss is finite".
            diverged = ~(label_probs > 0.0)
            if diverged.any():
                batch = int(np.argmax(diverged)) // batch_size
                raise TrainingError(f"baseline training diverged at epoch {epoch}, batch {batch}")

    return ClassifierBank(
        weights=params[:, :d],
        biases=params[:, d],
        split=split,
        provenance=f"baseline-logreg seed {seed}",
        train_digest=train_digest,
    )
