"""Neighbor selection over class mean features and classifier reduction.

For every few class we pick the K base classes whose mean train features are
closest in euclidean distance. The sub-module input is the PCA-reduced
classifiers of the target and its neighbors, flattened in neighbor order
with the target first. Composition later uses the full-dimension rows,
never the reduced copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TRAIN, FeatureDataset, SplitSpec
from .errors import ConfigError, DataError, ShapeError


def class_means(ds: FeatureDataset) -> np.ndarray:
    """Arithmetic mean of each class's train-partition features, shape (N, D)."""
    idx = ds.indices(TRAIN)
    labels = ds.labels[idx]
    # A stable sort groups the train indices class by class, in sample order.
    order = idx[np.argsort(labels, kind="stable")]
    ends = np.cumsum(np.bincount(labels, minlength=ds.n_classes))
    out = np.zeros((ds.n_classes, ds.feature_dim))
    for c, rows in enumerate(np.split(order, ends[:-1])):
        if rows.size == 0:
            raise DataError(f"class {c} has no train samples to average")
        out[c] = ds.features[rows].mean(axis=0)
    return out


@dataclass(frozen=True)
class PcaProjection:
    """Orthonormal projection onto the top principal axes of a row set."""

    mean: np.ndarray        # (D,) row mean used for centering
    components: np.ndarray  # (D, d) orthonormal columns, descending variance
    variances: np.ndarray   # (d,) explained variances, nonincreasing

    @property
    def in_dim(self) -> int:
        return int(self.components.shape[0])

    @property
    def out_dim(self) -> int:
        return int(self.components.shape[1])


def pca_fit(rows: np.ndarray, d: int) -> PcaProjection:
    """Principal axes of mean-centered `rows` by descending covariance
    eigenvalue. Sign convention: the largest-magnitude component of each
    axis is positive.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ShapeError(f"pca_fit: rows must be 2-D, got {rows.shape}")
    m, dim = rows.shape
    if m < 2:
        raise ConfigError(f"pca_fit needs at least 2 rows, got {m}")
    if not 1 <= d <= min(m, dim):
        raise ConfigError(
            f"reduced dim {d} must be in [1, {min(m, dim)}] for {m}x{dim} rows"
        )
    mean = rows.mean(axis=0)
    centered = rows - mean
    cov = centered.T @ centered / (m - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:d]
    components = eigvecs[:, order]
    variances = np.clip(eigvals[order], 0.0, None)
    for j in range(components.shape[1]):
        peak = int(np.argmax(np.abs(components[:, j])))
        if components[peak, j] < 0.0:
            components[:, j] = -components[:, j]
    return PcaProjection(mean=mean, components=components, variances=variances)


def pca_apply(proj: PcaProjection, v: np.ndarray) -> np.ndarray:
    """Project vectors on the last axis, out = components^T (v - mean);
    each vector of a batch keeps the bits of its own per-vector product."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1:] != (proj.in_dim,):
        raise ShapeError(
            f"pca_apply: vectors {v.shape} incompatible with projection "
            f"({proj.in_dim} -> {proj.out_dim})"
        )
    return np.matmul(proj.components.T, (v - proj.mean)[..., None])[..., 0]


def base_distances(means: np.ndarray, split: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Every few class's base classes by mean-feature distance, nearest
    first: ids and distances, both (F, B) with rows in `few_ids` order.
    Ties go to the lower id."""
    base = split.base_index
    diff = means[split.few_index, None, :] - means[base]
    # A 1 x 1 product per pair is the dot product that np.linalg.norm takes
    # for a lone vector, so every distance keeps its bits.
    dist = np.sqrt(np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0])
    # `base` ascends, so a stable sort puts the lower id first on ties.
    order = np.argsort(dist, axis=1, kind="stable")
    return base[order], np.take_along_axis(dist, order, axis=1)


def knn_base(
    means: np.ndarray, split: SplitSpec, target: int, k: int
) -> tuple[int, ...]:
    """Ids of the k base classes nearest to `target` in mean-feature space."""
    if split.labels[target] != "few":
        raise ConfigError(f"neighbor target {target} is not a few class")
    if not 0 <= k <= split.n_base:
        raise ConfigError(f"k={k} must be in [0, {split.n_base}] (number of base classes)")
    ids, _ = base_distances(means, split)
    return tuple(ids[split.few_ids.index(target), :k].tolist())


@dataclass(frozen=True)
class NeighborSet:
    """Fixed sub-module input for one few class; `AlphaModel.neighbor_sets`
    returns them as views of the model's stacked inputs.

    Index 0 is always the target's own classifier; indices 1..K are the
    neighbors in nondecreasing mean-feature distance. `reduced` rows feed the
    sub-module, `full_rows` and `biases` feed the composition.
    """

    target: int
    neighbor_ids: tuple[int, ...]
    reduced: np.ndarray    # (K+1, d)
    biases: np.ndarray     # (K+1,)
    full_rows: np.ndarray  # (K+1, D)

    @property
    def k(self) -> int:
        return len(self.neighbor_ids)

    @property
    def flat_input(self) -> np.ndarray:
        """Concatenation of the reduced classifiers, target first; length (K+1)*d."""
        return self.reduced.reshape(-1)

