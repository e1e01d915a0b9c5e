"""Neighbor selection over class mean features and classifier reduction.

For every few class we pick the K base classes whose mean train features are
closest in euclidean distance, then assemble the sub-module input: the
PCA-reduced classifiers of the target and its neighbors, flattened in
neighbor order with the target first. Composition later uses the retained
full-dimension rows, never the reduced copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ClassifierBank, FeatureDataset, SplitSpec, class_train_indices
from .errors import ConfigError, DataError, IntegrityError, ShapeError


def class_means(ds: FeatureDataset) -> np.ndarray:
    """Arithmetic mean of each class's train-partition features, shape (N, D)."""
    out = np.zeros((ds.n_classes, ds.feature_dim))
    for c in range(ds.n_classes):
        idx = class_train_indices(ds, c)
        if idx.size == 0:
            raise DataError(f"class {c} has no train samples to average")
        out[c] = ds.features[idx].mean(axis=0)
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
    """Project a vector: out = components^T (v - mean)."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (proj.in_dim,):
        raise ShapeError(
            f"pca_apply: vector {v.shape} incompatible with projection "
            f"({proj.in_dim} -> {proj.out_dim})"
        )
    return proj.components.T @ (v - proj.mean)


def base_distances(
    means: np.ndarray, split: SplitSpec, target: int
) -> list[tuple[float, int]]:
    """(distance, class id) to every base class, ascending; ties by lower id."""
    pairs = [
        (float(np.linalg.norm(means[target] - means[c])), c)
        for c in split.base_ids
        if c != target
    ]
    pairs.sort()
    return pairs


def knn_base(
    means: np.ndarray, split: SplitSpec, target: int, k: int
) -> tuple[int, ...]:
    """Ids of the k base classes nearest to `target` in mean-feature space."""
    if split.labels[target] != "few":
        raise ConfigError(f"neighbor target {target} is not a few class")
    if not 0 <= k <= split.n_base:
        raise ConfigError(f"k={k} must be in [0, {split.n_base}] (number of base classes)")
    return tuple(c for _, c in base_distances(means, split, target)[:k])


@dataclass(frozen=True)
class NeighborSet:
    """Fixed sub-module input for one few class.

    Index 0 is always the target's own classifier; indices 1..K are the
    neighbors in nondecreasing mean-feature distance. `reduced` rows feed the
    sub-module, `full_rows` and `biases` feed the composition.
    """

    target: int
    neighbor_ids: tuple[int, ...]
    reduced: np.ndarray    # (K+1, d)
    biases: np.ndarray     # (K+1,)
    full_rows: np.ndarray  # (K+1, D)
    distances: tuple[float, ...] = ()

    @property
    def k(self) -> int:
        return len(self.neighbor_ids)

    @property
    def flat_input(self) -> np.ndarray:
        """Concatenation of the reduced classifiers, target first; length (K+1)*d."""
        return self.reduced.reshape(-1)


def build_neighbor_set(
    bank: ClassifierBank,
    proj: PcaProjection,
    ids,
    target: int,
    distances=None,
) -> NeighborSet:
    """Assemble the neighbor set for `target` from already-selected base ids."""
    ids = tuple(int(i) for i in ids)
    base = set(bank.split.base_ids)
    if len(set(ids)) != len(ids):
        raise IntegrityError(f"duplicate neighbor ids {ids}")
    for i in ids:
        if i == target:
            raise IntegrityError(f"target {target} cannot be its own neighbor")
        if i not in base:
            raise IntegrityError(f"neighbor {i} is not a base class")
    members = (target,) + ids
    reduced = np.stack([pca_apply(proj, bank.weights[c]) for c in members])
    return NeighborSet(
        target=target,
        neighbor_ids=ids,
        reduced=reduced,
        biases=bank.biases[list(members)].copy(),
        full_rows=bank.weights[list(members)].copy(),
        distances=tuple(float(x) for x in distances) if distances is not None else (),
    )
