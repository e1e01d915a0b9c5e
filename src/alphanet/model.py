"""Per-few-class composition sub-modules and their training loop.

Each few class owns a 2-layer sub-module that maps the flattened reduced
classifiers of the class and its neighbors to a coefficient vector. The
coefficients are normalized to unit absolute sum, clamped (the original
classifier's coefficient capped from above, neighbor coefficients floored
from below), and then used to linearly combine the original full-dimension
classifiers and biases into a replacement classifier. Training minimizes
softmax cross-entropy over all N classes on batches that balance few and
base samples; base classifiers stay frozen throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import RunConfig, _has_type, check_array_size, check_field_types
from .data import (
    ClassifierBank,
    ComposedBank,
    FeatureDataset,
    _atomic_write_bytes,
    _read_bundle,
    _write_bundle,
)
from .errors import ConfigError, IntegrityError, NumericError, ShapeError, TrainingError
from .neighbors import NeighborSet, base_distances, class_means, pca_apply, pca_fit
from .numerics import (
    abs_normalize,
    abs_normalize_vjp,
    affine,
    affine_vjp,
    cap_floor_clamp,
    cap_floor_clamp_vjp,
    leaky_relu,
    leaky_relu_vjp,
    _sgd_epochs,
    _softmax_xent,
)

STAGES = ("raw", "normalized", "clamped")


@dataclass(frozen=True)
class AlphaVector:
    """Composition coefficients at a known pipeline stage.

    The stages form a fixed pipeline, each applied exactly once per forward
    pass: raw -> normalized -> clamped -> composed.
    """

    values: np.ndarray
    stage: str

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(f"unknown alpha stage {self.stage!r}")

    def _require(self, stage: str) -> None:
        if self.stage != stage:
            raise ValueError(f"expected {stage} alphas, got {self.stage}")


def normalize_alpha(a: AlphaVector, strict: bool = True) -> AlphaVector:
    """Divide by the absolute sum so sum(|alpha|) == 1; signs preserved."""
    a._require("raw")
    return AlphaVector(values=abs_normalize(a.values, strict=strict), stage="normalized")


def clamp_alpha(a: AlphaVector, gamma: float) -> AlphaVector:
    """Cap |alpha_0| at gamma and floor |alpha_1..k| at (1-gamma)/k.

    No renormalization afterward: the clamped vector feeds composition
    directly, so its absolute sum may differ from 1.
    """
    a._require("normalized")
    if not 0.0 < gamma <= 1.0:
        raise ConfigError(f"gamma must be in (0, 1], got {gamma}")
    floor = _floor(gamma, a.values.shape[0] - 1)
    return AlphaVector(values=cap_floor_clamp(a.values, gamma, floor), stage="clamped")


def _floor(gamma: float, k: int) -> float:
    """The (1-gamma)/k floor on neighbor coefficients; none without neighbors."""
    return (1.0 - gamma) / k if k > 0 else 0.0


def _linear_mix(
    alpha: np.ndarray, full_rows: np.ndarray, biases: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """alpha @ full_rows and alpha @ biases; leading axes are few-class axes."""
    a = alpha[..., None, :]
    return np.matmul(a, full_rows)[..., 0, :], np.matmul(a, biases[..., None])[..., 0, 0]


def _linear_mix_vjp(
    full_rows: np.ndarray, biases: np.ndarray, g_u: np.ndarray, g_t: np.ndarray
) -> np.ndarray:
    """Gradient of `_linear_mix` with respect to alpha, given the gradients of
    its two outputs. The sum order is fixed: bias term first."""
    return biases * g_t[..., None] + np.matmul(full_rows, g_u[..., None])[..., 0]


def compose(a: AlphaVector, nb: NeighborSet) -> tuple[np.ndarray, float]:
    """Alpha-weighted sums of the full-dimension classifiers and biases."""
    a._require("clamped")
    if a.values.shape[0] != nb.k + 1:
        raise ShapeError(
            f"alpha vector of length {a.values.shape[0]} vs neighbor set of size {nb.k + 1}"
        )
    u, t = _linear_mix(a.values, nb.full_rows, nb.biases)
    return u, float(t)


# ---------------------------------------------------------------------------
# Sub-modules


@dataclass
class SubModule:
    """2-layer network emitting one coefficient per input classifier."""

    fc1_w: np.ndarray  # (hidden, (k+1)*d)
    fc1_b: np.ndarray  # (hidden,)
    fc2_w: np.ndarray  # (k+1, hidden)
    fc2_b: np.ndarray  # (k+1,)


def submodule_forward(sub: SubModule, input_vec: np.ndarray, slope: float) -> AlphaVector:
    """fc1 -> leaky relu -> fc2, producing raw coefficients."""
    hidden = leaky_relu(affine(sub.fc1_w, np.asarray(input_vec, dtype=np.float64), sub.fc1_b), slope)
    return AlphaVector(affine(sub.fc2_w, hidden, sub.fc2_b), "raw")


# ---------------------------------------------------------------------------
# The full model


@dataclass
class AlphaModel:
    """All sub-modules plus the frozen inputs they operate on.

    Everything is stacked along a leading few-class axis, in `few_ids` order,
    which must not be empty.
    `params` holds the four parameter arrays (F, h, (K+1)d), (F, h),
    (F, K+1, h) and (F, K+1) as views of one contiguous vector,
    `flat_params`, the only parameter storage: a model copies the arrays it
    is given into a buffer of its own. The frozen inputs are the neighbor ids
    `neighbors` (F, K), nearest first, their mean-feature `distances` (F, K)
    and the PCA-reduced classifiers `reduced` (F, K+1, d), target first. The
    full rows (F, K+1, D) and biases (F, K+1) that composition mixes are
    gathered from `bank` when the model is built, so a model always mixes
    its own bank's rows.
    """

    gamma: float
    top_k: int
    reduced_dim: int
    hidden: int
    slope: float
    neighbors: np.ndarray
    distances: np.ndarray
    reduced: np.ndarray
    params: list[np.ndarray]
    bank: ClassifierBank
    strict_alpha: bool = False
    flat_params: np.ndarray = field(init=False, repr=False)
    full_rows: np.ndarray = field(init=False, repr=False)
    set_biases: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        check_field_types(
            self, ("gamma", "top_k", "reduced_dim", "hidden", "slope", "strict_alpha"),
            IntegrityError,
        )
        if not (0.0 < self.gamma <= 1.0 and 0.0 <= self.slope < 1.0):
            raise IntegrityError(
                f"gamma must be in (0, 1] and slope in [0, 1), got {self.gamma} and {self.slope}"
            )
        few = self.bank.split.few_ids
        if not few:
            raise IntegrityError("a model needs at least one few class; the bank's split has none")
        f, k, h, d = len(few), self.top_k, self.hidden, self.reduced_dim
        self.neighbors = np.asarray(self.neighbors, dtype=np.int64)
        self.distances = np.asarray(self.distances, dtype=np.float64)
        self.reduced = np.asarray(self.reduced, dtype=np.float64)
        arrays = [self.neighbors, self.distances, self.reduced, *self.params]
        shapes = [(f, k), (f, k), (f, k + 1, d)]
        shapes += [(f, h, (k + 1) * d), (f, h), (f, k + 1, h), (f, k + 1)]
        got = [np.shape(a) for a in arrays]
        if got != shapes:
            raise IntegrityError(
                f"model for {f} few classes needs neighbors, distances, reduced inputs "
                f"and parameters shaped {shapes}, got {got}"
            )
        if not np.all(self.distances >= 0.0):
            raise IntegrityError(f"neighbor distances must be >= 0, got {np.min(self.distances)}")
        base = set(self.bank.split.base_ids)
        for target, ids in zip(few, self.neighbors.tolist()):
            if len(set(ids)) != len(ids) or not base.issuperset(ids):
                raise IntegrityError(
                    f"neighbors {ids} of few class {target} are not distinct base classes"
                )
        self.flat_params = np.concatenate(self.params, axis=None, dtype=np.float64)
        parts = np.split(self.flat_params, np.cumsum([np.size(p) for p in self.params])[:-1])
        self.params = [part.reshape(shape) for part, shape in zip(parts, shapes[3:])]
        members = np.column_stack([np.array(few, dtype=np.int64), self.neighbors])
        self.full_rows = self.bank.weights[members]
        self.set_biases = self.bank.biases[members]

    @property
    def few_ids(self) -> tuple[int, ...]:
        return self.bank.split.few_ids

    @property
    def submodules(self) -> list[SubModule]:
        """One sub-module per few class, as views of the stacked parameters:
        in-place edits reach every forward pass."""
        return [SubModule(*(p[i] for p in self.params)) for i in range(len(self.few_ids))]

    @property
    def neighbor_sets(self) -> list[NeighborSet]:
        """One neighbor set per few class, as views of the stacked inputs."""
        return [
            NeighborSet(c, tuple(ids), self.reduced[i], self.set_biases[i], self.full_rows[i])
            for i, (c, ids) in enumerate(zip(self.few_ids, self.neighbors.tolist()))
        ]

    @property
    def flat_inputs(self) -> np.ndarray:
        """Each few class's reduced classifiers flattened, target first: (F, (K+1)d)."""
        return self.reduced.reshape(len(self.reduced), (self.top_k + 1) * self.reduced_dim)


def build_model(
    bank: ClassifierBank,
    ds: FeatureDataset,
    gamma: float = RunConfig.gamma,
    top_k: int = RunConfig.top_k,
    reduced_dim: int = RunConfig.reduced_dim,
    hidden: int | None = RunConfig.hidden,
    slope: float = RunConfig.slope,
    seed: int = RunConfig.seed,
    strict_alpha: bool = RunConfig.strict_alpha,
    init_gain: float = RunConfig.init_gain,
    init_margin: float = RunConfig.init_margin,
) -> AlphaModel:
    """Select neighbors from class mean features, fit one shared PCA on the
    bank's weight rows, and initialize a sub-module per few class: uniform
    +-1/sqrt(fan-in) weights, drawn class by class, and an fc2 bias that
    points the initial coefficients at [~gamma, ~(1-gamma)/k, ...], so that
    training starts near the original weak classifier but strictly inside
    the clamp region."""
    if not 0.0 < gamma <= 1.0:
        raise ConfigError(f"gamma must be in (0, 1], got {gamma}")
    if not 0.0 <= slope < 1.0:
        raise ConfigError(f"slope must be in [0, 1), got {slope}")
    split = bank.split
    if split.n_few == 0:
        raise ConfigError("the bank's split has no few class to compose a classifier for")
    if not 0 <= top_k <= split.n_base:
        raise ConfigError(f"top_k {top_k} must be in [0, {split.n_base}] (number of base classes)")
    if hidden is None:
        hidden = reduced_dim
    if hidden < 1:
        raise ConfigError(f"hidden must be >= 1, got {hidden}")
    if bank.feature_dim != ds.feature_dim:
        raise ConfigError(
            f"bank dim {bank.feature_dim} does not match dataset dim {ds.feature_dim}"
        )
    means = class_means(ds)
    proj = pca_fit(bank.weights, reduced_dim)
    ids, dists = base_distances(means, split)
    neighbors, distances = ids[:, :top_k], dists[:, :top_k]
    members = np.column_stack([np.array(split.few_ids, dtype=np.int64), neighbors])
    reduced = pca_apply(proj, bank.weights[members])
    f, kp1, in_dim = split.n_few, top_k + 1, (top_k + 1) * reduced_dim
    check_array_size(f"hidden {hidden}", f, hidden, in_dim)
    fc1_w, fc1_b = np.empty((f, hidden, in_dim)), np.empty((f, hidden))
    fc2_w = np.empty((f, kp1, hidden))
    s1, s2 = 1.0 / np.sqrt(in_dim), 1.0 / np.sqrt(hidden)
    rng = np.random.default_rng(seed)
    for i in range(f):
        fc1_w[i] = rng.uniform(-s1, s1, size=(hidden, in_dim))
        fc1_b[i] = rng.uniform(-s1, s1, size=hidden)
        fc2_w[i] = rng.uniform(-s2, s2, size=(kp1, hidden))
    if kp1 > 1:
        a0 = gamma - init_margin * (gamma - 1.0 / kp1)
        target = np.full(kp1, (1.0 - a0) / top_k)
        target[0] = a0
    else:
        target = np.ones(1)
    # Normalization is scale-invariant, so the gain only outweighs the
    # fc2-weight contribution without changing the target direction.
    fc2_b = np.broadcast_to(init_gain * target, (f, kp1))
    return AlphaModel(
        gamma=gamma,
        top_k=top_k,
        reduced_dim=reduced_dim,
        hidden=hidden,
        slope=slope,
        neighbors=neighbors,
        distances=distances,
        reduced=reduced,
        params=[fc1_w, fc1_b, fc2_w, fc2_b],
        bank=bank,
        strict_alpha=strict_alpha,
    )


def alpha_pipeline(model: AlphaModel, index: int) -> AlphaVector:
    """The clamped coefficients of few class `index`, from the batched
    forward pass: the bits of its own per-vector raw -> normalized -> clamped
    chain. Under `strict_alpha` any degenerate class raises."""
    return AlphaVector(_alpha_forward(model)[-1][index], "clamped")


def _alpha_forward(model: AlphaModel):
    """fc1 -> leaky relu -> fc2 -> normalize -> clamp for every few class at
    once; returns the output of each stage."""
    fc1_w, fc1_b, fc2_w, fc2_b = model.params
    pre = affine(fc1_w, model.flat_inputs, fc1_b)
    hidden = leaky_relu(pre, model.slope)
    raw = affine(fc2_w, hidden, fc2_b)
    norm = abs_normalize(raw, strict=model.strict_alpha)
    alpha = cap_floor_clamp(norm, model.gamma, _floor(model.gamma, model.top_k))
    return pre, hidden, raw, norm, alpha


def _composed_few_rows(model: AlphaModel) -> tuple[np.ndarray, np.ndarray]:
    """The composed classifiers (F, D) and biases (F,) of the few classes."""
    return _linear_mix(_alpha_forward(model)[-1], model.full_rows, model.set_biases)


def export_composed(model: AlphaModel) -> ComposedBank:
    """Deterministic forward pass for all few classes; base rows, the split
    and the train digest copied verbatim."""
    bank = model.bank
    weights = bank.weights.copy()
    biases = bank.biases.copy()
    few = bank.split.few_index
    weights[few], biases[few] = _composed_few_rows(model)
    return ComposedBank(
        weights=weights,
        biases=biases,
        split=bank.split,
        provenance=f"composed(gamma={model.gamma:g}, k={model.top_k}) from [{bank.provenance}]",
        train_digest=bank.train_digest,
    )


# ---------------------------------------------------------------------------
# Loss and gradients


def _few_scores_vjp(
    g_scores: np.ndarray, few: np.ndarray, features: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the few-class score columns, `features @ u.T + t`, with
    respect to u and t, given the gradient of the full score matrix."""
    # Fancy indexing returns an F-ordered copy; C order fixes the summation
    # order of the column sums.
    g_few = np.ascontiguousarray(g_scores[:, few])
    return g_few.T @ features, np.add.reduce(g_few, axis=0)


def loss_and_grads(
    model: AlphaModel, features: np.ndarray, labels: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """Mean cross-entropy over the batch plus the gradients of the four
    stacked parameter arrays, in `model.params` order.

    Gradients flow through scoring, composition, clamping (zero on clamped
    coordinates) and normalization back into both layers; base-class scores
    enter the softmax but their classifiers are frozen constants.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ShapeError(f"batch features must be 2-D and nonempty, got {features.shape}")
    n, n_classes = features.shape[0], model.bank.n_classes
    # An out-of-range label would read another row's score in the kernel.
    if labels.shape != (n,) or not (
        0 <= np.minimum.reduce(labels) and np.maximum.reduce(labels) < n_classes
    ):
        raise ShapeError(f"labels must be {n} class ids in [0, {n_classes})")
    fc2_w = model.params[2]
    pre, hidden, raw, norm, alpha = _alpha_forward(model)
    u, t = _linear_mix(alpha, model.full_rows, model.set_biases)
    few = model.bank.split.few_index
    # The kernel turns the scores into n times their gradient, in place.
    g_scores = model.bank.scores(features)
    g_scores[:, few] = features @ u.T + t
    label_shifted, total, _ = _softmax_xent(g_scores, labels)
    losses = np.log(total[:, 0]) - label_shifted
    # The bits of `losses.mean()`. The samples are scanned only when it is
    # not finite; finite losses whose sum overflows go on as that mean did.
    loss = float(np.add.reduce(losses) / n)
    if not math.isfinite(loss):
        bad = np.flatnonzero(~np.isfinite(losses))
        if bad.size:
            raise NumericError(f"non-finite loss for sample {bad[0]}")
    g_scores *= 1.0 / n

    # Backward through each stage in reverse.
    g_u, g_t = _few_scores_vjp(g_scores, few, features)
    g_mix = _linear_mix_vjp(model.full_rows, model.set_biases, g_u, g_t)
    g_norm = cap_floor_clamp_vjp(norm, alpha, g_mix)
    g_raw = abs_normalize_vjp(raw, g_norm)
    g_fc2_w, g_hidden, g_fc2_b = affine_vjp(fc2_w, hidden, g_raw)
    g_pre = leaky_relu_vjp(pre, model.slope, g_hidden)
    # The flat inputs are frozen, so their gradient is skipped.
    g_fc1_w, _, g_fc1_b = affine_vjp(None, model.flat_inputs, g_pre)
    return loss, [g_fc1_w, g_fc1_b, g_fc2_w, g_fc2_b]


def flatten_params(model: AlphaModel) -> np.ndarray:
    """A copy of the model's parameter vector, in `model.params` order."""
    return model.flat_params.copy()


def set_params(model: AlphaModel, flat: np.ndarray) -> None:
    """Overwrite the model's parameter vector with `flat`."""
    flat = np.asarray(flat, dtype=np.float64)
    if flat.shape != model.flat_params.shape:
        raise ShapeError(
            f"flat parameter vector {flat.shape} vs expected {model.flat_params.shape}"
        )
    model.flat_params[...] = flat


# ---------------------------------------------------------------------------
# Training


def sample_epoch(
    rng: np.random.Generator, few_idx: np.ndarray, base_idx: np.ndarray
) -> np.ndarray:
    """All of the few-class samples `few_idx` plus an equal number of the
    base samples `base_idx`, drawn uniformly without replacement, shuffled.
    Redrawn every epoch.
    """
    if base_idx.size < few_idx.size:
        raise ConfigError(
            f"need at least as many base train samples ({base_idx.size}) "
            f"as few train samples ({few_idx.size})"
        )
    picked = rng.choice(base_idx, size=few_idx.size, replace=False)
    epoch = np.concatenate([few_idx, picked])
    rng.shuffle(epoch)
    return epoch


@dataclass
class FitResult:
    model: AlphaModel
    log: list[dict]
    best_epoch: int
    best_few_top1: float


def fit(model: AlphaModel, ds: FeatureDataset, cfg: RunConfig, on_epoch=None) -> FitResult:
    """Train `model.params` in place and return a model holding a copy of the
    parameters from the epoch with the best few-split validation top-1 (ties
    keep the earlier epoch).

    `cfg` is validated first. Of its settings, `fit` reads `epochs`, `lr0`,
    `momentum`, `batch_size`, `seed` and `weight_decay`; the model carries
    its own. The learning rate decays by 0.1 every 20 epochs; a schedule
    that reaches 0 by its last epoch is a ConfigError. The per-epoch log
    records mean training loss, the learning rate, and validation top-1/top-5
    for each split. A non-finite loss is a TrainingError naming its epoch and
    batch, and a non-finite few-class validation score one naming its epoch.
    """
    from .reports import _FewColumnReport

    cfg.validate()
    epochs, lr0, batch_size, weight_decay = cfg.epochs, cfg.lr0, cfg.batch_size, cfg.weight_decay
    # The rate underflows to 0 within a few hundred decays, which ends this scan.
    zero_at = next((e for e in range(0, epochs, 20) if not lr0 * 0.1 ** (e // 20) > 0.0), None)
    if zero_at is not None:
        raise ConfigError(
            f"lr0 {lr0:g} decays to a learning rate of 0 at epoch {zero_at} of {epochs}: "
            "raise lr0 or lower epochs"
        )
    rng = np.random.default_rng(cfg.seed)
    split = model.bank.split
    val_x, val_y = ds.partition_arrays("val")
    train_idx = ds.indices("train")
    is_few = split.is_few[ds.labels[train_idx]]
    few_idx, base_idx = train_idx[is_few], train_idx[~is_few]
    # One step per batch moves every parameter: the gradients are gathered
    # into one vector laid out as `model.flat_params`.
    params = model.flat_params
    grads = np.empty_like(params)
    # The model of the best epoch, a copy with its own parameter buffer.
    best, best_few_top1, best_epoch = replace(model), -np.inf, -1
    log: list[dict] = []
    loss_sum = 0.0

    def batch_grads(epoch, start, x, y):
        nonlocal loss_sum
        try:
            loss, stacked = loss_and_grads(model, x, y)
        except NumericError as exc:
            raise TrainingError(
                f"training failed at epoch {epoch}, batch {start // batch_size}: {exc}"
            ) from exc
        loss_sum += loss * y.size
        g = np.concatenate(stacked, axis=None, out=grads)
        if weight_decay:
            g += weight_decay * params
        return g

    # A diverging step overflows to inf or NaN, which the loss and validation
    # checks report as a TrainingError; numpy's warnings would only repeat it.
    # A base-class validation score that overflows to +-inf is ranked as it
    # is: only NaN has no place in a score order.
    with np.errstate(over="ignore", invalid="ignore"):
        # Training moves only the few-class classifiers, so the validation
        # scores against the frozen bank are computed and ranked once, and
        # each epoch scores and ranks only the few-class columns.
        validate = _FewColumnReport(model.bank.scores(val_x), val_y, split)
        # Every epoch has the same length, twice the few-class train samples.
        for epoch, lr in _sgd_epochs(
            params, batch_grads, lambda: sample_epoch(rng, few_idx, base_idx), ds.features,
            ds.labels, 2 * few_idx.size, batch_size,
            (lr0 * 0.1 ** (epoch // 20) for epoch in range(epochs)), cfg.momentum,
        ):
            u, t = _composed_few_rows(model)
            try:
                report = validate(val_x @ u.T + t)
            except NumericError as exc:
                raise TrainingError(f"validation failed at epoch {epoch}: {exc}") from exc
            few = report.accuracy("few")
            entry = {
                "epoch": epoch,
                "loss": loss_sum / (2 * few_idx.size),
                "lr": lr,
                "val": report.to_dict(),
            }
            loss_sum = 0.0
            log.append(entry)
            if on_epoch is not None:
                on_epoch(entry)
            if few is not None and few.top1 > best_few_top1:
                best_few_top1, best_epoch = few.top1, epoch
                best.flat_params[...] = params

    return FitResult(
        model=best,
        log=log,
        best_epoch=best_epoch,
        best_few_top1=best_few_top1,
    )


# ---------------------------------------------------------------------------
# Snapshot serialization


def save_model(path, model: AlphaModel) -> None:
    """Write the sub-module parameters and frozen neighbor inputs as a JSON
    manifest plus stacked 2-D tensor files alongside."""
    fc1_w, fc1_b, fc2_w, fc2_b = model.params
    tensors = {
        "fc1_w": fc1_w.reshape(-1, fc1_w.shape[-1]),
        "fc1_b": fc1_b,
        "fc2_w": fc2_w.reshape(-1, fc2_w.shape[-1]),
        "fc2_b": fc2_b,
        "reduced": model.reduced.reshape(-1, model.reduced_dim),
        "set_biases": model.set_biases,
        "full_rows": model.full_rows.reshape(-1, model.bank.feature_dim),
    }
    _write_bundle(
        path,
        tensors,
        {
            "gamma": model.gamma,
            "top_k": model.top_k,
            "reduced_dim": model.reduced_dim,
            "hidden": model.hidden,
            "slope": model.slope,
            "strict_alpha": model.strict_alpha,
            "n_few": len(model.few_ids),
            "few_ids": list(model.few_ids),
            "neighbors": model.neighbors.tolist(),
            "distances": model.distances.tolist(),
        },
    )


def load_model(path, bank: ClassifierBank) -> AlphaModel:
    """Inverse of `save_model`. The caller supplies the frozen bank, which must
    be the one the model was built from: the stored full rows and biases must
    equal the bank's rows byte for byte."""

    def shapes(m):
        f, h, kp1, d = m["n_few"], m["hidden"], m["top_k"] + 1, m["reduced_dim"]
        return {
            "fc1_w": (f * h, kp1 * d),
            "fc1_b": (f, h),
            "fc2_w": (f * kp1, h),
            "fc2_b": (f, kp1),
            "reduced": (f * kp1, d),
            "set_biases": (f, kp1),
            "full_rows": (f * kp1, bank.feature_dim),
        }

    with _read_bundle(path, "model", shapes) as (m, t):
        if m["few_ids"] != list(bank.split.few_ids):
            raise IntegrityError(
                f"built for few classes {m['few_ids']}, bank has {list(bank.split.few_ids)}"
            )
        f, k, h, d = (m[key] for key in ("n_few", "top_k", "hidden", "reduced_dim"))
        for key, kind in (("neighbors", "list[list[int]]"), ("distances", "list[list[float]]")):
            if not _has_type(m[key], kind):
                raise IntegrityError(f"{key} must be a {kind}, got {m[key]!r}")
        model = AlphaModel(
            gamma=m["gamma"],
            top_k=k,
            reduced_dim=d,
            hidden=h,
            slope=m["slope"],
            neighbors=m["neighbors"],
            distances=m["distances"],
            reduced=t["reduced"].reshape(f, k + 1, d),
            params=[
                t["fc1_w"].reshape(f, h, (k + 1) * d),
                t["fc1_b"],
                t["fc2_w"].reshape(f, k + 1, h),
                t["fc2_b"],
            ],
            bank=bank,
            strict_alpha=m["strict_alpha"],
        )
        if (
            model.full_rows.tobytes() != t["full_rows"].tobytes()
            or model.set_biases.tobytes() != t["set_biases"].tobytes()
        ):
            raise IntegrityError(
                "built from another bank: its stored neighbor rows differ from the bank's"
            )
        return model


def write_train_log(path, log: list[dict]) -> None:
    """One JSON object per epoch, newline-delimited."""
    text = "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in log)
    _atomic_write_bytes(path, text.encode("utf-8"))
