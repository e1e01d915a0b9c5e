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
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from .config import _has_type, check_field_types
from .data import (
    ClassifierBank,
    ComposedBank,
    FeatureDataset,
    SplitSpec,
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
    mean_softmax_xent,
    sgd_momentum_step,
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


def init_submodule(
    rng: np.random.Generator,
    in_dim: int,
    hidden: int,
    n_out: int,
    gamma: float,
    init_gain: float,
    init_margin: float,
) -> SubModule:
    """Uniform +-1/sqrt(fan-in) weights; the output bias points the initial
    coefficients at [~gamma, ~(1-gamma)/k, ...] so training starts near the
    original weak classifier but strictly inside the clamp region."""
    s1 = 1.0 / np.sqrt(in_dim)
    s2 = 1.0 / np.sqrt(hidden)
    fc1_w = rng.uniform(-s1, s1, size=(hidden, in_dim))
    fc1_b = rng.uniform(-s1, s1, size=hidden)
    fc2_w = rng.uniform(-s2, s2, size=(n_out, hidden))
    if n_out > 1:
        a0 = gamma - init_margin * (gamma - 1.0 / n_out)
        target = np.full(n_out, (1.0 - a0) / (n_out - 1))
        target[0] = a0
    else:
        target = np.ones(1)
    # Normalization is scale-invariant, so the gain only outweighs the
    # fc2-weight contribution without changing the target direction.
    fc2_b = init_gain * target
    return SubModule(fc1_w=fc1_w, fc1_b=fc1_b, fc2_w=fc2_w, fc2_b=fc2_b)


def submodule_forward(sub: SubModule, input_vec: np.ndarray, slope: float) -> AlphaVector:
    """fc1 -> leaky relu -> fc2, producing raw coefficients."""
    hidden = leaky_relu(affine(sub.fc1_w, np.asarray(input_vec, dtype=np.float64), sub.fc1_b), slope)
    return AlphaVector(affine(sub.fc2_w, hidden, sub.fc2_b), "raw")


# ---------------------------------------------------------------------------
# The full model


@dataclass
class AlphaModel:
    """All sub-modules plus the frozen inputs they operate on.

    Everything is stacked along a leading few-class axis, in `few_ids` order.
    `params` is the only parameter storage: (F, h, (K+1)d), (F, h),
    (F, K+1, h) and (F, K+1). The frozen inputs are the neighbor ids
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
        rows = zip(self.few_ids, self.neighbors.tolist(), self.distances.tolist())
        return [
            NeighborSet(c, tuple(ids), self.reduced[i], self.set_biases[i], self.full_rows[i],
                        tuple(dists))
            for i, (c, ids, dists) in enumerate(rows)
        ]

    @property
    def flat_inputs(self) -> np.ndarray:
        """Each few class's reduced classifiers flattened, target first: (F, (K+1)d)."""
        return self.reduced.reshape(len(self.reduced), (self.top_k + 1) * self.reduced_dim)


def build_model(
    bank: ClassifierBank,
    ds: FeatureDataset,
    gamma: float = 0.6,
    top_k: int = 5,
    reduced_dim: int = 8,
    hidden: int | None = None,
    slope: float = 0.01,
    seed: int = 0,
    strict_alpha: bool = False,
    init_gain: float = 2.5,
    init_margin: float = 0.05,
) -> AlphaModel:
    """Select neighbors from class mean features, fit one shared PCA on the
    bank's weight rows, and initialize a sub-module per few class."""
    if not 0.0 < gamma <= 1.0:
        raise ConfigError(f"gamma must be in (0, 1], got {gamma}")
    if not 0.0 <= slope < 1.0:
        raise ConfigError(f"slope must be in [0, 1), got {slope}")
    split = bank.split
    if top_k > split.n_base:
        raise ConfigError(f"top_k {top_k} exceeds number of base classes {split.n_base}")
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
    f, kp1 = split.n_few, top_k + 1
    neighbors = np.empty((f, top_k), dtype=np.int64)
    distances = np.empty((f, top_k))
    reduced = np.empty((f, kp1, reduced_dim))
    shapes = [(f, hidden, kp1 * reduced_dim), (f, hidden), (f, kp1, hidden), (f, kp1)]
    params = [np.empty(shape) for shape in shapes]
    rng = np.random.default_rng(seed)
    for i, target in enumerate(split.few_ids):
        ranked = base_distances(means, split, target)[:top_k]
        neighbors[i] = [c for _, c in ranked]
        distances[i] = [dist for dist, _ in ranked]
        reduced[i] = [pca_apply(proj, bank.weights[c]) for c in (target, *neighbors[i])]
        sub = init_submodule(rng, kp1 * reduced_dim, hidden, kp1, gamma, init_gain, init_margin)
        for stack, p in zip(params, astuple(sub)):
            stack[i] = p
    return AlphaModel(
        gamma=gamma,
        top_k=top_k,
        reduced_dim=reduced_dim,
        hidden=hidden,
        slope=slope,
        neighbors=neighbors,
        distances=distances,
        reduced=reduced,
        params=params,
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
    """Deterministic forward pass for all few classes; base rows copied verbatim."""
    bank = model.bank
    weights = bank.weights.copy()
    biases = bank.biases.copy()
    if model.few_ids:
        few = bank.split.few_index
        weights[few], biases[few] = _composed_few_rows(model)
    return ComposedBank(
        weights=weights,
        biases=biases,
        split=bank.split,
        provenance=f"composed(gamma={model.gamma:g}, k={model.top_k}) from [{bank.provenance}]",
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
    return g_few.T @ features, g_few.sum(axis=0)


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
    fc1_w, _, fc2_w, _ = model.params
    pre, hidden, raw, norm, alpha = _alpha_forward(model)
    u, t = _linear_mix(alpha, model.full_rows, model.set_biases)
    few = model.bank.split.few_index
    scores = model.bank.scores(features)
    scores[:, few] = features @ u.T + t
    loss, g_scores = mean_softmax_xent(scores, labels)

    # Backward through each stage in reverse.
    g_u, g_t = _few_scores_vjp(g_scores, few, features)
    g_mix = _linear_mix_vjp(model.full_rows, model.set_biases, g_u, g_t)
    g_norm = cap_floor_clamp_vjp(norm, alpha, g_mix)
    g_raw = abs_normalize_vjp(raw, g_norm)
    g_fc2_w, g_hidden, g_fc2_b = affine_vjp(fc2_w, hidden, g_raw)
    g_pre = leaky_relu_vjp(pre, model.slope, g_hidden)
    g_fc1_w, _, g_fc1_b = affine_vjp(fc1_w, model.flat_inputs, g_pre)
    return loss, [g_fc1_w, g_fc1_b, g_fc2_w, g_fc2_b]


def flatten_params(model: AlphaModel) -> np.ndarray:
    return np.concatenate([p.ravel() for p in model.params])


def set_params(model: AlphaModel, flat: np.ndarray) -> None:
    flat = np.asarray(flat, dtype=np.float64)
    expected = sum(p.size for p in model.params)
    if flat.shape != (expected,):
        raise ShapeError(f"flat parameter vector {flat.shape} vs expected ({expected},)")
    offset = 0
    for p in model.params:
        p[...] = flat[offset : offset + p.size].reshape(p.shape)
        offset += p.size


# ---------------------------------------------------------------------------
# Training


def sample_epoch(
    ds: FeatureDataset,
    split: SplitSpec,
    rng: np.random.Generator,
    train_idx: np.ndarray,
) -> np.ndarray:
    """All few-class samples among `train_idx` (`ds.indices("train")`) plus an
    equal number of base samples drawn uniformly without replacement,
    shuffled. Redrawn every epoch.
    """
    is_few = split.is_few[ds.labels[train_idx]]
    few_idx = train_idx[is_few]
    base_idx = train_idx[~is_few]
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


def fit(
    model: AlphaModel,
    ds: FeatureDataset,
    epochs: int = 100,
    lr0: float = 0.1,
    momentum: float = 0.9,
    batch_size: int = 64,
    seed: int = 0,
    weight_decay: float = 0.0,
    on_epoch=None,
) -> FitResult:
    """Train `model.params` in place and return a model holding a copy of the
    parameters from the epoch with the best few-split validation top-1 (ties
    keep the earlier epoch).

    The learning rate decays by 0.1 every 20 epochs. The per-epoch log
    records mean training loss, the learning rate, and validation top-1/top-5
    for each split. A non-finite loss is a TrainingError naming its epoch and
    batch, and a non-finite few-class validation score one naming its epoch.
    """
    from .reports import _FewColumnReport

    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    rng = np.random.default_rng(seed)
    split = model.bank.split
    val_x, val_y = ds.partition_arrays("val")
    train_idx = ds.indices("train")
    params = model.params
    velocities = [np.zeros_like(p) for p in params]
    best_few_top1, best_epoch, best_params = -np.inf, -1, [p.copy() for p in params]
    log: list[dict] = []

    # A diverging step overflows to inf or NaN, which the loss and validation
    # checks report as a TrainingError; numpy's warnings would only repeat it.
    # A base-class validation score that overflows to +-inf is ranked as it
    # is: only NaN has no place in a score order.
    with np.errstate(over="ignore", invalid="ignore"):
        # Training moves only the few-class classifiers, so the validation
        # scores against the frozen bank are computed and ranked once, and
        # each epoch scores and ranks only the few-class columns.
        validate = _FewColumnReport(model.bank.scores(val_x), val_y, split)
        for epoch in range(epochs):
            lr = lr0 * 0.1 ** (epoch // 20)
            order = sample_epoch(ds, split, rng, train_idx)
            loss_sum = 0.0
            for batch_index, start in enumerate(range(0, order.size, batch_size)):
                batch = order[start : start + batch_size]
                try:
                    loss, grads = loss_and_grads(model, ds.features[batch], ds.labels[batch])
                except NumericError as exc:
                    raise TrainingError(
                        f"training failed at epoch {epoch}, batch {batch_index}: {exc}"
                    ) from exc
                loss_sum += loss * batch.size
                for param, grad, vel in zip(params, grads, velocities):
                    if weight_decay:
                        grad = grad + weight_decay * param
                    sgd_momentum_step(param, grad, vel, lr, momentum)
            u, t = _composed_few_rows(model)
            try:
                report = validate(val_x @ u.T + t)
            except NumericError as exc:
                raise TrainingError(f"validation failed at epoch {epoch}: {exc}") from exc
            few = report.accuracy("few")
            entry = {
                "epoch": epoch,
                "loss": loss_sum / order.size,
                "lr": lr,
                "val": report.to_dict(),
            }
            log.append(entry)
            if on_epoch is not None:
                on_epoch(entry)
            if few is not None and few.top1 > best_few_top1:
                best_few_top1, best_epoch = few.top1, epoch
                best_params = [p.copy() for p in params]

    return FitResult(
        model=replace(model, params=best_params),
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
        # An empty JSON list keeps no row length: it is 0 rows of K. Any other
        # list keeps its own shape for AlphaModel to check.
        lists = (np.array(m["neighbors"], dtype=np.int64), np.array(m["distances"], dtype=float))
        neighbors, distances = (a.reshape(0, k) if a.shape == (0,) else a for a in lists)
        model = AlphaModel(
            gamma=m["gamma"],
            top_k=k,
            reduced_dim=d,
            hidden=h,
            slope=m["slope"],
            neighbors=neighbors,
            distances=distances,
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
