"""Split-wise accuracy metrics, per-class improvement tables, sweep drivers,
and CSV/SVG emission.

Score ties are broken by lower class id everywhere, which keeps every metric
deterministic. CSV files are the authoritative artifacts; the SVG charts are
rendered from the same rows by a small built-in emitter so no plotting
dependency is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .config import RunConfig
from .data import ClassifierBank, ComposedBank, FeatureDataset, _atomic_write_bytes
from .errors import ConfigError, NumericError, ShapeError
from .model import AlphaModel, FitResult, build_model, export_composed, fit

REPORT_SPLITS = ("few", "medium", "many", "all")

#: Rows per scoring block of `bank_report` and per top-5 pass of
#: `split_report`. Each block's scores, and a top-5 pass's copies and
#: row-by-class masks, take under 1 MiB at 2,048 rows of 50 classes, so a
#: report's working memory does not grow with the partition or split sizes,
#: and how much of it the heap keeps afterwards does not vary from run to run.
_ROW_BLOCK = 2048

#: Fewest rows `bank_report` scores in one block. OpenBLAS gives a product of
#: a few rows other bits than the same rows of a taller product (up to 24
#: rows at feature dims 32-128 with 50 classes), so a shorter remainder joins
#: the block before it, and every block matches the whole-matrix scores.
_MIN_BLOCK = 64


def _check_matrix(scores: np.ndarray) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ShapeError(f"scores must be 2-D, got {scores.shape}")
    # NaN has no place in a score order: it is the one value on which a
    # rank count, argmax and a sort would disagree.
    if np.isnan(scores).any():
        raise NumericError("scores contain NaN")
    return scores


def _check_labels(labels: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (shape[0],):
        raise ShapeError(f"labels {labels.shape} do not match scores {shape}")
    if labels.size and not (0 <= labels.min() and labels.max() < shape[1]):
        raise ShapeError(f"labels must lie in [0, {shape[1]}) to index the score columns")
    return labels


def _check_scores(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = _check_matrix(scores)
    return scores, _check_labels(labels, scores.shape)


def _count_ahead(scores: np.ndarray, label_scores: np.ndarray, lower_id: np.ndarray) -> np.ndarray:
    """Per row, the columns that rank ahead of the row's label score: a
    strictly higher score, or an equal one where `lower_id` marks the
    column's class id as lower than the label."""
    ahead = scores > label_scores[:, None]
    ahead |= (scores == label_scores[:, None]) & lower_id
    return np.count_nonzero(ahead, axis=1)


def _label_ranks(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each label's rank in its row of checked scores.

    Nothing is sorted. A label's rank is the number of classes that score
    strictly higher plus those that score equal with a lower class id, which
    is its position in a stable sort by descending score. Counts over
    disjoint column sets add up to the count over their union.
    """
    label_scores = np.take_along_axis(scores, labels[:, None], axis=1)[:, 0]
    return _count_ahead(scores, label_scores, np.arange(scores.shape[1]) < labels[:, None])


def topk_accuracy(scores: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Fraction of samples whose label is among the k highest scores, that
    is whose rank (see `_label_ranks`) is below k."""
    scores, labels = _check_scores(scores, labels)
    n_classes = scores.shape[1]
    if not 1 <= k <= n_classes:
        raise ConfigError(f"k={k} must be in [1, {n_classes}]")
    if labels.size == 0:
        raise ConfigError("topk_accuracy: empty batch")
    return float(np.mean(_label_ranks(scores, labels) < k))


def top1_predictions(scores: np.ndarray) -> np.ndarray:
    """Highest-scoring class per row; `argmax` returns the first maximum,
    so ties go to the lower class id."""
    return np.argmax(_check_matrix(scores), axis=1)


@dataclass(frozen=True)
class SplitAccuracy:
    top1: float
    top5: float
    n: int


@dataclass
class SplitReport:
    """Accuracy per split; splits with no samples are simply absent.
    `predictions` is the top-1 class of each row when the report was built
    from scores (`split_report`, `bank_report`); it takes no part in
    comparisons."""

    per_split: dict[str, SplitAccuracy]
    predictions: np.ndarray | None = field(default=None, compare=False, repr=False)

    def accuracy(self, name: str) -> SplitAccuracy | None:
        return self.per_split.get(name)

    def to_dict(self) -> dict:
        return {
            name: {"top1": acc.top1, "top5": acc.top5, "n": acc.n}
            for name, acc in self.per_split.items()
        }


def _split_masks(labels: np.ndarray, split, n_columns: int) -> list[tuple[str, np.ndarray]]:
    """The many, medium and few splits, each with its row mask; a split with
    no samples is absent. The split must label every score column, so that
    its three splits cover every row."""
    if split.n_classes != n_columns:
        raise ShapeError(f"split of {split.n_classes} classes for {n_columns} score columns")
    masks = [(name, np.isin(labels, split.ids_of(name))) for name in ("many", "medium", "few")]
    return [(name, mask) for name, mask in masks if mask.any()]


def _tally(counts: dict[str, tuple[int, int, int]]) -> dict[str, SplitAccuracy]:
    """Accuracy per split from its (top-1 hits, top-5 hits, n) counts, plus
    `all` from their sums: the splits are disjoint and cover every row."""
    totals = [sum(column) for column in zip(*counts.values())]
    rows = list(counts.items()) + ([("all", totals)] if counts else [])
    return {name: SplitAccuracy(top1=h1 / n, top5=h5 / n, n=n) for name, (h1, h5, n) in rows}


def split_report(scores: np.ndarray, labels: np.ndarray, split) -> SplitReport:
    """Top-1/top-5 per split plus the sample-weighted aggregate over all
    samples. Top-5 uses k = min(5, N) so tiny class counts stay legal.

    Top-1 comes from one `argmax` over the matrix: its first maximum is the
    lower-id tie rule, so a hit is exactly a label of rank 0. Top-5 takes one
    `topk_accuracy` per block of at most `_ROW_BLOCK` rows of a present
    split, whose hit count is `round(acc * n)` (exact for n < 2**53). The
    report keeps the argmax as `predictions`.
    """
    scores, labels = _check_scores(scores, labels)
    k5 = min(5, scores.shape[1])
    predictions = np.argmax(scores, axis=1)
    hits = predictions == labels
    counts = {}
    for name, mask in _split_masks(labels, split, scores.shape[1]):
        rows = np.flatnonzero(mask)
        top5 = 0
        for start in range(0, rows.size, _ROW_BLOCK):
            block = rows[start : start + _ROW_BLOCK]
            top5 += round(topk_accuracy(scores[block], labels[block], k5) * block.size)
        counts[name] = (int(np.count_nonzero(hits[rows])), top5, rows.size)
    return SplitReport(per_split=_tally(counts), predictions=predictions)


def _row_blocks(n: int) -> list[slice]:
    """Blocks of `_ROW_BLOCK` rows covering `n` rows, the last one taking a
    remainder shorter than `_MIN_BLOCK`; fewer rows than that are one block."""
    starts = list(range(0, max(n, 1), _ROW_BLOCK))
    if len(starts) > 1 and n - starts[-1] < _MIN_BLOCK:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def bank_report(bank: ClassifierBank, ds: FeatureDataset, partition: str) -> SplitReport:
    """`split_report` of `bank.scores` on a partition of `ds`, scored in
    blocks of rows (see `_row_blocks`) so that no partition-sized score
    matrix or feature copy is held. Each block's per-split hit counts
    (`round(acc * n)`, exact) are summed, so the report and its
    `predictions` equal those of the whole matrix."""
    idx = ds.indices(partition)
    sums = {name: [0, 0, 0] for name in ("many", "medium", "few")}
    predictions = []
    for block in _row_blocks(idx.size):
        rows = idx[block]
        report = split_report(bank.scores(ds.features[rows]), ds.labels[rows], bank.split)
        predictions.append(report.predictions)
        for name, total in sums.items():
            if (acc := report.accuracy(name)) is not None:
                total[0] += round(acc.top1 * acc.n)
                total[1] += round(acc.top5 * acc.n)
                total[2] += acc.n
    counts = {name: total for name, total in sums.items() if total[2]}
    return SplitReport(per_split=_tally(counts), predictions=np.concatenate(predictions))


class _FewColumnReport:
    """`split_report` of a validation score matrix whose base-class columns
    stay fixed while its few-class columns move, as in training.

    Built once from the scores against the frozen bank (their few-class
    columns are not read): the base columns are checked for NaN, and every
    base-labelled row keeps its label score and its rank among the base
    columns. Each call takes the few-class block, (n, F) in `few_ids` order,
    checks that it is finite, adds each base-labelled row's count of few
    columns ahead of its label to that stored rank, and ranks only the
    few-labelled rows against their full row. Ranks are integer counts, so
    the report equals `split_report` on the assembled matrix bit for bit.
    """

    def __init__(self, scores: np.ndarray, labels: np.ndarray, split):
        scores = np.asarray(scores, dtype=np.float64)
        labels = _check_labels(labels, scores.shape)
        self.splits = _split_masks(labels, split, scores.shape[1])
        base = np.array(split.base_ids, dtype=np.intp)
        few = split.few_index
        base_scores = _check_matrix(scores[:, base])
        # Column of each class within its own block, base or few.
        column = np.empty(scores.shape[1], dtype=np.intp)
        column[base], column[few] = np.arange(base.size), np.arange(few.size)
        is_few = split.is_few[labels]
        self.base_rows, self.few_rows = np.flatnonzero(~is_few), np.flatnonzero(is_few)
        y_base, y_few = labels[self.base_rows], labels[self.few_rows]

        self.label_scores = np.empty(labels.size)
        self.label_scores[self.base_rows] = base_scores[self.base_rows, column[y_base]]
        self.base_ranks = _count_ahead(
            base_scores[self.base_rows], self.label_scores[self.base_rows], base < y_base[:, None]
        )
        self.few_label_column = column[y_few]
        self.few_row_scores = base_scores[self.few_rows]
        self.few_row_lower_base = base < y_few[:, None]
        self.lower_few = few < labels[:, None]
        self.k5 = min(5, scores.shape[1])

    def __call__(self, few_scores: np.ndarray) -> SplitReport:
        few_scores = np.asarray(few_scores, dtype=np.float64)
        if few_scores.shape != self.lower_few.shape:
            raise ShapeError(
                f"few-class scores {few_scores.shape}, expected {self.lower_few.shape}"
            )
        if not np.isfinite(few_scores).all():
            raise NumericError("few-class validation scores are not finite")
        label_scores = self.label_scores.copy()
        label_scores[self.few_rows] = few_scores[self.few_rows, self.few_label_column]
        ranks = _count_ahead(few_scores, label_scores, self.lower_few)
        ranks[self.base_rows] += self.base_ranks
        ranks[self.few_rows] += _count_ahead(
            self.few_row_scores, label_scores[self.few_rows], self.few_row_lower_base
        )
        counts = {}
        for name, mask in self.splits:
            r = ranks[mask]
            counts[name] = (np.count_nonzero(r < 1), np.count_nonzero(r < self.k5), r.size)
        return SplitReport(per_split=_tally(counts))


# ---------------------------------------------------------------------------
# Per-class improvement vs neighbor distance


@dataclass(frozen=True)
class ClasswiseRow:
    class_id: int
    baseline_top1: float
    composed_top1: float
    delta: float
    nn_distance: float
    n: int


@dataclass
class ClasswiseReport:
    rows: list[ClasswiseRow]
    spearman: float | None

    def to_dict(self) -> dict:
        return {
            "rows": [dict(vars(r)) for r in self.rows],
            "spearman": self.spearman,
        }


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of `x`; tied values share the mean of the ranks they span."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def classwise_report(
    baseline_scores: np.ndarray,
    composed_scores: np.ndarray,
    labels: np.ndarray,
    distances: dict[int, float],
) -> ClasswiseReport:
    """Per-class top-1 before and after composition, with the rank
    correlation between nearest-neighbor distance and improvement.

    `distances` maps each class of interest to its nearest-neighbor
    distance; classes with no samples in `labels` are skipped. Correlation
    is Spearman (the claim being ordinal: closer neighbor, better
    improvement) and is absent when undefined (fewer than two classes or a
    constant column).
    """
    baseline_scores, labels = _check_scores(baseline_scores, labels)
    composed_scores, _ = _check_scores(composed_scores, labels)
    if baseline_scores.shape != composed_scores.shape:
        raise ShapeError(
            f"score matrices disagree: {baseline_scores.shape} vs {composed_scores.shape}"
        )
    return _classwise(
        top1_predictions(baseline_scores), top1_predictions(composed_scores), labels, distances
    )


def _classwise(
    base_pred: np.ndarray, comp_pred: np.ndarray, labels: np.ndarray, distances: dict[int, float]
) -> ClasswiseReport:
    """`classwise_report` from the two banks' top-1 predictions of checked
    scores, so that neither score matrix has to be kept."""
    rows = []
    for class_id in sorted(distances):
        mask = labels == class_id
        n = int(mask.sum())
        if n == 0:
            continue
        base_acc = float(np.mean(base_pred[mask] == class_id))
        comp_acc = float(np.mean(comp_pred[mask] == class_id))
        rows.append(
            ClasswiseRow(
                class_id=int(class_id),
                baseline_top1=base_acc,
                composed_top1=comp_acc,
                delta=comp_acc - base_acc,
                nn_distance=float(distances[class_id]),
                n=n,
            )
        )
    spearman = None
    if len(rows) >= 2:
        dist = np.array([r.nn_distance for r in rows])
        delta = np.array([r.delta for r in rows])
        if np.ptp(dist) > 0 and np.ptp(delta) > 0:
            # Pearson correlation of average ranks. The ranks go in as two
            # columns with rowvar=False, the layout the tests' reference
            # Spearman uses; corrcoef([rx, ry]) can differ in the last bit.
            ranks = np.column_stack([_average_ranks(dist), _average_ranks(delta)])
            rho = np.corrcoef(ranks, rowvar=False)[1, 0]
            if np.isfinite(rho):
                spearman = float(rho)
    return ClasswiseReport(rows=rows, spearman=spearman)


def nn_distance_map(model: AlphaModel) -> dict[int, float]:
    """Nearest-neighbor distance per few class, from the stored neighbor sets."""
    out = {}
    for ns in model.neighbor_sets:
        if not ns.distances:
            raise ConfigError(
                f"neighbor set for class {ns.target} has no recorded distances"
            )
        out[ns.target] = ns.distances[0]
    return out


# ---------------------------------------------------------------------------
# Sweep drivers


def run_training(
    bank: ClassifierBank, ds: FeatureDataset, cfg: RunConfig, on_epoch=None
) -> tuple[FitResult, ComposedBank]:
    """Build, train, and export under one config. The sweep cell primitive."""
    cfg.validate()
    model = build_model(
        bank,
        ds,
        gamma=cfg.gamma,
        top_k=cfg.top_k,
        reduced_dim=cfg.reduced_dim,
        hidden=cfg.hidden,
        slope=cfg.slope,
        seed=cfg.seed,
        strict_alpha=cfg.strict_alpha,
        init_gain=cfg.init_gain,
        init_margin=cfg.init_margin,
    )
    result = fit(
        model,
        ds,
        epochs=cfg.epochs,
        lr0=cfg.lr0,
        momentum=cfg.momentum,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
        weight_decay=cfg.weight_decay,
        on_epoch=on_epoch,
    )
    return result, export_composed(result.model)


@dataclass(frozen=True)
class SweepRow:
    param: str
    value: float
    report: SplitReport


def _sweep(
    bank: ClassifierBank,
    ds: FeatureDataset,
    cfg: RunConfig,
    param: str,
    values,
    partition: str = "test",
) -> list[SweepRow]:
    configs = [replace(cfg, **{param: value}).validate() for value in values]
    ds.indices(partition)  # an unknown partition is refused before any cell trains

    def cell(c: RunConfig) -> SplitReport:
        _, composed = run_training(bank, ds, c)
        return bank_report(composed, ds, partition)

    reports = [cell(c) for c in configs]
    return [
        SweepRow(param=param, value=float(v), report=r)
        for v, r in zip(values, reports)
    ]


def gamma_sweep(
    bank: ClassifierBank,
    ds: FeatureDataset,
    cfg: RunConfig,
    gammas,
    partition: str = "test",
) -> list[SweepRow]:
    """One full train+eval per gamma value, shared data and seed."""
    return _sweep(bank, ds, cfg, "gamma", list(gammas), partition)


def topk_sweep(
    bank: ClassifierBank,
    ds: FeatureDataset,
    cfg: RunConfig,
    ks,
    partition: str = "test",
) -> list[SweepRow]:
    """One full train+eval per neighbor count, shared data and seed."""
    for k in ks:
        if not 0 <= k <= bank.split.n_base:
            raise ConfigError(
                f"sweep k must be in [0, {bank.split.n_base}], got {k}"
            )
    return _sweep(bank, ds, cfg, "top_k", [int(k) for k in ks], partition)


# ---------------------------------------------------------------------------
# CSV emission (6 significant digits)


def _sig(x: float) -> str:
    return f"{x:.6g}"


def write_split_report_csv(path, report: SplitReport) -> None:
    lines = ["split,top1,top5,n"]
    for name in REPORT_SPLITS:
        acc = report.accuracy(name)
        if acc is not None:
            lines.append(f"{name},{_sig(acc.top1)},{_sig(acc.top5)},{acc.n}")
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_classwise_csv(path, report: ClasswiseReport) -> None:
    lines = ["class_id,baseline_top1,composed_top1,delta,nn_distance"]
    for r in report.rows:
        lines.append(
            f"{r.class_id},{_sig(r.baseline_top1)},{_sig(r.composed_top1)},"
            f"{_sig(r.delta)},{_sig(r.nn_distance)}"
        )
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_sweep_csv(path, rows: list[SweepRow]) -> None:
    lines = ["param,split,top1,top5"]
    for row in rows:
        for name in REPORT_SPLITS:
            acc = row.report.accuracy(name)
            if acc is not None:
                lines.append(f"{_sig(row.value)},{name},{_sig(acc.top1)},{_sig(acc.top5)}")
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# Minimal SVG line charts

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def line_chart(
    xs,
    series: dict[str, list],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    width: int = 640,
    height: int = 420,
) -> str:
    """Axes, one polyline per series, and a legend. Missing values (None)
    are skipped. Returns the SVG document as a string."""
    xs = [float(x) for x in xs]
    if not xs or not series:
        raise ConfigError("line_chart needs at least one x value and one series")
    left, right, top, bottom = 60.0, width - 150.0, 40.0, height - 50.0
    ys = [float(v) for vals in series.values() for v in vals if v is not None]
    if not ys:
        raise ConfigError("line_chart: all series are empty")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * (right - left)

    def py(y: float) -> float:
        return bottom - (y - y_lo) / (y_hi - y_lo) * (bottom - top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{(left + right) / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="14">{title}</text>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>',
        f'<text x="{(left + right) / 2:.1f}" y="{height - 10}" '
        f'text-anchor="middle">{x_label}</text>',
        f'<text x="15" y="{(top + bottom) / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 15 {(top + bottom) / 2:.1f})">{y_label}</text>',
    ]
    for i in range(5):
        fx = x_lo + i * (x_hi - x_lo) / 4
        fy = y_lo + i * (y_hi - y_lo) / 4
        parts.append(
            f'<line x1="{px(fx):.1f}" y1="{bottom}" x2="{px(fx):.1f}" '
            f'y2="{bottom + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(fx):.1f}" y="{bottom + 18}" text-anchor="middle">{fx:.3g}</text>'
        )
        parts.append(
            f'<line x1="{left - 4}" y1="{py(fy):.1f}" x2="{left}" '
            f'y2="{py(fy):.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{py(fy) + 4:.1f}" text-anchor="end">{fy:.3g}</text>'
        )
    for idx, (name, vals) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = [
            f"{px(x):.1f},{py(float(v)):.1f}"
            for x, v in zip(xs, vals)
            if v is not None
        ]
        if pts:
            parts.append(
                f'<polyline points="{" ".join(pts)}" fill="none" '
                f'stroke="{color}" stroke-width="2"/>'
            )
        ly = top + 18 * idx
        parts.append(
            f'<rect x="{right + 12}" y="{ly}" width="12" height="12" fill="{color}"/>'
        )
        parts.append(f'<text x="{right + 30}" y="{ly + 10:.1f}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_sweep_svg(path, rows: list[SweepRow], title: str = "", x_label: str = "") -> None:
    xs = [row.value for row in rows]
    series = {}
    for name in REPORT_SPLITS:
        vals = [
            row.report.accuracy(name).top1 if row.report.accuracy(name) else None
            for row in rows
        ]
        if any(v is not None for v in vals):
            series[name] = vals
    svg = line_chart(xs, series, title=title, x_label=x_label, y_label="top-1 accuracy")
    _atomic_write_bytes(path, svg.encode("utf-8"))
