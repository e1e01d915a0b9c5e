"""Accuracy metrics, classwise tables, the sweep driver, and CSV/SVG emission."""

import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from alphanet.config import RunConfig
from alphanet.data import ClassifierBank, FeatureDataset, assign_splits
from alphanet.datagen import GenConfig, generate, train_baseline
from alphanet.errors import ConfigError, NumericError, ShapeError
from alphanet import reports as reports_module
from alphanet.reports import (
    ClasswiseReport,
    ClasswiseRow,
    SplitAccuracy,
    SplitReport,
    SweepRow,
    _FewColumnReport,
    _average_ranks,
    _classwise,
    bank_report,
    classwise_report,
    line_chart,
    nn_distance_map,
    run_training,
    split_report,
    sweep,
    top1_predictions,
    topk_accuracy,
    write_classwise_csv,
    write_split_report_csv,
    write_sweep_csv,
    write_sweep_svg,
)


def _one_hot_scores(labels, n_classes, scale=10.0):
    return np.eye(n_classes)[labels] * scale


# ---------------------------------------------------------------------------
# Top-k accuracy


def test_topk_perfect_scores():
    labels = np.array([0, 1, 2, 1, 0])
    scores = _one_hot_scores(labels, 3)
    assert topk_accuracy(scores, labels, 1) == 1.0
    assert topk_accuracy(scores, labels, 3) == 1.0


def test_topk_uniform_scores_resolve_ties_toward_low_ids():
    labels = np.array([0, 1, 2, 0])
    scores = np.zeros((4, 3))
    # every class ties, so top-1 always predicts class 0
    assert topk_accuracy(scores, labels, 1) == 0.5
    assert np.array_equal(top1_predictions(scores), [0, 0, 0, 0])
    # top-2 covers classes {0, 1}
    assert topk_accuracy(scores, labels, 2) == 0.75


def test_topk_k_out_of_bounds():
    scores = np.zeros((2, 3))
    labels = np.array([0, 1])
    with pytest.raises(ConfigError):
        topk_accuracy(scores, labels, 0)
    with pytest.raises(ConfigError):
        topk_accuracy(scores, labels, 4)
    with pytest.raises(ConfigError):
        topk_accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int), 1)


def test_topk_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        topk_accuracy(np.zeros(3), np.array([0]), 1)
    with pytest.raises(ShapeError):
        topk_accuracy(np.zeros((2, 3)), np.array([0, 1, 2]), 1)


@given(
    seed=st.integers(0, 500),
    n=st.integers(1, 12),
    n_classes=st.integers(2, 6),
)
def test_topk_matches_per_sample_ranking_oracle(seed, n, n_classes):
    rng = np.random.default_rng(seed)
    scores = np.round(rng.normal(size=(n, n_classes)), 1)  # force some ties
    labels = rng.integers(0, n_classes, size=n)
    for k in range(1, n_classes + 1):
        hits = 0
        for i in range(n):
            order = sorted(range(n_classes), key=lambda c: (-scores[i, c], c))
            hits += labels[i] in order[:k]
        assert topk_accuracy(scores, labels, k) == hits / n


def test_topk_invariant_under_monotone_transform():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=(20, 5))
    labels = rng.integers(0, 5, size=20)
    for k in (1, 3, 5):
        assert topk_accuracy(scores, labels, k) == topk_accuracy(
            np.tanh(scores) * 2.0 + 1.0, labels, k
        )


def test_top1_predictions_agree_with_top1_accuracy():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=(30, 4))
    labels = rng.integers(0, 4, size=30)
    preds = top1_predictions(scores)
    assert np.mean(preds == labels) == topk_accuracy(scores, labels, 1)


# ---------------------------------------------------------------------------
# Split reports


def test_split_report_perfect_classifier():
    split = assign_splits([150, 50, 5])
    labels = np.array([0, 0, 0, 1, 1, 2])
    report = split_report(_one_hot_scores(labels, 3), labels, split)
    assert set(report.per_split) == {"many", "medium", "few", "all"}
    assert report.accuracy("many") == SplitAccuracy(top1=1.0, top5=1.0, n=3)
    assert report.accuracy("medium") == SplitAccuracy(top1=1.0, top5=1.0, n=2)
    assert report.accuracy("few") == SplitAccuracy(top1=1.0, top5=1.0, n=1)
    assert report.accuracy("all").n == 6


def test_split_report_omits_absent_splits():
    split = assign_splits([150, 50, 5])
    labels = np.array([2, 2])  # only the few class appears
    report = split_report(_one_hot_scores(labels, 3), labels, split)
    assert set(report.per_split) == {"few", "all"}
    assert report.accuracy("many") is None


def test_split_report_all_is_the_sample_weighted_mean():
    split = assign_splits([150, 120, 50, 40, 5, 4])
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 6, size=200)
    report = split_report(rng.normal(size=(200, 6)), labels, split)
    parts = [report.accuracy(s) for s in ("many", "medium", "few")]
    n_total = sum(p.n for p in parts)
    weighted = sum(p.top1 * p.n for p in parts) / n_total
    assert report.accuracy("all").n == n_total == 200
    assert report.accuracy("all").top1 == pytest.approx(weighted, abs=1e-12)


def test_split_report_top5_caps_at_class_count():
    split = assign_splits([150, 5])
    labels = np.array([0, 1, 1])
    scores = np.zeros((3, 2))
    report = split_report(scores, labels, split)  # top-"5" is really top-2
    assert report.accuracy("all").top5 == 1.0


def test_split_report_to_dict_round_trip_fields():
    split = assign_splits([150, 50, 5])
    labels = np.array([0, 1, 2])
    d = split_report(_one_hot_scores(labels, 3), labels, split).to_dict()
    assert d["few"] == {"top1": 1.0, "top5": 1.0, "n": 1}


# ---------------------------------------------------------------------------
# Label-rank metrics against the stable-argsort code they replaced


def _argsort_topk(scores, labels, k):
    """Reference: the label is among the first k of a stable sort on the
    negated scores, so equal scores keep ascending class id."""
    order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return float(np.mean(np.any(order == labels[:, None], axis=1)))


def _split_masks(labels, split):
    """Each split's row mask, from the class ids that `split.labels` gives it."""
    return [
        (name, np.isin(labels, [c for c, lab in enumerate(split.labels) if lab == name]))
        for name in ("many", "medium", "few")
    ]


def _argsort_split_report(scores, labels, split):
    k5 = min(5, scores.shape[1])
    groups = _split_masks(labels, split)
    groups.append(("all", np.ones(labels.shape, dtype=bool)))
    return {
        name: {
            "top1": _argsort_topk(scores[mask], labels[mask], 1),
            "top5": _argsort_topk(scores[mask], labels[mask], k5),
            "n": int(mask.sum()),
        }
        for name, mask in groups
        if mask.any()
    }


# Few distinct values make ties common; signed zeros and infinities are legal.
_SCORE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
    st.floats(-2.0, 2.0).map(lambda x: round(x, 1)),
)


@st.composite
def _scored_batches(draw):
    n_classes = draw(st.integers(1, 7))
    n = draw(st.integers(0, 12))
    cells = draw(st.lists(_SCORE_VALUES, min_size=n * n_classes, max_size=n * n_classes))
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
    # Train counts of 150/50/5 make many/medium/few classes; some splits
    # have no class, others have classes but no sample, and a batch may be
    # empty.
    counts = draw(st.lists(st.sampled_from([150, 50, 5]), min_size=n_classes, max_size=n_classes))
    return np.array(cells).reshape(n, n_classes), np.array(labels), assign_splits(counts)


@given(_scored_batches())
def test_label_rank_metrics_match_the_stable_argsort_reference(batch):
    scores, labels, split = batch
    reference = _argsort_split_report(scores, labels, split)
    assert split_report(scores, labels, split).to_dict() == reference
    for k in range(1, scores.shape[1] + 1) if labels.size else ():
        assert topk_accuracy(scores, labels, k) == _argsort_topk(scores, labels, k)
    assert np.array_equal(
        top1_predictions(scores), np.argsort(-scores, axis=1, kind="stable")[:, 0]
    )


def test_metrics_reject_nan_scores():
    split = assign_splits([150, 50, 5])
    labels = np.array([0, 1, 2])
    scores = np.zeros((3, 3))
    scores[1, 2] = np.nan
    with pytest.raises(NumericError):
        topk_accuracy(scores, labels, 1)
    with pytest.raises(NumericError):
        split_report(scores, labels, split)
    with pytest.raises(NumericError):
        top1_predictions(scores)
    with pytest.raises(NumericError):
        classwise_report(np.zeros((3, 3)), scores, labels, {2: 1.0})


def test_metrics_reject_labels_outside_the_score_columns():
    split = assign_splits([150, 50, 5])
    scores = np.zeros((2, 3))
    for labels in (np.array([0, 3]), np.array([-1, 0])):
        with pytest.raises(ShapeError):
            topk_accuracy(scores, labels, 1)
        with pytest.raises(ShapeError):
            split_report(scores, labels, split)
        with pytest.raises(ShapeError):
            _FewColumnReport(scores, labels, split)


def test_split_reports_refuse_a_split_of_another_class_count():
    """Top-1 and top-5 of `all` are sums over the three splits, which cover
    every row only when the split labels every score column."""
    labels = np.array([0, 1, 2])
    for counts in ([150, 50], [150, 50, 5, 5]):
        with pytest.raises(ShapeError, match="3 score columns"):
            split_report(np.zeros((3, 3)), labels, assign_splits(counts))
        with pytest.raises(ShapeError, match="3 score columns"):
            _FewColumnReport(np.zeros((3, 3)), labels, assign_splits(counts))


# ---------------------------------------------------------------------------
# One argmax and a top-5 pass per split, against the bodies they replaced


def _eight_call_split_report(scores, labels, split):
    """`split_report` as it was: two `topk_accuracy` calls per present split,
    each on a copy of the split's rows, and two more over all rows."""
    scores = np.asarray(scores, dtype=np.float64)
    k5 = min(5, scores.shape[1])
    groups = [(name, mask) for name, mask in _split_masks(labels, split) if mask.any()]
    per_split = {}
    for name, mask in groups + ([("all", None)] if labels.size else []):
        rows, y = (scores, labels) if mask is None else (scores[mask], labels[mask])
        per_split[name] = SplitAccuracy(
            top1=topk_accuracy(rows, y, 1), top5=topk_accuracy(rows, y, k5), n=y.size
        )
    return SplitReport(per_split=per_split)


def _two_matrix_classwise_report(baseline_scores, composed_scores, labels, distances):
    """`classwise_report` as it was, reading both score matrices."""
    base_pred = top1_predictions(baseline_scores)
    comp_pred = top1_predictions(composed_scores)
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
            ranks = np.column_stack([_average_ranks(dist), _average_ranks(delta)])
            rho = np.corrcoef(ranks, rowvar=False)[1, 0]
            if np.isfinite(rho):
                spearman = float(rho)
    return ClasswiseReport(rows=rows, spearman=spearman)


@st.composite
def _paired_scores(draw):
    """Baseline and composed scores of one batch, plus nearest-neighbor
    distances for a subset of classes that may include absent ones. Mostly
    a small batch as `_scored_batches` draws it, else 2,000 x 50 normal
    scores rounded to 0.1 so that ties occur."""
    if draw(st.integers(0, 4)):
        baseline, labels, split = draw(_scored_batches())
        cells = draw(st.lists(_SCORE_VALUES, min_size=baseline.size, max_size=baseline.size))
        composed = np.array(cells).reshape(baseline.shape)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        baseline, composed = np.round(rng.normal(size=(2, 2000, 50)), 1)
        labels = rng.integers(0, 50, size=2000)
        split = assign_splits(rng.choice([150, 50, 5], size=50))
    class_ids = st.integers(0, baseline.shape[1] + 1)
    distance = st.floats(0.0, 2.0).map(lambda x: round(x, 1))
    distances = draw(st.dictionaries(class_ids, distance, max_size=baseline.shape[1] + 2))
    return baseline, composed, labels, split, distances


@settings(deadline=None)
@given(_paired_scores())
def test_reports_equal_the_bodies_they_replaced_bit_for_bit(paired):
    baseline, composed, labels, split, distances = paired
    reports = []
    for scores in (baseline, composed):
        report = split_report(scores, labels, split)
        reference = _eight_call_split_report(scores, labels, split)
        assert repr(report.to_dict()) == repr(reference.to_dict())
        assert np.array_equal(report.predictions, top1_predictions(scores))
        reports.append(report)
    reference = repr(_two_matrix_classwise_report(baseline, composed, labels, distances).to_dict())
    assert repr(classwise_report(baseline, composed, labels, distances).to_dict()) == reference
    # What `eval` does: each report's predictions stand in for its matrix.
    base_pred, comp_pred = (r.predictions for r in reports)
    assert repr(_classwise(base_pred, comp_pred, labels, distances).to_dict()) == reference


def _rounded_scores(n, n_classes, seed):
    """Normal scores rounded to 0.1 so that ties occur, with some infinities."""
    rng = np.random.default_rng(seed)
    scores = np.round(rng.normal(size=(n, n_classes)), 1)
    scores[rng.random(scores.shape) < 0.01] = np.inf
    scores[rng.random(scores.shape) < 0.01] = -np.inf
    return scores, rng.integers(0, n_classes, size=n)


@pytest.mark.parametrize("block", [reports_module._ROW_BLOCK, 7, 1])
def test_split_report_top5_blocks_add_up_to_the_whole_split(monkeypatch, block):
    """5,000 rows put every split across several top-5 blocks, the last
    one partial."""
    monkeypatch.setattr(reports_module, "_ROW_BLOCK", block)
    scores, labels = _rounded_scores(5000, 50, seed=block)
    split = assign_splits([150] * 20 + [50] * 12 + [5] * 18)
    reference = _eight_call_split_report(scores, labels, split)
    assert repr(split_report(scores, labels, split).to_dict()) == repr(reference.to_dict())


def test_split_report_working_memory_does_not_grow_with_the_splits():
    """A top-5 pass copies at most one block of rows: with 40% of 40,000
    rows in the many split, one copy of that split alone would take 6.4 MB."""
    scores, labels = _rounded_scores(40_000, 50, seed=0)
    split = assign_splits([150] * 20 + [50] * 12 + [5] * 18)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        split_report(scores, labels, split)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < scores.nbytes / 4


def _scattered_partition(n_test, d, seed):
    """A 50-class bank and a dataset whose `n_test` test rows are scattered
    among 100 train rows."""
    rng = np.random.default_rng(seed)
    split = assign_splits([150] * 20 + [50] * 12 + [5] * 18)
    bank = ClassifierBank(rng.normal(size=(50, d)), rng.normal(size=50), split)
    n = n_test + 100
    partitions = rng.permutation(np.r_[np.full(n_test, 2), np.zeros(100)]).astype(np.uint8)
    ds = FeatureDataset(rng.normal(size=(n, d)), rng.integers(0, 50, size=n), partitions, 50)
    return bank, ds


#: Test partition sizes and the row counts of the blocks `bank_report` scores.
_BLOCK_CASES = [
    (0, [0]),
    (1, [1]),
    (63, [63]),
    (64, [64]),
    (2047, [2047]),
    (2048, [2048]),
    (2049, [2049]),
    (2111, [2111]),
    (2112, [2048, 64]),
    (4097, [2048, 2049]),
]


@pytest.mark.parametrize("d", [16, 64])
@pytest.mark.parametrize("n_test, block_rows", _BLOCK_CASES, ids=[str(n) for n, _ in _BLOCK_CASES])
def test_bank_report_equals_the_whole_matrix_report(n_test, block_rows, d):
    """A remainder of fewer than 64 rows joins the block before it, and each
    block's scores are the whole matrix's rows bit for bit."""
    bank, ds = _scattered_partition(n_test, d, seed=n_test + d)
    idx = ds.indices("test")
    blocks = reports_module._row_blocks(idx.size)
    assert [b.stop - b.start for b in blocks] == block_rows
    whole = bank.scores(ds.features[idx])
    for b in blocks:
        assert bank.scores(ds.features[idx[b]]).tobytes() == whole[b].tobytes()
    reference = split_report(whole, ds.labels[idx], bank.split)
    report = bank_report(bank, ds, "test")
    assert repr(report.to_dict()) == repr(reference.to_dict())
    assert np.array_equal(report.predictions, reference.predictions)


def test_bank_report_working_memory_does_not_grow_with_the_partition():
    """40,000 test rows of 50 classes: the whole score matrix would take
    16 MB, and a copy of the test features 5.1 MB."""
    bank, ds = _scattered_partition(40_000, 16, seed=0)
    scores_nbytes = 40_000 * 50 * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        bank_report(bank, ds, "test")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < scores_nbytes / 4


# ---------------------------------------------------------------------------
# The per-epoch validation report: fixed base columns, moving few columns


@st.composite
def _few_column_batches(draw):
    """Integer-valued scores, so that ties are common, for a random split
    (possibly without few classes or without some split), random labels or
    only few-class labels, and two successive few-class blocks."""
    n_classes = draw(st.integers(1, 7))
    n = draw(st.integers(0, 12))
    counts = draw(st.lists(st.sampled_from([150, 50, 5]), min_size=n_classes, max_size=n_classes))
    split = assign_splits(counts)
    # The base columns may hold infinities; the few block must be finite.
    base_values = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, np.inf, -np.inf])
    few_values = st.integers(-2, 2).map(float)
    scores = np.array(draw(st.lists(base_values, min_size=n * n_classes, max_size=n * n_classes)))
    scores = scores.reshape(n, n_classes)
    # The report never reads the few columns of the matrix it is built from.
    scores[:, split.few_index] = np.nan
    classes = split.few_ids if split.few_ids and draw(st.booleans()) else range(n_classes)
    labels = np.array(draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n)), dtype=int)
    size = n * split.n_few
    blocks = [
        np.array(draw(st.lists(few_values, min_size=size, max_size=size))).reshape(n, split.n_few)
        for _ in range(2)
    ]
    return scores, blocks, labels, split


@given(_few_column_batches())
def test_few_column_report_is_split_report_of_the_assembled_matrix(batch):
    scores, blocks, labels, split = batch
    report = _FewColumnReport(scores, labels, split)
    for few_block in blocks:
        assembled = scores.copy()
        assembled[:, split.few_index] = few_block
        assert report(few_block).to_dict() == split_report(assembled, labels, split).to_dict()


def test_few_column_report_rejects_nan_base_and_nonfinite_few_scores():
    split = assign_splits([150, 50, 5])
    labels = np.array([0, 1, 2])
    scores = np.zeros((3, 3))
    scores[1, 2] = np.nan  # a few column: not read
    report = _FewColumnReport(scores, labels, split)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NumericError, match="not finite"):
            report(np.array([[0.0], [bad], [0.0]]))
    with pytest.raises(ShapeError):
        report(np.zeros((3, 2)))
    scores[1, 1] = np.nan
    with pytest.raises(NumericError):
        _FewColumnReport(scores, labels, split)


# ---------------------------------------------------------------------------
# Classwise improvement tables


def _scores_predicting(preds, n_classes):
    """Score rows whose argmax equals the requested prediction."""
    return np.eye(n_classes)[preds] * 5.0


def test_classwise_no_change_gives_zero_deltas_and_no_correlation():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, size=40)
    scores = rng.normal(size=(40, 4))
    report = classwise_report(scores, scores, labels, {0: 1.0, 1: 2.0, 2: 3.0})
    assert all(r.delta == 0.0 for r in report.rows)
    assert report.spearman is None  # improvement column is constant


def test_classwise_hand_built_deltas_and_perfect_anticorrelation():
    # classes 0..3, five samples each; composed fixes progressively fewer
    # samples as the nearest neighbor gets farther away
    labels = np.repeat(np.arange(4), 5)
    base_preds = (labels + 1) % 4  # baseline always wrong
    comp_preds = base_preds.copy()
    fixes = {0: 4, 1: 3, 2: 2, 3: 1}
    for c, n_fix in fixes.items():
        idx = np.flatnonzero(labels == c)[:n_fix]
        comp_preds[idx] = c
    report = classwise_report(
        _scores_predicting(base_preds, 4),
        _scores_predicting(comp_preds, 4),
        labels,
        {0: 0.5, 1: 1.0, 2: 1.5, 3: 2.0},
    )
    assert [r.class_id for r in report.rows] == [0, 1, 2, 3]
    assert [r.baseline_top1 for r in report.rows] == [0.0] * 4
    assert [r.composed_top1 for r in report.rows] == [0.8, 0.6, 0.4, 0.2]
    assert [r.delta for r in report.rows] == [0.8, 0.6, 0.4, 0.2]
    assert [r.n for r in report.rows] == [5] * 4
    assert report.spearman == pytest.approx(-1.0, abs=1e-12)


def test_classwise_spearman_matches_rank_formula():
    # distinct ranks in both columns: rho = 1 - 6*sum(d^2)/(n(n^2-1))
    rng = np.random.default_rng(11)
    n_cls = 8
    labels = np.repeat(np.arange(n_cls), 3)
    base_preds = np.zeros_like(labels)
    comp_preds = labels.copy()
    # knock out a distinct number of samples per class: accuracies all differ
    comp_preds[[2, 4, 5, 7, 8]] = n_cls - 1  # classes 0,1,2 partially wrong
    distances = {c: float(v) for c, v in enumerate(rng.permutation(n_cls))}
    report = classwise_report(
        _scores_predicting(base_preds, n_cls),
        _scores_predicting(comp_preds, n_cls),
        labels,
        distances,
    )
    dist = np.array([r.nn_distance for r in report.rows])
    delta = np.array([r.delta for r in report.rows])
    rank_d = np.argsort(np.argsort(dist))
    rank_v = np.argsort(np.argsort(delta, kind="stable"))
    # guard: the hand formula needs distinct values in each column
    if len(set(delta)) == len(delta):
        n = len(dist)
        expected = 1 - 6 * np.sum((rank_d - rank_v) ** 2) / (n * (n**2 - 1))
        assert report.spearman == pytest.approx(expected, abs=1e-12)
    assert report.spearman is not None


@settings(max_examples=300)
@given(
    st.lists(
        st.tuples(
            st.floats(0.0, 2.0).map(lambda x: round(x, 1)),
            st.integers(0, 4),
            st.integers(0, 4),
        ),
        min_size=2,
        max_size=40,
    )
)
def test_classwise_spearman_is_bit_equal_to_scipy(classes):
    # (distance, baseline hits, composed hits) per class of four samples:
    # distances rounded to 0.1 and accuracies in quarters force ties in
    # both columns, where average and ordinal ranks part ways
    n_cls = len(classes)
    labels = np.repeat(np.arange(n_cls), 4)
    base_preds = (labels + 1) % n_cls
    comp_preds = base_preds.copy()
    for c, (_, base_hits, comp_hits) in enumerate(classes):
        base_preds[4 * c : 4 * c + base_hits] = c
        comp_preds[4 * c : 4 * c + comp_hits] = c
    report = classwise_report(
        _scores_predicting(base_preds, n_cls),
        _scores_predicting(comp_preds, n_cls),
        labels,
        {c: d for c, (d, _, _) in enumerate(classes)},
    )
    dist = np.array([r.nn_distance for r in report.rows])
    delta = np.array([r.delta for r in report.rows])
    if np.ptp(dist) == 0 or np.ptp(delta) == 0:
        assert report.spearman is None
        return
    expected = stats.spearmanr(dist, delta).statistic
    assert np.float64(report.spearman).tobytes() == np.float64(expected).tobytes()


def test_classwise_skips_classes_missing_from_labels():
    labels = np.array([0, 0, 1])
    scores = _scores_predicting(labels, 5)
    report = classwise_report(scores, scores, labels, {0: 1.0, 1: 2.0, 9: 3.0})
    assert [r.class_id for r in report.rows] == [0, 1]


def test_classwise_single_row_has_no_correlation():
    labels = np.array([2, 2, 2])
    scores = _scores_predicting(labels, 4)
    report = classwise_report(scores, scores, labels, {2: 1.0})
    assert len(report.rows) == 1
    assert report.spearman is None


def test_classwise_rejects_mismatched_score_shapes():
    labels = np.array([0, 1])
    with pytest.raises(ShapeError):
        classwise_report(np.zeros((2, 3)), np.zeros((2, 4)), labels, {0: 1.0})


def test_nn_distance_map_reads_stored_distances():
    fake = SimpleNamespace(
        few_ids=(7, 8), top_k=2, distances=np.array([[0.25, 0.3], [0.5, 0.75]])
    )
    assert nn_distance_map(fake) == {7: 0.25, 8: 0.5}
    bare = SimpleNamespace(few_ids=(9,), top_k=0, distances=np.zeros((1, 0)))
    with pytest.raises(ConfigError):
        nn_distance_map(bare)


# ---------------------------------------------------------------------------
# Sweep drivers (tiny end-to-end runs)


@pytest.fixture(scope="module")
def tiny_run():
    cfg = GenConfig(
        n_classes=8, feature_dim=6, head_count=120, tail_count=4,
        val_per_class=6, test_per_class=6, seed=2,
    )
    ds, _, _ = generate(cfg)
    bank = train_baseline(ds, epochs=8, seed=2)
    run_cfg = RunConfig(top_k=2, reduced_dim=3, epochs=2, seed=2)
    return ds, bank, run_cfg


def test_run_training_returns_result_and_composed(tiny_run):
    ds, bank, cfg = tiny_run
    seen = []
    result, composed = run_training(bank, ds, cfg, on_epoch=lambda e: seen.append(e))
    assert len(result.log) == cfg.epochs
    assert len(seen) == cfg.epochs
    assert composed.weights.shape == bank.weights.shape
    x, _ = ds.partition_arrays("test")
    assert composed.scores(x).shape == (x.shape[0], ds.n_classes)


def test_gamma_sweep_rows_and_determinism(tiny_run):
    ds, bank, cfg = tiny_run
    rows = sweep(bank, ds, cfg, "gamma", [0.4, 0.8])
    assert [r.param for r in rows] == ["gamma", "gamma"]
    assert [r.value for r in rows] == [0.4, 0.8]
    for r in rows:
        assert "few" in r.report.per_split
    again = sweep(bank, ds, cfg, "gamma", [0.4, 0.8])
    assert [r.report.to_dict() for r in rows] == [r.report.to_dict() for r in again]


def test_sweep_value_ranges_are_validated(tiny_run, monkeypatch):
    ds, bank, cfg = tiny_run
    monkeypatch.setattr(reports_module, "run_training", None)  # nothing may train
    with pytest.raises(ConfigError, match="unknown partition"):
        sweep(bank, ds, cfg, "gamma", [0.4], partition="nope")
    with pytest.raises(ConfigError):
        sweep(bank, ds, cfg, "gamma", [0.0])
    with pytest.raises(ConfigError):
        sweep(bank, ds, cfg, "gamma", [1.2])
    with pytest.raises(ConfigError, match="top_k"):
        sweep(bank, ds, cfg, "top_k", [bank.split.n_base + 1])
    with pytest.raises(ConfigError):
        sweep(bank, ds, cfg, "top_k", [-1])
    # A gamma sweep's cells keep the settings' top_k, which the bank must admit too.
    too_many = replace(cfg, top_k=bank.split.n_base + 1)
    with pytest.raises(ConfigError, match="top_k"):
        sweep(bank, ds, too_many, "gamma", [0.4, 0.8])


def test_topk_sweep_includes_the_no_neighbor_edge(tiny_run):
    ds, bank, cfg = tiny_run
    rows = sweep(bank, ds, cfg, "top_k", [0, 2], partition="val")
    assert [r.value for r in rows] == [0.0, 2.0]
    for r in rows:
        acc = r.report.accuracy("all")
        assert acc is not None and 0.0 <= acc.top1 <= 1.0


# ---------------------------------------------------------------------------
# CSV emission


def _crafted_split_report():
    return SplitReport(
        per_split={
            "few": SplitAccuracy(top1=0.123456789, top5=1.0, n=7),
            "all": SplitAccuracy(top1=0.5, top5=0.875, n=56),
        }
    )


def test_split_csv_layout_and_rounding(tmp_path):
    path = tmp_path / "split.csv"
    write_split_report_csv(path, _crafted_split_report())
    lines = path.read_text().splitlines()
    assert lines[0] == "split,top1,top5,n"
    assert lines[1] == "few,0.123457,1,7"  # 6 significant digits
    assert lines[2] == "all,0.5,0.875,56"
    assert len(lines) == 3  # absent splits produce no rows


def test_classwise_csv_layout(tmp_path):
    report = ClasswiseReport(
        rows=[
            ClasswiseRow(
                class_id=40, baseline_top1=0.2, composed_top1=0.45,
                delta=0.25, nn_distance=1.23456789, n=20,
            )
        ],
        spearman=-0.5,
    )
    path = tmp_path / "classwise.csv"
    write_classwise_csv(path, report)
    lines = path.read_text().splitlines()
    assert lines[0] == "class_id,baseline_top1,composed_top1,delta,nn_distance"
    assert lines[1] == "40,0.2,0.45,0.25,1.23457"


def test_sweep_csv_layout(tmp_path):
    rows = [
        SweepRow(param="gamma", value=0.4, report=_crafted_split_report()),
        SweepRow(param="gamma", value=0.8, report=_crafted_split_report()),
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "param,split,top1,top5"
    assert lines[1] == "0.4,few,0.123457,1"
    assert lines[2] == "0.4,all,0.5,0.875"
    assert lines[3].startswith("0.8,few")
    assert len(lines) == 5


# ---------------------------------------------------------------------------
# SVG charts


def test_line_chart_is_wellformed_svg_with_legend():
    svg = line_chart(
        [0.2, 0.4, 0.6],
        {"few": [0.3, 0.45, 0.4], "all": [0.7, 0.75, 0.74]},
        title="accuracy vs gamma",
        x_label="gamma",
        y_label="top-1",
    )
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 2
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert "few" in texts and "all" in texts
    assert "accuracy vs gamma" in texts


def test_line_chart_skips_missing_points():
    svg = line_chart([1.0, 2.0, 3.0], {"a": [0.5, None, 0.7]})
    polyline = next(el for el in ET.fromstring(svg).iter() if el.tag.endswith("polyline"))
    assert len(polyline.attrib["points"].split()) == 2


def test_line_chart_validates_inputs():
    with pytest.raises(ConfigError):
        line_chart([], {"a": []})
    with pytest.raises(ConfigError):
        line_chart([1.0], {"a": [None]})


def test_write_sweep_svg_round_trips_through_xml(tmp_path):
    rows = [
        SweepRow(param="gamma", value=0.4, report=_crafted_split_report()),
        SweepRow(param="gamma", value=0.8, report=_crafted_split_report()),
    ]
    path = tmp_path / "sweep.svg"
    write_sweep_svg(path, rows, title="sweep", x_label="gamma")
    root = ET.fromstring(path.read_text())
    assert root.tag.endswith("svg")
