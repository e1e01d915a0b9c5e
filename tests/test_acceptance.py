"""Product-level acceptance checks.

Each test asserts one of the seven shipping criteria and prints a single
`[criterion N] PASS/FAIL` line (the `-rA` summary makes those visible on
every run). Training cells are memoized at module scope because several
criteria share seeds and configurations; one cell — generate data, fit the
baseline bank, train the composition, evaluate on the test partition — takes
well under a minute, far inside the stated five-minute budget.

One check is genuinely out of reach at this scale and is kept as an honest
failure rather than a loosened tolerance; see
`test_criterion_4_ten_neighbors_match_five`.
"""

import time

import numpy as np

from alphanet.config import RunConfig
from alphanet.data import (
    ClassifierBank,
    FeatureDataset,
    assign_splits,
    load_bank,
    save_bank,
)
from alphanet.datagen import GenConfig, generate, train_baseline
from alphanet.model import (
    AlphaVector,
    alpha_pipeline,
    build_model,
    compose,
    export_composed,
    flatten_params,
    load_model,
    loss_and_grads,
    normalize_alpha,
    save_model,
    set_params,
    submodule_forward,
)
from alphanet.neighbors import NeighborSet, knn_base, pca_apply, pca_fit
from alphanet.numerics import finite_diff_check
from alphanet.reports import (
    classwise_report,
    nn_distance_map,
    run_training,
    split_report,
    topk_accuracy,
)

SEEDS = range(5)
MIXED_RHO = [0.9] * 5 + [0.1] * 5  # half the few classes near a parent, half far

_data_cache: dict = {}
_cell_cache: dict = {}


def _setup(seed, variant="default"):
    """Dataset + frozen baseline bank for one seed, memoized."""
    key = (seed, variant)
    if key not in _data_cache:
        rho = MIXED_RHO if variant == "mixed" else 0.7
        ds, split, _ = generate(GenConfig(rho=rho, seed=seed))
        bank = train_baseline(ds, seed=seed)
        _data_cache[key] = (ds, split, bank)
    return _data_cache[key]


def _cell(seed, gamma=0.6, top_k=5, variant="default"):
    """One trained composition run plus its test-partition reports."""
    key = (seed, gamma, top_k, variant)
    if key not in _cell_cache:
        ds, split, bank = _setup(seed, variant)
        cfg = RunConfig(gamma=gamma, top_k=top_k, seed=seed)
        t0 = time.perf_counter()
        result, composed = run_training(bank, ds, cfg)
        wall = time.perf_counter() - t0
        x, y = ds.partition_arrays("test")
        _cell_cache[key] = {
            "result": result,
            "composed": composed,
            "baseline": split_report(bank.scores(x), y, split),
            "composed_report": split_report(composed.scores(x), y, split),
            "classwise": classwise_report(
                bank.scores(x), composed.scores(x), y, nn_distance_map(result.model)
            ),
            "wall": wall,
        }
    return _cell_cache[key]


def _few_top1(cell):
    return cell["composed_report"].accuracy("few").top1


def _median(xs):
    return float(np.median(xs))


def _verdict(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------


def test_criterion_1_desk_scale_substitution():
    # Absolute accuracies from large image benchmarks need pretrained deep
    # features at dataset scale and cannot be reproduced from synthetic
    # Gaussian features; by design, every remaining criterion measures a
    # relative property (improvement, trend, correlation, exactness) on the
    # desk-scale default profile instead.
    ds, split, bank = _setup(0)
    counts = ds.train_counts()
    assert ds.n_classes == 50 and ds.feature_dim == 16
    assert split.few_ids == tuple(range(40, 50))
    assert int(counts.max()) == 200 and int(counts.min()) == 5
    assert all(counts[c] < 20 for c in split.few_ids)
    assert bank.weights.shape == (50, 16)
    _verdict(
        1,
        True,
        "benchmark-scale accuracy is out of scope here; relative-property "
        "checks run on the 50-class/16-dim synthetic default (10 few classes)",
    )


def test_criterion_2_composition_lifts_few_split_accuracy():
    few_deltas, all_deltas, walls = [], [], []
    for seed in SEEDS:
        cell = _cell(seed)
        few_deltas.append(
            _few_top1(cell) - cell["baseline"].accuracy("few").top1
        )
        all_deltas.append(
            cell["composed_report"].accuracy("all").top1
            - cell["baseline"].accuracy("all").top1
        )
        walls.append(cell["wall"])
    wins = sum(d > 0 for d in few_deltas)
    med_few, med_all = _median(few_deltas), _median(all_deltas)
    ok = wins >= 4 and med_few >= 0.05 and med_all >= -0.03 and max(walls) <= 300
    _verdict(
        2,
        ok,
        f"few-split top-1 wins {wins}/5 seeds, median gain {med_few:+.3f}, "
        f"median overall shift {med_all:+.3f}, slowest run {max(walls):.1f}s",
    )
    assert wins >= 4, f"composed won on only {wins}/5 seeds"
    assert med_few >= 0.05, f"median few-split gain {med_few:+.3f} below +0.05"
    assert med_all >= -0.03, f"median overall shift {med_all:+.3f} below -0.03"
    assert max(walls) <= 300, f"slowest run took {max(walls):.0f}s"


def test_criterion_3_gamma_trades_few_accuracy_against_overall():
    med_few, med_all = {}, {}
    for gamma in (0.2, 0.4, 0.6, 0.8):
        cells = [_cell(seed, gamma=gamma) for seed in SEEDS]
        med_few[gamma] = _median([_few_top1(c) for c in cells])
        med_all[gamma] = _median(
            [c["composed_report"].accuracy("all").top1 for c in cells]
        )
    ok = med_few[0.4] >= med_few[0.8] and med_all[0.8] >= med_all[0.4]
    _verdict(
        3,
        ok,
        "a looser cap favors the tail and a tighter one the aggregate: "
        f"few-split {med_few[0.4]:.3f} at gamma=0.4 vs {med_few[0.8]:.3f} at 0.8; "
        f"all-split {med_all[0.8]:.3f} at gamma=0.8 vs {med_all[0.4]:.3f} at 0.4",
    )
    assert med_few[0.4] >= med_few[0.8]
    assert med_all[0.8] >= med_all[0.4]


def test_criterion_4_five_neighbors_beat_two():
    med = {
        k: _median([_few_top1(_cell(seed, top_k=k)) for seed in SEEDS])
        for k in (2, 5)
    }
    ok = med[5] >= med[2]
    _verdict(
        4,
        ok,
        f"median few-split top-1 {med[5]:.3f} at K=5 vs {med[2]:.3f} at K=2",
    )
    assert med[5] >= med[2]


def test_criterion_4_ten_neighbors_match_five():
    med = {
        k: _median([_few_top1(_cell(seed, top_k=k)) for seed in SEEDS])
        for k in (5, 10)
    }
    gap = med[10] - med[5]
    ok = abs(gap) <= 0.02
    _verdict(
        4,
        ok,
        f"median few-split top-1 {med[10]:.3f} at K=10 vs {med[5]:.3f} at K=5 "
        f"(gap {gap:+.3f}, tolerance 0.02)",
    )
    # With 16-dimensional classifiers and a magnitude floor of (1-gamma)/K on
    # every neighbor coefficient, doubling the neighborhood forces weight onto
    # genuinely unrelated classifiers, and at this scale that costs a few
    # points instead of staying flat. Kept as an honest failure; the README
    # documents the trade-off measurements behind it.
    assert ok, (
        f"median few-split top-1 at K=10 ({med[10]:.3f}) is not within "
        f"2 points of K=5 ({med[5]:.3f})"
    )


def test_criterion_5_closer_neighbors_mean_bigger_gains():
    correlations = []
    for seed in SEEDS:
        cw = _cell(seed, variant="mixed")["classwise"]
        assert cw.spearman is not None, f"seed {seed}: correlation undefined"
        correlations.append(cw.spearman)
    med = _median(correlations)
    ok = med <= -0.3
    _verdict(
        5,
        ok,
        "on data built with half the few classes near a strong parent and "
        f"half far away, distance-vs-improvement Spearman medians {med:+.3f}",
    )
    assert med <= -0.3, f"median Spearman {med:+.3f} above -0.3"


def test_criterion_6_exactness_suite(tmp_path):
    ds, split, bank = _setup(0)
    x, _ = ds.partition_arrays("test")

    # identity coefficients must reproduce the baseline bank exactly
    ident_model = build_model(bank, ds, gamma=1.0, top_k=5, reduced_dim=8, seed=0)
    for sub in ident_model.submodules:
        sub.fc2_w[:] = 0.0
        sub.fc2_b[:] = 0.0
        sub.fc2_b[0] = 1.0
    ident_err = float(
        np.max(np.abs(export_composed(ident_model).scores(x) - bank.scores(x)))
    )

    # trained coefficients respect the normalization and clamp contracts
    cell = _cell(0)
    model = cell["result"].model
    norm_err, clamp_err = 0.0, 0.0
    floor = (1.0 - model.gamma) / model.top_k
    for i, (sub, ns) in enumerate(zip(model.submodules, model.neighbor_sets)):
        normalized = normalize_alpha(
            submodule_forward(sub, ns.flat_input, model.slope)
        )
        norm_err = max(norm_err, abs(float(np.sum(np.abs(normalized.values))) - 1.0))
        clamped = alpha_pipeline(model, i).values
        clamp_err = max(clamp_err, max(0.0, abs(clamped[0]) - model.gamma))
        clamp_err = max(clamp_err, max(0.0, floor - float(np.min(np.abs(clamped[1:])))))

    # composition is linear in the coefficients
    rng = np.random.default_rng(0)
    lin_err = 0.0
    for ns in model.neighbor_sets:
        a, b = rng.normal(size=ns.k + 1), rng.normal(size=ns.k + 1)
        ua, ta = compose(AlphaVector(a, "clamped"), ns)
        ub, tb = compose(AlphaVector(b, "clamped"), ns)
        us, ts = compose(AlphaVector(a + b, "clamped"), ns)
        lin_err = max(lin_err, float(np.max(np.abs(us - (ua + ub)))), abs(ts - (ta + tb)))

    # analytic gradients agree with central differences on a 3-class toy
    toy_rng = np.random.default_rng(7)
    toy_split = assign_splits([150, 30, 5])
    toy_bank = ClassifierBank(
        weights=toy_rng.normal(0, 1, (3, 2)),
        biases=toy_rng.normal(0, 0.5, 3),
        split=toy_split,
    )
    feats, labels = [], []
    for c, n in enumerate([12, 8, 5]):
        feats.append(toy_rng.normal(c * 2.0, 1.0, (n, 2)))
        labels += [c] * n
    toy_ds = FeatureDataset(
        features=np.concatenate(feats),
        labels=np.array(labels),
        partitions=np.zeros(25, dtype=np.uint8),
        n_classes=3,
    )
    toy = build_model(toy_bank, toy_ds, gamma=0.6, top_k=1, reduced_dim=2, hidden=4, seed=3)
    for sub in toy.submodules:
        sub.fc2_w *= 0.05  # keep the coefficients strictly inside the clamp
    toy_alpha = alpha_pipeline(toy, 0).values
    assert abs(toy_alpha[0]) < 0.6 - 1e-3 and abs(toy_alpha[1]) > 0.4 + 1e-3
    bx, by = toy_ds.features[:6], toy_ds.labels[:6]
    _, grads = loss_and_grads(toy, bx, by)
    flat_grad = np.concatenate([g.ravel() for g in grads])
    assert np.linalg.norm(flat_grad) > 1e-3
    x0 = flatten_params(toy)

    def f(flat):
        set_params(toy, flat)
        value = loss_and_grads(toy, bx, by)[0]
        set_params(toy, x0)
        return value

    fd_err = finite_diff_check(f, x0, flat_grad, eps=1e-5)

    # serialization round-trips are bit-exact
    save_model(tmp_path / "model.json", model)
    reloaded = load_model(tmp_path / "model.json", bank)
    model_roundtrip = (
        flatten_params(reloaded).tobytes() == flatten_params(model).tobytes()
    )
    save_bank(tmp_path / "composed.json", cell["composed"])
    bank_back = load_bank(tmp_path / "composed.json")
    bank_roundtrip = (
        bank_back.weights.tobytes() == cell["composed"].weights.tobytes()
        and bank_back.biases.tobytes() == cell["composed"].biases.tobytes()
    )

    # base rows stay byte-identical, and a rerun reproduces the run bit-for-bit
    base_ids = list(split.base_ids)
    base_frozen = (
        cell["composed"].weights[base_ids].tobytes() == bank.weights[base_ids].tobytes()
        and cell["composed"].biases[base_ids].tobytes() == bank.biases[base_ids].tobytes()
    )
    _, rerun = run_training(bank, ds, RunConfig(gamma=0.6, top_k=5, seed=0))
    reproducible = (
        rerun.weights.tobytes() == cell["composed"].weights.tobytes()
        and rerun.biases.tobytes() == cell["composed"].biases.tobytes()
    )

    ok = (
        ident_err <= 1e-12
        and norm_err <= 1e-9
        and clamp_err <= 1e-12
        and lin_err <= 1e-10
        and fd_err < 1e-5
        and model_roundtrip
        and bank_roundtrip
        and base_frozen
        and reproducible
    )
    _verdict(
        6,
        ok,
        f"identity {ident_err:.1e}, unit-sum {norm_err:.1e}, clamp {clamp_err:.1e}, "
        f"linearity {lin_err:.1e}, gradient check {fd_err:.1e}; round-trips, "
        "frozen base rows, and seeded reruns all bit-exact",
    )
    assert ident_err <= 1e-12
    assert norm_err <= 1e-9
    assert clamp_err <= 1e-12
    assert lin_err <= 1e-10
    assert fd_err < 1e-5
    assert model_roundtrip and bank_roundtrip
    assert base_frozen
    assert reproducible


def test_criterion_7_randomized_oracle_equivalence():
    rng = np.random.default_rng(1234)

    for _ in range(120):  # nearest base classes vs a sort over all distances
        n = int(rng.integers(6, 16))
        while True:
            counts = [int(c) for c in rng.choice([150, 120, 60, 40, 10, 5], size=n)]
            split = assign_splits(counts)
            if split.n_few >= 1 and split.n_base >= 2:
                break
        means = rng.normal(size=(n, int(rng.integers(2, 7))))
        target = int(rng.choice(split.few_ids))
        k = int(rng.integers(0, split.n_base + 1))
        expected = tuple(
            c
            for _, c in sorted(
                (float(np.linalg.norm(means[target] - means[c])), c)
                for c in split.base_ids
            )[:k]
        )
        assert knn_base(means, split, target, k) == expected

    for _ in range(120):  # top-k accuracy vs per-sample ranking
        n, m = int(rng.integers(1, 10)), int(rng.integers(2, 7))
        scores = np.round(rng.normal(size=(n, m)), 1)  # rounding forces ties
        labels = rng.integers(0, m, size=n)
        k = int(rng.integers(1, m + 1))
        hits = sum(
            labels[i] in sorted(range(m), key=lambda c: (-scores[i, c], c))[:k]
            for i in range(n)
        )
        assert topk_accuracy(scores, labels, k) == hits / n

    for _ in range(120):  # principal-axis variances vs singular values
        m, dim = int(rng.integers(4, 30)), int(rng.integers(2, 8))
        rows = rng.normal(size=(m, dim)) * rng.uniform(0.5, 3.0, size=dim)
        d = int(rng.integers(1, min(m, dim) + 1))
        proj = pca_fit(rows, d)
        centered = rows - rows.mean(axis=0)
        svals = np.linalg.svd(centered, compute_uv=False)
        expected = (svals**2 / (m - 1))[:d]
        assert np.max(np.abs(proj.variances - expected)) < 1e-8
        projected = np.array([pca_apply(proj, r) for r in rows])
        assert np.max(np.abs(projected.var(axis=0, ddof=1) - expected)) < 1e-8

    for _ in range(120):  # composition vs an explicit double loop
        k, dfull = int(rng.integers(0, 6)), int(rng.integers(1, 10))
        ns = NeighborSet(
            target=0,
            neighbor_ids=tuple(range(1, k + 1)),
            reduced=rng.normal(size=(k + 1, 2)),
            biases=rng.normal(size=k + 1),
            full_rows=rng.normal(size=(k + 1, dfull)),
        )
        vals = rng.normal(size=k + 1)
        u, t = compose(AlphaVector(vals, "clamped"), ns)
        u_oracle = np.zeros(dfull)
        t_oracle = 0.0
        for j in range(k + 1):
            u_oracle += vals[j] * ns.full_rows[j]
            t_oracle += vals[j] * ns.biases[j]
        assert np.max(np.abs(u - u_oracle)) < 1e-12
        assert abs(t - t_oracle) < 1e-12

    _verdict(
        7,
        True,
        "480 randomized instances matched brute-force oracles "
        "(neighbors 120, top-k 120, principal-axis variance 120, composition 120)",
    )
