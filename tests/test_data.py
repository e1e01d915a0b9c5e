"""Split assignment, the ALFT tensor format, and bundle round-trips."""

import json
import os
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from alphanet.data import (
    ClassifierBank,
    FeatureDataset,
    SplitSpec,
    assign_splits,
    load_bank,
    load_dataset,
    read_tensor,
    save_bank,
    save_dataset,
    write_tensor,
)
from alphanet.errors import ConfigError, FormatError, IntegrityError, ShapeError
from alphanet.model import AlphaModel, load_model, save_model


def test_assign_splits_threshold_examples():
    assert assign_splits([150, 50, 5]).labels == ("many", "medium", "few")
    assert assign_splits([20, 100]).labels == ("medium", "medium")
    assert assign_splits([101, 19]).labels == ("many", "few")


def test_assign_splits_derived_sets():
    split = assign_splits([150, 50, 5, 3])
    assert split.few_ids == (2, 3)
    assert split.base_ids == (0, 1)
    assert split.n_classes == split.n_base + split.n_few
    assert split.ids_of("many") == (0,)


def test_assign_splits_rejects_bad_input():
    with pytest.raises(ConfigError):
        assign_splits([])
    with pytest.raises(ConfigError):
        assign_splits([10, 0])
    with pytest.raises(ConfigError):
        assign_splits([10], many_gt=5, few_lt=8)


def test_assign_splits_scaled_thresholds():
    split = assign_splits([30, 10, 3], many_gt=20, few_lt=5)
    assert split.labels == ("many", "medium", "few")


@given(
    counts=st.lists(st.integers(1, 300), min_size=1, max_size=20),
    seed=st.integers(0, 2**31),
)
def test_assign_splits_permutation_equivariant(counts, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(counts))
    direct = assign_splits(counts).labels
    permuted = assign_splits([counts[i] for i in perm]).labels
    assert tuple(direct[i] for i in perm) == permuted


def test_splitspec_rejects_inconsistent_fields():
    with pytest.raises(IntegrityError):
        SplitSpec(labels=("many",), train_counts=(5, 6))
    with pytest.raises(IntegrityError):
        SplitSpec(labels=("huge",), train_counts=(5,))
    for count in ("150", 50.5, True, 5.0, 0, -1):
        with pytest.raises(IntegrityError, match="integers of at least 1"):
            SplitSpec(labels=("many",), train_counts=(count,))


def test_splitspec_few_index_and_mask_are_built_once_and_read_only():
    split = assign_splits([150, 5, 50, 3])
    assert split.few_index.tolist() == [1, 3]
    assert split.is_few.tolist() == [False, True, False, True]
    assert split.few_index is split.few_index and split.is_few is split.is_few
    with pytest.raises(ValueError):
        split.is_few[0] = True
    assert split == assign_splits([150, 5, 50, 3])


# ---------------------------------------------------------------------------
# Tensor files


def test_tensor_round_trip_matrix(tmp_path):
    t = np.random.default_rng(0).normal(size=(4, 3))
    p = tmp_path / "t.alft"
    write_tensor(p, t)
    back = read_tensor(p)
    assert back.shape == (4, 3)
    assert back.tobytes() == t.tobytes()


def test_tensor_round_trip_empty_vector(tmp_path):
    p = tmp_path / "empty.alft"
    write_tensor(p, np.zeros(0))
    back = read_tensor(p)
    assert back.shape == (0,)


@given(
    arr=hnp.arrays(
        dtype=np.float64,
        shape=hnp.array_shapes(min_dims=1, max_dims=2, max_side=6),
        elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
)
def test_tensor_round_trip_is_bit_exact(arr, tmp_path_factory):
    p = tmp_path_factory.mktemp("alft") / "t.alft"
    write_tensor(p, arr)
    assert read_tensor(p).tobytes() == np.ascontiguousarray(arr).tobytes()


def test_write_tensor_rejects_rank_3():
    with pytest.raises(ShapeError):
        write_tensor("/dev/null", np.zeros((2, 2, 2)))


def _corrupt(path: Path, offset: int, value: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] = value
    path.write_bytes(bytes(data))


def test_read_tensor_error_offsets(tmp_path):
    p = tmp_path / "t.alft"
    write_tensor(p, np.arange(6.0).reshape(2, 3))
    good = p.read_bytes()

    _corrupt(p, 0, ord("X"))
    with pytest.raises(FormatError) as exc:
        read_tensor(p)
    assert exc.value.offset == 0 and "magic" in str(exc.value)

    p.write_bytes(good)
    _corrupt(p, 4, 0x09)
    with pytest.raises(FormatError) as exc:
        read_tensor(p)
    assert exc.value.offset == 4 and "version" in str(exc.value)

    p.write_bytes(good)
    _corrupt(p, 5, 0x01)
    with pytest.raises(FormatError) as exc:
        read_tensor(p)
    assert exc.value.offset == 5 and "dtype" in str(exc.value)

    p.write_bytes(good)
    _corrupt(p, 6, 3)
    with pytest.raises(FormatError) as exc:
        read_tensor(p)
    assert exc.value.offset == 6 and "rank" in str(exc.value)


def test_read_tensor_truncation_and_trailing_bytes(tmp_path):
    p = tmp_path / "t.alft"
    write_tensor(p, np.arange(6.0).reshape(2, 3))
    good = p.read_bytes()

    p.write_bytes(good[:3])
    with pytest.raises(FormatError) as exc:
        read_tensor(p)
    assert exc.value.offset == 3

    p.write_bytes(good[:20])  # inside the payload
    with pytest.raises(FormatError) as exc:
        read_tensor(p)
    assert exc.value.offset == 20 and "payload" in str(exc.value)

    p.write_bytes(good + b"\x00")
    with pytest.raises(FormatError) as exc:
        read_tensor(p)
    assert "trailing" in str(exc.value)


def test_read_tensor_names_a_short_or_long_payload_exactly(tmp_path, monkeypatch):
    """A (2, 3) tensor file is a 15-byte header and a 48-byte payload."""
    p = tmp_path / "t.alft"
    write_tensor(p, np.arange(6.0).reshape(2, 3))
    good = p.read_bytes()
    assert len(good) == 63

    p.write_bytes(good[:38] + good[39:])  # one byte short, mid-payload
    with pytest.raises(FormatError) as exc:
        read_tensor(p)
    assert str(exc.value) == f"{p}: truncated payload: expected 48 bytes (at byte offset 62)"
    assert exc.value.offset == 62

    p.write_bytes(good + b"\x00")  # one trailing byte
    with pytest.raises(FormatError) as exc:
        read_tensor(p)
    assert str(exc.value) == f"{p}: trailing bytes after payload (at byte offset 63)"
    assert exc.value.offset == 63

    # A file that shrinks after its size is read reports where it ended.
    p.write_bytes(good[:40])
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=len(good)))
    with pytest.raises(FormatError) as exc:
        read_tensor(p)
    assert str(exc.value) == f"{p}: truncated payload: expected 48 bytes (at byte offset 40)"


def test_tensor_files_are_written_and_read_without_a_whole_file_copy(tmp_path):
    """The payload goes out from the array's buffer and comes back into the
    returned array, so neither side holds a second copy of a 4 MiB tensor."""
    t = np.random.default_rng(0).normal(size=(4096, 128))
    p = tmp_path / "t.alft"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_tensor(p, t)
        write_peak = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        back = read_tensor(p)
        read_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert write_peak < 0.1 * t.nbytes
    assert read_peak <= 1.1 * t.nbytes
    assert back.tobytes() == t.tobytes()


def test_header_layout_is_stable(tmp_path):
    p = tmp_path / "t.alft"
    write_tensor(p, np.zeros((1, 2)))
    data = p.read_bytes()
    assert data[:4] == b"ALFT"
    assert data[4] == 0x01  # version
    assert data[5] == 0x02  # binary64 little-endian
    assert data[6] == 2     # rank
    assert data[7:15] == (1).to_bytes(4, "little") + (2).to_bytes(4, "little")


# ---------------------------------------------------------------------------
# Banks and datasets


def _random_bank(rng, n=6, d=4):
    counts = [150, 120, 60, 40, 10, 4][:n]
    return ClassifierBank(
        weights=rng.normal(size=(n, d)),
        biases=rng.normal(size=n),
        split=assign_splits(counts),
        provenance="baseline-logreg seed 42",
    )


def test_bank_round_trip(tmp_path):
    bank = _random_bank(np.random.default_rng(1))
    save_bank(tmp_path / "bank.json", bank)
    back = load_bank(tmp_path / "bank.json")
    assert back.weights.tobytes() == bank.weights.tobytes()
    assert back.biases.tobytes() == bank.biases.tobytes()
    assert back.split == bank.split
    assert back.provenance == bank.provenance


def test_bank_unicode_provenance_survives(tmp_path):
    bank = _random_bank(np.random.default_rng(2))
    bank.provenance = "baseline — séance ✓ αβγ"
    save_bank(tmp_path / "bank.json", bank)
    assert load_bank(tmp_path / "bank.json").provenance == bank.provenance


def test_bank_manifest_class_count_mismatch(tmp_path):
    bank = _random_bank(np.random.default_rng(3))
    path = tmp_path / "bank.json"
    save_bank(path, bank)
    manifest = json.loads(path.read_text())
    manifest["n_classes"] = bank.n_classes - 1
    path.write_text(json.dumps(manifest))
    with pytest.raises(IntegrityError):
        load_bank(path)


def test_bank_weight_tensor_mismatch(tmp_path):
    bank = _random_bank(np.random.default_rng(4))
    path = tmp_path / "bank.json"
    save_bank(path, bank)
    # overwrite the weights tensor with one row too few
    write_tensor(tmp_path / "bank_weights.alft", bank.weights[:-1])
    with pytest.raises(IntegrityError) as exc:
        load_bank(path)
    assert "weights" in str(exc.value)


def test_bank_rejects_nonfinite_on_load(tmp_path):
    bank = _random_bank(np.random.default_rng(5))
    path = tmp_path / "bank.json"
    save_bank(path, bank)
    bad = bank.weights.copy()
    bad[0, 0] = np.nan
    write_tensor(tmp_path / "bank_weights.alft", bad)
    with pytest.raises(IntegrityError):
        load_bank(path)


@pytest.mark.parametrize("n_rows, d", [(1, 16), (7, 16), (1, 64), (33, 64)])
def test_bank_scores_are_the_biased_product_byte_for_byte(n_rows, d):
    rng = np.random.default_rng(d + n_rows)
    bank = _random_bank(rng, d=d)
    features = rng.normal(size=(n_rows, d))
    assert bank.scores(features).tobytes() == (features @ bank.weights.T + bank.biases).tobytes()


def test_bank_scores_shape_check():
    bank = _random_bank(np.random.default_rng(6))
    with pytest.raises(ShapeError):
        bank.scores(np.zeros((2, bank.feature_dim + 1)))


def _random_dataset(rng, n_classes=4, d=3, **thresholds):
    per_class = [8, 6, 5, 3][:n_classes]
    feats, labels, parts = [], [], []
    for c, m in enumerate(per_class):
        feats.append(rng.normal(size=(m, d)))
        labels += [c] * m
        parts += [0] * (m - 2) + [1, 2]
    return FeatureDataset(
        features=np.concatenate(feats),
        labels=np.array(labels),
        partitions=np.array(parts, dtype=np.uint8),
        n_classes=n_classes,
        **thresholds,
    )


def test_dataset_round_trip_preserves_order_and_partitions(tmp_path):
    for thresholds in ({}, {"many_gt": 5, "few_lt": 3}):
        ds = _random_dataset(np.random.default_rng(7), **thresholds)
        save_dataset(tmp_path / "ds.json", ds)
        back = load_dataset(tmp_path / "ds.json")
        assert back.features.tobytes() == ds.features.tobytes()
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.partitions, ds.partitions)
        assert back.n_classes == ds.n_classes
        assert (back.many_gt, back.few_lt) == (ds.many_gt, ds.few_lt)
        assert back.split() == ds.split()


def test_dataset_manifest_without_thresholds_loads_with_defaults(tmp_path):
    path = tmp_path / "ds.json"
    save_dataset(path, _random_dataset(np.random.default_rng(7), many_gt=5, few_lt=3))
    manifest = json.loads(path.read_text())
    assert (manifest.pop("many_gt"), manifest.pop("few_lt")) == (5, 3)
    path.write_text(json.dumps(manifest))
    back = load_dataset(path)
    assert (back.many_gt, back.few_lt) == (100, 20)
    assert back.split() == assign_splits(back.train_counts())


def test_dataset_manifest_with_inverted_thresholds_is_rejected(tmp_path):
    path = tmp_path / "ds.json"
    save_dataset(path, _random_dataset(np.random.default_rng(7)))
    manifest = json.loads(path.read_text())
    manifest["many_gt"], manifest["few_lt"] = 3, 5
    path.write_text(json.dumps(manifest))
    with pytest.raises(IntegrityError) as exc:
        load_dataset(path)
    assert "ds.json" in str(exc.value) and "inverted" in str(exc.value)


def test_dataset_with_empty_partition_round_trips(tmp_path):
    ds = _random_dataset(np.random.default_rng(8))
    ds.partitions[ds.partitions == 2] = 1  # no test samples at all
    save_dataset(tmp_path / "ds.json", ds)
    back = load_dataset(tmp_path / "ds.json")
    assert back.indices("test").size == 0
    assert np.array_equal(back.partitions, ds.partitions)


def test_dataset_corrupt_labels_detected(tmp_path):
    ds = _random_dataset(np.random.default_rng(9))
    save_dataset(tmp_path / "ds.json", ds)
    labels = ds.labels.astype(np.float64)
    labels[0] = 0.5
    write_tensor(tmp_path / "ds_labels.alft", labels)
    with pytest.raises(IntegrityError) as exc:
        load_dataset(tmp_path / "ds.json")
    assert "labels" in str(exc.value)


@pytest.mark.parametrize("code", [258.0, 3.0, -1.0])
def test_dataset_partition_code_outside_0_1_2_is_rejected(tmp_path, code):
    """A uint8 cast would wrap 258 to 2, a test sample; the code is checked first."""
    ds = _random_dataset(np.random.default_rng(9))
    codes = ds.partitions.astype(np.float64)
    codes[0] = code
    with pytest.raises(IntegrityError, match="partition codes"):
        FeatureDataset(ds.features, ds.labels, codes, ds.n_classes)
    save_dataset(tmp_path / "ds.json", ds)
    write_tensor(tmp_path / "ds_partitions.alft", codes)
    with pytest.raises(IntegrityError, match="partition codes") as exc:
        load_dataset(tmp_path / "ds.json")
    assert "ds.json" in str(exc.value)


def test_dataset_partition_helpers():
    ds = _random_dataset(np.random.default_rng(10))
    x, y = ds.partition_arrays("train")
    assert x.shape[0] == y.shape[0] == ds.indices("train").size
    assert np.array_equal(ds.train_counts(), [6, 4, 3, 1])
    assert ds.split().labels == ("few",) * 4
    ds.many_gt, ds.few_lt = 5, 3
    assert ds.split().labels == ("many", "medium", "medium", "few")
    with pytest.raises(ConfigError):
        ds.indices("frobnicate")


def test_feature_dataset_validates_labels():
    for labels, thresholds in (
        ([0, 5], {}),
        ([0, 1], {"many_gt": 10, "few_lt": 11}),
        ([0, 1], {"few_lt": 20.0}),
        ([0, 1], {"many_gt": "100"}),
        ([0, 1], {"few_lt": True}),
    ):
        with pytest.raises(IntegrityError):
            FeatureDataset(
                features=np.zeros((2, 3)),
                labels=np.array(labels),
                partitions=np.zeros(2, dtype=np.uint8),
                n_classes=2,
                **thresholds,
            )


# ---------------------------------------------------------------------------
# Malformed bundles


def _saved_bundle(kind, tmp_path):
    """Save a small bank, dataset or model (F=2 few classes, K=2); return its
    manifest path and a loader for it."""
    rng = np.random.default_rng(11)
    bank = _random_bank(rng)  # classes 4 and 5 are few, 0-3 base
    if kind == "bank":
        save_bank(tmp_path / "bank.json", bank)
        return tmp_path / "bank.json", load_bank
    if kind == "dataset":
        save_dataset(tmp_path / "ds.json", _random_dataset(rng))
        return tmp_path / "ds.json", load_dataset
    f, k, d, h = 2, 2, 2, 4
    shapes = [(f, h, (k + 1) * d), (f, h), (f, k + 1, h), (f, k + 1)]
    model = AlphaModel(
        gamma=0.6, top_k=k, reduced_dim=d, hidden=h, slope=0.01,
        neighbors=[[0, 1], [2, 3]], distances=[[0.5, 1.0], [0.25, 2.0]],
        reduced=rng.normal(size=(f, k + 1, d)),
        params=[rng.normal(size=shape) for shape in shapes], bank=bank,
    )
    save_model(tmp_path / "model.json", model)
    return tmp_path / "model.json", lambda path: load_model(path, bank)


def _write_json(path, value):
    path.write_text(json.dumps(value))


def _transposed(key):
    """Rewrite tensor `key` transposed: same size, other shape."""

    def edit(path, m):
        tensor = path.parent / m["tensor_files"][key]
        write_tensor(tensor, read_tensor(tensor).T)

    return edit


#: Edits that break any bundle the same way.
_ANY_BUNDLE = {
    "list_manifest": lambda path, m: _write_json(path, [m]),
    "tensor_files_not_an_object": lambda path, m: _write_json(path, m | {"tensor_files": "x"}),
    "file_name_not_a_string": lambda path, m: _write_json(
        path, m | {"tensor_files": dict.fromkeys(m["tensor_files"], 5)}
    ),
    "not_utf8": lambda path, m: path.write_bytes(json.dumps(m).encode("utf-16")),
}

#: Ways to break a saved bundle, as (kind, case) -> edit(manifest path, manifest).
_MALFORMED = {
    (kind, case): edit
    for kind in ("bank", "dataset", "model")
    for case, edit in _ANY_BUNDLE.items()
} | {
    ("bank", "count_not_a_number"): lambda path, m: _write_json(path, m | {"n_classes": "fifty"}),
    ("bank", "splits_not_iterable"): lambda path, m: _write_json(path, m | {"splits": 5}),
    ("bank", "transposed_tensor"): _transposed("weights"),
    # A float that equals an integer is still not one: 6.0 classes, "150" samples.
    ("bank", "float_class_count"): lambda path, m: _write_json(
        path, m | {"n_classes": float(m["n_classes"])}
    ),
    ("bank", "train_count_as_string"): lambda path, m: _write_json(
        path, m | {"counts": ["150", *m["counts"][1:]]}
    ),
    ("bank", "fractional_train_count"): lambda path, m: _write_json(
        path, m | {"counts": [50.5, *m["counts"][1:]]}
    ),
    ("bank", "bool_train_count"): lambda path, m: _write_json(
        path, m | {"counts": [True, *m["counts"][1:]]}
    ),
    ("dataset", "float_sample_count"): lambda path, m: _write_json(
        path, m | {"n_samples": float(m["n_samples"])}
    ),
    ("model", "float_few_count"): lambda path, m: _write_json(path, m | {"n_few": 2.0}),
    ("dataset", "count_not_a_number"): lambda path, m: _write_json(path, m | {"n_samples": "many"}),
    ("dataset", "transposed_tensor"): _transposed("features"),
    ("model", "count_not_a_number"): lambda path, m: _write_json(path, m | {"top_k": "two"}),
    ("model", "neighbors_not_iterable"): lambda path, m: _write_json(path, m | {"neighbors": 5}),
    # [[a, b, c, d]] holds F*K ids; a loader that reshapes by size re-splits it
    ("model", "neighbors_one_long_row"): lambda path, m: _write_json(
        path, m | {"neighbors": [sum(m["neighbors"], [])]}
    ),
    ("model", "transposed_tensor"): _transposed("fc1_w"),
    # Scalars are type-checked, not coerced: bool("false") is True.
    ("dataset", "count_as_string"): lambda path, m: _write_json(path, m | {"n_classes": "4"}),
    ("dataset", "fractional_count"): lambda path, m: _write_json(path, m | {"n_classes": 4.7}),
    ("model", "bool_as_string"): lambda path, m: _write_json(path, m | {"strict_alpha": "false"}),
    ("model", "float_as_string"): lambda path, m: _write_json(path, m | {"gamma": "0.6"}),
    ("model", "int_as_string"): lambda path, m: _write_json(path, m | {"hidden": "4"}),
    ("model", "fractional_int"): lambda path, m: _write_json(path, m | {"hidden": 4.7}),
    # Values of the right JSON type that still load into another object.
    ("bank", "provenance_not_a_string"): lambda path, m: _write_json(path, m | {"provenance": 5}),
    ("bank", "train_count_below_one"): lambda path, m: _write_json(
        path, m | {"counts": [*m["counts"][:-1], 0]}
    ),
    ("dataset", "negative_threshold"): lambda path, m: _write_json(path, m | {"few_lt": -1}),
    ("model", "bool_distance"): lambda path, m: _write_json(
        path, m | {"distances": [[True, *m["distances"][0][1:]], *m["distances"][1:]]}
    ),
    ("model", "negative_distance"): lambda path, m: _write_json(
        path, m | {"distances": [[-1.0, *m["distances"][0][1:]], *m["distances"][1:]]}
    ),
    ("model", "gamma_above_one"): lambda path, m: _write_json(path, m | {"gamma": 1.5}),
    ("model", "gamma_of_zero"): lambda path, m: _write_json(path, m | {"gamma": 0}),
    ("model", "slope_of_one"): lambda path, m: _write_json(path, m | {"slope": 1.0}),
}


@pytest.mark.parametrize("kind, case", list(_MALFORMED))
def test_malformed_bundle_is_an_integrity_error_naming_the_manifest(tmp_path, kind, case):
    path, load = _saved_bundle(kind, tmp_path)
    load(path)
    _MALFORMED[kind, case](path, json.loads(path.read_text()))
    with pytest.raises(IntegrityError) as exc:
        load(path)
    assert str(path) in str(exc.value)


def test_integer_manifest_values_load_into_float_fields(tmp_path):
    path, load = _saved_bundle("model", tmp_path)
    _write_json(path, json.loads(path.read_text()) | {"gamma": 1, "slope": 0})
    model = load(path)
    assert (model.gamma, model.slope) == (1, 0)


# ---------------------------------------------------------------------------
# One changed manifest value or tensor header byte, on any bundle

_SAVERS = {"bank": save_bank, "dataset": save_dataset, "model": save_model}


def _other_types(old) -> list:
    """Values of another JSON type than `old`. A float field takes ints, so an
    int is no other type there, while any float, 4.0 too, is one for an int."""
    pool = ["x", True, None, [], {"x": 1}, 2.5, 7] + ([float(old)] if type(old) is int else [])
    same = (int, float) if type(old) is float else (type(old),)
    return [v for v in pool if type(v) not in same]


def _manifest_leaves(value, path=()):
    """The path of every value nested in a manifest, lists and objects
    included, but not the manifest itself."""
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield path + (key,)
        yield from _manifest_leaves(item, path + (key,))


def _replace_at(value, path, new):
    if not path:
        return new
    value = dict(value) if isinstance(value, dict) else list(value)
    value[path[0]] = _replace_at(value[path[0]], path[1:], new)
    return value


def _value_at(value, path):
    for key in path:
        value = value[key]
    return value


@st.composite
def _changed_manifests(draw, manifest):
    """The manifest with one value changed: swapped for a value of another
    JSON type (an int is another type than a float, but not the reverse,
    since a float field takes ints), set to a negative int or float where it
    held one, or a list made one item shorter or longer."""
    path = draw(st.sampled_from(list(_manifest_leaves(manifest))))
    old = _value_at(manifest, path)
    changes = ["swap"]
    if type(old) in (int, float):
        changes.append("negative")
    if isinstance(old, list):
        changes.append("length")
    change = draw(st.sampled_from(changes))
    if change == "swap":
        new = draw(st.sampled_from(_other_types(old)))
    elif change == "negative":
        new = draw(st.sampled_from([-1, -(2**31)])) if type(old) is int else -1.0
    elif old and draw(st.booleans()):
        new = old[:-1]
    else:
        new = old + (old[-1:] or [0])
    return _replace_at(manifest, path, new)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(list(_SAVERS)), header_byte=st.booleans(), data=st.data())
def test_one_changed_manifest_value_or_header_byte_is_refused_or_harmless(kind, header_byte, data):
    """The load raises an IntegrityError or FormatError naming the changed
    file, or returns what saves to the original bytes. A changed tensor data
    byte is left out: without a checksum it cannot be caught."""
    with tempfile.TemporaryDirectory() as tmp:
        path, load = _saved_bundle(kind, Path(tmp))
        original = {f.name: f.read_bytes() for f in Path(tmp).iterdir()}
        manifest = json.loads(path.read_text())
        if header_byte:
            files = manifest["tensor_files"]
            changed = path.parent / files[data.draw(st.sampled_from(sorted(files)))]
            raw = bytearray(changed.read_bytes())
            offset = data.draw(st.integers(0, 6 + 4 * raw[6]))
            raw[offset] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[offset]))
            changed.write_bytes(bytes(raw))
        else:
            changed = path
            _write_json(path, data.draw(_changed_manifests(manifest)))
        try:
            loaded = load(path)
        except (IntegrityError, FormatError) as exc:
            assert str(changed) in str(exc)
            return
        again = Path(tmp) / "again"
        again.mkdir()
        _SAVERS[kind](again / path.name, loaded)
        assert {f.name: f.read_bytes() for f in again.iterdir()} == original
