"""Core domain types and their on-disk representation.

Tensor file format (bit-exact round-trip):

    magic   4 bytes  b"ALFT"
    version 1 byte   0x01
    dtype   1 byte   0x02 = IEEE-754 binary64, little-endian
    rank    1 byte   1 or 2
    dims    rank x u32, little-endian
    payload row-major binary64 values

Banks, datasets and models are stored as bundles: one UTF-8 JSON manifest
plus one tensor file per array, with the tensor file names recorded in the
manifest relative to it. `_write_bundle` and `_read_bundle` are the only
code that knows this layout. All writes go through a temp-file-and-rename
so readers never observe a partial file.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import _has_type, check_field_types
from .errors import (
    ConfigError,
    FormatError,
    IntegrityError,
    NumericError,
    ShapeError,
)

MAGIC = b"ALFT"
FORMAT_VERSION = 0x01
DTYPE_F64 = 0x02

MANY, MEDIUM, FEW = "many", "medium", "few"
SPLIT_NAMES = (MANY, MEDIUM, FEW)

TRAIN, VAL, TEST = "train", "val", "test"
PARTITION_CODES = {TRAIN: 0, VAL: 1, TEST: 2}

_F64_LE = np.dtype("<f8")

#: Default split thresholds, the standard long-tailed benchmark values:
#: many > MANY_GT train samples, few < FEW_LT.
MANY_GT = 100
FEW_LT = 20


# ---------------------------------------------------------------------------
# Split assignment


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SplitSpec:
    """Per-class split labels plus the train counts they were derived from.

    `base` is the union of the many and medium splits; its classifiers are
    the strong ones. N = B + F always holds by construction. The class id
    lists and arrays derived from the labels are built once, on first use.
    """

    labels: tuple[str, ...]
    train_counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.train_counts):
            raise IntegrityError(
                f"split labels ({len(self.labels)}) and counts "
                f"({len(self.train_counts)}) disagree"
            )
        for lab in self.labels:
            if lab not in SPLIT_NAMES:
                raise IntegrityError(f"unknown split label {lab!r}")
        if not all(_has_type(c, "int") and c >= 1 for c in self.train_counts):
            raise IntegrityError(
                f"split counts must be integers of at least 1, got {list(self.train_counts)!r}"
            )

    @property
    def n_classes(self) -> int:
        return len(self.labels)

    @cached_property
    def few_ids(self) -> tuple[int, ...]:
        return tuple(i for i, lab in enumerate(self.labels) if lab == FEW)

    @cached_property
    def base_ids(self) -> tuple[int, ...]:
        return tuple(i for i, lab in enumerate(self.labels) if lab != FEW)

    @cached_property
    def few_index(self) -> np.ndarray:
        """`few_ids` as a read-only integer array, for indexing score columns."""
        return _read_only(np.array(self.few_ids, dtype=np.intp))

    @cached_property
    def is_few(self) -> np.ndarray:
        """Read-only per-class mask, true for few classes: `is_few[labels]`
        marks the few-class samples."""
        return _read_only(np.array([lab == FEW for lab in self.labels], dtype=bool))

    @property
    def n_few(self) -> int:
        return len(self.few_ids)

    @property
    def n_base(self) -> int:
        return len(self.base_ids)

    def ids_of(self, split_name: str) -> tuple[int, ...]:
        if split_name not in SPLIT_NAMES:
            raise ConfigError(f"unknown split name {split_name!r}")
        return tuple(i for i, lab in enumerate(self.labels) if lab == split_name)


def assign_splits(train_counts, many_gt: int = MANY_GT, few_lt: int = FEW_LT) -> SplitSpec:
    """Label classes by train-set size: many > `many_gt`, few < `few_lt`,
    medium in between (inclusive). Thresholds may be scaled for small
    datasets.
    """
    counts = [int(c) for c in np.asarray(train_counts).ravel()]
    if not counts:
        raise ConfigError("assign_splits: empty class list")
    if any(c < 1 for c in counts):
        raise ConfigError(f"assign_splits: every class needs >= 1 sample, got {counts}")
    if few_lt > many_gt:
        raise ConfigError(f"assign_splits: few_lt {few_lt} exceeds many_gt {many_gt}")
    labels = []
    for c in counts:
        if c > many_gt:
            labels.append(MANY)
        elif c < few_lt:
            labels.append(FEW)
        else:
            labels.append(MEDIUM)
    return SplitSpec(labels=tuple(labels), train_counts=tuple(counts))


# ---------------------------------------------------------------------------
# Classifier banks and feature datasets


@dataclass
class ClassifierBank:
    """Per-class weight vectors and biases of a frozen linear classifier layer.

    Row j of `weights` scores class j: score = x . weights[j] + biases[j].
    """

    weights: np.ndarray
    biases: np.ndarray
    split: SplitSpec
    provenance: str = ""

    def __post_init__(self):
        check_field_types(self, ("provenance",), IntegrityError)
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        self.biases = np.ascontiguousarray(self.biases, dtype=np.float64)
        n = self.split.n_classes
        if self.weights.ndim != 2 or self.weights.shape[0] != n:
            raise IntegrityError(
                f"bank weights shape {self.weights.shape} inconsistent with {n} classes"
            )
        if self.biases.shape != (n,):
            raise IntegrityError(
                f"bank biases shape {self.biases.shape} inconsistent with {n} classes"
            )
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.biases))):
            raise NumericError("bank contains non-finite entries")

    @property
    def n_classes(self) -> int:
        return self.split.n_classes

    @property
    def feature_dim(self) -> int:
        return int(self.weights.shape[1])

    def scores(self, features: np.ndarray) -> np.ndarray:
        """Score a batch: out[i, j] = features[i] . weights[j] + biases[j]."""
        features = np.asarray(features, dtype=np.float64)
        if features.shape[-1] != self.feature_dim:
            raise ShapeError(
                f"features {features.shape} incompatible with bank dim {self.feature_dim}"
            )
        out = features @ self.weights.T
        out += self.biases  # in place: no second score-sized array
        return out


#: A composed bank has the same shape as its source bank: few-class rows hold
#: the newly composed classifiers, base-class rows are copied verbatim.
ComposedBank = ClassifierBank


@dataclass
class FeatureDataset:
    """Labeled feature vectors partitioned into train/val/test.

    Raw inputs never appear here; samples enter the pipeline as the feature
    vectors a frozen backbone would produce. The dataset owns its split
    thresholds: `split()` labels classes by their train counts with them.
    """

    features: np.ndarray
    labels: np.ndarray
    partitions: np.ndarray  # uint8 codes per PARTITION_CODES
    n_classes: int
    many_gt: int = MANY_GT
    few_lt: int = FEW_LT

    def __post_init__(self):
        check_field_types(self, ("n_classes", "many_gt", "few_lt"), IntegrityError)
        if self.few_lt > self.many_gt:
            raise IntegrityError(
                f"split thresholds inverted: few_lt {self.few_lt} exceeds many_gt {self.many_gt}"
            )
        if self.few_lt < 0:
            raise IntegrityError(f"split thresholds must not be negative, got few_lt {self.few_lt}")
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        # Checked before the cast, which would wrap a code of 258 to 2.
        if not np.isin(self.partitions, tuple(PARTITION_CODES.values())).all():
            raise IntegrityError("partition codes must be 0 (train), 1 (val) or 2 (test)")
        self.partitions = np.ascontiguousarray(self.partitions, dtype=np.uint8)
        n = self.features.shape[0] if self.features.ndim == 2 else -1
        if self.features.ndim != 2:
            raise IntegrityError(f"features must be 2-D, got {self.features.shape}")
        if self.labels.shape != (n,) or self.partitions.shape != (n,):
            raise IntegrityError(
                f"features {self.features.shape}, labels {self.labels.shape}, "
                f"partitions {self.partitions.shape} disagree"
            )
        if n and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise IntegrityError(
                f"labels outside [0, {self.n_classes}): "
                f"min {self.labels.min()}, max {self.labels.max()}"
            )
        if not np.all(np.isfinite(self.features)):
            raise NumericError("dataset features contain non-finite entries")

    @property
    def n_samples(self) -> int:
        return int(self.features.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def indices(self, partition: str) -> np.ndarray:
        try:
            code = PARTITION_CODES[partition]
        except KeyError:
            raise ConfigError(f"unknown partition {partition!r}") from None
        return np.flatnonzero(self.partitions == code)

    def partition_arrays(self, partition: str) -> tuple[np.ndarray, np.ndarray]:
        idx = self.indices(partition)
        return self.features[idx], self.labels[idx]

    def train_counts(self) -> np.ndarray:
        """Per-class sample counts over the train partition."""
        idx = self.indices(TRAIN)
        return np.bincount(self.labels[idx], minlength=self.n_classes)

    def split(self) -> SplitSpec:
        """Many/medium/few labels from the train counts and this dataset's thresholds."""
        return assign_splits(self.train_counts(), self.many_gt, self.few_lt)


# ---------------------------------------------------------------------------
# Tensor file I/O


def _atomic_write_bytes(path, *chunks) -> None:
    """Write the byte buffers `chunks` one after another as the file `path`,
    through a temp file and a rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_tensor(path, t: np.ndarray) -> None:
    """Write a 1-D or 2-D float64 array in the ALFT format (atomically). The
    payload is written from the array's own buffer, without a bytes copy."""
    t = np.ascontiguousarray(t, dtype=_F64_LE)
    if t.ndim not in (1, 2):
        raise ShapeError(f"write_tensor: rank must be 1 or 2, got shape {t.shape}")
    header = MAGIC + bytes([FORMAT_VERSION, DTYPE_F64, t.ndim])
    header += b"".join(struct.pack("<I", d) for d in t.shape)
    # A byte view, not memoryview(t).cast, which refuses zero-size arrays.
    _atomic_write_bytes(path, header, t.reshape(-1).view(np.uint8))


def read_tensor(path) -> np.ndarray:
    """Read an ALFT tensor file; inverse of `write_tensor`, bit-exact. The
    payload is read straight into the returned array."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        data = fh.read(7 + 4 * 2)  # the longest header, rank 2
        if size < 4:
            raise FormatError(path, "truncated header: missing magic", size)
        if data[:4] != MAGIC:
            raise FormatError(path, f"bad magic {data[:4]!r}, expected {MAGIC!r}", 0)
        if size < 7:
            raise FormatError(path, "truncated header", size)
        if data[4] != FORMAT_VERSION:
            raise FormatError(path, f"unsupported version 0x{data[4]:02x}", 4)
        if data[5] != DTYPE_F64:
            raise FormatError(path, f"unsupported dtype 0x{data[5]:02x}", 5)
        rank = data[6]
        if rank not in (1, 2):
            raise FormatError(path, f"rank must be 1 or 2, got {rank}", 6)
        dims_end = 7 + 4 * rank
        if size < dims_end:
            raise FormatError(path, "truncated dimension list", size)
        dims = tuple(
            struct.unpack_from("<I", data, 7 + 4 * i)[0] for i in range(rank)
        )
        count = math.prod(dims)  # exact: an int64 product of two u32 could wrap
        expected_end = dims_end + 8 * count
        if size < expected_end:
            raise FormatError(
                path, f"truncated payload: expected {expected_end - dims_end} bytes", size
            )
        if size > expected_end:
            raise FormatError(path, "trailing bytes after payload", expected_end)
        flat = np.empty(count, dtype=_F64_LE)
        fh.seek(dims_end)
        got = fh.readinto(flat)
    if got != flat.nbytes:
        # The file shrank after its size was read.
        raise FormatError(
            path, f"truncated payload: expected {flat.nbytes} bytes", dims_end + got
        )
    return flat.reshape(dims).astype(np.float64, copy=False)


# ---------------------------------------------------------------------------
# Manifest-based containers


def _write_bundle(path, tensors: dict[str, np.ndarray], manifest: dict) -> None:
    """Write each tensor as `<stem>_<key>.alft` beside the manifest, then the
    JSON manifest at `path` with those file names under "tensor_files"."""
    path = Path(path)
    stem = path.name.removesuffix(".json")
    tensor_files = {}
    for key, arr in tensors.items():
        name = f"{stem}_{key}.alft"
        write_tensor(path.parent / name, arr)
        tensor_files[key] = name
    text = json.dumps(
        manifest | {"tensor_files": tensor_files}, ensure_ascii=False, indent=2, sort_keys=True
    )
    _atomic_write_bytes(path, text.encode("utf-8") + b"\n")


@contextmanager
def _read_bundle(path, what: str, shapes):
    """Inverse of `_write_bundle`: yields the manifest at `path` and its
    tensors, and the caller builds its `what` (bank, dataset, model) inside
    the `with` block.

    `shapes(manifest)` maps each tensor key to read onto its exact shape. A
    manifest that is not UTF-8 JSON or lacks a field, a dimension that is
    not an integer (3.0 and true are not), a tensor of another shape, and
    any KeyError, TypeError, ValueError, IntegrityError or
    NumericError that `shapes` or the block raises on the manifest's values
    become an IntegrityError naming `path`. A missing tensor file stays an
    OSError and a corrupt one a FormatError.
    """
    path = Path(path)
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        tensors = {}
        for key, shape in shapes(manifest).items():
            if not all(_has_type(dim, "int") for dim in shape):
                raise IntegrityError(f"{key} tensor shape {shape} needs integer dimensions")
            tensors[key] = read_tensor(path.parent / manifest["tensor_files"][key])
            if tensors[key].shape != shape:
                raise IntegrityError(
                    f"{key} tensor has shape {tensors[key].shape}, expected {shape}"
                )
        yield manifest, tensors
    except KeyError as exc:
        raise IntegrityError(f"{what} {path}: missing field {exc}") from exc
    except (TypeError, ValueError, IntegrityError, NumericError) as exc:
        raise IntegrityError(f"{what} {path}: {exc}") from exc


def save_bank(path, bank: ClassifierBank) -> None:
    """Write a bank as `<path>` (JSON manifest) plus tensor files alongside."""
    _write_bundle(
        path,
        {"weights": bank.weights, "biases": bank.biases},
        {
            "n_classes": bank.n_classes,
            "feature_dim": bank.feature_dim,
            "splits": list(bank.split.labels),
            "counts": list(bank.split.train_counts),
            "provenance": bank.provenance,
        },
    )


def load_bank(path) -> ClassifierBank:
    """Inverse of `save_bank`."""

    def shapes(m):
        return {"weights": (m["n_classes"], m["feature_dim"]), "biases": (m["n_classes"],)}

    with _read_bundle(path, "bank", shapes) as (m, t):
        return ClassifierBank(
            weights=t["weights"],
            biases=t["biases"],
            split=SplitSpec(labels=tuple(m["splits"]), train_counts=tuple(m["counts"])),
            provenance=m.get("provenance", ""),
        )


def save_dataset(path, ds: FeatureDataset) -> None:
    """Write a dataset as `<path>` (JSON manifest) plus tensor files alongside.

    Labels and partition codes are stored as binary64 tensors; integer values
    of this size round-trip exactly. The split thresholds go into the manifest.
    """
    _write_bundle(
        path,
        {
            "features": ds.features,
            "labels": ds.labels.astype(np.float64),
            "partitions": ds.partitions.astype(np.float64),
        },
        {
            "n_samples": ds.n_samples,
            "n_classes": ds.n_classes,
            "feature_dim": ds.feature_dim,
            "many_gt": ds.many_gt,
            "few_lt": ds.few_lt,
        },
    )


def load_dataset(path) -> FeatureDataset:
    """Inverse of `save_dataset`. A manifest without split thresholds gets the
    defaults, so datasets saved without them still load."""

    def shapes(m):
        n = m["n_samples"]
        return {"features": (n, m["feature_dim"]), "labels": (n,), "partitions": (n,)}

    with _read_bundle(path, "dataset", shapes) as (m, t):
        for name in ("labels", "partitions"):
            if not np.all(t[name] == np.round(t[name])):
                raise IntegrityError(f"{name} tensor holds non-integer values")
        return FeatureDataset(
            features=t["features"],
            labels=t["labels"].astype(np.int64),
            partitions=t["partitions"],
            n_classes=m["n_classes"],
            many_gt=m.get("many_gt", MANY_GT),
            few_lt=m.get("few_lt", FEW_LT),
        )
