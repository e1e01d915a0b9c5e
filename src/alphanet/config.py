"""Run configuration: defaults and validation, and the one default/file/flag
merge that builds every settings dataclass."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from .errors import ConfigError

# Accepted value types per field annotation. A bool is an int to Python, so
# it is refused where a number is meant and is the only thing `bool` takes.
# A `float` must also be finite: NaN passes every bound check.
_SCALAR_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def _has_type(value, kind: str) -> bool:
    """Whether `value` fits one alternative of an annotation: `None`, a
    scalar kind, or `list[kind]` with every entry fitting."""
    if kind == "None":
        return value is None
    if kind.startswith("list[") and kind.endswith("]"):
        return isinstance(value, list) and all(_has_type(v, kind[5:-1]) for v in value)
    is_bool = isinstance(value, bool)
    fits = isinstance(value, _SCALAR_TYPES[kind]) and (kind == "bool" or not is_bool)
    return fits and (kind != "float" or -math.inf < value < math.inf)


def check_field_types(cfg, names=None, error=ConfigError) -> None:
    """Raise `error` when a dataclass field, of those in `names` or of all
    when it is None, holds a value that fits no alternative of its
    annotation, such as `float | list[float]` or `int | None`; see
    `_has_type`. Every annotation checked must be built from `None`,
    `list[...]` and the kinds in `_SCALAR_TYPES`. The annotations are read
    as strings, so the dataclass's module must use
    `from __future__ import annotations`."""
    for f in fields(cfg):
        if names is not None and f.name not in names:
            continue
        value = getattr(cfg, f.name)
        if not any(_has_type(value, kind) for kind in f.type.split(" | ")):
            raise error(f"{f.name} must be of type {f.type}, got {value!r}")


#: The most bytes one numpy array can span: the largest signed 64-bit int.
MAX_ARRAY_BYTES = 2**63 - 1


def check_array_size(what: str, *shape: int, itemsize: int = 8) -> None:
    """Refuse an array that numpy cannot size at all: positive dimensions
    `shape` of `itemsize`-byte entries that take more than `MAX_ARRAY_BYTES`.
    `what` names the settings that size it. The product is exact in Python
    ints, so no dimension wraps; a smaller array that memory cannot hold
    ends in a MemoryError instead."""
    if math.prod(shape) * itemsize > MAX_ARRAY_BYTES:
        raise ConfigError(
            f"{what} is too large: a {' x '.join(map(str, shape))} array "
            f"would take more than {MAX_ARRAY_BYTES} bytes"
        )


@dataclass
class RunConfig:
    """Everything a training run or sweep needs besides the data itself. The
    many/medium/few split comes with the dataset and its bank.

    Precedence when assembling one: CLI flag > config file > these defaults.
    """

    dataset: str | None = None
    bank: str | None = None
    out_dir: str | None = None
    gamma: float = 0.6
    top_k: int = 5
    reduced_dim: int = 8
    hidden: int | None = None  # None -> same as reduced_dim
    slope: float = 0.01
    lr0: float = 0.1
    momentum: float = 0.9
    batch_size: int = 64
    epochs: int = 100
    weight_decay: float = 0.0
    seed: int = 0
    strict_alpha: bool = False
    init_gain: float = 2.5
    init_margin: float = 0.05

    def validate(self) -> "RunConfig":
        check_field_types(self)
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.top_k < 0:
            raise ConfigError(f"top_k must be >= 0, got {self.top_k}")
        if self.reduced_dim < 1:
            raise ConfigError(f"reduced_dim must be >= 1, got {self.reduced_dim}")
        if self.hidden is not None and self.hidden < 1:
            raise ConfigError(f"hidden must be >= 1, got {self.hidden}")
        if not 0.0 <= self.slope < 1.0:
            raise ConfigError(f"slope must be in [0, 1), got {self.slope}")
        if self.lr0 <= 0.0:
            raise ConfigError(f"lr0 must be positive, got {self.lr0}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.weight_decay < 0.0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.init_gain <= 0.0:
            raise ConfigError(f"init_gain must be positive, got {self.init_gain}")
        if not 0.0 < self.init_margin < 1.0:
            raise ConfigError(f"init_margin must be in (0, 1), got {self.init_margin}")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        return merge_config(cls, d)

    @classmethod
    def merged(cls, file_values: dict | None = None, flag_values: dict | None = None) -> "RunConfig":
        return merge_config(cls, file_values, flag_values)


def merge_config(cls, file_values: dict | None = None, flag_values: dict | None = None):
    """The dataclass `cls` from its defaults, overlaid by the config file's
    `file_values`, overlaid by the `flag_values` given, then validated.

    A flag that is None was not given on the command line and does not
    override; a `null` in the config file is a value like any other, which
    the field's annotation must admit. A key that names no field is refused.
    """
    known = {f.name for f in fields(cls)}
    for source, name in ((file_values, "config file"), (flag_values, "flags")):
        unknown = sorted(set(source or ()) - known)
        if unknown:
            raise ConfigError(f"unknown {name} keys: {', '.join(unknown)}")
    given = {key: value for key, value in (flag_values or {}).items() if value is not None}
    return cls(**((file_values or {}) | given)).validate()
