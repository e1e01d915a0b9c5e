"""Run configuration: defaults, validation, and flag/file/default merging."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from .errors import ConfigError

# Accepted value types per field annotation. A bool is an int to Python, so
# it is refused where a number is meant and is the only thing `bool` takes.
_SCALAR_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def check_field_types(cfg) -> None:
    """Raise ConfigError when a dataclass field annotated `int`, `float`,
    `bool` or `str` (optionally `| None`) holds a value of another type. The
    annotations are read as strings, so the dataclass's module must use
    `from __future__ import annotations`."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        kind = f.type.removesuffix(" | None")
        if kind not in _SCALAR_TYPES or (value is None and kind != f.type):
            continue
        is_bool = isinstance(value, bool)
        if not isinstance(value, _SCALAR_TYPES[kind]) or (is_bool and kind != "bool"):
            raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")


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
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = set(cls.field_names())
        unknown = sorted(set(d) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**d).validate()

    @classmethod
    def merged(cls, file_values: dict | None = None, flag_values: dict | None = None) -> "RunConfig":
        """Defaults, overlaid by the config file, overlaid by explicit flags.

        `flag_values` entries that are None count as "not given on the
        command line" and do not override.
        """
        d = cls().to_dict()
        known = set(d)
        for source, name in ((file_values, "config file"), (flag_values, "flags")):
            if not source:
                continue
            unknown = sorted(set(source) - known)
            if unknown:
                raise ConfigError(f"unknown {name} keys: {', '.join(unknown)}")
            for key, value in source.items():
                if value is not None:
                    d[key] = value
        return cls(**d).validate()
