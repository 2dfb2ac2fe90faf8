"""Parameter spaces, sampled parameter vectors, and seeded sampling.

Sampling uses one independent substream per (salt, seed, parameter name), so
adding or removing a parameter never perturbs the draws of the others, and a
fixed seed reproduces bit-identical vectors across machines and processes.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import random
from dataclasses import dataclass
from typing import Mapping

from .errors import DocumentParseError, InvalidParameterError, MissingParameterError, RangeError

SALT_ENV_VAR = "ARTIGEN_SEED_SALT"


@dataclass(frozen=True)
class Continuous:
    lo: float
    hi: float
    units: str = ""

    def __post_init__(self):
        if not self.lo < self.hi:
            raise InvalidParameterError(f"continuous range needs lo < hi, got [{self.lo}, {self.hi}]")

    def contains(self, value) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and self.lo <= value <= self.hi


@dataclass(frozen=True)
class Discrete:
    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(self.labels)
        if len(labels) < 2:
            raise InvalidParameterError("discrete parameter needs at least 2 labels")
        if len(set(labels)) != len(labels):
            raise InvalidParameterError("discrete labels must be unique")
        object.__setattr__(self, "labels", labels)

    def contains(self, value) -> bool:
        return type(value) is int and 0 <= value < len(self.labels)  # not a bool


@dataclass(frozen=True)
class Count:
    min: int
    max: int

    def __post_init__(self):
        if self.min > self.max:
            raise InvalidParameterError(f"count range needs min <= max, got [{self.min}, {self.max}]")

    def contains(self, value) -> bool:
        return type(value) is int and self.min <= value <= self.max  # not a bool


Entry = Continuous | Discrete | Count


class ParameterSpace:
    """Ordered, named inventory of a generator's inputs."""

    def __init__(self, entries: Mapping[str, Entry] | list[tuple[str, Entry]] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        self.entries: dict[str, Entry] = {}
        for name, entry in items:
            self.add(name, entry)

    def add(self, name: str, entry: Entry) -> None:
        if name in self.entries:
            raise InvalidParameterError(f"duplicate parameter name {name!r}")
        if not isinstance(entry, (Continuous, Discrete, Count)):
            raise InvalidParameterError(f"unknown entry type for {name!r}: {entry!r}")
        self.entries[name] = entry

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def __getitem__(self, name: str) -> Entry:
        return self.entries[name]

    def __len__(self) -> int:
        return len(self.entries)

    def check_value(self, name: str, value) -> None:
        if name not in self.entries:
            raise MissingParameterError(f"unknown parameter {name!r}")
        if not self.entries[name].contains(value):
            raise RangeError(f"value {value!r} outside bounds of parameter {name!r}")

    def validate_vector(self, params: "ParamVector") -> dict:
        """The values of `params`, each entry's checked: MissingParameterError
        if absent, RangeError if outside the entry or not a number of its kind."""
        for name in self.entries:
            if name not in params.values:
                raise MissingParameterError(f"parameter {name!r} missing from vector")
            self.check_value(name, params.values[name])
        return params.values

    def to_json_list(self) -> list:
        """Insertion-ordered entry list (arrays keep order under key sorting)."""
        out = []
        for name, e in self.entries.items():
            if isinstance(e, Continuous):
                out.append({"name": name, "kind": "continuous", "lo": e.lo, "hi": e.hi,
                            "units": e.units})
            elif isinstance(e, Discrete):
                out.append({"name": name, "kind": "discrete", "labels": list(e.labels)})
            else:
                out.append({"name": name, "kind": "count", "min": e.min, "max": e.max})
        return out

    @staticmethod
    def from_json_list(data) -> "ParameterSpace":
        """Read the entry list of a graph document; a malformed entry raises
        InvalidParameterError naming its parameter."""
        if not isinstance(data, list):
            raise InvalidParameterError(f"parameters must be a list, got {data!r}")
        space = ParameterSpace()
        # Per kind: required keys, the check on each value, and what it asks for.
        required = {
            "continuous": (("lo", "hi"), _is_number, "a finite number"),
            "discrete": (("labels",), _is_label_list, "a list of strings"),
            "count": (("min", "max"), _is_whole, "a whole number"),
        }
        for spec in data:
            if not isinstance(spec, Mapping) or not isinstance(spec.get("name"), str):
                raise InvalidParameterError(f"bad parameter entry {spec!r}")
            name = spec["name"]
            kind = spec.get("kind")
            if kind not in required:
                raise InvalidParameterError(f"unknown parameter kind {kind!r} for {name!r}")
            keys, ok, what = required[kind]
            optional = {"units"} if kind == "continuous" else set()
            extra = set(spec) - {"name", "kind", *keys, *optional}
            if extra:
                raise InvalidParameterError(f"unknown keys {sorted(extra)} in parameter {name!r}")
            for key in keys:
                if key not in spec:
                    raise InvalidParameterError(f"parameter {name!r} is missing {key!r}")
                if not ok(spec[key]):
                    raise InvalidParameterError(
                        f"{key!r} of parameter {name!r} must be {what}, got {spec[key]!r}"
                    )
            try:
                if kind == "continuous":
                    entry = Continuous(spec["lo"], spec["hi"], spec.get("units", ""))
                elif kind == "discrete":
                    entry = Discrete(tuple(spec["labels"]))
                else:
                    entry = Count(int(spec["min"]), int(spec["max"]))
            except InvalidParameterError as exc:
                raise InvalidParameterError(f"parameter {name!r}: {exc}") from None
            space.add(name, entry)
        return space

    def __eq__(self, other):
        return isinstance(other, ParameterSpace) and list(self.entries.items()) == list(
            other.entries.items()
        )


@dataclass(frozen=True)
class ParamVector:
    """One sampled realization of a parameter space plus the seed that produced it."""

    values: Mapping[str, float | int]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", dict(self.values))

    def __getitem__(self, name: str):
        try:
            return self.values[name]
        except KeyError:
            raise MissingParameterError(f"parameter {name!r} missing from vector") from None

    def get(self, name: str, default=None):
        return self.values.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self.values


def _substream(salt: str, seed: int, name: str) -> random.Random:
    digest = hashlib.sha256(f"{salt}|{seed}|{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _is_whole(value) -> bool:
    return _is_number(value) and float(value).is_integer()


def _is_label_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(label, str) for label in value)


def _whole_range(entry: Discrete | Count) -> tuple[int, int]:
    """Inclusive range of a discrete entry's label indices or a count's values."""
    return (0, len(entry.labels) - 1) if isinstance(entry, Discrete) else (entry.min, entry.max)


def _check_override(name: str, entry: Entry, override) -> None:
    """Raise InvalidParameterError naming `name` unless `override` is an object
    holding only keys its entry's kind accepts, with well-formed values; whole
    values must lie in the entry's range."""
    if not isinstance(override, Mapping):
        raise InvalidParameterError(f"override for {name!r} must be an object, got {override!r}")
    continuous = isinstance(entry, Continuous)
    allowed = ("lo", "hi", "fixed", "mean", "std") if continuous else ("fixed", "choices")
    unknown = [key for key in override if key not in allowed]
    if unknown:
        raise InvalidParameterError(
            f"override for {name!r} has unknown keys {unknown}; allowed: {list(allowed)}"
        )
    for key, value in override.items():
        if continuous:
            ok = _is_number(value)
        elif key == "fixed":
            ok = _is_whole(value)
        else:
            ok = isinstance(value, (list, tuple)) and len(value) > 0 and all(map(_is_whole, value))
        if not ok:
            raise InvalidParameterError(f"override {key!r} for {name!r} is malformed: {value!r}")
        if not continuous:
            # Generators index by these values, so they must lie in the entry's range.
            lo, hi = _whole_range(entry)
            if not all(lo <= v <= hi for v in (value if key == "choices" else [value])):
                raise InvalidParameterError(
                    f"override {key!r} for {name!r} is outside {lo}..{hi}: {value!r}"
                )


def _check_overrides(space: ParameterSpace, overrides: Mapping) -> None:
    """Raise a typed error naming the offending parameter unless `overrides`
    is an object whose names are all in `space` and whose entries pass
    `_check_override`."""
    if not isinstance(overrides, Mapping):
        raise InvalidParameterError(f"overrides must be an object, got {overrides!r}")
    for name, override in overrides.items():
        if name not in space:
            raise MissingParameterError(f"override references unknown parameter {name!r}")
        _check_override(name, space[name], override)


def _sample_continuous(entry: Continuous, rng: random.Random, override) -> float:
    lo, hi = entry.lo, entry.hi
    if override:
        if "fixed" in override:
            return float(override["fixed"])
        lo = float(override.get("lo", lo))
        hi = float(override.get("hi", hi))
        if "mean" in override or "std" in override:
            mean = float(override.get("mean", 0.5 * (lo + hi)))
            std = float(override.get("std", (hi - lo) / 6.0))
            return min(hi, max(lo, rng.gauss(mean, std)))
    return rng.uniform(lo, hi)


def sample_parameters(
    space: ParameterSpace,
    seed: int,
    overrides: Mapping[str, Mapping] | None = None,
    salt: str | None = None,
) -> ParamVector:
    """Draw a ParamVector: uniform per entry, with per-name distribution overrides.

    Continuous overrides accept {"lo", "hi"}, {"fixed"}, or {"mean", "std"}
    (normal, clamped). Discrete/Count accept {"fixed"} or {"choices": [...]}.
    """
    overrides = overrides or {}
    _check_overrides(space, overrides)
    return _draw_parameters(space, seed, overrides, salt)


def _draw_parameters(
    space: ParameterSpace, seed: int, overrides: Mapping[str, Mapping], salt: str | None
) -> ParamVector:
    """`sample_parameters` for overrides that `_check_overrides` accepted."""
    if salt is None:
        salt = os.environ.get(SALT_ENV_VAR, "")
    values: dict[str, float | int] = {}
    for name, entry in space.entries.items():
        rng = _substream(salt, seed, name)
        ov = overrides.get(name)
        if isinstance(entry, Continuous):
            values[name] = _sample_continuous(entry, rng, ov)
        elif ov and "fixed" in ov:
            values[name] = int(ov["fixed"])
        elif ov and "choices" in ov:
            values[name] = int(rng.choice(list(ov["choices"])))
        else:
            # randint(0, n - 1) draws exactly what randrange(n) would.
            values[name] = rng.randint(*_whole_range(entry))
    return ParamVector(values, seed)


def _read_json(path, what: str):
    """The JSON document in the file at `path`; a missing, unreadable or
    non-JSON file raises DocumentParseError naming `what` and the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentParseError(f"cannot read {what} {path}: {exc.strerror}") from None
    except ValueError as exc:  # not JSON, or bytes that are not UTF-8
        line, column = getattr(exc, "lineno", None), getattr(exc, "colno", None)
        raise DocumentParseError(f"{what} {path} is not JSON: {exc}", line, column) from None


def load_overrides(path) -> dict:
    """Read a parameter-override file (JSON object keyed by parameter name)."""
    data = _read_json(path, "override file")
    if not isinstance(data, dict):
        raise InvalidParameterError("override file must hold a JSON object")
    return data


def merge_overrides(space: ParameterSpace, overrides: Mapping | None) -> ParameterSpace:
    """The effective space after overrides merge by name: continuous bounds
    stretch to contain overridden ranges and fixed values. Overrides are
    checked as `sample_parameters` checks them."""
    if not overrides:
        return space
    _check_overrides(space, overrides)
    merged = ParameterSpace()
    for name, entry in space.entries.items():
        ov = overrides.get(name)
        if ov and isinstance(entry, Continuous):
            lo, hi = entry.lo, entry.hi
            for key in ("lo", "hi", "fixed", "mean"):
                if key in ov:
                    lo = min(lo, float(ov[key]))
                    hi = max(hi, float(ov[key]))
            merged.add(name, Continuous(lo, hi, entry.units))
        else:
            merged.add(name, entry)
    return merged
