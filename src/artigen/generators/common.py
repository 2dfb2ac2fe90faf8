"""Shared machinery for the category generators: the shipped parameter-range
table and variation counting."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources

from ..blueprint import KinematicBlueprint, extract_blueprint
from ..errors import InvalidParameterError
from ..graph import NodeGraph
from ..params import Continuous, Count, Discrete, ParameterSpace, ParamVector, sample_parameters


@lru_cache(maxsize=1)
def load_range_table() -> dict:
    """The versioned per-category continuous range table shipped with the package."""
    text = resources.files("artigen.data").joinpath("param_ranges.json").read_text("utf-8")
    table = json.loads(text)
    if table.get("version") != 1:
        raise InvalidParameterError(f"unsupported range table version {table.get('version')!r}")
    return table


def continuous_entries(category: str, names: list[str]) -> list[tuple[str, Continuous]]:
    """Continuous entries for `names`, ranges drawn from the shipped table."""
    table = load_range_table()["categories"][category]
    missing = [n for n in names if n not in table]
    if missing:
        raise InvalidParameterError(f"range table lacks {category} entries: {missing}")
    extras = [n for n in table if n not in names]
    if extras:
        raise InvalidParameterError(f"range table has unknown {category} entries: {extras}")
    out = []
    for name in names:
        lo, hi, units = table[name]
        out.append((name, Continuous(lo, hi, units)))
    return out


@dataclass(frozen=True)
class VariationCount:
    """Exact discrete/continuous variation inventory of one generator."""

    discrete_combinations: int
    continuous_dims: int

    @property
    def assets_at_3_values(self) -> int:
        return self.discrete_combinations * 3**self.continuous_dims


@dataclass(frozen=True)
class CategoryGenerator:
    name: str
    space: ParameterSpace
    builder: object  # ParamVector -> NodeGraph

    def build(self, params: ParamVector) -> NodeGraph:
        return self.builder(params)

    @cached_property
    def blueprint(self) -> KinematicBlueprint:
        """The category blueprint, from the seed-0 graph; every seed shares it."""
        return extract_blueprint(self.build(sample_parameters(self.space, 0, salt="")))


def count_variations(generator: CategoryGenerator) -> VariationCount:
    """Exact integer product over discrete entries times 3^continuous dims."""
    combos = 1
    dims = 0
    for entry in generator.space.entries.values():
        if isinstance(entry, Discrete):
            combos *= len(entry.labels)
        elif isinstance(entry, Count):
            combos *= entry.max - entry.min + 1
        else:
            dims += 1
    return VariationCount(combos, dims)
