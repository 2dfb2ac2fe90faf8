"""Shared machinery for the category generators: the generator record, which
records a category's graph per parameter vector and compiles the category
once, the shipped parameter-range table and variation counting."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources

from ..errors import InvalidParameterError
from ..evaluate import EvaluatedJoint, EvaluatedLink, Program, program_for
from ..graph import KinematicBlueprint, NodeGraph
from ..params import Continuous, Count, Discrete, ParameterSpace, ParamVector, sample_parameters


@lru_cache(maxsize=1)
def load_range_table() -> dict:
    """The versioned per-category continuous range table shipped with the package."""
    text = resources.files("artigen.data").joinpath("param_ranges.json").read_text("utf-8")
    table = json.loads(text)
    if table.get("version") != 1:
        raise InvalidParameterError(f"unsupported range table version {table.get('version')!r}")
    return table


def continuous_entries(category: str) -> list[tuple[str, Continuous]]:
    """The category's continuous entries, in the shipped range table's order."""
    table = load_range_table()["categories"][category]
    return [(name, Continuous(lo, hi, units)) for name, (lo, hi, units) in table.items()]


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
    """One category: its parameter space and its recipe, which records the
    category's graph for a parameter vector on a NodeGraph with its builder
    methods and returns the output node.

    Every seed of a category records one structure, so the seed-0 graph is
    checked and compiled once, from its structure alone (`program`), and
    gives the category blueprint. `evaluate` checks the parameter vector,
    records that seed's graph, compares its structure with the compiled one
    and runs the program on its numbers; any other structure is compiled
    (`artigen.evaluate.program_for`)."""

    name: str
    space: ParameterSpace
    recipe: object  # (NodeGraph, ParamVector) -> output node id

    def build(self, params: ParamVector) -> NodeGraph:
        """The category's graph for `params`, with its own copy of the space."""
        graph = NodeGraph()
        graph.parameters.entries.update(self.space.entries)  # checked entries, shared
        graph.set_output(self.recipe(graph, params))
        return graph

    @cached_property
    def program(self) -> Program:
        return program_for(self.build(sample_parameters(self.space, 0, salt="")).structure)

    @property
    def blueprint(self) -> KinematicBlueprint:
        """The category blueprint, from the seed-0 structure; every seed shares it."""
        return self.program.blueprint

    def evaluate(
        self, params: ParamVector, space: ParameterSpace | None = None
    ) -> tuple[tuple[EvaluatedLink, ...], tuple[EvaluatedJoint, ...], str]:
        """`evaluate_links` of `build(params)`, with the vector checked against
        `space` (the generator's own by default) before the recipe reads it."""
        values = (self.space if space is None else space).validate_vector(params)
        graph = self.build(params)
        program = self.program
        if graph.structure != program.structure:
            program = program_for(graph.structure)
        return program.run(graph.numbers, values)


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
