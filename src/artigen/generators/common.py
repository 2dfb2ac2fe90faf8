"""Shared machinery for the category generators: the generator record, which
compiles its category once, the shipped parameter-range table and variation
counting."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources

from ..errors import InvalidParameterError
from ..evaluate import EvaluatedJoint, EvaluatedLink, Program, program_for
from ..graph import GraphBuilder, KinematicBlueprint, NodeGraph, Tape
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
    """One category: its parameter space and its recipe, which records the
    category's graph for a parameter vector on a GraphBuilder and returns the
    output node.

    Every seed of a category records one structure, so the seed-0 tape is
    compiled once (`program`) and gives the category blueprint. `evaluate`
    records each seed's tape, compares its structure with the compiled one
    and runs the program on its numbers; a tape of another structure is
    compiled like any graph (`artigen.evaluate.program_for`)."""

    name: str
    space: ParameterSpace
    recipe: object  # (GraphBuilder, ParamVector) -> output node id

    def record(self, params: ParamVector) -> Tape:
        b = GraphBuilder(self.space)
        return b.tape(self.recipe(b, params))

    def build(self, params: ParamVector) -> NodeGraph:
        """The category's graph for `params`, as a document."""
        return self.record(params).graph()

    @cached_property
    def program(self) -> Program:
        return program_for(self.record(sample_parameters(self.space, 0, salt="")))

    @property
    def blueprint(self) -> KinematicBlueprint:
        """The category blueprint, from the seed-0 structure; every seed shares it."""
        return self.program.blueprint

    def evaluate(
        self, params: ParamVector, space: ParameterSpace | None = None
    ) -> tuple[tuple[EvaluatedLink, ...], tuple[EvaluatedJoint, ...], str]:
        """`evaluate_links` of `build(params)`, with the vector checked against
        `space` (the generator's own by default), without making the graph."""
        tape = self.record(params)
        program = self.program
        if tape.structure != program.structure:
            program = program_for(tape)
        return program.run(tape.numbers, params, space or self.space)


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
