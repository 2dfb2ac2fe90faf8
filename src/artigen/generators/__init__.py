"""The shipped category generators and batch-generation helpers."""

from __future__ import annotations

from functools import lru_cache

from ..blueprint import AssetInstance, realize
from ..errors import InvalidParameterError
from ..graph import GraphBuilder
from ..params import ParamVector, _draw_parameters, merge_overrides
from . import dishwasher, door, fridge, lamp, toaster
from .common import CategoryGenerator, VariationCount, count_variations

CATEGORY_NAMES = ("door", "toaster", "fridge", "dishwasher", "lamp")

_MODULES = {
    "door": door,
    "toaster": toaster,
    "fridge": fridge,
    "dishwasher": dishwasher,
    "lamp": lamp,
}


@lru_cache(maxsize=None)
def get_generator(name: str) -> CategoryGenerator:
    try:
        return _MODULES[name].generator()
    except KeyError:
        raise InvalidParameterError(
            f"unknown category {name!r}; choose from {CATEGORY_NAMES}"
        ) from None


def build_instance(
    category: str,
    seed: int,
    overrides: dict | None = None,
    salt: str | None = None,
    params: ParamVector | None = None,
) -> AssetInstance:
    """Sample (or reuse) parameters, evaluate the category's compiled program
    on them and realize one asset. The overrides are checked once, before
    anything is recorded."""
    gen = get_generator(category)
    space = merge_overrides(gen.space, overrides)
    if params is None:
        params = _draw_parameters(gen.space, seed, overrides or {}, salt)
    return realize(gen.blueprint, gen.evaluate(params, space), params, category=category)


__all__ = [
    "CATEGORY_NAMES",
    "CategoryGenerator",
    "GraphBuilder",
    "VariationCount",
    "build_instance",
    "count_variations",
    "get_generator",
]
