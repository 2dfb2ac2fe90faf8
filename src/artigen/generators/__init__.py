"""The shipped category generators and batch-generation helpers."""

from __future__ import annotations

from functools import lru_cache

from ..evaluate import AssetInstance
from ..errors import InvalidParameterError
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
    """Sample (or reuse) parameters and evaluate the category's compiled
    program on them into one asset. The overrides are checked once, before
    anything is recorded."""
    gen = get_generator(category)
    space = merge_overrides(gen.space, overrides)
    if params is None:
        params = _draw_parameters(gen.space, seed, overrides or {}, salt)
    return AssetInstance(category, params.seed, params, *gen.evaluate(params, space), gen.blueprint)


__all__ = [
    "CATEGORY_NAMES",
    "CategoryGenerator",
    "VariationCount",
    "build_instance",
    "count_variations",
    "get_generator",
]
