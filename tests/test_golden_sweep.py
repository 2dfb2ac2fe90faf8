"""Golden digest over sweep reports: refactors of the sweep must keep every byte."""

import hashlib
import json

import pytest

from artigen.collision import SweepPlan, check_at, sweep_check
from artigen.errors import PlanTooLargeError
from artigen.generators import CATEGORY_NAMES, build_instance

pytestmark = pytest.mark.golden

SEEDS = range(12)

# Fridge 28986 has French doors that touch at small opening angles.
EXTRA_ASSETS = (("fridge", 28986),)

PLANS = (
    SweepPlan(strategy="random", samples=256, tolerance=1e-6),
    SweepPlan(strategy="random", samples=256, tolerance=0.0),
    SweepPlan(strategy="grid", samples=3),
)

# Each plan's label in the digest is its repr as it read when the digest was
# taken, with the `use_broadphase` field SweepPlan had then, so that the digest
# covers the reports and not the plan's fields.
LABELS = tuple(
    f"SweepPlan(strategy={p.strategy!r}, samples={p.samples}, seed=0,"
    f" pair_filter='adjacent-excluded', tolerance={p.tolerance}, use_broadphase=True)"
    for p in PLANS
)

GOLDEN_SHA256 = "3b5ca8ea0c997c49d5965fd7edf5be530cc47c8634ffeaaa1a12418b6777f3ce"


def test_sweep_report_digest_unchanged():
    """Report JSON of 65 assets, each at its defaults and under three plans, hashes to one value.

    A plan over the grid cap contributes its PlanTooLargeError message in
    place of a report. The digest was taken with Python 3.11.7 and NumPy
    2.4.6; other library versions may round floats differently and change it.
    """
    assets = [(c, s) for c in CATEGORY_NAMES for s in SEEDS] + list(EXTRA_ASSETS)
    digest = hashlib.sha256()
    for category, seed in assets:
        instance = build_instance(category, seed, salt="")
        digest.update(f"{category}/{seed}/defaults\n".encode())
        digest.update(json.dumps(check_at(instance, {}).to_json_dict()).encode())
        for plan, label in zip(PLANS, LABELS):
            digest.update(f"{category}/{seed}/{label}\n".encode())
            try:
                text = json.dumps(sweep_check(instance, plan).to_json_dict())
            except PlanTooLargeError as exc:
                text = str(exc)
            digest.update(text.encode())
    assert digest.hexdigest() == GOLDEN_SHA256
