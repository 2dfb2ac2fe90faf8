"""Golden digest over exported bundles: refactors must keep every byte."""

import hashlib

import pytest

from artigen.export import export_mjcf, export_urdf, write_manifest
from artigen.generators import CATEGORY_NAMES, build_instance

pytestmark = pytest.mark.golden

SEEDS = range(20)

GOLDEN_SHA256 = "d82db882bb95e6ce4e14b0e9667832c190bb90b8b336ad1b314f0175d14f0211"


def test_bundle_digest_unchanged(tmp_path):
    """URDF, MJCF and manifest bytes of 5 categories x seeds 0-19 hash to one value.

    The digest was taken with Python 3.11.7, NumPy 2.4.6 and SciPy 1.17.1;
    other library versions may round floats differently and change it.
    """
    digest = hashlib.sha256()
    for category in CATEGORY_NAMES:
        for seed in SEEDS:
            instance = build_instance(category, seed, salt="")
            out = tmp_path / category / str(seed)
            export_urdf(instance, out)
            export_mjcf(instance, out)
            write_manifest(instance, out, formats=("urdf", "mjcf"), salt="")
            for path in sorted(out.rglob("*"), key=lambda p: p.relative_to(out).as_posix()):
                if path.is_file():
                    rel = path.relative_to(out).as_posix()
                    digest.update(f"{category}/{seed}/{rel}\n".encode())
                    digest.update(path.read_bytes())
    assert digest.hexdigest() == GOLDEN_SHA256
