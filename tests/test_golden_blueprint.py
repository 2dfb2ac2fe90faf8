"""Golden blueprint signatures: the hashed tree keeps its bytes for every
category and every pattern."""

import pytest

from artigen.blueprint import extract_blueprint
from artigen.generators import get_generator
from artigen.patterns import build_pattern

pytestmark = pytest.mark.golden

CATEGORY_SIGNATURES = {
    "door": "5be897f1cf604d4949f86d7c0dab6072103ac8474479a6311bd14822fdfcdfae",
    "toaster": "826533bc7d28517ff039a437f833220c8e0614a15dfebd6ac637440123cf70fd",
    "fridge": "85a1066309887eb76bc06d4b17541407949c8096e5ffc4e212fdaaed5c1ab3ec",
    "dishwasher": "719bec220cfc5f9af3490e6369bc6b34abdde7b00245553457ba0fb3e9cc2bc3",
    "lamp": "c7ba021376127a694d4683c109c9ed1969ccb8d7efcd721be39b908a872ead08",
}

PATTERN_SIGNATURES = {
    "simple_revolute": "1f5a589aa9d0df11f752930bdb75a530db894828175cb41734fa49f4d5b13d64",
    "simple_prismatic": "eafe5c3a8e00ff0a4d098a0c54d9da8ccadb403c7fd2112941e0434c57b49b5b",
    "duplicated_bodies": "2ddbd5f953b8f19035601353a18f3c9245007cf52fd6b5f0e29f9d7430c52fea",
    "chained_joints": "708e1187ac6da22d9179ffed0068937bee192826eb1c874f23b7d455a99c11c9",
    "shared_parent": "f06efc2c693e50f309525b6e2cfbfdc4a77df7a03e2d6dab1cd43aa05b2e304e",
    "multi_joint_screw": "4f1deaa7c3f7525c1c531aad3823b8fcfe9fe6121711ac040b952239432ab40c",
}


@pytest.mark.parametrize("category", sorted(CATEGORY_SIGNATURES))
def test_category_signature_unchanged(category):
    assert get_generator(category).blueprint.signature() == CATEGORY_SIGNATURES[category]


@pytest.mark.parametrize("pattern", sorted(PATTERN_SIGNATURES))
def test_pattern_signature_unchanged(pattern):
    assert extract_blueprint(build_pattern(pattern)).signature() == PATTERN_SIGNATURES[pattern]
