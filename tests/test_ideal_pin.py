"""Pinned ideal packings.

``ideal_packing`` builds one saturating packing per PSP level.  The trees
and weights of every level are pinned by SHA-256 on E1, C5, TT, K4 and the
rest of the first ten graphs of the suite (n <= 4), so a change to how a
level is packed shows here.  A second test counts the saturating packings:
one per level.
"""

import hashlib

import pytest

import kcut.lp as lp_mod
from kcut import ideal_packing, principal_sequence, rational_str

from conftest import full_suite

GRAPHS = dict(full_suite()[:10])  # E1, C5, TT, K4, P3, then random graphs

PINS = {
    "E1": "42ae1bcbe9a693a1aad6d645cf7db87641ab349da4036dfddc8eaebd8192a317",
    "C5": "c73f4d85c4d05807e448f787aaae5ab9ce56a102bb791c6975cc419c05d6c27a",
    "TT": "815a188121cadbb6f741ad5fc63dfc84c3d7f97ce559d815756ee5a1025ea9d1",
    "K4": "56b612b318d7f3691714e77a8cf69deabb26fe4e7389eb3826d79877abe4363d",
    "P3": "490890517fa49b60cbc61d46834ecac9fa621351c9f8f69a043894cfae78345a",
    "g00-n2": "8dafd7aec78c4ada4198109e701c0f581f8e7eb01341450ddf8a1ce25c47a04f",
    "g01-n3": "12d31584e9081ec80c9e7a437ddba75e72571f8a3b9223e81256222e3c5eca20",
    "g02-n3": "490890517fa49b60cbc61d46834ecac9fa621351c9f8f69a043894cfae78345a",
    "g03-n4": "bac5f4f6519fa574b913301250d95a156ad7f6d5b57be4ce63698f78b524893f",
    "g04-n4": "0727d6c409341142b4d746ec80b1700f67edd442fd12b5190e8e4ddcf3994b99",
}


def _digest(ip) -> str:
    text = "".join(
        f"level {i}\n"
        + "".join(f"{list(t)} {rational_str(w)}\n" for t, w in zip(p.trees, p.weights))
        for i, p in enumerate(ip.levels, start=1)
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_ideal_packing_pin(name):
    assert _digest(ideal_packing(principal_sequence(GRAPHS[name]))) == PINS[name]


def test_one_saturating_pack_per_level(tt, monkeypatch):
    calls = []
    real = lp_mod.saturating_pack

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lp_mod, "saturating_pack", counting)
    # TT splits both triangles at level 2, in one call
    ideal_packing(principal_sequence(tt))
    assert len(calls) == len(principal_sequence(tt).levels) == 2
