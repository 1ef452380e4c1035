"""Pinned SHA-256 digests of small reports, one config per command.

A config fixes its report bytes exactly, so any change to the random
draws, the arithmetic or the report layout shows up here. A change that
alters a digest on purpose updates it and says why in CHANGES.md.
The sizes are chosen so that some grid points span more than one chunk,
which puts the stream keying under the digest too.
"""

import hashlib

import pytest

from permprod.cli import main

_CONFIGS = {
    "sample": (
        ["sample", "--seed", "3", "--samplers", "uniform, ewens:2", "--n", "6",
         "--samples", "5"],
        "ff33cf11caa1cdced7e1cb6fae30a24524e1181c7c39b7dc9d1f4770b548dbac",
    ),
    "moments": (
        ["moments", "--seed", "3", "--samplers", "ewens:2, ewens:1/2", "--n", "50",
         "--functionals", "product:1, product:1*1, product:2", "--samples", "2000"],
        "a6860c05339b7956eda8e1cac38a107771ceba74b9e0026a6a870548a8d75ad9",
    ),
    "convergence": (
        ["convergence", "--seed", "5", "--samplers", "ewens:2, uniform",
         "--n-grid", "64, 2048", "--functionals", "product:1, product:2",
         "--tv-orders", "2, 3", "--samples", "3000"],
        "eecb3a6ca6f3b622e793c764eb7459e066246ad791e6e530b605ccfb728efd84",
    ),
    "exact": (
        ["exact", "--seed", "0", "--samplers", "ewens:2, ewens:1/2", "--n", "5",
         "--v-vec", "1, 2"],
        "2e1d927d521526d100a444847822ca4e47e3b876f5270460c31fd3ecb08a2132",
    ),
    "verify-lemmas": (
        ["verify-lemmas", "--seed", "0", "--pair-n", "3", "--single-n", "4"],
        "b4cf10d5399ef88e116d5ea39f775f7eeb1b08253410888b76747a15eace02ad",
    ),
    "counterexample-ewens": (
        ["counterexample", "--seed", "7", "--samplers", "ewens:2, uniform",
         "--n", "2048", "--samples", "3000"],
        "fa37e1391f6b706a0db03103d37111e1d354adface8cfd56df581568c41dbd13",
    ),
    "counterexample-sqrt-fixed": (
        ["counterexample", "--seed", "7", "--samplers", "sqrt_fixed:sqrt, uniform",
         "--n", "2048", "--samples", "3000"],
        "a6226bc9299f893aabde1f8e996589b3bb169c2ac39d75308a0d09b21e1807e2",
    ),
    "counterexample-matching-heavy": (
        ["counterexample", "--seed", "7",
         "--samplers", "matching_heavy:1/2, matching_heavy:1/3", "--n", "2048",
         "--samples", "3000"],
        "d2380464699b9f3d4cbd8c3341cbf4276f91a6e7ad7197be73bf93edb9b9f160",
    ),
}


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_report_digest(name, tmp_path):
    argv, digest = _CONFIGS[name]
    path = tmp_path / "report.csv"
    assert main(argv + ["--output", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
