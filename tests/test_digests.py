"""Pinned SHA-256 digests of reports: a small config per command, and
the default ``verify-lemmas`` run.

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
        "37192d20913b50e9c7211fc8307c2e4f658a83f0977d7f1dbd0a1b05db103218",
    ),
    "moments": (
        ["moments", "--seed", "3", "--samplers", "ewens:2, ewens:1/2", "--n", "50",
         "--functionals", "product:1, product:1*1, product:2", "--samples", "2000"],
        "3e12b2ce467e1dd76676b9780b4aed044bcebc51c74a05a3318b9c2b1e96bd63",
    ),
    "convergence": (
        ["convergence", "--seed", "5", "--samplers", "ewens:2, uniform",
         "--n-grid", "64, 2048", "--functionals", "product:1, product:2",
         "--tv-orders", "2, 3", "--samples", "3000"],
        "85e1f1352e26d53fc0a1f0c826815d0c62c648cd152fbf30446c268da76a2ce7",
    ),
    "moments-single-factor": (
        ["moments", "--seed", "3", "--samplers", "ewens:1/2", "--n", "1000",
         "--functionals", "product:1, product:2*3, fixed-moment:2, two-cycle-rate",
         "--samples", "5000"],
        "60e44fdb8592177b6b247b51dbc938e8fcf9ad51bb17501412caf8d597497a0c",
    ),
    # v = 3000 is above n, so it reads 0 and no power is walked (walking
    # all 3000 powers took 23.6 s).
    "moments-past-n": (
        ["moments", "--seed", "1", "--samplers", "ewens:2, ewens:1/2", "--n", "2000",
         "--functionals", "product:3000", "--samples", "2000"],
        "b8c243757d0c757f30e4d03a9e3957ab728a3364c8a28c92716281615b1b9aaf",
    ),
    "convergence-three-factors": (
        ["convergence", "--seed", "5", "--samplers", "ewens:1, ewens:1, ewens:1",
         "--n-grid", "64, 2048", "--functionals", "product:1, product:3",
         "--tv-orders", "2, 3", "--samples", "3000"],
        "f1acb93c251164d6b77c0cb13c9bd8dcc4c62f069082b1611b88c3e48821ede7",
    ),
    # Non-uniform and uniform middle factors, each drawn from its own stream.
    "convergence-mixed-three-factors": (
        ["convergence", "--seed", "5", "--samplers", "ewens:2, sqrt_fixed:sqrt, ewens:1/2",
         "--n-grid", "64, 2048", "--functionals", "product:1, product:3",
         "--tv-orders", "2, 3", "--samples", "3000"],
        "316f41cdab077ac428cc1358cdd3d226e50dd65da11fcac53ccde2b9f8f49aaa",
    ),
    "convergence-four-factors": (
        ["convergence", "--seed", "5",
         "--samplers", "uniform, ewens:1/2, uniform, sqrt_fixed:sqrt",
         "--n-grid", "64, 2048", "--functionals", "product:1, product:3",
         "--tv-orders", "2, 3", "--samples", "3000"],
        "bb78ddbbbfa68ab930e60b159f5dd25621778d57f3f9fb4578c3fcb005d338dd",
    ),
    # The two Monte Carlo configs of the benchmark; the fixed-type pair at
    # n = 4096 has several row blocks per chunk.
    "convergence-ewens-scan": (
        ["convergence", "--seed", "11", "--samplers", "ewens:2, ewens:1/2",
         "--n-grid", "250, 1000", "--functionals", "product:1, product:2, product:3",
         "--tv-orders", "2, 3", "--samples", "2000"],
        "fe78431da6b1316225e9fba370c138e6a618de3c6fa8c90e3ec4901b7c1dad45",
    ),
    "counterexample-fixed-pair": (
        ["counterexample", "--seed", "11", "--samplers", "sqrt_fixed:sqrt, sqrt_fixed:sqrt",
         "--n", "4096", "--samples", "3000"],
        "edefeba506b750f9f6a20edda52e36fac9655ed7d7bbf4c446906bafa93d64df",
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
    "verify-lemmas-default": (
        ["verify-lemmas"],
        "3dadb253a4a67db5a521d1d919a388dde031a289c1d575028d18d1a6a44c6cfc",
    ),
    "counterexample-ewens": (
        ["counterexample", "--seed", "7", "--samplers", "ewens:2, uniform",
         "--n", "2048", "--samples", "3000"],
        "f1445f3c6d22d84e9e269c7177fadc8706031287b38ea046a430cd64787b6e2a",
    ),
    "counterexample-sqrt-fixed": (
        ["counterexample", "--seed", "7", "--samplers", "sqrt_fixed:sqrt, uniform",
         "--n", "2048", "--samples", "3000"],
        "f1d587f5730cbc0759c4d9add333a200c330c2d118519dc55e73c0f17e6599e3",
    ),
    "counterexample-matching-heavy": (
        ["counterexample", "--seed", "7",
         "--samplers", "matching_heavy:1/2, matching_heavy:1/3", "--n", "2048",
         "--samples", "3000"],
        "50500c1e0365832d42f29c886ffee76341ad00a2e11ae3c9fe6194d09969d32c",
    ),
}


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_report_digest(name, tmp_path):
    argv, digest = _CONFIGS[name]
    path = tmp_path / "report.csv"
    assert main(argv + ["--output", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
