"""The sampling path's outputs, pinned as float hex.

tests/data/sampling_pins.json holds Monte-Carlo audit reports and
disturbance sequences recorded before the sampler drew a chunk into
per-ball arrays (tests/sampling_pins.py writes it). They must stay bit
for bit: the same Generator calls in the same order, and the same
arithmetic on each draw. The audit cases are those of
tests/test_rpi_batched.py; 2049 samples cross a 2048-sample chunk edge."""

import json

import pytest

from it2mpc.simulation import DisturbanceModel, rpi_monte_carlo

pytest.importorskip("hypothesis")       # test_rpi_batched, whose cases these are
import sampling_pins as pins  # noqa: E402
from conftest import pin_environment  # noqa: E402

PINS = json.loads(pins.PINS.read_text())
CASES = pins.CASES


@pytest.mark.parametrize("case", sorted(CASES))
def test_audit_reports_are_pinned(case):
    system, params, dv = CASES[case]()
    for seed in pins.SEEDS:
        for count in pins.COUNTS:
            got = pins.hexed(rpi_monte_carlo(system, params, dv,
                                             n_samples=count, seed=seed))
            assert got == PINS["rpi_monte_carlo"][f"{case}/{seed}/{count}"], \
                f"seed {seed}, count {count}: " + pin_environment(
                    PINS["versions"])


@pytest.mark.parametrize("name", ["example1", "mixed_dims", "zero_radius"])
@pytest.mark.parametrize("kind", ["uniform_ball", "worst_case_boundary"])
def test_disturbance_sequences_are_pinned(name, kind):
    assert pins.realize_hex(name, kind) == \
        PINS["realize"][f"{name}/{kind}"], pin_environment(PINS["versions"])


def test_zero_radius_balls_stay_at_the_origin():
    system, radii = pins.realize_systems()["zero_radius"]
    for step in DisturbanceModel(seed=7, radii=radii).realize(system, 5):
        assert not step[0].any() and not step[2].any()
        assert step[1].any()
