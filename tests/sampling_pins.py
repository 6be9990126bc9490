"""The pinned cases of tests/test_sampling_pins.py, and the writer of their
pins, tests/data/sampling_pins.json: the Monte-Carlo audit's reports, the
and the disturbance sequences, every float as hex.

The pins fix the sampling path's random stream and arithmetic: any change
that reorders a Generator call or rounds a draw differently moves them.
Regenerate only on purpose, from the tests directory:

    PYTHONPATH=../src python sampling_pins.py
"""

import json
from pathlib import Path

import numpy as np

from it2mpc.plant import LargeScaleSystem, Rule, Subsystem
from it2mpc.simulation import DisturbanceModel, rpi_monte_carlo

from test_rpi_batched import CASES

PINS = Path(__file__).resolve().parent / "data" / "sampling_pins.json"

SEEDS = (0, 1, 5, 99)
COUNTS = (1, 9, 10, 100, 2049)      # 2049 crosses a 2048-sample chunk
REALIZE_STEPS = 40


def hexed(report: dict) -> dict:
    return {k: v.hex() if isinstance(v, float) else v
            for k, v in report.items()}


def mixed_dims_system() -> LargeScaleSystem:
    """Four subsystems with disturbance dims 1, 3, 2, 3 and radii 0.2, 0.5,
    1.0, 0.1: balls of equal and unequal dimension side by side."""
    subs = []
    for n_d, eta in ((1, 0.2), (3, 0.5), (2, 1.0), (3, 0.1)):
        rule = Rule(A=0.5 * np.eye(2), B=np.ones((2, 1)), E=np.ones((2, n_d)))
        subs.append(Subsystem(rules=(rule,), eta=eta))
    return LargeScaleSystem(subsystems=tuple(subs))


def realize_systems() -> dict:
    return {"example1": (CASES["fixture"]()[0], None),
            "mixed_dims": (mixed_dims_system(), None),
            "zero_radius": (mixed_dims_system(), (0.0, 0.5, 0.0, 0.1))}


def realize_hex(name: str, kind: str) -> list:
    """One pinned disturbance sequence, every entry as float hex."""
    system, radii = realize_systems()[name]
    seq = DisturbanceModel(kind=kind, seed=7, radii=radii).realize(
        system, REALIZE_STEPS)
    return [[[float(v).hex() for v in d] for d in step] for step in seq]


def realize_pins() -> dict:
    return {f"{name}/{kind}": realize_hex(name, kind)
            for name in realize_systems()
            for kind in ("uniform_ball", "worst_case_boundary")}


def main():
    reports = {}
    for case in sorted(CASES):
        system, params, dv = CASES[case]()
        for seed in SEEDS:
            for count in COUNTS:
                reports[f"{case}/{seed}/{count}"] = hexed(rpi_monte_carlo(
                    system, params, dv, n_samples=count, seed=seed))
    pins = {"rpi_monte_carlo": reports, "realize": realize_pins()}
    PINS.write_text(json.dumps(pins, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
