"""The pinned cases of tests/test_verify_pins.py, and the writer of their
pins, tests/data/verify_pins.json: one verify_certificate report per case.

A pin is the report's margins in key order, then its blended_worst and
worst, every float as hex, and its feasible verdict. The cases are the
stored example1 certificate with and without its initial state, the cold
example1_synthesis certificates of both set-size modes, example2_stabilized's
config gains at xi = 1, the tiny plant, a system of two layout groups and
the ring of 12 copies of example1_synthesis (tests/ring.py). The file
also records, under "versions", the numpy and scipy versions it was
written under.

The pins fix the re-check bit for bit: any change that rounds an assembled
matrix or an eigenvalue differently moves them. Regenerate only on purpose,
from the tests directory:

    PYTHONPATH=../src python verify_pins.py
"""

import functools
import json
from pathlib import Path

import numpy as np

from it2mpc.configio import load_bundled_config, load_certificate
from it2mpc.lmis import DecisionVars
from it2mpc.synthesis import SynthesisConfig, minimize_xi, verify_certificate

from conftest import (build_tiny_system, library_versions, tiny_params,
                      two_layout_groups)
from ring import ring

PINS = Path(__file__).resolve().parent / "data" / "verify_pins.json"
CERTIFICATE = (Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
               / "example1_certificate.json")


@functools.cache
def _config(name: str):
    return load_bundled_config(name)


def _fixture(with_state: bool):
    cfg = _config("example1_synthesis")
    dv, _ = load_certificate(CERTIFICATE, cfg.system)
    x0 = cfg.simulation.x0 if with_state else None
    return cfg.system, cfg.params, dv, x0, cfg.synthesis


def _cold(mode: str):
    cfg = _config("example1_synthesis")
    x0 = cfg.simulation.x0
    dv = minimize_xi(cfg.system, cfg.params, x0, cfg.synthesis, mode=mode).dv
    return cfg.system, cfg.params, dv, x0, cfg.synthesis


def _stabilized():
    cfg = _config("example2_stabilized")
    dv = DecisionVars(gains=cfg.gains, xi=[1.0] * cfg.system.n_subsystems)
    return cfg.system, cfg.params, dv, cfg.simulation.x0, cfg.synthesis


def _tiny():
    gains = [np.array([[-0.3, 0.1], [0.05, -0.2]]),
             np.array([[-0.1, 0.0], [0.2, -0.4]])]
    return (build_tiny_system(), tiny_params(), DecisionVars([gains], [1.3]),
            [np.array([0.4, -0.3])], SynthesisConfig())


def _with_config(build):
    def case():
        system, params, dv, x0 = build()
        return system, params, dv, x0, _config("example1_synthesis").synthesis
    return case


# case -> () -> (system, params, dv, x_all, cfg) for verify_certificate
CASES = {
    "fixture/x0": lambda: _fixture(True),
    "fixture/no_state": lambda: _fixture(False),
    "example1_synthesis/cold/common": lambda: _cold("common"),
    "example1_synthesis/cold/per_subsystem": lambda: _cold("per_subsystem"),
    "example2_stabilized/gains_xi_1": _stabilized,
    "tiny": _tiny,
    "two_layout_groups": _with_config(two_layout_groups),
    "ring_12": _with_config(lambda: ring(12)),
}


def report_pin(report: dict) -> dict:
    """A verify report as its pin: margins as [key, hex] pairs in key
    order, blended_worst and worst as hex, feasible as a bool."""
    return {"margins": [[key, float(v).hex()]
                        for key, v in report["margins"].items()],
            "blended_worst": float(report["blended_worst"]).hex(),
            "worst": float(report["worst"]).hex(),
            "feasible": bool(report["feasible"])}


def case_pin(case: str) -> dict:
    system, params, dv, x_all, cfg = CASES[case]()
    return report_pin(verify_certificate(system, params, dv, x_all, cfg))


def text() -> str:
    """The pins file's text, as main writes it."""
    pins = {case: case_pin(case) for case in CASES}
    pins["versions"] = library_versions()
    return json.dumps(pins, indent=1, sort_keys=True) + "\n"


def main():
    PINS.write_text(text())


if __name__ == "__main__":
    main()
