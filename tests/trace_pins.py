"""The pinned cases of tests/test_trace_pins.py, and the writer of their
pins, tests/data/trace_pins.json: one sha256 digest per closed-loop case.

A case is a bundled config and a gain source, run at every disturbance
seed, kind and step count below. Its digest covers, for each run, the
trace's states, inputs, disturbances, model and controller weights,
certificate values V, stage costs psi, set sizes and worst margins as float
hex, its flags, solver calls and meta, the Python types of the V and psi
entries, and the iss_check report; a run whose synthesis fails at step 0
contributes its exception instead.

The pins fix the closed loop's records bit for bit: any change that rounds
a recorded or derived value differently moves them. Regenerate only on
purpose, from the tests directory:

    PYTHONPATH=../src python trace_pins.py
"""

import functools
import hashlib
import json
from pathlib import Path

import numpy as np

from it2mpc.configio import bundled_config_names, load_bundled_config, load_certificate
from it2mpc.simulation import (DisturbanceModel, InitialInfeasible, iss_check,
                               run_online_loop)

PINS = Path(__file__).resolve().parent / "data" / "trace_pins.json"
CERTIFICATE = (Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
               / "example1_certificate.json")

SEEDS = (1, 2, 7)
KINDS = ("uniform_ball", "sinusoidal", "zero")
STEPS = (0, 1, 25)

# gain source: (resynth, xi_mode, start); start "supplied" runs the config's
# own gains, "warm" seeds step 0 with the stored example1 certificate
SOURCES = {
    "every_step/common": ("every_step", "common", None),
    "every_step/per_subsystem": ("every_step", "per_subsystem", None),
    "once": ("once", None, None),
    "warm/common": ("every_step", "common", "warm"),
    "warm/per_subsystem": ("every_step", "per_subsystem", "warm"),
    "supplied": ("once", None, "supplied"),
}


def cases() -> list:
    """(config, source) pairs: every synthesizing source on every config,
    the warm ones where the stored certificate fits (example1_synthesis),
    the supplied gains where a config carries them."""
    out = []
    for name in bundled_config_names():
        has_gains = load_bundled_config(name).gains is not None
        for source, (_, _, start) in SOURCES.items():
            if (start == "warm" and name != "example1_synthesis"
                    or start == "supplied" and not has_gains):
                continue
            out.append(f"{name}/{source}")
    return out


def hexed(obj):
    """obj with every float as hex and every array as its dtype, shape and
    hex entries; lists, tuples and dicts recursively."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, np.ndarray):
        return {"dtype": str(obj.dtype), "shape": list(obj.shape),
                "v": [hexed(v) for v in obj.ravel().tolist()]}
    if isinstance(obj, (list, tuple)):
        return [hexed(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): hexed(v) for k, v in obj.items()}
    return obj


@functools.cache
def _config(name: str):
    return load_bundled_config(name)


@functools.cache
def _certificate(name: str):
    return load_certificate(CERTIFICATE, _config(name).system)[0]


def run_record(config: str, source: str, seed: int, kind: str, steps: int):
    """Everything one run pins, hexed."""
    cfg = _config(config)
    resynth, xi_mode, start = SOURCES[source]
    sim = cfg.simulation
    warm = _certificate(config) if start == "warm" else None
    try:
        trace = run_online_loop(
            cfg.system, cfg.params, sim.x0, steps,
            dist=DisturbanceModel(kind=kind, seed=seed), resynth=resynth,
            syn_cfg=cfg.synthesis,
            gains=cfg.gains if start == "supplied" else None, Ts=cfg.Ts,
            mu_bar=sim.mu_bar, mode=sim.mode, rho_bar=sim.rho_bar,
            xi_mode=xi_mode, warm=warm)
    except InitialInfeasible as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    fields = ("x", "u", "d", "w", "h", "V", "psi", "xi", "worst_margin",
              "resynthesized", "feasible", "solves", "meta")
    record = {name: hexed(getattr(trace, name)) for name in fields}
    record["types"] = {
        "V": sorted({type(v).__name__ for row in trace.V for v in row}),
        "psi": sorted({type(v).__name__ for v in trace.psi})}
    record["iss_check"] = hexed(iss_check(trace, cfg.params))
    return record


def case_digest(case: str) -> str:
    """sha256 over the records of every run of one case."""
    config, source = case.split("/", 1)
    records = [run_record(config, source, seed, kind, steps)
               for seed in SEEDS for kind in KINDS for steps in STEPS]
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main():
    pins = {case: case_digest(case) for case in cases()}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
