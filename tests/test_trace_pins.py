"""The closed loop's traces and iss_check reports, pinned as float hex.

tests/data/trace_pins.json holds one digest per case (a bundled config and
a gain source, over disturbance seeds 1, 2 and 7, kinds uniform_ball,
sinusoidal and zero, and 0, 1 and 25 steps), recorded before the loop
derived its certificate values and stage costs after the run
(tests/trace_pins.py writes it). They must stay bit for bit, with V and psi
entries Python floats."""

import json

import pytest

import trace_pins as pins

PINS = json.loads(pins.PINS.read_text())


def test_every_case_is_pinned():
    assert sorted(pins.cases()) == sorted(PINS)


@pytest.mark.parametrize("case", sorted(PINS))
def test_trace_digest_is_pinned(case):
    assert pins.case_digest(case) == PINS[case]


def test_values_and_costs_are_python_floats():
    record = pins.run_record("example1_synthesis", "every_step/common", 1,
                             "uniform_ball", 3)
    assert record["types"] == {"V": ["float"], "psi": ["float"]}
    assert len(record["V"]) == 4 and len(record["psi"]) == 3
