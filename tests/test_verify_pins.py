"""verify_certificate's reports, pinned as float hex.

tests/data/verify_pins.json holds one report per case of
tests/verify_pins.py (margins in key order, blended_worst, worst and the
verdict), recorded before the conditions were assembled one shape group at
a time. They must stay bit for bit, and the writer must reproduce the file
byte for byte."""

import json

import pytest

import verify_pins as pins
from conftest import pin_environment

PINS = json.loads(pins.PINS.read_text())
VERSIONS = PINS.pop("versions")


def test_every_case_is_pinned():
    assert sorted(pins.CASES) == sorted(PINS)


@pytest.mark.parametrize("case", sorted(PINS))
def test_verify_report_is_pinned(case):
    assert pins.case_pin(case) == PINS[case], pin_environment(VERSIONS)


def test_writer_reproduces_the_file():
    assert pins.text() == pins.PINS.read_text(), pin_environment(VERSIONS)
