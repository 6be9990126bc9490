"""SigmoidMF grades a float with math.exp and an array with scipy's expit:
both paths give expit's value bit for bit, on drawn floats and arrays and at
the edges (signed zeros, the smallest subnormals, exp's overflow edge and
the infinities), and importing the command line imports no scipy module."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from it2mpc.membership import SigmoidMF, _expit_float

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from scipy.special import expit  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
# exp(x) overflows just above log(DBL_MAX) = 709.78...
OVERFLOW = math.log(sys.float_info.max)
EDGES = [0.0, -0.0, 5e-324, -5e-324, OVERFLOW, -OVERFLOW,
         math.nextafter(OVERFLOW, math.inf), -math.nextafter(OVERFLOW, math.inf),
         745.2, -745.2, 1e308, -1e308, math.inf, -math.inf]
FLOATS = st.floats(allow_nan=False) | st.sampled_from(EDGES)


def _same(got, want) -> bool:
    """Equal with the same sign, so -0.0 and 0.0 differ."""
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


@settings(max_examples=500, deadline=None)
@given(FLOATS)
def test_float_path_is_expit(x):
    got = _expit_float(x)
    assert type(got) is float
    assert _same(got, float(expit(x)))


@pytest.mark.parametrize("x", EDGES)
def test_float_path_is_expit_at_the_edges(x):
    assert _same(_expit_float(x), float(expit(x)))


def test_nan_stays_nan():
    assert math.isnan(_expit_float(math.nan))


MFS = [SigmoidMF(shift=4.0, divisor=1.0, perturb_amplitude=1.0),
       SigmoidMF(shift=-1.5, divisor=-2.0, complemented=True),
       SigmoidMF(shift=0.5, divisor=0.4, form="logistic")]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3) | st.sampled_from(EDGES[:10]),
                min_size=1, max_size=20), st.sampled_from(MFS))
def test_float_grades_equal_array_grades(zs, mf):
    # a float premise (math.exp) and the same premise in an array (expit)
    # grade bit for bit alike, and each float grade is a Python float
    grades = mf(np.array(zs))
    for z, want in zip(zs, grades.tolist()):
        got = mf(z)
        assert type(got) is float
        assert _same(got, want)


def test_cli_import_loads_no_scipy():
    out = subprocess.run([sys.executable, "-X", "importtime", "-c",
                          "import it2mpc.cli"], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert "scipy" not in out.stderr
