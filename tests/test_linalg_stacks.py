"""Stacked definiteness helpers against their one-matrix calls.

min_eig and is_psd take a stack (..., n, n) and answer once per matrix;
each value must equal, bit for bit, the one the matrix's own call gives,
with the default tolerance taken per matrix."""

import numpy as np
import pytest

from it2mpc.linalg import default_tol, is_psd, min_eig

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1e-9]),
                    st.floats(-1e6, 1e6))


@st.composite
def stacks(draw):
    n = draw(st.integers(1, 5))
    lead = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    a = draw(hnp.arrays(np.float64, (*lead, n, n), elements=ENTRIES))
    tol = draw(st.one_of(st.none(), st.floats(0.0, 10.0)))
    return a, tol


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(stacks())
@example((np.zeros((3, 2, 2)), None))
@example((np.array([[[1.0, 2.0], [2.0, 1.0]], [[-0.0, 0.0], [0.0, -0.0]]]),
          None))
def test_stack_equals_per_matrix_calls(case):
    a, tol = case
    flat = a.reshape(-1, *a.shape[-2:])
    got = min_eig(a)
    assert got.shape == a.shape[:-2]
    want = [min_eig(m) for m in flat]
    assert all(isinstance(v, float) for v in want)
    assert np.array_equal(bits(got.ravel()), bits(want))
    verdicts = is_psd(a, tol)
    assert verdicts.shape == a.shape[:-2] and verdicts.dtype == bool
    assert verdicts.ravel().tolist() == [is_psd(m, tol) for m in flat]
    assert np.array_equal(bits(np.ravel(default_tol(a))),
                          bits([default_tol(m) for m in flat]))


def test_one_matrix_still_gives_python_scalars():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert type(min_eig(m)) is float
    assert is_psd(m) is True and is_psd(-m) is False
    assert type(default_tol(m)) is float
