"""sym_matrix against the two-triangle formula it replaced.

sym_matrix mirrors the upper triangle through a cached mask; the reference
below is np.triu(a) + np.triu(a, 1).T, written out here. Both must agree bit
for bit, signed zeros included, on single matrices and on stacks."""

import numpy as np
import pytest

from it2mpc.linalg import sym_matrix

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402


def reference_sym(a):
    return np.triu(a) + np.triu(a, 1).swapaxes(-1, -2)


ENTRIES = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def square_stacks(draw):
    n = draw(st.integers(1, 6))
    lead = draw(st.lists(st.integers(1, 4), max_size=2))
    return draw(hnp.arrays(np.float64, (*lead, n, n), elements=ENTRIES))


@given(square_stacks())
@example(np.full((3, 3), -0.0))
@example(np.array([[-0.0, 1.0], [-0.0, -0.0]]))
@example(np.full((2, 2, 2), -0.0))
def test_matches_two_triangle_formula(a):
    before = a.copy()
    got = sym_matrix(a)
    want = reference_sym(a)
    assert got.shape == a.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(got, got.swapaxes(-1, -2))
    # the input is neither modified nor shared with the result
    assert np.array_equal(a, before)
    assert np.array_equal(np.signbit(a), np.signbit(before))
    assert not np.shares_memory(got, a)
