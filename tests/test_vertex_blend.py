"""The vertex-to-blend lemma (synthesis.verify_certificate's docstring).

At any weights (w, h) in the simplex product, the blended test matrix of a
subsystem and family is bounded by its vertices: its largest eigenvalue is
at most the largest vertex eigenvalue, up to rounding scaled by the matrix
size. Drawn on the four bundled configs at random set sizes and weights, on
the Schur fold of the full form (where the lemma is proved) and on the full
form itself."""

import functools

import numpy as np
import pytest

from it2mpc.configio import bundled_config_names, load_bundled_config
from it2mpc.lmis import DecisionVars

from conftest import assemble_one
from test_lmis import FAMILIES, _fold, _slack_tail

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@functools.cache
def certificate(name):
    """A bundled config's system, parameters and gains (example1's where it
    ships none)."""
    cfg = load_bundled_config(name)
    return cfg.system, cfg.params, cfg.gains or load_bundled_config(
        "example1").gains


def simplex_point(draw, n):
    """Weights on the n-simplex, vertices and faces included."""
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
               .filter(lambda v: sum(v) > 0.0))
    return np.array(raw) / sum(raw)


@st.composite
def cases(draw):
    name = draw(st.sampled_from(bundled_config_names()))
    system, params, gains = certificate(name)
    i = draw(st.integers(0, system.n_subsystems - 1))
    sub = system.subsystems[i]
    scale = draw(st.floats(-2.0, 2.0))
    xi = [10.0 ** scale * (0.7 + 0.4 * j)
          for j in range(system.n_subsystems)]
    dv = DecisionVars(gains=gains, xi=xi)
    w = simplex_point(draw, sub.n_rules)
    h = simplex_point(draw, sub.n_controller_rules)
    return (system, params, dv, i, w, h, draw(st.sampled_from(list(FAMILIES))),
            draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(cases())
def test_blend_bounded_by_vertices(case):
    system, params, dv, i, w, h, family, folded = case
    vertex, blended = FAMILIES[family]
    sub = system.subsystems[i]
    ls = [l for l in range(sub.n_rules) for _ in range(sub.n_controller_rules)]
    ms = list(range(sub.n_controller_rules)) * sub.n_rules
    corners = assemble_one(vertex, system, params, dv, i, ls, ms)
    tail = _slack_tail(corners)
    corners = corners.test_matrix()
    blend = assemble_one(blended, system, params, dv, i, [w],
                         [h]).test_matrix()
    if folded:   # the fold of the compression is the compressed fold
        corners, blend = _fold(corners, tail), _fold(blend, tail)
    top_vertex = float(np.max(np.linalg.eigvalsh(corners)[:, -1]))
    top_blend = float(np.linalg.eigvalsh(blend)[0, -1])
    norm = max(float(np.max(np.sum(np.abs(t), axis=-1)))
               for t in (corners, blend))
    assert top_blend <= top_vertex + 1e-12 * max(1.0, norm)
