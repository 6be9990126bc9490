"""Assembly tests for the block inequality conditions.

The scalar oracles below re-derive each condition's quadratic form term by
term at the normalized scale P = X/xi, using plain vector algebra — no block
placement and no shared assembly helpers. The exact bridges to the assembled
(X-scale) matrices are

    invariance:  v' M v = xi_i^2 * scalar(P-scale)
    decrease:    v' M v = xi_i   * scalar(P-scale)

with every coupling sum carrying the neighbour's own xi_j through X_j = xi_j P_j.

The oracles expand the Schur fold of each full form: its slack tail (n_x
for invariance, n_u + n_x for decrease) folded into the head by
linalg.schur_reduce, which puts n theta'X theta (and k'Mk) on the state
block.

A second reference, the block-by-block assembly that lmis._Layout replaced,
pins the layout's stacks entry for entry, and its folded form pins the
folds.
"""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from it2mpc import lmis
from it2mpc.linalg import (InvalidMatrixError, SingularBlockError, is_nsd,
                           is_psd, max_eig, min_eig, schur_reduce,
                           sym_matrix)
from it2mpc.lmis import (DecisionVars, FixedParams, assemble_containment,
                         assemble_decrease, assemble_decrease_blended,
                         assemble_invariance, assemble_invariance_blended,
                         rpi_decrease_scalar)
from it2mpc.plant import blend, blend_gains, step_closed_loop
from it2mpc.configio import (bundled_config_names, load_bundled_config,
                             load_certificate)
from it2mpc.membership import IT2MembershipFamily, SigmoidMF
from it2mpc.plant import LargeScaleSystem, Rule, Subsystem

from conftest import (assemble_one, build_example1_system, build_tiny_system,
                      containment_block, example1_reference_gains,
                      example1_reference_params, shape_params, tiny_params)


# ---------------------------------------------------------------- helpers

def _rand_pd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + n * np.eye(n))


def _draw_setup(rng, calm=False):
    """Random coupled system + params + decision variables.

    calm=True draws contraction-friendly instances (small dynamics, mild
    couplings, zero gains) so that definiteness verdicts span both outcomes.
    """
    n_sub = int(rng.integers(2, 5))
    n_x = int(rng.integers(1, 4))
    a_scale = 0.15 if calm else 1.0
    e_scale = 0.1 if calm else 1.0
    g_scale = 0.02 if calm else 1.0
    subs = []
    for i in range(n_sub):
        n_u = int(rng.integers(1, 3))
        n_d = int(rng.integers(1, 3))
        n_rules = int(rng.integers(1, 3))
        rules = tuple(
            Rule(A=a_scale * rng.standard_normal((n_x, n_x)),
                 B=rng.standard_normal((n_x, n_u)),
                 E=e_scale * rng.standard_normal((n_x, n_d)))
            for _ in range(n_rules))
        couplings = {}
        for j in range(n_sub):
            if j == i or rng.random() < 0.35:
                continue
            g = rng.standard_normal((n_x, n_x))
            if n_x > 1 and rng.random() < 0.3:
                g = np.outer(rng.standard_normal(n_x), rng.standard_normal(n_x))
            couplings[j] = g_scale * g
        subs.append(Subsystem(rules=rules, couplings=couplings))
    system = LargeScaleSystem(subsystems=tuple(subs))
    system.validate()
    params = FixedParams(
        X=[_rand_pd(rng, n_x) for _ in range(n_sub)],
        lam=[0.5 if calm else float(rng.uniform(0.05, 0.95)) for _ in range(n_sub)],
        N_const=[float(rng.uniform(1.0, 3.0) if calm else rng.uniform(0.1, 3.0))
                 for _ in range(n_sub)],
        M=[_rand_pd(rng, subs[i].n_u) for i in range(n_sub)],
        tau=[float(rng.uniform(0.5, 3.0) if calm else rng.uniform(0.1, 3.0))
             for _ in range(n_sub)],
        Q=_rand_pd(rng, n_x, scale=0.02 if calm else 1.0),
        R=np.eye(1),
        alpha=float(rng.uniform(2.0, 4.0)),
    )
    params.validate()
    dv = DecisionVars(
        gains=[[np.zeros((subs[i].n_u, n_x)) if calm
                else rng.standard_normal((subs[i].n_u, n_x))
                for _ in range(subs[i].n_rules)]
               for i in range(n_sub)],
        xi=[float(rng.uniform(1.0, 3.0) if calm else rng.uniform(0.2, 3.0))
            for _ in range(n_sub)],
    )
    dv.validate()
    return system, params, dv


def _pick_vertex(rng, system):
    i = int(rng.integers(system.n_subsystems))
    sub = system.subsystems[i]
    l = int(rng.integers(sub.n_rules))
    m = int(rng.integers(sub.n_controller_rules))
    return i, sub, l, m


def _draw_point(rng, system, sub):
    d = rng.standard_normal(sub.n_d)
    x_i = rng.standard_normal(sub.n_x)
    keys = sorted(sub.couplings)
    x_js = {j: rng.standard_normal(system.subsystems[j].n_x) for j in keys}
    v = np.concatenate([d, x_i] + [x_js[j] for j in keys])
    return d, x_i, x_js, v


def _slack_tail(inst):
    """Width of a full form's slack tail: n_x for invariance, n_u + n_x for
    decrease."""
    return sum(inst.slot_dims[-2 if inst.origin == "decrease" else -1:])


def _fold(mats, tail):
    """schur_reduce(m, size - tail) of each matrix of a stack."""
    split = mats.shape[-1] - tail
    return np.array([schur_reduce(m, split) for m in mats])


def _folded(inst):
    """The Schur folds of a full-form instance's stack."""
    return _fold(inst.matrix, _slack_tail(inst))


# ------------------------------------------------------- scalar oracles

def _invariance_scalar(system, params, dv, i, theta, e, d, x_i, x_js):
    """Normalized-scale scalar expansion of the invariance condition."""
    sub = system.subsystems[i]
    xi = dv.xi[i]
    p_i = params.X[i] / xi
    n = system.n_subsystems
    root_a = float(np.sqrt(params.alpha))
    keys = sorted(sub.couplings)
    gx = np.zeros(sub.n_x)
    for j in keys:
        gx = gx + sub.couplings[j] @ x_js[j]
    tx = theta @ x_i
    ed = e @ d
    s = n * float(tx @ p_i @ tx)
    for j in keys:
        gxi = sub.couplings[j] @ x_i
        p_j = params.X[j] / dv.xi[j]
        s += n * root_a * (dv.xi[j] / xi) * float(gxi @ p_j @ gxi)
    s -= (1.0 - params.lam[i]) * float(x_i @ p_i @ x_i)
    s += 2.0 * float(tx @ p_i @ ed)
    s += float(ed @ p_i @ ed)
    s += 2.0 * float(gx @ p_i @ ed)
    s -= params.lam[i] * params.N_const[i] * float(d @ d)
    s -= (params.alpha - 1.0) * float(gx @ p_i @ gx)
    s += 2.0 * (1.0 - root_a) * float(gx @ p_i @ tx)
    return s / xi


def _decrease_scalar(system, params, dv, i, theta, e, k, d, x_i, x_js):
    """Normalized-scale scalar expansion of the cost-decrease condition."""
    sub = system.subsystems[i]
    xi = dv.xi[i]
    p_i = params.X[i] / xi
    n = system.n_subsystems
    root_a = float(np.sqrt(params.alpha))
    keys = sorted(sub.couplings)
    gx = np.zeros(sub.n_x)
    for j in keys:
        gx = gx + sub.couplings[j] @ x_js[j]
    tx = theta @ x_i
    ed = e @ d
    kx = k @ x_i
    s = n * float(tx @ p_i @ tx)
    for j in keys:
        gxi = sub.couplings[j] @ x_i
        p_j = params.X[j] / dv.xi[j]
        s += n * root_a * (dv.xi[j] / xi) * float(gxi @ p_j @ gxi)
    s -= float(x_i @ p_i @ x_i)
    s += float(x_i @ params.q_mat(i) @ x_i)
    s += float(kx @ (params.M[i] / xi) @ kx)
    s += 2.0 * float(tx @ p_i @ ed)
    s += float(ed @ p_i @ ed)
    s += 2.0 * float(gx @ p_i @ ed)
    s -= params.tau[i] * float(d @ d)
    s -= (params.alpha - 1.0) * float(gx @ p_i @ gx)
    s += 2.0 * (1.0 - root_a) * float(gx @ p_i @ tx)
    return s


def _vertex_theta_e(sub, dv, i, l, m):
    k = dv.gains[i][m]
    return sub.rules[l].A + sub.rules[l].B @ k, sub.rules[l].E, k


# ------------------------------------------------ per-block reference

def _reference_range_basis(g, rtol=1e-10):
    """Orthonormal basis of the row space of g (complement of its kernel)."""
    _, s, vt = np.linalg.svd(g)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((g.shape[1], 0))
    rank = int(np.sum(s > rtol * s[0]))
    return vt[:rank].T


def _reference_place(mat, row_ofs, col_ofs, block):
    r, c = block.shape[-2:]
    mat[..., row_ofs:row_ofs + r, col_ofs:col_ofs + c] = block
    mat[..., col_ofs:col_ofs + c, row_ofs:row_ofs + r] = block.swapaxes(-1, -2)


def _reference_strict_basis(dims_head, gs, dims_tail):
    """Block-diagonal compression: identity on the head and tail slots, the
    row-space basis of [g_1 g_2 ...] on the coupling slots; None when that
    map has full column rank."""
    if not gs:
        return None
    basis = _reference_range_basis(np.hstack(gs))
    if basis.shape[1] == basis.shape[0]:
        return None
    blocks = ([np.eye(d) for d in dims_head] + [basis]
              + [np.eye(d) for d in dims_tail])
    out = np.zeros((sum(b.shape[0] for b in blocks),
                    sum(b.shape[1] for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def _reference_condition_matrices(system, params, i, family, theta, e_mu,
                                  k_eff, xi_i, reduced):
    """Invariance or decrease matrices of subsystem i, stacked (P, size,
    size), assembled block by block: the coupling load, the g'X blocks and
    the strict basis rebuilt for the call, and every coupling block placed
    in its own loop. reduced=True gives the folded form: no slack tail, its
    products n theta'X theta (and k'Mk) on the state block. Returns
    (matrices, slot dims, strict basis)."""
    sub = system.subsystems[i]
    keys = tuple(sorted(sub.couplings))
    gs = [sub.couplings[j] for j in keys]
    dims = [system.subsystems[j].n_x for j in keys]
    x_i = params.X[i]
    root_alpha = np.sqrt(params.alpha)
    n = system.n_subsystems
    load = np.zeros((sub.n_x, sub.n_x))
    for j, g in zip(keys, gs):
        load = load + g.T @ params.X[j] @ g
    load = n * root_alpha * load
    n_d, n_x, n_u = sub.n_d, sub.n_x, sub.n_u
    decrease = family == "decrease"
    if decrease:
        d_coef = xi_i * params.tau[i]
        state_block = load - x_i + xi_i * params.q_mat(i)
        tail = [n_u, n_x]
    else:
        d_coef = xi_i * params.lam[i] * params.N_const[i]
        state_block = load - (1.0 - params.lam[i]) * x_i
        tail = [n_x]
    if reduced:
        tail = []

    slot_dims = [n_d, n_x] + dims + tail
    size = sum(slot_dims)
    mat = np.zeros((theta.shape[0], size, size))
    ofs = np.concatenate(([0], np.cumsum(slot_dims))).astype(int)
    theta_t = theta.swapaxes(-1, -2)

    xe = x_i @ e_mu
    mat[:, :n_d, :n_d] = e_mu.swapaxes(-1, -2) @ xe - d_coef * np.eye(n_d)
    _reference_place(mat, ofs[1], 0, theta_t @ xe)
    if reduced:
        state_block = state_block + n * (theta_t @ x_i @ theta)
        if decrease:
            state_block = state_block + \
                k_eff.swapaxes(-1, -2) @ params.M[i] @ k_eff
    mat[:, ofs[1]:ofs[2], ofs[1]:ofs[2]] = state_block
    gx = [g.T @ x_i for g in gs]
    for a, g_a in enumerate(gs):
        ra = ofs[2 + a]
        _reference_place(mat, ra, 0, g_a.T @ xe)
        _reference_place(mat, ra, ofs[1], (1.0 - root_alpha) * (gx[a] @ theta))
        for b in range(a, len(gs)):
            rb = ofs[2 + b]
            block = -(params.alpha - 1.0) * (gx[b] @ g_a)
            mat[:, rb:rb + dims[b], ra:ra + dims[a]] = block
            mat[:, ra:ra + dims[a], rb:rb + dims[b]] = block.T
    if not reduced:
        if decrease:
            m_row = ofs[-3]
            _reference_place(mat, m_row, ofs[1], params.M[i] @ k_eff)
            mat[:, m_row:m_row + n_u, m_row:m_row + n_u] = -params.M[i]
        last = ofs[-2]
        _reference_place(mat, last, ofs[1], x_i @ theta)
        mat[:, last:, last:] = -(1.0 / n) * x_i
    basis = _reference_strict_basis([n_d, n_x], gs, tail)
    return (sym_matrix(0.5 * (mat + mat.swapaxes(-1, -2))), tuple(slot_dims),
            basis)


# ---------------------------------------------------------------- tests

class TestInvarianceOracle:
    def test_quadratic_form_matches_scalar_expansion(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            system, params, dv = _draw_setup(rng)
            i, sub, l, m = _pick_vertex(rng, system)
            inst = assemble_one(assemble_invariance, system, params, dv, i,
                                [l], [m])
            d, x_i, x_js, v = _draw_point(rng, system, sub)
            theta, e, _ = _vertex_theta_e(sub, dv, i, l, m)
            got = float(v @ _folded(inst)[0] @ v)
            want = dv.xi[i] ** 2 * _invariance_scalar(
                system, params, dv, i, theta, e, d, x_i, x_js)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_blended_matches_oracle_on_simplex_weights(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            system, params, dv = _draw_setup(rng)
            i, sub, _, _ = _pick_vertex(rng, system)
            w = rng.uniform(0.05, 1.0, sub.n_rules)
            w /= w.sum()
            h = rng.uniform(0.05, 1.0, sub.n_controller_rules)
            h /= h.sum()
            inst = assemble_one(assemble_invariance_blended, system, params,
                                dv, i, [w], [h])
            a = sum(wl * r.A for wl, r in zip(w, sub.rules))
            b = sum(wl * r.B for wl, r in zip(w, sub.rules))
            e = sum(wl * r.E for wl, r in zip(w, sub.rules))
            k = sum(hm * km for hm, km in zip(h, dv.gains[i]))
            d, x_i, x_js, v = _draw_point(rng, system, sub)
            got = float(v @ _folded(inst)[0] @ v)
            want = dv.xi[i] ** 2 * _invariance_scalar(
                system, params, dv, i, a + b @ k, e, d, x_i, x_js)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_one_hot_blend_equals_vertex_matrix(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            system, params, dv = _draw_setup(rng)
            i, sub, l, m = _pick_vertex(rng, system)
            w = np.zeros(sub.n_rules)
            w[l] = 1.0
            h = np.zeros(sub.n_controller_rules)
            h[m] = 1.0
            vert = assemble_one(assemble_invariance, system, params, dv, i,
                                [l], [m])
            blend = assemble_one(assemble_invariance_blended, system, params,
                                 dv, i, [w], [h])
            np.testing.assert_array_equal(blend.matrix, vert.matrix)

    def test_metadata(self):
        system, params, dv = _draw_setup(np.random.default_rng(1))
        inst = assemble_one(assemble_invariance, system, params, dv, 0, [0],
                            [0])
        assert inst.origin == "invariance"
        assert sum(inst.slot_dims) == inst.matrix.shape[1]


class TestDecreaseOracle:
    def test_quadratic_form_matches_scalar_expansion(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            system, params, dv = _draw_setup(rng)
            i, sub, l, m = _pick_vertex(rng, system)
            inst = assemble_one(assemble_decrease, system, params, dv, i, [l],
                                [m])
            d, x_i, x_js, v = _draw_point(rng, system, sub)
            theta, e, k = _vertex_theta_e(sub, dv, i, l, m)
            got = float(v @ _folded(inst)[0] @ v)
            want = dv.xi[i] * _decrease_scalar(
                system, params, dv, i, theta, e, k, d, x_i, x_js)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_blended_matches_oracle_on_simplex_weights(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            system, params, dv = _draw_setup(rng)
            i, sub, _, _ = _pick_vertex(rng, system)
            w = rng.uniform(0.05, 1.0, sub.n_rules)
            w /= w.sum()
            h = rng.uniform(0.05, 1.0, sub.n_controller_rules)
            h /= h.sum()
            inst = assemble_one(assemble_decrease_blended, system, params, dv,
                                i, [w], [h])
            a = sum(wl * r.A for wl, r in zip(w, sub.rules))
            b = sum(wl * r.B for wl, r in zip(w, sub.rules))
            e = sum(wl * r.E for wl, r in zip(w, sub.rules))
            k = sum(hm * km for hm, km in zip(h, dv.gains[i]))
            d, x_i, x_js, v = _draw_point(rng, system, sub)
            got = float(v @ _folded(inst)[0] @ v)
            want = dv.xi[i] * _decrease_scalar(
                system, params, dv, i, a + b @ k, e, k, d, x_i, x_js)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_one_hot_blend_equals_vertex_matrix(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            system, params, dv = _draw_setup(rng)
            i, sub, l, m = _pick_vertex(rng, system)
            w = np.zeros(sub.n_rules)
            w[l] = 1.0
            h = np.zeros(sub.n_controller_rules)
            h[m] = 1.0
            vert = assemble_one(assemble_decrease, system, params, dv, i, [l],
                                [m])
            blend = assemble_one(assemble_decrease_blended, system, params, dv,
                                 i, [w], [h])
            np.testing.assert_array_equal(blend.matrix, vert.matrix)


def _bundled_certificate(name):
    """A bundled config's system and parameters with decision variables
    from its gains (example1's where it ships none) at distinct set sizes."""
    cfg = load_bundled_config(name)
    gains = cfg.gains or load_bundled_config("example1").gains
    n = cfg.system.n_subsystems
    dv = DecisionVars(gains=gains, xi=[0.7 + 0.4 * i for i in range(n)])
    return cfg.system, cfg.params, dv


class TestStackedBlendedAssembly:
    """A stack of P weight pairs assembles to exactly the P one-pair
    stacks' matrices, bit for bit, and after strict compression."""

    @pytest.mark.parametrize("name", bundled_config_names())
    @pytest.mark.parametrize("assemble", [assemble_invariance_blended,
                                          assemble_decrease_blended])
    def test_stack_equals_per_point_calls(self, name, assemble):
        system, params, dv = _bundled_certificate(name)
        rng = np.random.default_rng(41)
        for i, sub in enumerate(system.subsystems):
            w = rng.dirichlet(np.ones(sub.n_rules), size=7)
            h = rng.dirichlet(np.ones(sub.n_controller_rules), size=7)
            w[0] = np.eye(sub.n_rules)[-1]          # one vertex pair
            h[0] = np.eye(sub.n_controller_rules)[0]
            stacked = assemble_one(assemble, system, params, dv, i, w, h)
            tests = stacked.test_matrix()
            assert stacked.matrix.shape[0] == tests.shape[0] == len(w)
            for p in range(len(w)):
                single = assemble_one(assemble, system, params, dv, i,
                                      w[p:p + 1], h[p:p + 1])
                assert single.matrix.shape == (1,) + stacked.matrix.shape[1:]
                np.testing.assert_array_equal(stacked.matrix[p],
                                              single.matrix[0])
                np.testing.assert_array_equal(tests[p],
                                              single.test_matrix()[0])
            assert stacked.slot_dims == single.slot_dims


class TestStackedVertexAssembly:
    """Index sequences l, m assemble to exactly the one-vertex stacks'
    matrices, bit for bit, and after strict compression, in pair order."""

    @pytest.mark.parametrize("name", bundled_config_names())
    @pytest.mark.parametrize("assemble", [assemble_invariance,
                                          assemble_decrease])
    def test_stack_equals_per_vertex_calls(self, name, assemble):
        system, params, dv = _bundled_certificate(name)
        for i, sub in enumerate(system.subsystems):
            pairs = [(l, m) for l in range(sub.n_rules)
                     for m in range(sub.n_controller_rules)]
            pairs += pairs[::-1][:2]         # any order, repeats allowed
            ls, ms = [p[0] for p in pairs], [p[1] for p in pairs]
            stacked = assemble_one(assemble, system, params, dv, i, ls, ms)
            tests = stacked.test_matrix()
            assert stacked.matrix.shape[0] == tests.shape[0] == len(pairs)
            singles = [assemble_one(assemble, system, params, dv, i, [l], [m])
                       for l, m in pairs]
            for p, single in enumerate(singles):
                assert single.matrix.shape == (1,) + stacked.matrix.shape[1:]
                np.testing.assert_array_equal(stacked.matrix[p],
                                              single.matrix[0])
                np.testing.assert_array_equal(tests[p],
                                              single.test_matrix()[0])
                assert stacked.slot_dims == single.slot_dims
                if single.strict_basis is None:
                    assert stacked.strict_basis is None
                else:
                    np.testing.assert_array_equal(stacked.strict_basis,
                                                  single.strict_basis)

    def test_theta_vertex_stack(self):
        # the closed-loop vertex matrices A_l + B_l K_m a vertex stack is
        # assembled from, with E_l and K_m, in pair order
        system, params, dv = _bundled_certificate("example2")
        sub = system.subsystems[0]
        ls, ms = [2, 0, 1], [1, 1, 0]
        theta, e, k = (v[0] for v in lmis._Layout(
            system, params, (0,)).vertex_stacks(dv.gains, ls, ms))
        for p, (l, m) in enumerate(zip(ls, ms)):
            np.testing.assert_array_equal(
                theta[p], sub.rules[l].A + sub.rules[l].B @ dv.gains[0][m])
            np.testing.assert_array_equal(e[p], sub.rules[l].E)
            np.testing.assert_array_equal(k[p], dv.gains[0][m])

    @pytest.mark.parametrize("assemble", [assemble_invariance,
                                          assemble_decrease])
    @pytest.mark.parametrize("l, m", [([0, 1], [0]), ([0], []), (0, [0]),
                                      ([0, 1], 1), (0, 0), (1, 0)])
    def test_mismatched_indices_raise(self, assemble, l, m):
        # integers l, m (one vertex) are refused too: the form is a stack
        system, params, dv = _bundled_certificate("example1")
        with pytest.raises(ValueError, match="equal length"):
            assemble_one(assemble, system, params, dv, 0, l, m)

    @pytest.mark.parametrize("blended", [False, True])
    def test_non_finite_gains_raise(self, blended):
        system, params, dv = _bundled_certificate("example1")
        dv = dataclasses.replace(dv, gains=(
            [np.full_like(k, np.nan) for k in dv.gains[0]], *dv.gains[1:]))
        with pytest.raises(InvalidMatrixError, match="finite"):
            if blended:
                assemble_one(assemble_decrease_blended, system, params, dv, 0,
                             [[0.5, 0.5]], [[0.5, 0.5]])
            else:
                assemble_one(assemble_decrease, system, params, dv, 0, [0, 1],
                             [1, 0])

    @pytest.mark.parametrize("assemble", [assemble_invariance_blended,
                                          assemble_decrease_blended])
    @pytest.mark.parametrize("w_shape, h_shape", [
        ((2,), (3, 2)), ((3, 2), (2,)), ((2, 2), (3, 2)), ((2,), (1, 1, 2)),
        ((), ()), ((2,), (2,))])
    def test_mismatched_weights_raise(self, assemble, w_shape, h_shape):
        # a vector against a stack, stacks of unequal length, or two weight
        # vectors (one blend) are rejected with both shapes named: the form
        # is two weight stacks
        system, params, dv = _bundled_certificate("example1")
        w, h = np.full(w_shape, 0.5), np.full(h_shape, 0.5)
        message = f"equal length, got shapes {w_shape} and {h_shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            assemble_one(assemble, system, params, dv, 0, w, h)


FIXTURE = (Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
           / "example1_certificate.json")
REFERENCE_CASES = [*bundled_config_names(), "fixture", "tiny", "zeroed"] + [
    f"draw-{seed}-{kind}" for seed in range(20) for kind in ("wild", "calm")]


def _reference_setup(case):
    """(system, params, dv) of one case the per-block reference is compared
    on: a bundled config, the stored example1 certificate, the tiny plant
    (no couplings) or a random draw."""
    if case == "fixture":
        cfg = load_bundled_config("example1_synthesis")
        dv, _ = load_certificate(FIXTURE, cfg.system)
        return cfg.system, cfg.params, dv
    if case == "tiny":
        gains = [np.array([[-0.3, 0.1], [0.05, -0.2]]),
                 np.array([[-0.1, 0.0], [0.2, -0.4]])]
        return build_tiny_system(), tiny_params(), DecisionVars([gains], [1.3])
    if case == "zeroed":
        # draw 0 with zero couplings: subsystem 0's only one (a zero map,
        # no row space) and the first of each other subsystem's
        system, params, dv = _draw_setup(np.random.default_rng(0))
        subs = [dataclasses.replace(sub, couplings={
            j: np.zeros_like(g) if n == 0 else g
            for n, (j, g) in enumerate(sorted(sub.couplings.items()))})
            for sub in system.subsystems]
        return LargeScaleSystem(subsystems=tuple(subs)), params, dv
    if case.startswith("draw-"):
        _, seed, kind = case.split("-")
        return _draw_setup(np.random.default_rng(int(seed)), kind == "calm")
    return _bundled_certificate(case)


def _reference_inputs(system, dv, i, rng):
    """Vertex (every pair, in order) and blended (five random weight pairs)
    stack inputs (theta, e, k) of subsystem i, with the arguments the public
    assemblers take for them."""
    sub = system.subsystems[i]
    pairs = [(l, m) for l in range(sub.n_rules)
             for m in range(sub.n_controller_rules)]
    ls, ms = [p[0] for p in pairs], [p[1] for p in pairs]
    w = rng.dirichlet(np.ones(sub.n_rules), size=5)
    h = rng.dirichlet(np.ones(sub.n_controller_rules), size=5)
    a, b, e = (v[0] for v in blend([sub], w))
    k = blend_gains(np.array([dv.gains[i]]), h)[0]
    k_m = np.array([dv.gains[i][m] for m in ms])
    theta = np.array([sub.rules[l].A for l in ls]) + \
        np.array([sub.rules[l].B for l in ls]) @ k_m      # A_l + B_l K_m
    return {"vertex": ((theta, np.array([sub.rules[l].E for l in ls]), k_m),
                       (ls, ms)),
            "blended": ((a + b @ k, e, k), (w, h))}


FAMILIES = {"invariance": (assemble_invariance, assemble_invariance_blended),
            "decrease": (assemble_decrease, assemble_decrease_blended)}


def _assert_fold_close(got, want):
    scale = max(1.0, float(np.abs(want).max()))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * scale)


class TestLayoutMatchesPerBlockReference:
    """_Layout.stack against the per-block assembly it replaced, in both
    families, on vertex and blended stacks; the public assemblers return its
    stack, with the reference's slot dims and strict basis. The layout does
    the reference's arithmetic in the same order (one BLAS product per
    block and matrix, factors of 1/2 moved only where they are exact), so
    the entries must be equal, not merely within rounding. The Schur fold
    of each stack, and of its compression, matches the reference's folded
    form (and its compression) within rounding."""

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_stacks_match(self, case):
        system, params, dv = _reference_setup(case)
        rng = np.random.default_rng(7)
        for i in range(system.n_subsystems):
            inputs = _reference_inputs(system, dv, i, rng)
            layout = lmis._Layout(system, params, (i,))
            for family, assemblers in FAMILIES.items():
                for assemble, (args, points) in zip(assemblers,
                                                    inputs.values()):
                    want, slot_dims, basis = _reference_condition_matrices(
                        system, params, i, family, *args, dv.xi[i], False)
                    got = layout.stack(family, *(a[None] for a in args),
                                       np.array([dv.xi[i]]))[0]
                    np.testing.assert_array_equal(got, want)
                    inst = assemble_one(assemble, system, params, dv, i,
                                        *points)
                    np.testing.assert_array_equal(inst.matrix, got)
                    assert inst.slot_dims == slot_dims
                    if basis is None:
                        assert inst.strict_basis is None
                    else:
                        assert inst.strict_basis.shape == basis.shape
                        assert np.array_equal(inst.strict_basis, basis)
                    want, _, basis = _reference_condition_matrices(
                        system, params, i, family, *args, dv.xi[i], True)
                    tail = _slack_tail(inst)
                    _assert_fold_close(_fold(got, tail), want)
                    if basis is not None:
                        want = sym_matrix(basis.T @ want @ basis)
                    _assert_fold_close(_fold(inst.test_matrix(), tail), want)


class TestFoldCommutesWithCompression:
    """The strict basis is the identity on the slack tail, so folding the
    compressed test matrix equals compressing the folded matrix by the
    basis's head block: the fold of test_matrix() is the compressed fold
    the vertex-to-blend lemma bounds."""

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_fold_of_test_matrix_is_compressed_fold(self, case):
        system, params, dv = _reference_setup(case)
        rng = np.random.default_rng(8)
        for i in range(system.n_subsystems):
            inputs = _reference_inputs(system, dv, i, rng)
            for assemblers in FAMILIES.values():
                for assemble, (_, points) in zip(assemblers, inputs.values()):
                    inst = assemble_one(assemble, system, params, dv, i,
                                        *points)
                    tail = _slack_tail(inst)
                    folded = _fold(inst.matrix, tail)
                    basis = inst.strict_basis
                    if basis is not None:
                        size, cols = basis.shape
                        np.testing.assert_array_equal(
                            basis[:, cols - tail:], np.eye(size)[:, -tail:])
                        np.testing.assert_array_equal(
                            basis[size - tail:], np.eye(cols)[-tail:])
                        head = basis[:size - tail, :cols - tail]
                        folded = sym_matrix(head.T @ folded @ head)
                    _assert_fold_close(_fold(inst.test_matrix(), tail),
                                       folded)


class TestSchurEquivalence:
    """The Schur fold of each full form against the reference's folded
    (block-by-block) assembly, and the two forms' verdicts."""

    def test_folding_slack_rows_reproduces_reduced_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            system, params, dv = _draw_setup(rng)
            i, sub, l, m = _pick_vertex(rng, system)
            full = assemble_one(assemble_invariance, system, params, dv, i,
                                [l], [m])
            theta, e, k = _vertex_theta_e(sub, dv, i, l, m)
            red, _, _ = _reference_condition_matrices(
                system, params, i, "invariance", theta[None], e[None],
                k[None], dv.xi[i], True)
            split = full.matrix.shape[1] - sub.n_x
            _assert_fold_close(schur_reduce(full.matrix[0], split), red[0])

    def test_folding_slack_rows_reproduces_reduced_decrease(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            system, params, dv = _draw_setup(rng)
            i, sub, l, m = _pick_vertex(rng, system)
            full = assemble_one(assemble_decrease, system, params, dv, i, [l],
                                [m])
            theta, e, k = _vertex_theta_e(sub, dv, i, l, m)
            red, _, _ = _reference_condition_matrices(
                system, params, i, "decrease", theta[None], e[None],
                k[None], dv.xi[i], True)
            split = full.matrix.shape[1] - sub.n_x - sub.n_u
            _assert_fold_close(schur_reduce(full.matrix[0], split), red[0])

    def test_nsd_verdicts_agree_between_forms(self):
        rng = np.random.default_rng(33)
        verdicts = []
        for trial in range(100):
            system, params, dv = _draw_setup(rng, calm=trial % 2 == 0)
            i, sub, l, m = _pick_vertex(rng, system)
            full = assemble_one(assemble_invariance, system, params, dv, i,
                                [l], [m])
            v_full = is_nsd(full.matrix[0], tol=1e-8)
            v_fold = is_nsd(_folded(full)[0], tol=1e-8)
            assert v_full == v_fold
            verdicts.append(v_full)
        # the draw mix must exercise both outcomes for the check to mean much
        assert sum(verdicts) >= 5
        assert len(verdicts) - sum(verdicts) >= 5


class TestStrictBasis:
    def _toy(self):
        rule = Rule(A=0.1 * np.eye(2), B=np.eye(2), E=0.1 * np.eye(2))
        g = 0.1 * np.outer([1.0, 0.0], [1.0, 0.0])   # rank one
        s1 = Subsystem(rules=(rule,), couplings={1: g})
        s2 = Subsystem(rules=(rule,), couplings={})
        system = LargeScaleSystem(subsystems=(s1, s2))
        params = FixedParams(X=[np.eye(2)] * 2, lam=[0.5] * 2,
                             N_const=[1.0] * 2, M=[np.eye(2)] * 2,
                             tau=[1.0] * 2, Q=0.01 * np.eye(2),
                             R=np.eye(2), alpha=2.0)
        dv = DecisionVars(gains=[[np.zeros((2, 2))]] * 2, xi=[1.0] * 2)
        return system, params, dv

    def _forms(self, inst):
        """(matrix, test matrix) of a one-vertex stack's full form, then of
        its fold."""
        tail = _slack_tail(inst)
        return [(inst.matrix[0], inst.test_matrix()[0]),
                (_folded(inst)[0], _fold(inst.test_matrix(), tail)[0])]

    def test_rank_deficient_coupling_leaves_structural_zeros(self):
        system, params, dv = self._toy()
        inst = assemble_one(assemble_decrease, system, params, dv, 0, [0], [0])
        for mat, _ in self._forms(inst):
            # directions in the coupling's kernel hit only zero entries
            size = mat.shape[0]
            kernel_dir = np.zeros(size)
            kernel_dir[2 + 2 + 1] = 1.0   # second component of the x_j slot
            np.testing.assert_array_equal(mat @ kernel_dir, np.zeros(size))
            assert max_eig(mat) >= -1e-12

    def test_compressed_matrix_recovers_strict_verdict(self):
        system, params, dv = self._toy()
        inst = assemble_one(assemble_decrease, system, params, dv, 0, [0], [0])
        assert inst.strict_basis is not None
        for mat, compressed in self._forms(inst):
            assert compressed.shape[0] == mat.shape[0] - 1
            assert max_eig(compressed) < -1e-6
            assert not is_nsd(mat, tol=-1e-9)

    def test_joint_full_column_rank_needs_no_basis(self):
        # a single invertible coupling leaves the stacked map square and
        # full rank: no structural kernel, no compression
        rule = Rule(A=0.1 * np.eye(2), B=np.eye(2), E=0.1 * np.eye(2))
        g = np.array([[0.1, 0.02], [0.0, 0.1]])
        s1 = Subsystem(rules=(rule,), couplings={1: g})
        s2 = Subsystem(rules=(rule,), couplings={})
        system = LargeScaleSystem(subsystems=(s1, s2))
        params = FixedParams(X=[np.eye(2)] * 2, lam=[0.5] * 2,
                             N_const=[1.0] * 2, M=[np.eye(2)] * 2,
                             tau=[1.0] * 2, Q=0.01 * np.eye(2),
                             R=np.eye(2), alpha=2.0)
        dv = DecisionVars(gains=[[np.zeros((2, 2))]] * 2, xi=[1.0] * 2)
        for asm in (assemble_decrease, assemble_invariance):
            inst = assemble_one(asm, system, params, dv, 0, [0], [0])
            assert inst.strict_basis is None
            np.testing.assert_array_equal(inst.test_matrix(), inst.matrix)
        uncoupled = assemble_one(assemble_decrease, system, params, dv, 1, [0],
                                 [0])
        assert uncoupled.strict_basis is None

    def test_joint_kernel_of_several_full_rank_couplings_is_compressed(self):
        # two individually invertible couplings still stack into a wide map
        # [g_a g_b]; directions with g_a v_a = -g_b v_b are exact zero
        # eigendirections and must not pin the strict margin at zero
        system = build_example1_system()
        params = example1_reference_params()
        dv = DecisionVars(gains=example1_reference_gains(), xi=[1.0] * 3)
        sub = system.subsystems[0]
        g_a, g_b = sub.couplings[1], sub.couplings[2]
        assert np.linalg.matrix_rank(g_a) == 2
        assert np.linalg.matrix_rank(g_b) == 2
        for asm in (assemble_decrease, assemble_invariance):
            inst = assemble_one(asm, system, params, dv, 0, [0], [0])
            assert inst.strict_basis is not None
            for mat, compressed in self._forms(inst):
                v_a = np.array([1.0, -0.5])
                v_b = -np.linalg.solve(g_b, g_a @ v_a)
                direction = np.zeros(mat.shape[0])
                direction[3:5] = v_a
                direction[5:7] = v_b
                np.testing.assert_allclose(mat @ direction,
                                           np.zeros_like(direction),
                                           atol=1e-12)
                assert compressed.shape[0] == mat.shape[0] - 2

    def test_benchmark_plant_rank_one_couplings_are_compressed(self):
        system = build_example1_system()
        params = example1_reference_params()
        dv = DecisionVars(gains=example1_reference_gains(), xi=[1.0] * 3)
        inst = assemble_one(assemble_decrease, system, params, dv, 1, [0], [0])
        # both couplings of the middle subsystem have rank one
        assert inst.strict_basis is not None
        assert inst.test_matrix().shape[1] == inst.matrix.shape[1] - 2


class TestContainment:
    def test_boundary_state_sits_at_zero_eigenvalue(self):
        block = containment_block(shape_params(np.eye(2)),
                                  np.array([1.0, 0.0]), 1.0)
        expected = np.array([[1.0, 1.0, 0.0],
                             [1.0, 1.0, 0.0],
                             [0.0, 0.0, 1.0]])
        np.testing.assert_array_equal(block, expected)
        assert abs(min_eig(block)) <= 1e-10

    def test_verdict_matches_ellipsoid_level(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            x_mat = _rand_pd(rng, n)
            xi = float(rng.uniform(0.2, 4.0))
            x = rng.standard_normal(n)
            level = float(x @ (x_mat / xi) @ x)
            # rescale the state clearly inside or clearly outside
            target = 0.5 * xi if rng.random() < 0.5 else 1.5 * xi
            x = x * np.sqrt(target / level)
            block = containment_block(shape_params(x_mat), x, xi)
            inside = float(x @ (x_mat / xi) @ x) <= xi
            assert is_psd(block) == inside

    def test_singular_shape_matrix_raises(self):
        for x_mat in (np.diag([1.0, 0.0]), np.diag([1.0, 1e-14])):
            with pytest.raises(SingularBlockError):
                containment_block(shape_params(x_mat),
                                  np.array([1.0, 0.0]), 1.0)


class TestFixedParamsValidation:
    def _base(self):
        return dict(X=[np.eye(2)], lam=[0.5], N_const=[0.5],
                    M=[np.eye(1)], tau=[1.0], Q=np.eye(2),
                    R=np.eye(1), alpha=2.0)

    def test_valid_params_pass(self):
        FixedParams(**self._base()).validate()

    @pytest.mark.parametrize("field,value", [
        ("X", [np.diag([1.0, -0.1])]),
        ("lam", [0.0]),
        ("lam", [1.0]),
        ("N_const", [0.0]),
        ("tau", [-1.0]),
        ("M", [np.array([[-1.0]])]),
        ("Q", -np.eye(2)),
        ("R", np.array([[0.0]])),
        ("alpha", 1.5),
    ])
    def test_invalid_field_raises(self, field, value):
        kw = self._base()
        kw[field] = value
        with pytest.raises(ValueError):
            FixedParams(**kw).validate()

    def test_length_mismatch_raises(self):
        kw = self._base()
        kw["tau"] = [1.0, 2.0]
        with pytest.raises(ValueError, match="tau"):
            FixedParams(**kw).validate()

    def test_per_subsystem_weight_lists(self):
        kw = self._base()
        kw["Q"] = [np.eye(2)]
        kw["R"] = [np.eye(1)]
        p = FixedParams(**kw)
        p.validate()
        np.testing.assert_array_equal(p.q_mat(0), np.eye(2))
        np.testing.assert_array_equal(p.r_mat(0), np.eye(1))

    def test_nonpositive_xi_rejected(self):
        dv = DecisionVars(gains=[[np.zeros((1, 2))]], xi=[0.0])
        with pytest.raises(ValueError, match="xi"):
            dv.validate()


class TestHeterogeneousDims:
    def test_unequal_state_dims_with_coupling_raise_clearly(self):
        r2 = Rule(A=np.eye(2), B=np.eye(2), E=np.eye(2))
        r3 = Rule(A=np.eye(3), B=np.eye(3), E=np.eye(3))
        s1 = Subsystem(rules=(r2,), couplings={1: np.ones((2, 3))})
        s2 = Subsystem(rules=(r3,))
        system = LargeScaleSystem(subsystems=(s1, s2))
        system.validate()   # shape-consistent as a plant
        params = FixedParams(X=[np.eye(2), np.eye(3)], lam=[0.5] * 2,
                             N_const=[0.5] * 2, M=[np.eye(2), np.eye(3)],
                             tau=[1.0] * 2, Q=[np.eye(2), np.eye(3)],
                             R=[np.eye(2), np.eye(3)], alpha=2.0)
        dv = DecisionVars(gains=[[np.zeros((2, 2))], [np.zeros((3, 3))]],
                          xi=[1.0, 1.0])
        with pytest.raises(ValueError, match="equal state dims"):
            assemble_one(assemble_invariance, system, params, dv, 0, [0], [0])


class TestPointwiseDecreaseScalar:
    def _single(self, a_gain):
        mf = SigmoidMF(shift=0.0, divisor=1.0)
        fam = IT2MembershipFamily(lower=(mf,), upper=(mf,), true_mf=(mf,))
        rule = Rule(A=a_gain * np.eye(2), B=np.eye(2),
                    E=np.array([[0.1], [0.0]]))
        sub = Subsystem(rules=(rule,), model_mfs=fam, controller_mfs=fam)
        system = LargeScaleSystem(subsystems=(sub,))
        params = FixedParams(X=[np.eye(2)], lam=[0.5], N_const=[1.0],
                             M=[np.eye(2)], tau=[1.0], Q=np.eye(2),
                             R=np.eye(2), alpha=2.0)
        dv = DecisionVars(gains=[[np.zeros((2, 2))]], xi=[1.0])
        return system, params, dv

    def _scalar(self, a_gain):
        """The scalar of one step from x = (1, -1) with no disturbance."""
        system, params, dv = self._single(a_gain)
        x_all, d_all = [np.array([1.0, -1.0])], [np.zeros(1)]
        x_next = step_closed_loop(system, dv.gains, x_all, d_all)
        return rpi_decrease_scalar(params, dv.xi, x_all, d_all, x_next)

    def test_contractive_step_is_negative(self):
        # (0.25 - 1) * 2 + 0.5 * 2 = -0.5
        assert self._scalar(0.5) == pytest.approx(-0.5, abs=1e-12)

    def test_expansive_step_is_positive(self):
        assert self._scalar(1.2) > 0


class TestReferenceConstantsInfeasibility:
    """The bundled benchmark's reference shape matrices and gains do not
    satisfy their own certificate conditions at any set size; the synthesis
    configuration therefore ships with retuned shape matrices. Frozen here
    so a future change to the assembly that silently flips these verdicts
    gets noticed."""

    def _dv(self, xi):
        return DecisionVars(gains=example1_reference_gains(), xi=[xi] * 3)

    def _worst_eigs(self, xi):
        system = build_example1_system()
        params = example1_reference_params()
        dv = self._dv(xi)
        worst_inv = -np.inf
        worst_dec = -np.inf
        for i, sub in enumerate(system.subsystems):
            for l in range(sub.n_rules):
                for m in range(sub.n_controller_rules):
                    inv = assemble_one(assemble_invariance, system, params, dv,
                                       i, [l], [m])
                    dec = assemble_one(assemble_decrease, system, params, dv,
                                       i, [l], [m])
                    worst_inv = max(worst_inv, max_eig(inv.matrix[0]))
                    worst_dec = max(worst_dec, max_eig(dec.test_matrix()[0]))
        return worst_inv, worst_dec

    def test_infeasible_across_set_sizes(self):
        for xi in (0.012, 0.173, 1.0):
            worst_inv, worst_dec = self._worst_eigs(xi)
            assert worst_inv > 8e-3
            assert worst_dec > 0.4

    def test_invariance_blocker_is_set_size_independent(self):
        # the indefinite part lives in the state block, which has no xi term
        lo, _ = self._worst_eigs(1e-3)
        hi, _ = self._worst_eigs(5.0)
        assert abs(lo - hi) < 1e-3

    def test_containment_threshold_at_initial_state(self):
        params = example1_reference_params()
        x0 = np.array([1.0, -1.0])
        need = float(np.sqrt(x0 @ params.X[0] @ x0))
        assert need == pytest.approx(np.sqrt(0.03), rel=1e-12)
        # subsystem 0's block of its layout group's stack, every member at x0
        system = build_example1_system()
        members = next(g for g in system.layout_groups if 0 in g)
        x, row = [x0] * len(members), members.index(0)
        below = assemble_containment(system, params, members, x,
                                     [need * 0.999] * len(members))
        above = assemble_containment(system, params, members, x,
                                     [need * 1.001] * len(members))
        assert not is_psd(below.matrix[row])
        assert is_psd(above.matrix[row])
