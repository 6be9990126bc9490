"""Plant blending and one-step dynamics, checked against an independently
coded double-sum expansion of the closed-loop update."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from it2mpc.configio import bundled_config_names, load_bundled_config
from it2mpc.plant import (
    DegenerateFiringWarning,
    LargeScaleSystem,
    Rule,
    Subsystem,
    blend,
    control_law,
    eval_controller_memberships,
    eval_model_memberships,
    normalize_firing,
    step_closed_loop,
    step_closed_loop_detail,
    step_open_loop,
)

from conftest import build_example1_system, example1_reference_gains


def double_sum_step(system, gains_all, x_all, d_all, mu_bar):
    """Oracle: x+ = sum_l sum_m w_l h_m (A_l + B_l k_m) x + (sum_l w_l E_l) d
    + sum_j g_ij x_j, written without reusing the blend helpers."""
    out = []
    for i, sub in enumerate(system.subsystems):
        w = eval_model_memberships(sub, x_all[i])
        h = eval_controller_memberships(sub, x_all[i], mu_bar)
        acc = np.zeros(sub.n_x)
        for l, rule in enumerate(sub.rules):
            for m, k in enumerate(gains_all[i]):
                acc = acc + w[l] * h[m] * ((rule.A + rule.B @ k) @ x_all[i])
            acc = acc + w[l] * (rule.E @ d_all[i])
        for j, g in sub.couplings.items():
            acc = acc + g @ x_all[j]
        out.append(acc)
    return out


class TestMembershipEvaluation:
    def test_partition_of_unity(self):
        system = build_example1_system()
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.uniform(-3, 3, size=2)
            for sub in system.subsystems:
                w = eval_model_memberships(sub, x)
                h = eval_controller_memberships(sub, x, float(rng.uniform(0, 1)))
                for v in (w, h):
                    assert v.sum() == pytest.approx(1.0, abs=1e-12)
                    assert np.all(v >= 0) and np.all(v <= 1.0 + 1e-12)

    def test_reconstructed_endpoints(self):
        system = build_example1_system()
        sub = system.subsystems[0]
        x = np.array([0.3, -1.0])
        z = sub.premise(x)
        lo = sub.model_mfs.lower_grades(z)
        hi = sub.model_mfs.upper_grades(z)
        assert_allclose(eval_model_memberships(sub, x, "reconstructed", 0.0),
                        lo / lo.sum(), atol=1e-15)
        assert_allclose(eval_model_memberships(sub, x, "reconstructed", 1.0),
                        hi / hi.sum(), atol=1e-15)

    def test_reconstructed_requires_rho(self):
        sub = build_example1_system().subsystems[0]
        with pytest.raises(ValueError):
            eval_model_memberships(sub, np.zeros(2), "reconstructed")

    def test_degenerate_firing_falls_back_uniform(self):
        with pytest.warns(DegenerateFiringWarning):
            w = normalize_firing(np.array([0.0, 1e-15]))
        assert_allclose(w, [0.5, 0.5])

    def test_stack_falls_back_only_on_its_degenerate_row(self):
        raw = np.array([[0.2, 0.6, 0.1], [0.0, 1e-15, 0.0], [3.0, 1.0, 0.5]])
        with pytest.warns(DegenerateFiringWarning):
            w = normalize_firing(raw)
        assert np.array_equal(w[1], np.full(3, 1.0 / 3.0))
        for p in (0, 2):
            assert np.array_equal(w[p], normalize_firing(raw[p]))

    def test_stacked_weights_reject_out_of_range_entries(self):
        sub = build_example1_system().subsystems[0]
        x = np.zeros((3, 2))
        with pytest.raises(ValueError, match="mu_bar"):
            eval_controller_memberships(sub, x, np.array([0.2, 1.5, 0.3]))
        with pytest.raises(ValueError, match="rho_bar"):
            eval_model_memberships(sub, x, "reconstructed",
                                   np.array([0.2, -0.1, 0.3]))


class TestBlend:
    def test_one_hot_returns_vertex_exactly(self):
        sub = build_example1_system().subsystems[0]
        a, b, e = blend(sub, np.array([1.0, 0.0]))
        assert np.array_equal(a, sub.rules[0].A)
        assert np.array_equal(b, sub.rules[0].B)
        assert np.array_equal(e, sub.rules[0].E)

    def test_blend_is_convex_combination(self):
        sub = build_example1_system().subsystems[1]
        a, b, e = blend(sub, np.array([0.25, 0.75]))
        assert_allclose(a, 0.25 * sub.rules[0].A + 0.75 * sub.rules[1].A)
        assert_allclose(e, 0.25 * sub.rules[0].E + 0.75 * sub.rules[1].E)


    def test_stacked_weights_equal_single_blends(self):
        sub = build_example1_system().subsystems[2]
        w = np.array([[0.25, 0.75], [1.0, 0.0], [0.1, 0.9]])
        stacked = blend(sub, w)
        for p in range(len(w)):
            for got, want in zip(stacked, blend(sub, w[p])):
                assert np.array_equal(got[p], want)


class TestControlLaw:
    def test_one_hot_picks_single_gain(self):
        sub = build_example1_system().subsystems[0]
        gains = example1_reference_gains()[0]
        x = np.array([0.7, -0.2])
        u = control_law(sub, gains, np.array([0.0, 1.0]), x)
        assert np.array_equal(u, gains[1] @ x)


class TestStep:
    def test_matches_double_sum_expansion(self):
        system = build_example1_system()
        gains = example1_reference_gains()
        rng = np.random.default_rng(5)
        for _ in range(50):
            x_all = [rng.uniform(-2, 2, size=2) for _ in range(3)]
            d_all = [rng.uniform(-0.1, 0.1, size=1) for _ in range(3)]
            mu = float(rng.uniform(0, 1))
            got = step_closed_loop(system, gains, x_all, d_all, mu_bar=mu)
            want = double_sum_step(system, gains, x_all, d_all, mu)
            for g, w in zip(got, want):
                assert_allclose(g, w, atol=1e-12)

    def test_closed_loop_equals_open_loop_with_control_law(self):
        system = build_example1_system()
        gains = example1_reference_gains()
        x_all = [np.array([1.0, -1.0])] * 3
        d_all = [np.zeros(1)] * 3
        h_all = [eval_controller_memberships(sub, x_all[i], 0.5)
                 for i, sub in enumerate(system.subsystems)]
        u_all = [control_law(sub, gains[i], h_all[i], x_all[i])
                 for i, sub in enumerate(system.subsystems)]
        via_open = step_open_loop(system, x_all, u_all, d_all)
        via_closed = step_closed_loop(system, gains, x_all, d_all, mu_bar=0.5)
        for a, b in zip(via_open, via_closed):
            assert np.array_equal(a, b)

    def test_detail_returns_consistent_inputs(self):
        system = build_example1_system()
        gains = example1_reference_gains()
        x_all = [np.array([0.4, 0.1]), np.array([-0.3, 0.2]), np.array([0.0, -0.5])]
        d_all = [np.array([0.05])] * 3
        x_next, u_all, w_all, h_all = step_closed_loop_detail(
            system, gains, x_all, d_all)
        assert len(u_all) == len(w_all) == len(h_all) == 3
        for i, sub in enumerate(system.subsystems):
            assert u_all[i].shape == (1,)
            assert w_all[i].sum() == pytest.approx(1.0, abs=1e-12)

    def test_removing_couplings_matches_isolated_simulation(self):
        system = build_example1_system()
        gains = example1_reference_gains()
        decoupled = LargeScaleSystem(subsystems=tuple(
            Subsystem(rules=s.rules, couplings={}, model_mfs=s.model_mfs,
                      controller_mfs=s.controller_mfs, u_max=s.u_max, eta=s.eta)
            for s in system.subsystems))
        isolated = [LargeScaleSystem(subsystems=(s,))
                    for s in decoupled.subsystems]
        x_dec = [np.array([1.0, -1.0]) for _ in range(3)]
        x_iso = [np.array([1.0, -1.0]) for _ in range(3)]
        for _ in range(20):
            d_all = [np.zeros(1)] * 3
            x_dec = step_closed_loop(decoupled, gains, x_dec, d_all)
            x_iso = [step_closed_loop(isolated[i], [gains[i]], [x_iso[i]],
                                      [np.zeros(1)])[0] for i in range(3)]
            for a, b in zip(x_dec, x_iso):
                assert np.array_equal(a, b)

    def test_one_step_regression_from_unit_start(self):
        # frozen via the double-sum oracle above at first authorship
        system = build_example1_system()
        gains = example1_reference_gains()
        x_all = [np.array([1.0, -1.0])] * 3
        d_all = [np.zeros(1)] * 3
        got = step_closed_loop(system, gains, x_all, d_all, mu_bar=0.5)
        want = double_sum_step(system, gains, x_all, d_all, 0.5)
        for g, w in zip(got, want):
            assert_allclose(g, w, atol=1e-12)


class TestStackedStep:
    """States stacked as (P, n_x) step to exactly the P per-sample results:
    the 1-D call is the P = 1 case of the same code."""

    @pytest.mark.parametrize("name", bundled_config_names())
    @pytest.mark.parametrize("mode", ["true_plant", "reconstructed"])
    def test_stack_equals_per_sample_calls(self, name, mode):
        cfg = load_bundled_config(name)
        system = cfg.system
        gains = cfg.gains or load_bundled_config("example1").gains
        rng = np.random.default_rng(23)
        n_samples = 9
        x_all = [rng.uniform(-1.5, 1.5, size=(n_samples, sub.n_x))
                 for sub in system.subsystems]
        d_all = [rng.uniform(-0.1, 0.1, size=(n_samples, sub.n_d))
                 for sub in system.subsystems]
        mu = rng.uniform(0.0, 1.0, n_samples)
        mu[:2] = (0.0, 1.0)
        rho = None
        if mode == "reconstructed":
            rho = rng.uniform(0.0, 1.0, n_samples)
            rho[2:4] = (1.0, 0.0)
        stacked = step_closed_loop_detail(system, gains, x_all, d_all, mu,
                                          mode, rho)
        for p in range(n_samples):
            single = step_closed_loop_detail(
                system, gains, [x[p] for x in x_all], [d[p] for d in d_all],
                float(mu[p]), mode, None if rho is None else float(rho[p]))
            for got_all, want_all in zip(stacked, single):
                for got, want in zip(got_all, want_all):
                    assert want.ndim == 1
                    assert np.array_equal(got[p], want)
        assert np.array_equal(
            step_closed_loop(system, gains, x_all, d_all, mu, mode, rho)[0],
            stacked[0][0])

    def test_shared_weight_broadcasts_over_the_stack(self):
        system = build_example1_system()
        gains = example1_reference_gains()
        rng = np.random.default_rng(4)
        x_all = [rng.uniform(-2, 2, size=(5, 2)) for _ in range(3)]
        d_all = [rng.uniform(-0.1, 0.1, size=(5, 1)) for _ in range(3)]
        shared = step_closed_loop(system, gains, x_all, d_all, 0.3,
                                  "reconstructed", 0.6)
        per_sample = step_closed_loop(system, gains, x_all, d_all,
                                      np.full(5, 0.3), "reconstructed",
                                      np.full(5, 0.6))
        for a, b in zip(shared, per_sample):
            assert a.shape == (5, 2)
            assert np.array_equal(a, b)


class TestValidation:
    def test_bad_coupling_shape_rejected(self):
        system = build_example1_system()
        system.subsystems[0].couplings[1] = np.eye(3)
        with pytest.raises(ValueError, match="coupling"):
            system.validate()

    def test_coupling_to_self_rejected(self):
        system = build_example1_system()
        system.subsystems[0].couplings[0] = np.eye(2)
        with pytest.raises(ValueError):
            system.validate()

    def test_premise_selector_range(self):
        system = build_example1_system()
        system.subsystems[2].premise_selector = 5
        with pytest.raises(ValueError):
            system.validate()
