"""Plant blending and one-step dynamics, checked against an independently
coded double-sum expansion of the closed-loop update and, bit for bit,
against the per-subsystem step that the shape-group kernel replaced."""

import copy
import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from it2mpc.configio import bundled_config_names, load_bundled_config
from it2mpc import plant
from it2mpc.membership import IT2MembershipFamily, SigmoidMF
from it2mpc.plant import (
    DegenerateFiringWarning,
    LargeScaleSystem,
    Rule,
    Subsystem,
    blend,
    blend_gains,
    normalize_firing,
    step_closed_loop,
    step_closed_loop_detail,
    step_open_loop,
)
from it2mpc.simulation import run_online_loop

from conftest import build_example1_system, example1_reference_gains


# -- reference: the per-subsystem step --------------------------------------
# One subsystem at a time, each blend a loop of products over the rules.
# The plant's shape-group kernel must reproduce every entry of it exactly.

def _reference_model_memberships(sub, x, mode, rho_bar):
    z = sub.premise(x)
    fam = sub.model_mfs
    if mode == "true_plant":
        return normalize_firing(fam.true_grades(z))
    rho = rho_bar if np.ndim(rho_bar) == 0 else rho_bar[:, None]
    return normalize_firing(rho * fam.upper_grades(z)
                            + (1.0 - rho) * fam.lower_grades(z))


def _reference_controller_memberships(sub, x, mu_bar):
    z = sub.premise(x)
    mu = mu_bar if np.ndim(mu_bar) == 0 else mu_bar[:, None]
    fam = sub.controller_mfs
    return normalize_firing(mu * fam.upper_grades(z)
                            + (1.0 - mu) * fam.lower_grades(z))


def _reference_weighted_sums(w, terms) -> list:
    sums = None
    for c, mats in zip(np.asarray(w, dtype=float).T[..., None, None], terms):
        sums = ([c * m for m in mats] if sums is None
                else [s + c * m for s, m in zip(sums, mats)])
    return sums


def _reference_matvec(m, v):
    v = np.asarray(v)
    return m @ v if v.ndim == 1 else (m @ v[..., None])[..., 0]


def _reference_advance(system, x_all, u_all, d_all, w_all):
    x_next = []
    for i, sub in enumerate(system.subsystems):
        a, b, e = _reference_weighted_sums(
            w_all[i], [(r.A, r.B, r.E) for r in sub.rules])
        nxt = (_reference_matvec(a, x_all[i]) + _reference_matvec(b, u_all[i])
               + _reference_matvec(e, d_all[i]))
        for j in sorted(sub.couplings):
            nxt = nxt + _reference_matvec(sub.couplings[j], x_all[j])
        x_next.append(nxt)
    return x_next


def reference_step_detail(system, gains_all, x_all, d_all, mu_bar=0.5,
                          mode="true_plant", rho_bar=None):
    """(x_next, u_all, w_all, h_all), one subsystem at a time."""
    w_all, h_all, u_all = [], [], []
    for i, sub in enumerate(system.subsystems):
        w_all.append(_reference_model_memberships(sub, x_all[i], mode,
                                                  rho_bar))
        h = _reference_controller_memberships(sub, x_all[i], mu_bar)
        h_all.append(h)
        k, = _reference_weighted_sums(h, [(km,) for km in gains_all[i]])
        u_all.append(_reference_matvec(k, x_all[i]))
    return (_reference_advance(system, x_all, u_all, d_all, w_all),
            u_all, w_all, h_all)


def reference_step_open_loop(system, x_all, u_all, d_all, mode="true_plant",
                             rho_bar=None):
    w_all = [_reference_model_memberships(sub, x_all[i], mode, rho_bar)
             for i, sub in enumerate(system.subsystems)]
    return _reference_advance(system, x_all, u_all, d_all, w_all)


def assert_same_step(got, want):
    """Every entry of every returned list equal, with equal shapes."""
    for got_all, want_all in zip(got, want, strict=True):
        for g, w in zip(got_all, want_all, strict=True):
            assert g.shape == w.shape
            assert np.array_equal(g, w)


def double_sum_step(system, gains_all, x_all, d_all, mu_bar):
    """Oracle: x+ = sum_l sum_m w_l h_m (A_l + B_l k_m) x + (sum_l w_l E_l) d
    + sum_j g_ij x_j, written without reusing the blend helpers."""
    out = []
    for i, sub in enumerate(system.subsystems):
        w = _reference_model_memberships(sub, x_all[i], "true_plant", None)
        h = _reference_controller_memberships(sub, x_all[i], mu_bar)
        acc = np.zeros(sub.n_x)
        for l, rule in enumerate(sub.rules):
            for m, k in enumerate(gains_all[i]):
                acc = acc + w[l] * h[m] * ((rule.A + rule.B @ k) @ x_all[i])
            acc = acc + w[l] * (rule.E @ d_all[i])
        for j, g in sub.couplings.items():
            acc = acc + g @ x_all[j]
        out.append(acc)
    return out


def _example1_weights(x, mu_bar=0.5, mode="true_plant", rho_bar=None):
    """The model and controller weights (w_all, h_all) a closed-loop step
    of example1 with its reference gains reads at state x (one state, or a
    stack) in every subsystem."""
    system = build_example1_system()
    d = np.zeros(np.shape(x)[:-1] + (1,))
    _, _, w_all, h_all = step_closed_loop_detail(
        system, example1_reference_gains(), [x] * 3, [d] * 3, mu_bar, mode,
        rho_bar)
    return w_all, h_all


class TestMembershipEvaluation:
    def test_partition_of_unity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.uniform(-3, 3, size=2)
            w_all, h_all = _example1_weights(x, float(rng.uniform(0, 1)))
            for v in (*w_all, *h_all):
                assert v.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.all(v >= 0) and np.all(v <= 1.0 + 1e-12)

    def test_reconstructed_endpoints(self):
        system = build_example1_system()
        sub = system.subsystems[0]
        x = np.array([0.3, -1.0])
        z = sub.premise(x)
        lo = sub.model_mfs.lower_grades(z)
        hi = sub.model_mfs.upper_grades(z)
        assert_allclose(_example1_weights(x, mode="reconstructed",
                                          rho_bar=0.0)[0][0],
                        lo / lo.sum(), atol=1e-15)
        assert_allclose(_example1_weights(x, mode="reconstructed",
                                          rho_bar=1.0)[0][0],
                        hi / hi.sum(), atol=1e-15)

    def test_reconstructed_requires_rho(self):
        with pytest.raises(ValueError):
            _example1_weights(np.zeros(2), mode="reconstructed")

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

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_nan_row_does_not_hide_a_degenerate_row(self, order):
        # the fallback is decided row by row, wherever the NaN row sits
        rows = np.array([[np.nan, 1.0], [1e-20, 3e-20]])[list(order)]
        with pytest.warns(DegenerateFiringWarning):
            w = normalize_firing(rows)
        low = order.index(1)
        assert np.array_equal(w[low], [0.5, 0.5])
        assert np.isnan(w[1 - low]).all()

    def test_stacked_weights_reject_out_of_range_entries(self):
        x = np.zeros((3, 2))
        with pytest.raises(ValueError, match="mu_bar"):
            _example1_weights(x, np.array([0.2, 1.5, 0.3]))
        with pytest.raises(ValueError, match="rho_bar"):
            _example1_weights(x, mode="reconstructed",
                              rho_bar=np.array([0.2, -0.1, 0.3]))


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
        # u = (sum_m h_m k_m) x: a one-hot h picks its gain exactly
        gains = example1_reference_gains()[0]
        x = np.array([0.7, -0.2])
        u = blend_gains(gains, np.array([0.0, 1.0])) @ x
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
        # the inputs the closed loop applies: u_i = (sum_m h_m k_m) x_i
        _, u_all, _, h_all = step_closed_loop_detail(system, gains, x_all,
                                                     d_all, mu_bar=0.5)
        for i in range(3):
            k, = _reference_weighted_sums(h_all[i], [(k,) for k in gains[i]])
            assert np.array_equal(u_all[i], k @ x_all[i])
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


def _bundled_inputs(name, n_samples, mode, seed=23):
    """A bundled config's system and gains (example1's where it ships
    none), with states, disturbances and weights: 1-D at n_samples None,
    else stacked (n_samples, n) with per-sample mu and rho."""
    cfg = load_bundled_config(name)
    system = cfg.system
    gains = cfg.gains or load_bundled_config("example1").gains
    rng = np.random.default_rng(seed)
    lead = () if n_samples is None else (n_samples,)
    x_all = [rng.uniform(-1.5, 1.5, size=lead + (sub.n_x,))
             for sub in system.subsystems]
    d_all = [rng.uniform(-0.1, 0.1, size=lead + (sub.n_d,))
             for sub in system.subsystems]
    mu = 0.3 if n_samples is None else rng.uniform(0.0, 1.0, n_samples)
    rho = None
    if mode == "reconstructed":
        rho = 0.6 if n_samples is None else rng.uniform(0.0, 1.0, n_samples)
    return system, gains, x_all, d_all, mu, rho


class TestGroupedStepMatchesReference:
    """The shape-group kernel against the per-subsystem step above, entry
    for entry (tests/test_plant_groups.py draws mixed-shape plants)."""

    @pytest.mark.parametrize("name", bundled_config_names())
    @pytest.mark.parametrize("mode", ["true_plant", "reconstructed"])
    @pytest.mark.parametrize("n_samples", [None, 7])
    def test_bundled_configs(self, name, mode, n_samples):
        system, gains, x_all, d_all, mu, rho = _bundled_inputs(
            name, n_samples, mode)
        for _ in range(3):
            got = step_closed_loop_detail(system, gains, x_all, d_all, mu,
                                          mode, rho)
            assert_same_step(got, reference_step_detail(
                system, gains, x_all, d_all, mu, mode, rho))
            assert_same_step(
                [step_open_loop(system, x_all, got[1], d_all, mode, rho)],
                [reference_step_open_loop(system, x_all, got[1], d_all,
                                          mode, rho)])
            x_all = got[0]

    def test_blends_match_reference(self):
        sub = build_example1_system().subsystems[1]
        gains = example1_reference_gains()[1]
        for w in (np.array([0.3, 0.7]), np.array([[0.3, 0.7], [1.0, 0.0]])):
            want = _reference_weighted_sums(
                w, [(r.A, r.B, r.E) for r in sub.rules])
            for got, ref in zip(blend(sub, w), want, strict=True):
                assert np.array_equal(got, ref)
            ref, = _reference_weighted_sums(w, [(k,) for k in gains])
            assert np.array_equal(blend_gains(gains, w), ref)


class TestCountChecks:
    """Weights and gains must come one per rule: a mismatch raises rather
    than dropping or ignoring rules."""

    def test_blend_gains_rejects_extra_weights(self):
        with pytest.raises(ValueError, match="expected 1 gain weights.*got 2"):
            blend_gains([np.array([[1.0, 2.0]])], [0.3, 0.7])

    def test_blend_gains_rejects_missing_weights(self):
        gains = example1_reference_gains()[0]
        with pytest.raises(ValueError, match="expected 2 gain weights.*got 1"):
            blend_gains(gains, np.array([[1.0], [1.0]]))

    @pytest.mark.parametrize("w", [[1.0], [0.2, 0.3, 0.5],
                                   [[0.2, 0.3, 0.5]]])
    def test_blend_rejects_wrong_weight_count(self, w):
        sub = build_example1_system().subsystems[0]
        with pytest.raises(ValueError, match="expected 2 rule weights"):
            blend(sub, np.array(w))

    def test_control_law_rejects_wrong_gain_count(self):
        system = build_example1_system()
        gains = example1_reference_gains()
        gains[0] = gains[0][:1]
        with pytest.raises(ValueError, match="expected 2 controller gains.*"
                                             "got 1"):
            step_closed_loop(system, gains, [np.zeros(2)] * 3,
                             [np.zeros(1)] * 3)

    @pytest.mark.parametrize("count", [1, 3])
    def test_step_names_the_subsystem(self, count):
        system = build_example1_system()
        gains = example1_reference_gains()
        gains[2] = [gains[2][0]] * count
        with pytest.raises(ValueError, match=f"subsystem 2: expected 2 "
                                             f"controller gains.*got {count}"):
            step_closed_loop(system, gains, [np.zeros(2)] * 3,
                             [np.zeros(1)] * 3)

    def test_online_loop_rejects_one_gain_per_two_rule_controller(self):
        cfg = load_bundled_config("example1_synthesis")
        with pytest.raises(ValueError, match="subsystem 0: expected 2 "
                                             "controller gains.*got 1"):
            run_online_loop(cfg.system, cfg.params, cfg.simulation.x0, 3,
                            resynth="once", syn_cfg=cfg.synthesis,
                            gains=[[np.zeros((1, 2))]] * 3)


def with_subsystem(system, i, **changes):
    """The system with subsystem i replaced by a copy carrying `changes`."""
    subs = list(system.subsystems)
    subs[i] = dataclasses.replace(subs[i], **changes)
    return dataclasses.replace(system, subsystems=tuple(subs))


class TestImmutablePlant:
    """A plant is a value: its fields cannot be rebound, its couplings not
    set or deleted, its arrays not written. A changed plant is a new object,
    built with dataclasses.replace, and steps as a freshly built one."""

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(8)
        return ([rng.uniform(-1.0, 1.0, 2) for _ in range(3)],
                [rng.uniform(-0.1, 0.1, 1) for _ in range(3)])

    @staticmethod
    def _scale_coupling(system):
        couplings = system.subsystems[0].couplings
        return with_subsystem(system, 0,
                              couplings={**couplings, 2: 3.0 * couplings[2]})

    @staticmethod
    def _drop_coupling(system):
        return with_subsystem(system, 1, couplings={
            j: g for j, g in system.subsystems[1].couplings.items() if j != 0})

    @staticmethod
    def _scale_rules(system):
        return with_subsystem(system, 1, rules=tuple(
            Rule(A=0.5 * r.A, B=r.B, E=r.E) for r in system.subsystems[1].rules))

    @staticmethod
    def _swap_subsystem(system):
        old = system.subsystems[2]
        return with_subsystem(
            system, 2,
            rules=old.rules + (Rule(A=np.eye(2), B=np.ones((2, 1)),
                                    E=np.zeros((2, 1))),),
            couplings={1: -old.couplings[1], 0: old.couplings[0]},
            model_mfs=IT2MembershipFamily(
                lower=old.model_mfs.lower + (SigmoidMF(0.5, 1.0),),
                upper=old.model_mfs.upper + (SigmoidMF(-0.5, 1.0),),
                true_mf=old.model_mfs.true_mf + (SigmoidMF(0.0, 1.0),)))

    @pytest.mark.parametrize("change", ["_scale_coupling", "_drop_coupling",
                                        "_scale_rules", "_swap_subsystem"])
    def test_replaced_plant_steps_as_a_fresh_system(self, change):
        system = build_example1_system()
        gains = example1_reference_gains()
        x_all, d_all = self._inputs()
        before = step_closed_loop_detail(system, gains, x_all, d_all, 0.4)
        changed = getattr(self, change)(system)
        changed.validate()
        got = step_closed_loop_detail(changed, gains, x_all, d_all, 0.4)
        fresh = LargeScaleSystem(subsystems=tuple(
            dataclasses.replace(sub) for sub in changed.subsystems))
        assert_same_step(got, step_closed_loop_detail(fresh, gains, x_all,
                                                      d_all, 0.4))
        assert_same_step(got, reference_step_detail(changed, gains, x_all,
                                                    d_all, 0.4))
        assert not all(np.array_equal(a, b) for a, b in zip(got[0], before[0]))
        # the plant it was made from steps as before
        assert_same_step(step_closed_loop_detail(system, gains, x_all, d_all,
                                                 0.4), before)

    def test_fields_cannot_be_rebound(self):
        system = build_example1_system()
        sub = system.subsystems[0]
        for obj, name, value in ((system, "subsystems", system.subsystems[:2]),
                                 (sub, "rules", sub.rules[:1]),
                                 (sub, "couplings", {}),
                                 (sub, "premise_selector", 1),
                                 (sub.rules[0], "A", np.eye(2))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)

    @pytest.mark.parametrize("key", [1, 0])
    def test_couplings_cannot_be_set_or_deleted(self, key):
        couplings = build_example1_system().subsystems[0].couplings
        with pytest.raises(TypeError):
            couplings[key] = np.eye(2)
        with pytest.raises(TypeError):
            del couplings[key]
        assert list(couplings) == [1, 2]

    def test_arrays_are_read_only_copies(self):
        a = np.array([[1, 0], [0, 1]])
        sub = Subsystem(rules=(Rule(A=a, B=np.ones((2, 1)), E=np.ones((2, 1))),),
                        couplings={1: a}, u_max=np.array([2.0]), H=a)
        a[0, 0] = 7
        rule = sub.rules[0]
        arrays = (rule.A, rule.B, rule.E, sub.couplings[1], sub.u_max, sub.H,
                  sub.rule_rows)
        for array in arrays:
            assert array.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 5.0
        for array in (rule.A, sub.couplings[1], sub.H):
            assert np.array_equal(array, np.eye(2))

    def test_deep_copy_keeps_the_plant(self):
        # a plant is a value, so a deep copy of a config shares it
        cfg = load_bundled_config("example1_synthesis")
        copied = copy.deepcopy(cfg)
        assert copied.params is not cfg.params
        assert all(a is b for a, b in zip(copied.system.subsystems,
                                          cfg.system.subsystems))

    def test_deep_copy_of_a_rule_is_read_only(self):
        rule = build_example1_system().subsystems[1].rules[0]
        copied = copy.deepcopy(rule)
        assert copied is not rule
        for name in ("A", "B", "E"):
            array, original = getattr(copied, name), getattr(rule, name)
            assert array is not original
            assert np.array_equal(array, original)
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 5.0

    def test_groups_are_built_once_per_system(self, monkeypatch):
        built = []
        init = plant._Group.__init__

        def counting_init(grp, system, members):
            built.append(system)
            init(grp, system, members)

        monkeypatch.setattr(plant._Group, "__init__", counting_init)
        system = build_example1_system()
        gains = example1_reference_gains()
        x_all, d_all = self._inputs()
        for _ in range(3):
            step_closed_loop(system, gains, x_all, d_all)
            step_open_loop(system, x_all, [np.zeros(1)] * 3, d_all)
        assert built == [system]
        changed = self._scale_rules(system)
        for _ in range(2):
            step_closed_loop(changed, gains, x_all, d_all)
            step_closed_loop(system, gains, x_all, d_all)
        assert built == [system, changed]


class TestValidation:
    def test_bad_coupling_shape_rejected(self):
        system = build_example1_system()
        couplings = system.subsystems[0].couplings
        system = with_subsystem(system, 0, couplings={**couplings, 1: np.eye(3)})
        with pytest.raises(ValueError, match="coupling"):
            system.validate()

    def test_coupling_to_self_rejected(self):
        system = build_example1_system()
        couplings = system.subsystems[0].couplings
        system = with_subsystem(system, 0, couplings={**couplings, 0: np.eye(2)})
        with pytest.raises(ValueError):
            system.validate()

    def test_premise_selector_range(self):
        system = with_subsystem(build_example1_system(), 2, premise_selector=5)
        with pytest.raises(ValueError):
            system.validate()

    @pytest.mark.parametrize("changes, message", [
        (dict(u_max=np.array([np.nan])), "u_max must be finite"),
        (dict(u_max=np.array([np.inf])), "u_max must be finite"),
        (dict(eta=np.nan), "eta must be finite"),
        (dict(eta=np.inf), "eta must be finite"),
        (dict(u_max=np.array([-np.inf])), "u_max must be positive"),
        (dict(eta=-np.inf), "eta must be positive")])
    def test_non_finite_limits_rejected(self, changes, message):
        system = with_subsystem(build_example1_system(), 1, **changes)
        with pytest.raises(ValueError, match=message):
            system.validate()

    @pytest.mark.parametrize("name", ["A", "B", "E"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rule_matrix_rejected(self, name, value):
        system = build_example1_system()
        rules = list(system.subsystems[2].rules)
        bad = getattr(rules[1], name).copy()
        bad[-1, 0] = value
        rules[1] = dataclasses.replace(rules[1], **{name: bad})
        system = with_subsystem(system, 2, rules=tuple(rules))
        with pytest.raises(ValueError, match=f"^rule 1: {name} must be finite$"):
            system.validate()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_coupling_rejected(self, value):
        system = build_example1_system()
        couplings = dict(system.subsystems[1].couplings)
        bad = couplings[2].copy()
        bad[0, 1] = value
        system = with_subsystem(system, 1, couplings={**couplings, 2: bad})
        with pytest.raises(ValueError,
                           match="^subsystem 1: coupling to 2 must be finite$"):
            system.validate()

    def test_shape_errors_come_before_finite_checks(self):
        system = build_example1_system()
        first, rule = system.subsystems[0].rules
        bad = dataclasses.replace(rule, A=np.full((3, 3), np.nan))
        system = with_subsystem(system, 0, rules=(first, bad))
        with pytest.raises(ValueError, match="^rule 1: A has shape"):
            system.validate()
