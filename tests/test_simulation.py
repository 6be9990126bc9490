"""Closed-loop runner, disturbance admissibility, cost bookkeeping, and the
run-time certificate diagnostics (decrease checks and set Monte-Carlo)."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from it2mpc.configio import load_bundled_config, load_certificate
from it2mpc.linalg import quad_form
from it2mpc.lmis import DecisionVars, FixedParams
from it2mpc.plant import FieldError, LargeScaleSystem, Rule, Subsystem
from it2mpc import simulation
from it2mpc.simulation import (
    DisturbanceModel,
    InitialInfeasible,
    RecursiveFeasibilityViolation,
    SimulationTrace,
    iss_check,
    rpi_monte_carlo,
    run_online_loop,
    stage_cost,
)
from it2mpc.synthesis import (XI_HAIR, FixedGainEvaluator, SynthesisConfig,
                              minimize_xi, verify_certificate)

from conftest import (
    budget_floors,
    build_example1_system,
    build_example2_system,
    controller_mf_family,
    example1_reference_gains,
    example1_reference_params,
    example1_synthesis_params,
    example2_stabilizing_gains,
    model_mf_family,
)


CERTIFICATE = (Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
               / "example1_certificate.json")


class TestDisturbanceModel:
    def test_every_sample_is_admissible(self):
        system = build_example1_system()
        for kind in ("uniform_ball", "worst_case_boundary", "sinusoidal"):
            for seed in (0, 7, 42):
                seq = DisturbanceModel(kind=kind, seed=seed).realize(system, 60)
                for step in seq:
                    for i, d in enumerate(step):
                        eta = system.subsystems[i].eta
                        assert float(d @ d) <= eta ** 2 + 1e-18

    def test_zero_kind_emits_zeros(self):
        system = build_example1_system()
        seq = DisturbanceModel(kind="zero").realize(system, 5)
        for step in seq:
            for d in step:
                assert np.array_equal(d, np.zeros(1))

    def test_boundary_kind_sits_on_the_sphere(self):
        system = build_example1_system()
        seq = DisturbanceModel(kind="worst_case_boundary", seed=3).realize(
            system, 20)
        for step in seq:
            for i, d in enumerate(step):
                assert float(np.linalg.norm(d)) == pytest.approx(
                    system.subsystems[i].eta, rel=1e-12)

    def test_deterministic_given_seed(self):
        system = build_example1_system()
        a = DisturbanceModel(kind="uniform_ball", seed=9).realize(system, 30)
        b = DisturbanceModel(kind="uniform_ball", seed=9).realize(system, 30)
        for sa, sb in zip(a, b):
            for da, db in zip(sa, sb):
                assert np.array_equal(da, db)

    def test_radii_override(self):
        system = build_example1_system()
        seq = DisturbanceModel(kind="worst_case_boundary", seed=1,
                               radii=(0.5, 0.1, 0.0)).realize(system, 10)
        for step in seq:
            assert float(np.linalg.norm(step[0])) == pytest.approx(0.5)
            assert float(np.linalg.norm(step[1])) == pytest.approx(0.1)
            assert np.array_equal(step[2], np.zeros(1))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            DisturbanceModel(kind="gaussian")

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
    def test_bad_seed_rejected_at_construction(self, seed):
        # each was accepted, then failed in numpy at realize (or, for True,
        # ran as seed 1)
        with pytest.raises(FieldError, match=re.escape(
                "seed: expected a nonnegative integer")):
            DisturbanceModel(seed=seed)

    def test_numpy_integer_seed_is_the_equal_int(self):
        system = build_example1_system()
        dist = DisturbanceModel(seed=np.int64(9))
        assert type(dist.seed) is int and dist.seed == 9
        a = dist.realize(system, 5)
        b = DisturbanceModel(seed=9).realize(system, 5)
        for sa, sb in zip(a, b):
            for da, db in zip(sa, sb):
                assert np.array_equal(da, db)

    @pytest.mark.parametrize("radii", [(0.1,), (0.1, 0.1, 0.1, 0.1)])
    def test_radii_count_must_match_subsystems(self, radii):
        system = build_example1_system()
        dist = DisturbanceModel(radii=radii)
        with pytest.raises(ValueError, match=re.escape(
                f"disturbance radii has {len(radii)} entries for 3 "
                "subsystems")):
            dist.realize(system, 5)


def _weights(q, r, tau):
    """FixedParams carrying only the stage-cost weights stage_cost reads."""
    n = len(tau)
    return FixedParams(X=[None] * n, lam=[None] * n, N_const=[None] * n,
                       M=[None] * n, tau=tau, Q=q, R=r)


class TestCosts:
    def test_all_zero_is_zero(self):
        z = [np.zeros(2)] * 2
        zu = [np.zeros(1)] * 2
        zd = [np.zeros(1)] * 2
        assert stage_cost(z, zu, zd,
                          _weights(np.eye(2), np.eye(1), [1.0, 1.0])) == 0.0

    def test_unit_state_identity_weight(self):
        cost = stage_cost([np.array([1.0, 0.0])], [np.zeros(1)], [np.zeros(1)],
                          _weights(np.eye(2), np.eye(1), [1.0]))
        assert cost == pytest.approx(1.0)

    def test_per_subsystem_weights(self):
        x_all = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        u_all = [np.ones(1), 2.0 * np.ones(1)]
        d_all = [np.zeros(1), np.ones(1)]
        params = _weights([np.eye(2), 3.0 * np.eye(2)],
                          [np.eye(1), 0.5 * np.eye(1)], [1.0, 4.0])
        # (1 + 1 - 0) + (3 + 0.5 * 4 - 4)
        assert stage_cost(x_all, u_all, d_all, params) == 3.0

    def test_matches_scalar_expansion(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x_all = [rng.standard_normal(2) for _ in range(3)]
            u_all = [rng.standard_normal(1) for _ in range(3)]
            d_all = [rng.standard_normal(1) for _ in range(3)]
            q = np.diag(rng.uniform(0.1, 2.0, size=2))
            r = np.array([[float(rng.uniform(0.1, 2.0))]])
            tau = [float(rng.uniform(0.5, 3.0)) for _ in range(3)]
            want = 0.0
            for i in range(3):
                want += sum(x_all[i][a] * q[a, b] * x_all[i][b]
                            for a in range(2) for b in range(2))
                want += r[0, 0] * u_all[i][0] ** 2
                want -= tau[i] * d_all[i][0] ** 2
            got = stage_cost(x_all, u_all, d_all, _weights(q, r, tau))
            assert got == pytest.approx(want, abs=1e-12)

    def test_quad_form_values(self):
        assert quad_form(np.zeros(3), np.eye(3)) == 0.0
        assert quad_form(np.array([3.0, 4.0]), np.eye(2)) == pytest.approx(25.0)


class TestRunOnlineLoop:
    def test_zero_start_zero_disturbance_stays_zero(self):
        system = build_example1_system()
        trace = run_online_loop(system, example1_reference_params(),
                                [np.zeros(2)] * 3, 8, resynth="once",
                                gains=example1_reference_gains())
        for k in range(len(trace.x)):
            for x in trace.x[k]:
                assert np.array_equal(x, np.zeros(2))
        assert all(p == 0.0 for p in trace.psi)

    @pytest.mark.parametrize("n_steps", [-1, 2.5, True])
    def test_bad_step_count_rejected(self, n_steps):
        # -1 ran no step and then failed deriving the stage costs of an
        # empty run; True ran one step
        with pytest.raises(FieldError, match=re.escape(
                "steps: expected a nonnegative integer")):
            run_online_loop(build_example1_system(),
                            example1_reference_params(),
                            [np.zeros(2)] * 3, n_steps, resynth="once",
                            gains=example1_reference_gains())

    def test_numpy_integer_step_count_runs(self):
        trace = run_online_loop(build_example1_system(),
                                example1_reference_params(),
                                [np.array([1.0, -1.0])] * 3, np.int64(3),
                                resynth="once",
                                gains=example1_reference_gains())
        assert trace.n_steps == 3

    def test_reference_gains_drive_states_to_zero(self):
        system = build_example1_system()
        trace = run_online_loop(system, example1_reference_params(),
                                [np.array([1.0, -1.0])] * 3, 70,
                                resynth="once",
                                gains=example1_reference_gains())
        norms = [max(float(np.linalg.norm(x)) for x in trace.x[k])
                 for k in range(len(trace.x))]
        assert norms[60] < 1e-2
        assert norms[-1] < norms[0]

    def test_input_bounds_respected_along_run(self):
        system = build_example1_system()
        trace = run_online_loop(system, example1_reference_params(),
                                [np.array([1.0, -1.0])] * 3, 50,
                                dist=DisturbanceModel(kind="uniform_ball", seed=4),
                                resynth="once",
                                gains=example1_reference_gains())
        for step in trace.u:
            for i, u in enumerate(step):
                assert np.all(np.abs(u) <= system.subsystems[i].u_max + 1e-12)

    def test_trace_is_deterministic(self):
        system = build_example1_system()

        def run():
            return run_online_loop(system, example1_reference_params(),
                                   [np.array([1.0, -1.0])] * 3, 25,
                                   dist=DisturbanceModel(kind="uniform_ball",
                                                         seed=42),
                                   resynth="once",
                                   gains=example1_reference_gains())

        a, b = run(), run()
        for k in range(a.n_steps):
            for i in range(3):
                assert np.array_equal(a.x[k][i], b.x[k][i])
                assert np.array_equal(a.u[k][i], b.u[k][i])
                assert np.array_equal(a.d[k][i], b.d[k][i])
        assert a.psi == b.psi
        assert a.worst_margin == b.worst_margin

    def test_trace_shapes_and_times(self):
        system = build_example1_system()
        trace = run_online_loop(system, example1_reference_params(),
                                [np.array([1.0, -1.0])] * 3, 15,
                                resynth="once",
                                gains=example1_reference_gains(), Ts=0.2)
        trace.validate()
        assert trace.n_steps == 15
        assert len(trace.x) == 16 and len(trace.V) == 16
        assert trace.meta["supplied_gains"] is True
        assert trace.solves == 0
        # recorded memberships are normalized
        for k in range(trace.n_steps):
            for i in range(3):
                assert trace.w[k][i].sum() == pytest.approx(1.0, abs=1e-12)
                assert trace.h[k][i].sum() == pytest.approx(1.0, abs=1e-12)

    def test_supplied_gains_start_at_the_settled_floor(self):
        # supplied gains are sized by _settle on no parts: each subsystem's
        # floor max(sqrt(x'Xx), N eta^2), a hair above it. At a zero state
        # that is the disturbance budget N eta^2 = 0.5 * 0.2^2, haired
        system = build_example1_system()
        params = example1_reference_params()
        x0 = [np.zeros(2), np.array([1.0, -1.0]), np.zeros(2)]
        trace = run_online_loop(system, params, x0, 1,
                                gains=example1_reference_gains())
        haired = 1.0 + XI_HAIR
        floors = budget_floors(system, params, x0)
        assert trace.xi[0] == [floor * haired for floor in floors]
        assert floors[0] == floors[2] == 0.5 * 0.2 ** 2 < floors[1]

    def test_unknown_resynth_mode_rejected(self):
        system = build_example1_system()
        with pytest.raises(ValueError, match="resynth"):
            run_online_loop(system, example1_reference_params(),
                            [np.zeros(2)] * 3, 3, resynth="sometimes",
                            gains=example1_reference_gains())

    @pytest.mark.parametrize("n_steps", [0, 3])
    @pytest.mark.parametrize("settings, message", [
        (dict(mu_bar=2.0), "mu_bar: must lie in [0, 1]"),
        (dict(mode="bogus"), "mode: unknown membership mode 'bogus'"),
        (dict(mode="reconstructed"),
         "rho_bar: reconstructed mode needs rho_bar in [0, 1]"),
        (dict(rho_bar=-0.5), "rho_bar: must lie in [0, 1]")])
    def test_bad_weighting_rejected_before_any_synthesis(
            self, monkeypatch, n_steps, settings, message):
        # a cold minimize_xi ran before the first step refused these, and
        # a run of no steps kept them (trace.meta["mu_bar"] read 2.0)
        def no_synthesis(*args, **kwargs):
            raise AssertionError("synthesis ran before the settings check")

        monkeypatch.setattr(simulation, "minimize_xi", no_synthesis)
        with pytest.raises(FieldError) as info:
            run_online_loop(build_example1_system(),
                            example1_synthesis_params(),
                            [np.array([1.0, -1.0])] * 3, n_steps,
                            resynth="every_step", **settings)
        assert str(info.value) == message

    def test_infeasible_constants_raise_at_step_zero(self):
        # coupling loads far above the shape scale make synthesis hopeless
        system = build_example1_system()
        system = dataclasses.replace(system, subsystems=tuple(
            dataclasses.replace(sub, couplings={j: 10.0 * np.eye(2)
                                                for j in sub.couplings})
            for sub in system.subsystems))
        params = example1_synthesis_params()
        with pytest.raises(InitialInfeasible):
            run_online_loop(system, params, [np.array([1.0, -1.0])] * 3, 3,
                            syn_cfg=SynthesisConfig())

    def test_every_step_reuses_warm_certificate(self, ex1_synthesized):
        system, params, x0, res, _ = ex1_synthesized
        trace = run_online_loop(system, params, x0, 6,
                                dist=DisturbanceModel(kind="uniform_ball",
                                                      seed=1),
                                resynth="every_step", warm=res.dv)
        assert all(trace.resynthesized)
        assert all(trace.feasible)
        assert max(trace.worst_margin) <= 0.0
        # set sizes never need to grow along the run
        assert max(v[0] for v in trace.xi) <= res.dv.xi[0] * (1.0 + 1e-6)

    def test_per_subsystem_every_step_warm_path(self, ex1_synthesized):
        # each subsystem's size is re-minimized on its own from the warm
        # certificate; the warm gains carry every step, so no gain search runs
        system, params, x0, res, _ = ex1_synthesized
        trace = run_online_loop(system, params, x0, 10,
                                dist=DisturbanceModel(kind="uniform_ball",
                                                      seed=1),
                                resynth="every_step", warm=res.dv,
                                xi_mode="per_subsystem")
        assert all(trace.feasible)
        assert trace.solves == 0
        for xs, xis in zip(trace.x, trace.xi):
            for i, (xi, floor) in enumerate(
                    zip(xis, budget_floors(system, params, xs))):
                assert xi >= floor
                assert xi <= res.dv.xi[i] * (1.0 + 1e-6)
            # subsystem 0's size follows its shrinking state below the others
            assert xis[0] < xis[2]
        # the exact interval end replaces a 1e-3 bisection: never larger
        # than the bisected sizes [0.908320214914707, 8.969839902582537,
        # 9.901832152969146]; and the EVP gains replace the gains of the
        # derivative-free search: never larger than their interval ends
        # [0.9082536879483349, 8.965972058830245, 9.900614785636536].
        # Subsystem 0 ends on its disturbance budget 20 * 0.2^2, haired
        final = trace.meta["final_xi"]
        assert final == pytest.approx(
            [0.8000008, 8.190346085818252, 9.895246779437825], rel=1e-9)
        for xi, bisected, searched in zip(
                final, [0.908320214914707, 8.969839902582537,
                        9.901832152969146],
                [0.9082536879483349, 8.965972058830245, 9.900614785636536]):
            assert xi <= bisected
            assert xi <= searched

    @pytest.mark.parametrize("xi_mode", ["common", "per_subsystem"])
    def test_every_step_xi_is_interval_end_or_floor(self, ex1_synthesized,
                                                    xi_mode):
        # at the warm gains each step's size is max(xi_lo, floor_k), both
        # kept a hair inside their boundaries, where floor_k is the
        # containment size at least the disturbance budget
        system, params, x0, res, _ = ex1_synthesized
        cfg = SynthesisConfig()
        trace = run_online_loop(system, params, x0, 10,
                                dist=DisturbanceModel(kind="uniform_ball",
                                                      seed=3),
                                resynth="every_step", warm=res.dv,
                                xi_mode=xi_mode)
        assert all(trace.feasible)
        assert trace.solves == 0
        evaluator = FixedGainEvaluator(system, params, res.dv, cfg)
        groups = [range(3)] if xi_mode == "common" else [(0,), (1,), (2,)]
        for xs, xis in zip(trace.x, trace.xi):
            floors = budget_floors(system, params, xs)
            for group in groups:
                lo = max(evaluator.parts[i].interval[0] for i in group)
                floor = max(floors[i] for i in group)
                want = max(lo * (1.0 + XI_HAIR), floor * (1.0 + XI_HAIR))
                for i in group:
                    assert xis[i] == pytest.approx(want, rel=1e-9)

    def test_unknown_xi_mode_rejected_with_supplied_gains(self):
        with pytest.raises(ValueError, match="xi mode"):
            run_online_loop(build_example1_system(),
                            example1_reference_params(), [np.zeros(2)] * 3,
                            3, gains=example1_reference_gains(),
                            xi_mode="bogus")


class TestDisturbanceBudget:
    """A set size xi_i certifies disturbances d'd <= xi_i / N_i, so every
    size the loop uses is at least N_i eta_i^2: it covers the configured
    bound eta_i from a cold start, warm from the stored certificate and
    with supplied gains, in either mode."""

    @pytest.mark.parametrize("xi_mode", ["common", "per_subsystem"])
    @pytest.mark.parametrize("start", ["cold", "warm", "supplied"])
    def test_no_step_is_below_the_budget(self, start, xi_mode):
        cfg = load_bundled_config(
            "example1" if start == "supplied" else "example1_synthesis")
        sim = cfg.simulation
        warm = load_certificate(CERTIFICATE, cfg.system)[0] \
            if start == "warm" else None
        trace = run_online_loop(
            cfg.system, cfg.params, sim.x0, 100, dist=sim.disturbance,
            syn_cfg=cfg.synthesis, xi_mode=xi_mode, warm=warm,
            gains=cfg.gains if start == "supplied" else None)
        budgets = [n * sub.eta ** 2 for n, sub in
                   zip(cfg.params.N_const, cfg.system.subsystems)]
        for xis in trace.xi:
            assert all(xi >= budget for xi, budget in zip(xis, budgets))

    def test_cold_per_subsystem_run_ends_on_the_budget(self):
        # the run whose subsystem 0 sat below 20 * 0.2^2 = 0.8 in 97 of its
        # 100 steps, ending at 0.7788184905784; those steps now hold the
        # budget, a hair above it
        cfg = load_bundled_config("example1_synthesis")
        sim = cfg.simulation
        trace = run_online_loop(cfg.system, cfg.params, sim.x0, 100,
                                dist=sim.disturbance, syn_cfg=cfg.synthesis,
                                xi_mode="per_subsystem")
        at_budget = 20.0 * 0.2 ** 2 * (1.0 + XI_HAIR)
        assert trace.meta["final_xi"][0] == at_budget == 0.8000008000000001
        assert sum(xis[0] == at_budget for xis in trace.xi) == 97


class TestIssCheck:
    def test_zero_trajectory_trivially_clean(self):
        system = build_example1_system()
        params = example1_reference_params()
        trace = run_online_loop(system, params, [np.zeros(2)] * 3, 5,
                                resynth="once",
                                gains=example1_reference_gains())
        report = iss_check(trace, params)
        assert report["n_checked"] == 0
        assert report["ok"]

    def test_certified_run_has_no_violations(self, ex1_synthesized):
        system, params, x0, res, _ = ex1_synthesized
        trace = run_online_loop(system, params, x0, 40,
                                dist=DisturbanceModel(kind="uniform_ball",
                                                      seed=2),
                                resynth="every_step", warm=res.dv)
        report = iss_check(trace, params)
        assert report["n_checked"] == 40
        assert report["violations"] == []
        assert report["sandwich_violations"] == []
        assert report["worst_slack"] < 0.0

    def test_destabilizing_gains_are_reported(self):
        system = build_example1_system()
        params = example1_reference_params()
        bad = [[np.array([[3.0, 3.0]]), np.array([[3.0, 3.0]])]
               for _ in range(3)]
        trace = run_online_loop(system, params, [np.array([1.0, -1.0])] * 3,
                                20, resynth="once", gains=bad)
        report = iss_check(trace, params)
        assert report["violations"]
        assert not report["ok"]

    @staticmethod
    def reference_iss(trace, params):
        """The step-by-step, subsystem-by-subsystem check iss_check stacks."""
        violations, sandwich_bad = [], []
        worst_slack, n_checked = -np.inf, 0
        n = len(params.X)
        for k in range(trace.n_steps):
            xi_all, x_now, x_next = trace.xi[k], trace.x[k], trace.x[k + 1]
            if all(float(np.linalg.norm(x)) == 0.0 for x in x_now):
                continue
            n_checked += 1
            v_now = v_next = bound = 0.0
            for i in range(n):
                p_i = params.X[i] / xi_all[i]
                v_now += quad_form(x_now[i], p_i)
                v_next += quad_form(x_next[i], p_i)
                r_eff = params.M[i] / xi_all[i]
                x, u, d = x_now[i], trace.u[k][i], trace.d[k][i]
                bound += (-float(x @ params.q_mat(i) @ x)
                          - float(u @ r_eff @ u)
                          + params.tau[i] * float(d @ d))
            slack = (v_next - v_now) - bound
            worst_slack = max(worst_slack, slack)
            if slack >= 0.0:
                violations.append((k, slack))
            for i in range(n):
                eigs = np.linalg.eigvalsh(params.X[i])
                w_min, w_max = eigs[[0, -1]] / xi_all[i]
                nrm2 = float(x_now[i] @ x_now[i])
                v_i = quad_form(x_now[i], params.X[i] / xi_all[i])
                tol = 1e-9 * max(1.0, abs(v_i))
                if not (w_min * nrm2 - tol <= v_i <= w_max * nrm2 + tol):
                    sandwich_bad.append((k, i))
        return {"n_checked": n_checked, "violations": violations,
                "worst_slack": worst_slack,
                "sandwich_violations": sandwich_bad,
                "ok": not violations and not sandwich_bad}

    def test_matches_per_step_reference(self):
        system = build_example1_system()
        params = example1_reference_params()
        bad = [[np.array([[3.0, 3.0]]), np.array([[3.0, 3.0]])]
               for _ in range(3)]
        runs = [
            # from rest: step 0 has a zero state and is skipped
            run_online_loop(system, params, [np.zeros(2)] * 3, 12,
                            dist=DisturbanceModel(kind="uniform_ball",
                                                  seed=4),
                            gains=example1_reference_gains()),
            run_online_loop(system, params, [np.array([1.0, -1.0])] * 3, 12,
                            gains=bad),
            run_online_loop(system, params, [np.array([1.0, -1.0])] * 3, 0,
                            gains=bad),
        ]
        for trace in runs:
            assert iss_check(trace, params) == self.reference_iss(trace,
                                                                  params)
        assert iss_check(runs[0], params)["n_checked"] == 11
        assert iss_check(runs[1], params)["violations"]


def contractive_single_subsystem():
    """One decoupled subsystem with x+ = 0.5 x + E d and zero gains."""
    a = 0.5 * np.eye(2)
    rules = tuple(Rule(A=a.copy(), B=np.eye(2), E=np.array([[0.1], [0.0]]))
                  for _ in range(2))
    sub = Subsystem(rules=rules, couplings={}, model_mfs=model_mf_family(),
                    controller_mfs=controller_mf_family(),
                    u_max=np.array([1.0, 1.0]), eta=1e-6)
    system = LargeScaleSystem(subsystems=(sub,))
    system.validate()
    gains = [[np.zeros((2, 2)), np.zeros((2, 2))]]
    params = FixedParams(X=[np.eye(2)], lam=[0.5], N_const=[1e12],
                         M=[np.eye(2)], tau=[1.0], Q=np.eye(2), R=np.eye(2),
                         alpha=2.0)
    dv = DecisionVars(gains=gains, xi=[1.0])
    return system, params, dv


class TestRpiMonteCarlo:
    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_rejected(self, seed):
        # -1 failed in numpy; True ran as seed 1
        system, params, dv = contractive_single_subsystem()
        with pytest.raises(ValueError, match=re.escape(
                f"rpi_monte_carlo needs an integer seed >= 0, got {seed!r}")):
            rpi_monte_carlo(system, params, dv, n_samples=10, seed=seed)

    def test_numpy_integers_are_kept(self):
        system, params, dv = contractive_single_subsystem()
        report = rpi_monte_carlo(system, params, dv, n_samples=np.int64(30),
                                 seed=np.uint8(4))
        assert type(report["n_samples"]) is int
        assert report == rpi_monte_carlo(system, params, dv, n_samples=30,
                                         seed=4)

    def test_contractive_decoupled_system_never_exits(self):
        system, params, dv = contractive_single_subsystem()
        report = rpi_monte_carlo(system, params, dv, n_samples=400, seed=5)
        assert report["ok"]
        assert report["scalar_violations"] == 0
        assert report["exit_events"] == 0

    def test_benchmark_certificate_clean_and_interior(self, ex1_synthesized):
        system, params, _, res, _ = ex1_synthesized
        report = rpi_monte_carlo(system, params, res.dv, n_samples=1500,
                                 seed=0)
        assert report["ok"]
        assert report["worst_scalar"] <= 1e-9
        # strict margins leave even boundary starts strictly interior
        assert report["worst_exit_margin"] < 0.0

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "per-subsystem invariance gap (ROADMAP item 11): the certificate "
        "verifies, yet 759 of 2,000 samples break the decrease scalar and "
        "969 leave the set"))
    def test_per_subsystem_loop_certificate_is_invariant(self):
        # the cold per_subsystem loop keeps its step-0 gains and holds
        # xi = [0.8000008, 8.1903, 9.8952] from step 10 on; subsystem 0 sits
        # at its disturbance budget, far below its step-0 size 5.477
        cfg = load_bundled_config("example1_synthesis")
        system, params, sim = cfg.system, cfg.params, cfg.simulation
        trace = run_online_loop(
            system, params, sim.x0, 100, dist=sim.disturbance,
            syn_cfg=cfg.synthesis, Ts=cfg.Ts, mu_bar=sim.mu_bar,
            mode=sim.mode, rho_bar=sim.rho_bar, xi_mode="per_subsystem")
        assert trace.solves == 3        # one cold solve, at step 0
        gains = minimize_xi(system, params, sim.x0, cfg.synthesis,
                            mode="per_subsystem").dv.gains
        dv = DecisionVars(gains, trace.xi[-1])
        assert verify_certificate(system, params, dv, None,
                                  cfg.synthesis)["feasible"]
        assert rpi_monte_carlo(system, params, dv, n_samples=2000,
                               seed=0)["ok"]

    def test_report_deterministic_given_seed(self):
        system, params, dv = contractive_single_subsystem()
        a = rpi_monte_carlo(system, params, dv, n_samples=200, seed=3)
        b = rpi_monte_carlo(system, params, dv, n_samples=200, seed=3)
        assert a == b
        # the sampling draws its random numbers in a fixed order: these are
        # the values of the per-sample eigensolve version, bit for bit
        assert a["worst_scalar"] == -0.012366960745845382
        assert a["worst_exit_margin"] == -0.7499999165368416
