"""Acceptance gate: nine behavioral criteria with explicit tolerances and
runtime budgets, printing one verdict line each (run with -s to see them).

Criteria 1-2 tie the block conditions to independent scalar oracles, 3-4
reproduce the three-subsystem benchmark (reference gains, then synthesized
gains), 5-7 exercise invariance, dissipation, and recursive feasibility,
8 reproduces the coupled-pendulum disturbance-attenuation story, and 9
floors the eigensolver accuracy."""

import time

import numpy as np
import pytest

from conftest import (build_example1_system, build_example2_system,
                      example1_reference_gains, example1_reference_params,
                      example2_stabilizing_gains, example2_reference_params,
                      shape_params)
from it2mpc.linalg import is_nsd, min_eig, sym_eig
from it2mpc.lmis import (assemble_containment, assemble_decrease,
                         assemble_invariance)
from it2mpc.simulation import (DisturbanceModel, iss_check, rpi_monte_carlo,
                               run_online_loop)
from test_linalg import random_symmetric
from test_lmis import (_decrease_scalar, _draw_setup, _folded,
                       _invariance_scalar, _pick_vertex, _draw_point,
                       _vertex_theta_e)


def _verdict(num: int, ok: bool, desc: str):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def _input_violations(trace, u_max):
    worst = 0.0
    for u_all in trace.u:
        for u in u_all:
            worst = max(worst, float(np.max(np.abs(u))) - u_max)
    return worst


class TestOracleCriteria:
    def test_criterion_1_quadratic_forms_match_scalar_oracles(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(200):
            system, params, dv = _draw_setup(rng)
            i, sub, l, m = _pick_vertex(rng, system)
            d, x_i, x_js, v = _draw_point(rng, system, sub)
            theta, e, k = _vertex_theta_e(sub, dv, i, l, m)

            inv = assemble_invariance(system, params, dv, i, [l], [m])
            want = dv.xi[i] ** 2 * _invariance_scalar(
                system, params, dv, i, theta, e, d, x_i, x_js)
            got = float(v @ _folded(inv)[0] @ v)
            err = abs(got - want) / max(1.0, abs(want))
            worst = max(worst, err)

            dec = assemble_decrease(system, params, dv, i, [l], [m])
            want = dv.xi[i] * _decrease_scalar(
                system, params, dv, i, theta, e, k, d, x_i, x_js)
            got = float(v @ _folded(dec)[0] @ v)
            err = abs(got - want) / max(1.0, abs(want))
            worst = max(worst, err)
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-9 and elapsed < 5.0
        _verdict(1, ok, f"invariance+decrease oracle equivalence, 200 draws "
                        f"each, worst rel err {worst:.2e}, {elapsed:.2f}s")

    def test_criterion_2_schur_forms_agree_on_verdicts(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(102)
        agree = 0
        outcomes = []
        for trial in range(100):
            system, params, dv = _draw_setup(rng, calm=trial % 2 == 0)
            i, sub, l, m = _pick_vertex(rng, system)
            full = assemble_invariance(system, params, dv, i, [l], [m])
            v_full = is_nsd(full.matrix[0], tol=1e-8)
            v_fold = is_nsd(_folded(full)[0], tol=1e-8)
            agree += v_full == v_fold
            outcomes.append(v_full)
        elapsed = time.perf_counter() - t0
        mixed = 5 <= sum(outcomes) <= 95
        ok = agree == 100 and mixed and elapsed < 2.0
        _verdict(2, ok, f"block vs folded form verdicts agree on "
                        f"{agree}/100 instances (tol 1e-8), {elapsed:.2f}s")


class TestBenchmarkCriteria:
    def test_criterion_3_reference_gains_converge(self):
        system = build_example1_system()
        params = example1_reference_params()
        x0 = [np.array([1.0, -1.0])] * 3
        t0 = time.perf_counter()
        trace = run_online_loop(system, params, x0, 100,
                                dist=DisturbanceModel(kind="zero"),
                                resynth="once",
                                gains=example1_reference_gains(), Ts=0.2)
        elapsed = time.perf_counter() - t0
        tail_norms = [max(float(np.linalg.norm(trace.x[k][i]))
                          for k in range(60, 101))
                      for i in range(3)]
        worst_u = _input_violations(trace, 5.0)
        ok = max(tail_norms) < 1e-2 and worst_u <= 0.0 and elapsed < 1.0
        _verdict(3, ok, f"reference-gain run: max ||x_i(k>=60)|| = "
                        f"{max(tail_norms):.2e} < 1e-2, input excess "
                        f"{worst_u:.2e}, {elapsed:.2f}s")

    def test_criterion_4_synthesis_feasible_and_converges(self,
                                                          ex1_synthesized):
        system, params, x0, res, solve_seconds = ex1_synthesized
        worst_margin = max(res.margins.values())
        trace = run_online_loop(system, params, x0, 100,
                                dist=DisturbanceModel(kind="zero"),
                                resynth="once", gains=res.dv.gains, Ts=0.2)
        tail_norms = [max(float(np.linalg.norm(trace.x[k][i]))
                          for k in range(60, 101))
                      for i in range(3)]
        worst_u = _input_violations(trace, 5.0)
        ok = (res.feasible and res.violation == 0.0
              and worst_margin <= -1e-9 and max(tail_norms) < 1e-2
              and worst_u <= 0.0 and solve_seconds < 60.0)
        _verdict(4, ok, f"synthesis: violation {res.violation}, worst margin "
                        f"{worst_margin:.2e} <= -1e-9, xi = "
                        f"{res.dv.xi[0]:.4f}, tail norm "
                        f"{max(tail_norms):.2e}, solve {solve_seconds:.1f}s")

    def test_criterion_5_monte_carlo_invariance(self, ex1_synthesized):
        system, params, _, res, _ = ex1_synthesized
        t0 = time.perf_counter()
        report = rpi_monte_carlo(system, params, res.dv, n_samples=10_000,
                                 seed=0, tol=1e-9)
        elapsed = time.perf_counter() - t0
        ok = (report["scalar_violations"] == 0 and report["exit_events"] == 0
              and elapsed < 10.0)
        _verdict(5, ok, f"10^4 sampled states/disturbances/weights: "
                        f"{report['scalar_violations']} pointwise violations, "
                        f"{report['exit_events']} set exits, worst one-step "
                        f"margin {report['worst_exit_margin']:.2e}, "
                        f"{elapsed:.1f}s")

    def test_criterion_6_dissipation_along_disturbed_runs(self,
                                                          ex1_synthesized):
        system, params, x0, res, _ = ex1_synthesized
        total_checked = 0
        total_violations = 0
        total_sandwich = 0
        worst = -np.inf
        for seed in range(10):
            trace = run_online_loop(
                system, params, x0, 200,
                dist=DisturbanceModel(kind="uniform_ball", seed=seed),
                resynth="once", warm=res.dv, Ts=0.2)
            report = iss_check(trace, params)
            total_checked += report["n_checked"]
            total_violations += len(report["violations"])
            total_sandwich += len(report["sandwich_violations"])
            worst = max(worst, report["worst_slack"])
        ok = (total_violations == 0 and total_sandwich == 0
              and total_checked == 2000)
        _verdict(6, ok, f"decrease inequality on {total_checked} disturbed "
                        f"steps (10 seeds x 200): {total_violations} "
                        f"violations, {total_sandwich} sandwich failures, "
                        f"worst slack {worst:.3g}")

    def test_criterion_7_recursive_feasibility(self, ex1_synthesized):
        system, params, x0, res, _ = ex1_synthesized
        runs = 0
        infeasible_steps = 0
        for seed in range(5):
            trace = run_online_loop(
                system, params, x0, 100,
                dist=DisturbanceModel(kind="uniform_ball", seed=100 + seed),
                resynth="every_step", warm=res.dv, Ts=0.2)
            runs += 1
            assert all(trace.resynthesized)
            infeasible_steps += sum(not f for f in trace.feasible)
        ok = runs == 5 and infeasible_steps == 0
        _verdict(7, ok, f"every-step resynthesis, 100 steps x 5 seeds: "
                        f"{infeasible_steps} infeasible steps, no feasibility "
                        f"exceptions raised")


class TestPendulumCriterion:
    def test_criterion_8_outputs_bounded_and_decaying(self):
        system = build_example2_system()
        params = example2_reference_params()
        x0 = [np.array([0.5, 0.0])] * 2
        trace = run_online_loop(
            system, params, x0, 400,
            dist=DisturbanceModel(kind="uniform_ball", seed=42),
            resynth="once", gains=example2_stabilizing_gains(), Ts=0.2)
        ratios = []
        for i, sub in enumerate(system.subsystems):
            y = np.array([float(np.abs(sub.H @ trace.x[k][i])[0])
                          for k in range(len(trace.x))])
            assert np.all(np.isfinite(y))
            peak = float(y.max())
            tail = float(y[101:].max())
            ratios.append(tail / peak)
        worst_u = _input_violations(trace, 50.0)
        ok = max(ratios) < 0.10 and worst_u <= 0.0
        _verdict(8, ok, f"coupled pendulums, bounded disturbance: output "
                        f"tail/peak ratios {ratios[0]:.3f}, {ratios[1]:.3f} "
                        f"< 0.10, input excess {worst_u:.2e}")


class TestNumericsCriterion:
    def test_criterion_9_eigensolver_floor(self):
        rng = np.random.default_rng(109)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 17))
            a = random_symmetric(rng, n, scale=float(rng.uniform(0.01, 100.0)))
            w, v = sym_eig(a)
            resid = float(np.abs(a @ v - v * w).max())
            worst = max(worst, resid / max(1.0, float(np.abs(a).max())))
        boundary = assemble_containment(shape_params(np.eye(2)), (0,),
                                        np.array([[1.0, 0.0]]), [1.0])
        boundary_eig = abs(min_eig(boundary.matrix[0]))
        ok = worst <= 1e-9 and boundary_eig <= 1e-10
        _verdict(9, ok, f"eigen-residuals on 1000 matrices (dim <= 16): "
                        f"worst {worst:.2e} <= 1e-9; boundary containment "
                        f"min eig {boundary_eig:.1e} <= 1e-10")
