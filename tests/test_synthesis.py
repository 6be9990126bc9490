import dataclasses
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (assemble_one, budget_floors, build_example1_system,
                      build_tiny_system, controller_mf_family,
                      example1_reference_params, example1_synthesis_params,
                      model_mf_family, own_containment_block, shape_params,
                      tiny_params)
from test_lmis import _draw_setup
from it2mpc import lmis, synthesis
from it2mpc.configio import (bundled_config_names, load_bundled_config,
                             load_certificate)
from it2mpc.linalg import (InvalidMatrixError, SingularBlockError, max_eig,
                           min_eig)
from it2mpc.lmis import (DecisionVars, FixedParams, assemble_decrease,
                         assemble_decrease_blended, assemble_invariance,
                         assemble_invariance_blended, containment_sizes)
from it2mpc.plant import LargeScaleSystem, Rule, Subsystem
from it2mpc.synthesis import (XI_HAIR, FixedGainEvaluator, Infeasible,
                              SynthesisConfig, _models, _Part, _simplex_grid,
                              certificate_margins, minimize_xi, solve_fixed_xi,
                              verify_certificate)

TINY_X0 = [np.array([0.3, -0.3])]
FIXTURE = (Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
           / "example1_certificate.json")
CFG = SynthesisConfig()


@pytest.fixture(scope="module")
def tiny():
    return build_tiny_system(), tiny_params()


@pytest.fixture(scope="module")
def tiny_result(tiny):
    system, params = tiny
    return minimize_xi(system, params, TINY_X0, CFG)


def _bundled_dv(cfg, ex1_synthesized, scale=1.0):
    """A certificate for a bundled config, its set sizes times `scale`: the
    config's gains at xi_i = 0.7 + 0.4 i, or the shared example1 solve
    when the config carries no gains."""
    if cfg.gains is None:
        gains, xi = ex1_synthesized[3].dv.gains, ex1_synthesized[3].dv.xi
    else:
        gains = cfg.gains
        xi = [0.7 + 0.4 * i for i in range(cfg.system.n_subsystems)]
    return DecisionVars(gains=gains, xi=[scale * v for v in xi])


def _reference_margins(system, params, dv, x_all, cfg):
    """Every certificate row written out per instance, in the key order of
    certificate_margins: one max_eig per vertex and family, one min_eig per
    containment block, and the largest input-peak excess over the set
    {x' (X/xi) x <= xi}, xi^2 (k X^-1 k')_ss - u_max_s^2 over rules k and
    channels s."""
    want = {}
    for i, sub in enumerate(system.subsystems):
        for l in range(sub.n_rules):
            for m in range(sub.n_controller_rules):
                inv = assemble_one(assemble_invariance, system, params, dv, i,
                                   [l], [m])
                want[f"invariance[i={i},l={l},m={m}]"] = max_eig(
                    inv.test_matrix()[0])
                dec = assemble_one(assemble_decrease, system, params, dv, i,
                                   [l], [m])
                want[f"decrease[i={i},l={l},m={m}]"] = max_eig(
                    dec.test_matrix()[0]) + cfg.strictness
        if sub.u_max is not None:
            x_inv = np.linalg.solve(params.X[i], np.eye(sub.n_x))
            peaks = np.array([np.diag(k @ x_inv @ k.T) for k in dv.gains[i]])
            want[f"input_peak[i={i}]"] = float(np.max(
                dv.xi[i] ** 2 * peaks - sub.u_max ** 2))
        if x_all is not None:
            want[f"containment[i={i}]"] = -min_eig(own_containment_block(
                params, i, np.asarray(x_all[i], dtype=float), dv.xi[i]))
    return want


def _assert_margins_match(got, want):
    """Same keys in the same order; vertex rows within 1e-12 of the
    per-instance assembly (the evaluator reads them off the affine model),
    containment and input-peak rows bit for bit."""
    assert list(got) == list(want)
    for key in want:
        if key.startswith(("containment", "input_peak")):
            assert got[key] == want[key]
        else:
            assert got[key] == pytest.approx(want[key], abs=1e-12)


def _count_assemblies(monkeypatch):
    """The members of every condition assembly (lmis._Layout.stack call)
    made from now on, in order."""
    assembled, inner = [], lmis._Layout.stack

    def counted(layout, *args, **kwargs):
        assembled.append(layout.members)
        return inner(layout, *args, **kwargs)

    monkeypatch.setattr(lmis._Layout, "stack", counted)
    return assembled


class TestInputExcess:
    """The input-peak row: the largest excess of the worst-case input
    magnitude over the set {x' (X/xi) x <= xi}, xi^2 (k X^-1 k')_ss -
    u_max_s^2, as the evaluator reads it."""

    @staticmethod
    def _margins(system, xi, gain):
        n_m = system.subsystems[0].n_controller_rules
        dv = DecisionVars(gains=[[gain] * n_m], xi=[xi])
        return FixedGainEvaluator(system, shape_params(np.eye(2)), dv,
                                  CFG).margins(dv.xi)

    def test_unit_gain_on_unit_ball_is_tight(self, tiny):
        system, _ = tiny
        # set {x'x <= 1}: worst |u_s| equals the gain row norm, and
        # u_max = (10, 10); one channel at a time, then both
        for gain, excess in ((np.diag([3.0, 0.0]), 9.0 - 100.0),
                             (np.diag([0.0, 4.0]), 16.0 - 100.0),
                             (np.diag([3.0, 4.0]), 16.0 - 100.0)):
            assert self._margins(system, 1.0, gain)["input_peak[i=0]"] == \
                excess

    def test_no_limits_means_never_binding(self, tiny):
        system, _ = tiny
        sub = dataclasses.replace(system.subsystems[0], u_max=None)
        margins = self._margins(LargeScaleSystem(subsystems=(sub,)), 5.0,
                                np.ones((2, 2)))
        assert "input_peak[i=0]" not in margins


class TestSolveFixedXi:
    def test_feasible_at_generous_size(self, tiny):
        system, params = tiny
        dv = solve_fixed_xi(system, params, 2.0, CFG)
        assert dv.xi == (2.0,)
        margins = certificate_margins(system, params, dv)
        assert max(margins.values()) <= 0.0

    def test_zero_dim_array_is_a_scalar(self, tiny):
        system, params = tiny
        dv = solve_fixed_xi(system, params, np.array(2.0), CFG)
        assert dv.xi == (2.0,)

    def test_scalar_broadcasts_to_all_subsystems(self):
        system = build_example1_system()
        params = example1_reference_params()
        with pytest.raises(Infeasible) as info:
            solve_fixed_xi(system, params, 0.5, CFG)
        assert info.value.best_excess > 0.0

    def test_unstabilizable_plant_raises(self):
        system = build_tiny_system(stable=False)
        params = tiny_params(n_u=1)
        t0 = time.perf_counter()
        with pytest.raises(Infeasible) as info:
            solve_fixed_xi(system, params, 1.0, CFG)
        assert time.perf_counter() - t0 < 0.5
        assert info.value.best_excess > 0.0     # the phase-I bound proves it

    @pytest.mark.parametrize("xi", [[2.0] * 4, 0.0, -1.0, np.nan],
                             ids=["four-sizes", "zero", "negative", "nan"])
    def test_unusable_sizes_rejected(self, xi):
        # example1_synthesis has three subsystems: a fourth size has no
        # subsystem, and a size that is not finite and > 0 has no set (at 0
        # the input-peak rows would divide by it), so none may reach the
        # SDP and come back as a proof
        cfg = load_bundled_config("example1_synthesis")
        with pytest.raises(ValueError, match="3 finite set sizes > 0"):
            solve_fixed_xi(cfg.system, cfg.params, xi, CFG)


class TestMinimizeXi:
    def test_containment_floor_is_binding_on_easy_plant(self, tiny_result):
        # sqrt(x0' X x0) = sqrt(0.9); the plant is easy, so the set shrinks
        # to the smallest size that still contains the state
        floor = float(np.sqrt(0.9))
        assert tiny_result.dv.xi[0] == pytest.approx(floor * (1 + 1e-6),
                                                     rel=1e-9)
        assert tiny_result.feasible
        assert tiny_result.violation == 0.0

    def test_margins_cover_all_condition_families(self, tiny_result):
        origins = {key.split("[", 1)[0] for key in tiny_result.margins}
        assert {"invariance", "decrease", "input_peak",
                "containment"} <= origins

    def test_common_mode_returns_equal_sizes(self):
        system = build_example1_system()
        params = example1_reference_params()
        # infeasible family: common-mode search still reports one scalar
        with pytest.raises(Infeasible):
            minimize_xi(system, params, [np.array([1.0, -1.0])] * 3,
                        CFG, mode="common")

    def test_per_subsystem_matches_common_for_single_subsystem(self, tiny,
                                                               tiny_result):
        # one subsystem: both modes run the same search, bit for bit, cold
        # and warm
        system, params = tiny
        warm = FixedGainEvaluator(system, params, tiny_result.dv, CFG)
        for x, evaluator in ((TINY_X0, None), ([0.5 * TINY_X0[0]], warm)):
            common = minimize_xi(system, params, x, CFG, mode="common",
                                 evaluator=evaluator)
            sub = minimize_xi(system, params, x, CFG, mode="per_subsystem",
                              evaluator=evaluator)
            assert sub.dv.xi == common.dv.xi
            assert sub.solves == common.solves
            for k_sub, k_common in zip(sub.dv.gains[0], common.dv.gains[0]):
                assert np.array_equal(k_sub, k_common)

    def test_unknown_mode_rejected(self, tiny):
        system, params = tiny
        with pytest.raises(ValueError, match="xi mode"):
            minimize_xi(system, params, TINY_X0, CFG, mode="smallest")

    def test_warm_start_never_grows_the_set(self, tiny, tiny_result):
        system, params = tiny
        x_shrunk = [0.5 * TINY_X0[0]]
        res = minimize_xi(system, params, x_shrunk, CFG,
                          evaluator=FixedGainEvaluator(system, params,
                                                       tiny_result.dv, CFG))
        assert res.feasible
        assert res.dv.xi[0] <= tiny_result.dv.xi[0] * (1 + 1e-6)
        # shrunken state lowers the containment floor, so the warm
        # certificate rescales all the way down to it
        floor = float(np.sqrt(0.25 * 0.9))
        assert res.dv.xi[0] == pytest.approx(floor * (1 + 1e-6), rel=1e-3)

    def test_cold_example1_optimum_never_grows(self, ex1_synthesized):
        # the cold optimum stored in perfbench/fixtures; a solver change may
        # shrink the set, never grow it
        _, _, _, res, _ = ex1_synthesized
        assert max(res.dv.xi) <= 9.901832152969146

    @pytest.mark.parametrize("mode", ["common", "per_subsystem"])
    def test_cold_example1_assembles_each_member_once(self, monkeypatch,
                                                      mode):
        # one stacked assembly per family over the layout group builds
        # every member's model;
        # the EVP, the clamp and the result's parts are all read off it, and
        # the result's margins are its certificate_margins bit for bit; the
        # EVP returns one gain for both controller rules (symmetry lemma)
        system, params = build_example1_system(), \
            example1_synthesis_params()
        x0 = [np.array([1.0, -1.0])] * 3
        assembled = _count_assemblies(monkeypatch)
        res = minimize_xi(system, params, x0, CFG, mode=mode)
        monkeypatch.undo()
        assert assembled == [(0, 1, 2), (0, 1, 2)]
        assert res.feasible
        assert list(res.margins.items()) == list(certificate_margins(
            system, params, res.dv, x0, CFG).items())
        assert res.dv.xi[2] == pytest.approx(9.895246779437825, rel=1e-12)
        assert res.xi_lower[2] == pytest.approx(9.895236878375064,
                                                rel=1e-12)
        for gains in res.dv.gains:
            assert len(gains) == 2
            assert all(np.array_equal(k, gains[0]) for k in gains)

    def test_failed_warm_size_falls_back_to_cold_solve(self, tiny):
        # the warm size lies far above the decrease conditions' upper end
        # (xi Q outgrows X), so the warm gains certify nothing there; the
        # search must solve cold instead
        system, params = tiny
        cfg = SynthesisConfig()
        zero = [np.zeros((2, 2))] * 2
        warm = DecisionVars(gains=[zero], xi=[1e4])
        res = minimize_xi(system, params, [np.array([0.01, -0.01])], cfg,
                          evaluator=FixedGainEvaluator(system, params, warm,
                                                       cfg))
        assert res.feasible
        assert max(res.margins.values()) <= 0.0
        assert res.dv.xi[0] < 1e4

    @staticmethod
    def _far_state(scale):
        """example1_synthesis with subsystem 1's state scale * [1, -1]."""
        cfg = load_bundled_config("example1_synthesis")
        x0 = [np.array([1.0, -1.0]), np.array([scale, -scale]),
              np.array([1.0, -1.0])]
        return cfg.system, cfg.params, x0

    @pytest.mark.parametrize("mode", ["common", "per_subsystem"])
    def test_member_short_of_the_size_is_resolved_at_it(self, mode):
        # subsystem 1's containment floor, sqrt(540) ~ 23.2, lies above the
        # upper end (~16.4) of its EVP gains' interval: only it is re-solved,
        # at the haired floor, by the fixed-xi SDP with its input-peak rows
        system, params, x0 = self._far_state(3.0)
        res = minimize_xi(system, params, x0, CFG, mode=mode)
        floor = float(np.sqrt(x0[1] @ params.X[1] @ x0[1]))
        assert res.solves == 4
        assert res.feasible
        assert res.dv.xi[1] == floor * (1.0 + XI_HAIR)
        assert all(np.array_equal(k, res.dv.gains[1][0])
                   for k in res.dv.gains[1])
        lo, hi = res.evaluator.parts[1].interval
        assert lo < res.dv.xi[1] <= hi
        assert res.xi_lower[1] == floor

    @pytest.mark.parametrize("mode", ["common", "per_subsystem"])
    def test_member_infeasible_at_the_size_is_proven(self, mode):
        system, params, x0 = self._far_state(6.0)
        with pytest.raises(Infeasible, match="subsystem 1 has no feasible "
                                             "gains at set size") as info:
            minimize_xi(system, params, x0, CFG, mode=mode)
        assert info.value.best_excess > 0.0

    def test_results_carry_their_evaluator(self, tiny, tiny_result):
        # a cold solve and a warm one that must re-solve (positive-feedback
        # gains) each return the evaluator of their own gains; the next
        # warm step keeps those gains with it as if rebuilt from res.dv
        system, params = tiny
        bad = DecisionVars(
            gains=[[k + 10.0 * np.eye(2) for k in tiny_result.dv.gains[0]]],
            xi=list(tiny_result.dv.xi))
        resolved = minimize_xi(system, params, TINY_X0, CFG,
                               evaluator=FixedGainEvaluator(system, params,
                                                            bad, CFG))
        assert resolved.solves > 0
        x_next = [0.8 * TINY_X0[0]]
        for res in (tiny_result, resolved):
            assert res.evaluator.gains is res.dv.gains
            assert res.margins == certificate_margins(system, params, res.dv,
                                                      TINY_X0, CFG)
            kept = minimize_xi(system, params, x_next, CFG,
                               evaluator=res.evaluator)
            rebuilt = minimize_xi(system, params, x_next, CFG,
                                  evaluator=FixedGainEvaluator(
                                      system, params, res.dv, CFG))
            assert kept.solves == rebuilt.solves == 0
            assert kept.dv.xi == rebuilt.dv.xi
            assert list(kept.margins.items()) == \
                list(rebuilt.margins.items())
            for k_kept, k_rebuilt in zip(kept.dv.gains[0],
                                         rebuilt.dv.gains[0]):
                assert np.array_equal(k_kept, k_rebuilt)

    def test_partial_resolve_rebuilds_only_its_part(self, monkeypatch):
        # subsystem 1's gains times -3 leave it no interval: per subsystem,
        # only it is re-solved (its EVP), subsystems 0 and 2 keep the passed
        # evaluator's parts, and subsystem 1's EVP and new part are read off
        # the model the passed evaluator already holds: nothing is assembled
        cfg = load_bundled_config("example1_synthesis")
        system, params, x0 = cfg.system, cfg.params, cfg.simulation.x0
        dv, _ = load_certificate(FIXTURE, system)
        dv = dataclasses.replace(dv, gains=(
            dv.gains[0], [-3.0 * k for k in dv.gains[1]], dv.gains[2]))
        warm = FixedGainEvaluator(system, params, dv, cfg.synthesis)
        assembled = _count_assemblies(monkeypatch)
        res = minimize_xi(system, params, x0, cfg.synthesis,
                          mode="per_subsystem", evaluator=warm)
        monkeypatch.undo()
        assert res.solves == 1
        assert res.evaluator.parts[0] is warm.parts[0]
        assert res.evaluator.parts[2] is warm.parts[2]
        assert res.evaluator.parts[1].model is warm.parts[1].model
        assert assembled == []
        assert res.dv.xi == pytest.approx(
            [5.477231052277236, 8.190346085818256, 9.900614785636536],
            rel=1e-12)
        assert res.evaluator.gains is res.dv.gains
        report = verify_certificate(system, params, res.dv, x0,
                                    cfg.synthesis)
        assert report["feasible"] is True

    @pytest.mark.parametrize("mode", ["common", "per_subsystem"])
    def test_infeasible_reports_positive_excess(self, mode):
        # the unstable plant is proven infeasible, fast: the phase-I lower
        # bound is positive
        system = build_tiny_system(stable=False)
        params = tiny_params(n_u=1)
        t0 = time.perf_counter()
        with pytest.raises(Infeasible) as info:
            minimize_xi(system, params, TINY_X0, CFG, mode=mode)
        assert time.perf_counter() - t0 < 0.5
        assert "set size" in str(info.value)
        assert 0.0 < info.value.best_excess < np.inf

    @pytest.mark.parametrize("mode, subsystem, message", [
        ("common", None, "no common set size"),
        ("per_subsystem", 0, "subsystem 0: no feasible set size")])
    def test_infeasible_names_subsystem_per_mode(self, mode, subsystem,
                                                 message):
        system = build_tiny_system(stable=False)
        params = tiny_params(n_u=1)
        with pytest.raises(Infeasible, match=message) as info:
            minimize_xi(system, params, TINY_X0, CFG, mode=mode)
        assert info.value.subsystem == subsystem

    def test_unknown_config_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown xi mode"):
            SynthesisConfig(xi_mode="bogus")

    @pytest.mark.parametrize("mode", ["common", "per_subsystem"])
    def test_near_degenerate_draw_is_certified_or_proven(self, monkeypatch,
                                                         mode):
        # _draw_setup(default_rng(78), calm=True) with random input limits:
        # the Newton Hessian of subsystem 1's EVP reaches condition number
        # 1e18, and its phase II stops centering with the duality gap stuck
        # near 8e-9 (target 1e-9) at xi = 0.151. The solve must still end
        # in a certificate that verifies, above its own lower bounds, or in
        # a proven Infeasible, and in few Newton steps (430 today)
        rng = np.random.default_rng(78)
        system, params, _ = _draw_setup(rng, calm=True)
        system = LargeScaleSystem(subsystems=tuple(
            dataclasses.replace(sub, u_max=rng.uniform(0.5, 5.0, sub.n_u))
            for sub in system.subsystems))
        x0 = [np.zeros(sub.n_x) for sub in system.subsystems]
        steps, gaps = [], []        # one lstsq solve per Newton step
        lstsq, barrier = np.linalg.lstsq, synthesis._barrier

        def counting(*args, **kwargs):
            steps.append(1)
            return lstsq(*args, **kwargs)

        def recording(rows, c, y, stop_below=-np.inf, stop_above=np.inf):
            y, bound = barrier(rows, c, y, stop_below, stop_above)
            if np.isinf(stop_below) and np.isinf(stop_above):
                value = float(c @ y)        # a phase II: runs to its gap
                gaps.append((value - bound) / max(1.0, abs(value)))
            return y, bound

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        monkeypatch.setattr(synthesis, "_barrier", recording)
        try:
            result = minimize_xi(system, params, x0, CFG, mode=mode)
        except Infeasible as exc:
            assert exc.best_excess > 0.0
        else:
            assert all(xi >= lower for xi, lower
                       in zip(result.dv.xi, result.xi_lower, strict=True))
            assert verify_certificate(system, params, result.dv, x0,
                                      CFG)["feasible"]
        # the draw still stalls: one phase II stops short of its gap
        assert max(gaps) > synthesis._GAP
        assert len(steps) < 1000


def _per_rule_evp(model):
    """The EVP over every rule's gain, y = (vec K_0 ... vec K_M-1, xi_i):
    the model's one-gain columns scattered to rule m's vertices (l, m) for
    each m, solved as the cold solve solves its rows; (xi, bound)."""
    n_m, q, rows = model.n_m, model.q, []
    for g0, cols in model.rows:
        n_l, size = g0.shape[0], g0.shape[-1]
        full = np.zeros((n_m * q + 1, n_l, n_m, size, size))
        for m in range(n_m):
            full[m * q:(m + 1) * q, :, m] = cols[:-1]
        full[-1] = cols[-1][:, None]
        rows.append((np.repeat(g0, n_m, axis=0),
                     full.reshape(n_m * q + 1, n_l * n_m, size, size)))
    y = synthesis._phase_one(rows, np.eye(n_m * q + 1)[-1], 0.0, model.i,
                             "any set size")
    y, bound = synthesis._barrier(rows, np.eye(len(y))[-1], y)
    return float(y[-1]), float(bound)


class TestOneGainPerSubsystem:
    """The symmetry lemma: vertex (l, m) reads K_m alone, so the cold EVP
    over one gain has the optimum of the EVP over every rule's gain."""

    @pytest.mark.parametrize("name", ["example1_synthesis", "draw-33",
                                      "draw-53", "draw-57"])
    def test_evp_matches_the_per_rule_evp(self, name):
        # every subsystem with two or more controller rules; the draws are
        # calm tests/test_lmis plants whose EVPs are all feasible
        if name.startswith("draw-"):
            system, params, _ = _draw_setup(
                np.random.default_rng(int(name.split("-")[1])), calm=True)
        else:
            cfg = load_bundled_config(name)
            system, params = cfg.system, cfg.params
        solved = 0
        for i, sub in enumerate(system.subsystems):
            if sub.n_controller_rules < 2:
                continue
            model = _models(system, params, CFG)[i]
            gains, xi, bound = model.min_xi()
            per_rule_xi, per_rule_bound = _per_rule_evp(model)
            assert bound <= per_rule_xi and per_rule_bound <= xi
            assert xi == pytest.approx(per_rule_xi, rel=1e-9)
            assert len(gains) == sub.n_controller_rules
            solved += 1
        assert solved >= 2


class TestCertificateMargins:
    def test_containment_only_with_state(self, tiny, tiny_result):
        system, params = tiny
        without = certificate_margins(system, params, tiny_result.dv)
        with_state = certificate_margins(system, params, tiny_result.dv,
                                         TINY_X0)
        assert not any(k.startswith("containment") for k in without)
        assert any(k.startswith("containment") for k in with_state)
        shared = {k: v for k, v in with_state.items()
                  if not k.startswith("containment")}
        assert shared == without

    def test_corrupted_gains_flagged(self, tiny, tiny_result):
        # positive feedback pushes the closed loop unstable, so the
        # invariance margins must go positive
        system, params = tiny
        bad = DecisionVars(
            gains=[[k + 10.0 * np.eye(2) for k in tiny_result.dv.gains[0]]],
            xi=list(tiny_result.dv.xi))
        margins = certificate_margins(system, params, bad)
        assert max(v for k, v in margins.items()
                   if k.startswith("invariance")) > 0.0


class TestStackedVertexCallers:
    """The vertex rows of the gain model and of certificate_margins, which
    assemble every vertex of a subsystem and family as one stack, against
    per-vertex assemblies."""

    @staticmethod
    def plants():
        tiny_system, tiny_p = build_tiny_system(), tiny_params()
        rng = np.random.default_rng(3)
        tiny_gains = [[0.3 * rng.standard_normal((2, 2)) for _ in range(2)]]
        yield tiny_system, tiny_p, tiny_gains
        cfg = load_bundled_config("example1_synthesis")
        yield cfg.system, cfg.params, load_bundled_config("example1").gains

    @pytest.mark.parametrize("name", [
        None, *bundled_config_names(),
        *(f"draw-{seed}-{calm}" for seed in (3, 41, 78)
          for calm in ("calm", "wild"))])
    def test_model_matches_assembled_matrices(self, name):
        # the barrier rows G0 + sum_k y_k G_k at random y = (vec K, xi_i)
        # against the assembled full-form test matrices of the gains
        # [K] * n_m at the vertices (l, 0), and the part's contraction at
        # random per-rule gains against every vertex; the draws are
        # tests/test_lmis plants (seed 78 calm is the near-degenerate one)
        if name is None:
            system, params = build_tiny_system(), tiny_params()
        elif name.startswith("draw-"):
            _, seed, calm = name.split("-")
            system, params, _ = _draw_setup(np.random.default_rng(int(seed)),
                                            calm=calm == "calm")
        else:
            cfg = load_bundled_config(name)
            system, params = cfg.system, cfg.params
        rng = np.random.default_rng(11)
        n = system.n_subsystems
        for i, sub in enumerate(system.subsystems):
            model = _models(system, params, CFG)[i]
            n_l, n_m = sub.n_rules, sub.n_controller_rules
            ls, ms = zip(*((l, m) for l in range(n_l) for m in range(n_m)))
            for _ in range(3):
                gains = [rng.standard_normal((sub.n_u, sub.n_x))
                         for _ in range(n_m)]
                xi = float(rng.uniform(0.1, 20.0))
                y = np.append(np.ravel(gains[0]), xi)
                one = DecisionVars(gains=[[gains[0]] * n_m] * n, xi=[xi] * n)
                dv = DecisionVars(gains=[gains] * n, xi=[xi] * n)
                part = _Part(model, gains, xi)
                for assemble, (g0, cols), shift, t_ref in zip(
                        (assemble_invariance, assemble_decrease), model.rows,
                        model.shifts, part.t_refs):
                    want = assemble_one(assemble, system, params, one, i,
                                        list(range(n_l)),
                                        [0] * n_l).test_matrix()
                    got = g0 + np.tensordot(y, cols, 1) \
                        - shift * np.eye(want.shape[-1])
                    assert got.shape == want.shape
                    assert_allclose(got, want, rtol=0.0, atol=1e-12)
                    want = assemble_one(assemble, system, params, dv, i,
                                        list(ls), list(ms)).test_matrix()
                    assert t_ref.shape == want.shape
                    assert_allclose(t_ref, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name", [None, *bundled_config_names()])
    def test_model_keys_name_the_vertex_assemblies(self, name):
        # vertex (l, m) l-major, its invariance key then its decrease key
        if name is None:
            system, params = build_tiny_system(), tiny_params()
        else:
            cfg = load_bundled_config(name)
            system, params = cfg.system, cfg.params
        for i, sub in enumerate(system.subsystems):
            want = [f"{origin}[i={i},l={l},m={m}]"
                    for l in range(sub.n_rules)
                    for m in range(sub.n_controller_rules)
                    for origin in ("invariance", "decrease")]
            assert _models(system, params, CFG)[i].keys == want

    def test_certificate_margins_match_per_vertex_loop(self):
        cfg = SynthesisConfig()
        for system, params, gains in self.plants():
            dv = DecisionVars(
                gains=gains, xi=[1.5 + i for i in range(system.n_subsystems)])
            x_all = [np.full(sub.n_x, 0.4) for sub in system.subsystems]
            got = certificate_margins(system, params, dv, x_all, cfg)
            want = _reference_margins(system, params, dv, x_all, cfg)
            _assert_margins_match(got, want)


class TestFloors:
    """_floors gives each subsystem its own floor: its state's containment
    size, at least its disturbance budget N_i eta_i^2."""

    # per subsystem, the factor its configured x0 is scaled by: at zero the
    # budget binds everywhere, at x0 containment binds in every bundled
    # config, and "mixed" takes each subsystem's floor on its own
    STATES = {"zero": lambda i: 0.0, "x0": lambda i: 1.0,
              "mixed": lambda i: 0.0 if i == 0 else 1.0}

    @pytest.mark.parametrize("state", sorted(STATES))
    @pytest.mark.parametrize("name", bundled_config_names())
    def test_floor_is_containment_at_least_the_budget(self, name, state):
        cfg = load_bundled_config(name)
        system, params = cfg.system, cfg.params
        x_all = [self.STATES[state](i) * np.asarray(x, dtype=float)
                 for i, x in enumerate(cfg.simulation.x0)]
        floors = synthesis._floors(system, params, x_all)
        assert floors == budget_floors(system, params, x_all)
        budgets = [n * sub.eta ** 2
                   for n, sub in zip(params.N_const, system.subsystems)]
        sizes = containment_sizes(params, x_all)
        for i, (floor, budget, size) in enumerate(zip(floors, budgets,
                                                      sizes)):
            assert floor == max(size, budget)
            assert floor == (budget if self.STATES[state](i) == 0.0
                             else size)


class TestFixedGainEvaluator:
    @staticmethod
    def _scaled(dv, i, factor):
        xi = list(dv.xi)
        xi[i] *= factor
        return DecisionVars(gains=dv.gains, xi=xi)

    def test_interval_is_tight(self, ex1_synthesized):
        # just outside either end of each subsystem's interval some fresh
        # margin of that subsystem turns positive
        system, params, _, res, _ = ex1_synthesized
        evaluator = FixedGainEvaluator(system, params, res.dv,
                                       SynthesisConfig())
        for i in range(system.n_subsystems):
            lo, hi = evaluator.parts[i].interval
            assert lo < res.dv.xi[i] < hi
            ends = [(lo, 1.0 - 1e-5)] + ([(hi, 1.0 + 1e-5)]
                                         if np.isfinite(hi) else [])
            for end, factor in ends:
                dv = self._scaled(res.dv, i, end * factor / res.dv.xi[i])
                margins = certificate_margins(system, params, dv)
                assert max(v for k, v in margins.items()
                           if f"i={i}" in k) > 0.0

    def test_cold_xi_is_its_evaluator_clamp(self, ex1_synthesized):
        # the cold size is the clamp of its own gains' intervals at the
        # haired floor, and no smaller than the proven lower bound
        system, params, x0, res, _ = ex1_synthesized
        floor = max(budget_floors(system, params, x0))
        ends = [part.interval for part in res.evaluator.parts]
        clamp = max(max(lo for lo, _ in ends) * (1.0 + XI_HAIR),
                    floor * (1.0 + XI_HAIR))
        assert clamp <= min(hi for _, hi in ends)
        assert res.dv.xi == pytest.approx([clamp] * 3, rel=1e-12)
        assert len(res.xi_lower) == 3
        for xi, lower in zip(res.dv.xi, res.xi_lower):
            assert lower <= xi

    def test_the_disturbance_budget_binds_a_cold_solve(self):
        # at a zero state subsystem 0's containment size (0) and its EVP
        # interval's lower end (about 0.7788) are both below its budget
        # N eta^2 = 20 * 0.2^2: its size sits a hair above the budget, so
        # the certificate covers the configured d'd <= eta^2
        system = build_example1_system()
        params = example1_synthesis_params()
        budget = params.N_const[0] * system.subsystems[0].eta ** 2
        res = minimize_xi(system, params, [np.zeros(2)] * 3,
                          SynthesisConfig(), mode="per_subsystem")
        assert res.feasible
        assert res.evaluator.parts[0].interval[0] < budget
        assert res.dv.xi[0] == budget * (1.0 + XI_HAIR) == 0.8000008000000001
        assert res.xi_lower[0] >= budget
        # the others' lower ends lie above the budget and decide their sizes
        for i in (1, 2):
            lo = res.evaluator.parts[i].interval[0]
            assert budget < lo < res.dv.xi[i]

    @pytest.mark.parametrize("ends, floor, size, short", [
        # lo-bound: the largest xi_lo decides; xi_lo = -inf never does, and
        # a member whose xi_hi is just below the haired size is short
        ([(2.0, 5.0), (-np.inf, 3.0), (1.0, 2.000001)], 1.0,
         "0x1.000010c6f7a0bp+1", [2]),
        # floor-bound: the floor decides; xi_hi = floor is below the hair
        ([(-np.inf, np.inf), (0.5, 3.0)], 3.0, "0x1.8000192a73710p+1", [1]),
        # a member with no interval reads as (xi_ref = 7, -inf): always short
        ([(2.0, 9.0), None], 1.0, "0x1.c0001d5c31593p+2", [1]),
        ([(-np.inf, 10.0)], 1e-8, "0x1.579904a7a44a4p-27", []),
        # no parts (supplied gains): the haired floor
        ([], 1e-8, "0x1.579904a7a44a4p-27", []),
        ([], 3.0, "0x1.8000192a73710p+1", []),
    ])
    def test_settle_sizes_the_group_and_names_the_short(self, ends, floor,
                                                        size, short):
        # the one rule of a group's size, on stand-in parts: max(every
        # xi_lo, floor) (1 + XI_HAIR), the same double as the larger of
        # the two haired separately, and the members whose xi_hi is below it
        parts = [SimpleNamespace(i=i, interval=end, xi_ref=7.0)
                 for i, end in enumerate(ends)]
        got, got_short = synthesis._settle(parts, floor)
        assert got.hex() == size
        assert got == max([(end[0] if end else 7.0) * (1.0 + XI_HAIR)
                           for end in ends] + [floor * (1.0 + XI_HAIR)])
        assert got_short == short

    def test_warm_step_sits_at_the_lower_end(self, ex1_synthesized):
        system, params, x0, res, _ = ex1_synthesized
        warm = minimize_xi(system, params, x0, evaluator=FixedGainEvaluator(
            system, params, res.dv, SynthesisConfig()))
        lo = max(part.interval[0] for part in warm.evaluator.parts)
        assert warm.solves == 0
        assert warm.dv.xi == (lo * (1.0 + XI_HAIR),) * 3
        assert warm.feasible
        fresh = certificate_margins(system, params, warm.dv, x0)
        assert fresh.keys() == warm.margins.keys()
        assert max(fresh.values()) <= 0.0

    @pytest.mark.parametrize("name", bundled_config_names())
    def test_margins_match_certificate_margins(self, name, ex1_synthesized):
        cfg = load_bundled_config(name)
        system, params, x0 = cfg.system, cfg.params, cfg.simulation.x0
        dv = _bundled_dv(cfg, ex1_synthesized)
        evaluator = FixedGainEvaluator(system, params, dv, cfg.synthesis)
        rng = np.random.default_rng(5)
        states = [[0.8 * rng.standard_normal(sub.n_x)
                   for sub in system.subsystems] for _ in range(3)]
        for x_all in (None, x0, *states):
            for factor in (1.0, 0.5, 1.0001, 3.0):
                xi = [factor * v for v in dv.xi]
                got = evaluator.margins(xi, x_all)
                want = _reference_margins(
                    system, params, DecisionVars(dv.gains, xi), x_all,
                    cfg.synthesis)
                _assert_margins_match(got, want)

    @staticmethod
    def _mixed_sizes():
        """Three uncoupled subsystems with n_x = 1, 2, 1 (one input, one
        disturbance each): their containment blocks, of sizes 2, 3, 2, fall
        in two size groups out of key order."""
        def sub(a_mats, b, e):
            return Subsystem(
                rules=tuple(Rule(A=np.array(a), B=np.array(b), E=np.array(e))
                            for a in a_mats),
                model_mfs=model_mf_family(),
                controller_mfs=controller_mf_family(),
                u_max=np.array([2.0]), eta=0.1)

        system = LargeScaleSystem(subsystems=(
            sub([[[0.5]], [[0.7]]], [[1.0]], [[0.1]]),
            sub([[[0.5, 0.1], [0.0, 0.4]], [[0.45, 0.0], [0.1, 0.5]]],
                [[1.0], [0.5]], [[0.1], [0.0]]),
            sub([[[0.3]], [[-0.4]]], [[0.5]], [[0.2]])))
        system.validate()
        dims = [s.n_x for s in system.subsystems]
        params = FixedParams(
            X=[(2.0 + i) * np.eye(d) for i, d in enumerate(dims)],
            lam=[0.05] * 3, N_const=[20.0] * 3, M=[np.eye(1)] * 3,
            tau=[1.0] * 3, Q=[0.05 * np.eye(d) for d in dims], R=np.eye(1))
        params.validate()
        gains = [[np.array([[-0.2]]), np.array([[-0.3]])],
                 [np.array([[-0.2, -0.1]]), np.array([[-0.1, -0.2]])],
                 [np.array([[0.1]]), np.array([[-0.2]])]]
        dv = DecisionVars(gains=gains, xi=[1.0, 2.0, 3.0])
        return system, params, dv

    def test_containment_margins_group_blocks_of_each_size(self):
        system, params, dv = self._mixed_sizes()
        cfg = SynthesisConfig()
        evaluator = FixedGainEvaluator(system, params, dv, cfg)
        rng = np.random.default_rng(9)
        for xi in (dv.xi, [0.5, 4.0, 1.5]):
            for _ in range(5):
                x_all = [rng.standard_normal(sub.n_x)
                         for sub in system.subsystems]
                got = evaluator.margins(xi, x_all)
                want = _reference_margins(
                    system, params, DecisionVars(dv.gains, xi), x_all,
                    cfg)
                assert list(got) == list(want)
                for i in range(3):
                    key = f"containment[i={i}]"
                    assert got[key] == want[key]

    def test_non_finite_state_raises_on_containment(self, ex1_synthesized):
        system, params, x0, res, _ = ex1_synthesized
        evaluator = FixedGainEvaluator(system, params, res.dv,
                                       SynthesisConfig())
        for bad in (np.nan, np.inf):
            x_all = [x.copy() for x in x0]
            x_all[1][0] = bad
            with pytest.raises(InvalidMatrixError):
                evaluator.margins(res.dv.xi, x_all)


    def test_singular_shape_matrix_raises_on_containment(self, tiny,
                                                         tiny_result):
        system, _ = tiny
        params = dataclasses.replace(tiny_params(),
                                     X=[np.diag([5.0, 1e-14])])
        evaluator = FixedGainEvaluator(system, params, tiny_result.dv, CFG)
        evaluator.margins(tiny_result.dv.xi)
        with pytest.raises(SingularBlockError):
            evaluator.margins(tiny_result.dv.xi, TINY_X0)


class TestVerifyCertificate:
    @pytest.mark.parametrize("density", [2, 3, 11])
    def test_single_rule_grid_is_one_point(self, density):
        # the general recursion gives the one-rule simplex its only point
        grid = list(_simplex_grid(1, density))
        assert len(grid) == 1
        assert np.array_equal(grid[0], np.ones(1))

    def test_example1_report_is_unchanged(self, ex1_synthesized):
        # figures of the per-point sweep the batched one replaced, on the
        # cold EVP certificate
        system, params, x0, res, _ = ex1_synthesized
        want = self._per_pair_worst(system, params, res.dv, SynthesisConfig())
        for x_all in (x0, None):
            report = verify_certificate(system, params, res.dv, x_all)
            assert report["blended_worst"] == want
            assert report["worst"] == pytest.approx(want, abs=1e-12)
            assert report["worst"] <= -1e-9
            assert report["feasible"] is True
            assert report["margins"] == certificate_margins(
                system, params, res.dv, x_all)

    def test_gain_lists_short_of_the_set_sizes_are_refused(self):
        # two gain lists for three set sizes validated, and the check then
        # failed with an IndexError
        cfg = load_bundled_config("example1_synthesis")
        dv, _ = load_certificate(FIXTURE, cfg.system)
        short = DecisionVars(gains=dv.gains[:2], xi=dv.xi)
        with pytest.raises(ValueError, match="gains must have one list per "
                                             "set size: 2 for 3 sizes"):
            verify_certificate(cfg.system, cfg.params, short)

    def test_fixture_worst_is_a_row_that_binds(self):
        # the stored certificate predates the retired input certificate Z:
        # it carries Z and input/budget margins, loads, and verifies on the
        # rows that remain, the worst an invariance vertex
        cfg = load_bundled_config("example1_synthesis")
        dv, doc = load_certificate(FIXTURE, cfg.system)
        assert "Z" in doc
        assert any(k.startswith(("input[", "budget["))
                   for k in doc["margins"])
        report = verify_certificate(cfg.system, cfg.params, dv,
                                    cfg.simulation.x0, cfg.synthesis)
        margins = report["margins"]
        assert report["feasible"] is True
        assert report["worst"] == pytest.approx(-3.709744999670958e-06,
                                                abs=1e-12)
        assert max(margins, key=margins.get) == "invariance[i=2,l=1,m=0]"
        assert not any(k.startswith(("input[", "budget[")) for k in margins)

    def test_margins_only_locate_no_interval(self, monkeypatch):
        # verify reads the evaluator at the certificate's own set sizes
        # only: no part locates its interval
        def refuse(*args, **kwargs):
            raise AssertionError("verify must not locate a part's interval")

        cfg = load_bundled_config("example1_synthesis")
        dv, _ = load_certificate(FIXTURE, cfg.system)
        monkeypatch.setattr(synthesis._Part, "interval", property(refuse))
        part = FixedGainEvaluator(cfg.system, cfg.params, dv,
                                  cfg.synthesis).parts[0]
        with pytest.raises(AssertionError, match="must not locate"):
            part.interval
        report = verify_certificate(cfg.system, cfg.params, dv,
                                    cfg.simulation.x0, cfg.synthesis)
        assert report["feasible"] is True

    @staticmethod
    def _per_pair_worst(system, params, dv, cfg):
        """Largest blended lambda_max (+ shift) over the grid, one max_eig
        per (w, h) pair. The pairs are assembled as one stack per
        subsystem and family; TestStackedBlendedAssembly pins each stacked
        matrix to its one-pair stack."""
        want = -np.inf
        for i, sub in enumerate(system.subsystems):
            pairs = [(w, h)
                     for w in _simplex_grid(sub.n_rules, cfg.grid_density)
                     for h in _simplex_grid(sub.n_controller_rules,
                                            cfg.grid_density)]
            w, h = (np.array(side) for side in zip(*pairs))
            for assemble, shift in ((assemble_invariance_blended, 0.0),
                                    (assemble_decrease_blended,
                                     cfg.strictness)):
                tests = assemble_one(assemble, system, params, dv, i, w,
                                     h).test_matrix()
                want = max(want, *(max_eig(t) + shift for t in tests))
        return want

    @staticmethod
    def _sweep_eigensolves(monkeypatch, system, params, dv, x_all, cfg):
        """Matrices the blended sweep passes to np.linalg.eigvalsh: those of
        verify_certificate less those of its certificate_margins. A first
        call builds the constants' tables (X_i's spectrum is eigensolved
        once per FixedParams), so both counted calls do the same margin
        work."""
        certificate_margins(system, params, dv, x_all, cfg)
        counted = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            counted.append(1 if np.ndim(a) == 2 else len(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        report = verify_certificate(system, params, dv, x_all, cfg)
        n_verify = sum(counted)
        counted.clear()
        certificate_margins(system, params, dv, x_all, cfg)
        monkeypatch.undo()
        return n_verify - sum(counted), report

    @staticmethod
    def _corners(system):
        """Corner rows of the grid: every vertex (l, m), both families."""
        return sum(2 * sub.n_rules * sub.n_controller_rules
                   for sub in system.subsystems)

    @pytest.mark.parametrize("name", bundled_config_names())
    @pytest.mark.parametrize("scale", [1.0, 10.0])
    def test_batched_sweep_equals_per_pair_loop(self, name, scale,
                                                ex1_synthesized):
        cfg = load_bundled_config(name)
        system, params = cfg.system, cfg.params
        dv = _bundled_dv(cfg, ex1_synthesized, scale)
        want = self._per_pair_worst(system, params, dv, cfg.synthesis)
        for x_all in (cfg.simulation.x0, None):
            got = verify_certificate(system, params, dv, x_all,
                                     cfg.synthesis)
            assert got["blended_worst"] == want

    def test_sweep_eigensolves_only_the_corners(self, monkeypatch):
        # the vertices bound every blend, so the Cholesky screen clears
        # every other grid row of the stored example1 certificate (an EVP
        # optimum ties vertices, and with them blends, so the sweep of the
        # cold certificate eigensolves those tied rows as well)
        cfg = load_bundled_config("example1_synthesis")
        dv, _ = load_certificate(FIXTURE, cfg.system)
        solved, report = self._sweep_eigensolves(
            monkeypatch, cfg.system, cfg.params, dv, cfg.simulation.x0,
            SynthesisConfig())
        assert solved == self._corners(cfg.system)
        assert report["blended_worst"] == -3.709744999670958e-06

    @pytest.mark.parametrize("scale", [1.0, 10.0])
    def test_failed_screen_eigensolves_only_tied_rows(self, monkeypatch,
                                                      scale):
        # example2_stabilized's rules 1 and 2 are identical and its gains
        # are shared across rules, so the blends along that edge tie the
        # corners and one stack's screen fails. Split by halves, the sweep
        # eigensolves 67 of that stack's 4,347 non-corner rows, not all
        cfg = load_bundled_config("example2_stabilized")
        dv = _bundled_dv(cfg, None, scale)
        solved, report = self._sweep_eigensolves(
            monkeypatch, cfg.system, cfg.params, dv, cfg.simulation.x0,
            cfg.synthesis)
        assert self._corners(cfg.system) < solved \
            < self._corners(cfg.system) + 100
        assert report["blended_worst"] == self._per_pair_worst(
            cfg.system, cfg.params, dv, cfg.synthesis)

    def test_tied_blends_fall_back_to_eigensolves(self, monkeypatch):
        # identical rules and gains: every blend equals its vertex up to
        # rounding, so the screen cannot clear the top stack's rows
        rule = Rule(A=np.array([[0.5, 0.1], [0.0, 0.4]]), B=np.eye(2),
                    E=np.array([[0.1], [0.0]]))
        sub = Subsystem(rules=(rule, rule), model_mfs=model_mf_family(),
                        controller_mfs=controller_mf_family(),
                        u_max=np.array([10.0, 10.0]), eta=0.05)
        system = LargeScaleSystem(subsystems=(sub,))
        system.validate()
        params = tiny_params()
        gains = [[-0.2 * np.eye(2), -0.2 * np.eye(2)]]
        dv = DecisionVars(gains=gains, xi=[1.0])
        cfg = SynthesisConfig()
        factorized, cholesky = [], np.linalg.cholesky

        def counting(a, *args, **kwargs):
            factorized.append(len(a))
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        solved, report = self._sweep_eigensolves(monkeypatch, system, params,
                                                 dv, None, cfg)
        assert solved > self._corners(system)
        assert report["blended_worst"] == self._per_pair_worst(
            system, params, dv, cfg)
        # both halves of the tied stack fail too, so they are eigensolved
        # together rather than split further: 1 + 2 factorizations for it,
        # 1 for the other stack
        assert len(factorized) == 4

    def test_density_two_grid_is_all_corners(self, ex1_synthesized,
                                             monkeypatch):
        system, params, x0, res, _ = ex1_synthesized
        cfg = SynthesisConfig(grid_density=2)
        solved, report = self._sweep_eigensolves(monkeypatch, system, params,
                                                 res.dv, x0, cfg)
        assert solved == self._corners(system)
        assert report["blended_worst"] == self._per_pair_worst(
            system, params, res.dv, cfg)

    def test_synthesized_certificate_passes(self, tiny, tiny_result):
        system, params = tiny
        report = verify_certificate(system, params, tiny_result.dv, TINY_X0)
        assert report["feasible"]
        assert report["worst"] <= 0.0
        assert report["blended_worst"] <= 0.0
        assert report["worst"] == pytest.approx(
            max(report["margins"].values()))

    def test_blended_sweep_consistent_with_vertices_without_couplings(
            self, tiny, tiny_result):
        # no couplings and one subsystem: every blended condition is a
        # convex combination of vertex conditions, so the sweep can never
        # be worse than the worst vertex
        system, params = tiny
        report = verify_certificate(system, params, tiny_result.dv)
        vertex_worst = max(v for k, v in report["margins"].items()
                           if k.startswith(("invariance", "decrease")))
        assert report["blended_worst"] <= vertex_worst + 1e-12

    def test_shrunken_set_fails(self, tiny, tiny_result):
        system, params = tiny
        bad = DecisionVars(gains=tiny_result.dv.gains,
                           xi=[0.01 * v for v in tiny_result.dv.xi])
        report = verify_certificate(system, params, bad, TINY_X0)
        assert not report["feasible"]
        assert report["worst"] > 0.0
