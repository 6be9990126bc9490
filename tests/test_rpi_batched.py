"""The batched Monte-Carlo invariance audit against a per-sample reference.

rpi_monte_carlo draws its random numbers sample by sample and then scales,
steps and checks a whole chunk of samples with array operations. The
reference below is the one-sample-at-a-time loop it replaced, written out
here with its own ball sampler: for any seed and sample count (and any
chunk size) both must count the same violations and exits and agree on the
worst values to 1e-14."""

from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from it2mpc import simulation
from it2mpc.configio import load_bundled_config, load_certificate
from it2mpc.linalg import sym_eig
from it2mpc.lmis import DecisionVars, rpi_decrease_scalar
from it2mpc.plant import step_closed_loop
from it2mpc.simulation import lyapunov_value, rpi_monte_carlo

from conftest import build_tiny_system, tiny_params

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

FIXTURE = (Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
           / "example1_certificate.json")


def reference_ball_point(rng, n, radius, boundary=False):
    v = rng.standard_normal(n)
    norm = float(np.linalg.norm(v))
    if norm == 0.0 or radius == 0.0:
        return np.zeros(n)
    r = radius if boundary else radius * float(rng.random()) ** (1.0 / n)
    d = (r / norm) * v
    overshoot = float(np.linalg.norm(d))
    if overshoot > radius > 0.0:
        d *= radius / overshoot
    return d


def reference_rpi(system, params, dv, n_samples, seed, tol=1e-9):
    """One sample at a time: draw, step once, check."""
    rng = np.random.default_rng(seed)
    n = system.n_subsystems
    eta_cert = [float(np.sqrt(dv.xi[i] / params.N_const[i])) for i in range(n)]
    inv_sqrts = []
    for i in range(n):
        eig = sym_eig(params.X[i])
        inv_sqrts.append(eig.vectors @ np.diag(1.0 / np.sqrt(eig.values))
                         @ eig.vectors.T)
    grid = np.linspace(0.0, 1.0, 5)
    scalar_violations = exit_events = 0
    worst_scalar = worst_exit = -np.inf
    for s in range(n_samples):
        boundary = (s % 10) == 9
        x_all = [dv.xi[i] * (inv_sqrts[i] @ reference_ball_point(
            rng, inv_sqrts[i].shape[0], 1.0, boundary)) for i in range(n)]
        d_all = [reference_ball_point(rng, system.subsystems[i].n_d,
                                      eta_cert[i]) for i in range(n)]
        rho = float(grid[s % 5])
        mu = float(grid[(s // 5) % 5])
        use_true = (s % 3) == 2
        x_next = step_closed_loop(system, dv.gains, x_all, d_all, mu,
                                  "true_plant" if use_true else "reconstructed",
                                  None if use_true else rho)
        scalar = rpi_decrease_scalar(params, dv.xi, x_all, d_all, x_next)
        worst_scalar = max(worst_scalar, scalar)
        scalar_violations += scalar > tol
        for i in range(n):
            xi2 = dv.xi[i] ** 2
            margin = (lyapunov_value(x_next[i], params.X[i]) - xi2) / xi2
            worst_exit = max(worst_exit, margin)
            exit_events += margin > tol
    return {"n_samples": n_samples, "scalar_violations": scalar_violations,
            "exit_events": exit_events, "worst_scalar": worst_scalar,
            "worst_exit_margin": worst_exit,
            "ok": scalar_violations == 0 and exit_events == 0}


def fixture_certificate():
    cfg = load_bundled_config("example1_synthesis")
    dv, _doc = load_certificate(FIXTURE, cfg.system)
    return cfg.system, cfg.params, dv


def example2_static_gains():
    """example2_stabilized's gains under its reference constants, which do
    not certify them: the audit finds violations and exits to count."""
    cfg = load_bundled_config("example2_stabilized")
    dv = DecisionVars(gains=cfg.gains, xi=[0.9, 1.3])
    return cfg.system, cfg.params, dv


def tiny_plant():
    gains = [[-0.3 * np.eye(2), -0.2 * np.eye(2)]]
    return (build_tiny_system(), tiny_params(),
            DecisionVars(gains=gains, xi=[0.8]))


CASES = {"fixture": fixture_certificate, "example2": example2_static_gains,
         "tiny": tiny_plant}


def assert_reports_agree(got, want):
    for key in ("n_samples", "scalar_violations", "exit_events", "ok"):
        assert got[key] == want[key], key
    for key in ("worst_scalar", "worst_exit_margin"):
        if np.isinf(want[key]):
            assert got[key] == want[key]
        else:
            assert abs(got[key] - want[key]) <= 1e-14, key


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_samples=st.integers(1, 90),
       batch=st.integers(1, 40))
def test_batched_audit_matches_per_sample_loop(case, seed, n_samples, batch):
    system, params, dv = CASES[case]()
    with mock.patch.object(simulation, "RPI_BATCH", batch):
        got = rpi_monte_carlo(system, params, dv, n_samples=n_samples,
                              seed=seed)
    assert_reports_agree(got, reference_rpi(system, params, dv, n_samples,
                                            seed))


def test_example2_case_reports_violations():
    system, params, dv = example2_static_gains()
    report = rpi_monte_carlo(system, params, dv, n_samples=60, seed=1)
    assert report["scalar_violations"] > 0 or report["exit_events"] > 0
    assert_reports_agree(report, reference_rpi(system, params, dv, 60, 1))


@pytest.mark.parametrize("n_samples, tol", [
    (0, 1e-9), (-5, 1e-9), (10, np.nan), (10, np.inf), (10, -np.inf)])
def test_audit_that_checks_nothing_raises(n_samples, tol):
    system, params, dv = fixture_certificate()
    with pytest.raises(ValueError, match="n_samples >= 1 and a finite tol"):
        rpi_monte_carlo(system, params, dv, n_samples=n_samples, tol=tol)


def _with_nan(dv, where):
    if where == "xi":
        return DecisionVars(gains=dv.gains, xi=[np.nan] + list(dv.xi[1:]))
    gains = [list(g) for g in dv.gains]
    gains[1][0] = gains[1][0].copy()
    gains[1][0][0, 1] = np.nan
    return DecisionVars(gains=gains, xi=dv.xi)


@pytest.mark.parametrize("where", ["xi", "gain"])
def test_nan_certificate_fails_every_sample(where):
    # NaN compares false with tol, so an audit that counts only values
    # above tol would pass a NaN certificate
    system, params, dv = fixture_certificate()
    report = rpi_monte_carlo(system, params, _with_nan(dv, where),
                             n_samples=20, seed=0)
    assert report["scalar_violations"] == 20
    assert report["exit_events"] >= 20
    assert np.isnan(report["worst_scalar"])
    assert np.isnan(report["worst_exit_margin"])
    assert not report["ok"]
