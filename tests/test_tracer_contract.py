"""The names the benchmark's layer tracer binds are the ones the program calls.

perfbench/tracer.py times the program by rebinding named functions at every
``it2mpc.*`` module attribute that refers to them, and the benchmark counts
a failed operation when a layer it relies on reads 0 calls. These tests run
that tracer over a certificate check, a short every-step loop from the
stored certificate and a Monte-Carlo audit, so that a refactor which
bypasses those names (an assembly no longer made through ``assemble_*``, a
margin pass no longer made through ``certificate_margins``, grades no
longer made through the membership family's grade methods) fails here and
not only in the benchmark's traced smoke runs.
"""

import importlib.util
from pathlib import Path

import pytest

import it2mpc  # noqa: F401  (loads every module the tracer binds)
from it2mpc import plant, simulation
from it2mpc.configio import load_bundled_config, load_certificate
from it2mpc.simulation import DisturbanceModel, run_online_loop
from it2mpc.synthesis import verify_certificate

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "perfbench" / "fixtures" / "example1_certificate.json"


@pytest.fixture(scope="module")
def tracer():
    """perfbench/tracer.py, loaded from its file (perfbench is no package)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def fixture_certificate():
    cfg = load_bundled_config("example1_synthesis")
    dv, _ = load_certificate(FIXTURE, cfg.system)
    return cfg, dv


def _calls(tracer, run) -> dict:
    """{layer: calls} of the benchmark's tracer over one run()."""
    with tracer.LayerTracer() as traced:
        run()
    return {layer: calls for layer, (calls, _) in
            traced.layer_stats().items()}


def test_verify_reaches_the_traced_layers(tracer, fixture_certificate):
    # three subsystems: each model assembles both families once (6 vertex
    # stacks), the grid sweep one blended stack per subsystem and family
    cfg, dv = fixture_certificate
    reports = []
    calls = _calls(tracer, lambda: reports.append(verify_certificate(
        cfg.system, cfg.params, dv, x_all=cfg.simulation.x0,
        cfg=cfg.synthesis)))
    assert reports[0]["feasible"]
    assert calls["lmis.vertex"] == 6
    assert calls["lmis.blended"] == 6
    assert calls["synthesis.certificate_margins"] == 1
    assert calls["lmis.test_matrix"] >= 1


@pytest.mark.parametrize("xi_mode", ["common", "per_subsystem"])
def test_every_step_loop_reaches_the_traced_layers(tracer,
                                                   fixture_certificate,
                                                   xi_mode):
    cfg, dv = fixture_certificate
    sim = cfg.simulation
    traces = []
    calls = _calls(tracer, lambda: traces.append(run_online_loop(
        cfg.system, cfg.params, sim.x0, 3,
        dist=DisturbanceModel(kind="uniform_ball", seed=1),
        syn_cfg=cfg.synthesis, Ts=cfg.Ts, mu_bar=sim.mu_bar, mode=sim.mode,
        rho_bar=sim.rho_bar, resynth="every_step", warm=dv,
        xi_mode=xi_mode)))
    assert traces[0].n_steps == 3
    for layer in ("lmis.vertex", "lmis.test_matrix", "lmis.containment",
                  "plant.step", "membership.grades"):
        assert calls[layer] > 0, layer
    # one stacked containment assembly per step and group of equal-shape X_i
    assert len(cfg.params.x_groups) == 1
    assert calls["lmis.containment"] == 3


def test_audit_reaches_the_traced_layers(tracer, fixture_certificate):
    # 250 samples in two chunks: each steps all its samples once, with one
    # membership mode per sample
    cfg, dv = fixture_certificate
    reports = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulation, "RPI_BATCH", 200)
        # through the module, whose binding the tracer replaces
        calls = _calls(tracer, lambda: reports.append(
            simulation.rpi_monte_carlo(cfg.system, cfg.params, dv,
                                       n_samples=250, seed=3)))
    assert reports[0]["ok"]
    assert calls["simulation.rpi_monte_carlo"] == 1
    assert calls["plant.step"] == 2
    # per chunk, one grade call per tier of the one shape group: model true
    # (true-plant rows), model upper and lower (reconstructed rows), then
    # controller upper and lower (every row)
    assert calls["membership.grades"] == 2 * 5


def test_steady_step_grades_each_role_once(tracer, fixture_certificate):
    cfg, dv = fixture_certificate
    sim = cfg.simulation
    x_all = [x.copy() for x in sim.x0]
    d_all = [[0.0]] * cfg.system.n_subsystems

    def step():
        plant.step_closed_loop_detail(cfg.system, dv.gains, x_all, d_all,
                                      sim.mu_bar, sim.mode, sim.rho_bar)
    step()
    assert sim.mode == "true_plant"
    calls = _calls(tracer, step)
    assert calls["plant.step"] == 1
    assert calls["membership.grades"] == 3      # 9 when graded per subsystem
