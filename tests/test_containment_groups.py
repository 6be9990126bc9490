"""The containment rows, one stacked pass per group of equal-shape X_i,
bit for bit against the per-subsystem assembly.

Per subsystem, the reference is assemble_containment on constants that
hold X_i alone, a one-member stack, with one eigvalsh for the margin, and
sqrt(x' X_i x) for the set-size floor.
The stacked pass must give the same keys in the same order and the same
values as float hex, on the bundled configs, the benchmark's stored
certificate, random states, and a plant whose X_i have two shapes (so two
groups, their members interleaved)."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from it2mpc.configio import (bundled_config_names, load_bundled_config,
                             load_certificate)
from it2mpc.linalg import quad_form
from it2mpc.lmis import (DecisionVars, FixedParams, assemble_containment,
                         containment_sizes)
from it2mpc.plant import LargeScaleSystem
from it2mpc.synthesis import (FixedGainEvaluator, SynthesisConfig,
                              certificate_margins, minimize_xi)

from conftest import own_containment_block
from test_plant_groups import build_plant

FIXTURE = (Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
           / "example1_certificate.json")


def _hex(values):
    return [float(v).hex() for v in values]


def _per_subsystem_rows(params, x_all, xi):
    """{containment key: margin} per subsystem, each from its own assembly
    and eigensolve."""
    return {f"containment[i={i}]":
            -np.linalg.eigvalsh(own_containment_block(params, i, x_all[i],
                                                      xi[i]))[0]
            for i in range(params.n_subsystems)}


def _per_subsystem_sizes(params, x_all):
    return [float(np.sqrt(quad_form(x_all[i], params.X[i])))
            for i in range(params.n_subsystems)]


def _random_states(params, rng, scale):
    return [scale * rng.standard_normal(x.shape[0]) for x in params.X]


def _check(system, params, dv, x_all):
    """The evaluator's margins at dv's sizes against the per-subsystem
    containment rows, and the stacked sizes against sqrt(x' X x)."""
    cfg = SynthesisConfig()
    evaluator = FixedGainEvaluator(system, params, dv, cfg)
    got = evaluator.margins(dv.xi, x_all)
    rows = _per_subsystem_rows(params, x_all, dv.xi)
    want_keys = []
    for part, xi_i in zip(evaluator.parts, dv.xi):
        want_keys += list(part.margins(xi_i)) + [f"containment[i={part.i}]"]
    assert list(got) == want_keys
    assert _hex(got[k] for k in rows) == _hex(rows.values())
    # the state-free rows are unchanged by the containment pass
    assert {k: v for k, v in got.items() if k not in rows} == \
        evaluator.margins(dv.xi)
    assert got == certificate_margins(system, params, dv, x_all, cfg)

    assert _hex(containment_sizes(params, x_all)) == \
        _hex(_per_subsystem_sizes(params, x_all))
    # each size is that of its subsystem's own one-member stack
    assert _hex(containment_sizes(params, x_all)) == _hex(
        containment_sizes(replace(params, X=(x,)), [v])[0]
        for x, v in zip(params.X, x_all))


def _certificates():
    """(name, system, params, gains, x0) per bundled config; example1's
    synthesis config has no gains, so the stored certificate's."""
    out = []
    for name in bundled_config_names():
        cfg = load_bundled_config(name)
        gains = cfg.gains
        if gains is None:
            gains = load_certificate(FIXTURE, cfg.system)[0].gains
        out.append((name, cfg.system, cfg.params, gains, cfg.simulation.x0))
    return out


CERTIFICATES = _certificates()


@pytest.mark.parametrize("name, system, params, gains, x0", CERTIFICATES,
                         ids=[c[0] for c in CERTIFICATES])
def test_bundled_configs_and_random_states(name, system, params, gains, x0):
    rng = np.random.default_rng(len(name))
    for draw in range(6):
        x_all = x0 if draw == 0 else _random_states(params, rng,
                                                    10.0 ** (draw - 3))
        xi = rng.uniform(0.05, 20.0, params.n_subsystems)
        _check(system, params, DecisionVars(gains=gains, xi=xi), x_all)


def test_stored_certificate_at_its_sizes():
    cfg = load_bundled_config("example1_synthesis")
    dv, _ = load_certificate(FIXTURE, cfg.system)
    _check(cfg.system, cfg.params, dv, cfg.simulation.x0)
    # minimize_xi's floors: the step keeps the stored gains at the
    # containment-bound sizes the per-subsystem floors give
    res = minimize_xi(cfg.system, cfg.params, cfg.simulation.x0,
                      cfg.synthesis, mode="per_subsystem",
                      evaluator=FixedGainEvaluator(cfg.system, cfg.params, dv,
                                                   cfg.synthesis))
    rows = _per_subsystem_rows(cfg.params, cfg.simulation.x0, res.dv.xi)
    assert _hex(res.margins[k] for k in rows) == _hex(rows.values())


def _two_shape_plant():
    """Four subsystems with state dims 2, 3, 2, 3, each coupled to the
    other subsystem of its dim, and constants to match: two groups of X_i,
    (0, 2) and (1, 3)."""
    shapes = [(2, 1, 1, 2, 2), (3, 1, 1, 2, 2), (2, 1, 1, 2, 2),
              (3, 1, 1, 2, 2)]
    system, gains, rng = build_plant(shapes, [(0, 2), (2, 0), (1, 3), (3, 1)],
                                     11)
    # bounded disturbances and inputs, as every condition needs
    system = LargeScaleSystem(subsystems=tuple(
        replace(sub, eta=0.1, u_max=np.array([5.0]))
        for sub in system.subsystems))
    x_mats = []
    for n_x, *_ in shapes:
        a = rng.standard_normal((n_x, n_x))
        x_mats.append(a @ a.T + n_x * np.eye(n_x))
    n = len(shapes)
    params = FixedParams(X=x_mats, lam=[0.3] * n, N_const=[2.0] * n,
                         M=[np.eye(1)] * n, tau=[1.0] * n,
                         Q=[np.eye(s[0]) for s in shapes], R=np.eye(1))
    params.validate()
    return system, params, gains, rng


def test_two_groups():
    system, params, gains, rng = _two_shape_plant()
    assert params.x_groups == ((0, 2), (1, 3))
    for draw in range(6):
        x_all = _random_states(params, rng, 10.0 ** (draw - 3))
        xi = rng.uniform(0.05, 20.0, params.n_subsystems)
        _check(system, params, DecisionVars(gains=gains, xi=xi), x_all)


def test_group_instance_stacks_the_members_blocks():
    _, params, _, rng = _two_shape_plant()
    x_all = _random_states(params, rng, 1.0)
    xi = rng.uniform(0.05, 20.0, params.n_subsystems)
    for members, x in zip(params.x_groups, params.group_stacks(x_all)):
        inst = assemble_containment(params, members, x, xi[list(members)])
        assert inst.subsystem == members
        for i, mat in zip(members, inst.matrix):
            np.testing.assert_array_equal(
                mat, own_containment_block(params, i, x_all[i], xi[i]))
    # a subsystem index, or a tuple that is no group, is refused by name
    for members in (0, (0, 1), [0, 2]):
        with pytest.raises(ValueError, match="no shape group.*params.x_groups"):
            assemble_containment(params, members, np.zeros((2, 2)),
                                 [1.0, 1.0])
