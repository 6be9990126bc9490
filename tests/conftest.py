"""Shared builders: the three-subsystem benchmark plant, its reference gains,
and small synthetic systems used across the suite."""

import dataclasses

import numpy as np
import pytest

from it2mpc.lmis import FixedParams, assemble_containment
from it2mpc.membership import IT2MembershipFamily, ResidualMF, SigmoidMF
from it2mpc.plant import LargeScaleSystem, Rule, Subsystem


def model_mf_family():
    """Two-rule interval family: rising sigmoids around z = -4 with unit
    envelope spread and a sin(z) perturbation inside the true grade."""
    return IT2MembershipFamily(
        lower=(SigmoidMF(shift=3.0, divisor=1.0),
               SigmoidMF(shift=5.0, divisor=1.0, form="logistic")),
        upper=(SigmoidMF(shift=5.0, divisor=1.0),
               SigmoidMF(shift=3.0, divisor=1.0, form="logistic")),
        true_mf=(SigmoidMF(shift=4.0, divisor=1.0, perturb_amplitude=1.0),
                 SigmoidMF(shift=4.0, divisor=1.0, perturb_amplitude=1.0,
                           complemented=True)),
    )


def controller_mf_family():
    """Two-rule interval family: falling sigmoids around z = 0, slope 2."""
    return IT2MembershipFamily(
        lower=(SigmoidMF(shift=1.5, divisor=-2.0),
               SigmoidMF(shift=-1.5, divisor=-2.0, complemented=True)),
        upper=(SigmoidMF(shift=-1.5, divisor=-2.0),
               SigmoidMF(shift=1.5, divisor=-2.0, complemented=True)),
    )


def build_example1_system(u_max=5.0, eta=0.2):
    def sub(rule_data, couplings):
        rules = tuple(
            Rule(A=np.array(a), B=np.array(b), E=np.array(e))
            for a, b, e in rule_data)
        return Subsystem(
            rules=rules,
            couplings={j: np.array(g) for j, g in couplings.items()},
            model_mfs=model_mf_family(),
            controller_mfs=controller_mf_family(),
            u_max=np.array([u_max]),
            eta=eta,
        )

    s1 = sub(
        [([[0.55, 0.05], [0.0, 0.42]], [[1.0], [0.0]], [[0.1], [0.0]]),
         ([[0.40, 0.00], [0.0, 0.08]], [[0.0], [1.0]], [[0.0], [0.1]])],
        {1: [[0.08, 0.05], [0.05, 0.05]],
         2: [[0.09, 0.06], [0.06, 0.09]]})
    s2 = sub(
        [([[0.325, 0.0], [0.4, 0.0]], [[1.0], [-1.0]], [[-0.1], [0.0]]),
         ([[0.60, 0.2], [0.1, 0.0]], [[-1.0], [1.0]], [[0.0], [-0.2]])],
        {0: [[0.1, 0.1], [0.0, 0.0]],
         2: [[0.0, 0.0], [0.1, 0.1]]})
    s3 = sub(
        [([[0.2, 0.4], [0.2, 0.0]], [[1.0], [1.0]], [[-0.3], [0.0]]),
         ([[0.3, 0.0], [0.0, 0.4]], [[-2.0], [1.0]], [[0.0], [-0.4]])],
        {0: [[0.03, 0.0], [0.0, 0.02]],
         1: [[0.1, 0.0], [0.1, 0.0]]})

    system = LargeScaleSystem(subsystems=(s1, s2, s3))
    system.validate()
    return system


def example1_reference_gains():
    return [
        [np.array([[-0.549, -0.222]]), np.array([[-0.0569, -0.799]])],
        [np.array([[4.794e-05, -4.739e-09]]), np.array([[1.755e-05, 1.138e-05]])],
        [np.array([[-0.199, -0.111]]), np.array([[0.073, -0.201]])],
    ]


def example1_reference_params():
    return FixedParams(
        X=[0.015 * np.eye(2), 0.018 * np.eye(2), 0.027 * np.eye(2)],
        lam=[0.5, 0.488, 0.487],
        N_const=[0.5, 0.5, 0.5],
        M=[np.array([[1.0]])] * 3,
        tau=[1.0, 1.5, 2.0],
        Q=np.eye(2),
        R=np.array([[1.0]]),
        alpha=2.0,
    )


def example1_synthesis_params():
    """Offline-stage constants retuned so the synthesis stage is feasible on
    the three-subsystem benchmark (the reference constants are not): larger
    shape scale, mild decay weight. Common set size solves to ~9.90 at
    x0 = [1, -1] per subsystem."""
    return FixedParams(
        X=[15.0 * np.eye(2), 30.0 * np.eye(2), 12.0 * np.eye(2)],
        lam=[0.02] * 3,
        N_const=[20.0] * 3,
        M=[np.array([[1.0]])] * 3,
        tau=[1.0, 1.5, 2.0],
        Q=0.05 * np.eye(2),
        R=np.array([[1.0]]),
        alpha=2.0,
    )


def example2_model_mf_family():
    """Three-rule interval family on the angle premise: falling and rising
    shoulder sigmoids with a residual middle rule."""
    lo_left = SigmoidMF(shift=0.3, divisor=0.12, form="logistic")
    hi_left = SigmoidMF(shift=0.2, divisor=0.12, form="logistic")
    lo_right = SigmoidMF(shift=-0.3, divisor=0.12)
    hi_right = SigmoidMF(shift=-0.2, divisor=0.12)
    tr_left = SigmoidMF(shift=0.25, divisor=0.12, form="logistic")
    tr_right = SigmoidMF(shift=-0.25, divisor=0.12)
    return IT2MembershipFamily(
        lower=(lo_left, ResidualMF((hi_left, hi_right)), lo_right),
        upper=(hi_left, ResidualMF((lo_left, lo_right)), hi_right),
        true_mf=(tr_left, ResidualMF((tr_left, tr_right)), tr_right),
    )


def example2_controller_mf_family():
    """Three-rule controller family, slightly wider than the model's."""
    lo_left = SigmoidMF(shift=0.35, divisor=0.15, form="logistic")
    hi_left = SigmoidMF(shift=0.25, divisor=0.15, form="logistic")
    lo_right = SigmoidMF(shift=-0.35, divisor=0.15)
    hi_right = SigmoidMF(shift=-0.25, divisor=0.15)
    return IT2MembershipFamily(
        lower=(lo_left, ResidualMF((hi_left, hi_right)), lo_right),
        upper=(hi_left, ResidualMF((lo_left, lo_right)), hi_right),
    )


def build_example2_system(u_max=50.0, eta=0.02):
    """Two coupled pendulum subsystems, three rules each, scalar input."""
    coupling = np.array([[0.08, 0.05], [0.05, 0.05]])
    h_row = np.array([[1.0, 0.0]])

    def sub(a_mats, b_col, other):
        rules = tuple(
            Rule(A=np.array(a), B=np.array(b_col), E=np.array([[0.1], [0.0]]))
            for a in a_mats)
        return Subsystem(
            rules=rules,
            couplings={other: coupling.copy()},
            model_mfs=example2_model_mf_family(),
            controller_mfs=example2_controller_mf_family(),
            u_max=np.array([u_max]),
            eta=eta,
            H=h_row.copy(),
        )

    a_soft_1 = [[1.0, 0.005], [0.0262, 1.0]]
    a_stiff_1 = [[1.0, 0.005], [0.0441, 1.0]]
    a_soft_2 = [[1.0, 0.005], [0.0272, 1.0]]
    a_stiff_2 = [[1.0, 0.005], [0.0451, 1.0]]
    s1 = sub([a_soft_1, a_soft_1, a_stiff_1], [[1.0], [0.0]], other=1)
    s2 = sub([a_soft_2, a_soft_2, a_stiff_2], [[1.0], [1.0]], other=0)
    system = LargeScaleSystem(subsystems=(s1, s2))
    system.validate()
    return system


def example2_reference_gains():
    return [
        [np.array([[-0.071, -0.024]]), np.array([[-0.0153, -0.219]]),
         np.array([[-12.15, -9.585]])],
        [np.array([[21.794, -41.739]]), np.array([[-10.75, -21.138]]),
         np.array([[-18.255, -32.252]])],
    ]


def example2_stabilizing_gains():
    """Decentralized gains that keep the coupled pendulum pair contracting.

    Designed against the full 4-state vertex set (all rule pairs plus the
    cross couplings): a common quadratic Lyapunov metric certifies a
    contraction factor of 0.987, so any membership realization stays stable.
    Shared across rules within each subsystem.
    """
    k1 = np.array([[-1.373451, -1.529046]])
    k2 = np.array([[-0.123021, -0.263107]])
    return [[k1.copy() for _ in range(3)], [k2.copy() for _ in range(3)]]


def example2_reference_params():
    return FixedParams(
        X=[0.015 * np.eye(2), 0.018 * np.eye(2)],
        lam=[0.5, 0.448],
        N_const=[0.5, 0.5],
        M=[np.array([[1.0]])] * 2,
        tau=[1.0, 1.5],
        Q=np.eye(2),
        R=np.array([[1.0]]),
        alpha=2.0,
    )


@pytest.fixture
def ex1_system():
    return build_example1_system()


@pytest.fixture
def ex1_gains():
    return example1_reference_gains()


@pytest.fixture
def ex1_params():
    return example1_reference_params()


@pytest.fixture(scope="session")
def ex1_synthesized():
    """One shared feasible certificate on the retuned benchmark constants:
    one EVP per subsystem and one clamp, about 0.1 s, computed once for the
    suite. Yields (system, params, x0, result, solve_seconds)."""
    import time

    from it2mpc.synthesis import SynthesisConfig, minimize_xi
    system = build_example1_system()
    params = example1_synthesis_params()
    x0 = [np.array([1.0, -1.0])] * 3
    t0 = time.perf_counter()
    res = minimize_xi(system, params, x0, SynthesisConfig())
    elapsed = time.perf_counter() - t0
    assert res.feasible
    return system, params, x0, res, elapsed


@pytest.fixture
def ex2_system():
    return build_example2_system()


@pytest.fixture
def ex2_gains():
    return example2_reference_gains()


def _tiny_family(true_tier):
    mk = SigmoidMF
    lower = (mk(shift=0.5, divisor=0.4), mk(shift=-0.5, divisor=0.4, form="logistic"))
    upper = (mk(shift=-0.5, divisor=0.4), mk(shift=0.5, divisor=0.4, form="logistic"))
    true_mf = (mk(shift=0.0, divisor=0.4), mk(shift=0.0, divisor=0.4, form="logistic")) \
        if true_tier else None
    return IT2MembershipFamily(lower=lower, upper=upper, true_mf=true_mf)


def build_tiny_system(stable=True):
    """One two-rule subsystem, no couplings; synthesis takes a few
    milliseconds (feasible when stable, proven infeasible otherwise: the
    actuator is nearly dead and every rule unstable)."""
    if stable:
        rules = (Rule(A=np.array([[0.5, 0.1], [0.0, 0.4]]), B=np.eye(2),
                      E=np.array([[0.1], [0.0]])),
                 Rule(A=np.array([[0.45, 0.0], [0.1, 0.5]]), B=np.eye(2),
                      E=np.array([[0.0], [0.1]])))
        u_max = np.array([10.0, 10.0])
    else:
        rules = (Rule(A=np.array([[1.2, 0.0], [0.0, 1.2]]),
                      B=np.array([[1e-4], [1e-4]]), E=np.array([[0.1], [0.0]])),
                 Rule(A=np.array([[1.25, 0.0], [0.0, 1.15]]),
                      B=np.array([[1e-4], [1e-4]]), E=np.array([[0.0], [0.1]])))
        u_max = np.array([0.5])
    sub = Subsystem(rules=rules, couplings={}, model_mfs=_tiny_family(True),
                    controller_mfs=_tiny_family(False), u_max=u_max,
                    eta=0.05, H=np.array([[1.0, 0.0]]))
    system = LargeScaleSystem(subsystems=(sub,))
    system.validate()
    return system


def tiny_params(n_u=2):
    return FixedParams(X=[5.0 * np.eye(2)], lam=[0.05], N_const=[20.0],
                       M=[np.eye(n_u)], tau=[1.0], Q=0.05 * np.eye(2),
                       R=np.eye(n_u), alpha=2.0)


def budget_floors(system, params, x_all):
    """Per subsystem, the set-size floor written out: the containment size
    sqrt(x_i' X_i x_i), at least the disturbance budget N_i eta_i^2."""
    return [max(float(np.sqrt(x @ params.X[i] @ x)),
                params.N_const[i] * sub.eta ** 2)
            for i, (x, sub) in enumerate(zip(x_all, system.subsystems))]


def own_containment_block(params, i, x_i, xi_i):
    """Subsystem i's containment block assembled alone: the one-member
    stack of constants that hold X_i only."""
    alone = dataclasses.replace(params, X=(params.X[i],))
    return assemble_containment(alone, (0,), [x_i], [xi_i]).matrix[0]


def shape_params(x_mat):
    """tiny_params with the shape matrix x_mat: enough for subsystem 0's
    containment block, which reads only X."""
    return dataclasses.replace(tiny_params(), X=[x_mat])


def tiny_config_doc(stable=True):
    """JSON document for the tiny system, ready to write to disk."""
    from it2mpc.configio import SimulationSettings, SystemConfig, serialize_config
    from it2mpc.simulation import DisturbanceModel
    from it2mpc.synthesis import SynthesisConfig

    cfg = SystemConfig(
        schema_version=1, name="tiny" if stable else "tiny-infeasible",
        notes=[], Ts=0.1,
        system=build_tiny_system(stable), params=tiny_params(2 if stable else 1),
        synthesis=SynthesisConfig(),
        simulation=SimulationSettings(
            x0=[np.array([0.3, -0.3])], steps=20,
            disturbance=DisturbanceModel(kind="uniform_ball", seed=3),
            resynth="once"),
        gains=None)
    return serialize_config(cfg)
