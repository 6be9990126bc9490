"""Each condition family is assembled one layout group at a time.

A layout group (LargeScaleSystem.layout_groups) is a shape group split by
the shape of its members' strict basis. The four lmis assemblers take a
group as a tuple of members and emit one stack over every member and pair;
each member's slice must equal that member's one-member assembly bit for
bit: the matrices, the test matrices and the xi slopes, which also equal
a block-by-block reference as float hex. A verify builds one layout per
layout group, and so does an evaluator build."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from it2mpc import lmis
from it2mpc.configio import (bundled_config_names, load_bundled_config,
                             load_certificate)
from it2mpc.linalg import sym_matrix
from it2mpc.lmis import (DecisionVars, assemble_decrease,
                         assemble_decrease_blended, assemble_invariance,
                         assemble_invariance_blended)
from it2mpc.synthesis import FixedGainEvaluator, verify_certificate

from conftest import build_tiny_system, tiny_params, two_layout_groups
from ring import ring

FIXTURE = (Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
           / "example1_certificate.json")
CASES = [*bundled_config_names(), "fixture", "tiny", "two_layout_groups"]


def _setup(case):
    """(system, params, dv) of a case: a bundled config with its gains
    (example1's where it ships none) at distinct set sizes, the stored
    certificate, the tiny plant, or the system of two layout groups."""
    if case == "fixture":
        cfg = load_bundled_config("example1_synthesis")
        return cfg.system, cfg.params, load_certificate(FIXTURE,
                                                        cfg.system)[0]
    if case == "tiny":
        gains = [np.array([[-0.3, 0.1], [0.05, -0.2]]),
                 np.array([[-0.1, 0.0], [0.2, -0.4]])]
        return build_tiny_system(), tiny_params(), DecisionVars([gains],
                                                                [1.3])
    if case == "two_layout_groups":
        return two_layout_groups()[:3]
    if case == "ring_12":
        return ring(12)[:3]
    cfg = load_bundled_config(case)
    gains = cfg.gains or load_bundled_config("example1").gains
    n = cfg.system.n_subsystems
    return cfg.system, cfg.params, DecisionVars(
        gains=gains, xi=[0.7 + 0.4 * i for i in range(n)])


def _points(system, members, rng):
    """Vertex pairs (every pair, then two repeated) and five random weight
    pairs of a group's shape."""
    sub = system.subsystems[members[0]]
    pairs = [(l, m) for l in range(sub.n_rules)
             for m in range(sub.n_controller_rules)]
    pairs += pairs[::-1][:2]
    vertex = ([p[0] for p in pairs], [p[1] for p in pairs])
    blended = (rng.dirichlet(np.ones(sub.n_rules), size=5),
               rng.dirichlet(np.ones(sub.n_controller_rules), size=5))
    return {assemble_invariance: vertex, assemble_decrease: vertex,
            assemble_invariance_blended: blended,
            assemble_decrease_blended: blended}


def test_two_layout_groups_split_one_shape_group():
    system = two_layout_groups()[0]
    assert [g.members for g in system.shape_groups] == [[0, 1, 2]]
    assert system.layout_groups == ((0,), (1, 2))


@pytest.mark.parametrize("case", CASES)
def test_group_stack_equals_each_members_own(case):
    system, params, dv = _setup(case)
    rng = np.random.default_rng(5)
    for members in system.layout_groups:
        for assemble, points in _points(system, members, rng).items():
            group = assemble(system, params, dv, members, *points)
            tests = group.test_matrix()
            slopes = lmis._layout(system, params, members).xi_slope(
                group.origin)
            assert group.matrix.shape[0] == tests.shape[0] == len(members)
            for s, i in enumerate(members):
                own = assemble(system, params, dv, (i,), *points)
                np.testing.assert_array_equal(group.matrix[s], own.matrix[0])
                np.testing.assert_array_equal(tests[s], own.test_matrix()[0])
                np.testing.assert_array_equal(slopes[s], lmis._layout(
                    system, params, (i,)).xi_slope(own.origin)[0])
                assert own.subsystem == (i,)
                if own.strict_basis is None:
                    assert group.strict_basis is None
                else:
                    np.testing.assert_array_equal(group.strict_basis[s],
                                                  own.strict_basis[0])
            assert group.subsystem == members


def _reference_xi_slope(params, inst):
    """The xi slope per member, block by block: -lam N I on the disturbance
    block for invariance, -tau I there and +Q on the state block for
    decrease, compressed by the member's strict basis."""
    n_d, n_x = inst.slot_dims[:2]
    size = sum(inst.slot_dims)
    slope = np.zeros((len(inst.subsystem), size, size))
    for s, i in enumerate(inst.subsystem):
        if inst.origin == "invariance":
            slope[s, :n_d, :n_d] = -params.lam[i] * params.N_const[i] \
                * np.eye(n_d)
        else:
            slope[s, :n_d, :n_d] = -params.tau[i] * np.eye(n_d)
            slope[s, n_d:n_d + n_x, n_d:n_d + n_x] = params.q_mat(i)
    if inst.strict_basis is None:
        return slope
    basis = inst.strict_basis
    return sym_matrix(basis.swapaxes(-1, -2) @ slope @ basis)


def _hex(a):
    return [float(v).hex() for v in np.ravel(a)]


def _two_disturbances():
    """The tiny plant with each rule's E (2, 1) doubled to [E E]: a 2 x 2
    disturbance block, with off-diagonal entries, and no strict basis,
    whose compression would symmetrize them."""
    system, params, dv = _setup("tiny")
    sub = system.subsystems[0]
    rules = tuple(dataclasses.replace(r, E=np.hstack([r.E, r.E]))
                  for r in sub.rules)
    return dataclasses.replace(system, subsystems=(
        dataclasses.replace(sub, rules=rules),)), params, dv


@pytest.mark.parametrize("case", [*CASES, "ring_12", "two_disturbances"])
def test_layout_xi_slope_equals_the_block_reference(case):
    # as float hex, so the d block's off-diagonal -0.0 entries count too
    system, params, dv = _two_disturbances() if case == "two_disturbances" \
        else _setup(case)
    for members in system.layout_groups:
        layout = lmis._layout(system, params, members)
        for assemble in (assemble_invariance, assemble_decrease):
            inst = assemble(system, params, dv, members, [0], [0])
            got = layout.xi_slope(inst.origin)
            assert got.shape == (len(members),) + inst.test_matrix().shape[2:]
            assert _hex(got) == _hex(_reference_xi_slope(params, inst))


@pytest.mark.parametrize("members", [0, [0], (), (0, 3), (3,)])
def test_members_outside_one_layout_group_raise(members):
    system, params, dv = _setup("two_layout_groups")
    with pytest.raises(ValueError, match="no group of one layout"):
        assemble_invariance(system, params, dv, members, [0], [0])


def test_one_layout_group_of_members_at_once():
    # (0,) and (1, 2) are two layout groups: (0, 1) mixes them
    system, params, dv = _setup("two_layout_groups")
    with pytest.raises(ValueError, match="no group of one layout"):
        assemble_decrease(system, params, dv, (0, 1), [0], [0])
    inst = assemble_decrease(system, params, dv, (2, 1), [0], [0])
    assert inst.subsystem == (2, 1)


def _count_layouts(monkeypatch):
    """The members of every _Layout built from now on."""
    built, inner = [], lmis._Layout.__init__

    def counted(layout, system, params, members):
        built.append(members)
        inner(layout, system, params, members)

    monkeypatch.setattr(lmis._Layout, "__init__", counted)
    return built


@pytest.mark.parametrize("case", ["fixture", "two_layout_groups"])
def test_a_verify_builds_one_layout_per_group(monkeypatch, case):
    # both families' models and blended sweeps share it; a second verify on
    # the same constants and plant builds none
    system, params, dv = _setup(case)
    params = dataclasses.replace(params)         # no layouts held yet
    built = _count_layouts(monkeypatch)
    report = verify_certificate(system, params, dv)
    assert built == list(system.layout_groups)
    assert report["feasible"]
    verify_certificate(system, params, dv)
    assert built == list(system.layout_groups)


@pytest.mark.parametrize("case", ["fixture", "two_layout_groups", "tiny"])
def test_an_evaluator_build_builds_one_layout_per_group(monkeypatch, case):
    system, params, dv = _setup(case)
    cfg = load_bundled_config("example1_synthesis").synthesis
    built = _count_layouts(monkeypatch)
    for _ in range(2):
        fresh = dataclasses.replace(params)
        FixedGainEvaluator(system, fresh, dv, cfg)
    assert built == 2 * list(system.layout_groups)
