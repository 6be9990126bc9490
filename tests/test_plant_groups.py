"""The shape-group step on drawn plants, bit for bit against the
per-subsystem reference step of tests/test_plant.py.

A drawn plant has 1-4 subsystems whose shapes (n_x, n_u, n_d, rule and
controller rule counts) come from a small pool, so that one plant often
holds several shape groups and a group often holds several subsystems; its
couplings are a random subset of the ordered pairs, between equal or
unequal state dims, inserted in random key order. Each draw steps twice
(the second step reuses the groups the first one built), in either
membership mode, with 1-D or stacked states and float or per-sample
weights."""

import numpy as np
import pytest

from it2mpc.lmis import DecisionVars
from it2mpc.membership import IT2MembershipFamily, SigmoidMF
from it2mpc.plant import (LargeScaleSystem, Rule, Subsystem,
                          step_closed_loop_detail, step_open_loop)

from test_plant import (assert_same_step, reference_step_detail,
                        reference_step_open_loop)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# (n_x, n_u, n_d, n_rules, n_controller_rules)
SHAPES = st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(1, 2),
                   st.integers(1, 3), st.integers(1, 3))


def _family(rng, n_rules, with_true):
    """Sigmoid grades around premises of order one, so that no row of
    grades falls below the firing floor."""
    def mfs():
        return tuple(SigmoidMF(shift=float(rng.uniform(-1.0, 1.0)),
                               divisor=float(rng.choice([-1.0, 1.0])
                                             * rng.uniform(0.5, 2.0)),
                               form=str(rng.choice(["logistic",
                                                    "one_minus_logistic"])),
                               perturb_amplitude=float(rng.uniform(0.0, 0.5)))
                     for _ in range(n_rules))
    return IT2MembershipFamily(lower=mfs(), upper=mfs(),
                               true_mf=mfs() if with_true else None)


def build_plant(shapes, links, seed):
    """The system, its gains and a generator for the inputs."""
    rng = np.random.default_rng(seed)
    fields = []
    for n_x, n_u, n_d, n_rules, n_ctrl in shapes:
        rules = tuple(Rule(A=rng.uniform(-1.0, 1.0, (n_x, n_x)),
                           B=rng.uniform(-1.0, 1.0, (n_x, n_u)),
                           E=rng.uniform(-1.0, 1.0, (n_x, n_d)))
                      for _ in range(n_rules))
        fields.append(dict(rules=rules, couplings={},
                           model_mfs=_family(rng, n_rules, True),
                           controller_mfs=_family(rng, n_ctrl, False),
                           premise_selector=int(rng.integers(n_x))))
    for k in rng.permutation(len(links)):
        i, j = links[k]
        fields[i]["couplings"][j] = rng.uniform(-0.5, 0.5,
                                                (shapes[i][0], shapes[j][0]))
    subs = [Subsystem(**f) for f in fields]
    system = LargeScaleSystem(subsystems=tuple(subs))
    system.validate()
    gains = [[rng.uniform(-1.0, 1.0, (n_u, n_x)) for _ in range(n_ctrl)]
             for n_x, n_u, _, _, n_ctrl in shapes]
    return system, gains, rng


@st.composite
def plants(draw):
    pool = draw(st.lists(SHAPES, min_size=1, max_size=3))
    n = draw(st.integers(1, 4))
    shapes = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)]
    links = [(i, j) for i in range(n) for j in range(n)
             if i != j and draw(st.booleans())]
    return shapes, links, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(plant=plants(), n_samples=st.sampled_from([None, 1, 4]),
       mode=st.sampled_from(["true_plant", "reconstructed"]),
       per_sample=st.booleans())
def test_grouped_step_equals_per_subsystem_step(plant, n_samples, mode,
                                                per_sample):
    shapes, links, seed = plant
    system, gains, rng = build_plant(shapes, links, seed)
    lead = () if n_samples is None else (n_samples,)
    x_all = [rng.uniform(-2.0, 2.0, lead + (s[0],)) for s in shapes]
    per_sample = per_sample and n_samples is not None

    def weight():
        return rng.uniform(0.0, 1.0, n_samples) if per_sample \
            else float(rng.uniform(0.0, 1.0))

    for _ in range(2):
        d_all = [rng.uniform(-0.2, 0.2, lead + (s[2],)) for s in shapes]
        mu = weight()
        rho = weight() if mode == "reconstructed" else None
        got = step_closed_loop_detail(system, gains, x_all, d_all, mu, mode,
                                      rho)
        assert_same_step(got, reference_step_detail(system, gains, x_all,
                                                    d_all, mu, mode, rho))
        assert_same_step(
            [step_open_loop(system, x_all, got[1], d_all, mode, rho)],
            [reference_step_open_loop(system, x_all, got[1], d_all, mode,
                                      rho)])
        x_all = got[0]


def test_two_groups_of_two_with_unequal_couplings():
    """A fixed plant, built as the property builds its draws: two shape
    groups of two subsystems each, every coupling between unequal state
    dims."""
    shapes = [(2, 1, 1, 2, 2), (3, 2, 1, 3, 1), (2, 1, 1, 2, 2),
              (3, 2, 1, 3, 1)]
    links = [(0, 1), (1, 0), (2, 3), (3, 2)]
    system, gains, rng = build_plant(shapes, links, 5)
    x_all = [rng.uniform(-2.0, 2.0, s[0]) for s in shapes]
    d_all = [rng.uniform(-0.2, 0.2, s[2]) for s in shapes]
    got = step_closed_loop_detail(system, gains, x_all, d_all, 0.3)
    assert_same_step(got, reference_step_detail(system, gains, x_all, d_all,
                                                0.3))
    assert sorted(g.members for g in system.shape_groups) == [[0, 2], [1, 3]]


def test_gain_stacks_are_built_once_per_gains_value():
    """The certificate's gains (a frozen _Gains) stack once per shape group,
    on the first step; later steps read the same stacks. A plain list is
    frozen anew on each call and steps the same."""
    shapes = [(2, 1, 1, 2, 2), (3, 2, 1, 3, 1), (2, 1, 1, 2, 2),
              (3, 2, 1, 3, 1)]
    system, gains, rng = build_plant(shapes, [(0, 1), (1, 0), (2, 3), (3, 2)],
                                     7)
    frozen = DecisionVars(gains=gains, xi=[1.0] * len(shapes)).gains
    x_all = [rng.uniform(-2.0, 2.0, s[0]) for s in shapes]
    d_all = [rng.uniform(-0.2, 0.2, s[2]) for s in shapes]
    first = step_closed_loop_detail(system, frozen, x_all, d_all, 0.3)
    stacks = {tuple(grp.members): frozen.stacked(grp.members, grp.n_m)
              for grp in system.shape_groups}
    assert len(frozen._stacks) == len(stacks) == 2
    for members, stack in stacks.items():
        assert not stack.flags.writeable
        np.testing.assert_array_equal(stack, [gains[i] for i in members])
    again = step_closed_loop_detail(system, frozen, x_all, d_all, 0.3)
    assert_same_step(again, first)
    assert_same_step(step_closed_loop_detail(system, gains, x_all, d_all,
                                             0.3), first)
    for grp in system.shape_groups:
        assert frozen.stacked(grp.members, grp.n_m) is \
            stacks[tuple(grp.members)]


@pytest.mark.parametrize("count", [1, 2])
def test_a_frozen_wrong_gain_count_raises_on_every_step(count):
    shapes = [(2, 1, 1, 2, 3), (2, 1, 1, 2, 3)]
    system, gains, rng = build_plant(shapes, [], 3)
    gains[1] = gains[1][:count]
    frozen = DecisionVars(gains=gains, xi=[1.0, 1.0]).gains
    x_all = [rng.uniform(-2.0, 2.0, 2) for _ in shapes]
    for _ in range(2):
        with pytest.raises(ValueError, match=f"subsystem 1: expected 3 "
                                             f"controller gains.*got {count}"):
            step_closed_loop_detail(system, frozen, x_all,
                                    [np.zeros(1)] * 2, 0.3)
    assert not frozen._stacks
