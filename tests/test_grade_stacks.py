"""Tier grades of a family and of a FamilyStack, bit for bit against the
per-rule SigmoidMF and ResidualMF calls.

A family grades a whole tier per call, and a FamilyStack grades the tier of
S families per call, member s at its own premises (the plant's shape
groups grade so, once per tier). Every grade must be, as float hex, the
value of that rule's own grade object at that premise: on example1
(perturbed true grades), on example2 (residual rows) and on drawn families
that mix perturbed and unperturbed rules, both flips and residuals of one to
three references, at scalar and stacked premises, signed zeros and
|z| >= 40 among them. A stack that mixes equal and distinct members
(example2_stabilized's residual rows among them) grades each member as the
member alone does, with one call per distinct family, tier and rule."""

import collections
import copy
from dataclasses import dataclass

import numpy as np
import pytest

from it2mpc.configio import load_bundled_config
from it2mpc.membership import (FEW_FLOATS, FamilyStack, IT2MembershipFamily,
                               ResidualMF, SigmoidMF)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

TIERS = ("lower", "upper", "true_mf")
METHODS = {"lower": "lower_grades", "upper": "upper_grades",
           "true_mf": "true_grades"}

# premises: ordinary values, signed zeros, the saturated tails and beyond
PREMISES = st.one_of(st.floats(-60.0, 60.0), st.sampled_from(
    [0.0, -0.0, 40.0, -40.0, 41.5, -47.25, 1e3, -1e3, 5e-324, -5e-324]))


def _hex(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


def _families(name: str, role: str) -> list:
    return [getattr(sub, role)
            for sub in load_bundled_config(name).system.subsystems]


def _reference(tier, z: float) -> list:
    """The tier's grades at z, one rule object call at a time."""
    return [float(mf(z)) for mf in tier]


def _tiers(fam):
    return [t for t in TIERS if getattr(fam, t) is not None]


CONFIG_FAMILIES = [(name, role) for name in ("example1_synthesis", "example2")
                   for role in ("model_mfs", "controller_mfs")]


@pytest.mark.parametrize("name, role", CONFIG_FAMILIES)
@settings(max_examples=40, deadline=None)
@given(zs=st.lists(PREMISES, min_size=1, max_size=6))
def test_family_grades_equal_rule_calls(name, role, zs):
    for fam in _families(name, role):
        for tier in _tiers(fam):
            grade = getattr(fam, METHODS[tier])
            stacked = grade(np.array(zs))
            assert stacked.shape == (len(zs), fam.n_rules)
            for p, z in enumerate(zs):
                want = _reference(getattr(fam, tier), z)
                assert _hex(grade(z)) == _hex(want)
                assert _hex(stacked[p]) == _hex(want)


@pytest.mark.parametrize("name, role", CONFIG_FAMILIES)
@settings(max_examples=30, deadline=None)
@given(data=st.data(), n_samples=st.sampled_from([None, 1, 5]))
def test_stacked_grades_equal_rule_calls(name, role, data, n_samples):
    fams = _families(name, role)
    lead = (len(fams),) if n_samples is None else (len(fams), n_samples)
    zs = np.array(data.draw(st.lists(PREMISES, min_size=int(np.prod(lead)),
                                     max_size=int(np.prod(lead))))).reshape(lead)
    stack = FamilyStack(fams)
    for tier in _tiers(fams[0]):
        got = getattr(stack, METHODS[tier])(zs)
        assert got.shape == lead + (fams[0].n_rules,)
        for s, fam in enumerate(fams):
            for index in np.ndindex(lead[1:]):
                want = _reference(getattr(fam, tier), float(zs[(s,) + index]))
                assert _hex(got[(s,) + index]) == _hex(want)


@st.composite
def sigmoids(draw):
    return SigmoidMF(
        shift=draw(st.floats(-3.0, 3.0)),
        divisor=draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.05, 4.0)),
        form=draw(st.sampled_from(["logistic", "one_minus_logistic"])),
        complemented=draw(st.booleans()),
        perturb_amplitude=draw(st.sampled_from([0.0, 0.0, 0.5, -1.25])))


@st.composite
def tiers(draw, kinds):
    """A tier of the given structure: None a sigmoid, m a residual over m
    sigmoids."""
    return tuple(draw(sigmoids()) if k is None else
                 ResidualMF(tuple(draw(sigmoids()) for _ in range(k)))
                 for k in kinds)


@st.composite
def family_stacks(draw):
    """1-3 families of one drawn structure."""
    n_rules = draw(st.integers(1, 4))
    kinds = [draw(st.lists(st.one_of(st.none(), st.integers(1, 3)),
                           min_size=n_rules, max_size=n_rules))
             for _ in TIERS]
    with_true = draw(st.booleans())
    return [IT2MembershipFamily(lower=draw(tiers(kinds[0])),
                                upper=draw(tiers(kinds[1])),
                                true_mf=draw(tiers(kinds[2])) if with_true
                                else None)
            for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=80, deadline=None)
@given(fams=family_stacks(), data=st.data())
def test_drawn_structures_equal_rule_calls(fams, data):
    zs = np.array(data.draw(st.lists(PREMISES, min_size=2 * len(fams),
                                     max_size=2 * len(fams)))
                  ).reshape(len(fams), 2)
    stack = FamilyStack(fams)
    for tier in _tiers(fams[0]):
        got = getattr(stack, METHODS[tier])(zs)
        one = getattr(stack, METHODS[tier])(zs[:, 0])
        for s, fam in enumerate(fams):
            own = getattr(fam, METHODS[tier])(zs[s])
            for p in range(2):
                want = _hex(_reference(getattr(fam, tier), float(zs[s, p])))
                assert _hex(got[s, p]) == want
                assert _hex(own[p]) == want
            assert _hex(one[s]) == _hex(got[s, 0])


def test_infinite_premise_on_mixed_perturbation():
    # an unperturbed rule saturates at z = +-inf; sin(inf) may not reach it
    fam = IT2MembershipFamily(
        lower=(SigmoidMF(0.5, 1.0), SigmoidMF(0.5, 1.0, perturb_amplitude=1.0)),
        upper=(SigmoidMF(0.5, 1.0), SigmoidMF(0.5, 1.0)))
    with np.errstate(invalid="ignore"):
        got = fam.lower_grades(np.array([np.inf, -np.inf]))
        want = [_reference(fam.lower, z) for z in (np.inf, -np.inf)]
    assert _hex(got) == _hex(want)
    assert _hex(got[:, 0]) == _hex([1.0, 0.0])


def test_unequal_structures_stack():
    # members may differ in structure, or hold a grade of another kind
    left, right = SigmoidMF(0.2, 0.1), SigmoidMF(-0.2, 0.1, "logistic")

    def plain(z):
        return 0.5 + 0.0 * z
    families = [IT2MembershipFamily(lower=(left, right), upper=(left, right)),
                IT2MembershipFamily(lower=(left, ResidualMF((left, right))),
                                    upper=(left, plain))]
    zs = np.array([[-0.3, 0.0, 0.25], [0.1, -0.0, 41.0]])
    stack = FamilyStack(families)
    for tier in ("lower", "upper"):
        got = getattr(stack, METHODS[tier])(zs)
        for s, fam in enumerate(families):
            for p, z in enumerate(zs[s]):
                assert _hex(got[s, p]) == _hex(_reference(getattr(fam, tier), z))


# -- equal members are graded together ----------------------------------------
# A FamilyStack splits its members into groups of equal families once, and
# calls each grade object of a group once per tier, on all its members'
# premises together (a stack of fewer than FEW_FLOATS single premises: once
# per premise, with a float). Every grade must still be the member's own.

COUNTS = collections.Counter()


@dataclass(frozen=True)
class Counted:
    """A grade object that counts its calls under its label."""

    mf: object
    label: str

    def __call__(self, z):
        COUNTS[self.label] += 1
        return self.mf(z)


def _counted(fam, tag: str) -> IT2MembershipFamily:
    """fam with every grade object counted under tag.tier.rule; families
    made with equal tags are equal, though built apart."""
    def wrap(tier):
        if getattr(fam, tier) is None:
            return None
        return tuple(Counted(mf, f"{tag}.{tier}.{rule}")
                     for rule, mf in enumerate(getattr(fam, tier)))
    return IT2MembershipFamily(*(wrap(tier) for tier in TIERS))


def _example2_stabilized():
    """example2_stabilized's model and controller families (ResidualMF
    middle rules) and a third 3-rule family, mirrored, built from them."""
    subs = load_bundled_config("example2_stabilized").system.subsystems
    model, controller = subs[0].model_mfs, subs[0].controller_mfs
    mirrored = IT2MembershipFamily(lower=model.lower[::-1],
                                   upper=model.upper[::-1],
                                   true_mf=model.true_mf[::-1])
    return subs, model, controller, mirrored


def _assert_member_grades(stack, families, zs):
    """The stack's grades at zs (S,) or (S, P) against each member graded
    alone and against its rule objects, as float hex."""
    for tier in _tiers(stack):
        got = getattr(stack, METHODS[tier])(zs)
        assert got.shape == zs.shape + (stack.n_rules,)
        for s, fam in enumerate(families):
            alone = getattr(fam, METHODS[tier])(zs[s])
            assert _hex(got[s]) == _hex(alone)
            for index in np.ndindex(zs.shape[1:]):
                want = _reference(getattr(fam, tier), float(zs[(s,) + index]))
                assert _hex(got[(s,) + index]) == _hex(want)


@pytest.mark.parametrize("n_samples", [None, 1, 4])
def test_equal_and_distinct_members(n_samples):
    subs, model, controller, mirrored = _example2_stabilized()
    # the two subsystems' families are equal, not the same objects
    assert subs[1].model_mfs == model and subs[1].model_mfs is not model
    families = [model, controller, mirrored, subs[1].model_mfs,
                copy.deepcopy(controller), subs[1].controller_mfs,
                copy.deepcopy(model), copy.deepcopy(model)]
    stack = FamilyStack(families)
    assert [rows for _, rows in stack.groups] == [[0, 3, 6, 7], [1, 4, 5],
                                                  [2]]
    rng = np.random.default_rng(len(families))
    lead = (len(families),) if n_samples is None else (len(families),
                                                       n_samples)
    zs = rng.uniform(-1.0, 1.0, lead)
    zs.flat[:4] = [0.0, -0.0, 45.0, -41.5]
    _assert_member_grades(stack, families, zs)
    # every member with true grades: the model's group and the mirror
    models = [model, mirrored, subs[1].model_mfs, copy.deepcopy(mirrored),
              copy.deepcopy(model)]
    _assert_member_grades(FamilyStack(models), models, zs[:5])


@pytest.mark.parametrize("n_samples", [None, 3])
def test_one_grade_call_per_distinct_family_tier_and_rule(n_samples):
    _, model, controller, mirrored = _example2_stabilized()
    example1 = load_bundled_config("example1_synthesis").system.subsystems
    # four equal models, one mirror, two equal controllers, built apart
    tags = ["m", "m", "r", "m", "c", "m", "c"]
    base = {"m": model, "r": mirrored, "c": controller}
    families = [_counted(base[t], t) for t in tags]
    stack = FamilyStack(families)
    rng = np.random.default_rng(7)
    lead = (len(tags),) if n_samples is None else (len(tags), n_samples)
    zs = rng.uniform(-1.0, 1.0, lead)
    for tier in ("lower", "upper"):
        COUNTS.clear()
        got = getattr(stack, METHODS[tier])(zs)
        # a stack of FEW_FLOATS members or more grades each group at once,
        # single premises too, however few members the group has
        want = {f"{t}.{tier}.{rule}": 1 for t in set(tags)
                for rule in range(3)}
        assert FEW_FLOATS <= len(tags)
        assert COUNTS == want
        for s, t in enumerate(tags):
            assert _hex(got[s]) == _hex(
                getattr(base[t], METHODS[tier])(zs[s]))
    # example1's three equal models, at stacked premises: one call each
    families = [_counted(sub.model_mfs, "e1") for sub in example1]
    COUNTS.clear()
    FamilyStack(families).true_grades(rng.uniform(-2.0, 2.0, (3, 5)))
    assert COUNTS == {"e1.true_mf.0": 1, "e1.true_mf.1": 1}


def test_unhashable_grade_objects_stack_apart():
    class Plain:
        __hash__ = None     # equal by value, but unhashable

        def __eq__(self, other):
            return isinstance(other, Plain)

        def __call__(self, z):
            return 0.25 + 0.0 * z

    fam = IT2MembershipFamily(lower=(Plain(),), upper=(Plain(),))
    stack = FamilyStack([fam, fam])
    assert len(stack.groups) == 2
    got = stack.lower_grades(np.array([[0.5, 1.0], [2.0, 3.0]]))
    assert _hex(got) == _hex([0.25] * 4)
