"""Sigmoid grade and interval-family tests with closed-form frozen values."""

import numpy as np
import pytest

from it2mpc.membership import (
    IT2MembershipFamily,
    MissingTrueMFError,
    ResidualMF,
    SigmoidMF,
)

from conftest import (controller_mf_family, example2_controller_mf_family,
                      example2_model_mf_family, model_mf_family)


def _envelope_gap(fam, z):
    """Smallest upper-minus-lower gap over the premises z (negative means
    the envelope is inverted somewhere)."""
    return np.min(fam.upper_grades(z) - fam.lower_grades(z))


class TestSigmoidMF:
    def test_model_upper_at_minus_four(self):
        # 1 - 1/(1 + e^{-4+5}) = 1 - 1/(1+e)
        mf = model_mf_family().upper[0]
        assert mf(-4.0) == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_model_lower_at_minus_four(self):
        # 1 - 1/(1 + e^{-4+3}) = 1 - 1/(1+e^{-1})
        mf = model_mf_family().lower[0]
        assert mf(-4.0) == pytest.approx(0.2689414213699951, abs=1e-12)

    def test_controller_lower_at_one_point_five(self):
        # 1 - 1/(1 + e^{(-1.5-1.5)/2})
        mf = controller_mf_family().lower[0]
        assert mf(1.5) == pytest.approx(0.18242552380635635, abs=1e-12)

    def test_controller_upper_at_one_point_five(self):
        # 1 - 1/(1 + e^0) = 1/2 exactly
        mf = controller_mf_family().upper[0]
        assert mf(1.5) == pytest.approx(0.5, abs=1e-15)

    def test_perturbation_enters_exponent(self):
        plain = SigmoidMF(shift=4.0, divisor=1.0)
        wobbly = SigmoidMF(shift=4.0, divisor=1.0, perturb_amplitude=1.0)
        z = 0.7
        shifted = SigmoidMF(shift=4.0 + np.sin(z), divisor=1.0)
        assert wobbly(z) == pytest.approx(shifted(z), abs=1e-15)
        assert wobbly(z) != plain(z)

    def test_complement_is_one_minus(self):
        base = SigmoidMF(shift=2.0, divisor=3.0)
        comp = SigmoidMF(shift=2.0, divisor=3.0, complemented=True)
        for z in (-10.0, -1.0, 0.0, 2.5, 8.0):
            assert comp(z) == pytest.approx(1.0 - base(z), abs=1e-15)

    def test_rejects_zero_divisor(self):
        with pytest.raises(ValueError):
            SigmoidMF(shift=0.0, divisor=0.0)

    def test_rejects_unknown_form(self):
        with pytest.raises(ValueError):
            SigmoidMF(shift=0.0, divisor=1.0, form="gaussian")

    def test_range_and_overflow_safety(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            mf = SigmoidMF(shift=float(rng.uniform(-10, 10)),
                           divisor=float(rng.choice([-1, 1]) * rng.uniform(0.1, 5)),
                           form=str(rng.choice(["logistic", "one_minus_logistic"])),
                           complemented=bool(rng.integers(2)))
            z = float(rng.uniform(-1e4, 1e4))
            v = mf(z)
            assert 0.0 <= v <= 1.0
            assert np.isfinite(v)


class TestResidualMF:
    def test_residual_is_one_minus_others(self):
        left = SigmoidMF(shift=0.25, divisor=0.12, form="logistic")
        right = SigmoidMF(shift=-0.25, divisor=0.12)
        mid = ResidualMF(others=(left, right))
        for z in np.linspace(-1.5, 1.5, 61):
            assert mid(z) == pytest.approx(1.0 - left(z) - right(z), abs=1e-15)
            assert 0.0 <= mid(z) <= 1.0

    def test_clips_when_others_overlap(self):
        wide_a = SigmoidMF(shift=-2.0, divisor=1.0, form="logistic")
        wide_b = SigmoidMF(shift=2.0, divisor=1.0)
        mid = ResidualMF(others=(wide_a, wide_b))
        assert mid(0.0) == 0.0  # others sum past 1 at the center

    def test_three_rule_envelope_ordering(self):
        # Residual of the shoulder uppers sits below the residual of the
        # shoulder lowers: a valid (lower, upper) pair for the middle rule.
        lo_left = SigmoidMF(shift=0.3, divisor=0.12, form="logistic")
        hi_left = SigmoidMF(shift=0.2, divisor=0.12, form="logistic")
        lo_right = SigmoidMF(shift=-0.3, divisor=0.12)
        hi_right = SigmoidMF(shift=-0.2, divisor=0.12)
        lo_mid = ResidualMF(others=(hi_left, hi_right))
        hi_mid = ResidualMF(others=(lo_left, lo_right))
        fam = IT2MembershipFamily(
            lower=(lo_left, lo_mid, lo_right),
            upper=(hi_left, hi_mid, hi_right),
        )
        assert _envelope_gap(fam, np.linspace(-2.0, 2.0, 161)) >= 0.0
        assert fam.n_rules == 3


class TestIT2MembershipFamily:
    def test_envelope_brackets_true_grade(self):
        fam = model_mf_family()
        for z in np.linspace(-12.0, 6.0, 181):
            lo = fam.lower_grades(z)
            hi = fam.upper_grades(z)
            tr = fam.true_grades(z)
            assert np.all(lo <= tr + 1e-12)
            assert np.all(tr <= hi + 1e-12)

    def test_envelope_gap_nonnegative(self):
        z = np.linspace(-15, 15, 301)
        assert _envelope_gap(model_mf_family(), z) >= 0.0
        assert _envelope_gap(controller_mf_family(), z) >= 0.0

    def test_true_grades_missing(self):
        with pytest.raises(MissingTrueMFError):
            controller_mf_family().true_grades(0.0)

    def test_rule_count_mismatch_rejected(self):
        mf = SigmoidMF(shift=0.0, divisor=1.0)
        with pytest.raises(ValueError):
            IT2MembershipFamily(lower=(mf,), upper=(mf, mf))
        with pytest.raises(ValueError):
            IT2MembershipFamily(lower=(mf,), upper=(mf,), true_mf=(mf, mf))

    def test_true_grades_sum_to_one_for_complement_pair(self):
        fam = model_mf_family()
        for z in (-6.0, -4.0, 0.0, 3.0):
            assert fam.true_grades(z).sum() == pytest.approx(1.0, abs=1e-12)


class TestArrayPremises:
    """An array of premises gives, entry by entry, the scalar grades."""

    ZS = np.concatenate([np.linspace(-12.0, 6.0, 37), [0.0, -4.0, 1.5]])

    def test_sigmoid_entries_equal_scalar_calls(self):
        mfs = [SigmoidMF(shift=4.0, divisor=1.0, perturb_amplitude=1.0),
               SigmoidMF(shift=4.0, divisor=1.0, perturb_amplitude=1.0,
                         complemented=True),
               SigmoidMF(shift=1.5, divisor=-2.0, form="logistic"),
               SigmoidMF(shift=-0.3, divisor=0.12)]
        for mf in mfs:
            got = mf(self.ZS)
            assert got.shape == self.ZS.shape
            assert np.array_equal(got, [mf(float(z)) for z in self.ZS])

    def test_residual_entries_equal_scalar_calls_and_clip(self):
        mid = ResidualMF(others=(SigmoidMF(shift=-2.0, divisor=1.0,
                                           form="logistic"),
                                 SigmoidMF(shift=2.0, divisor=1.0)))
        zs = np.linspace(-8.0, 8.0, 41)
        got = mid(zs)
        assert np.array_equal(got, [mid(float(z)) for z in zs])
        assert got[20] == 0.0           # the others sum past 1 at z = 0
        assert np.all((got >= 0.0) & (got <= 1.0))

    @pytest.mark.parametrize("family", [model_mf_family, controller_mf_family,
                                        example2_model_mf_family,
                                        example2_controller_mf_family])
    def test_family_grades_stack_rows(self, family):
        fam = family()
        tiers = [fam.lower_grades, fam.upper_grades]
        if fam.true_mf is not None:
            tiers.append(fam.true_grades)
        zs = self.ZS / 10.0 if fam.n_rules == 3 else self.ZS
        for grades in tiers:
            stacked = grades(zs)
            assert stacked.shape == (len(zs), fam.n_rules)
            for p, z in enumerate(zs):
                assert np.array_equal(stacked[p], grades(float(z)))
