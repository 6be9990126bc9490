"""Interval type-2 sigmoid membership families.

Each rule carries a lower and an upper sigmoid grade; the plant optionally
carries a "true" grade (the envelope's interior member, possibly perturbed)
used when simulating the actual nonlinear system.

Every grade takes a scalar premise (and returns a float) or an array of
premises (and returns an array of grades of the same shape), computed with
the same elementwise operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import expit

GradeFn = Callable[[float], float]   # also maps an array of premises


class MissingTrueMFError(ValueError):
    """True-plant membership evaluation requested without true grades."""


@dataclass(frozen=True)
class SigmoidMF:
    """Sigmoid grade mu(z) built from logistic(s) = 1 / (1 + e^s).

    The argument is s = (z + shift + perturb_amplitude * sin(z)) / divisor.
    `form` picks logistic(s) or 1 - logistic(s); `complemented` takes the
    complement of the result (a convenience for rule families defined as
    "one minus the other rule's grade").
    """

    shift: float
    divisor: float
    form: str = "one_minus_logistic"
    complemented: bool = False
    perturb_amplitude: float = 0.0

    def __post_init__(self):
        if self.divisor == 0.0:
            raise ValueError("divisor must be nonzero")
        if self.form not in ("logistic", "one_minus_logistic"):
            raise ValueError(f"unknown form {self.form!r}")

    def __call__(self, z):
        arg = z + self.shift
        if self.perturb_amplitude != 0.0:
            arg = arg + self.perturb_amplitude * np.sin(z)
        s = arg / self.divisor
        value = expit(-s)  # logistic(s), overflow-safe
        if not isinstance(value, np.ndarray):
            value = float(value)
        if self.form == "one_minus_logistic":
            value = 1.0 - value
        if self.complemented:
            value = 1.0 - value
        return value


@dataclass(frozen=True)
class ResidualMF:
    """Grade 1 - sum of the referenced grades, clipped to [0, 1].

    Completes a partition whose outer rules are shoulder sigmoids: the middle
    rule's lower grade is the residual of the outer uppers and vice versa.
    """

    others: tuple[GradeFn, ...]

    def __call__(self, z):
        total = 0.0
        for mf in self.others:
            total += mf(z)
        value = np.minimum(1.0, np.maximum(0.0, 1.0 - total))
        return value if isinstance(value, np.ndarray) else float(value)


@dataclass(frozen=True)
class IT2MembershipFamily:
    """Per-rule (lower, upper) grade pairs, plus optional true grades."""

    lower: tuple[GradeFn, ...]
    upper: tuple[GradeFn, ...]
    true_mf: tuple[GradeFn, ...] | None = None

    def __post_init__(self):
        if len(self.lower) != len(self.upper) or not self.lower:
            raise ValueError("lower and upper grade lists must match and be nonempty")
        if self.true_mf is not None and len(self.true_mf) != len(self.lower):
            raise ValueError("true grade list must match the rule count")

    @property
    def n_rules(self) -> int:
        return len(self.lower)

    # A scalar premise gives (n_rules,) grades; premises of shape (P,) give
    # (P, n_rules), row p holding the grades at z[p].
    def lower_grades(self, z) -> np.ndarray:
        return np.array([mf(z) for mf in self.lower]).T

    def upper_grades(self, z) -> np.ndarray:
        return np.array([mf(z) for mf in self.upper]).T

    def true_grades(self, z) -> np.ndarray:
        if self.true_mf is None:
            raise MissingTrueMFError("family has no true membership functions")
        return np.array([mf(z) for mf in self.true_mf]).T

    def envelope_gap(self, zs) -> float:
        """Smallest upper-minus-lower gap over the probe points (negative
        means the envelope is inverted somewhere)."""
        zs = np.atleast_1d(np.asarray(zs, dtype=float))
        return float(np.min(self.upper_grades(zs) - self.lower_grades(zs)))
