"""Interval type-2 sigmoid membership families.

Each rule carries a lower and an upper grade; the plant optionally carries
a "true" grade (the envelope's interior member, possibly perturbed) used
when simulating the actual nonlinear system.

Every grade takes a scalar premise (and returns a float) or an array of
premises (and returns an array of grades of the same shape), computed with
the same elementwise operations.

A family grades a whole tier (its lower, upper or true grades) per call,
and a FamilyStack grades the tier of S families per call, each member at
its own premises: the plant grades a shape group's subsystems so, once per
tier. A FamilyStack splits its members into groups of equal families when
it is built, and calls each grade object of a group once, on the premises
of all its members put together. Each grade is a call of an equal rule
object on the same premise, so it is bit for bit that call's value.
(Coefficient arrays with one expit call per tier do not pay here: on a
freshly loaded plant building them costs more than a Monte-Carlo chunk's
step saves, and on long sample stacks, where the elementwise work
dominates, they save nothing.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

GradeFn = Callable[[float], float]   # also maps an array of premises

# A stack of fewer members than this, at one premise each, calls its grade
# functions once per member with a float: on example1's and example2's
# grades, below four floats those calls cost less than one with an array.
FEW_FLOATS = 4


class MissingTrueMFError(ValueError):
    """True-plant membership evaluation requested without true grades."""


def _expit_float(x) -> float:
    """scipy.special.expit of a float, bit for bit: 1 / (1 + exp(-x)) with
    libm's exp, as expit computes it, an overflowing exp read as inf. A
    float premise needs no scipy import (and no ufunc call) so."""
    try:
        e = math.exp(-x)
    except OverflowError:
        e = math.inf
    return 1.0 / (1.0 + e)


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
        # logistic(s) of s = arg / divisor: expit(-s), and arg / -divisor is
        # -s exactly, one array operation fewer
        x = arg / -self.divisor
        if isinstance(x, np.ndarray):
            from scipy.special import expit     # imported on first array
            value = expit(x)
        else:
            value = _expit_float(x)
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

    _depth = 0      # leading member axes of premises and grades

    @property
    def n_rules(self) -> int:
        return len(self.lower)

    @property
    def members(self) -> tuple:
        """The families graded: this one alone."""
        return (self,)

    @property
    def groups(self) -> tuple:
        """(family, rows) per group of equal members: this one, row 0."""
        return ((self, [0]),)

    def _grades(self, name: str, z) -> np.ndarray:
        """The tier's grades at premises z: for one family a scalar gives
        (n_rules,) and (P,) premises give (P, n_rules); a stack of S takes
        (S,) or (S, P) premises, one row per member, and gives (S, n_rules)
        or (S, P, n_rules). Each group of equal members calls each of its
        grade functions once, on the premises of all its members put
        together; a stack of fewer than FEW_FLOATS members with one float
        each calls them once per member. A (P, n_rules) is laid out
        rules-major, so that elementwise work on it runs along P."""
        z = np.asarray(z, dtype=float)
        single = z.ndim == self._depth      # one premise per member
        if single and z.size < FEW_FLOATS:  # one by one
            grades = _float_grades(self.members, name, z.reshape(-1).tolist())
            return grades if self._depth else grades[0]
        rows = z.reshape(len(self.members), -1)     # (S, P); P = 1 if single
        parts = [(which, _tier_grades(fam, name, rows[which], single))
                 for fam, which in self.groups]
        if len(parts) == 1:
            grades = parts[0][1]
        else:
            grades = np.empty((len(rows),) + parts[0][1].shape[1:])
            for which, part in parts:
                grades[which] = part
        if not single:
            grades = grades.transpose(0, 2, 1)
        return grades if self._depth else grades[0]

    def lower_grades(self, z) -> np.ndarray:
        return self._grades("lower", z)

    def upper_grades(self, z) -> np.ndarray:
        return self._grades("upper", z)

    def true_grades(self, z) -> np.ndarray:
        if self.true_mf is None:
            raise MissingTrueMFError("family has no true membership functions")
        return self._grades("true_mf", z)


class FamilyStack(IT2MembershipFamily):
    """S families with equal rule counts, graded together through the
    family's own methods: premises (S,) or (S, P), member s at row s, give
    grades (S, n_rules) or (S, P, n_rules). Its tiers are its first
    member's (it has true grades when every member has).

    The members are split once, when the stack is built, into groups of
    equal families (== and hash, as frozen dataclasses compare their
    fields; a family that cannot be hashed is a group of its own). Equal
    families hold equal grade objects, which compute equal grades, so a
    group grades each tier with its first member's grade objects alone."""

    _depth = 1

    def __init__(self, families):   # fields checked on the first member
        put, first = object.__setattr__, families[0]
        put(self, "lower", first.lower)
        put(self, "upper", first.upper)
        put(self, "true_mf", None if any(f.true_mf is None for f in families)
            else first.true_mf)
        put(self, "_members", tuple(families))
        groups = {}
        for s, fam in enumerate(families):
            try:
                rows = groups.setdefault(fam, (fam, []))[1]
            except TypeError:       # unhashable: a group of its own
                rows = groups.setdefault(object(), (fam, []))[1]
            rows.append(s)
        put(self, "_groups", tuple(groups.values()))

    @property
    def members(self) -> tuple:
        return self._members

    @property
    def groups(self) -> tuple:
        return self._groups


def _float_grades(families, name: str, floats: list) -> np.ndarray:
    """(k, n_rules): the tier `name` of family s at floats[s], one call per
    grade function and float."""
    return np.array([[mf(z) for mf in getattr(fam, name)]
                     for fam, z in zip(families, floats)])


def _tier_grades(fam, name: str, zs, single: bool) -> np.ndarray:
    """The tier `name` of k families equal to fam at premises zs (k, P):
    (k, n_rules) when single (P = 1), else (k, n_rules, P). One call per
    grade function on all k P premises."""
    flat, shape = zs.reshape(-1), zs.shape[:1] if single else zs.shape
    return np.stack([mf(flat).reshape(shape) for mf in getattr(fam, name)],
                    axis=1)
