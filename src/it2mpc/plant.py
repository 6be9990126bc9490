"""Coupled fuzzy subsystem models and their one-step dynamics.

A LargeScaleSystem is a tuple of Subsystems. Each subsystem blends per-rule
linear dynamics through normalized firing strengths and is driven by its own
input, its own disturbance, and linear coupling terms from the other
subsystems' states.

The membership, control and step functions take one state per subsystem,
x_all[i] of shape (n_x,), or P of them stacked as (P, n_x); a stack steps
P independent samples at once, and sample p gets exactly the result of a
call with its own states (the 1-D call is the P = 1 case of the same code).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .membership import IT2MembershipFamily

DEGENERATE_FIRING_FLOOR = 1e-12


class DegenerateFiringWarning(UserWarning):
    """All raw firing strengths fell below the floor; uniform weights used."""


@dataclass(frozen=True)
class Rule:
    """One linear local model x+ = A x + B u + E d."""

    A: np.ndarray
    B: np.ndarray
    E: np.ndarray


@dataclass
class Subsystem:
    rules: tuple[Rule, ...]
    couplings: dict[int, np.ndarray] = field(default_factory=dict)
    model_mfs: IT2MembershipFamily | None = None
    controller_mfs: IT2MembershipFamily | None = None
    u_max: np.ndarray | None = None
    eta: float = 1.0
    H: np.ndarray | None = None
    premise_selector: int = 0

    @property
    def n_x(self) -> int:
        return self.rules[0].A.shape[0]

    @property
    def n_u(self) -> int:
        return self.rules[0].B.shape[1]

    @property
    def n_d(self) -> int:
        return self.rules[0].E.shape[1]

    @property
    def n_rules(self) -> int:
        return len(self.rules)

    @property
    def n_controller_rules(self) -> int:
        if self.controller_mfs is None:
            return self.n_rules
        return self.controller_mfs.n_rules

    def premise(self, x: np.ndarray):
        """The premise variable: a float, or (P,) for states (P, n_x)."""
        z = np.asarray(x)[..., self.premise_selector]
        return z if z.ndim else float(z)

    def validate(self):
        if not self.rules:
            raise ValueError("subsystem needs at least one rule")
        n_x, n_u, n_d = self.n_x, self.n_u, self.n_d
        for r, rule in enumerate(self.rules):
            if rule.A.shape != (n_x, n_x):
                raise ValueError(f"rule {r}: A has shape {rule.A.shape}, expected {(n_x, n_x)}")
            if rule.B.shape != (n_x, n_u):
                raise ValueError(f"rule {r}: B has shape {rule.B.shape}, expected {(n_x, n_u)}")
            if rule.E.shape != (n_x, n_d):
                raise ValueError(f"rule {r}: E has shape {rule.E.shape}, expected {(n_x, n_d)}")
        if self.model_mfs is not None and self.model_mfs.n_rules != self.n_rules:
            raise ValueError("model membership family must have one entry per rule")
        if not 0 <= self.premise_selector < n_x:
            raise ValueError(f"premise_selector {self.premise_selector} out of range")
        if self.u_max is not None:
            if self.u_max.shape != (n_u,) or np.any(self.u_max <= 0):
                raise ValueError("u_max must be positive with one entry per input channel")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.H is not None and self.H.shape[1] != n_x:
            raise ValueError("H must have one column per state")


@dataclass
class LargeScaleSystem:
    subsystems: tuple[Subsystem, ...]

    @property
    def n_subsystems(self) -> int:
        return len(self.subsystems)

    def validate(self):
        for i, sub in enumerate(self.subsystems):
            sub.validate()
            self._validate_couplings(i)

    def validate_couplings(self):
        """validate's coupling checks alone, for subsystems that each passed
        their own validate already."""
        for i in range(self.n_subsystems):
            self._validate_couplings(i)

    def _validate_couplings(self, i: int):
        sub = self.subsystems[i]
        for j, g in sub.couplings.items():
            if not 0 <= j < self.n_subsystems or j == i:
                raise ValueError(f"subsystem {i}: coupling key {j} invalid")
            want = (sub.n_x, self.subsystems[j].n_x)
            if g.shape != want:
                raise ValueError(
                    f"subsystem {i}: coupling to {j} has shape {g.shape}, expected {want}")


def normalize_firing(raw: np.ndarray, floor: float = DEGENERATE_FIRING_FLOOR) -> np.ndarray:
    """Normalize raw firing strengths into a partition of unity.

    Falls back to uniform weights (with a warning) when every strength is
    below the floor, so a blend is always defined. A stack (P, n_rules) is
    normalized row by row; only its degenerate rows fall back.
    """
    raw = np.asarray(raw, dtype=float)
    total = np.add.reduce(raw, axis=-1, keepdims=True)
    if min(total.flat) < floor:
        warnings.warn("all firing strengths below floor; using uniform weights",
                      DegenerateFiringWarning, stacklevel=2)
        low = total < floor
        return np.where(low, 1.0 / raw.shape[-1],
                        raw / np.where(low, 1.0, total))
    return raw / total


def _unit_weight(v, message: str):
    """A weight checked to lie in [0, 1]: a float, or a (P,) array of them
    returned as a (P, 1) column that scales stacked (P, n_rules) grades."""
    if isinstance(v, np.ndarray):
        if ((v >= 0.0) & (v <= 1.0)).all():
            return v[..., None]
    elif v is not None and 0.0 <= v <= 1.0:
        return v
    raise ValueError(message)


def eval_model_memberships(sub: Subsystem, x: np.ndarray, mode: str = "true_plant",
                           rho_bar=None) -> np.ndarray:
    """Normalized model firing strengths at state x.

    mode "true_plant" evaluates the configured true grades; "reconstructed"
    blends the envelope as rho_bar*upper + (1 - rho_bar)*lower. States
    (P, n_x) give (P, n_rules), with rho_bar a float or one per state.
    """
    z = sub.premise(x)
    fam = sub.model_mfs
    if fam is None:
        raise ValueError("subsystem has no model membership family")
    if mode == "true_plant":
        raw = fam.true_grades(z)
    elif mode == "reconstructed":
        rho = _unit_weight(rho_bar, "reconstructed mode needs rho_bar in [0, 1]")
        raw = rho * fam.upper_grades(z) + (1.0 - rho) * fam.lower_grades(z)
    else:
        raise ValueError(f"unknown membership mode {mode!r}")
    return normalize_firing(raw)


def eval_controller_memberships(sub: Subsystem, x: np.ndarray, mu_bar) -> np.ndarray:
    """Normalized controller firing strengths weighted by mu_bar in [0, 1]
    (a float, or one per state of a stack)."""
    mu = _unit_weight(mu_bar, "mu_bar must lie in [0, 1]")
    fam = sub.controller_mfs
    if fam is None:
        raise ValueError("subsystem has no controller membership family")
    z = sub.premise(x)
    raw = mu * fam.upper_grades(z) + (1.0 - mu) * fam.lower_grades(z)
    return normalize_firing(raw)


def _weighted_sums(w, terms) -> list:
    """[sum_l w[..., l] * terms[l][t] for each t]: weights (n,) give one
    matrix per t, a stack (P, n) gives (P, ...) of them. Accumulated in
    the order of terms, so each stacked entry equals its unstacked sum."""
    sums = None
    for c, mats in zip(np.asarray(w, dtype=float).T[..., None, None], terms):
        sums = ([c * m for m in mats] if sums is None
                else [s + c * m for s, m in zip(sums, mats)])
    return sums


def blend(sub: Subsystem, w: np.ndarray):
    """Membership-weighted (A, B, E); exact at one-hot weights.

    A stack of weights w (P, n_rules) gives stacks (P, ...) of the three,
    each entry summed in the same order as for its own weight vector."""
    return tuple(_weighted_sums(w, [(r.A, r.B, r.E) for r in sub.rules]))


def _matvec(m, v) -> np.ndarray:
    """m @ v over stacks: (..., r, c) matrices times (..., c) vectors. Each
    product is the one BLAS matrix-vector call that m_p @ v_p makes (matmul
    reads a 1-D v as that column already)."""
    v = np.asarray(v)
    return m @ v if v.ndim == 1 else (m @ v[..., None])[..., 0]


def blend_gains(gains, h: np.ndarray) -> np.ndarray:
    """sum_m h_m k_m; a stack h (P, n_gains) gives (P, n_u, n_x)."""
    k, = _weighted_sums(h, [(km,) for km in gains])
    return k


def control_law(sub: Subsystem, gains, h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """u = (sum_m h_m k_m) x; stacks h (P, n_gains), x (P, n_x) give (P, n_u)."""
    return _matvec(blend_gains(gains, h), x)


def _advance(system: LargeScaleSystem, x_all, u_all, d_all, w_all):
    x_next = []
    for i, sub in enumerate(system.subsystems):
        a, b, e = blend(sub, w_all[i])
        nxt = (_matvec(a, x_all[i]) + _matvec(b, u_all[i])
               + _matvec(e, d_all[i]))
        for j in sorted(sub.couplings):
            nxt = nxt + _matvec(sub.couplings[j], x_all[j])
        x_next.append(nxt)
    return x_next


def step_open_loop(system: LargeScaleSystem, x_all, u_all, d_all,
                   mode: str = "true_plant", rho_bar=None):
    """One step of every subsystem under externally supplied inputs."""
    w_all = [eval_model_memberships(sub, x_all[i], mode, rho_bar)
             for i, sub in enumerate(system.subsystems)]
    return _advance(system, x_all, u_all, d_all, w_all)


def step_closed_loop_detail(system: LargeScaleSystem, gains_all, x_all, d_all,
                            mu_bar=0.5, mode: str = "true_plant",
                            rho_bar=None):
    """One closed-loop step; returns (x_next, u_all, w_all, h_all).

    With states stacked as x_all[i] (P, n_x) and disturbances d_all[i]
    (P, n_d), mu_bar and rho_bar may be floats or (P,) arrays, and every
    returned entry gains the leading P axis."""
    w_all = []
    h_all = []
    u_all = []
    for i, sub in enumerate(system.subsystems):
        w_all.append(eval_model_memberships(sub, x_all[i], mode, rho_bar))
        h = eval_controller_memberships(sub, x_all[i], mu_bar)
        h_all.append(h)
        u_all.append(control_law(sub, gains_all[i], h, x_all[i]))
    x_next = _advance(system, x_all, u_all, d_all, w_all)
    return x_next, u_all, w_all, h_all


def step_closed_loop(system: LargeScaleSystem, gains_all, x_all, d_all,
                     mu_bar=0.5, mode: str = "true_plant", rho_bar=None):
    """One closed-loop step of every subsystem; returns the next states."""
    return step_closed_loop_detail(system, gains_all, x_all, d_all,
                                   mu_bar, mode, rho_bar)[0]
