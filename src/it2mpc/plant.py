"""Coupled fuzzy subsystem models and their one-step dynamics.

A LargeScaleSystem is a tuple of Subsystems. Each subsystem blends per-rule
linear dynamics through normalized firing strengths and is driven by its own
input, its own disturbance, and linear coupling terms from the other
subsystems' states.
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

    def premise(self, x: np.ndarray) -> float:
        return float(x[self.premise_selector])

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
        n = self.n_subsystems
        for i, sub in enumerate(self.subsystems):
            sub.validate()
            for j, g in sub.couplings.items():
                if not 0 <= j < n or j == i:
                    raise ValueError(f"subsystem {i}: coupling key {j} invalid")
                want = (sub.n_x, self.subsystems[j].n_x)
                if g.shape != want:
                    raise ValueError(
                        f"subsystem {i}: coupling to {j} has shape {g.shape}, expected {want}")


def normalize_firing(raw: np.ndarray, floor: float = DEGENERATE_FIRING_FLOOR) -> np.ndarray:
    """Normalize raw firing strengths into a partition of unity.

    Falls back to uniform weights (with a warning) when every strength is
    below the floor, so a blend is always defined.
    """
    raw = np.asarray(raw, dtype=float)
    total = float(raw.sum())
    if total < floor:
        warnings.warn("all firing strengths below floor; using uniform weights",
                      DegenerateFiringWarning, stacklevel=2)
        return np.full(raw.shape, 1.0 / raw.size)
    return raw / total


def eval_model_memberships(sub: Subsystem, x: np.ndarray, mode: str = "true_plant",
                           rho_bar: float | None = None) -> np.ndarray:
    """Normalized model firing strengths at state x.

    mode "true_plant" evaluates the configured true grades; "reconstructed"
    blends the envelope as rho_bar*upper + (1 - rho_bar)*lower.
    """
    z = sub.premise(x)
    fam = sub.model_mfs
    if fam is None:
        raise ValueError("subsystem has no model membership family")
    if mode == "true_plant":
        raw = fam.true_grades(z)
    elif mode == "reconstructed":
        if rho_bar is None or not 0.0 <= rho_bar <= 1.0:
            raise ValueError("reconstructed mode needs rho_bar in [0, 1]")
        raw = rho_bar * fam.upper_grades(z) + (1.0 - rho_bar) * fam.lower_grades(z)
    else:
        raise ValueError(f"unknown membership mode {mode!r}")
    return normalize_firing(raw)


def eval_controller_memberships(sub: Subsystem, x: np.ndarray, mu_bar: float) -> np.ndarray:
    """Normalized controller firing strengths weighted by mu_bar in [0, 1]."""
    if not 0.0 <= mu_bar <= 1.0:
        raise ValueError("mu_bar must lie in [0, 1]")
    fam = sub.controller_mfs
    if fam is None:
        raise ValueError("subsystem has no controller membership family")
    z = sub.premise(x)
    raw = mu_bar * fam.upper_grades(z) + (1.0 - mu_bar) * fam.lower_grades(z)
    return normalize_firing(raw)


def blend(sub: Subsystem, w: np.ndarray):
    """Membership-weighted (A, B, E); exact at one-hot weights.

    A stack of weights w (P, n_rules) gives stacks (P, ...) of the three,
    each entry summed in the same order as for its own weight vector."""
    cols = np.asarray(w, dtype=float).T[..., None, None]
    a = sum(wl * rule.A for wl, rule in zip(cols, sub.rules))
    b = sum(wl * rule.B for wl, rule in zip(cols, sub.rules))
    e = sum(wl * rule.E for wl, rule in zip(cols, sub.rules))
    return a, b, e


def control_law(sub: Subsystem, gains, h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """u = (sum_m h_m k_m) x."""
    k = sum(hm * km for hm, km in zip(h, gains))
    return k @ x


def _advance(system: LargeScaleSystem, x_all, u_all, d_all, w_all):
    x_next = []
    for i, sub in enumerate(system.subsystems):
        a, b, e = blend(sub, w_all[i])
        nxt = a @ x_all[i] + b @ u_all[i] + e @ d_all[i]
        for j in sorted(sub.couplings):
            nxt = nxt + sub.couplings[j] @ x_all[j]
        x_next.append(nxt)
    return x_next


def step_open_loop(system: LargeScaleSystem, x_all, u_all, d_all,
                   mode: str = "true_plant", rho_bar: float | None = None):
    """One step of every subsystem under externally supplied inputs."""
    w_all = [eval_model_memberships(sub, x_all[i], mode, rho_bar)
             for i, sub in enumerate(system.subsystems)]
    return _advance(system, x_all, u_all, d_all, w_all)


def step_closed_loop_detail(system: LargeScaleSystem, gains_all, x_all, d_all,
                            mu_bar: float = 0.5, mode: str = "true_plant",
                            rho_bar: float | None = None):
    """One closed-loop step; returns (x_next, u_all, w_all, h_all)."""
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
                     mu_bar: float = 0.5, mode: str = "true_plant",
                     rho_bar: float | None = None):
    """One closed-loop step of every subsystem; returns the next states."""
    return step_closed_loop_detail(system, gains_all, x_all, d_all,
                                   mu_bar, mode, rho_bar)[0]
