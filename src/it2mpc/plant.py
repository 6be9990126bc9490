"""Coupled fuzzy subsystem models and their one-step dynamics.

A LargeScaleSystem is a tuple of Subsystems. Each subsystem blends per-rule
linear dynamics through normalized firing strengths and is driven by its own
input, its own disturbance, and linear coupling terms from the other
subsystems' states.

The membership, control and step functions take one state per subsystem,
x_all[i] of shape (n_x,), or P of them stacked as (P, n_x); a stack steps
P independent samples at once, and sample p gets exactly the result of a
call with its own states (the 1-D call is the P = 1 case of the same code).

Shape groups. A step runs one kernel per group of equal-shaped subsystems:
equal (n_x, n_u, n_d, n_rules, n_controller_rules) and equal state dims of
their coupling slots, taken in sorted order of the coupling keys (each
bundled config is one group). The grades stay per subsystem, through the
membership family's own methods; a group then normalizes its S subsystems'
grades at once, blends its rule rows [A|B|E] (n_rules, S, F) in one
weighted sum and its gains in another, and forms u = K x,
A x + B u + E d and one product per coupling slot for all S together.
blend and blend_gains are the same weighted sums over one subsystem.

Bit for bit. Each entry is made by the same floating-point operations, in
the same order, as a step of its subsystem alone: a weighted sum adds the
products w_l M_l in rule order; every blended matrix is row-contiguous
with its own row length, so each product is the one BLAS matrix-vector call
that matrix @ vector makes; and x+ = ((A x + B u) + E d) + g_ij x_j adds
the coupling terms in sorted-j order. Grouping changes only how many
entries one numpy call computes.

Immutability. A plant is a value: Rule, Subsystem and LargeScaleSystem
are frozen dataclasses holding read-only float copies of their arrays, a
read-only couplings mapping and tuples. What is derived from a plant is
built once, on first use, and kept on its owner: a subsystem's rule rows
and coupling tables (keys, stacked maps, their row-space basis) and a
system's shape groups (made at its first step, since building them costs
about what grouping saves in a step). A changed plant is a new object,
made with dataclasses.replace.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .membership import IT2MembershipFamily

DEGENERATE_FIRING_FLOOR = 1e-12


class DegenerateFiringWarning(UserWarning):
    """All raw firing strengths fell below the floor; uniform weights used."""


def _frozen(a) -> np.ndarray:
    """A read-only float copy of a."""
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Rule:
    """One linear local model x+ = A x + B u + E d."""

    A: np.ndarray
    B: np.ndarray
    E: np.ndarray

    def __post_init__(self):
        for name in ("A", "B", "E"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


@dataclass(frozen=True)
class Subsystem:
    rules: tuple[Rule, ...]
    couplings: Mapping[int, np.ndarray] = field(default_factory=dict)
    model_mfs: IT2MembershipFamily | None = None
    controller_mfs: IT2MembershipFamily | None = None
    u_max: np.ndarray | None = None
    eta: float = 1.0
    H: np.ndarray | None = None
    premise_selector: int = 0

    def __post_init__(self):
        put = object.__setattr__
        put(self, "rules", tuple(self.rules))
        put(self, "couplings", MappingProxyType(
            {j: _frozen(g) for j, g in self.couplings.items()}))
        put(self, "u_max", None if self.u_max is None else _frozen(self.u_max))
        put(self, "H", None if self.H is None else _frozen(self.H))

    def __deepcopy__(self, memo):   # a value, and a mappingproxy cannot be copied
        return self

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

    @cached_property
    def rule_rows(self) -> np.ndarray:
        """(n_rules, F), read-only: each rule's A, B and E, flattened, joined."""
        return _frozen([np.concatenate((r.A.ravel(), r.B.ravel(), r.E.ravel()))
                        for r in self.rules])

    @cached_property
    def coupling_keys(self) -> tuple:
        """The coupling keys j, sorted: the order of the coupling slots."""
        return tuple(sorted(self.couplings))

    @cached_property
    def coupling_stack(self) -> np.ndarray:
        """(n_couplings, n_x, n_x), read-only: g_j in key order. For square
        couplings only (lmis._Layout checks them first), as is the basis."""
        return _frozen([self.couplings[j] for j in self.coupling_keys]
                       ).reshape(len(self.couplings), self.n_x, self.n_x)

    @cached_property
    def coupling_basis(self) -> np.ndarray | None:
        """Read-only orthonormal basis (columns) of the row space of [g_1
        g_2 ...] from one SVD; None when that map has no kernel."""
        if not self.couplings:
            return None
        _, s, vt = np.linalg.svd(np.hstack(self.coupling_stack))
        rank = np.count_nonzero(s > 1e-10 * s[0])
        return _frozen(vt[:rank].T) if rank < len(vt) else None

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
            if not (self.u_max < np.inf).all():     # NaN compares false
                raise ValueError("u_max must be finite")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if not self.eta < np.inf:
            raise ValueError("eta must be finite")
        if self.H is not None and self.H.shape[1] != n_x:
            raise ValueError("H must have one column per state")


@dataclass(frozen=True)
class LargeScaleSystem:
    subsystems: tuple[Subsystem, ...]

    def __post_init__(self):
        object.__setattr__(self, "subsystems", tuple(self.subsystems))

    @property
    def n_subsystems(self) -> int:
        return len(self.subsystems)

    @cached_property
    def shape_groups(self) -> tuple:
        """The step's _Groups, in the order of their first members."""
        members = {}
        for i, sub in enumerate(self.subsystems):
            key = (sub.n_x, sub.n_u, sub.n_d, sub.n_rules, sub.n_controller_rules,
                   tuple(self.subsystems[j].n_x for j in sub.coupling_keys))
            members.setdefault(key, []).append(i)
        return tuple(_Group(self, m) for m in members.values())

    def validate(self):
        for i, sub in enumerate(self.subsystems):
            sub.validate()
            self._validate_couplings(i)

    def validate_couplings(self):
        """validate's coupling checks alone, for subsystems already validated."""
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


def _family(fam, role: str) -> IT2MembershipFamily:
    if fam is None:
        raise ValueError(f"subsystem has no {role} membership family")
    return fam


def _stack_grades(grades: list) -> np.ndarray:
    """S subsystems' grades (n_rules,) or (P, n_rules) as (S, n_rules) or
    (S, P, n_rules). A stack is stored rules-major, as the grade methods
    lay out each (P, n_rules), so that elementwise work runs along P."""
    if grades[0].ndim == 1:
        return np.array(grades)
    return np.array([g.T for g in grades]).transpose(0, 2, 1)


def _interval_grades(fams, zs, weight) -> np.ndarray:
    """weight * upper + (1 - weight) * lower grades of family f at premise
    z, stacked over the pairs (f, z)."""
    return (weight * _stack_grades([f.upper_grades(z) for f, z in zip(fams, zs)])
            + (1.0 - weight) * _stack_grades([f.lower_grades(z)
                                              for f, z in zip(fams, zs)]))


def _mode_weight(mode: str, rho_bar):
    """The checked rho_bar of mode "reconstructed"; None for "true_plant"."""
    if mode == "reconstructed":
        return _unit_weight(rho_bar, "reconstructed mode needs rho_bar in [0, 1]")
    if mode != "true_plant":
        raise ValueError(f"unknown membership mode {mode!r}")
    return None


def _model_weights(subs, zs, rho) -> np.ndarray:
    """Normalized model firing strengths of subsystem s at premise z,
    stacked over the pairs (s, z): true grades at rho None, else the
    envelope blended by rho."""
    fams = [_family(sub.model_mfs, "model") for sub in subs]
    return normalize_firing(
        _stack_grades([f.true_grades(z) for f, z in zip(fams, zs)])
        if rho is None else _interval_grades(fams, zs, rho))


def _controller_weights(subs, zs, mu) -> np.ndarray:
    """Normalized controller firing strengths, stacked as _model_weights."""
    return normalize_firing(_interval_grades(
        [_family(sub.controller_mfs, "controller") for sub in subs], zs, mu))


def eval_model_memberships(sub: Subsystem, x: np.ndarray, mode: str = "true_plant",
                           rho_bar=None) -> np.ndarray:
    """Normalized model firing strengths at state x.

    mode "true_plant" evaluates the configured true grades; "reconstructed"
    blends the envelope as rho_bar*upper + (1 - rho_bar)*lower. States
    (P, n_x) give (P, n_rules), with rho_bar a float or one per state.
    """
    return _model_weights([sub], [sub.premise(x)],
                          _mode_weight(mode, rho_bar))[0]


def eval_controller_memberships(sub: Subsystem, x: np.ndarray, mu_bar) -> np.ndarray:
    """Normalized controller firing strengths weighted by mu_bar in [0, 1]
    (a float, or one per state of a stack)."""
    mu = _unit_weight(mu_bar, "mu_bar must lie in [0, 1]")
    return _controller_weights([sub], [sub.premise(x)], mu)[0]


def _weighted_sum(w, terms) -> np.ndarray:
    """sum_l w[..., l] * terms[l], added in the order of l. Weights (S, n)
    or (S, P, n) against terms (n, S, F) give (S, F) or (S, P, F): each
    entry is the sum its own weight vector gives."""
    if w.ndim == 3:
        terms = terms[:, :, None]
    products = (w.T if w.ndim == 2 else w.transpose(2, 0, 1))[..., None] * terms
    total = products[0]
    for p in products[1:]:
        total = total + p
    return total


def _split_rules(m, n_x: int, n_u: int, n_d: int):
    """The (A, B, E) views of blended rule rows m (..., F); each matrix
    row-contiguous, as an array of its own would be."""
    lead, a, b = m.shape[:-1], n_x * n_x, n_x * (n_x + n_u)
    return (m[..., :a].reshape(lead + (n_x, n_x)),
            m[..., a:b].reshape(lead + (n_x, n_u)),
            m[..., b:].reshape(lead + (n_x, n_d)))


def _check_count(got: int, want: int, what: str, where: str = ""):
    if got != want:
        raise ValueError(f"{where}expected {want} {what}, got {got}")


def blend(sub: Subsystem, w: np.ndarray):
    """Membership-weighted (A, B, E); exact at one-hot weights.

    A stack of weights w (P, n_rules) gives stacks (P, ...) of the three,
    each entry summed in the same order as for its own weight vector. They
    are returned contiguous: products over stacks of the views run slower."""
    w = np.asarray(w, dtype=float)
    _check_count(w.shape[-1], sub.n_rules, "rule weights (one per rule)")
    m = _weighted_sum(w[None], sub.rule_rows[:, None])[0]
    return tuple(np.ascontiguousarray(v)
                 for v in _split_rules(m, sub.n_x, sub.n_u, sub.n_d))


def _gain_sum(h, k) -> np.ndarray:
    """sum_m h[..., m] k[:, m] for S subsystems' gains k (S, n_gains, n_u,
    n_x) and weights h (S, n_gains) or (S, P, n_gains)."""
    total = _weighted_sum(h, k.reshape(k.shape[:2] + (-1,)).swapaxes(0, 1))
    return total.reshape(total.shape[:-1] + k.shape[2:])


def blend_gains(gains, h: np.ndarray) -> np.ndarray:
    """sum_m h_m k_m; a stack h (P, n_gains) gives (P, n_u, n_x)."""
    h = np.asarray(h, dtype=float)
    _check_count(h.shape[-1], len(gains), "gain weights (one per gain)")
    return _gain_sum(h[None], np.array([gains], dtype=float))[0]


def control_law(sub: Subsystem, gains, h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """u = (sum_m h_m k_m) x; stacks h (P, n_gains), x (P, n_x) give (P, n_u)."""
    _check_count(len(gains), sub.n_controller_rules,
                 "controller gains (one per controller rule)")
    k, x = blend_gains(gains, h), np.asarray(x)
    return k @ x if x.ndim == 1 else (k @ x[..., None])[..., 0]


class _Group:
    """Subsystems `members` of one shape: equal (n_x, n_u, n_d, n_rules,
    n_controller_rules) and equal state dims of their sorted coupling slots.
    Holds their rule rows (n_rules, S, F) and, per slot c, the coupling
    matrices (S, n_x, n_xj) with the subsystem each one reads."""

    def __init__(self, system: LargeScaleSystem, members: list):
        self.members = members
        subs = self.subs = [system.subsystems[i] for i in members]
        sub = subs[0]
        self.shape = (sub.n_x, sub.n_u, sub.n_d)
        self.n_m = sub.n_controller_rules
        self.rules = np.stack([s.rule_rows for s in subs], axis=1)
        keys = [s.coupling_keys for s in subs]
        self.slots = [(np.array([s.couplings[k[c]] for s, k in zip(subs, keys)],
                                dtype=float), [k[c] for k in keys])
                      for c in range(len(keys[0]))]

    def step(self, x_all, d_all, rho, mu, gains_all, u_all):
        """(x_next, u, w, h) stacked over the members; h is None when the
        inputs u_all are given (open loop). States and inputs are carried as
        columns (..., n, 1), so each product is one matrix-vector call."""
        subs, members = self.subs, self.members
        xs = [x_all[i] for i in members]
        zs = [sub.premise(x) for sub, x in zip(subs, xs)]
        w = _model_weights(subs, zs, rho)
        x = np.array(xs)[..., None]
        h = None
        if gains_all is None:
            u = np.array([u_all[i] for i in members])[..., None]
        else:
            for i in members:
                _check_count(len(gains_all[i]), self.n_m,
                             "controller gains (one per controller rule)",
                             f"subsystem {i}: ")
            h = _controller_weights(subs, zs, mu)
            u = _gain_sum(h, np.array([gains_all[i] for i in members],
                                      dtype=float)) @ x
        a, b, e = _split_rules(_weighted_sum(w, self.rules), *self.shape)
        nxt = a @ x + b @ u + e @ np.array([d_all[i] for i in members])[..., None]
        for g, sources in self.slots:
            x_j = np.array([x_all[j] for j in sources])[..., None]
            nxt = nxt + (g if x_j.ndim == 3 else g[:, None]) @ x_j
        return nxt[..., 0], u[..., 0], w, h


def _step(system: LargeScaleSystem, x_all, d_all, mode, rho_bar,
          gains_all=None, mu_bar=None, u_all=None):
    """One step of every shape group: (x_next, u_all, w_all, h_all), with
    the inputs u_all given (and h_all all None) or made from gains_all."""
    rho = _mode_weight(mode, rho_bar)
    mu = None if gains_all is None else _unit_weight(
        mu_bar, "mu_bar must lie in [0, 1]")
    out = [[None] * system.n_subsystems for _ in range(4)]
    for grp in system.shape_groups:
        for part, rows in zip(out, grp.step(x_all, d_all, rho, mu, gains_all,
                                            u_all)):
            if rows is not None:
                for i, row in zip(grp.members, rows):
                    part[i] = row
    return tuple(out)


def step_open_loop(system: LargeScaleSystem, x_all, u_all, d_all,
                   mode: str = "true_plant", rho_bar=None):
    """One step of every subsystem under externally supplied inputs."""
    return _step(system, x_all, d_all, mode, rho_bar, u_all=u_all)[0]


def step_closed_loop_detail(system: LargeScaleSystem, gains_all, x_all, d_all,
                            mu_bar=0.5, mode: str = "true_plant",
                            rho_bar=None):
    """One closed-loop step; returns (x_next, u_all, w_all, h_all).

    With states stacked as x_all[i] (P, n_x) and disturbances d_all[i]
    (P, n_d), mu_bar and rho_bar may be floats or (P,) arrays, and every
    returned entry gains the leading P axis."""
    return _step(system, x_all, d_all, mode, rho_bar, gains_all, mu_bar)


def step_closed_loop(system: LargeScaleSystem, gains_all, x_all, d_all,
                     mu_bar=0.5, mode: str = "true_plant", rho_bar=None):
    """One closed-loop step of every subsystem; returns the next states."""
    return step_closed_loop_detail(system, gains_all, x_all, d_all,
                                   mu_bar, mode, rho_bar)[0]
