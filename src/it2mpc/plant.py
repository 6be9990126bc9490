"""Coupled fuzzy subsystem models and their one-step dynamics.

A LargeScaleSystem is a tuple of Subsystems. Each subsystem blends per-rule
linear dynamics through normalized firing strengths and is driven by its own
input, its own disturbance, and linear coupling terms from the other
subsystems' states.

The step functions take one state per subsystem, x_all[i] of shape
(n_x,), or P of them stacked as (P, n_x); a stack steps P independent
samples at once, and sample p gets exactly the result of a call with its
own states (the 1-D call is the P = 1 case of the same code).

Shape groups. A step runs one kernel per group of equal-shaped subsystems:
equal (n_x, n_u, n_d, n_rules, n_controller_rules) and equal state dims of
their coupling slots, taken in sorted order of the coupling keys (each
bundled config is one group). A group holds its members' families as one
FamilyStack per role, so it grades each tier it needs once for all S
subsystems, through the family's own grade methods (model true, or model
upper and lower; then controller upper and lower), each member at its own
premise. With one membership mode per sample, it grades the model's
true-plant rows and its reconstructed rows apart, one call per tier each.
It then normalizes the S subsystems' grades at once, blends its rule rows
[A|B|E] (n_rules, S, F) in one weighted sum and its gains in another, and
forms u = K x, A x + B u + E d and one product per coupling slot for all S
together, and for all samples of either mode. blend and blend_gains are
the same weighted sums at weights that every member shares.

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
about what grouping saves in a step). Frozen gains (_Gains, as a
certificate holds them) keep each shape group's gain stack the same way;
plain lists of gains are frozen once per step call. A changed plant is a
new object, made with dataclasses.replace; so is a deep copy of a Rule,
since numpy's own deep copy would make its arrays writable. A system that
passed validate() keeps that verdict.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property, wraps
from types import MappingProxyType

import numpy as np

from .membership import FamilyStack, IT2MembershipFamily

DEGENERATE_FIRING_FLOOR = 1e-12


class DegenerateFiringWarning(UserWarning):
    """All raw firing strengths fell below the floor; uniform weights used."""


def _frozen(a) -> np.ndarray:
    """A read-only float copy of a."""
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _verdict_kept(validate):
    """validate, run once per value: a frozen value keeps its passing
    verdict, so a second call is free; a failing value raises again on
    every call, and a dataclasses.replace copy is judged afresh."""
    passed = f"_{validate.__name__}_passed"

    @wraps(validate)
    def checked(self):
        if passed not in self.__dict__:
            validate(self)
            self.__dict__[passed] = True
    return checked


class _Gains(tuple):
    """Controller gains per subsystem: a tuple of read-only float arrays
    each, the one form a certificate and the step hold them in. Made only
    of gains already so held, so a certificate keeps it uncopied; the
    gains of a shape group are stacked once, on its first step."""

    def __deepcopy__(self, memo):   # a deep copy would make them writable
        return self

    @cached_property
    def _stacks(self) -> dict:
        return {}

    def stacked(self, members, n_m: int) -> np.ndarray:
        """The gains of subsystems `members` stacked, read-only (S, n_m,
        n_u, n_x), built once; ValueError naming the first member that has
        not n_m gains."""
        key = (tuple(members), n_m)
        stack = self._stacks.get(key)
        if stack is None:
            for i in members:
                _check_count(len(self[i]), n_m,
                             "controller gains (one per controller rule)",
                             f"subsystem {i}: ")
            stack = self._stacks[key] = _frozen([self[i] for i in members])
        return stack


def _as_gains(gains) -> _Gains:
    """gains as a _Gains: itself when it is one, else read-only float
    copies of its arrays."""
    if type(gains) is _Gains:
        return gains
    return _Gains(tuple(map(_frozen, g)) for g in gains)


def _finite(a: np.ndarray) -> bool:
    """Whether every entry is finite; read as floats, which for a plant's
    small matrices is cheaper than numpy's isfinite and all."""
    return all(map(math.isfinite, a.ravel().tolist()))


@dataclass(frozen=True)
class Rule:
    """One linear local model x+ = A x + B u + E d."""

    A: np.ndarray
    B: np.ndarray
    E: np.ndarray

    def __post_init__(self):
        for name in ("A", "B", "E"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    def __deepcopy__(self, memo):   # numpy's deep copy would be writable
        return replace(self)


@dataclass(frozen=True)
class Subsystem:
    rules: tuple[Rule, ...]
    couplings: Mapping[int, np.ndarray] = field(default_factory=dict)
    model_mfs: IT2MembershipFamily | None = None
    controller_mfs: IT2MembershipFamily | None = None
    u_max: np.ndarray | None = None
    eta: float = 1.0
    H: np.ndarray | None = None     # output map y = H x: criterion 8 and
                                    # the benchmark's audit read it
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
        couplings only (lmis._Layout checks them first)."""
        return _frozen([self.couplings[j] for j in self.coupling_keys]
                       ).reshape(len(self.couplings), self.n_x, self.n_x)

    @cached_property
    def coupling_basis(self) -> np.ndarray | None:
        """Read-only orthonormal basis (columns) of the row space of [g_1
        g_2 ...] from one SVD; None when that map has no kernel."""
        if not self.couplings:
            return None
        _, s, vt = np.linalg.svd(np.hstack([self.couplings[j]
                                            for j in self.coupling_keys]))
        rank = np.count_nonzero(s > 1e-10 * s[0])
        return _frozen(vt[:rank].T) if rank < len(vt) else None

    def premise(self, x: np.ndarray):
        """The premise variable: a float, or (P,) for states (P, n_x)."""
        z = np.asarray(x)[..., self.premise_selector]
        return z if z.ndim else float(z)

    @_verdict_kept
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
        if not _is_finite(self.eta):
            raise ValueError("eta must be finite")
        if self.H is not None and self.H.shape[1] != n_x:
            raise ValueError("H must have one column per state")
        for r, rule in enumerate(self.rules):
            for name in ("A", "B", "E"):
                if not _finite(getattr(rule, name)):
                    raise ValueError(f"rule {r}: {name} must be finite")


@dataclass(frozen=True)
class LargeScaleSystem:
    subsystems: tuple[Subsystem, ...]

    def __post_init__(self):
        object.__setattr__(self, "subsystems", tuple(self.subsystems))

    @property
    def n_subsystems(self) -> int:
        return len(self.subsystems)

    def _grouped(self, key=None) -> tuple:
        """Subsystem indices grouped by equal shape (module docstring,
        "Shape groups") and, if given, equal key(subsystem): a tuple of
        indices per group, in the order of their first members. The one
        grouping rule of the step's shape groups and lmis's layout groups."""
        groups = {}
        for i, sub in enumerate(self.subsystems):
            shape = (sub.n_x, sub.n_u, sub.n_d, sub.n_rules,
                     sub.n_controller_rules,
                     tuple(self.subsystems[j].n_x for j in sub.coupling_keys))
            groups.setdefault((shape, key(sub) if key else None),
                             []).append(i)
        return tuple(map(tuple, groups.values()))

    @cached_property
    def shape_groups(self) -> tuple:
        """The step's _Groups, in the order of their first members."""
        return tuple(_Group(self, list(m)) for m in self._grouped())

    @cached_property
    def layout_groups(self) -> tuple:
        """The groups lmis assembles as one stack: the shape groups split by
        the shape of their members' coupling basis (None when the coupling
        map has no kernel), which the conditions' strict basis extends. A
        tuple of subsystem indices per group, in the order of their first
        members; building them builds no _Group."""
        return self._grouped(lambda sub: None if sub.coupling_basis is None
                             else sub.coupling_basis.shape)

    @_verdict_kept
    def validate(self):
        for i, sub in enumerate(self.subsystems):
            sub.validate()
            self._validate_couplings(i)
        self._validate_finite_couplings()

    def _validate_couplings(self, i: int):
        sub = self.subsystems[i]
        for j, g in sub.couplings.items():
            if not 0 <= j < self.n_subsystems or j == i:
                raise ValueError(f"subsystem {i}: coupling key {j} invalid")
            want = (sub.n_x, self.subsystems[j].n_x)
            if g.shape != want:
                raise ValueError(
                    f"subsystem {i}: coupling to {j} has shape {g.shape}, expected {want}")

    def _validate_finite_couplings(self):
        """The couplings' last check, after every other one."""
        for i, sub in enumerate(self.subsystems):
            for j, g in sub.couplings.items():
                if not _finite(g):
                    raise ValueError(f"subsystem {i}: coupling to {j} must be finite")


def normalize_firing(raw: np.ndarray) -> np.ndarray:
    """Normalize raw firing strengths into a partition of unity.

    Falls back to uniform weights (with a warning) when every strength is
    below the floor, so a blend is always defined. A stack (P, n_rules) is
    normalized row by row; only its degenerate rows fall back, each as a
    call with that row alone would (a NaN row elsewhere changes nothing).
    """
    raw = np.asarray(raw, dtype=float)
    total = np.add.reduce(raw, axis=-1, keepdims=True)
    low = total < DEGENERATE_FIRING_FLOOR
    if np.count_nonzero(low):       # cheaper than low.any() on a few rows
        warnings.warn("all firing strengths below floor; using uniform weights",
                      DegenerateFiringWarning, stacklevel=2)
        return np.where(low, 1.0 / raw.shape[-1],
                        raw / np.where(low, 1.0, total))
    return raw / total


class FieldError(ValueError):
    """An input refused by its rule: `field` names the input and `reason`
    says why; the message is "<field>: <reason>"."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field, self.reason = field, reason


def _is_integer(value, low: int) -> bool:
    """Whether value is an integer >= low: an int or a numpy integer, but
    not a bool (True would count as 1). The one test of a seed or a count."""
    return (not isinstance(value, bool)
            and isinstance(value, (int, np.integer)) and value >= low)


def _is_number(value) -> bool:
    """Whether value is a number: an int, a float or a numpy integer or
    float, but not a bool. The one type test of a real-valued setting or
    config entry; each caller then tests the value's range."""
    return (not isinstance(value, bool)
            and isinstance(value, (int, float, np.integer, np.floating)))


def _is_finite(value) -> bool:
    """Whether value is a finite number (_is_number): not NaN, not an
    infinity, and not an integer too large for a float, which no float
    holds. The one finiteness test of a real-valued setting or config
    entry; each caller then tests the value's range."""
    try:
        return _is_number(value) and math.isfinite(value)
    except OverflowError:
        return False


def _shown(value, text=str) -> str:
    """A refused value as a message shows it: text(value) (str, or repr),
    but an integer of over 20 digits by its digit count, as its text can
    run to thousands of digits (or refuse, past the int-to-str limit)."""
    if not isinstance(value, int) or abs(value) < 10 ** 20:
        return text(value)
    digits = int(math.log10(abs(value))) + 1    # log10 may round either way
    digits += abs(value) >= 10 ** digits
    digits -= abs(value) < 10 ** (digits - 1)
    return f"{'a negative' if value < 0 else 'an'} integer of {digits} digits"


def _unit_weight(v, field: str, reason: str = "must lie in [0, 1]"):
    """A weight checked to lie in [0, 1]: a float, or a (P,) array of them
    returned as a (P, 1) column that scales stacked (P, n_rules) grades."""
    if isinstance(v, np.ndarray):
        if ((v >= 0.0) & (v <= 1.0)).all():
            return v[..., None]
    elif v is not None and 0.0 <= v <= 1.0:
        return v
    raise FieldError(field, reason)


def _family(fam, role: str) -> IT2MembershipFamily:
    if fam is None:
        raise ValueError(f"subsystem has no {role} membership family")
    return fam


def _interval_grades(fam, z, weight) -> np.ndarray:
    """weight * upper + (1 - weight) * lower grades of a family (or a
    FamilyStack) at premises z."""
    return weight * fam.upper_grades(z) + (1.0 - weight) * fam.lower_grades(z)


def _mode_weight(mode: str, rho_bar):
    """The checked rho_bar of mode "reconstructed"; None for "true_plant"."""
    if mode == "reconstructed":
        return _unit_weight(rho_bar, "rho_bar",
                            "reconstructed mode needs rho_bar in [0, 1]")
    if mode != "true_plant":
        raise FieldError("mode", f"unknown membership mode {mode!r}")
    return None


def _mode_parts(mode, rho_bar, x) -> tuple:
    """The model weighting as (rows, rho) parts, each rho as _mode_weight
    gives it for its mode. A mode name is one part of every row (rows
    None). A (P,) array of mode names, one per state of a stack x (P, n_x),
    is one part per mode present, with the indices of its rows (rows None
    when every row has one mode); the reconstructed part reads rho_bar (a
    float, or (P,) of which it checks its own rows)."""
    if isinstance(mode, str):
        return ((None, _mode_weight(mode, rho_bar)),)
    mode = np.asarray(mode)
    if mode.ndim != 1 or mode.shape != np.shape(x)[:-1]:
        raise ValueError(f"a mode array needs one entry per stacked state; "
                         f"got shape {mode.shape} for states {np.shape(x)}")
    true = mode == "true_plant"
    reconstructed = mode == "reconstructed"
    n_true = np.count_nonzero(true)
    n_reconstructed = np.count_nonzero(reconstructed)
    if n_true + n_reconstructed != len(mode):     # _mode_weight refuses it
        _mode_weight(str(mode[~(true | reconstructed)][0]), None)
    if not n_reconstructed:
        return ((None, None),)
    if not n_true:
        return ((None, _mode_weight("reconstructed", rho_bar)),)
    rows = np.flatnonzero(reconstructed)
    rho = rho_bar[rows] if isinstance(rho_bar, np.ndarray) else rho_bar
    return ((np.flatnonzero(true), None),
            (rows, _mode_weight("reconstructed", rho)))


def _model_weights(fam, z, rho) -> np.ndarray:
    """Normalized model firing strengths of a family (or a FamilyStack) at
    premises z: true grades at rho None, else the envelope blended by rho."""
    return normalize_firing(fam.true_grades(z) if rho is None
                            else _interval_grades(fam, z, rho))


def _controller_weights(fam, z, mu) -> np.ndarray:
    """Normalized controller firing strengths, as _model_weights."""
    return normalize_firing(_interval_grades(fam, z, mu))


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


def blend(subs, w: np.ndarray):
    """Membership-weighted (A, B, E) of subsystems `subs` of one shape at
    the same weights w (n_rules,) or (P, n_rules): stacks (S, ...) or (S,
    P, ...), each entry summed in the same order as for one subsystem and
    one weight vector; exact at one-hot weights. They are returned
    contiguous: products over stacks of the views run slower."""
    w = np.asarray(w, dtype=float)
    sub = subs[0]
    _check_count(w.shape[-1], sub.n_rules, "rule weights (one per rule)")
    rows = np.stack([s.rule_rows for s in subs], axis=1)
    m = _weighted_sum(np.broadcast_to(w, (len(subs),) + w.shape), rows)
    return tuple(np.ascontiguousarray(v)
                 for v in _split_rules(m, sub.n_x, sub.n_u, sub.n_d))


def _gain_sum(h, k) -> np.ndarray:
    """sum_m h[..., m] k[:, m] for S subsystems' gains k (S, n_gains, n_u,
    n_x) and weights h (S, n_gains) or (S, P, n_gains)."""
    total = _weighted_sum(h, k.reshape(k.shape[:2] + (-1,)).swapaxes(0, 1))
    return total.reshape(total.shape[:-1] + k.shape[2:])


def blend_gains(k, h: np.ndarray) -> np.ndarray:
    """sum_m h_m k_m for S subsystems' gains k (S, n_gains, n_u, n_x) at
    the same weights h (n_gains,) or (P, n_gains): (S, n_u, n_x) or (S, P,
    n_u, n_x)."""
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    _check_count(h.shape[-1], k.shape[1], "gain weights (one per gain)")
    return _gain_sum(np.broadcast_to(h, (len(k),) + h.shape), k)


class _Group:
    """Subsystems `members` of one shape: equal (n_x, n_u, n_d, n_rules,
    n_controller_rules) and equal state dims of their sorted coupling slots.
    Holds their families as one FamilyStack per role (None when one of them
    has none), their rule rows (n_rules, S, F) and, per slot c, the coupling
    matrices (S, n_x, n_xj) with the subsystem each one reads."""

    def __init__(self, system: LargeScaleSystem, members: list):
        self.members = members
        subs = self.subs = [system.subsystems[i] for i in members]
        sub = subs[0]
        self.shape = (sub.n_x, sub.n_u, sub.n_d)
        self.n_m = sub.n_controller_rules
        model = [s.model_mfs for s in subs]
        controller = [s.controller_mfs for s in subs]
        self.model = (None if any(f is None for f in model)
                      else FamilyStack(model))
        self.controller = (None if any(f is None for f in controller)
                           else FamilyStack(controller))
        self.rules = np.stack([s.rule_rows for s in subs], axis=1)
        keys = [s.coupling_keys for s in subs]
        self.slots = [(np.array([s.couplings[k[c]] for s, k in zip(subs, keys)],
                                dtype=float), [k[c] for k in keys])
                      for c in range(len(keys[0]))]

    def step(self, x_all, d_all, parts, mu, gains_all, u_all):
        """(x_next, u, w, h) stacked over the members; h is None when the
        inputs u_all are given (open loop). The model grades come per part
        of _mode_parts, each part's rows from its own mode; everything
        after them is computed once for every row. States and inputs are
        carried as columns (..., n, 1), so each product is one
        matrix-vector call."""
        subs, members = self.subs, self.members
        xs = [x_all[i] for i in members]
        z = [sub.premise(x) for sub, x in zip(subs, xs)]   # one per member
        model = _family(self.model, "model")
        if len(parts) == 1:         # every row in one mode
            w = _model_weights(model, z, parts[0][1])
        else:
            z = np.array(z)
            w = np.empty(z.shape + (model.n_rules,))
            for rows, rho in parts:
                w[:, rows] = _model_weights(model, z[:, rows], rho)
        x = np.array(xs)[..., None]
        h = None
        if gains_all is None:
            u = np.array([u_all[i] for i in members])[..., None]
        else:
            k = gains_all.stacked(members, self.n_m)
            h = _controller_weights(_family(self.controller, "controller"),
                                    z, mu)
            u = _gain_sum(h, k) @ x
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
    parts = _mode_parts(mode, rho_bar, x_all[0])
    mu = None
    if gains_all is not None:
        gains_all, mu = _as_gains(gains_all), _unit_weight(mu_bar, "mu_bar")
    out = [[None] * system.n_subsystems for _ in range(4)]
    for grp in system.shape_groups:
        for part, rows in zip(out, grp.step(x_all, d_all, parts, mu, gains_all,
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
    (P, n_d), mu_bar and rho_bar may be floats or (P,) arrays, mode may be
    a (P,) array of mode names, one per sample, and every returned entry
    gains the leading P axis. Each sample gets the result of a call with
    its own states, weights and mode; rho_bar is read (and must lie in
    [0, 1]) at the reconstructed samples only."""
    return _step(system, x_all, d_all, mode, rho_bar, gains_all, mu_bar)


def step_closed_loop(system: LargeScaleSystem, gains_all, x_all, d_all,
                     mu_bar=0.5, mode: str = "true_plant", rho_bar=None):
    """One closed-loop step of every subsystem; returns the next states."""
    return step_closed_loop_detail(system, gains_all, x_all, d_all,
                                   mu_bar, mode, rho_bar)[0]
