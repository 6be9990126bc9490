"""Gain synthesis and set-size minimization over the assembled conditions.

Every condition of subsystem i involves only that subsystem's gains and set
size (neighbour states enter through fixed shape matrices), and every
full-form vertex test matrix is jointly affine in y = (vec K_i, xi_i): one
model per subsystem (_Model) holds both families as G(y), built from one
stacked vertex assembly per family, its rows tightened as the evaluator
judges them. So the smallest set size over all gains is an eigenvalue
problem, EVP (Boyd, El Ghaoui, Feron & Balakrishnan 1994, §2.2), as in
Kothare, Balakrishnan & Morari (1996), which a log-det barrier method
solves (_barrier; Boyd & Vandenberghe 2004, §11.4-11.6). Its phase I,
min s subject to G(y) <= s I, finds a strictly feasible point or a dual
lower bound s > 0 that proves none exists (Infeasible's best_excess); its
phase II returns the gains of min xi_i and a lower bound on it that holds
for the certificate's own conditions.

Symmetry lemma: vertex (l, m) reads K_m alone, so every K_m faces the same
rows ({G_l(K_m, xi) <= s I for every l} and the input-peak rows), and per-rule
gains meet them at (xi, s) exactly when each K_m, taken for every rule, does.
So the EVP and phase I over (K_0 ... K_M-1, xi_i) have the optima and bounds
of those over one gain, y = (vec K, xi_i): the cold gains are [K] * n_m.

Every certificate margin comes from that model read at fixed gains: a part
per subsystem (_Part) is its model at (K_i, xi_ref), the conditions as
functions of xi_i alone, and FixedGainEvaluator is one part per subsystem,
so a re-solve makes new parts only for the subsystems it re-solved, off the
models they already hold, and assembles nothing. certificate_margins is
that evaluator at the certificate's sizes.

Set-size minimization is one search over a group of subsystems that share
one xi: the "common" mode passes a single group of all subsystems, the
"per_subsystem" mode one group per subsystem. At fixed gains the feasible
set sizes are an interval [xi_lo, xi_hi] that does not depend on the state
(only containment does), with exact ends from generalized eigenvalues, so
the group's size is max(xi_lo, floor), a hair above it, whenever every
member's xi_hi reaches that: one rule (_settle) sizes a warm step, a cold
solve and supplied gains alike. A member's floor (_floors) is its
containment size, at least its disturbance budget N_i eta_i^2, so that
every size covers d'd <= eta_i^2. Warm gains come in one way, as their
FixedGainEvaluator, and are kept whenever they fit. Otherwise each member's
EVP, without containment and input-peak rows, gives its gains, the same
rule sizes the group on their parts, and only a member whose interval does
not reach the group's size is re-solved at that size by a fixed-xi
feasibility SDP that enforces the input-peak rows exactly (solve_fixed_xi).

The input constraint is assumed to take the form of Kothare, Balakrishnan
& Morari (1996): the paper (arXiv 2108.13790; only its abstract is at hand)
is read as bounding each input over the set {x' Q^-1 x <= 1} by
[[U, k Q], [Q k', Q]] >= 0 with U_ss <= u_s^2. Here Q = xi^2 X^-1 with X
fixed, so that LMI holds for some U exactly when the input-peak rows
xi^2 (k X^-1 k')_ss <= u_s^2 do; they are the only input rows checked.
They are not jointly affine in (k, xi), but at fixed xi they are the
Schur LMIs [[u_s^2 / xi^2, k_s], [k_s', X]] >= 0, affine in k.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .lmis import (DecisionVars, FixedParams, _format_key,
                   assemble_containment, assemble_decrease,
                   assemble_decrease_blended, assemble_invariance,
                   assemble_invariance_blended, containment_sizes,
                   vertex_keys, xi_slope)
from .plant import (FieldError, LargeScaleSystem, _frozen, _Gains, _is_finite,
                    _is_integer, _shown)


XI_MODES = ("common", "per_subsystem")
XI_HAIR = 1e-6      # relative step kept inside an exact set-size boundary
_GAP = 1e-9         # barrier stop: duality gap over max(1, |objective|)
_MU = 10.0          # barrier weight growth per centering
_NEWTON_CAP = 50    # Newton steps per barrier weight before giving up


class Infeasible(Exception):
    """No gain assignment satisfies the conditions. best_excess is the
    phase-I dual lower bound on min s, G(y) <= s I: a value > 0 proves that
    no gains exist (at any set size, or at the one the message names)."""

    def __init__(self, message: str, best_excess: float = np.inf,
                 subsystem: int | None = None):
        super().__init__(message)
        self.best_excess = best_excess
        self.subsystem = subsystem


def _xi_mode(mode) -> str:
    """mode, checked to be one of XI_MODES."""
    if mode not in XI_MODES:
        raise FieldError("xi_mode", f"unknown xi mode: {mode!r}; "
                                    f"expected one of {XI_MODES}")
    return mode


@dataclass(frozen=True)
class SynthesisConfig:
    """Synthesis settings, checked on construction. `seed` no longer affects
    synthesis, which draws no random numbers; it is kept for callers."""

    strictness: float = 1e-9        # required margin for strict instances
    seed: int = 0
    xi_mode: str = "common"         # one of XI_MODES
    grid_density: int = 11          # membership-grid points per edge

    def __post_init__(self):
        _xi_mode(self.xi_mode)
        # the grid needs both ends of every simplex edge
        if not _is_integer(self.grid_density, 2):
            raise FieldError("grid_density", "must be an integer >= 2, got "
                             + _shown(self.grid_density, repr))
        object.__setattr__(self, "grid_density", int(self.grid_density))
        if not (_is_finite(self.strictness) and self.strictness >= 0.0):
            raise FieldError("strictness", "must be a finite number >= 0, got "
                             + _shown(self.strictness, repr))
        object.__setattr__(self, "strictness", float(self.strictness))


@dataclass
class SynthesisResult:
    dv: DecisionVars
    margins: dict                    # instance key -> signed margin
    violation: float                 # max feasibility excess, clipped at 0
    evaluator: FixedGainEvaluator    # the conditions at these gains
    solves: int = 0
    # per subsystem, a proven lower bound on its group's smallest feasible
    # size; None where the group kept warm gains
    xi_lower: list | None = None

    @property
    def feasible(self) -> bool:
        return self.violation == 0.0


def _peak_gains(x_inv, gains_i) -> np.ndarray:
    """(k_m X^-1 k_m')_ss per rule m and channel s: the squared worst-case
    input of rule m over the set {x' (X/xi) x <= xi} is xi^2 times it."""
    return np.array([np.diag(k @ x_inv @ k.T) for k in gains_i])


def _factors(rows, y):
    """Cholesky factors of -G(y) per stack (g0, cols), None unless G(y) < 0."""
    try:
        return [np.linalg.cholesky(-(g0 + np.tensordot(y, cols, 1)))
                for g0, cols in rows]
    except np.linalg.LinAlgError:
        return None


def _barrier(rows, c, y, stop_below=-np.inf, stop_above=np.inf):
    """Minimize c'y subject to G(y) = g0 + sum_k y_k cols[k] < 0 for every
    stack (g0, cols) of equal-size blocks in `rows`, from a strictly
    feasible y: Newton steps with backtracking on t c'y - log det(-G(y)),
    one batched Cholesky per stack and point, t grown by _MU once centered.

    Returns (y, bound), y strictly feasible, once c'y < stop_below,
    bound > stop_above or c'y - bound <= _GAP max(1, |c'y|). bound is a
    lower bound on the optimum: where the Newton step dy has decrement
    below 1, Z = (F^-1 - F^-1 dF F^-1) / t per block (F = -G(y), dF its
    change along dy) is PSD and meets the dual's equality constraints, so
    its dual value c'y - (theta + g'dy) / t bounds the optimum (theta the
    total block size, g the log-det gradient; c'y - theta / t when
    centered)."""
    theta = sum(g0.shape[0] * g0.shape[1] for g0, _ in rows)
    t = theta / max(1.0, abs(float(c @ y)))
    chol, bound, steps = _factors(rows, y), -np.inf, 0

    def merit(point, factors):
        return t * float(c @ point) - 2.0 * sum(
            np.log(np.diagonal(f, axis1=-2, axis2=-1)).sum() for f in factors)

    while steps < _NEWTON_CAP:
        grad, hess = t * c, 0.0
        for (_, cols), low in zip(rows, chol):
            inv = np.linalg.inv(low)
            w = (inv @ cols @ inv.swapaxes(-1, -2)).reshape(len(c), -1)
            grad = grad + w.reshape(len(c), *cols.shape[1:]).trace(
                axis1=-2, axis2=-1).sum(axis=1)
            hess = hess + w @ w.T
        step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        dec2 = float(-grad @ step)
        value = float(c @ y)
        if dec2 < 1.0:
            bound = max(bound, value - (theta + (grad - t * c) @ step) / t)
        if value < stop_below or bound > stop_above or \
                value - bound <= _GAP * max(1.0, abs(value)):
            break
        if dec2 <= 1e-6:              # centered: raise the weight
            t, steps = t * _MU, 0
            continue
        steps += 1
        # below decrement 1/2 a full step stays feasible and converges
        # (self-concordance); rounding would decide an Armijo test there
        size, base = 1.0, merit(y, chol)
        while size > 1e-14:
            trial = y + size * step
            trial_chol = _factors(rows, trial)
            if trial_chol is not None and (dec2 < 0.25 or merit(
                    trial, trial_chol) <= base - 0.01 * size * dec2):
                y, chol = trial, trial_chol
                break
            size *= 0.5
        else:                         # no progress: y is as good as it gets
            break
    return y, bound


def _phase_one(rows, y0, stop_below, i, where):
    """min s over (y, s) subject to G(y) <= s I, from y0, stopping early
    once s < stop_below: returns y, or raises Infeasible for subsystem i
    with the dual lower bound on s (> 0 proves G(y) < 0 infeasible)."""
    s0 = max(float(np.linalg.eigvalsh(g0 + np.tensordot(y0, cols, 1))[..., -1]
                   .max()) for g0, cols in rows)
    lifted = [(g0, np.concatenate([cols, np.broadcast_to(
        -np.eye(g0.shape[-1]), (1,) + g0.shape)])) for g0, cols in rows]
    y, bound = _barrier(lifted, np.eye(len(y0) + 1)[-1],
                        np.append(y0, s0 + max(1.0, abs(s0))),
                        stop_below=stop_below, stop_above=0.0)
    if y[-1] >= 0.0:
        raise Infeasible(f"subsystem {i} has no feasible gains at {where} "
                         f"(phase-I bound {bound:.3e})", float(bound), i)
    return y[:-1]


class _Model:
    """Subsystem i's full-form vertex test matrices as an affine function of
    its gains and set size: per family (invariance, decrease), vertex (l, m)
    is g0[l] + sum_k K_m[k] cols[l, k] + xi_i slope (vec row-major as
    np.ravel), judged with `shifts` added to its lambda_max (decrease by
    cfg.strictness); and its input limits. The warm parts read it at
    per-rule gains; the cold solve (`rows`) at one gain K for every rule.

    Every full-form entry is either constant (plus a xi term) or linear in
    (theta, k), in disjoint places, so one stacked vertex assembly per
    family at xi = 0, over every model rule l and the gains 0, E_1 ... E_q
    (unit gains, q = n_u n_x), gives every term: the gain-0 row of rule l
    (theta = A_l) is g0[l], and each unit row (theta = A_l + B_l E_k) less
    it is the K[k] column, the constant entries cancelling bit for bit. The
    xi column is lmis.xi_slope. Keys are built once: vertex (l, m) l-major,
    invariance then decrease."""

    def __init__(self, system, params, i, cfg):
        sub = system.subsystems[i]
        n, n_l = system.n_subsystems, sub.n_rules
        self.i, self.u_max, self.params = i, sub.u_max, params
        self.n_m, self.shape = sub.n_controller_rules, (sub.n_u, sub.n_x)
        self.shifts = (0.0, cfg.strictness)
        q = self.q = sub.n_u * sub.n_x
        units = tuple(map(_frozen, [np.zeros(self.shape), *np.eye(q).reshape(q, *self.shape)]))
        dv = DecisionVars(gains=_Gains((units,) * n), xi=(0.0,) * n)
        ls, ms = [l for l in range(n_l) for _ in units], [*range(1 + q)] * n_l
        pairs = [(l, m) for l in range(n_l) for m in range(self.n_m)]
        self.g0s, self.cols, self.slopes, keys = [], [], [], []
        for assemble in (assemble_invariance, assemble_decrease):
            inst = assemble(system, params, dv, i, ls, ms)
            tests = inst.test_matrix()
            tests = tests.reshape(n_l, 1 + q, *tests.shape[1:])
            self.g0s.append(tests[:, 0])
            self.cols.append(tests[:, 1:] - tests[:, :1])
            self.slopes.append(xi_slope(params, inst))
            keys.append(vertex_keys(inst.origin, i, pairs))
        self.keys = [key for pair in zip(*keys) for key in pair]

    @functools.cached_property
    def rows(self) -> list:
        """The barrier's (g0, cols) per family over y = (vec K, xi_i), one
        gain for every rule (the symmetry lemma): model rule l's block is
        g0[l] + sum_k y_k cols[k, l] + shift I."""
        return [(g0 + shift * np.eye(len(slope)),
                 np.concatenate([cols.swapaxes(0, 1),
                                 np.broadcast_to(slope, (1,) + g0.shape)]))
                for g0, cols, slope, shift in zip(self.g0s, self.cols,
                                                  self.slopes, self.shifts)]

    def min_xi(self):
        """The EVP min xi_i over one gain and the size, input-peak rows left
        out: (gains, xi, bound), xi strictly feasible at those gains and
        bound a lower bound on the optimum. Raises Infeasible."""
        y = _phase_one(self.rows, np.eye(self.q + 1)[-1], 0.0, self.i,
                       "any set size")
        y, bound = _barrier(self.rows, np.eye(len(y))[-1], y)
        gain = _frozen(y[:-1].reshape(self.shape))
        return (gain,) * self.n_m, float(y[-1]), float(bound)

    def _input_rows(self, xi):
        """[[u_s^2 / xi^2, k_s], [k_s', X]] >= 0 per channel s, as rows
        G(vec K) <= 0."""
        n_u, n_x = self.shape
        k = np.arange(self.q)
        g0 = np.zeros((n_u, n_x + 1, n_x + 1))
        g0[:, 0, 0] = -self.u_max ** 2 / xi ** 2
        g0[:, 1:, 1:] = -self.params.X[self.i]
        cols = np.zeros((len(k),) + g0.shape)
        cols[k, k // n_x, 0, 1 + k % n_x] = -1.0    # k_s is row k // n_x
        cols[k, k // n_x, 1 + k % n_x, 0] = -1.0
        return g0, cols

    def at_xi(self, xi):
        """One gain for every rule with every row feasible at set size xi,
        the input-peak rows included: the phase-I optimum, the gain of
        largest margin. Raises Infeasible."""
        rows = [(g0 + xi * cols[-1], cols[:-1]) for g0, cols in self.rows]
        if self.u_max is not None:
            rows.append(self._input_rows(xi))
        y = _phase_one(rows, np.zeros(self.q), -np.inf, self.i,
                       f"set size {xi:.6g}")
        return (_frozen(y.reshape(self.shape)),) * self.n_m


def solve_fixed_xi(system: LargeScaleSystem, params: FixedParams, xi,
                   cfg: SynthesisConfig | None = None) -> DecisionVars:
    """Gains satisfying every subsystem's conditions, input-peak rows
    included, at the given set sizes (scalar xi is broadcast): per
    subsystem the feasibility SDP min s subject to G(K) <= s I at fixed xi.
    Raises Infeasible, whose best_excess > 0 proves that no gains exist,
    and ValueError unless there is one finite size > 0 per subsystem."""
    cfg = cfg or SynthesisConfig()
    n = system.n_subsystems
    xi_list = np.ravel(xi).tolist() * n if np.ndim(xi) == 0 else list(xi)
    if len(xi_list) != n or not all(_is_finite(v) and v > 0 for v in xi_list):
        raise ValueError(f"xi must be {n} finite set sizes > 0, "
                         f"got {_shown(xi, repr)}")
    gains = [_Model(system, params, i, cfg).at_xi(float(v))
             for i, v in enumerate(xi_list)]
    return DecisionVars(gains=gains, xi=map(float, xi_list))


def _floors(system: LargeScaleSystem, params: FixedParams, x_all) -> list:
    """Per subsystem, the floor _settle sizes it on: its state's containment
    size sqrt(x_i' X_i x_i), at least its disturbance budget N_i eta_i^2."""
    return [max(v, n_i * sub.eta ** 2) for v, n_i, sub in zip(
        containment_sizes(params, x_all), params.N_const, system.subsystems)]


def _settle(parts, floor):
    """A group's set size at its members' parts, and the members short of
    it: size = max(every xi_lo, floor) (1 + XI_HAIR), kept a hair above the
    exact boundary, and short the subsystems whose xi_hi < size. A part
    with no interval reads as (xi_ref, -inf), so it is always short. The
    one size rule of warm steps, cold solves and supplied gains (no parts)."""
    ends = [part.interval or (part.xi_ref, -np.inf) for part in parts]
    size = max([floor] + [lo for lo, _ in ends]) * (1.0 + XI_HAIR)
    return size, [part.i for part, (_, hi) in zip(parts, ends) if hi < size]


def _solve_cold(models, groups, floors, common):
    """The groups that keep no warm gains, solved on their members' models
    {i: _Model}: {i: (part at the final gains and size, proven lower bound
    on the group's size)}, and the number of SDP solves. A member re-solved
    at its group's size and infeasible there is infeasible at every larger
    size too: its feasible sizes over all gains form an interval that holds
    its EVP optimum."""
    gains, xis, bounds, out = {}, {}, {}, {}
    try:
        for i, model in models.items():
            gains[i], xis[i], bounds[i] = model.min_xi()
        solves = len(models)
        for group in groups:
            floor = max(floors[i] for i in group)
            size, short = _settle([_Part(models[i], gains[i], xis[i])
                                   for i in group], floor)
            for i in short:
                gains[i] = models[i].at_xi(size)
                solves += 1
            lower = max(max(bounds[i] for i in group), floor)
            for i in group:
                out[i] = (_Part(models[i], gains[i], size), lower)
    except Infeasible as exc:
        where = None if common else exc.subsystem
        head = "no common set size feasible for every subsystem" if common \
            else f"subsystem {where}: no feasible set size"
        raise Infeasible(f"{head}: {exc}", exc.best_excess, where) from exc
    return out, solves


def minimize_xi(system: LargeScaleSystem, params: FixedParams, x_all,
                cfg: SynthesisConfig | None = None,
                mode: str | None = None,
                evaluator: FixedGainEvaluator | None = None
                ) -> SynthesisResult:
    """Set-size minimization subject to feasible gains, containment of the
    current state and each subsystem's disturbance budget (_floors).

    mode "common" (default) searches one size shared by all subsystems;
    "per_subsystem" searches each size on its own (each subsystem's
    conditions depend only on its own gains and size, so the searches
    decouple). Both run the same search over groups of subsystems: one
    group of all of them, or one group per subsystem. `evaluator`, the one
    warm input, is a previous result's `evaluator` or a certificate dv's
    FixedGainEvaluator(system, params, dv, cfg). A group whose warm gains
    still reach the size its floors need keeps them at the smallest size
    they certify, so a previously feasible solve can only improve —
    feasibility is preserved across steps; other groups are solved cold.
    The result carries the evaluator of its own gains: the one passed in
    when every group kept them, else one made of its parts for those
    groups and new ones for the subsystems solved cold."""
    cfg = cfg or SynthesisConfig()
    mode = _xi_mode(mode or cfg.xi_mode)
    n = system.n_subsystems
    common = mode == "common"
    groups = [range(n)] if common else [(i,) for i in range(n)]
    floors = _floors(system, params, x_all)
    xis, parts, xi_lower, cold = [None] * n, [None] * n, [None] * n, []
    for group in groups:
        if evaluator is not None:
            xi, short = _settle([evaluator.parts[i] for i in group],
                                max(floors[i] for i in group))
        if evaluator is None or short:
            cold.append(group)
            continue
        for i in group:
            xis[i], parts[i] = xi, evaluator.parts[i]
    solves = 0
    if cold:
        models = {i: _Model(system, params, i, cfg) if evaluator is None
                  else evaluator.parts[i].model
                  for group in cold for i in group}
        new, solves = _solve_cold(models, cold, floors, common)
        for i, (part, lower) in new.items():
            parts[i], xis[i], xi_lower[i] = part, part.xi_ref, lower
        evaluator = FixedGainEvaluator._of_parts(parts)
    dv = DecisionVars(gains=evaluator.gains, xi=xis)
    margins = evaluator.margins(xis, x_all)
    worst = max(margins.values())
    return SynthesisResult(dv=dv, margins=margins,
                           violation=max(0.0, worst), evaluator=evaluator,
                           solves=solves, xi_lower=xi_lower)


def certificate_margins(system: LargeScaleSystem, params: FixedParams,
                        dv: DecisionVars, x_all=None,
                        cfg: SynthesisConfig | None = None) -> dict:
    """Signed feasibility excesses of the full (slack-row) conditions,
    keyed by instance; every value <= 0 means the certificate holds. These
    are the margins of the FixedGainEvaluator of dv's gains at dv's own set
    sizes, which locates no interval."""
    return FixedGainEvaluator(system, params, dv,
                              cfg or SynthesisConfig()).margins(dv.xi, x_all)


class _Part:
    """Subsystem i's conditions at fixed gains K_i as functions of xi_i: its
    _Model read at (vec K_i, xi_ref), the vertex test matrices at xi_ref
    (T_ref, one contraction of the K-columns per family) whose xi-slope is
    the model's xi column, its input peaks and, on first use, its
    interval."""

    def __init__(self, model: _Model, gains, xi_ref: float):
        self.model, self.gains, self.xi_ref = model, gains, xi_ref
        self.i = model.i
        flat = np.reshape(gains, (len(gains), -1))      # (n_m, q)
        self.t_refs = []
        for g0, cols, slope in zip(model.g0s, model.cols, model.slopes):
            n_l, q, size, _ = cols.shape
            at_k = (flat @ cols.reshape(n_l, q, -1)).reshape(n_l, -1, size,
                                                              size)
            self.t_refs.append(((g0 + xi_ref * slope)[:, None] + at_k)
                               .reshape(-1, size, size))
        self.peaks = None if model.u_max is None else \
            _peak_gains(model.params.x_inv[self.i], gains)
        self._cache = None      # (xi_i, margins)

    @functools.cached_property
    def interval(self) -> tuple | None:
        """Exact set sizes (xi_lo, xi_hi) at which every condition but
        containment holds, None unless xi_ref is strictly feasible: each
        family holds for xi - xi_ref in [1/min mu, 1/max mu], mu the
        eigenvalues of L^-1 slope L^-T, -(t_ref + shift I) = L L' per vertex
        (an end is infinite when no mu has its sign)."""
        model, mu_min, mu_max = self.model, np.inf, -np.inf
        for t_ref, slope, shift in zip(self.t_refs, model.slopes,
                                       model.shifts):
            try:
                chol = np.linalg.cholesky(-(t_ref + shift * np.eye(len(slope))))
            except np.linalg.LinAlgError:
                return None
            half = np.linalg.solve(chol, np.broadcast_to(slope, t_ref.shape))
            w = np.linalg.solve(chol, np.swapaxes(half, -1, -2))
            mu = np.linalg.eigvalsh(0.5 * (w + np.swapaxes(w, -1, -2)))
            mu_min = min(mu_min, float(mu.min()))
            mu_max = max(mu_max, float(mu.max()))
        lo = self.xi_ref + 1.0 / mu_min if mu_min < 0.0 else -np.inf
        hi = self.xi_ref + 1.0 / mu_max if mu_max > 0.0 else np.inf
        if self.peaks is not None:
            with np.errstate(divide="ignore"):
                hi = min(hi, float(np.min(model.u_max / np.sqrt(self.peaks))))
        return lo, hi

    def margins(self, xi_i: float) -> dict:
        """Signed excesses of every condition but containment at xi_i: one
        batched eigensolve per family, none at the last size asked for."""
        if self._cache is None or self._cache[0] != xi_i:
            model, dxi, tops = self.model, xi_i - self.xi_ref, []
            for t_ref, slope, shift in zip(self.t_refs, model.slopes,
                                           model.shifts):
                t = t_ref if dxi == 0.0 else t_ref + dxi * slope
                tops.append((np.linalg.eigvalsh(t)[:, -1] + shift).tolist())
            part = dict(zip(model.keys,
                            (v for pair in zip(*tops) for v in pair)))
            if self.peaks is not None:      # +inf when it cannot be computed
                ell = xi_i ** 2 * self.peaks - model.u_max ** 2
                part[f"input_peak[i={self.i}]"] = float(np.max(ell)) \
                    if np.all(np.isfinite(ell)) else np.inf
            self._cache = (xi_i, part)
        return self._cache[1]


class FixedGainEvaluator:
    """A certificate's conditions at fixed gains, as functions of the set
    sizes: the one model of every certificate margin, one part per
    subsystem (`parts`), as subsystem i's rows read only K_i and xi_i.

    Each part is its subsystem's _Model read at fixed gains, affine in xi_i
    (T(xi) = T_ref + (xi - xi_ref) T1) but for the input-peak rows
    xi^2 (k X^-1 k')_ss - u_s^2. So `margins` takes one batched eigensolve
    per subsystem and family (none at an unchanged size), and each
    subsystem's feasible sizes are an exact interval that does not depend
    on the state (the part's `interval`, located on first use; margins at
    xi_ref need none, and only containment reads the state)."""

    def __init__(self, system: LargeScaleSystem, params: FixedParams,
                 dv: DecisionVars, cfg: SynthesisConfig):
        self.parts = tuple(_Part(_Model(system, params, i, cfg), dv.gains[i],
                                 dv.xi[i]) for i in range(system.n_subsystems))
        self.gains = dv.gains

    @classmethod
    def _of_parts(cls, parts):
        """The evaluator made of these parts, one per subsystem in order;
        their gains are frozen (a certificate's or a solve's), so a
        certificate over the evaluator's gains keeps them uncopied."""
        evaluator = cls.__new__(cls)
        evaluator.parts, evaluator.gains = tuple(parts), _Gains(p.gains for p in parts)
        return evaluator

    @functools.cached_property
    def _containment_keys(self) -> tuple:
        """Per subsystem: the key of its containment row."""
        return tuple(_format_key("containment", i, None)
                     for i in range(len(self.parts)))

    def margins(self, xi, x_all=None) -> dict:
        """Signed excesses of every condition at set sizes xi, keyed by
        instance (containment only when the state x_all is given); at
        xi_ref these are certificate_margins. The containment blocks are
        one stacked assembly and one eigensolve per group of equal-shape
        X_i (FixedParams.x_groups)."""
        out, keys, lows = {}, self._containment_keys, None
        if x_all is not None:
            params = self.parts[0].model.params
            lows = params.ungroup(
                np.linalg.eigvalsh(assemble_containment(
                    params, members, x, [xi[i] for i in members]).matrix
                )[:, 0].tolist()
                for members, x in zip(params.x_groups,
                                      params.group_stacks(x_all)))
        for part, xi_i in zip(self.parts, xi):
            out.update(part.margins(xi_i))
            if lows is not None:
                out[keys[part.i]] = -lows[part.i]
        return out


def _simplex_grid(n_rules: int, density: int):
    """Barycentric grid over the weight simplex, density points per edge."""
    ticks = density - 1
    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + [remaining]
            return
        for t in range(remaining + 1):
            yield from rec(prefix + [t], remaining - t, slots - 1)
    for comp in rec([], ticks, n_rules):
        yield np.array(comp, dtype=float) / ticks


def verify_certificate(system: LargeScaleSystem, params: FixedParams,
                       dv: DecisionVars, x_all=None,
                       cfg: SynthesisConfig | None = None) -> dict:
    """Re-check a certificate: vertex margins on the full forms plus a
    membership-grid sweep of the blended forms.

    Vertex-to-blend lemma: the vertex margins bound every blend. At weights
    (w, h) in the simplex product, the blended argument of a condition is
    [E theta k] = sum_lm w_l h_m [E_l theta_lm k_m] exactly, because
    sum w = sum h = 1 (theta_lm = A_l + B_l k_m). Fold the negative
    definite slack rows into the rest by their Schur complement
    (linalg.schur_reduce): the fold's only parts not affine in that
    argument are [E theta]' (Lam (x) X) [E theta] with Lam = [[1, 1],
    [1, n]] >= 0 (X > 0, n >= 1) and, for decrease, k' M k with M >= 0;
    both are matrix-convex, and so is their compression by the fixed
    strict basis (the identity on the slack rows, so folding and
    compressing commute). By Jensen's inequality the blended folded test
    matrix is <= the same convex combination of the vertex ones, so its
    lambda_max is at most the vertex maximum; and each matrix is negative
    (semi)definite exactly when its fold is (Schur complement), so the
    verdicts carry over to the full forms point by point.

    The grid sweep re-checks the blends numerically: per subsystem and
    family, one stacked assembly over every (w, h) grid pair. Only its
    corner rows (w and h both one-hot: the vertices) are eigensolved; t is
    the largest corner lambda_max + s over every subsystem and family, s
    the family's shift (the strictness for decrease, else 0). The other
    rows T_p (n x n) of each stack are cleared together by one batched
    Cholesky factorization of (t - s - delta) I - T_p, with

        delta = 4 (n+1)^2 eps (|t - s| + max_p sum_jk |T_p,jk|).

    A factorization of A that completes is the exact one of A + E with
    ||E||_2 <= gamma_{n+1} n ||A + E||_2, about (n+1)^2 eps ||A||_2 / 2
    (Higham 2002, Thm 10.5, with || |R'| |R| ||_2 <= n ||R' R||_2), so
    lambda_max(T_p) <= t - s - delta + ||E||_2; eigvalsh is backward
    stable with an error of the same order, taken as (n+1)^2 eps
    ||T_p||_2 / 2. Both norms are below |t - s| + delta + sum_jk |T_p,jk|,
    so delta holds both errors with room to spare for rounding in forming
    A: every cleared row's computed lambda_max + s is below t and cannot
    raise the maximum. When the factorization fails (a blend within delta
    of the corners, or one above them), the stack is split in halves and
    each half screened again at the same t, with its own delta (a bound on
    its rows' norms). While exactly one half fails it is split again; when
    both fail, their rows are eigensolved together in one call, and a
    failing single row is eigensolved alone. t rises to what they show,
    and a t that has risen still bounds the rows cleared before. So
    blended_worst is the maximum of the same LAPACK eigenvalues as a full
    sweep's: a sub-stack eigensolve gives each matrix's values bit for
    bit. A stack whose rows all tie costs three factorizations and one
    stacked eigensolve; one tied row among N costs about 2 log2 N
    factorizations and one single-row eigensolve.
    Returns {"margins", "blended_worst", "worst", "feasible"}."""
    cfg = cfg or SynthesisConfig()
    dv.validate()
    margins = certificate_margins(system, params, dv, x_all, cfg)
    blended_worst = -np.inf

    @functools.cache        # each distinct expansion is built once per call
    def grid_pairs(n_w, n_h):
        """Every (w, h) grid pair, w-major, and the corner-row mask."""
        w_grid, h_grid = (np.array(list(_simplex_grid(k, cfg.grid_density)))
                          for k in (n_w, n_h))
        corner = np.logical_and.outer(w_grid.max(axis=1) == 1.0,
                                      h_grid.max(axis=1) == 1.0).ravel()
        return (np.repeat(w_grid, len(h_grid), axis=0),
                np.tile(h_grid, (len(w_grid), 1)), corner)

    others = []         # (non-corner test matrices, shift) per stack
    for i, sub in enumerate(system.subsystems):
        w, h, corner = grid_pairs(sub.n_rules, sub.n_controller_rules)
        for assemble, shift in ((assemble_invariance_blended, 0.0),
                                (assemble_decrease_blended, cfg.strictness)):
            tests = assemble(system, params, dv, i, w, h).test_matrix()
            top = np.linalg.eigvalsh(tests[corner])[:, -1] + shift
            blended_worst = max(blended_worst, float(np.max(top)))
            others.append((tests[~corner], shift))

    def cleared(tests, shift):
        """Whether one batched Cholesky proves every row below t."""
        n = tests.shape[-1]
        level = blended_worst - shift
        delta = 4.0 * (n + 1) ** 2 * np.finfo(float).eps * (
            abs(level) + float(np.max(np.sum(np.abs(tests), axis=(1, 2)))))
        try:
            np.linalg.cholesky((level - delta) * np.eye(n) - tests)
        except np.linalg.LinAlgError:
            return False
        return True

    def uncleared(tests, shift):
        """The rows to eigensolve of a stack that failed its screen: halve
        it while exactly one half fails; two failing halves go together."""
        while len(tests) > 1:
            half = len(tests) // 2
            failed = [part for part in (tests[:half], tests[half:])
                      if not cleared(part, shift)]
            if len(failed) != 1:
                return tests if failed else tests[:0]
            tests = failed[0]
        return tests

    for tests, shift in others:
        if len(tests) and not cleared(tests, shift):
            tests = uncleared(tests, shift)
            if len(tests):
                top = np.linalg.eigvalsh(tests)[:, -1] + shift
                blended_worst = max(blended_worst, float(np.max(top)))
    worst = max(max(margins.values()), blended_worst)
    return {"margins": margins, "blended_worst": blended_worst,
            "worst": worst, "feasible": worst <= 0.0}
