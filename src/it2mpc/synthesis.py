"""Gain synthesis and set-size minimization over the assembled conditions.

Every condition of subsystem i involves only that subsystem's gains and set
size (neighbour states enter through fixed shape matrices), so the search
decomposes per subsystem. At fixed gains each assembled matrix is affine in
xi, and in the full (slack-row) forms it is affine in the gains as well;
the feasible xi set at a given state is therefore an interval, which makes
downward bisection with re-solved gains sound.

Every certificate margin comes from one model, FixedGainEvaluator: the
conditions at fixed gains as functions of the set sizes. certificate_margins
is that evaluator read at the certificate's own sizes.

Set-size minimization is one search over a group of subsystems that share
one xi: the "common" mode passes a single group of all subsystems, the
"per_subsystem" mode one group per subsystem. With a warm certificate the
search first keeps its gains: at fixed gains the feasible set sizes are an
interval [xi_lo, xi_hi] that does not depend on the state (only containment
does), with exact ends from generalized eigenvalues, so the set size is
max(xi_lo, containment floor) whenever that is <= xi_hi. Otherwise the
search bisects, re-solving the gains at each probe. Every result carries
the evaluator of its gains, for the next warm step.

The input constraint is assumed to take the form of Kothare, Balakrishnan
& Morari (1996): the paper (arXiv 2108.13790; only its abstract is at hand)
is read as bounding each input over the set {x' Q^-1 x <= 1} by
[[U, k Q], [Q k', Q]] >= 0 with U_ss <= u_s^2. Here Q = xi^2 X^-1 with X
fixed, so that LMI holds for some U exactly when the input-peak rows
xi^2 (k X^-1 k')_ss <= u_s^2 do; they are the only input rows checked.

The gain search itself is a derivative-free coordinate descent with multiple
starts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .lmis import (DecisionVars, FixedParams, assemble_containment,
                   assemble_decrease, assemble_decrease_blended,
                   assemble_invariance, assemble_invariance_blended,
                   containment_size, shape_inverse, xi_slope)
from .plant import LargeScaleSystem


XI_MODES = ("common", "per_subsystem")
XI_HAIR = 1e-6      # relative step kept inside an exact set-size boundary


class Infeasible(Exception):
    """No gain assignment satisfied the conditions at the requested set size."""

    def __init__(self, message: str, best_excess: float = np.inf,
                 subsystem: int | None = None):
        super().__init__(message)
        self.best_excess = best_excess
        self.subsystem = subsystem


@dataclass
class SynthesisConfig:
    strictness: float = 1e-9        # required margin for strict instances
    n_starts: int = 4
    max_iters: int = 120            # coordinate-descent passes per start
    init_step: float = 0.4
    min_step: float = 1e-7
    step_grow: float = 1.6
    step_shrink: float = 0.5
    start_scale: float = 0.3        # magnitude of random starting gains
    seed: int = 0
    xi_rel_tol: float = 1e-3        # bisection stop width, relative
    xi_floor: float = 1e-8
    xi_growth_iters: int = 24
    xi_mode: str = "common"         # one of XI_MODES
    rescue_evals: int = 600         # Nelder-Mead budget when descent stalls
    grid_density: int = 11          # membership-grid points per edge

    def __post_init__(self):
        if self.xi_mode not in XI_MODES:
            raise ValueError(f"unknown xi mode: {self.xi_mode!r}; "
                             f"expected one of {XI_MODES}")
        # the grid needs both ends of every simplex edge
        if isinstance(self.grid_density, bool) or \
                not isinstance(self.grid_density, int) or \
                self.grid_density < 2:
            raise ValueError(f"grid_density must be an integer >= 2, got "
                             f"{self.grid_density!r}")


@dataclass
class SynthesisResult:
    dv: DecisionVars
    margins: dict                    # instance key -> signed margin
    violation: float                 # max feasibility excess, clipped at 0
    evaluator: FixedGainEvaluator    # the conditions at these gains
    solves: int = 0

    @property
    def feasible(self) -> bool:
        return self.violation == 0.0


def _peak_gains(x_mat, gains_i) -> np.ndarray:
    """(k_m X^-1 k_m')_ss per rule m and channel s: the squared worst-case
    input of rule m over the set {x' (X/xi) x <= xi} is xi^2 times it."""
    x_inv = np.linalg.solve(x_mat, np.eye(x_mat.shape[0]))
    return np.array([np.diag(k @ x_inv @ k.T) for k in gains_i])


def ellipsoid_input_excess(sub, x_mat, xi_i, gains_i):
    """Per-(rule, channel) excesses of the worst-case input magnitude over
    the set {x' (X/xi) x <= xi}: xi^2 (k X^-1 k')_ss - u_max_s^2."""
    if sub.u_max is None:
        return np.full((len(gains_i), sub.n_u), -np.inf)
    return xi_i ** 2 * _peak_gains(x_mat, gains_i) - sub.u_max ** 2


def _sub_dv(n: int, i: int, gains_i, xi: float) -> DecisionVars:
    """Decision variables carrying only subsystem i's gains, with set size
    xi everywhere (subsystem i's conditions read nothing else)."""
    return DecisionVars(gains=[gains_i if j == i else None for j in range(n)],
                        xi=[xi] * n)


def _vertex_grid(sub, rules):
    """Index lists (ls, ms) of every vertex (l, m) with m in `rules`,
    l-major."""
    return ([l for l in range(sub.n_rules) for _ in rules],
            [m for _ in range(sub.n_rules) for m in rules])


def _sub_excesses(system: LargeScaleSystem, params: FixedParams,
                  dv: DecisionVars, i: int, cfg: SynthesisConfig,
                  rules=None, reduced: bool = True) -> dict:
    """Feasibility excesses (<= 0 everywhere means feasible) for one
    subsystem's conditions at its current gains and set size. `rules`
    limits the vertex and input-peak entries to those controller rules
    (default: all), e.g. to refresh only what one rule's gain moves."""
    sub = system.subsystems[i]
    if rules is None:
        rules = range(sub.n_controller_rules)
    # every vertex (l, m) with m in rules, l-major: one stacked assembly
    # and one eigensolve per family
    ls, ms = _vertex_grid(sub, rules)
    inv, dec = [(np.linalg.eigvalsh(assemble(system, params, dv, i, ls, ms,
                                             reduced).test_matrix())[:, -1]
                 + shift).tolist()
                for assemble, shift in ((assemble_invariance, 0.0),
                                        (assemble_decrease, cfg.strictness))]
    out = {}
    for l, m, v_inv, v_dec in zip(ls, ms, inv, dec):
        out[("inv", l, m)] = v_inv
        out[("dec", l, m)] = v_dec
    ell = ellipsoid_input_excess(sub, params.X[i], dv.xi[i], dv.gains[i])
    for m in rules:
        for s in range(sub.n_u):
            if np.isfinite(ell[m, s]):
                out[("ell", m, s)] = float(ell[m, s])
    return out


def _riccati_start(sub):
    """Per-rule discrete LQR gains as a deterministic stabilizing start;
    None when the Riccati solve fails (e.g. uncontrollable rule)."""
    gains = []
    for m in range(sub.n_controller_rules):
        rule = sub.rules[min(m, sub.n_rules - 1)]
        try:
            s = scipy.linalg.solve_discrete_are(
                rule.A, rule.B, np.eye(sub.n_x), np.eye(sub.n_u))
            gain = -np.linalg.solve(np.eye(sub.n_u) + rule.B.T @ s @ rule.B,
                                    rule.B.T @ s @ rule.A)
        except (np.linalg.LinAlgError, ValueError):
            return None
        gains.append(gain)
    return gains


class _SearchRng:
    """The gain search's random stream, np.random.default_rng(seed) made on
    the first draw: a search that never draws (a warm step that keeps its
    gains) never pays for the generator."""

    __slots__ = ("_seed", "_gen")

    def __init__(self, seed):
        self._seed, self._gen = seed, None

    def standard_normal(self, size):
        if self._gen is None:
            self._gen = np.random.default_rng(self._seed)
        return self._gen.standard_normal(size)


def _solve_sub(system, params, i, xi_i, cfg, rng, warm_gains_i=None):
    """Coordinate-descent gain search for one subsystem at fixed set size.

    Returns gains_i. Raises Infeasible with the best excess seen.
    """
    sub = system.subsystems[i]
    n_m, n_u, n_x = sub.n_controller_rules, sub.n_u, sub.n_x
    starts = []
    if warm_gains_i is not None:
        starts.append([k.copy() for k in warm_gains_i])
    starts.append([np.zeros((n_u, n_x)) for _ in range(n_m)])
    riccati = _riccati_start(sub)
    if riccati is not None:
        starts.append(riccati)
    while len(starts) < cfg.n_starts + (warm_gains_i is not None) + 1:
        starts.append([cfg.start_scale * rng.standard_normal((n_u, n_x))
                       for _ in range(n_m)])

    def descend(gains_i):
        """Coordinate descent from one start; returns (worst, gains)."""
        dv = _sub_dv(system.n_subsystems, i, gains_i, xi_i)
        cache = _sub_excesses(system, params, dv, i, cfg)
        worst = max(cache.values())
        if worst <= 0.0:
            return worst, gains_i

        coords = [(m, r, c) for m in range(n_m)
                  for r in range(n_u) for c in range(n_x)]
        steps = {coord: cfg.init_step for coord in coords}
        for _ in range(cfg.max_iters):
            improved = False
            for coord in coords:
                m, r, c = coord
                moved = False
                for sign in (1.0, -1.0):
                    old = gains_i[m][r, c]
                    gains_i[m][r, c] = old + sign * steps[coord]
                    trial = dict(cache)
                    trial.update(_sub_excesses(system, params, dv, i, cfg,
                                               rules=(m,)))
                    trial_worst = max(trial.values())
                    if trial_worst < worst - 1e-15:
                        cache, worst, moved, improved = trial, trial_worst, True, True
                        steps[coord] *= cfg.step_grow
                        break
                    gains_i[m][r, c] = old
                if not moved:
                    steps[coord] *= cfg.step_shrink
                if worst <= 0.0:
                    return worst, gains_i
            if not improved or max(steps.values()) < cfg.min_step:
                break
        return worst, gains_i

    best_overall, best_gains = np.inf, None
    for gains_i in starts:
        worst, gains_i = descend(gains_i)
        if worst <= 0.0:
            return gains_i
        if worst < best_overall:
            best_overall, best_gains = worst, [k.copy() for k in gains_i]

    # Simplex rescue: coordinate descent stalls on the curved valleys of a
    # max-of-eigenvalues surface, so polish the best stall point with
    # Nelder-Mead and give the result one more descent pass.
    shape = (n_m, n_u, n_x)

    def unflatten(v):
        return [np.asarray(b, dtype=float) for b in v.reshape(shape)]

    def objective(v):
        gains_v = unflatten(v)
        dv = _sub_dv(system.n_subsystems, i, gains_v, xi_i)
        return max(_sub_excesses(system, params, dv, i, cfg).values())

    nm = scipy.optimize.minimize(
        objective, np.array(best_gains).ravel(), method="Nelder-Mead",
        options={"maxfev": cfg.rescue_evals, "xatol": 1e-10, "fatol": 1e-12})
    worst, gains_i = descend(unflatten(nm.x))
    if worst <= 0.0:
        return gains_i
    best_overall = min(best_overall, worst)

    raise Infeasible(
        f"subsystem {i}: no feasible gains at set size {xi_i:.6g} "
        f"(best excess {best_overall:.3e})", best_overall, i)


def solve_fixed_xi(system: LargeScaleSystem, params: FixedParams, xi,
                   cfg: SynthesisConfig | None = None,
                   warm: DecisionVars | None = None) -> DecisionVars:
    """Find gains satisfying every subsystem's conditions at the given set
    sizes (scalar xi is broadcast). Raises Infeasible."""
    cfg = cfg or SynthesisConfig()
    n = system.n_subsystems
    xi_list = [float(xi)] * n if np.isscalar(xi) else [float(v) for v in xi]
    rng = np.random.default_rng(cfg.seed)
    gains = [_solve_sub(system, params, i, xi_list[i], cfg, rng,
                        warm.gains[i] if warm is not None else None)
             for i in range(n)]
    return DecisionVars(gains=gains, xi=xi_list)


def _bisect(lo, hi, hi_val, probe, cfg):
    """Shrink [lo, hi] to the relative tolerance with hi kept feasible.

    probe(xi, hi_val) returns the value that makes xi feasible (hi_val is
    the one at the current upper end) or None when xi is infeasible.
    Returns (hi, hi_val)."""
    while hi - lo > cfg.xi_rel_tol * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        val = probe(mid, hi_val)
        if val is None:
            lo = mid
        else:
            hi, hi_val = mid, val
    return hi, hi_val


def _min_xi(system, params, x_all, group, cfg, rng, warm, evaluator, common):
    """Smallest set size shared by the subsystems in `group` at the current
    state.

    Each subsystem's feasible set sizes form an interval, so their
    intersection is one too and bisection applies; the containment floor
    sqrt(x' X x) is exact, so the search starts just above it. With a warm
    certificate its gains are kept whenever they fit: `evaluator` holds
    their exact feasible interval, and the set size is its lower end or the
    containment floor, whichever is larger (FixedGainEvaluator.clamp).
    While the state is inside the previous set that value cannot exceed the
    previous size, which keeps repeated re-synthesis cheap and feasible.
    Otherwise the gains are re-solved at each probe, warm-started from the
    last feasible ones. `common` only words the failure. Returns (xi, gains,
    solves), with gains aligned with `group`."""
    lo_bound = max(max(containment_size(params.X[i], x_all[i]), cfg.xi_floor)
                   for i in group)
    # keep a hair above the exact containment boundary
    lo_start = lo_bound * (1.0 + XI_HAIR)
    solves = 0

    if evaluator is not None:
        xi = evaluator.clamp(group, lo_start)
        if xi is not None:
            return xi, [evaluator.gains[i] for i in group], solves

    def solve(xi_val, starts):
        """Gains for every member at xi_val, or None if one fails."""
        nonlocal solves
        gains = []
        for idx, i in enumerate(group):
            solves += 1
            start = None if starts is None else starts[idx]
            try:
                gains.append(_solve_sub(system, params, i, xi_val, cfg, rng,
                                        start))
            except Infeasible:
                return None
        return gains

    starts = None if warm is None else [warm.gains[i] for i in group]
    val = solve(lo_start, starts)
    if val is not None:
        return lo_start, val, solves

    # growing probes from above the floor, after the warm size when that is
    # larger; the feasible sizes are bounded above (input-peak and decrease
    # rows), so growing from a failed warm size would only overshoot them
    probes = [max(2.0 * lo_bound, 1.0) * 4.0 ** t
              for t in range(cfg.xi_growth_iters)]
    warm_xi = None if warm is None else max(warm.xi[i] for i in group)
    if warm is not None and warm_xi > lo_start:
        probes.insert(0, warm_xi)
    for probe in probes:
        val = solve(probe, starts)
        if val is not None:
            break
    else:
        top = max(probes, default=lo_start)
        if common:
            raise Infeasible("no common set size feasible for every "
                             f"subsystem up to {top:.3g}")
        raise Infeasible(f"subsystem {group[0]}: no feasible set size found "
                         f"up to {top:.3g}", subsystem=group[0])

    # lo_start is known infeasible (or just above the exact floor)
    xi, gains = _bisect(lo_start, probe, val, solve, cfg)
    return xi, gains, solves


def minimize_xi(system: LargeScaleSystem, params: FixedParams, x_all,
                cfg: SynthesisConfig | None = None,
                warm: DecisionVars | None = None,
                mode: str | None = None,
                evaluator: FixedGainEvaluator | None = None
                ) -> SynthesisResult:
    """Set-size minimization subject to feasible gains and containment of the
    current state.

    mode "common" (default) searches one size shared by all subsystems;
    "per_subsystem" searches each size on its own (each subsystem's
    conditions depend only on its own gains and size, so the searches
    decouple). Both run the same search over groups of subsystems: one
    group of all of them, or one group per subsystem. With a warm
    certificate whose set still contains the state, its gains are kept at
    the smallest size they certify, so a previously feasible solve can only
    improve — feasibility is preserved across steps. `evaluator` is the
    FixedGainEvaluator of the warm gains (as returned in a previous
    result's `evaluator`); it is built from `warm` when not given. The
    result carries the evaluator of its own gains: the one passed in when
    every group kept them, else one built here."""
    cfg = cfg or SynthesisConfig()
    mode = mode or cfg.xi_mode
    if mode not in XI_MODES:
        raise ValueError(f"unknown xi mode: {mode!r}; "
                         f"expected one of {XI_MODES}")
    rng = _SearchRng(cfg.seed)
    n = system.n_subsystems
    if warm is not None and evaluator is None:
        evaluator = FixedGainEvaluator(system, params, DecisionVars(
            gains=[[k.copy() for k in g] for g in warm.gains],
            xi=list(warm.xi)), cfg)
    common = mode == "common"
    groups = [range(n)] if common else [(i,) for i in range(n)]
    xis, gains = [None] * n, [None] * n
    total_solves = 0
    for group in groups:
        xi, g_group, solves = _min_xi(system, params, x_all, group, cfg, rng,
                                      warm, evaluator, common)
        for i, g_i in zip(group, g_group):
            xis[i], gains[i] = xi, g_i
        total_solves += solves
    dv = DecisionVars(gains=gains, xi=xis)
    if total_solves:        # some group re-solved its gains
        evaluator = FixedGainEvaluator(system, params, dv, cfg)
    margins = evaluator.margins(xis, x_all)
    worst = max(margins.values())
    return SynthesisResult(dv=dv, margins=margins,
                           violation=max(0.0, worst), evaluator=evaluator,
                           solves=total_solves)


def certificate_margins(system: LargeScaleSystem, params: FixedParams,
                        dv: DecisionVars, x_all=None,
                        cfg: SynthesisConfig | None = None) -> dict:
    """Signed feasibility excesses of the full (slack-row) conditions,
    keyed by instance; every value <= 0 means the certificate holds. These
    are the margins of the FixedGainEvaluator of dv's gains at dv's own set
    sizes, which reads no xi-slope and locates no interval."""
    return FixedGainEvaluator(system, params, dv,
                              cfg or SynthesisConfig()).margins(dv.xi, x_all)


class _Pencil:
    """One condition family of one subsystem at fixed gains: the stacked
    vertex test matrices at the reference set size and, on first use,
    their xi-slope."""

    def __init__(self, params: FixedParams, inst, shift: float):
        self.keys = inst.keys
        self.t_ref = inst.test_matrix()     # (vertices, size, size)
        self.shift = shift      # added to lambda_max: the strictness, or 0
        self._params, self._inst = params, inst

    @functools.cached_property
    def slope(self) -> np.ndarray:
        """(size, size) d T / d xi of every vertex (lmis.xi_slope)."""
        return xi_slope(self._params, self._inst)

    def max_eigs(self, dxi: float) -> np.ndarray:
        t = self.t_ref if dxi == 0.0 else self.t_ref + dxi * self.slope
        return np.linalg.eigvalsh(t)[:, -1] + self.shift

    def spectrum(self) -> np.ndarray | None:
        """Eigenvalues mu of L^-1 slope L^-T, -(t_ref + shift I) = L L', per
        vertex: the condition holds exactly for xi - xi_ref in
        [1/min mu, 1/max mu] (a generalized eigenvalue problem; an end is
        infinite when no mu has its sign). None when the reference size is
        not strictly feasible."""
        size = self.slope.shape[0]
        try:
            chol = np.linalg.cholesky(-(self.t_ref + self.shift * np.eye(size)))
        except np.linalg.LinAlgError:
            return None
        half = np.linalg.solve(chol, np.broadcast_to(self.slope,
                                                     self.t_ref.shape))
        w = np.linalg.solve(chol, np.swapaxes(half, -1, -2))
        return np.linalg.eigvalsh(0.5 * (w + np.swapaxes(w, -1, -2)))


class FixedGainEvaluator:
    """A certificate's conditions at fixed gains, as functions of the set
    sizes: the one model of every certificate margin.

    Each full-form vertex test matrix of subsystem i is affine in xi_i,
    T(xi) = T_ref + (xi - xi_ref) T1, with a slope T1 that depends on the
    parameters only (lmis.xi_slope), and the input-peak rows are
    xi^2 (k X^-1 k')_ss - u_s^2. So `margins` at any set sizes takes one
    batched eigensolve per subsystem and family (none when the size is
    unchanged), and the feasible set sizes of each subsystem are an exact
    interval that does not depend on the state (`interval`; only
    containment reads the state). The slopes and intervals are computed on
    first use: margins at the reference sizes need neither.
    """

    def __init__(self, system: LargeScaleSystem, params: FixedParams,
                 dv: DecisionVars, cfg: SynthesisConfig):
        self.gains, self.xi_ref = dv.gains, list(dv.xi)
        self._x_mats = params.X
        self._x_invs = [None] * len(params.X)  # shape_inverse, on first use
        self._pencils, self._peaks = [], []
        self._bounds = {}       # subsystem -> (xi_lo, xi_hi) or None
        for i, sub in enumerate(system.subsystems):
            ls, ms = _vertex_grid(sub, range(sub.n_controller_rules))
            self._pencils.append([
                _Pencil(params, assemble(system, params, dv, i, ls, ms), shift)
                for assemble, shift in ((assemble_invariance, 0.0),
                                        (assemble_decrease, cfg.strictness))])
            peaks = None if sub.u_max is None else \
                _peak_gains(params.X[i], dv.gains[i])
            self._peaks.append((peaks, sub.u_max))
        self._cache = [None] * len(self._pencils)  # (xi_i, margins) per i

    def _interval(self, i: int):
        mus = [p.spectrum() for p in self._pencils[i]]
        if any(mu is None for mu in mus):
            return None
        mu_min = min(float(mu.min()) for mu in mus)
        mu_max = max(float(mu.max()) for mu in mus)
        lo = self.xi_ref[i] + 1.0 / mu_min if mu_min < 0.0 else -np.inf
        hi = self.xi_ref[i] + 1.0 / mu_max if mu_max > 0.0 else np.inf
        peaks, u_max = self._peaks[i]
        if peaks is not None:
            with np.errstate(divide="ignore"):
                hi = min(hi, float(np.min(u_max / np.sqrt(peaks))))
        return lo, hi

    def interval(self, group) -> tuple | None:
        """Exact set sizes [xi_lo, xi_hi] at which every condition of the
        subsystems in `group` but containment holds at these gains; None
        when a subsystem's reference size, from which its interval is
        located, is not strictly feasible."""
        for i in group:
            if i not in self._bounds:
                self._bounds[i] = self._interval(i)
        bounds = [self._bounds[i] for i in group]
        if any(b is None for b in bounds):
            return None
        return max(b[0] for b in bounds), min(b[1] for b in bounds)

    def clamp(self, group, lo_start: float) -> float | None:
        """The group's smallest set size at these gains above the haired
        containment floor `lo_start`: max(xi_lo (1 + XI_HAIR), lo_start),
        or None when that exceeds xi_hi."""
        bounds = self.interval(group)
        if bounds is None:
            return None
        xi = max(bounds[0] * (1.0 + XI_HAIR), lo_start)
        return xi if xi <= bounds[1] else None

    def margins(self, xi, x_all=None) -> dict:
        """Signed excesses of every condition at set sizes xi, keyed by
        instance (containment only when the state x_all is given); at
        xi_ref these are certificate_margins. The containment blocks of
        equal size share one eigensolve."""
        out = {}
        blocks = {}             # block size -> containment instances
        for i, pencils in enumerate(self._pencils):
            if self._cache[i] is None or self._cache[i][0] != xi[i]:
                inv, dec = pencils
                dxi = xi[i] - self.xi_ref[i]
                part = {}
                for key_inv, m_inv, key_dec, m_dec in zip(
                        inv.keys, inv.max_eigs(dxi),
                        dec.keys, dec.max_eigs(dxi)):
                    part[key_inv] = float(m_inv)
                    part[key_dec] = float(m_dec)
                peaks, u_max = self._peaks[i]
                if peaks is not None:
                    ell = xi[i] ** 2 * peaks - u_max ** 2
                    if np.all(np.isfinite(ell)):
                        part[f"input_peak[i={i}]"] = float(np.max(ell))
                self._cache[i] = (xi[i], part)
            out.update(self._cache[i][1])
            if x_all is not None:
                if self._x_invs[i] is None:
                    self._x_invs[i] = shape_inverse(self._x_mats[i])
                cont = assemble_containment(np.asarray(x_all[i], dtype=float),
                                            xi[i], self._x_mats[i], i,
                                            self._x_invs[i])
                out[cont.key] = None        # keeps the key order; set below
                blocks.setdefault(len(cont.matrix), []).append(cont)
        for conts in blocks.values():
            lows = np.linalg.eigvalsh(np.stack([c.matrix for c in conts]))
            for cont, low in zip(conts, lows[:, 0].tolist()):
                out[cont.key] = -low
        return out


def _simplex_grid(n_rules: int, density: int):
    """Barycentric grid over the weight simplex, density points per edge."""
    if n_rules == 1:
        yield np.ones(1)
        return
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
    (w, h) in the simplex product, the blended argument of either form is
    [E theta k] = sum_lm w_l h_m [E_l theta_lm k_m] exactly, because
    sum w = sum h = 1 (theta_lm = A_l + B_l k_m). In the reduced form the
    only parts not affine in that argument are [E theta]' (Lam (x) X)
    [E theta] with Lam = [[1, 1], [1, n]] >= 0 (X > 0, n >= 1) and, for
    decrease, k' M k with M >= 0; both are matrix-convex, and so is their
    compression by the fixed strict basis. By Jensen's inequality the
    blended test matrix is <= the same convex combination of the vertex
    test matrices, so its lambda_max is at most the vertex maximum. The
    full forms border the reduced ones with the negative definite slack
    rows, so their verdicts agree with the reduced ones point by point
    (Schur complement).

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
    of the corners, or one above them), that stack's other rows are
    eigensolved as in a full sweep and t rises to what they show. So
    blended_worst is the maximum of the same LAPACK eigenvalues as a full
    sweep's: a sub-stack eigensolve gives each matrix's values bit for bit.
    Returns {"margins", "blended_worst", "worst", "feasible"}."""
    cfg = cfg or SynthesisConfig()
    margins = certificate_margins(system, params, dv, x_all, cfg)
    blended_worst = -np.inf

    # each distinct grid and pair expansion is built once per call
    @functools.cache
    def grid(n_rules):
        return np.array(list(_simplex_grid(n_rules, cfg.grid_density)))

    @functools.cache
    def grid_pairs(n_w, n_h):
        """Every (w, h) grid pair, w-major, and the corner-row mask."""
        w_grid, h_grid = grid(n_w), grid(n_h)
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
    for tests, shift in others:
        if not len(tests):
            continue
        n = tests.shape[-1]
        level = blended_worst - shift
        delta = 4.0 * (n + 1) ** 2 * np.finfo(float).eps * (
            abs(level) + float(np.max(np.sum(np.abs(tests), axis=(1, 2)))))
        try:
            np.linalg.cholesky((level - delta) * np.eye(n) - tests)
        except np.linalg.LinAlgError:
            top = np.linalg.eigvalsh(tests)[:, -1] + shift
            blended_worst = max(blended_worst, float(np.max(top)))
    worst = max(max(margins.values()), blended_worst)
    return {"margins": margins, "blended_worst": blended_worst,
            "worst": worst, "feasible": worst <= 0.0}
