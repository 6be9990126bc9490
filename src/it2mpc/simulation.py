"""Closed-loop rollout with online set-size minimization, plus run-time
diagnostics: admissible disturbance generation, stage and horizon costs,
set-membership (Lyapunov) decrease checks, invariant-set Monte-Carlo, and
recursive-feasibility bookkeeping.

The loop supports three gain sources: re-synthesis at every step (the online
algorithm), a single synthesis at step 0 reused afterwards, and externally
supplied static gains (no synthesis at all — the mode used to exercise
reported controllers directly). Diagnostics are recorded identically in all
three, so a trace from any mode feeds the same checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import inv_sqrt, quad_form
from .lmis import (DecisionVars, FixedParams, containment_size,
                   rpi_decrease_scalar)
from .plant import LargeScaleSystem, step_closed_loop, step_closed_loop_detail
from .synthesis import (XI_HAIR, XI_MODES, FixedGainEvaluator, Infeasible,
                        SynthesisConfig, minimize_xi)

DISTURBANCE_KINDS = ("zero", "uniform_ball", "sinusoidal", "worst_case_boundary")
RESYNTH_MODES = ("every_step", "once")


class InitialInfeasible(Exception):
    """Synthesis failed at the first step; the loop never started."""


class RecursiveFeasibilityViolation(Exception):
    """Synthesis failed at some step after succeeding at step 0.

    A feasible certificate is supposed to stay feasible along the closed
    loop (the warm path can always fall back to the previous solution), so
    this firing signals a broken invariant, not a routine condition.
    """

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


def _ball_draw(rng: np.random.Generator, n: int, radius: float,
               boundary: bool = False):
    """The random numbers of one ball sample, in a fixed order: a normal
    direction v, then (strictly inside the ball) a uniform for the radius.
    Returns (v, r); r is 0, and nothing more is drawn, when |v| or the
    radius is 0 (|v| is 0 exactly when every entry is: no nonzero normal
    draw is small enough for its square to underflow)."""
    v = rng.standard_normal(n)
    if radius == 0.0 or not any(v.tolist()):
        return v, 0.0
    r = radius if boundary else radius * float(rng.random()) ** (1.0 / n)
    return v, r


def _ball_points(draws: list, n: int, radius: float) -> np.ndarray:
    """The points of P _ball_draw results (v, r) as rows (P, n): (r/|v|) v,
    projected so the norm bound holds exactly despite rounding, and 0 where
    r is 0. Uniform on the radius-ball (or its boundary)."""
    v = np.array([vp for vp, _ in draws]).reshape(len(draws), n)
    r = np.array([rp for _, rp in draws])
    live = r != 0.0
    scale = r / np.where(live, np.sqrt(quad_form(v)), 1.0)
    d = np.where(live[:, None], scale[:, None] * v, 0.0)
    overshoot = np.sqrt(quad_form(d))
    out = overshoot > radius
    shrink = radius / np.where(out, overshoot, 1.0)
    return np.where(out[:, None], d * shrink[:, None], d)


@dataclass(frozen=True)
class DisturbanceModel:
    """Admissible disturbance generator: every emitted d_i satisfies
    d_i' d_i <= radius_i^2 exactly (samples are projected onto the ball).

    radii overrides the per-subsystem radius; by default each subsystem's
    configured eta is used.
    """

    kind: str = "uniform_ball"
    seed: int = 42
    radii: tuple | None = None

    def __post_init__(self):
        if self.kind not in DISTURBANCE_KINDS:
            raise ValueError(f"unknown disturbance kind {self.kind!r}; "
                             f"expected one of {DISTURBANCE_KINDS}")

    def radius(self, system: LargeScaleSystem, i: int) -> float:
        if self.radii is not None:
            return float(self.radii[i])
        return float(system.subsystems[i].eta)

    def realize(self, system: LargeScaleSystem, n_steps: int) -> list:
        """Full disturbance sequence, deterministic given the seed:
        realize(...)[k][i] is subsystem i's disturbance at step k."""
        rng = np.random.default_rng(self.seed)
        n = system.n_subsystems
        radii = [self.radius(system, i) for i in range(n)]
        dims = [sub.n_d for sub in system.subsystems]
        if self.kind in ("uniform_ball", "worst_case_boundary"):
            boundary = self.kind == "worst_case_boundary"
            draws = [[] for _ in range(n)]
            for _ in range(n_steps):
                for i in range(n):
                    draws[i].append(_ball_draw(rng, dims[i], radii[i],
                                               boundary))
            balls = [_ball_points(draws[i], dims[i], radii[i])
                     for i in range(n)]
            return [[balls[i][k] for i in range(n)] for k in range(n_steps)]
        if self.kind == "zero":
            return [[np.zeros(dims[i]) for i in range(n)]
                    for _ in range(n_steps)]
        # sinusoidal: fixed frequency, random per-channel phases drawn once
        phases = [rng.uniform(0.0, 2.0 * np.pi, size=dims[i])
                  for i in range(n)]
        return [[(radii[i] / np.sqrt(dims[i])) * np.sin(0.4 * k + phases[i])
                 for i in range(n)] for k in range(n_steps)]


@dataclass
class SimulationTrace:
    """Step-indexed record of one closed-loop run.

    States and per-subsystem certificate values have one extra entry (the
    terminal state under the last active certificate); inputs, disturbances,
    memberships, stage costs, set sizes, and margins have one entry per
    executed step.
    """

    Ts: float
    x: list = field(default_factory=list)        # length K+1, x[k][i]
    u: list = field(default_factory=list)        # length K
    d: list = field(default_factory=list)        # length K
    w: list = field(default_factory=list)        # length K, model weights
    h: list = field(default_factory=list)        # length K, controller weights
    V: list = field(default_factory=list)        # length K+1, per-subsystem
    psi: list = field(default_factory=list)      # length K, stage costs
    xi: list = field(default_factory=list)       # length K, per-subsystem
    resynthesized: list = field(default_factory=list)   # length K, bool
    worst_margin: list = field(default_factory=list)    # length K, float
    feasible: list = field(default_factory=list)        # length K, bool
    solves: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def n_steps(self) -> int:
        return len(self.u)

    def times(self) -> np.ndarray:
        """Timestamps k*Ts for every recorded state."""
        return self.Ts * np.arange(len(self.x))

    def validate(self):
        k = self.n_steps
        if len(self.x) != k + 1 or len(self.V) != k + 1:
            raise ValueError("trace needs exactly one more state/value entry "
                             "than executed steps")
        for name in ("d", "w", "h", "psi", "xi", "resynthesized",
                     "worst_margin", "feasible"):
            if len(getattr(self, name)) != k:
                raise ValueError(f"trace field {name} must have one entry per step")


def stage_cost(x_all, u_all, d_all, params: FixedParams) -> float:
    """One-step cost sum_i (x_i'Q_i x_i + u_i'R_i u_i - tau_i d_i'd_i) with
    the weights of params (Q and R shared or per subsystem)."""
    total = 0.0
    for i, (x, u, d) in enumerate(zip(x_all, u_all, d_all)):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        d = np.asarray(d, dtype=float)
        total += (float(x @ params.q_mat(i) @ x) + float(u @ params.r_mat(i) @ u)
                  - float(params.tau[i]) * float(d @ d))
    return total


def lyapunov_value(x_i, p_i) -> float:
    """Certificate value x' P x of one subsystem state."""
    x = np.asarray(x_i, dtype=float)
    return float(x @ np.asarray(p_i, dtype=float) @ x)


def total_cost(trace: SimulationTrace, params: FixedParams, T: int = 10) -> float:
    """Finite-horizon diagnostic cost: summed stage costs over the first T
    steps plus the terminal certificate value at step T."""
    if T < 0 or T > trace.n_steps:
        raise ValueError(f"horizon T={T} outside the recorded {trace.n_steps} steps")
    return float(sum(trace.psi[:T]) + sum(trace.V[T]))


def _certificate_values(params: FixedParams, xi_all, x_all) -> list:
    return [lyapunov_value(x_all[i], params.X[i] / xi_all[i])
            for i in range(len(x_all))]


def run_online_loop(system: LargeScaleSystem, params: FixedParams, x0_all,
                    n_steps: int, dist: DisturbanceModel | None = None,
                    resynth: str = "every_step",
                    syn_cfg: SynthesisConfig | None = None,
                    gains=None, Ts: float = 0.2, mu_bar: float = 0.5,
                    mode: str = "true_plant", rho_bar: float | None = None,
                    xi_mode: str | None = None,
                    warm: DecisionVars | None = None) -> SimulationTrace:
    """Run the closed loop for n_steps from x0_all and record everything.

    resynth "every_step" re-minimizes the set size at each instant (warm
    started from the previous certificate); "once" synthesizes at step 0 and
    reuses those gains. Externally supplied gains skip synthesis entirely and
    carry a diagnostic set size from state containment instead of a
    certificate. An optional warm certificate seeds the step-0 synthesis.
    Deterministic given the disturbance seed.
    """
    if resynth not in RESYNTH_MODES:
        raise ValueError(f"unknown resynth mode {resynth!r}; "
                         f"expected one of {RESYNTH_MODES}")
    syn_cfg = syn_cfg or SynthesisConfig()
    xi_mode = xi_mode or syn_cfg.xi_mode
    if xi_mode not in XI_MODES:
        raise ValueError(f"unknown xi mode: {xi_mode!r}; "
                         f"expected one of {XI_MODES}")
    dist = dist or DisturbanceModel(kind="zero")
    params.validate()
    n = system.n_subsystems
    x = [np.asarray(x0_all[i], dtype=float).copy() for i in range(n)]
    d_seq = dist.realize(system, n_steps)

    supplied = gains is not None
    dv = warm
    if supplied:
        xi0 = [max(containment_size(params.X[i], x[i]) * (1.0 + XI_HAIR),
                   syn_cfg.xi_floor) for i in range(n)]
        dv = DecisionVars(gains=gains, xi=xi0)    # frozen copies of the gains

    trace = SimulationTrace(Ts=Ts, meta={
        "resynth": resynth, "supplied_gains": supplied, "mode": mode,
        "mu_bar": mu_bar, "rho_bar": rho_bar, "xi_mode": xi_mode,
        "disturbance": {"kind": dist.kind, "seed": dist.seed,
                        "radii": [dist.radius(system, i) for i in range(n)]},
    })

    evaluator = None        # the conditions at the current gains
    for k in range(n_steps):
        if not supplied and (resynth == "every_step" or k == 0):
            try:
                res = minimize_xi(system, params, x, syn_cfg, warm=dv,
                                  mode=xi_mode, evaluator=evaluator)
            except Infeasible as exc:
                if k == 0:
                    raise InitialInfeasible(
                        f"synthesis infeasible at step 0: {exc}") from exc
                raise RecursiveFeasibilityViolation(
                    f"synthesis infeasible at step {k} after succeeding "
                    f"earlier: {exc}", step=k) from exc
            dv, evaluator = res.dv, res.evaluator
            trace.solves += res.solves
            margins = res.margins
            trace.resynthesized.append(True)
        else:
            # fixed gains: only the containment margins read the state
            if evaluator is None:       # supplied gains, at step 0
                evaluator = FixedGainEvaluator(system, params, dv, syn_cfg)
            margins = evaluator.margins(dv.xi, x)
            trace.resynthesized.append(False)

        worst = float(max(margins.values()))
        trace.worst_margin.append(worst)
        trace.feasible.append(worst <= 0.0)
        trace.x.append([xi.copy() for xi in x])
        trace.xi.append(list(dv.xi))
        trace.V.append(_certificate_values(params, dv.xi, x))

        d_all = d_seq[k]
        x_next, u_all, w_all, h_all = step_closed_loop_detail(
            system, dv.gains, x, d_all, mu_bar, mode, rho_bar)
        trace.u.append([np.asarray(u, dtype=float) for u in u_all])
        trace.d.append([np.asarray(d, dtype=float) for d in d_all])
        trace.w.append([np.asarray(w, dtype=float) for w in w_all])
        trace.h.append([np.asarray(h, dtype=float) for h in h_all])
        trace.psi.append(stage_cost(x, u_all, d_all, params))
        x = x_next

    trace.x.append([xi.copy() for xi in x])
    final_xi = dv.xi if dv is not None else [1.0] * n
    trace.V.append(_certificate_values(params, final_xi, x))
    trace.meta["final_xi"] = list(final_xi)
    trace.meta["final_gains"] = [[k.tolist() for k in g] for g in dv.gains] \
        if dv is not None else None
    trace.validate()
    return trace


def iss_check(trace: SimulationTrace, params: FixedParams) -> dict:
    """Verify the input-to-state decrease along a recorded run.

    At every step with a nonzero state, the certificate values must satisfy
    V(x+) - V(x) < -x'Qx - u'R_eff u + tau d'd, where both values use the
    certificate active at that step and R_eff = M_i / xi_i is the input
    weight the certificate actually encodes (the set-size scaling folds the
    nominal weight and the set size together). Also confirms the eigenvalue
    sandwich w_min ||x||^2 <= V_i(x) <= w_max ||x||^2 from the extreme
    eigenvalues of each P_i = X_i / xi_i.
    """
    n = len(params.X)
    n_steps = trace.n_steps
    if n_steps == 0:
        return {"n_checked": 0, "violations": [], "worst_slack": -np.inf,
                "sandwich_violations": [], "ok": True}
    xi = np.array(trace.xi, dtype=float)
    # per subsystem, over every step at once; subsystems summed in order
    v_now = np.zeros(n_steps)
    v_next = np.zeros(n_steps)
    bound = np.zeros(n_steps)
    live = np.zeros(n_steps, dtype=bool)
    sandwich = np.zeros((n_steps, n), dtype=bool)
    for i in range(n):
        states = np.array([x[i] for x in trace.x], dtype=float)
        x_now, x_next = states[:-1], states[1:]
        u = np.array([u_k[i] for u_k in trace.u], dtype=float)
        d = np.array([d_k[i] for d_k in trace.d], dtype=float)
        xi_i = xi[:, i, None, None]
        p_i = params.X[i] / xi_i
        v_i = quad_form(x_now, p_i)
        v_now += v_i
        v_next += quad_form(x_next, p_i)
        bound += (-quad_form(x_now, params.q_mat(i)) - quad_form(u, params.M[i] / xi_i)
                  + params.tau[i] * quad_form(d))
        nrm2 = quad_form(x_now)
        live |= nrm2 != 0.0
        # lambda(X/xi) = lambda(X)/xi: X_i's spectrum serves every step
        x_eigs = params.x_eigs[i]
        w_min, w_max = x_eigs[0] / xi[:, i], x_eigs[-1] / xi[:, i]
        tol = 1e-9 * np.maximum(1.0, np.abs(v_i))
        sandwich[:, i] = ~((w_min * nrm2 - tol <= v_i)
                           & (v_i <= w_max * nrm2 + tol))
    slack = (v_next - v_now) - bound
    checked = np.flatnonzero(live)
    n_checked = len(checked)
    worst_slack = float(np.max(slack[checked])) if n_checked else -np.inf
    violations = [(int(k), float(slack[k])) for k in checked
                  if slack[k] >= 0.0]
    sandwich_bad = [(int(k), int(i))
                    for k, i in np.argwhere(sandwich & live[:, None])]
    return {
        "n_checked": n_checked,
        "violations": violations,
        "worst_slack": worst_slack,
        "sandwich_violations": sandwich_bad,
        "ok": not violations and not sandwich_bad,
    }


def sample_in_set(rng: np.random.Generator, x_mat: np.ndarray, xi_i: float,
                  boundary: bool = False) -> np.ndarray:
    """Uniform sample of {x : x' X x <= xi^2} (the certificate set of size
    xi) by pushing a unit-ball sample through the inverse square root."""
    n = x_mat.shape[0]
    y = _ball_points([_ball_draw(rng, n, 1.0, boundary)], n, 1.0)[0]
    return xi_i * (inv_sqrt(x_mat) @ y)


RPI_BATCH = 2048    # samples drawn, stepped and checked together


def _worst(worst: float, values: np.ndarray) -> float:
    """The larger of worst and the largest of values; NaN once any is NaN
    (max keeps a NaN worst, as NaN compares false)."""
    top = float(values.max())
    return top if math.isnan(top) else max(worst, top)


def _violations(values: np.ndarray, tol: float) -> int:
    """How many values are not <= tol: above it, or NaN."""
    return values.size - int(np.count_nonzero(values <= tol))


def rpi_monte_carlo(system: LargeScaleSystem, params: FixedParams,
                    dv: DecisionVars, n_samples: int = 10_000, seed: int = 0,
                    tol: float = 1e-9) -> dict:
    """Monte-Carlo audit of the invariant set under a certificate.

    Each sample draws every subsystem's state inside its set (every tenth
    sample exactly on the boundary), an admissible disturbance at the
    certified radius sqrt(xi/N_const), and a membership reconstruction
    weighting from a grid; it then steps once and requires the one-step
    decrease scalar to be <= tol and every next state to stay in its set
    (relative margin <= tol); a NaN scalar or margin is a violation. It
    needs n_samples >= 1 and a finite tol, so that passing checks something.

    Draw order: sample by sample, the ball draws of every subsystem's state
    and then of every subsystem's disturbance, each made by _ball_draw, so
    a seed gives the samples that stepping one sample at a time would.
    The samples go in chunks of RPI_BATCH, which bounds memory for any
    n_samples: one plain loop makes a chunk's draws, then the chunk is
    scaled, stepped (one step_closed_loop call for its true-plant samples,
    one for its reconstructed ones) and checked with array operations.
    """
    if not (n_samples >= 1 and np.isfinite(tol)):
        raise ValueError(f"rpi_monte_carlo needs n_samples >= 1 and a finite "
                         f"tol, got {n_samples} and {tol}")
    rng = np.random.default_rng(seed)
    n = system.n_subsystems
    radii = [1.0] * n + [float(np.sqrt(dv.xi[i] / params.N_const[i]))
                         for i in range(n)]
    dims = ([sub.n_x for sub in system.subsystems]
            + [sub.n_d for sub in system.subsystems])
    inv_sqrts = params.x_inv_sqrt
    weight_grid = np.linspace(0.0, 1.0, 5)
    scalar_violations = 0
    exit_events = 0
    worst_scalar = -np.inf
    worst_exit = -np.inf
    for start in range(0, n_samples, RPI_BATCH):
        s = np.arange(start, min(start + RPI_BATCH, n_samples))
        # per sample: every state (unit ball, every tenth sample on its
        # boundary), then every disturbance
        draws = [([], dim, radius, b < n)
                 for b, (dim, radius) in enumerate(zip(dims, radii))]
        for k in s.tolist():
            on_edge = (k % 10) == 9
            for out, dim, radius, state in draws:
                out.append(_ball_draw(rng, dim, radius, on_edge and state))
        balls = [_ball_points(out, dim, radius)
                 for out, dim, radius, _ in draws]
        x_all = [dv.xi[i] * (inv_sqrts[i] @ balls[i][:, :, None])[:, :, 0]
                 for i in range(n)]
        d_all = balls[n:]
        rho = weight_grid[s % len(weight_grid)]
        mu = weight_grid[(s // len(weight_grid)) % len(weight_grid)]
        x_next = [np.empty_like(x) for x in x_all]
        use_true = (s % 3) == 2
        for sel, mode in ((use_true, "true_plant"), (~use_true, "reconstructed")):
            if not sel.any():
                continue
            stepped = step_closed_loop(
                system, dv.gains, [x[sel] for x in x_all],
                [d[sel] for d in d_all], mu[sel], mode,
                None if mode == "true_plant" else rho[sel])
            for i in range(n):
                x_next[i][sel] = stepped[i]
        scalar = rpi_decrease_scalar(params, dv.xi, x_all, d_all, x_next)
        worst_scalar = _worst(worst_scalar, scalar)
        scalar_violations += _violations(scalar, tol)
        for i in range(n):
            xi2 = dv.xi[i] ** 2
            margin = (quad_form(x_next[i], params.X[i]) - xi2) / xi2
            worst_exit = _worst(worst_exit, margin)
            exit_events += _violations(margin, tol)
    return {
        "n_samples": n_samples,
        "scalar_violations": scalar_violations,
        "exit_events": exit_events,
        "worst_scalar": worst_scalar,
        "worst_exit_margin": worst_exit,
        "ok": scalar_violations == 0 and exit_events == 0,
    }
