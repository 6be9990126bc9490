"""Closed-loop rollout with online set-size minimization, plus run-time
diagnostics: admissible disturbance generation, stage costs,
set-membership (Lyapunov) decrease checks, invariant-set Monte-Carlo, and
recursive-feasibility bookkeeping.

The loop supports three gain sources: re-synthesis at every step (the online
algorithm), a single synthesis at step 0 reused afterwards, and externally
supplied static gains (no synthesis at all — the mode used to exercise
reported controllers directly). A step carries one thing to the next, the
FixedGainEvaluator of its gains: built once, before the first step, of a
warm certificate or the supplied gains, and replaced by each synthesis
result's own. Each step records what it decides and observes, alike in all
three; the certificate values V and stage costs psi are derived after the
run from the recorded states, inputs, disturbances and set sizes, so a trace
from any mode feeds the same checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import quad_form
from .lmis import DecisionVars, FixedParams, rpi_decrease_scalar
from .plant import (FieldError, LargeScaleSystem, _is_finite, _is_integer,
                    _mode_weight, _shown, _unit_weight, step_closed_loop,
                    step_closed_loop_detail)
from .synthesis import (FixedGainEvaluator, Infeasible, SynthesisConfig,
                        _floors, _settle, _xi_mode, minimize_xi)

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


def _ball_points(v: np.ndarray, r: np.ndarray, radius) -> np.ndarray:
    """The points (r/|v|) v of normals v (..., P, n) and radii r (..., P)
    in balls of radius (..., 1) or a float: projected so the norm bound
    holds exactly despite rounding, and 0 where r is 0. Uniform on the
    radius-ball (or its boundary)."""
    live = r != 0.0
    scale = r / np.where(live, np.sqrt(quad_form(v)), 1.0)
    d = np.where(live[..., None], scale[..., None] * v, 0.0)
    overshoot = np.sqrt(quad_form(d))
    out = overshoot > radius
    shrink = radius / np.where(out, overshoot, 1.0)
    return np.where(out[..., None], d * shrink[..., None], d)


def _ball_samples(rng: np.random.Generator, balls, edges) -> list:
    """Per ball (n, radius, edged), its points (P, n) of P = len(edges)
    samples.

    The random numbers come sample by sample and ball by ball: a normal
    direction v, then (strictly inside the ball) a uniform u for the radius
    r = radius * u**(1/n). Ball b of sample p lies on its boundary (r =
    radius, no uniform) when b is edged and edges[p] is true; r is 0, and no
    uniform is drawn, when the radius or |v| is 0 (|v| is 0 exactly when
    every entry is: no nonzero normal draw is small enough for its square
    to underflow). A one-dimensional normal is drawn as a scalar, the same
    draw without the array. The draws go into flat per-ball lists, and the
    balls of one dimension become one array, scaled by one _ball_points."""
    normal, uniform = rng.standard_normal, rng.random
    normals, radii = [[] for _ in balls], [[] for _ in balls]
    draws = [(n, radius, 1.0 / n if n else None, edged, vs, rs)
             for (n, radius, edged), vs, rs in zip(balls, normals, radii)]
    for edge in edges:
        for n, radius, power, edged, vs, rs in draws:
            if n == 1:
                v = normal()
                vs.append(v)
                live = v != 0.0
            else:
                v = normal(n).tolist()
                vs += v
                live = any(v)
            if radius == 0.0 or not live:
                rs.append(0.0)
            elif edge and edged:
                rs.append(radius)
            else:
                rs.append(radius * uniform() ** power)
    by_dim = {}
    for b, (n, _, _) in enumerate(balls):
        by_dim.setdefault(n, []).append(b)
    points = [None] * len(balls)
    for n, members in by_dim.items():
        v = np.array([normals[b] for b in members]).reshape(
            len(members), len(edges), n)
        r = np.array([radii[b] for b in members])
        radius = np.array([[balls[b][1]] for b in members])
        for b, p in zip(members, _ball_points(v, r, radius)):
            points[b] = p
    return points


@dataclass(frozen=True)
class DisturbanceModel:
    """Admissible disturbance generator: every emitted d_i satisfies
    d_i' d_i <= radius_i^2 exactly (samples are projected onto the ball).

    radii overrides the per-subsystem radius, one finite radius >= 0 per
    subsystem; by default each subsystem's configured eta is used. seed is
    an integer >= 0 (a numpy integer is kept as the equal int; a bool is
    refused). A bad field raises FieldError.
    """

    kind: str = "uniform_ball"
    seed: int = 42
    radii: tuple | None = None

    def __post_init__(self):
        if self.kind not in DISTURBANCE_KINDS:
            raise FieldError("kind", f"expected one of {DISTURBANCE_KINDS}, "
                                     f"got {self.kind!r}")
        if not _is_integer(self.seed, 0):
            raise FieldError("seed", "expected a nonnegative integer")
        object.__setattr__(self, "seed", int(self.seed))
        if self.radii is not None:
            if not all(_is_finite(r) and r >= 0.0 for r in self.radii):
                raise FieldError("radii", "must be finite and nonnegative")
            object.__setattr__(self, "radii", tuple(map(float, self.radii)))

    def radius(self, system: LargeScaleSystem, i: int) -> float:
        if self.radii is not None:
            return float(self.radii[i])
        return float(system.subsystems[i].eta)

    def realize(self, system: LargeScaleSystem, n_steps: int) -> list:
        """Full disturbance sequence, deterministic given the seed:
        realize(...)[k][i] is subsystem i's disturbance at step k."""
        n = system.n_subsystems
        if self.radii is not None and len(self.radii) != n:
            raise ValueError(f"disturbance radii has {len(self.radii)} "
                             f"entries for {n} subsystems")
        rng = np.random.default_rng(self.seed)
        radii = [self.radius(system, i) for i in range(n)]
        dims = [sub.n_d for sub in system.subsystems]
        if self.kind in ("uniform_ball", "worst_case_boundary"):
            boundary = self.kind == "worst_case_boundary"
            balls = _ball_samples(rng, list(zip(dims, radii, [boundary] * n)),
                                  [True] * n_steps)
            return [[balls[i][k] for i in range(n)] for k in range(n_steps)]
        if self.kind == "zero":
            return [[np.zeros(dims[i]) for i in range(n)]
                    for _ in range(n_steps)]
        # sinusoidal: fixed frequency, random per-channel phases drawn once
        phases = [rng.uniform(0.0, 2.0 * np.pi, size=dims[i])
                  for i in range(n)]
        return [[(radii[i] / np.sqrt(dims[i])) * np.sin(0.4 * k + phases[i])
                 for i in range(n)] for k in range(n_steps)]


@dataclass(frozen=True)
class SimulationSettings:
    """Closed-loop settings, as a config file carries them. Each field is
    checked on construction (FieldError); run_online_loop checks its own
    arguments by making one."""

    x0: list
    steps: int
    disturbance: DisturbanceModel
    resynth: str = "every_step"
    mu_bar: float = 0.5
    mode: str = "true_plant"
    rho_bar: float | None = None

    def __post_init__(self):
        if not _is_integer(self.steps, 0):
            raise FieldError("steps", "expected a nonnegative integer")
        object.__setattr__(self, "steps", int(self.steps))
        if self.resynth not in RESYNTH_MODES:
            raise FieldError("resynth", f"expected one of {RESYNTH_MODES}, "
                                        f"got {self.resynth!r}")
        _unit_weight(self.mu_bar, "mu_bar")
        if self.rho_bar is not None:
            _unit_weight(self.rho_bar, "rho_bar")
        _mode_weight(self.mode, self.rho_bar)   # reconstructed needs rho_bar


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

    def validate(self):
        k = self.n_steps
        if len(self.x) != k + 1 or len(self.V) != k + 1:
            raise ValueError("trace needs exactly one more state/value entry "
                             "than executed steps")
        for name in ("d", "w", "h", "psi", "xi", "resynthesized",
                     "worst_margin", "feasible"):
            if len(getattr(self, name)) != k:
                raise ValueError(f"trace field {name} must have one entry per step")


def stage_cost(x_all, u_all, d_all, params: FixedParams):
    """One-step cost sum_i (x_i'Q_i x_i + u_i'R_i u_i - tau_i d_i'd_i) with
    the weights of params (Q and R shared or per subsystem); per-subsystem
    stacks (K, n) give one cost per step, as the loop derives after the run
    from the recorded states, inputs and disturbances."""
    total = 0.0
    for i, (x, u, d) in enumerate(zip(x_all, u_all, d_all)):
        total += (quad_form(x, params.q_mat(i)) + quad_form(u, params.r_mat(i))
                  - params.tau[i] * quad_form(d))
    return total


def _stacks(rows, n: int) -> list:
    """Per subsystem i, the rows[k][i] of a recorded field as (len(rows), n_i)."""
    return [np.array([r[i] for r in rows], dtype=float) for i in range(n)]


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
    started from the previous step's evaluator); "once" synthesizes at step
    0 and reuses those gains. Supplied gains skip synthesis entirely, each
    at _settle's size on its step-0 floor (_floors). An optional warm
    certificate seeds the step-0 synthesis. Deterministic given the
    disturbance seed. The arguments are checked first, as
    SimulationSettings fields (n_steps as "steps").
    """
    dist = dist or DisturbanceModel(kind="zero")
    SimulationSettings(x0_all, n_steps, dist, resynth, mu_bar, mode, rho_bar)
    syn_cfg = syn_cfg or SynthesisConfig()
    xi_mode = _xi_mode(xi_mode or syn_cfg.xi_mode)
    params.validate()
    n = system.n_subsystems
    x = [np.asarray(x0_all[i], dtype=float).copy() for i in range(n)]

    supplied = gains is not None
    dv = warm
    if supplied:        # frozen copies of the gains, each at its own floor
        dv = DecisionVars(gains=gains, xi=[
            _settle((), floor)[0] for floor in _floors(params, x, syn_cfg)])

    trace = SimulationTrace(Ts=Ts, d=dist.realize(system, n_steps), meta={
        "resynth": resynth, "supplied_gains": supplied, "mode": mode,
        "mu_bar": mu_bar, "rho_bar": rho_bar, "xi_mode": xi_mode,
        "disturbance": {"kind": dist.kind, "seed": dist.seed,
                        "radii": [dist.radius(system, i) for i in range(n)]},
    })
    evaluator = None if dv is None else \
        FixedGainEvaluator(system, params, dv, syn_cfg)

    for k in range(n_steps):
        if not supplied and (resynth == "every_step" or k == 0):
            try:
                res = minimize_xi(system, params, x, syn_cfg, mode=xi_mode,
                                  evaluator=evaluator)
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
            margins = evaluator.margins(dv.xi, x)
            trace.resynthesized.append(False)

        worst = float(max(margins.values()))
        trace.worst_margin.append(worst)
        trace.feasible.append(worst <= 0.0)
        trace.x.append(x)
        trace.xi.append(list(dv.xi))

        x, u_all, w_all, h_all = step_closed_loop_detail(
            system, dv.gains, x, trace.d[k], mu_bar, mode, rho_bar)
        trace.u.append(u_all)
        trace.w.append(w_all)
        trace.h.append(h_all)

    trace.x.append(x)
    final_xi = dv.xi if dv is not None else [1.0] * n
    # V[k] under step k's certificate, the terminal state's under the final one
    xi = np.array(trace.xi + [final_xi], dtype=float)
    states = _stacks(trace.x, n)
    trace.V = np.column_stack([
        quad_form(states[i], params.X[i] / xi[:, i, None, None])
        for i in range(n)]).tolist()
    if n_steps:
        trace.psi = stage_cost([s[:-1] for s in states], _stacks(trace.u, n),
                               _stacks(trace.d, n), params).tolist()
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
    states, inputs, dists = (_stacks(rows, n)
                             for rows in (trace.x, trace.u, trace.d))
    for i, (x_i, u, d) in enumerate(zip(states, inputs, dists)):
        x_now, x_next = x_i[:-1], x_i[1:]
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


RPI_BATCH = 2048    # samples drawn, stepped and checked together
RPI_MODES = np.array(["reconstructed", "reconstructed", "true_plant"])


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
    needs an integer n_samples >= 1 and a finite tol, so that passing
    checks something, and an integer seed >= 0 (a numpy integer is kept, a
    bool refused, as DisturbanceModel does).

    Draw order: sample by sample, the ball draws of every subsystem's state
    and then of every subsystem's disturbance (_ball_samples), so a seed
    gives the samples that stepping one sample at a time would. The samples
    go in chunks of RPI_BATCH, which bounds memory for any n_samples: one
    plain loop makes a chunk's Generator calls into flat per-ball lists,
    then the chunk is scaled (one _ball_points call per ball dimension),
    stepped (one step_closed_loop call, with one membership mode per
    sample) and checked with array operations.
    """
    if not (_is_integer(n_samples, 1) and _is_finite(tol)):
        raise ValueError(f"rpi_monte_carlo needs an integer n_samples >= 1 and "
                         f"a finite tol, got {_shown(n_samples, repr)} and "
                         f"{_shown(tol)}")
    if not _is_integer(seed, 0):
        raise ValueError(f"rpi_monte_carlo needs an integer seed >= 0, "
                         f"got {_shown(seed, repr)}")
    rng = np.random.default_rng(seed)
    n = system.n_subsystems
    # per sample: every state in its unit ball, then every disturbance
    ball_specs = ([(sub.n_x, 1.0, True) for sub in system.subsystems]
                  + [(sub.n_d, math.sqrt(dv.xi[i] / params.N_const[i]), False)
                     for i, sub in enumerate(system.subsystems)])
    inv_sqrts = params.x_inv_sqrt
    weight_grid = np.linspace(0.0, 1.0, 5)
    scalar_violations = 0
    exit_events = 0
    worst_scalar = -np.inf
    worst_exit = -np.inf
    for start in range(0, n_samples, RPI_BATCH):
        s = np.arange(start, min(start + RPI_BATCH, n_samples))
        # every state on its unit sphere in every tenth sample
        balls = _ball_samples(rng, ball_specs, ((s % 10) == 9).tolist())
        x_all = [dv.xi[i] * (inv_sqrts[i] @ balls[i][:, :, None])[:, :, 0]
                 for i in range(n)]
        d_all = balls[n:]
        rho = weight_grid[s % len(weight_grid)]
        mu = weight_grid[(s // len(weight_grid)) % len(weight_grid)]
        # every third sample steps the true plant
        x_next = step_closed_loop(system, dv.gains, x_all, d_all, mu,
                                  RPI_MODES[s % len(RPI_MODES)], rho)
        scalar = rpi_decrease_scalar(params, dv.xi, x_all, d_all, x_next)
        worst_scalar = _worst(worst_scalar, scalar)
        scalar_violations += _violations(scalar, tol)
        for i in range(n):
            xi2 = dv.xi[i] ** 2
            margin = (quad_form(x_next[i], params.X[i]) - xi2) / xi2
            worst_exit = _worst(worst_exit, margin)
            exit_events += _violations(margin, tol)
    return {
        "n_samples": int(n_samples),
        "scalar_violations": scalar_violations,
        "exit_events": exit_events,
        "worst_scalar": worst_scalar,
        "worst_exit_margin": worst_exit,
        "ok": scalar_violations == 0 and exit_events == 0,
    }
