"""it2mpc benchmark: certificate latency end to end, and layer by layer.

    python3 perfbench/run.py --workload online-lmi --seed 1 --seconds 40 --trace 0

Run from the repository root. The package is imported from ``src/`` next to
this directory; the stored example1 certificate comes from
``perfbench/fixtures`` (regenerate it with ``perfbench/make_fixture.py``).
Everything runs in this one single-threaded process: BLAS threads are pinned
to 1 before numpy is imported.

Every workload first sets up (config and certificate load plus validation),
then gates the stored certificate the way the ``verify`` and ``rpi-check``
verbs do, then measures its own operations for ``--seconds`` (and at least a
fixed number of steps), each followed by more set-ups, ``rpi-check`` and
``verify`` calls:

    online-lmi          ``simulate --resynth every-step --iss`` episodes on
                        example1_synthesis, common xi (LMI-bound, constant)
    online-containment  the same in per_subsystem mode (subsystem 1's xi is
                        containment-bound and falls along the episode)
    audit               static-gain ``simulate --iss`` runs of
                        example2_stabilized; run by hand, not in
                        BENCHMARK.json
    offline-cold        one cold ``synthesize`` (minimize_xi) with
                        SynthesisConfig.seed = --seed; 40-70 s, so it is run
                        by hand and is not in BENCHMARK.json

Each timed operation is followed by a probe: a fixed operation of the same
kind run by ``reference/it2mpc_seed``, a frozen copy of the package as the
benchmark was defined. Timings are reported at the probes' nominal speed
(see PROBE_NOMINAL_S), so the host's speed, which drifts by up to 1.8x on a
shared machine, cancels out while a change of the program shows in full.
The wall-clock figures are printed on the ``unscaled`` line.

``--trace 0`` prints the end-to-end metrics; the only instrumentation is one
timestamp per closed-loop step. ``--trace 1`` runs each measured operation
twice, untraced and then traced with the layer tracer (setup and gate are
traced too), and prints per-layer call counts, self times and the tracing
overhead.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Exit code 2 when the package or the fixture cannot be loaded.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from tracer import LayerTracer, StepHook

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference"      # it2mpc_seed, the frozen seed copy
FIXTURE = HERE / "fixtures" / "example1_certificate.json"
FIXTURE_XI = 9.901832152969146      # the seed code's cold example1 optimum

# The host's speed jitters by tens of percent within a second, so set-up,
# rpi-check and verify calls are spread over the whole run rather than made
# in one burst: each rpi-check call is followed by one set-up, each measured
# operation by RPI_SIDE_CHUNKS rpi-check calls, every VERIFY_EVERY-th
# operation by a verify.
SETUP_REPS = 3                      # back to back, before the gate
RPI_CHUNK = 100                     # samples per rpi_monte_carlo call
RPI_GATE_CHUNKS = 5
RPI_SIDE_CHUNKS = 4
VERIFY_EVERY = 1
EPISODE_STEPS = 10                  # steps of one online episode from x0
TAIL_PCT = 80
MARGIN_GATE = -1e-9                 # offline-cold worst margin must be <= this
TAIL_RATIO_GATE = 0.10              # acceptance criterion 8
# Host-speed probes: after every timed operation the frozen seed copy of the
# package runs a fixed operation of the same kind (Run.probe_for). A timing
# is rescaled by PROBE_NOMINAL_S over the median probe time of the run.
PROBE_SEED = 0
PROBE_STEPS = 5                     # common-mode every-step loop steps
# probe medians on the baseline host, per item (per step for loop and plant)
PROBE_NOMINAL_S = {"setup": 0.0036, "loop": 0.22, "plant": 0.0016,
                   "rpi": 0.080}

WORKLOADS = {
    # kind, xi mode, minimum steps (>= 10 beyond the TAIL_PCT percentile)
    "online-lmi": ("online", "common", 50),
    "online-containment": ("online", "per_subsystem", 50),
    "audit": ("audit", None, 1000),
    "offline-cold": ("offline", "common", 0),
}

END_TO_END = {   # name -> unit
    "setup_s": "s", "peak_rss_mb": "MB", "xi_mean": "1",
    "step_ms_p50": "ms", "step_ms_tail": "ms", "verify_s": "s",
    "rpi_samples_per_s": "1/s",
}
OFFLINE_END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "xi_mean": "1",
                      "solve_s": "s"}

ONLINE = ("online-lmi", "online-containment")
ALL = ONLINE + ("audit",)
# per-layer metric -> (unit, workloads on which the traced run must read > 0)
PER_LAYER = {
    "linalg.eig.calls": ("count", ALL + ("offline-cold",)),
    "linalg.eig.self_s": ("s", ALL + ("offline-cold",)),
    "lmis.vertex.calls": ("count", ALL + ("offline-cold",)),
    "lmis.vertex.self_s": ("s", ALL + ("offline-cold",)),
    "lmis.blended.calls": ("count", ALL),
    "lmis.blended.self_s": ("s", ALL),
    "lmis.test_matrix.calls": ("count", ONLINE),
    "lmis.test_matrix.self_s": ("s", ONLINE),
    "lmis.containment.calls": ("count", ONLINE),
    "lmis.containment.self_s": ("s", ONLINE),
    "synthesis.solves": ("count", ("offline-cold",)),
    "linalg.eig.calls_per_solve": ("count", ("offline-cold",)),
    "synthesis.minimize_xi.calls": ("count", ONLINE + ("offline-cold",)),
    "synthesis.minimize_xi.self_s": ("s", ONLINE + ("offline-cold",)),
    "synthesis.certificate_margins.calls": ("count", ONLINE),
    "synthesis.certificate_margins.self_s": ("s", ONLINE),
    "synthesis.verify_certificate.self_s": ("s", ALL),
    "plant.step.calls": ("count", ALL),
    "plant.step.self_s": ("s", ALL),
    "membership.grades.calls": ("count", ALL),
    "membership.grades.self_s": ("s", ALL),
    "simulation.run_online_loop.self_s": ("s", ALL),
    "simulation.rpi_monte_carlo.self_s": ("s", ALL),
    "simulation.iss_check.self_s": ("s", ALL),
    "configio.load.self_s": ("s", ALL + ("offline-cold",)),
    "tracefile.write.self_s": ("s", ("online-lmi",)),
    "tracefile.write.bytes": ("B", ("online-lmi",)),
    "trace.overhead_s": ("s", ()),
    "trace.overhead_pct": ("%", ()),
}


def environment() -> dict:
    """Host and library facts printed with every run."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ[v] for v in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


class Run:
    """State and bookkeeping of one benchmark run."""

    def __init__(self, it2mpc, seed_copy, workload: str, seed: int):
        self.it2mpc = it2mpc
        self.workload = workload
        self.seed = seed
        self.kind, self.xi_mode, self.min_steps = WORKLOADS[workload]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        # timing -> wall seconds of each operation (of each closed-loop
        # step, for "step"; measured passes only)
        self.timings = {"setup": [], "step": [], "verify": [], "rpi": [],
                        "solve": []}
        # timing -> the probe that follows each of its operations
        # (verify and the cold solve are eigen-kernel and assembly work,
        # like an every-step loop)
        self.probe_for = {"setup": "setup", "verify": "loop", "rpi": "rpi",
                          "step": "plant" if self.kind == "audit" else "loop",
                          "solve": "loop"}
        self.probe_s = {name: [] for name in PROBE_NOMINAL_S}
        self.probes = self._probes(seed_copy)
        self.xi_values = []
        self.solves = 0
        self.last_trace = None

    def _probes(self, pkg) -> dict:
        """probe -> (call, items): fixed operations of the seed copy; a
        probe's time is per item (per closed-loop step for loop and plant)."""
        cfg, dv, cfg2 = self._load(pkg, example2=True)
        return {
            "setup": (lambda: self._load(pkg), 1),
            "loop": (lambda: self._run_loop(
                pkg, cfg, PROBE_STEPS, PROBE_SEED, resynth="every_step",
                warm=dv, xi_mode="common"), PROBE_STEPS),
            "plant": (lambda: self._run_loop(
                pkg, cfg2, cfg2.simulation.steps, PROBE_SEED, resynth="once",
                gains=cfg2.gains), cfg2.simulation.steps),
            "rpi": (lambda: pkg.rpi_monte_carlo(
                cfg.system, cfg.params, dv, n_samples=RPI_CHUNK,
                seed=PROBE_SEED), 1),
        }

    def timed(self, name: str, fn, record: bool = True):
        """Run fn(), record its wall time under timing `name` (unless
        `record` is False: the caller records it), then run that timing's
        probe once. Returns fn's result."""
        t0 = perf_counter()
        out = fn()
        if record:
            self.timings[name].append(perf_counter() - t0)
        probe = self.probe_for[name]
        call, items = self.probes[probe]
        t0 = perf_counter()
        call()
        self.probe_s[probe].append((perf_counter() - t0) / items)
        return out

    def seconds(self, name: str, scaled: bool = True) -> list:
        """The wall times of a timing; `scaled` rescales them to the
        nominal speed of their probe."""
        factor = 1.0
        if scaled:
            probe = self.probe_for[name]
            factor = (PROBE_NOMINAL_S[probe]
                      / statistics.median(self.probe_s[probe]))
        return [v * factor for v in self.timings[name]]

    def check(self, ok: bool, what: str, count: int = 1):
        """One gated operation (or `count` of them) attempted."""
        self.attempted += count
        if not ok:
            self.failed += count
            self.problems.append(what)

    # -- set-up ---------------------------------------------------------
    @staticmethod
    def _load(pkg, example2: bool = False):
        """Load and validate the configs and the stored certificate:
        (example1 config, certificate, example2 config or None)."""
        cfg = pkg.load_bundled_config("example1_synthesis")
        cfg.system.validate()
        cfg.params.validate()
        dv, _doc = pkg.load_certificate(FIXTURE, cfg.system)
        cfg2 = None
        if example2:
            cfg2 = pkg.load_bundled_config("example2_stabilized")
            cfg2.system.validate()
            cfg2.params.validate()
        return cfg, dv, cfg2

    def setup_rep(self):
        self.cfg, self.dv, self.cfg2 = self.timed(
            "setup", lambda: self._load(self.it2mpc, self.kind == "audit"))

    # -- operations -----------------------------------------------------
    def verify(self):
        cfg = self.cfg
        report = self.timed("verify", lambda: self.it2mpc.verify_certificate(
            cfg.system, cfg.params, self.dv, x_all=cfg.simulation.x0,
            cfg=cfg.synthesis))
        self.check(report["feasible"], f"verify: worst {report['worst']:.3e}")

    def rpi(self, seed: int):
        cfg = self.cfg
        report = self.timed("rpi", lambda: self.it2mpc.rpi_monte_carlo(
            cfg.system, cfg.params, self.dv, n_samples=RPI_CHUNK, seed=seed))
        self.setup_rep()
        self.check(report["scalar_violations"] == 0
                   and report["exit_events"] == 0,
                   f"rpi seed {seed}: {report['scalar_violations']} "
                   f"violations, {report['exit_events']} exits")

    def prepare(self):
        """Set-up, then (except offline-cold) the certificate gate."""
        for _ in range(SETUP_REPS):
            self.setup_rep()
        if self.kind != "offline":
            self.gate()

    def gate(self):
        """The certificate every workload relies on: xi, verify, rpi-check."""
        self.check(all(x == FIXTURE_XI for x in self.dv.xi),
                   f"fixture xi {self.dv.xi} != {FIXTURE_XI}")
        self.verify()
        for chunk in range(RPI_GATE_CHUNKS):
            self.rpi(self._seed(0, chunk))
        # the gate's first calls warm the process up; only later calls time
        for name in ("verify", "rpi"):
            self.timings[name].clear()
            self.probe_s[self.probe_for[name]].clear()

    def _seed(self, op: int, part: int = 0) -> int:
        """Input seed of one operation (or chunk of one) of this run."""
        return (self.seed * 1000 + op) * 100 + part

    @staticmethod
    def _run_loop(pkg, cfg, n_steps, dist_seed, **kw):
        """One closed loop of package `pkg` from the config's x0."""
        sim = cfg.simulation
        dist = pkg.DisturbanceModel(kind="uniform_ball", seed=dist_seed)
        return pkg.run_online_loop(
            cfg.system, cfg.params, sim.x0, n_steps, dist=dist,
            syn_cfg=cfg.synthesis, Ts=cfg.Ts, mu_bar=sim.mu_bar,
            mode=sim.mode, rho_bar=sim.rho_bar, **kw)

    def _loop(self, cfg, n_steps, dist_seed, hook, **kw):
        """One closed loop of the program; records its step times."""
        t0 = perf_counter()
        trace = self.timed("step", lambda: self._run_loop(
            self.it2mpc, cfg, n_steps, dist_seed, **kw), record=False)
        if hook is not None:
            self.timings["step"] += hook.step_seconds(t0, trace.n_steps)
        self.last_trace = trace
        return trace

    def episode(self, index: int, hook):
        """``simulate --resynth every-step --iss`` for EPISODE_STEPS steps,
        warm-started from the stored certificate."""
        seed = self._seed(index + 1)
        try:
            trace = self._loop(self.cfg, EPISODE_STEPS, seed, hook,
                               resynth="every_step", warm=self.dv,
                               xi_mode=self.xi_mode)
        except Exception as exc:   # any failure of the loop is a failed op
            if hook is not None:
                hook.stamps.clear()
            self.check(False, f"episode {seed}: {type(exc).__name__}: {exc}",
                       EPISODE_STEPS + 1)
            return EPISODE_STEPS
        bad = sum(not f for f in trace.feasible)
        self.attempted += EPISODE_STEPS - bad
        self.check(bad == 0, f"episode {seed}: {bad} infeasible steps", bad)
        self.check(self.it2mpc.iss_check(trace, self.cfg.params)["ok"],
                   f"episode {seed}: dissipation check failed")
        self.solves += trace.solves
        self.xi_values += [x for step in trace.xi for x in step]
        return trace.n_steps

    def example2_run(self, index: int, hook):
        """``simulate --iss`` of example2 with its static gains."""
        cfg2 = self.cfg2
        seed = self._seed(index + 1)
        trace = self._loop(cfg2, cfg2.simulation.steps, seed, hook,
                           resynth="once", gains=cfg2.gains)
        ratios = []
        for i, sub in enumerate(cfg2.system.subsystems):
            y = [float(np.max(np.abs(sub.H @ x[i]))) for x in trace.x]
            ratios.append(max(y[101:]) / max(y))
        # the reference params do not certify example2's static gains, so
        # the dissipation check runs (it is part of the verb) ungated
        self.it2mpc.iss_check(trace, cfg2.params)
        self.check(max(ratios) < TAIL_RATIO_GATE,
                   f"example2 seed {seed}: tail/peak {max(ratios):.3f}")
        return trace.n_steps

    def cold_solve(self, _index: int, _hook):
        cfg = self.cfg
        syn = dataclasses.replace(cfg.synthesis, seed=self.seed)
        result = self.timed("solve", lambda: self.it2mpc.minimize_xi(
            cfg.system, cfg.params, cfg.simulation.x0, syn,
            mode=self.xi_mode))
        worst = max(result.margins.values())
        self.check(result.feasible and worst <= MARGIN_GATE,
                   f"cold solve seed {self.seed}: worst margin {worst:.3e}")
        self.solves += result.solves
        self.xi_values += list(result.dv.xi)
        return 0

    def unit(self, index: int, hook) -> int:
        """Measured operation `index` and the rpi-check and verify calls
        that follow it; returns the closed-loop steps it ran."""
        op = {"online": self.episode, "audit": self.example2_run,
              "offline": self.cold_solve}[self.kind]
        steps = op(index, hook)
        if self.kind != "offline":
            for chunk in range(RPI_SIDE_CHUNKS):
                self.rpi(self._seed(index + 1, chunk + 1))
            if (index + 1) % VERIFY_EVERY == 0:
                self.verify()
        return steps

    def measure(self, seconds: float, each):
        """Call each(index) -> steps until `seconds` have passed and at
        least min_steps steps ran (at least once)."""
        done = steps = 0
        t0 = perf_counter()
        while (done == 0 or steps < self.min_steps
               or perf_counter() - t0 < seconds):
            steps += each(done)
            done += 1

    # -- results --------------------------------------------------------
    def timing_values(self, scaled: bool = True) -> dict:
        """The timing metrics; `scaled` False gives them as the wall clock
        read them, which is printed for inspection only."""
        values = {"setup_s": statistics.median(self.seconds("setup", scaled))}
        if self.kind == "offline":
            values["solve_s"] = statistics.median(self.seconds("solve",
                                                               scaled))
            return values
        steps_ms = np.asarray(self.seconds("step", scaled)) * 1e3
        values.update({
            "step_ms_p50": float(np.percentile(steps_ms, 50)),
            "step_ms_tail": float(np.percentile(steps_ms, TAIL_PCT)),
            "verify_s": statistics.median(self.seconds("verify", scaled)),
            "rpi_samples_per_s": RPI_CHUNK / statistics.median(
                self.seconds("rpi", scaled)),
        })
        return values

    def end_to_end(self) -> dict:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = self.timing_values()
        values.update({"peak_rss_mb": peak_mb,
                       "xi_mean": statistics.fmean(self.xi_values
                                                   if self.kind != "audit"
                                                   else self.dv.xi)})
        units = OFFLINE_END_TO_END if self.kind == "offline" else END_TO_END
        return {k: {"value": values[k], "unit": u} for k, u in units.items()}

    def per_layer(self, tracer: LayerTracer, written_bytes: int,
                  overhead_s: float, reference_s: float) -> dict:
        values = {}
        for layer, (calls, self_s) in tracer.layer_stats().items():
            values[f"{layer}.calls"] = calls
            values[f"{layer}.self_s"] = self_s
        values["synthesis.solves"] = self.solves
        values["linalg.eig.calls_per_solve"] = (
            values["linalg.eig.calls"] / self.solves if self.solves else 0.0)
        values["tracefile.write.bytes"] = written_bytes
        values["trace.overhead_s"] = overhead_s
        values["trace.overhead_pct"] = 100.0 * overhead_s / reference_s
        for name, (_unit, targets) in PER_LAYER.items():
            if self.workload in targets:
                self.check(values[name] > 0,
                           f"self-check: {name} reads {values[name]} "
                           f"on {self.workload}")
        return {k: {"value": values[k], "unit": u}
                for k, (u, _t) in PER_LAYER.items()}


def traced_run(run: Run, seconds: float) -> dict:
    """Setup, gate and the measured work under the tracer. Each measured
    operation runs twice, untraced and then traced with the same inputs, so
    the traced-minus-untraced time prices the tracing even on a host whose
    speed drifts."""
    tracer = LayerTracer()
    with tracer:
        run.prepare()
    seconds_in = {False: 0.0, True: 0.0}
    traced_solves = 0

    def paired(index: int) -> int:
        nonlocal traced_solves
        with StepHook() as hook:
            t0 = perf_counter()
            steps = run.unit(index, hook)
            seconds_in[False] += perf_counter() - t0
        solves = run.solves
        with tracer:
            t0 = perf_counter()
            run.unit(index, None)
            seconds_in[True] += perf_counter() - t0
        traced_solves += run.solves - solves
        return steps

    run.min_steps = 0               # per-layer numbers need no step tail
    run.measure(seconds, paired)
    run.solves = traced_solves      # per-solve ratios cover traced work only
    written = 0
    if run.last_trace is not None:
        with tracer, tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
            csv_path = Path(tmp) / "trace.csv"
            side = run.it2mpc.write_trace(run.last_trace, csv_path)
            written = csv_path.stat().st_size + side.stat().st_size
    unbound = [name for name, hits in tracer.bindings.items() if hits == 0]
    run.check(not unbound, f"tracer found no binding of {unbound}")
    return run.per_layer(tracer, written, seconds_in[True] - seconds_in[False],
                         seconds_in[False])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import it2mpc
    except ImportError as exc:
        print(f"cannot import it2mpc from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC.resolve() not in Path(it2mpc.__file__).resolve().parents:
        print(f"it2mpc imported from {it2mpc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if not FIXTURE.is_file():
        print(f"missing certificate fixture {FIXTURE}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(REFERENCE))
    import it2mpc_seed

    print("env " + json.dumps(environment()))
    run = Run(it2mpc, it2mpc_seed, args.workload, args.seed)
    if args.trace:
        metrics = traced_run(run, args.seconds)
    else:
        run.prepare()
        with StepHook() as hook:
            run.measure(args.seconds, lambda index: run.unit(index, hook))
        metrics = run.end_to_end()
        steps = len(run.seconds("step", scaled=False))
        if steps:
            print(f"{steps} steps; step_ms_tail is p{TAIL_PCT}")
        unscaled = run.timing_values(scaled=False)
        unscaled["probe_s"] = {name: statistics.median(times)
                               for name, times in run.probe_s.items()
                               if times}
        print("unscaled " + json.dumps(unscaled))
    for problem in run.problems:
        print(f"FAILED {problem}")
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
