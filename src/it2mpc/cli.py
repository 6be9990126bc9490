"""Command-line front end.

Subcommands: simulate a closed loop from a config (optionally writing a
trace CSV), synthesize a certificate, verify a stored certificate, and
Monte-Carlo check robust invariance. Exit codes: 0 success/feasible,
2 infeasible, 3 configuration or command-line usage error, 4 runtime
failure; failures also emit one machine-parseable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .configio import (ConfigError, SystemConfig, bundled_config_names,
                       load_bundled_config, load_certificate, load_config,
                       save_certificate)
from .plant import FieldError, _is_integer
from .simulation import (InitialInfeasible, RecursiveFeasibilityViolation,
                         iss_check, rpi_monte_carlo, run_online_loop)
from .synthesis import XI_MODES, Infeasible, minimize_xi, verify_certificate
from .tracefile import write_trace

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_CONFIG = 3
EXIT_RUNTIME = 4


def _diag(kind: str, message: str, **extra):
    """One-line JSON diagnostic on stderr; a non-finite number is written as
    null, since RFC 8259 JSON has no Infinity or NaN."""
    record = {"error": kind, "message": message}
    record.update({key: None if isinstance(v, float) and not np.isfinite(v)
                   else v for key, v in extra.items()})
    print(json.dumps(record, allow_nan=False), file=sys.stderr)


def _resolve_config(ref: str) -> SystemConfig:
    path = Path(ref)
    if path.is_file():
        return load_config(path)
    name = ref[:-len(".json")] if ref.endswith(".json") else ref
    if name in bundled_config_names():
        return load_bundled_config(name)
    raise ConfigError(
        f"{ref!r} is neither a config file nor a bundled config; "
        f"bundled names: {bundled_config_names()}")


def _fmt_list(values) -> str:
    return "[" + ", ".join("%.6g" % float(v) for v in values) + "]"


def _synthesis_overrides(cfg: SystemConfig, args):
    """Apply the --tol knob onto the config's synthesis settings."""
    if getattr(args, "tol", None) is None:
        return cfg.synthesis
    try:
        return dataclasses.replace(cfg.synthesis, strictness=args.tol)
    except FieldError as exc:
        raise ConfigError(f"--tol: {exc.reason}") from exc


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args.config)
    sim = cfg.simulation
    steps = sim.steps if args.steps is None else args.steps
    dist = sim.disturbance
    if args.seed is not None:
        dist = dataclasses.replace(dist, seed=args.seed)
    resynth = sim.resynth if args.resynth is None \
        else args.resynth.replace("-", "_")
    gains = None if args.ignore_gains else cfg.gains

    syn_cfg = _synthesis_overrides(cfg, args)
    trace = run_online_loop(
        cfg.system, cfg.params, sim.x0, steps, dist=dist, resynth=resynth,
        syn_cfg=syn_cfg, gains=gains, Ts=cfg.Ts, mu_bar=sim.mu_bar,
        mode=sim.mode, rho_bar=sim.rho_bar, xi_mode=syn_cfg.xi_mode)
    if args.out:    # the file first: a closed stdout must not lose it
        side = write_trace(trace, args.out)
        print(f"trace written to {args.out} (summary: {side})")

    label = cfg.name or args.config
    mode_desc = "supplied gains" if gains is not None else f"resynth={resynth}"
    print(f"simulated {trace.n_steps} steps of {label!r} ({mode_desc}, "
          f"Ts={trace.Ts:g})")
    print(f"  final state norms: "
          f"{_fmt_list(np.linalg.norm(x) for x in trace.x[-1])}")
    if trace.xi:
        print(f"  final set sizes:   {_fmt_list(trace.xi[-1])}")
    print(f"  stage cost total:  {sum(trace.psi):.6g}   "
          f"solver calls: {trace.solves}")
    bad = sum(not f for f in trace.feasible)
    if bad:
        print(f"  WARNING: certificate check failed on {bad} step(s)")
    if args.iss:
        report = iss_check(trace, cfg.params)
        print(f"  dissipation check: {report['n_checked']} steps, "
              f"{len(report['violations'])} violations, "
              f"worst slack {report['worst_slack']:.3g}")
    return EXIT_OK


def cmd_synthesize(args) -> int:
    cfg = _resolve_config(args.config)
    syn_cfg = _synthesis_overrides(cfg, args)
    mode = args.xi_mode or syn_cfg.xi_mode
    result = minimize_xi(cfg.system, cfg.params, cfg.simulation.x0,
                         syn_cfg, mode=mode)
    worst = max(result.margins.values())
    if args.out:
        save_certificate(result.dv, args.out, margins=result.margins,
                         meta={"config": cfg.name, "xi_mode": mode,
                               "solves": result.solves})
        print(f"certificate written to {args.out}")
    print(f"synthesis feasible: xi = {_fmt_list(result.dv.xi)} ({mode} mode)")
    for i, (xi, lower) in enumerate(zip(result.dv.xi, result.xi_lower)):
        print(f"  xi[{i + 1}] = {xi:.9g} >= {lower:.9g} (proven lower bound)")
    print(f"  worst condition margin: {worst:.3e}   "
          f"solver calls: {result.solves}")
    for i, g in enumerate(result.dv.gains):
        for m, k in enumerate(g):
            print(f"  gain[{i + 1}][{m + 1}] = "
                  f"{np.array2string(np.asarray(k), precision=6)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _resolve_config(args.config)
    dv, _doc = load_certificate(args.gains, cfg.system)
    x_all = None if args.no_containment else cfg.simulation.x0
    report = verify_certificate(cfg.system, cfg.params, dv, x_all=x_all,
                                cfg=cfg.synthesis)
    # --tol loosens the margins' verdict, never the disturbance budget's
    tol, below = args.tol or 0.0, report["below_budget"]
    report["feasible"] = report["worst"] <= tol and not below
    if args.out:
        doc = {"feasible": bool(report["feasible"]),
               "worst": float(report["worst"]),
               "blended_worst": float(report["blended_worst"]),
               "below_budget": below,
               "margins": {k: float(v) for k, v in report["margins"].items()}}
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"full margin report written to {args.out}")
    by_origin: dict = {}
    for key, margin in report["margins"].items():
        origin = key.split("[", 1)[0]
        by_origin[origin] = max(by_origin.get(origin, -np.inf), margin)
    for origin in sorted(by_origin):
        print(f"  {origin:<22} worst margin {by_origin[origin]: .3e}")
    print(f"  blended-grid sweep     worst margin {report['blended_worst']: .3e}")
    budget = ("set size below its disturbance budget N_i eta_i^2 at "
              f"subsystem(s) {', '.join(str(i + 1) for i in below)}"
              if below else "every set size covers N_i eta_i^2")
    print(f"  disturbance budget     {budget}")
    verdict = "FEASIBLE" if report["feasible"] else "INFEASIBLE"
    print(f"certificate on {cfg.name or args.config!r}: {verdict} "
          f"(overall worst {report['worst']:.3e})")
    if not report["feasible"]:
        _diag("infeasible", budget if below else
              "certificate conditions violated", worst=float(report["worst"]))
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_rpi_check(args) -> int:
    cfg = _resolve_config(args.config)
    dv, _doc = load_certificate(args.gains, cfg.system)
    report = rpi_monte_carlo(cfg.system, cfg.params, dv,
                             n_samples=args.samples, seed=args.seed,
                             tol=args.tol)
    print(f"robust-invariance sampling on {cfg.name or args.config!r}: "
          f"{report['n_samples']} samples")
    print(f"  pointwise condition violations: {report['scalar_violations']} "
          f"(worst value {report['worst_scalar']:.3e})")
    print(f"  set exits after one step:       {report['exit_events']} "
          f"(worst relative margin {report['worst_exit_margin']:.3e})")
    if not report["ok"]:
        _diag("infeasible", "invariance violated on sampled points",
              scalar_violations=report["scalar_violations"],
              exit_events=report["exit_events"])
        return EXIT_INFEASIBLE
    print("  verdict: invariant on every sample")
    return EXIT_OK


def cmd_configs(_args) -> int:
    for name in bundled_config_names():
        cfg = load_bundled_config(name)
        print(f"{name:<24} {cfg.n_subsystems} subsystems, "
              f"{cfg.simulation.steps} steps  - {cfg.name}")
    return EXIT_OK


def _integer(text: str, low: int) -> int:
    """An integer option value of at least `low`."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if not _is_integer(value, low):
        raise argparse.ArgumentTypeError(f"expected at least {low}, got {value}")
    return value


def _count(text: str) -> int:
    """A --samples value: an integer >= 1, so that a check checks something."""
    return _integer(text, 1)


def _natural(text: str) -> int:
    """A --steps or --seed value: an integer >= 0."""
    return _integer(text, 0)


def _finite(text: str) -> float:
    """A verdict --tol: a finite number (at inf or NaN every check passes)."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit EXIT_CONFIG: argparse's
    own code, 2, is this CLI's "infeasible". Subparsers are made of the
    same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        _diag("usage", f"{self.prog}: {message}")
        self.exit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="it2mpc",
        description="Decentralized robust MPC for interval type-2 fuzzy "
                    "large-scale systems: simulate, synthesize, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the closed loop from a config")
    p.add_argument("config", help="config file path or bundled name")
    p.add_argument("--out", help="write the trace CSV (plus summary JSON)")
    p.add_argument("--steps", type=_natural, help="override the step count")
    p.add_argument("--seed", type=_natural,
                   help="override the disturbance seed")
    p.add_argument("--resynth", choices=["once", "every-step"],
                   help="override the resynthesis mode")
    p.add_argument("--ignore-gains", action="store_true",
                   help="synthesize online even if the config carries gains")
    p.add_argument("--iss", action="store_true",
                   help="run the dissipation check on the finished trace")
    p.add_argument("--tol", type=float,
                   help="override the synthesis strictness margin")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("synthesize",
                       help="solve the offline stage and print/save gains")
    p.add_argument("config", help="config file path or bundled name")
    p.add_argument("--out", help="write the certificate JSON here")
    p.add_argument("--xi-mode", choices=XI_MODES,
                   help="override the set-size minimization mode")
    p.add_argument("--tol", type=float,
                   help="override the synthesis strictness margin")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify",
                       help="re-check a stored certificate against a config")
    p.add_argument("config", help="config file path or bundled name")
    p.add_argument("--gains", required=True,
                   help="certificate JSON produced by synthesize")
    p.add_argument("--out", help="write the full margin report JSON here")
    p.add_argument("--no-containment", action="store_true",
                   help="skip the initial-state containment conditions")
    p.add_argument("--tol", type=_finite,
                   help="feasibility verdict tolerance (default: exact 0)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rpi-check",
                       help="Monte-Carlo invariance check of a certificate")
    p.add_argument("config", help="config file path or bundled name")
    p.add_argument("--gains", required=True,
                   help="certificate JSON produced by synthesize")
    p.add_argument("--samples", type=_count, default=2000)
    p.add_argument("--seed", type=_natural, default=0)
    p.add_argument("--tol", type=_finite, default=1e-9)
    p.set_defaults(func=cmd_rpi_check)

    p = sub.add_parser("configs", help="list the bundled example configs")
    p.set_defaults(func=cmd_configs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _diag("config", str(exc))
        return EXIT_CONFIG
    except InitialInfeasible as exc:
        _diag("infeasible", str(exc), at_step=0)
        return EXIT_INFEASIBLE
    except RecursiveFeasibilityViolation as exc:
        _diag("infeasible", str(exc), at_step=exc.step)
        return EXIT_INFEASIBLE
    except Infeasible as exc:
        _diag("infeasible", str(exc),
              best_excess=getattr(exc, "best_excess", None))
        return EXIT_INFEASIBLE
    except (ValueError, FloatingPointError, np.linalg.LinAlgError,
            OSError) as exc:
        _diag("runtime", f"{type(exc).__name__}: {exc}")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
