"""A ring of N copies of example1_synthesis, for tests and timings at scale.

Subsystem k copies example1_synthesis's subsystem s = k mod 3 and is coupled
to its ring neighbours k - 1 and k + 1 (mod N) through s's own two coupling
matrices: the one s has to s - 1 (mod 3) reads k - 1, the one to s + 1 reads
k + 1. So the ring of three is example1_synthesis itself. The constants (X,
lam, N_const, M, tau), the initial states and the stored example1
certificate's gains and set sizes are cycled the same way; Q, R and alpha
are shared. Every ring is one shape group.

    from ring import ring
    system, params, dv, x0 = ring(12)
"""

import dataclasses
import functools
from pathlib import Path

from it2mpc.configio import load_bundled_config, load_certificate
from it2mpc.lmis import DecisionVars
from it2mpc.plant import LargeScaleSystem

CERTIFICATE = (Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
               / "example1_certificate.json")


@functools.cache
def _source():
    cfg = load_bundled_config("example1_synthesis")
    dv, _ = load_certificate(CERTIFICATE, cfg.system)
    return cfg, dv


def ring(n: int):
    """(system, params, dv, x0) of the ring of n >= 3 copies, validated."""
    if n < 3:
        raise ValueError(f"a ring needs at least 3 subsystems, got {n}")
    cfg, dv = _source()
    base, params = cfg.system.subsystems, cfg.params
    subs = []
    for k in range(n):
        s = k % 3
        couplings = base[s].couplings
        subs.append(dataclasses.replace(base[s], couplings={
            (k - 1) % n: couplings[(s - 1) % 3],
            (k + 1) % n: couplings[(s + 1) % 3]}))
    system = LargeScaleSystem(subsystems=tuple(subs))
    system.validate()

    def cycled(seq):
        return [seq[k % 3] for k in range(n)]

    ring_params = dataclasses.replace(
        params, X=cycled(params.X), lam=cycled(params.lam),
        N_const=cycled(params.N_const), M=cycled(params.M),
        tau=cycled(params.tau))
    ring_params.validate()
    ring_dv = DecisionVars(gains=cycled(dv.gains), xi=cycled(dv.xi))
    ring_dv.validate()
    return system, ring_params, ring_dv, cycled(cfg.simulation.x0)
