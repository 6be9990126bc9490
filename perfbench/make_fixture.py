"""Regenerate the stored example1 certificate the benchmark loads in set-up.

    python3 perfbench/make_fixture.py

Runs one cold common-mode ``minimize_xi`` on the bundled
``example1_synthesis`` config (its own synthesis settings, seed 0) and saves
the result with ``save_certificate`` under ``fixtures/``. The benchmark only
reads the file; rerun this when the certificate format changes.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "fixtures" / "example1_certificate.json"

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    import it2mpc

    cfg = it2mpc.load_bundled_config("example1_synthesis")
    result = it2mpc.minimize_xi(cfg.system, cfg.params, cfg.simulation.x0,
                                cfg.synthesis, mode="common")
    FIXTURE.parent.mkdir(exist_ok=True)
    it2mpc.save_certificate(result.dv, FIXTURE, margins=result.margins,
                            meta={"config": "example1_synthesis",
                                  "xi_mode": "common", "seed": cfg.synthesis.seed,
                                  "solves": result.solves})
    print(f"xi = {result.dv.xi[0]!r}, solves = {result.solves}, "
          f"worst margin = {max(result.margins.values()):.3e} -> {FIXTURE}")
