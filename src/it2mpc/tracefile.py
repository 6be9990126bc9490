"""Trace persistence: per-step CSV (lossless %.17g floats) plus a JSON
summary sidecar with run-level facts.

One CSV row per executed step k, holding the state the step acted on, the
applied inputs and disturbances, certificate values, stage cost, and the
feasibility flags. The terminal state and certificate values appear in the
sidecar, not as an extra row.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .simulation import SimulationTrace


def _fmt(v: float) -> str:
    return "%.17g" % float(v)


def sidecar_path(path) -> Path:
    """Summary-file path paired with a trace CSV path."""
    return Path(path).with_suffix(".summary.json")


def trace_columns(trace: SimulationTrace) -> list:
    """Column names for a trace's CSV, derived from its own shapes."""
    x0 = trace.x[0]
    parts = [("x", x0)]
    if trace.n_steps:  # a zero-step trace has no input/disturbance columns
        parts += [("u", trace.u[0]), ("d", trace.d[0])]
    cols = ["k", "t"] + [f"{name}{i + 1}_{c + 1}" for name, vecs in parts
                         for i, vec in enumerate(vecs) for c in range(len(vec))]
    n = len(x0)
    cols += [f"V{i + 1}" for i in range(n)]
    cols += [f"xi{i + 1}" for i in range(n)]
    cols += ["psi", "worst_margin", "feasible", "resynthesized"]
    return cols


def summarize_trace(trace: SimulationTrace) -> dict:
    """Run-level facts: terminal norms, certificate sizes, flag counts."""
    x_final = trace.x[-1]
    out = {
        "n_steps": trace.n_steps,
        "Ts": trace.Ts,
        "n_subsystems": len(x_final),
        "solves": trace.solves,
        "final_state_norm": [float(np.linalg.norm(x)) for x in x_final],
        "peak_state_norm": [
            float(max(np.linalg.norm(xk[i]) for xk in trace.x))
            for i in range(len(x_final))],
        "final_V": np.asarray(trace.V[-1], dtype=float).tolist(),
        "final_xi": (np.asarray(trace.xi[-1], dtype=float).tolist()
                     if trace.xi else None),
        "infeasible_steps": int(sum(not f for f in trace.feasible)),
        "resynth_count": int(sum(bool(r) for r in trace.resynthesized)),
        "worst_margin_overall": (float(max(trace.worst_margin))
                                 if trace.worst_margin else None),
        "total_stage_cost": float(sum(trace.psi)),
    }
    out.update({k: v for k, v in trace.meta.items() if k not in out})
    return out


def write_trace(trace: SimulationTrace, path) -> Path:
    """Write the CSV and its summary sidecar; returns the sidecar path."""
    trace.validate()
    path = Path(path)
    cols = trace_columns(trace)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for k in range(trace.n_steps):
            row = [str(k), _fmt(k * trace.Ts)]
            for vec in (*trace.x[k], *trace.u[k], *trace.d[k], trace.V[k]):
                row += [_fmt(v) for v in vec]
            row += [_fmt(v) for v in trace.xi[k]]
            row += [_fmt(trace.psi[k]), _fmt(trace.worst_margin[k]),
                    str(int(bool(trace.feasible[k]))),
                    str(int(bool(trace.resynthesized[k])))]
            writer.writerow(row)
    side = sidecar_path(path)
    side.write_text(json.dumps(summarize_trace(trace), indent=2) + "\n")
    return side


def read_trace(path) -> dict:
    """Load a trace CSV (and sidecar if present) back into arrays.

    Returns {"columns": [...], "data": float ndarray (may be empty),
    "summary": dict or None}. The k/feasible/resynthesized columns come back
    as floats; cast as needed.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            cols = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty trace file") from None
        rows = [[float(v) for v in row] for row in reader]
    data = (np.array(rows) if rows
            else np.empty((0, len(cols))))
    side = sidecar_path(path)
    summary = json.loads(side.read_text()) if side.is_file() else None
    return {"columns": cols, "data": data, "summary": summary}
