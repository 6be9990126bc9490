"""Out-of-program timing for the benchmark: a layer tracer and a step hook.

Both work by rebinding attributes of the already-imported ``it2mpc``
modules and restoring them on exit; no file of the package changes.

``LayerTracer`` wraps every public function of each layer at *every*
``it2mpc.*`` module attribute that refers to it (``sym_eig`` is bound in
``linalg``, ``lmis`` and ``simulation``, for example), records one span
(layer, start, end, parent) per call in memory, and derives per-layer call
counts and self times from the spans afterwards.

``StepHook`` is the only instrumentation of an untraced run: a timestamp each
time ``simulation`` calls its own binding of ``step_closed_loop_detail``,
which the closed loop does exactly once per step.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# layer -> (module, attribute path) of each public function it covers
LAYERS = {
    "linalg.eig": [("it2mpc.linalg", name) for name in (
        "sym_eig", "min_eig", "max_eig", "is_psd", "is_nsd", "schur_reduce")],
    "lmis.vertex": [("it2mpc.lmis", "assemble_invariance"),
                    ("it2mpc.lmis", "assemble_decrease")],
    "lmis.blended": [("it2mpc.lmis", "assemble_invariance_blended"),
                     ("it2mpc.lmis", "assemble_decrease_blended")],
    "lmis.test_matrix": [("it2mpc.lmis", "LMIInstance.test_matrix")],
    "lmis.containment": [("it2mpc.lmis", "assemble_containment")],
    "synthesis.minimize_xi": [("it2mpc.synthesis", "minimize_xi")],
    "synthesis.certificate_margins": [("it2mpc.synthesis",
                                       "certificate_margins")],
    "synthesis.verify_certificate": [("it2mpc.synthesis",
                                      "verify_certificate")],
    "plant.step": [("it2mpc.plant", "step_closed_loop"),
                   ("it2mpc.plant", "step_closed_loop_detail"),
                   ("it2mpc.plant", "step_open_loop")],
    "membership.grades": [("it2mpc.membership", "IT2MembershipFamily." + name)
                          for name in ("lower_grades", "upper_grades",
                                       "true_grades")],
    "simulation.run_online_loop": [("it2mpc.simulation", "run_online_loop")],
    "simulation.rpi_monte_carlo": [("it2mpc.simulation", "rpi_monte_carlo")],
    "simulation.iss_check": [("it2mpc.simulation", "iss_check")],
    "configio.load": [("it2mpc.configio", name) for name in (
        "load_config", "load_bundled_config", "load_certificate",
        "parse_config")],
    "tracefile.write": [("it2mpc.tracefile", "write_trace")],
}


class _Rebinder:
    """Replace objects at module (or class) attributes; undo on restore()."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def rebind_everywhere(self, original, replacement) -> int:
        """Rebind every ``it2mpc.*`` module attribute that is `original`."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "it2mpc"
                                   or mod_name.startswith("it2mpc.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, name, replacement)
                    hits += 1
        return hits

    def restore(self):
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()


class LayerTracer:
    """Span recorder over the layers in LAYERS; use as a context manager."""

    def __init__(self):
        self.spans = []          # (layer, start, end, parent index or -1)
        self.bindings = {}       # "module.attr" -> bindings rebound
        self._stack = []
        self._rebinder = _Rebinder()

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (layer, start, end, parent)
        return traced

    def __enter__(self):
        for layer, targets in LAYERS.items():
            for mod_name, path in targets:
                owner = sys.modules[mod_name]
                if "." in path:          # a method: one binding, on the class
                    cls_name, name = path.split(".")
                    owner = getattr(owner, cls_name)
                    original = owner.__dict__[name]
                    self._rebinder.set(owner, name, self._wrap(layer, original))
                    hits = 1
                else:
                    name = path
                    original = getattr(owner, name)
                    hits = self._rebinder.rebind_everywhere(
                        original, self._wrap(layer, original))
                self.bindings[f"{mod_name}.{path}"] = hits
        return self

    def __exit__(self, *exc):
        self._rebinder.restore()
        return False

    def layer_stats(self) -> dict:
        """{layer: (calls, self_s)}. A call counts when it enters the layer
        from outside it, so min_eig -> sym_eig is one eigen-kernel call;
        self time is each span's duration minus its direct children's."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {layer: [0, 0.0] for layer in LAYERS}
        for idx, (layer, start, end, parent) in enumerate(self.spans):
            entry = stats[layer]
            if parent < 0 or self.spans[parent][0] != layer:
                entry[0] += 1
            entry[1] += (end - start) - child[idx]
        return {layer: (calls, self_s) for layer, (calls, self_s)
                in stats.items()}


class StepHook:
    """Timestamps at ``simulation.step_closed_loop_detail``, once per step."""

    def __init__(self):
        self.stamps = []
        self._rebinder = _Rebinder()

    def __enter__(self):
        import it2mpc.simulation as simulation

        inner = simulation.step_closed_loop_detail
        stamps = self.stamps

        @functools.wraps(inner)
        def stamped(*args, **kwargs):
            stamps.append(perf_counter())
            return inner(*args, **kwargs)

        self._rebinder.set(simulation, "step_closed_loop_detail", stamped)
        return self

    def __exit__(self, *exc):
        self._rebinder.restore()
        return False

    def step_seconds(self, start: float, n_steps: int) -> list:
        """Durations of the n_steps steps of the loop started at `start`:
        start -> first stamp, then stamp to stamp. Each step holds one
        re-minimization (if any) and one plant step. Raises if the hook did
        not fire exactly once per step, so a loop that bypasses it fails
        loudly instead of reading zero."""
        if len(self.stamps) != n_steps:
            raise RuntimeError(
                f"step hook fired {len(self.stamps)} times for {n_steps} "
                "steps; simulation no longer calls step_closed_loop_detail "
                "once per step")
        edges = [start] + self.stamps
        self.stamps.clear()
        return [b - a for a, b in zip(edges, edges[1:])]
