"""JSON configuration ingestion: plant, constants, synthesis and simulation
settings, optional externally supplied gains, and the bundled example files.

Every load is eagerly validated with field-path error messages, and parsing
is idempotent: serialize_config emits the normalized document, so
parse -> serialize -> parse is the identity. Matrices are plain nested
lists; JSON doubles survive the round trip bit-exactly.

A load checks each thing once. A matrix or vector whose entries pass one
scan (exact JSON int or float, so never a bool, and finite, so never the
NaN or Infinity that json.loads reads) is converted by one numpy call;
only one that fails it is read entry by entry, so that the error names its
first bad entry. Each subsystem is validated in _parse_subsystem and the
system once all are parsed, which judges only the couplings again (a
value keeps a passing verdict); FixedParams.validate judges each matrix
family with one stacked eigensolve per shape. The settings values check
their own fields, and _checked maps a refused field to its path.

Schema conventions (documented in the repository README):
- subsystem ids, coupling keys, rule indices, and premise selectors are
  1-based in files and 0-based in memory;
- membership functions are named parameter records: "sigmoid" carries the
  curve parameters, "residual" completes a partition as one minus the sum
  of referenced sigmoid records.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from importlib import resources
from itertools import chain
from pathlib import Path

import numpy as np

from .lmis import DecisionVars, FixedParams
from .membership import IT2MembershipFamily, ResidualMF, SigmoidMF
from .plant import (FieldError, LargeScaleSystem, Rule, Subsystem, _is_finite,
                    _is_integer, _is_number, _shown)
from .simulation import DisturbanceModel, SimulationSettings
from .synthesis import SynthesisConfig

SCHEMA_VERSION = 1
_MF_TIERS = ("lower", "upper", "true")


class ConfigError(ValueError):
    """Config rejected; the message names the offending field path."""


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _checked(path: str, make, **fields):
    """make(**fields), with a ValueError it raises as the ConfigError of
    path, or of path.<field> for a settings value's FieldError."""
    try:
        return make(**fields)
    except FieldError as exc:
        _fail(f"{path}.{exc.field}", exc.reason)
    except ValueError as exc:
        _fail(path, str(exc))


def _expect(data, path: str, typ, typename: str):
    if not isinstance(data, typ):
        _fail(path, f"expected {typename}, got {type(data).__name__}")
    return data


# the exact types json.loads gives numbers; bool, an int subclass, is not one
_NUMBER_TYPES = frozenset({int, float})


def _number(data, path: str) -> float:
    if not _is_number(data):
        _fail(path, f"expected a number, got {type(data).__name__}")
    # json.loads reads NaN and Infinity, and integers no float holds
    if not _is_finite(data):
        _fail(path, f"expected a finite number, got {_shown(data)}")
    return float(data)


def _all_finite_numbers(entries: list) -> bool:
    """Whether every entry is a JSON number (never a bool) and finite. One
    NaN or infinite term makes the sum non-finite; a sum that overflows, or
    an int too large for a float, only sends the entries to the per-entry
    read, which names the first bad one."""
    if not _NUMBER_TYPES.issuperset(map(type, entries)):
        return False
    try:
        return math.isfinite(sum(entries, 0.0))
    except OverflowError:
        return False


def _matrix(data, path: str, rows: int | None = None,
            cols: int | None = None) -> np.ndarray:
    _expect(data, path, list, "a matrix (list of rows)")
    if not data or not all(isinstance(r, list) for r in data):
        _fail(path, "matrix must be a nonempty list of rows")
    width = len(data[0])
    if width == 0 or any(len(r) != width for r in data):
        _fail(path, "matrix rows must be nonempty and equal-length")
    entries = list(chain.from_iterable(data))
    if _all_finite_numbers(entries):
        out = np.array(data, dtype=float)
    else:   # entry by entry, naming the first one that is not a finite number
        out = np.array([[_number(v, f"{path}[{i + 1}][{j + 1}]")
                         for j, v in enumerate(row)]
                        for i, row in enumerate(data)])
    if rows is not None and out.shape[0] != rows:
        _fail(path, f"expected {rows} rows, got {out.shape[0]}")
    if cols is not None and out.shape[1] != cols:
        _fail(path, f"expected {cols} columns, got {out.shape[1]}")
    return out


def _vector(data, path: str, length: int | None = None) -> np.ndarray:
    _expect(data, path, list, "a vector (list of numbers)")
    if _all_finite_numbers(data):
        out = np.array(data, dtype=float)
    else:   # entry by entry, naming the first one that is not a finite number
        out = np.array([_number(v, f"{path}[{i + 1}]")
                        for i, v in enumerate(data)])
    if length is not None and out.size != length:
        _fail(path, f"expected {length} entries, got {out.size}")
    return out


def _keys_subset(data: dict, path: str, allowed, required=()):
    extra = set(data) - set(allowed)
    if extra:
        _fail(path, f"unknown field(s) {sorted(extra)}; allowed: {sorted(allowed)}")
    for key in required:
        if key not in data:
            _fail(path, f"missing required field {key!r}")


# ---------------------------------------------------------------------------
# membership records

_SIGMOID_FIELDS = ("kind", "shift", "divisor", "form", "complemented",
                   "perturb_amplitude")
_RESIDUAL_FIELDS = ("kind", "of")


def _parse_sigmoid(rec: dict, path: str) -> SigmoidMF:
    _keys_subset(rec, path, _SIGMOID_FIELDS, required=("kind", "shift", "divisor"))
    # each field names its own path; SigmoidMF's errors name the record's
    return _checked(
        path, SigmoidMF,
        shift=_number(rec["shift"], f"{path}.shift"),
        divisor=_number(rec["divisor"], f"{path}.divisor"),
        form=rec.get("form", "one_minus_logistic"),
        complemented=_expect(rec.get("complemented", False),
                             f"{path}.complemented", bool, "true or false"),
        perturb_amplitude=_number(rec.get("perturb_amplitude", 0.0),
                                  f"{path}.perturb_amplitude"))


def _parse_mf_family(data: dict, path: str, require_true: bool) -> IT2MembershipFamily:
    _keys_subset(_expect(data, path, dict, "an object"), path, _MF_TIERS,
                 required=("lower", "upper"))
    records = {}
    for tier in _MF_TIERS:
        if tier not in data or data[tier] is None:
            continue
        recs = _expect(data[tier], f"{path}.{tier}", list, "a list of records")
        records[tier] = recs
    counts = {len(v) for v in records.values()}
    if len(counts) != 1:
        _fail(path, "all tiers must list the same number of rules")

    sigmoids: dict[tuple, SigmoidMF] = {}
    for tier, recs in records.items():
        for r, rec in enumerate(recs):
            rec_path = f"{path}.{tier}[{r + 1}]"
            _expect(rec, rec_path, dict, "an object")
            if rec.get("kind") == "sigmoid":
                sigmoids[(tier, r)] = _parse_sigmoid(rec, rec_path)
            elif rec.get("kind") != "residual":
                _fail(rec_path, f"unknown membership kind {rec.get('kind')!r}")

    def resolve(tier: str, r: int, rec: dict):
        rec_path = f"{path}.{tier}[{r + 1}]"
        if rec["kind"] == "sigmoid":
            return sigmoids[(tier, r)]
        _keys_subset(rec, rec_path, _RESIDUAL_FIELDS, required=("kind", "of"))
        refs = _expect(rec["of"], f"{rec_path}.of", list, "a list of references")
        others = []
        for n, ref in enumerate(refs):
            ref_path = f"{rec_path}.of[{n + 1}]"
            _keys_subset(_expect(ref, ref_path, dict, "an object"), ref_path,
                         ("tier", "rule"), required=("tier", "rule"))
            t, rule = ref["tier"], ref["rule"]
            if t not in records:
                _fail(ref_path, f"tier {t!r} not present in this family")
            if not (_is_integer(rule, 1) and rule <= len(records[t])):
                _fail(ref_path, f"rule must be in 1..{len(records[t])}")
            if (t, rule - 1) not in sigmoids:
                _fail(ref_path, "residual records may reference only sigmoid records")
            others.append(sigmoids[(t, rule - 1)])
        return ResidualMF(tuple(others))

    tiers = {tier: tuple(resolve(tier, r, rec) for r, rec in enumerate(recs))
             for tier, recs in records.items()}
    if require_true and "true" not in tiers:
        _fail(path, "model membership family needs a 'true' tier for simulation")
    return _checked(path, IT2MembershipFamily, lower=tiers["lower"],
                    upper=tiers["upper"], true_mf=tiers.get("true"))


# ---------------------------------------------------------------------------
# sections

@dataclass(frozen=True)
class SystemConfig:
    """Validated configuration: built objects plus the normalized document
    (`data`, serialized on first read)."""

    schema_version: int
    name: str
    notes: list
    Ts: float
    system: LargeScaleSystem
    params: FixedParams
    synthesis: SynthesisConfig
    simulation: SimulationSettings
    gains: list | None

    @property
    def n_subsystems(self) -> int:
        return self.system.n_subsystems

    @functools.cached_property
    def data(self) -> dict:
        return serialize_config(self)


_SUBSYSTEM_FIELDS = ("rules", "couplings", "model_mfs", "controller_mfs",
                     "u_max", "eta", "H", "premise_selector")


def _parse_subsystem(data: dict, path: str, need_true_mfs: bool) -> Subsystem:
    _expect(data, path, dict, "an object")
    _keys_subset(data, path, _SUBSYSTEM_FIELDS,
                 required=("rules", "model_mfs", "controller_mfs", "eta"))
    rules_data = _expect(data["rules"], f"{path}.rules", list, "a list of rules")
    if not rules_data:
        _fail(f"{path}.rules", "at least one rule is required")
    rules = []
    for r, rec in enumerate(rules_data):
        rule_path = f"{path}.rules[{r + 1}]"
        _keys_subset(_expect(rec, rule_path, dict, "an object"), rule_path,
                     ("A", "B", "E"), required=("A", "B", "E"))
        rules.append(Rule(A=_matrix(rec["A"], f"{rule_path}.A"),
                          B=_matrix(rec["B"], f"{rule_path}.B"),
                          E=_matrix(rec["E"], f"{rule_path}.E")))

    couplings = {}
    for key, g in _expect(data.get("couplings", {}), f"{path}.couplings",
                          dict, "an object").items():
        try:
            j = int(key)
        except ValueError:
            _fail(f"{path}.couplings", f"key {key!r} is not a subsystem id")
        couplings[j - 1] = _matrix(g, f"{path}.couplings[{key}]")

    u_max = data.get("u_max")
    if u_max is not None:
        u_max = _vector(u_max, f"{path}.u_max")
    h = data.get("H")
    if h is not None:
        h = _matrix(h, f"{path}.H")
    selector = data.get("premise_selector", 1)
    if not _is_integer(selector, 1):
        _fail(f"{path}.premise_selector", "expected a 1-based state index")

    sub = Subsystem(
        rules=rules,
        couplings=couplings,
        model_mfs=_parse_mf_family(data["model_mfs"], f"{path}.model_mfs",
                                   require_true=need_true_mfs),
        controller_mfs=_parse_mf_family(data["controller_mfs"],
                                        f"{path}.controller_mfs",
                                        require_true=False),
        u_max=u_max,
        eta=_number(data["eta"], f"{path}.eta"),
        H=h,
        premise_selector=selector - 1,
    )
    _checked(path, sub.validate)
    return sub


_PARAM_FIELDS = ("X", "lam", "N_const", "M", "tau", "Q", "R", "alpha")


def _parse_params(data: dict, path: str, n: int,
                  subsystems: list) -> FixedParams:
    _expect(data, path, dict, "an object")
    _keys_subset(data, path, _PARAM_FIELDS, required=_PARAM_FIELDS)

    def per_sub_matrices(field_name, dims):
        seq = _expect(data[field_name], f"{path}.{field_name}", list,
                      "one matrix per subsystem")
        if len(seq) != n:
            _fail(f"{path}.{field_name}", f"expected {n} entries, got {len(seq)}")
        return [_matrix(m, f"{path}.{field_name}[{i + 1}]", dims[i], dims[i])
                for i, m in enumerate(seq)]

    def shared_or_per_sub(field_name, dims):
        raw = data[field_name]
        if raw and isinstance(raw, list) and isinstance(raw[0], list) \
                and raw[0] and isinstance(raw[0][0], list):
            return per_sub_matrices(field_name, dims)
        if len(set(dims)) != 1:
            _fail(f"{path}.{field_name}",
                  "shared matrix needs equal dimensions across subsystems")
        return _matrix(raw, f"{path}.{field_name}", dims[0], dims[0])

    def scalar_list(field_name):
        seq = _expect(data[field_name], f"{path}.{field_name}", list,
                      "one number per subsystem")
        if len(seq) != n:
            _fail(f"{path}.{field_name}", f"expected {n} entries, got {len(seq)}")
        return [_number(v, f"{path}.{field_name}[{i + 1}]")
                for i, v in enumerate(seq)]

    nx = [sub.n_x for sub in subsystems]
    nu = [sub.n_u for sub in subsystems]
    params = FixedParams(
        X=per_sub_matrices("X", nx),
        lam=scalar_list("lam"),
        N_const=scalar_list("N_const"),
        M=per_sub_matrices("M", nu),
        tau=scalar_list("tau"),
        Q=shared_or_per_sub("Q", nx),
        R=shared_or_per_sub("R", nu),
        alpha=_number(data["alpha"], f"{path}.alpha"),
    )
    _checked(path, params.validate)
    return params


# accepted and dropped: input_margin sized the retired input certificate Z,
# the others tuned the retired derivative-free gain search and xi bisection
_RETIRED_SYNTHESIS = {"input_margin", "n_starts", "max_iters", "init_step",
                      "min_step", "step_grow", "step_shrink", "start_scale",
                      "xi_rel_tol", "xi_growth_iters", "rescue_evals"}


def _parse_synthesis(data: dict, path: str) -> SynthesisConfig:
    _expect(data, path, dict, "an object")
    data = {key: v for key, v in data.items() if key not in _RETIRED_SYNTHESIS}
    _keys_subset(data, path, [f.name for f in dataclasses.fields(SynthesisConfig)])
    return _checked(path, SynthesisConfig, **data)


def _parse_simulation(data: dict, path: str, subsystems: list) -> SimulationSettings:
    _expect(data, path, dict, "an object")
    _keys_subset(data, path, [f.name for f in dataclasses.fields(SimulationSettings)],
                 required=("x0",))
    x0_data = _expect(data["x0"], f"{path}.x0", list, "one vector per subsystem")
    if len(x0_data) != len(subsystems):
        _fail(f"{path}.x0", f"expected {len(subsystems)} vectors, got {len(x0_data)}")
    x0 = [_vector(v, f"{path}.x0[{i + 1}]", subsystems[i].n_x)
          for i, v in enumerate(x0_data)]

    dist_path = f"{path}.disturbance"
    dist_data = dict(_expect(data.get("disturbance", {"kind": "uniform_ball"}),
                             dist_path, dict, "an object"))
    _keys_subset(dist_data, dist_path,
                 [f.name for f in dataclasses.fields(DisturbanceModel)],
                 required=("kind",))
    if dist_data.get("radii") is not None:
        dist_data["radii"] = _vector(dist_data["radii"], f"{dist_path}.radii",
                                     len(subsystems))
    rho_bar = data.get("rho_bar")
    return _checked(
        path, SimulationSettings, x0=x0, steps=data.get("steps", 100),
        disturbance=_checked(dist_path, DisturbanceModel, **dist_data),
        resynth=data.get("resynth", "every_step"),
        mu_bar=_number(data.get("mu_bar", 0.5), f"{path}.mu_bar"),
        mode=data.get("mode", "true_plant"),
        rho_bar=None if rho_bar is None else _number(rho_bar, f"{path}.rho_bar"))


def _parse_gains(data, path: str, subsystems: list) -> list:
    seq = _expect(data, path, list, "one gain list per subsystem")
    if len(seq) != len(subsystems):
        _fail(path, f"expected {len(subsystems)} entries, got {len(seq)}")
    out = []
    for i, (sub, gains_i) in enumerate(zip(subsystems, seq)):
        gpath = f"{path}[{i + 1}]"
        glist = _expect(gains_i, gpath, list, "one gain matrix per controller rule")
        if len(glist) != sub.n_controller_rules:
            _fail(gpath, f"expected {sub.n_controller_rules} gain matrices, "
                         f"got {len(glist)}")
        out.append([_matrix(k, f"{gpath}[{m + 1}]", sub.n_u, sub.n_x)
                    for m, k in enumerate(glist)])
    return out


_TOP_FIELDS = ("schema_version", "name", "notes", "Ts", "subsystems",
               "fixed_params", "synthesis", "simulation", "gains")


def parse_config(data: dict, source: str = "<config>") -> SystemConfig:
    """Validate a parsed JSON document and build the working objects."""
    _expect(data, source, dict, "a JSON object")
    _keys_subset(data, source, _TOP_FIELDS,
                 required=("schema_version", "subsystems", "fixed_params",
                           "simulation"))
    version = data["schema_version"]
    if version != SCHEMA_VERSION:
        _fail(f"{source}.schema_version",
              f"unsupported version {version!r}; this build reads {SCHEMA_VERSION}")

    subs_data = _expect(data["subsystems"], f"{source}.subsystems", list,
                        "a list of subsystems")
    if not subs_data:
        _fail(f"{source}.subsystems", "at least one subsystem is required")
    mode = data["simulation"].get("mode", "true_plant") \
        if isinstance(data["simulation"], dict) else "true_plant"
    subsystems = [
        _parse_subsystem(s, f"{source}.subsystems[{i + 1}]",
                         need_true_mfs=(mode == "true_plant"))
        for i, s in enumerate(subs_data)]
    system = LargeScaleSystem(subsystems=subsystems)
    # each subsystem keeps the verdict of its validate in _parse_subsystem,
    # so only the couplings are judged here
    _checked(f"{source}.subsystems", system.validate)

    params = _parse_params(data["fixed_params"], f"{source}.fixed_params",
                           len(subsystems), subsystems)
    synthesis = _parse_synthesis(data.get("synthesis", {}), f"{source}.synthesis")
    simulation = _parse_simulation(data["simulation"], f"{source}.simulation",
                                   subsystems)
    gains = None
    if data.get("gains") is not None:
        gains = _parse_gains(data["gains"], f"{source}.gains", subsystems)

    notes = data.get("notes", [])
    if not isinstance(notes, list) or not all(isinstance(v, str) for v in notes):
        _fail(f"{source}.notes", "expected a list of strings")
    ts = _number(data.get("Ts", 0.2), f"{source}.Ts")
    if ts <= 0:
        _fail(f"{source}.Ts", "sampling time must be positive")

    return SystemConfig(
        schema_version=SCHEMA_VERSION,
        name=str(data.get("name", "")),
        notes=list(notes),
        Ts=ts,
        system=system,
        params=params,
        synthesis=synthesis,
        simulation=simulation,
        gains=gains,
    )


def _read_json(path: Path, what: str):
    """The JSON document in a config or certificate file (`what`)."""
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def load_config(path) -> SystemConfig:
    """Read, parse, and validate a JSON config file."""
    path = Path(path)
    return parse_config(_read_json(path, "config"), source=path.name)


def _serialize_mf(mf) -> dict:
    if isinstance(mf, SigmoidMF):
        rec = {"kind": "sigmoid", "shift": mf.shift, "divisor": mf.divisor}
        if mf.form != "one_minus_logistic":
            rec["form"] = mf.form
        if mf.complemented:
            rec["complemented"] = True
        if mf.perturb_amplitude != 0.0:
            rec["perturb_amplitude"] = mf.perturb_amplitude
        return rec
    raise ConfigError(f"cannot serialize membership record {type(mf).__name__}")


def _serialize_family(fam: IT2MembershipFamily) -> dict:
    tiers = {"lower": fam.lower, "upper": fam.upper}
    if fam.true_mf is not None:
        tiers["true"] = fam.true_mf
    # invert residual references against the sigmoid entries
    index = {}
    for tier, mfs in tiers.items():
        for r, mf in enumerate(mfs):
            if isinstance(mf, SigmoidMF):
                index[id(mf)] = {"tier": tier, "rule": r + 1}
    out = {}
    for tier, mfs in tiers.items():
        recs = []
        for mf in mfs:
            if isinstance(mf, ResidualMF):
                refs = []
                for other in mf.others:
                    if id(other) not in index:
                        raise ConfigError(
                            "residual membership references a grade outside "
                            "this family; not serializable")
                    refs.append(index[id(other)])
                recs.append({"kind": "residual", "of": refs})
            else:
                recs.append(_serialize_mf(mf))
        out[tier] = recs
    return out


def serialize_config(cfg: SystemConfig) -> dict:
    """Normalized JSON document for a validated config."""
    subs = []
    for sub in cfg.system.subsystems:
        entry = {
            "rules": [{"A": r.A.tolist(), "B": r.B.tolist(), "E": r.E.tolist()}
                      for r in sub.rules],
            "couplings": {str(j + 1): g.tolist()
                          for j, g in sorted(sub.couplings.items())},
            "model_mfs": _serialize_family(sub.model_mfs),
            "controller_mfs": _serialize_family(sub.controller_mfs),
            "u_max": None if sub.u_max is None else sub.u_max.tolist(),
            "eta": sub.eta,
            "H": None if sub.H is None else sub.H.tolist(),
            "premise_selector": sub.premise_selector + 1,
        }
        subs.append(entry)

    def q_or_r(value):
        if isinstance(value, (list, tuple)):
            return [np.asarray(m).tolist() for m in value]
        return np.asarray(value).tolist()

    params = {
        "X": [np.asarray(x).tolist() for x in cfg.params.X],
        "lam": list(cfg.params.lam),
        "N_const": list(cfg.params.N_const),
        "M": [np.asarray(m).tolist() for m in cfg.params.M],
        "tau": list(cfg.params.tau),
        "Q": q_or_r(cfg.params.Q),
        "R": q_or_r(cfg.params.R),
        "alpha": cfg.params.alpha,
    }
    synthesis = dataclasses.asdict(cfg.synthesis)
    sim = cfg.simulation
    simulation = {
        "x0": [np.asarray(v).tolist() for v in sim.x0],
        "steps": sim.steps,
        "disturbance": {
            "kind": sim.disturbance.kind,
            "seed": sim.disturbance.seed,
            "radii": None if sim.disturbance.radii is None
            else list(sim.disturbance.radii),
        },
        "resynth": sim.resynth,
        "mu_bar": sim.mu_bar,
        "mode": sim.mode,
        "rho_bar": sim.rho_bar,
    }
    gains = None
    if cfg.gains is not None:
        gains = [[np.asarray(k).tolist() for k in g] for g in cfg.gains]
    return {
        "schema_version": cfg.schema_version,
        "name": cfg.name,
        "notes": list(cfg.notes),
        "Ts": cfg.Ts,
        "subsystems": subs,
        "fixed_params": params,
        "synthesis": synthesis,
        "simulation": simulation,
        "gains": gains,
    }


def save_config(cfg: SystemConfig, path):
    Path(path).write_text(json.dumps(serialize_config(cfg), indent=2) + "\n")


def save_certificate(dv, path, margins=None, meta=None):
    """Persist a synthesized certificate (gains and set sizes) with
    optional margin map and run metadata."""
    doc = {
        "kind": "certificate",
        "xi": [float(v) for v in dv.xi],
        "gains": [[np.asarray(k).tolist() for k in g] for g in dv.gains],
    }
    if margins is not None:
        doc["margins"] = {key: float(v) for key, v in margins.items()}
        doc["worst"] = float(max(margins.values()))
    if meta:
        doc["meta"] = dict(meta)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_certificate(path, system: LargeScaleSystem):
    """Read a certificate file back into decision variables for `system`.

    Returns (DecisionVars, doc): one set size per subsystem, and the gains
    read as a config's (_parse_gains). Older files' "Z" is ignored."""
    path = Path(path)
    doc = _read_json(path, "certificate")
    src = path.name
    _expect(doc, src, dict, "a JSON object")
    if doc.get("kind") != "certificate":
        _fail(src, "not a certificate file (kind != 'certificate')")
    # any other field (margins, meta, an older file's Z) is kept, unread
    _keys_subset(doc, src, allowed=doc, required=("xi", "gains"))
    xi = [_number(v, f"{src}.xi[{i + 1}]") for i, v in enumerate(
        _expect(doc["xi"], f"{src}.xi", list, "one set size per subsystem"))]
    if len(xi) != system.n_subsystems:
        _fail(src, f"certificate covers {len(xi)} subsystems, "
                   f"config has {system.n_subsystems}")
    gains = _parse_gains(doc["gains"], f"{src}.gains", system.subsystems)
    dv = DecisionVars(gains=gains, xi=xi)
    dv.validate()
    return dv, doc


def bundled_config_names() -> list:
    """Names of the example configs shipped inside the package."""
    root = resources.files("it2mpc") / "configs"
    return sorted(p.name[:-len(".json")] for p in root.iterdir()
                  if p.name.endswith(".json"))


def load_bundled_config(name: str) -> SystemConfig:
    """Load a packaged example config by bare name (e.g. "example1")."""
    root = resources.files("it2mpc") / "configs"
    candidate = root / f"{name}.json"
    if not candidate.is_file():
        raise ConfigError(f"no bundled config named {name!r}; "
                          f"available: {bundled_config_names()}")
    data = json.loads(candidate.read_text())
    return parse_config(data, source=f"{name}.json")
