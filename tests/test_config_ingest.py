"""Config and certificate ingestion: bulk conversion with per-entry errors.

A load converts each matrix and vector with one numpy call once a type scan
finds only JSON numbers, and judges each family of fixed-parameter matrices
with one stacked eigensolve per shape. Neither may change what a load
returns or what it raises: the tables below pin the exception type and the
exact message of malformed input, and the bundled configs are compared
entry by entry, as float hex, with a per-entry reference parse."""

import hashlib
import json
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_config_doc
from it2mpc.configio import (ConfigError, bundled_config_names,
                             load_bundled_config, load_certificate,
                             parse_config, serialize_config)
from it2mpc.linalg import InvalidMatrixError
from it2mpc.lmis import FixedParams
from it2mpc.membership import SigmoidMF
from it2mpc.plant import FieldError
from it2mpc.simulation import DisturbanceModel, SimulationSettings
from it2mpc.synthesis import SynthesisConfig

FIXTURE = (Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
           / "example1_certificate.json")
BIG = 10 ** 400                     # a JSON integer no float can hold
BIG_SHOWN = "an integer of 401 digits"      # as a message shows it
A = ("subsystems", 0, "rules", 0, "A")
SIG = ("subsystems", 0, "model_mfs", "upper", 1)
REF = ("subsystems", 0, "model_mfs", "lower", 1, "of", 0)
A_PATH = "<config>.subsystems[1].rules[1].A"
SIG_PATH = "<config>.subsystems[1].model_mfs.upper[2]"
REF_PATH = "<config>.subsystems[1].model_mfs.lower[2].of[1]"


def _set(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _with_residual(doc):
    """The tiny doc with model lower rule 2 a residual of lower rule 1."""
    doc["subsystems"][0]["model_mfs"]["lower"][1] = {
        "kind": "residual", "of": [{"tier": "lower", "rule": 1}]}
    return doc


def _not_a_number(path, typename):
    return ConfigError, f"{path}: expected a number, got {typename}"


def _not_finite(path, shown):
    return ConfigError, f"{path}: expected a finite number, got {shown}"


def _not_a_set_size(path, shown):
    return ConfigError, f"{path}: expected a set size > 0, got {shown}"


RAGGED = (ConfigError, f"{A_PATH}: matrix rows must be nonempty and "
                       "equal-length")

CONFIG_CASES = [
    # matrices
    (A + (0, 1), True, _not_a_number(f"{A_PATH}[1][2]", "bool")),
    (A + (0, 1), "0.1", _not_a_number(f"{A_PATH}[1][2]", "str")),
    (A + (0, 1), None, _not_a_number(f"{A_PATH}[1][2]", "NoneType")),
    (A + (0, 1), [0.1], _not_a_number(f"{A_PATH}[1][2]", "list")),
    (A, [[0.5, 0.1], [0.0]], RAGGED),
    (A, [[], []], RAGGED),
    (A, [[0.5, 0.1], []], RAGGED),
    (A + (1, 0), BIG, _not_finite(f"{A_PATH}[2][1]", BIG_SHOWN)),
    # the first bad entry in row-major order decides, across rows too
    (A, [[BIG, 0.1], [True, 0.4]], _not_finite(f"{A_PATH}[1][1]", BIG_SHOWN)),
    (A, [[True, 0.1], [BIG, 0.4]], _not_a_number(f"{A_PATH}[1][1]", "bool")),
    (A, [[0.5, BIG], [0.0, "x"]], _not_finite(f"{A_PATH}[1][2]", BIG_SHOWN)),
    (A, "x", (ConfigError, f"{A_PATH}: expected a matrix (list of rows), "
                           "got str")),
    (A, [], (ConfigError, f"{A_PATH}: matrix must be a nonempty list of "
                          "rows")),
    (A, [1.0, 2.0], (ConfigError, f"{A_PATH}: matrix must be a nonempty "
                                  "list of rows")),
    (("fixed_params", "X", 0, 1, 1), False,
     _not_a_number("<config>.fixed_params.X[1][2][2]", "bool")),
    (("fixed_params", "Q", 0, 0), None,
     _not_a_number("<config>.fixed_params.Q[1][1]", "NoneType")),
    # vectors and scalar lists
    (("subsystems", 0, "u_max", 1), True,
     _not_a_number("<config>.subsystems[1].u_max[2]", "bool")),
    (("subsystems", 0, "u_max", 0), None,
     _not_a_number("<config>.subsystems[1].u_max[1]", "NoneType")),
    (("subsystems", 0, "u_max"), [10.0, BIG],
     _not_finite("<config>.subsystems[1].u_max[2]", BIG_SHOWN)),
    (("subsystems", 0, "u_max"), [10.0, [1.0]],
     _not_a_number("<config>.subsystems[1].u_max[2]", "list")),
    (("subsystems", 0, "u_max"), [],
     (ConfigError, "<config>.subsystems[1]: u_max must be positive with one "
                   "entry per input channel")),
    (("simulation", "x0", 0, 1), "x",
     _not_a_number("<config>.simulation.x0[1][2]", "str")),
    (("simulation", "x0", 0), [BIG, True],
     _not_finite("<config>.simulation.x0[1][1]", BIG_SHOWN)),
    (("simulation", "x0", 0), [True, BIG],
     _not_a_number("<config>.simulation.x0[1][1]", "bool")),
    (("fixed_params", "lam", 0), True,
     _not_a_number("<config>.fixed_params.lam[1]", "bool")),
    # sigmoid records: a bad number names its own field's path, once
    (SIG + ("shift",), True,
     _not_a_number(f"{SIG_PATH}.shift", "bool")),
    (SIG + ("shift",), "0.5",
     _not_a_number(f"{SIG_PATH}.shift", "str")),
    (SIG + ("divisor",), None,
     _not_a_number(f"{SIG_PATH}.divisor", "NoneType")),
    (SIG + ("divisor",), [0.4],
     _not_a_number(f"{SIG_PATH}.divisor", "list")),
    (SIG + ("perturb_amplitude",), BIG,
     _not_finite(f"{SIG_PATH}.perturb_amplitude", BIG_SHOWN)),
    (SIG + ("shift",), BIG, _not_finite(f"{SIG_PATH}.shift", BIG_SHOWN)),
    (("fixed_params", "alpha"), BIG,
     _not_finite("<config>.fixed_params.alpha", BIG_SHOWN)),
    (("synthesis", "strictness"), BIG,
     (ConfigError, "<config>.synthesis.strictness: must be a finite number "
                   f">= 0, got {BIG_SHOWN}")),
    (SIG + ("divisor",), 0, (ConfigError, f"{SIG_PATH}: divisor must be "
                                          "nonzero")),
    (SIG + ("form",), "bogus", (ConfigError, f"{SIG_PATH}: unknown form "
                                             "'bogus'")),
    (SIG + ("extra",), 1,
     (ConfigError, f"{SIG_PATH}: unknown field(s) ['extra']; allowed: "
                   "['complemented', 'divisor', 'form', 'kind', "
                   "'perturb_amplitude', 'shift']")),
    (SIG + ("kind",), "bogus",
     (ConfigError, f"{SIG_PATH}: unknown membership kind 'bogus'")),
    (SIG + ("kind",), None,
     (ConfigError, f"{SIG_PATH}: unknown membership kind None")),
    (("subsystems", 0, "model_mfs", "upper", 0), "sigmoid",
     (ConfigError, "<config>.subsystems[1].model_mfs.upper[1]: expected an "
                   "object, got str")),
    (("subsystems", 0, "model_mfs", "upper", 0),
     {"kind": "sigmoid", "shift": 1.0},
     (ConfigError, "<config>.subsystems[1].model_mfs.upper[1]: missing "
                   "required field 'divisor'")),
]

OUT_OF_RANGE = (ConfigError, f"{REF_PATH}: rule must be in 1..2")

RESIDUAL_CASES = [
    (REF + ("rule",), "1", OUT_OF_RANGE),
    (REF + ("rule",), None, OUT_OF_RANGE),
    (REF + ("rule",), [1], OUT_OF_RANGE),
    (REF + ("rule",), BIG, OUT_OF_RANGE),
    (REF + ("rule",), 0, OUT_OF_RANGE),
    (REF + ("rule",), 3, OUT_OF_RANGE),
    (REF + ("rule",), 2,
     (ConfigError, f"{REF_PATH}: residual records may reference only "
                   "sigmoid records")),
    (REF + ("tier",), "bogus",
     (ConfigError, f"{REF_PATH}: tier 'bogus' not present in this family")),
    (REF + ("tier",), ["lower"], (TypeError, "unhashable type: 'list'")),
    (REF[:-1], [{"tier": "lower"}],
     (ConfigError, f"{REF_PATH}: missing required field 'rule'")),
    (REF[:-1], ["x"], (ConfigError, f"{REF_PATH}: expected an object, "
                                    "got str")),
    (REF[:-1], "x",
     (ConfigError, "<config>.subsystems[1].model_mfs.lower[2].of: expected "
                   "a list of references, got str")),
    (REF[:-2] + ("extra",), 1,
     (ConfigError, "<config>.subsystems[1].model_mfs.lower[2]: unknown "
                   "field(s) ['extra']; allowed: ['kind', 'of']")),
    (REF + ("rule",), True, OUT_OF_RANGE),      # a bool is not a rule number
]

G = ("gains", 1, 0)
G_PATH = "cert.json.gains[2][1]"

CERTIFICATE_CASES = [
    (G + (0, 1), True, _not_a_number(f"{G_PATH}[1][2]", "bool")),
    (G + (0, 0), "1", _not_a_number(f"{G_PATH}[1][1]", "str")),
    (G + (0, 0), None, _not_a_number(f"{G_PATH}[1][1]", "NoneType")),
    (G + (0, 0), [1.0], _not_a_number(f"{G_PATH}[1][1]", "list")),
    (G, [[1.0, 2.0], [3.0]],
     (ConfigError, f"{G_PATH}: matrix rows must be nonempty and "
                   "equal-length")),
    (G, [[]], (ConfigError, f"{G_PATH}: matrix rows must be nonempty and "
                            "equal-length")),
    (G + (0, 1), BIG, _not_finite(f"{G_PATH}[1][2]", BIG_SHOWN)),
    (G, [[BIG, True]], _not_finite(f"{G_PATH}[1][1]", BIG_SHOWN)),
    (("xi", 1), True, _not_a_number("cert.json.xi[2]", "bool")),
    (("xi", 2), BIG, _not_finite("cert.json.xi[3]", BIG_SHOWN)),
    # a set size covers d'd <= xi / N, so one <= 0 certifies nothing: a
    # config error at its entry, read before the count against the plant
    (("xi", 2), 0, _not_a_set_size("cert.json.xi[3]", "0")),
    (("xi", 1), -0.0, _not_a_set_size("cert.json.xi[2]", "-0.0")),
    (("xi", 0), -1e-300, _not_a_set_size("cert.json.xi[1]", "-1e-300")),
    (("xi",), [1.0, 0.0], _not_a_set_size("cert.json.xi[2]", "0.0")),
    (G, [[1.0, 2.0, 3.0]],
     (ConfigError, f"{G_PATH}: expected 2 columns, got 3")),
    # counts, against the config's plant (3 subsystems, 2 controller rules)
    (("gains", 1), [[[1.0, 2.0]]],
     (ConfigError, "cert.json.gains[2]: expected 2 gain matrices, got 1")),
    (("xi",), [1.0, 1.0],
     (ConfigError, "cert.json: certificate covers 2 subsystems, config has "
                   "3")),
]


# json.loads reads NaN, Infinity and -Infinity; each is a config error that
# names its entry, never a value that loads
NON_FINITE_CASES = [
    (A + (1, 0), math.nan, _not_finite(f"{A_PATH}[2][1]", "nan")),
    (A + (0, 1), math.inf, _not_finite(f"{A_PATH}[1][2]", "inf")),
    # the first bad entry in row-major order decides, of either kind
    (A, [[True, math.nan], [0.0, 0.4]], _not_a_number(f"{A_PATH}[1][1]", "bool")),
    (A, [[0.5, -math.inf], [True, 0.4]], _not_finite(f"{A_PATH}[1][2]", "-inf")),
    (A, [[0.5, math.nan], [BIG, 0.4]], _not_finite(f"{A_PATH}[1][2]", "nan")),
    (A, [[BIG, math.nan], [0.0, 0.4]], _not_finite(f"{A_PATH}[1][1]", BIG_SHOWN)),
    (("subsystems", 0, "u_max", 0), math.nan,
     _not_finite("<config>.subsystems[1].u_max[1]", "nan")),
    (("subsystems", 0, "eta"), math.inf,
     _not_finite("<config>.subsystems[1].eta", "inf")),
    (("fixed_params", "alpha"), math.nan,
     _not_finite("<config>.fixed_params.alpha", "nan")),
    (("fixed_params", "tau", 0), math.nan,
     _not_finite("<config>.fixed_params.tau[1]", "nan")),
    (("fixed_params", "N_const", 0), math.inf,
     _not_finite("<config>.fixed_params.N_const[1]", "inf")),
    (("fixed_params", "X", 0, 1, 1), math.nan,
     _not_finite("<config>.fixed_params.X[1][2][2]", "nan")),
    (("simulation", "x0", 0, 1), -math.inf,
     _not_finite("<config>.simulation.x0[1][2]", "-inf")),
    (SIG + ("shift",), math.nan,
     _not_finite(f"{SIG_PATH}.shift", "nan")),
]

NON_FINITE_CERTIFICATE_CASES = [
    (("xi", 0), math.nan, _not_finite("cert.json.xi[1]", "nan")),
    (G + (0, 1), math.inf, _not_finite(f"{G_PATH}[1][2]", "inf")),
    # finiteness is read before the sign of a set size
    (("xi", 1), -math.inf, _not_finite("cert.json.xi[2]", "-inf")),
]


SIM = ("simulation",)
DIST = SIM + ("disturbance",)
SEED = (ConfigError, "<config>.simulation.disturbance.seed: expected a "
                     "nonnegative integer")
RHO_BAR = (ConfigError, "<config>.simulation.rho_bar: must lie in [0, 1]")
NOTES = (ConfigError, "<config>.notes: expected a list of strings")


def _not_a_flag(typename):
    return (ConfigError, f"{SIG_PATH}.complemented: expected "
                         f"true or false, got {typename}")


# fields that loaded wrong (a truthy string, a bool as an integer, a
# truncated or negative seed, an out-of-range weight, a negative radius,
# a string as a list of notes) or failed only when the run started
FIELD_CASES = [
    (SIG + ("complemented",), "false", _not_a_flag("str")),
    (SIG + ("complemented",), "no", _not_a_flag("str")),
    (SIG + ("complemented",), [0], _not_a_flag("list")),
    (SIG + ("complemented",), 0, _not_a_flag("int")),
    (("subsystems", 0, "premise_selector"), True,
     (ConfigError, "<config>.subsystems[1].premise_selector: expected a "
                   "1-based state index")),
    (SIM + ("steps",), True,
     (ConfigError, "<config>.simulation.steps: expected a nonnegative "
                   "integer")),
    (DIST + ("seed",), "7", SEED),
    (DIST + ("seed",), 1.9, SEED),
    (DIST + ("seed",), 7.0, SEED),
    (DIST + ("seed",), -1, SEED),
    (DIST + ("seed",), True, SEED),
    (SIM + ("rho_bar",), 1.5, RHO_BAR),
    (SIM + ("rho_bar",), -0.5, RHO_BAR),
    (DIST + ("radii",), [-0.1],
     (ConfigError, "<config>.simulation.disturbance.radii: must be finite "
                   "and nonnegative")),
    (("notes",), "abc", NOTES),
    (("notes",), ["ok", 1], NOTES),
    (("notes",), {"a": "b"}, NOTES),
]

FIELD_ACCEPTED = [
    (SIG + ("complemented",), True,
     lambda cfg: cfg.system.subsystems[0].model_mfs.upper[1].complemented),
    (SIG + ("complemented",), False,
     lambda cfg: not cfg.system.subsystems[0].model_mfs.upper[1].complemented),
    (DIST + ("seed",), 0, lambda cfg: cfg.simulation.disturbance.seed == 0),
    (SIM + ("rho_bar",), 1.0, lambda cfg: cfg.simulation.rho_bar == 1.0),
    (DIST + ("radii",), [0.0],
     lambda cfg: cfg.simulation.disturbance.radii == (0.0,)),
    (("notes",), ["a", "b"], lambda cfg: cfg.notes == ["a", "b"]),
]


def _raises_exactly(call, expected):
    kind, message = expected
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message


class TestMalformedInput:
    @pytest.mark.parametrize("path, value, expected", CONFIG_CASES)
    def test_config(self, path, value, expected):
        doc = _set(tiny_config_doc(), path, value)
        _raises_exactly(lambda: parse_config(doc), expected)

    @pytest.mark.parametrize("path, value, expected", RESIDUAL_CASES)
    def test_residual_reference(self, path, value, expected):
        doc = _set(_with_residual(tiny_config_doc()), path, value)
        _raises_exactly(lambda: parse_config(doc), expected)

    def test_residual_reference_accepted(self):
        doc = _set(_with_residual(tiny_config_doc()), REF + ("tier",), "true")
        fam = parse_config(doc).system.subsystems[0].model_mfs
        assert fam.lower[1].others == (fam.true_mf[0],)

    @pytest.mark.parametrize("path, value, expected", FIELD_CASES)
    def test_field(self, path, value, expected):
        doc = _set(tiny_config_doc(), path, value)
        _raises_exactly(lambda: parse_config(doc), expected)

    @pytest.mark.parametrize("path, value, expected", FIELD_ACCEPTED)
    def test_field_accepted(self, path, value, expected):
        cfg = parse_config(_set(tiny_config_doc(), path, value))
        assert expected(cfg)

    @pytest.mark.parametrize("rho_bar", [1.5, -0.25])
    def test_rho_bar_in_reconstructed_mode(self, rho_bar):
        doc = tiny_config_doc()
        doc["simulation"].update(mode="reconstructed", rho_bar=rho_bar)
        _raises_exactly(lambda: parse_config(doc), RHO_BAR)

    @pytest.mark.parametrize("radii", [
        (0.2, -0.1), (math.nan,), (math.inf, 0.2, 0.2), (0.2, -math.inf)])
    def test_library_disturbance_radii(self, radii):
        # an infinite radius was kept, and realize drew infinite disturbances
        _raises_exactly(lambda: DisturbanceModel(radii=radii), (
            FieldError, "radii: must be finite and nonnegative"))

    def test_library_disturbance_radii_accepted(self):
        dist = DisturbanceModel(radii=np.array([0.0, 0.1]))
        assert dist.radii == (0.0, 0.1) and type(dist.radii[1]) is float

    @pytest.mark.parametrize("path, value, expected", NON_FINITE_CASES)
    def test_non_finite_config(self, path, value, expected):
        doc = _set(tiny_config_doc(), path, value)
        _raises_exactly(lambda: parse_config(doc), expected)

    @pytest.mark.parametrize("path, value, expected",
                             CERTIFICATE_CASES + NON_FINITE_CERTIFICATE_CASES)
    def test_certificate(self, tmp_path, path, value, expected):
        doc = _set(json.loads(FIXTURE.read_text()), path, value)
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        system = load_bundled_config("example1_synthesis").system
        _raises_exactly(lambda: load_certificate(cert, system), expected)


def _params(**changes):
    """Three subsystems, n_x = 2 and n_u = 1, every constant valid, with
    `changes` applied; list entries are replaced by index."""
    eye = np.eye(2)
    fields = dict(X=[5.0 * eye, 6.0 * eye, 7.0 * eye], lam=[0.1] * 3,
                  N_const=[2.0] * 3, M=[np.eye(1)] * 3, tau=[1.0] * 3,
                  Q=0.05 * eye, R=np.eye(1), alpha=2.0)
    for name, value in changes.items():
        if isinstance(value, dict):
            seq = list(fields[name])
            for i, m in value.items():
                seq[i] = m
            value = seq
        fields[name] = value
    return FixedParams(**fields)


NOT_PD = np.array([[1.0, 2.0], [2.0, 1.0]])
NAN = np.array([[1.0, np.nan], [np.nan, 1.0]])
NEG1 = -np.eye(1)

PARAMS_CASES = [
    (dict(X={1: NOT_PD}, M={0: NEG1}),
     (ValueError, "X[1] must be positive definite")),
    (dict(X={2: NAN, 0: NOT_PD}), (ValueError, "X[0] must be positive "
                                               "definite")),
    (dict(X={2: NAN}), (InvalidMatrixError, "matrix entries must be finite")),
    (dict(X={1: np.zeros((2, 3)), 0: NOT_PD}),
     (ValueError, "X[0] must be positive definite")),
    (dict(X={1: np.zeros((2, 3))}),
     (InvalidMatrixError, "expected a square matrix, got shape (2, 3)")),
    # shapes are stacked apart; the first failing subsystem still decides
    (dict(X={1: -np.eye(3), 2: NOT_PD}),
     (ValueError, "X[1] must be positive definite")),
    (dict(lam={0: 1.5}, M={0: NEG1}), (ValueError, "lam[0] must lie in "
                                                   "(0, 1), got 1.5")),
    (dict(M={2: NEG1}, Q=NOT_PD), (ValueError, "M[2] must be positive "
                                               "semidefinite")),
    (dict(Q=NOT_PD), (ValueError, "Q must be positive semidefinite")),
    (dict(Q=NOT_PD, R=NEG1), (ValueError, "Q must be positive "
                                          "semidefinite")),
    (dict(R=NEG1), (ValueError, "R must be positive definite")),
    (dict(R=np.zeros((1, 1))), (ValueError, "R must be positive definite")),
    (dict(Q=[0.05 * np.eye(2), NOT_PD, 0.05 * np.eye(2)]),
     (ValueError, "Q must be positive semidefinite")),
    # per subsystem, Q and R are judged in turn: R[0] comes before Q[1]
    (dict(Q=[0.05 * np.eye(2), NOT_PD, 0.05 * np.eye(2)],
          R=[NEG1, np.eye(1), np.eye(1)]),
     (ValueError, "R must be positive definite")),
    (dict(Q=[NOT_PD] * 3, R=NEG1), (ValueError, "Q must be positive "
                                                "semidefinite")),
    (dict(R=[np.eye(1), np.eye(1), NEG1]),
     (ValueError, "R must be positive definite")),
    (dict(Q=[0.05 * np.eye(2), NAN, NOT_PD], R=[np.eye(1), NEG1, NEG1]),
     (InvalidMatrixError, "matrix entries must be finite")),
    (dict(Q=[0.05 * np.eye(2), NAN, 0.05 * np.eye(2)]),
     (InvalidMatrixError, "matrix entries must be finite")),
    # a per-subsystem list of the wrong length fails its count, before any
    # matrix is judged
    (dict(Q=[0.05 * np.eye(2)] * 2), (ValueError, "Q must have one entry "
                                                  "per subsystem")),
    (dict(Q=[0.05 * np.eye(2)] * 2, R=[np.eye(1), NEG1, np.eye(1)]),
     (ValueError, "Q must have one entry per subsystem")),
    (dict(R=[np.eye(1)] * 4), (ValueError, "R must have one entry per "
                                           "subsystem")),
    (dict(alpha=1.0, R=NEG1), (ValueError, "R must be positive definite")),
    (dict(alpha=1.0), (ValueError, "alpha must be >= 2, got 1.0")),
]


NON_FINITE_PARAMS_CASES = [
    (dict(N_const={2: math.nan}),
     (ValueError, "N_const[2] must be finite, got nan")),
    (dict(N_const={0: math.inf}),
     (ValueError, "N_const[0] must be finite, got inf")),
    (dict(tau={1: math.nan}), (ValueError, "tau[1] must be finite, got nan")),
    (dict(alpha=math.nan), (ValueError, "alpha must be finite, got nan")),
    (dict(alpha=math.inf), (ValueError, "alpha must be finite, got inf")),
    (dict(tau={1: -math.inf}), (ValueError, "tau[1] must be positive")),
]


class TestParamsFirstError:
    def test_valid_params_pass(self):
        _params().validate()

    @pytest.mark.parametrize("changes, expected", PARAMS_CASES)
    def test_first_error(self, changes, expected):
        _raises_exactly(_params(**changes).validate, expected)

    @pytest.mark.parametrize("changes, expected", NON_FINITE_PARAMS_CASES)
    def test_non_finite_constant(self, changes, expected):
        _raises_exactly(_params(**changes).validate, expected)

    def test_config_path_is_kept(self):
        doc = tiny_config_doc()
        doc["fixed_params"]["X"] = [NOT_PD.tolist()]
        doc["fixed_params"]["M"] = [(-np.eye(2)).tolist()]
        _raises_exactly(lambda: parse_config(doc), (
            ConfigError,
            "<config>.fixed_params: X[0] must be positive definite"))


# sha256 of json.dumps(serialize_config(cfg), sort_keys=True); a deliberate
# edit of a bundled config changes its pin
SERIALIZED_SHA256 = {
    "example1": "379fad7f1e85952984607f84da4d790cf7c1b914644c8cf4b7c6c473085564be",
    "example1_synthesis":
        "ca2239dbfed18f6ceda6e9f5fb7d1f88e2de9f31ea62ccd3c1a2363b7df5b9dd",
    "example2": "85ef9e3837bd42a5e69a7a137a81f7d1c19ee963b4e0ffcfa4ee6fd2852a68b6",
    "example2_stabilized":
        "b7440484926a75d4a20da8e45b1512be66758bd926ddfe2d3bc6c3890dfe9833",
}


def _reference_hex(raw):
    """Per-entry parse of a JSON matrix or vector, as float hex."""
    if isinstance(raw[0], list):
        return [[float(v).hex() for v in row] for row in raw]
    return [float(v).hex() for v in raw]


def _assert_hex_equal(array, raw):
    assert isinstance(array, np.ndarray) and array.dtype == np.float64
    assert array.flags.c_contiguous
    got = array.tolist()
    got = [[v.hex() for v in row] for row in got] if array.ndim == 2 \
        else [v.hex() for v in got]
    assert got == _reference_hex(raw)


def _shared_or_each(value, raw, n):
    if isinstance(value, (list, tuple)):
        for m, r in zip(value, raw):
            _assert_hex_equal(m, r)
        assert len(value) == n
    else:
        _assert_hex_equal(value, raw)


def _resource_doc(name):
    return json.loads((resources.files("it2mpc") / "configs"
                       / f"{name}.json").read_text())


class TestBundledParse:
    @pytest.mark.parametrize("name", sorted(SERIALIZED_SHA256))
    def test_arrays_equal_a_per_entry_parse(self, name):
        raw = _resource_doc(name)
        cfg = load_bundled_config(name)
        for sub, raw_sub in zip(cfg.system.subsystems, raw["subsystems"],
                                strict=True):
            for rule, raw_rule in zip(sub.rules, raw_sub["rules"],
                                      strict=True):
                for field in "ABE":
                    _assert_hex_equal(getattr(rule, field), raw_rule[field])
            for key, g in raw_sub.get("couplings", {}).items():
                _assert_hex_equal(sub.couplings[int(key) - 1], g)
            for field in ("u_max", "H"):
                if raw_sub.get(field) is not None:
                    _assert_hex_equal(getattr(sub, field), raw_sub[field])
            for fam_name in ("model_mfs", "controller_mfs"):
                fam, raw_fam = getattr(sub, fam_name), raw_sub[fam_name]
                for tier, mfs in (("lower", fam.lower), ("upper", fam.upper),
                                  ("true", fam.true_mf)):
                    for mf, rec in zip(mfs or (), raw_fam.get(tier) or ()):
                        if rec["kind"] != "sigmoid":
                            continue
                        assert isinstance(mf, SigmoidMF)
                        for attr, key in (("shift", "shift"),
                                          ("divisor", "divisor"),
                                          ("perturb_amplitude",
                                           "perturb_amplitude")):
                            assert type(getattr(mf, attr)) is float
                            assert getattr(mf, attr).hex() == \
                                float(rec.get(key, 0.0)).hex()
        params, raw_params = cfg.params, raw["fixed_params"]
        n = cfg.n_subsystems
        for field in ("X", "M"):
            _shared_or_each(getattr(params, field), raw_params[field], n)
        for field in ("Q", "R"):
            value = getattr(params, field)
            if isinstance(value, list):
                _shared_or_each(value, raw_params[field], n)
            else:
                _assert_hex_equal(value, raw_params[field])
        for v, raw_x0 in zip(cfg.simulation.x0, raw["simulation"]["x0"],
                             strict=True):
            _assert_hex_equal(v, raw_x0)
        if raw.get("gains") is not None:
            for g, raw_g in zip(cfg.gains, raw["gains"], strict=True):
                for k, raw_k in zip(g, raw_g, strict=True):
                    _assert_hex_equal(k, raw_k)

    @pytest.mark.parametrize("name", sorted(SERIALIZED_SHA256))
    def test_serialization_is_pinned(self, name):
        cfg = load_bundled_config(name)
        text = json.dumps(serialize_config(cfg), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            SERIALIZED_SHA256[name]
        assert cfg.data == serialize_config(cfg)

    def test_every_bundled_config_is_covered(self):
        assert sorted(SERIALIZED_SHA256) == bundled_config_names()

    def test_fixture_certificate_equals_a_per_entry_parse(self):
        raw = json.loads(FIXTURE.read_text())
        system = load_bundled_config("example1_synthesis").system
        dv, doc = load_certificate(FIXTURE, system)
        assert doc == raw
        assert [v.hex() for v in dv.xi] == [float(v).hex() for v in raw["xi"]]
        for g, raw_g in zip(dv.gains, raw["gains"], strict=True):
            for k, raw_k in zip(g, raw_g, strict=True):
                _assert_hex_equal(k, raw_k)


# The settings values own their input rules: each bad value below fails in
# parse_config at its field path and in the owner's constructor as a
# FieldError naming the field. A row is (field path under "<config>.",
# value, reason through parse_config, reason through the constructor). The
# constructor's reason is None where only the JSON type check refuses the
# value (a bool weight or radius, which Python reads as 0 or 1); a "[1]"
# reason names the vector entry that the JSON check refused.
NONNEGATIVE = "expected a nonnegative integer"
UNIT = "must lie in [0, 1]"
RADII = "must be finite and nonnegative"
RESYNTHS = "expected one of ('every_step', 'once')"
KINDS = ("expected one of ('zero', 'uniform_ball', 'sinusoidal', "
         "'worst_case_boundary')")
INF = math.inf
NAN = math.nan


def _density(shown):
    return f"must be an integer >= 2, got {shown}"


def _finite(shown):
    return f"expected a finite number, got {shown}"


def _bound(rule, v):
    return f"must be a finite number {rule}, got {v!r}"


def _xi_mode(v):
    return f"unknown xi mode: {v!r}; expected one of ('common', 'per_subsystem')"


SETTINGS_BAD = [
    *[("simulation.steps", v, NONNEGATIVE, NONNEGATIVE)
      for v in (-1, True, 1.5, NAN, INF, -INF, "100")],
    *[("simulation.disturbance.seed", v, NONNEGATIVE, NONNEGATIVE)
      for v in (-1, True, 1.5, NAN, INF, -INF, "7")],
    *[("simulation.resynth", v, f"{RESYNTHS}, got {v!r}",
       f"{RESYNTHS}, got {v!r}") for v in ("sometimes", -1, True)],
    *[("simulation.disturbance.kind", v, f"{KINDS}, got {v!r}",
       f"{KINDS}, got {v!r}") for v in ("gauss", -1)],
    *[("simulation.mode", v, f"unknown membership mode {v!r}",
       f"unknown membership mode {v!r}") for v in ("bogus", -1)],
    *[(f"simulation.{field}", v, UNIT, UNIT)
      for field in ("mu_bar", "rho_bar") for v in (-1, 1.5, -1e-300)],
    *[(f"simulation.{field}", v, _finite(v), UNIT)
      for field in ("mu_bar", "rho_bar") for v in (NAN, INF, -INF)],
    *[(f"simulation.{field}", True, "expected a number, got bool", None)
      for field in ("mu_bar", "rho_bar")],
    ("simulation.disturbance.radii", [-1.0], RADII, RADII),
    ("simulation.disturbance.radii", [-1e-300], RADII, RADII),
    *[("simulation.disturbance.radii", [v], f"[1]: {_finite(v)}", RADII)
      for v in (NAN, INF, -INF)],
    ("simulation.disturbance.radii", [True], "[1]: expected a number, got bool",
     RADII),
    *[("synthesis.xi_mode", v, _xi_mode(v), _xi_mode(v)) for v in ("bogus", -1)],
    *[("synthesis.grid_density", v, _density(repr(v)), _density(repr(v)))
      for v in (-1, 1, True, 1.5, NAN, INF, -INF, "11")],
    *[("synthesis.strictness", v, _bound(">= 0", v), _bound(">= 0", v))
      for v in (-1, -1e-300, True, np.bool_(False), NAN, INF, -INF, "0", None)],
]

# a real-valued setting takes any finite number in range, a numpy one too,
# and keeps it as the equal float
NUMBERS_GOOD = [
    *[("strictness", v) for v in (0, 0.0, 1e-9, np.int64(0), np.float64(0.0))],
]

SETTINGS_GOOD = [
    ("simulation.steps", 0), ("simulation.steps", np.int64(7)),
    ("simulation.disturbance.seed", 0),
    ("simulation.disturbance.seed", np.uint8(3)),
    ("simulation.resynth", "once"), ("simulation.disturbance.kind", "zero"),
    ("simulation.mode", "true_plant"),
    *[(f"simulation.{field}", v) for field in ("mu_bar", "rho_bar")
      for v in (0, 0.0, 1.0, np.float64(0.5))],
    ("simulation.disturbance.radii", [0.0]),
    ("simulation.disturbance.radii", [1.0]),
    ("synthesis.xi_mode", "per_subsystem"),
    ("synthesis.grid_density", 2), ("synthesis.grid_density", np.int64(11)),
]


def _owner(path: str, value):
    """The settings value that owns the field at path, made with value."""
    *section, field = path.split(".")
    if section == ["synthesis"]:
        return SynthesisConfig(**{field: value})
    if section == ["simulation", "disturbance"]:
        return DisturbanceModel(**{field: value})
    fields = dict(x0=[np.zeros(2)], steps=1, disturbance=DisturbanceModel())
    return SimulationSettings(**{**fields, field: value})


def _doc_with(path: str, value):
    return _set(tiny_config_doc(), tuple(path.split(".")), value)


class TestSettingsRules:
    @pytest.mark.parametrize("path, value, config_reason, value_reason",
                             SETTINGS_BAD)
    def test_bad_value(self, path, value, config_reason, value_reason):
        sep = "" if config_reason.startswith("[") else ": "
        _raises_exactly(lambda: parse_config(_doc_with(path, value)), (
            ConfigError, f"<config>.{path}{sep}{config_reason}"))
        field = path.rsplit(".", 1)[1]
        if value_reason is None:
            _owner(path, value)
        else:
            _raises_exactly(lambda: _owner(path, value),
                            (FieldError, f"{field}: {value_reason}"))

    @pytest.mark.parametrize("path, value", SETTINGS_GOOD)
    def test_good_value(self, path, value):
        field = path.rsplit(".", 1)[1]
        cfg = parse_config(_doc_with(path, value))
        node = cfg
        for key in path.split("."):
            node = getattr(node, key)
        owned = getattr(_owner(path, value), field)
        expected = tuple(value) if field == "radii" else value
        assert node == owned == expected
        # a numpy integer is kept as the equal int, so the document serializes
        if isinstance(value, np.integer):
            assert type(node) is type(owned) is int
        json.dumps(serialize_config(cfg))

    @pytest.mark.parametrize("field, value", NUMBERS_GOOD)
    def test_good_number(self, field, value):
        cfg = parse_config(_doc_with(f"synthesis.{field}", value))
        node = getattr(cfg.synthesis, field)
        owned = getattr(SynthesisConfig(**{field: value}), field)
        assert node == owned == value
        assert type(node) is type(owned) is float

    @pytest.mark.parametrize("field, rule", [
        ("strictness", ">= 0"), ("grid_density", None)])
    @pytest.mark.parametrize("digits", [401, 5001])
    def test_long_integer_is_shown_by_its_digits(self, field, rule, digits):
        # a refused integer is shown by its digit count: 5,001 digits raised
        # Python's int-to-str ValueError from the message itself, and 401
        # were echoed whole (json.loads refuses integers past 4,300 digits,
        # so only the shorter one reaches a config)
        value = -10 ** (digits - 1)
        shown = f"a negative integer of {digits} digits"
        reason = f"must be a finite number {rule}, got {shown}" if rule \
            else f"must be an integer >= 2, got {shown}"
        _raises_exactly(lambda: SynthesisConfig(**{field: value}),
                        (FieldError, f"{field}: {reason}"))
        if digits == 401:
            _raises_exactly(
                lambda: parse_config(_doc_with(f"synthesis.{field}", value)),
                (ConfigError, f"<config>.synthesis.{field}: {reason}"))

    def test_reconstructed_mode_needs_rho_bar(self):
        _raises_exactly(lambda: parse_config(_doc_with(
            "simulation.mode", "reconstructed")), (
            ConfigError, "<config>.simulation.rho_bar: reconstructed mode "
                         "needs rho_bar in [0, 1]"))
        _raises_exactly(lambda: _owner("simulation.mode", "reconstructed"), (
            FieldError, "rho_bar: reconstructed mode needs rho_bar in [0, 1]"))
