"""Constants, certificates and settings are values: FixedParams and
DecisionVars are frozen and hold read-only arrays, and the settings
objects (SynthesisConfig, SimulationSettings, SystemConfig) are frozen;
what is derived from X, and the X-free half of a subsystem's condition
layout, is built once on its owner, each table equal to the expression it
replaced."""

import copy
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from it2mpc import lmis, plant
from it2mpc.configio import (bundled_config_names, load_bundled_config,
                             load_certificate)
from it2mpc.linalg import sym_eig, sym_matrix
from it2mpc.lmis import DecisionVars
from it2mpc.plant import FieldError, _shown
from it2mpc.simulation import DisturbanceModel, rpi_monte_carlo, run_online_loop
from it2mpc.synthesis import minimize_xi, solve_fixed_xi, verify_certificate

from conftest import tiny_params

FIXTURE = (Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
           / "example1_certificate.json")


def _fixture():
    """A freshly loaded example1_synthesis config and the stored
    certificate: new objects, so no table is built yet."""
    cfg = load_bundled_config("example1_synthesis")
    dv, _ = load_certificate(FIXTURE, cfg.system)
    return cfg, dv


def _replace_u_max(system, i, u_max):
    sub = dataclasses.replace(system.subsystems[i], u_max=u_max)
    subs = list(system.subsystems)
    subs[i] = sub
    return dataclasses.replace(system, subsystems=tuple(subs))


class TestFrozen:
    def test_params_fields_cannot_be_rebound(self):
        params = load_bundled_config("example1_synthesis").params
        for name in ("X", "lam", "Q", "alpha"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(params, name, getattr(params, name))

    def test_params_arrays_are_read_only(self):
        params = load_bundled_config("example2").params
        per_sub_q = dataclasses.replace(params, Q=[params.Q] * 2)
        arrays = (params.X[0], params.M[1], params.Q, params.R,
                  per_sub_q.Q[1], params.x_eigs[0], params.x_inv[1],
                  params.x_inv_sqrt[0])
        for array in arrays:
            assert array.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 5.0
        assert isinstance(params.lam, tuple) and isinstance(params.X, tuple)

    def test_certificate_fields_cannot_be_rebound(self):
        _, dv = _fixture()
        for name in ("gains", "xi"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(dv, name, getattr(dv, name))

    def test_settings_fields_cannot_be_rebound(self):
        # a rebound grid_density bypassed its check (verify then swept a
        # NaN grid), and a rebound Ts left the serialized data stale
        cfg = load_bundled_config("example1_synthesis")
        assert cfg.data["Ts"] == cfg.Ts
        for obj, name, value in ((cfg.synthesis, "grid_density", 1),
                                 (cfg.simulation, "steps", 3),
                                 (cfg, "Ts", 0.5)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, value)
        assert cfg.data["Ts"] == cfg.Ts == 0.2

    def test_certificate_gains_are_read_only(self):
        _, dv = _fixture()
        assert isinstance(dv.xi, tuple)
        for gains_i in dv.gains:
            assert isinstance(gains_i, tuple)
            for k in gains_i:
                assert k.dtype == np.float64
                with pytest.raises(ValueError, match="read-only"):
                    k[0, 0] = 5.0

    def test_supplied_arrays_are_copied(self):
        k = np.array([[-0.5, -0.1]])
        x_mat = np.eye(2)
        cfg = load_bundled_config("example1_synthesis")
        dv = DecisionVars(gains=[[k]], xi=[1.0])
        params = dataclasses.replace(cfg.params, X=[x_mat] * 3)
        k[0, 0] = x_mat[0, 0] = 7.0
        assert dv.gains[0][0][0, 0] == -0.5
        assert params.X[0][0, 0] == 1.0

    def test_frozen_gains_pass_through_uncopied(self):
        _, dv = _fixture()
        bigger = dataclasses.replace(dv, xi=[2.0 * v for v in dv.xi])
        assert bigger.gains is dv.gains
        # gains not all held so are copied, into read-only arrays
        mixed = dataclasses.replace(dv, gains=(
            dv.gains[0], [k.copy() for k in dv.gains[1]], dv.gains[2]))
        assert mixed.gains is not dv.gains
        for got, want in zip(mixed.gains, dv.gains):
            assert isinstance(got, tuple)
            for k_got, k_want in zip(got, want):
                assert not k_got.flags.writeable
                np.testing.assert_array_equal(k_got, k_want)

    def test_deep_copy_shares_the_gains(self):
        _, dv = _fixture()
        copied = copy.deepcopy(dv)
        assert copied is not dv and copied.gains is dv.gains

    def test_deep_copy_of_params_is_read_only(self):
        params = load_bundled_config("example1_synthesis").params
        params.x_inv_sqrt           # a table built on the original
        copied = copy.deepcopy(params)
        assert copied is not params and "x_inv_sqrt" not in vars(copied)
        for name in ("X", "M", "Q", "R"):
            got, want = getattr(copied, name), getattr(params, name)
            assert type(got) is type(want)
            for array, original in (zip(got, want) if isinstance(got, tuple)
                                    else [(got, want)]):
                assert array is not original
                np.testing.assert_array_equal(array, original)
                with pytest.raises(ValueError, match="read-only"):
                    array[(0,) * array.ndim] = 1.0
        for name in ("lam", "N_const", "tau", "alpha"):
            assert getattr(copied, name) == getattr(params, name)

    def test_replace_builds_new_tables(self):
        params = load_bundled_config("example1_synthesis").params
        scaled = dataclasses.replace(params, X=[2.0 * x for x in params.X])
        for i, x in enumerate(params.X):
            np.testing.assert_array_equal(scaled.x_inv[i],
                                          np.linalg.solve(2.0 * x, np.eye(2)))
            np.testing.assert_array_equal(params.x_inv[i],
                                          np.linalg.solve(x, np.eye(2)))


@pytest.mark.parametrize("name", bundled_config_names())
class TestTables:
    def test_constants_tables(self, name):
        cfg = load_bundled_config(name)
        system, params = cfg.system, cfg.params
        for i, x in enumerate(params.X):
            np.testing.assert_array_equal(
                params.x_eigs[i], np.linalg.eigvalsh(sym_matrix(x)))
            np.testing.assert_array_equal(
                params.x_inv[i], np.linalg.solve(x, np.eye(x.shape[0])))
            eig = sym_eig(x)
            np.testing.assert_array_equal(
                params.x_inv_sqrt[i], eig.vectors @ np.diag(
                    1.0 / np.sqrt(eig.values)) @ eig.vectors.T)
        # each layout's X_i^{-1} stack holds the table's entries
        for members in system.layout_groups:
            layout = lmis._layout(system, params, members)
            np.testing.assert_array_equal(
                layout.x, np.array([params.X[i] for i in members]))
            for i, inv_i in zip(members, layout.x_inv):
                np.testing.assert_array_equal(inv_i, params.x_inv[i])

    def test_coupling_tables(self, name):
        for sub in load_bundled_config(name).system.subsystems:
            keys = tuple(sorted(sub.couplings))
            gs = [sub.couplings[j] for j in keys]
            g = np.array(gs).reshape(len(keys), sub.n_x, sub.n_x)
            assert sub.coupling_keys == keys
            np.testing.assert_array_equal(sub.coupling_stack, g)
            want = None
            if gs:
                _, s, vt = np.linalg.svd(np.hstack(gs))
                rank = np.count_nonzero(s > 1e-10 * s[0])
                if rank < len(vt):
                    want = vt[:rank].T
            if want is None:
                assert sub.coupling_basis is None
            else:
                np.testing.assert_array_equal(sub.coupling_basis, want)
            assert sub.coupling_basis is sub.coupling_basis


class TestOneSvdPerSubsystem:
    """The coupling map's SVD runs once per subsystem, not per assembly."""

    @staticmethod
    def _svds(monkeypatch, run) -> int:
        cfg, dv = _fixture()
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        run(cfg, dv)
        monkeypatch.undo()
        return len(calls)

    def test_verify(self, monkeypatch):
        assert self._svds(monkeypatch, lambda cfg, dv: verify_certificate(
            cfg.system, cfg.params, dv, cfg.simulation.x0,
            cfg.synthesis)) == 3

    def test_every_step_episode(self, monkeypatch):
        assert self._svds(monkeypatch, lambda cfg, dv: run_online_loop(
            cfg.system, cfg.params, cfg.simulation.x0, 10,
            syn_cfg=cfg.synthesis, warm=dv)) == 3

    @pytest.mark.parametrize("mode", ["common", "per_subsystem"])
    def test_cold_minimize_xi(self, monkeypatch, mode):
        assert self._svds(monkeypatch, lambda cfg, dv: minimize_xi(
            cfg.system, cfg.params, cfg.simulation.x0, cfg.synthesis,
            mode=mode)) == 3


class TestNonFiniteInputs:
    def test_nan_xi_fails_validation(self):
        cfg, dv = _fixture()
        bad = dataclasses.replace(dv, xi=(np.nan,) + dv.xi[1:])
        with pytest.raises(ValueError) as info:
            bad.validate()
        assert str(info.value) == "xi[0] must be finite, got nan"
        with pytest.raises(ValueError, match=r"xi\[0\] must be finite"):
            verify_certificate(cfg.system, cfg.params, bad)

    def test_positivity_message_unchanged(self):
        _, dv = _fixture()
        for v in (0.0, -np.inf):
            with pytest.raises(ValueError) as info:
                dataclasses.replace(dv, xi=(1.0, v, 1.0)).validate()
            assert str(info.value) == f"xi[1] must be positive, got {v}"

    def test_input_peak_that_cannot_be_computed_reads_inf(self):
        # subsystem 0's input limit is NaN and the plant unvalidated: its
        # input-peak row is kept, reads +inf, and decides the verdict
        cfg, dv = _fixture()
        system = _replace_u_max(cfg.system, 0, [np.nan])
        key = "input_peak[i=0]"
        res = minimize_xi(system, cfg.params, cfg.simulation.x0,
                          cfg.synthesis)
        assert res.margins[key] == np.inf
        assert max(res.margins, key=res.margins.get) == key
        assert not res.feasible
        report = verify_certificate(system, cfg.params, dv,
                                    cfg.simulation.x0, cfg.synthesis)
        assert report["margins"][key] == np.inf
        assert report["worst"] == np.inf
        assert report["feasible"] is False


def test_tables_take_one_lapack_call_per_shape(monkeypatch):
    """X_i of three shapes, interleaved: each table is one stacked call per
    shape, and each entry, as float hex, that of X_i's own call."""
    rng = np.random.default_rng(11)
    xs = []
    for n in (2, 3, 2, 1, 3, 2):
        a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-2, 2)
        xs.append(a @ a.T + 0.1 * np.eye(n))
    params = dataclasses.replace(tiny_params(), X=xs)
    calls = []
    for name in ("eigh", "eigvalsh", "solve"):
        def counted(*args, _fn=getattr(np.linalg, name), _name=name):
            calls.append((_name, args[0].shape))
            return _fn(*args)
        monkeypatch.setattr(np.linalg, name, counted)
    tables = params.x_eigs, params.x_inv, params.x_inv_sqrt
    monkeypatch.undo()
    assert sorted(calls) == sorted(
        (name, (k, n, n)) for name in ("eigh", "eigvalsh", "solve")
        for n, k in ((2, 3), (3, 2), (1, 1)))

    def hexes(a):
        return [float(v).hex() for v in np.ravel(a)]
    for i, x in enumerate(xs):
        eig = sym_eig(x)
        want = (np.linalg.eigvalsh(sym_matrix(x)),
                np.linalg.solve(x, np.eye(len(x))),
                eig.vectors @ np.diag(1.0 / np.sqrt(eig.values))
                @ eig.vectors.T)
        for table, value in zip(tables, want):
            assert hexes(table[i]) == hexes(value)
            assert not table[i].flags.writeable


class TestValidateVerdict:
    """A frozen value keeps its passing validate() verdict: a second call
    checks nothing. A failing value raises on every call with the same
    message, and a dataclasses.replace copy is judged afresh."""

    @staticmethod
    def _counting(monkeypatch, owner, name):
        """Count the calls of owner.name, a check validate() makes first."""
        calls = []
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
        return calls

    def _values(self):
        cfg = load_bundled_config("example1_synthesis")
        # new objects: configio judged the originals
        return (dataclasses.replace(cfg.params),
                dataclasses.replace(cfg.system))

    def test_a_passing_verdict_is_kept(self, monkeypatch):
        params, system = self._values()
        gains = load_bundled_config("example1").gains
        checks = self._counting(monkeypatch, lmis, "_raise_first_failure")
        subs = self._counting(monkeypatch, plant.Subsystem, "validate")
        for _ in range(3):
            params.validate()
            system.validate()
        assert len(checks) == 2         # X, then M, Q and R: once
        assert len(subs) == system.n_subsystems
        # an episode validates its constants again, for free
        run_online_loop(system, params, [np.zeros(2)] * 3, 2, gains=gains)
        assert len(checks) == 2

    def test_a_subsystem_keeps_its_verdict(self, monkeypatch):
        # a config load validates each subsystem as it parses it and then
        # the system, which judges no subsystem again
        _, system = self._values()
        sub = dataclasses.replace(system.subsystems[0])
        finite = self._counting(monkeypatch, plant, "_finite")
        for _ in range(3):
            sub.validate()
        assert len(finite) == 3 * sub.n_rules     # A, B and E: once

    def test_a_failing_value_raises_on_every_call(self):
        params, system = self._values()
        bad = dataclasses.replace(params, lam=(0.5, 1.5, 0.5))
        for _ in range(3):
            with pytest.raises(ValueError,
                               match=r"^lam\[1\] must lie in \(0, 1\), got 1.5$"):
                bad.validate()
        sub = dataclasses.replace(system.subsystems[1], eta=-1.0)
        broken = dataclasses.replace(
            system, subsystems=(system.subsystems[0], sub,
                                system.subsystems[2]))
        messages = set()
        for _ in range(3):
            with pytest.raises(ValueError) as exc:
                broken.validate()
            messages.add(str(exc.value))
        assert len(messages) == 1

    def test_a_replaced_copy_is_judged_afresh(self):
        params, system = self._values()
        params.validate()
        system.validate()
        bad = dataclasses.replace(params, alpha=1.0)
        with pytest.raises(ValueError, match="alpha must be >= 2, got 1.0"):
            bad.validate()
        subs = list(system.subsystems)
        subs[0] = dataclasses.replace(subs[0], couplings={0: np.eye(2)})
        with pytest.raises(ValueError, match="coupling key 0 invalid"):
            dataclasses.replace(system, subsystems=tuple(subs)).validate()
        # the originals keep their verdicts
        params.validate()
        system.validate()


BIG = 10 ** 400         # an integer no float holds
BIG_SHOWN = "an integer of 401 digits"


def _with_eta(cfg, eta):
    sub = dataclasses.replace(cfg.system.subsystems[1], eta=eta)
    subs = (cfg.system.subsystems[0], sub, cfg.system.subsystems[2])
    return dataclasses.replace(cfg.system, subsystems=subs)


# (value, check, message): each value check judges a number with
# plant._is_finite before it converts or compares it, and shows a refused
# one through plant._shown; the message of a value that was refused before
# (NaN, an infinity, a non-positive one) is unchanged
VALUE_CHECKS = [
    ("eta", lambda cfg, dv: _with_eta(cfg, BIG).validate(),
     "eta must be finite"),
    ("eta", lambda cfg, dv: _with_eta(cfg, np.nan).validate(),
     "eta must be finite"),
    *[(name, lambda cfg, dv, name=name: dataclasses.replace(
        cfg.params, **{name: (1.0, BIG, 1.0)}).validate(),
       f"{name}[1] must be finite, got {BIG_SHOWN}")
      for name in ("N_const", "tau")],
    ("alpha", lambda cfg, dv: dataclasses.replace(
        cfg.params, alpha=BIG).validate(),
     f"alpha must be finite, got {BIG_SHOWN}"),
    ("alpha", lambda cfg, dv: dataclasses.replace(
        cfg.params, alpha=np.inf).validate(), "alpha must be finite, got inf"),
    ("lam", lambda cfg, dv: dataclasses.replace(
        cfg.params, lam=(0.5, BIG, 0.5)).validate(),
     f"lam[1] must lie in (0, 1), got {BIG_SHOWN}"),
    ("xi", lambda cfg, dv: dataclasses.replace(
        dv, xi=(1.0, BIG, 1.0)).validate(),
     f"xi[1] must be finite, got {BIG_SHOWN}"),
    ("xi", lambda cfg, dv: dataclasses.replace(
        dv, xi=(1.0, -BIG, 1.0)).validate(),
     f"xi[1] must be positive, got a negative {BIG_SHOWN[3:]}"),
    ("xi", lambda cfg, dv: dataclasses.replace(
        dv, xi=(1.0, True, 1.0)).validate(), "xi[1] must be finite, got True"),
]


class TestNumberRule:
    @pytest.mark.parametrize("name, check, message", VALUE_CHECKS,
                             ids=[name for name, _, _ in VALUE_CHECKS])
    def test_value_checks(self, name, check, message):
        # before: eta = 10**400 passed, the others raised numpy's
        # TypeError, and xi = True was kept as 1
        cfg, dv = _fixture()
        with pytest.raises(ValueError) as info:
            check(cfg, dv)
        assert type(info.value) is ValueError
        assert str(info.value) == message

    @pytest.mark.parametrize("call, kind, message", [
        (lambda cfg, dv: rpi_monte_carlo(cfg.system, cfg.params, dv,
                                         n_samples=10, tol=BIG),
         ValueError, "rpi_monte_carlo needs an integer n_samples >= 1 and a "
                     f"finite tol, got 10 and {BIG_SHOWN}"),
        (lambda cfg, dv: rpi_monte_carlo(cfg.system, cfg.params, dv,
                                         n_samples=10, tol=True),
         ValueError, "rpi_monte_carlo needs an integer n_samples >= 1 and a "
                     "finite tol, got 10 and True"),
        (lambda cfg, dv: solve_fixed_xi(cfg.system, cfg.params, BIG),
         ValueError, f"xi must be 3 finite set sizes > 0, got {BIG_SHOWN}"),
        (lambda cfg, dv: solve_fixed_xi(cfg.system, cfg.params,
                                        [1.0, True, 1.0]),
         ValueError, "xi must be 3 finite set sizes > 0, got [1.0, True, 1.0]"),
        (lambda cfg, dv: DisturbanceModel(radii=(0.1, BIG, 0.1)),
         FieldError, "radii: must be finite and nonnegative")],
        ids=["rpi-tol-big", "rpi-tol-bool", "fixed-xi-big", "fixed-xi-bool",
             "radii-big"])
    def test_entry_points(self, call, kind, message):
        # before: numpy's TypeError, OverflowError, or tol = True kept as 1
        cfg, dv = _fixture()
        with pytest.raises(ValueError) as info:
            call(cfg, dv)
        assert type(info.value) is kind
        assert str(info.value) == message

    SHOWN = [
        (10 ** 20 - 1, "99999999999999999999"),
        (10 ** 20, "an integer of 21 digits"),
        (10 ** 400 - 1, "an integer of 400 digits"),
        (BIG, BIG_SHOWN),
        (-10 ** 5000, "a negative integer of 5001 digits"),
        (np.int64(-7), "-7"), (np.float64(np.nan), "nan"), (1.5, "1.5")]

    @pytest.mark.parametrize("value, shown", SHOWN,
                             ids=[shown for _, shown in SHOWN])
    def test_shown(self, value, shown):
        # an integer past Python's int-to-str limit cannot even be a test id
        assert _shown(value) == shown

    def test_shown_quotes_through_repr(self):
        assert _shown("x", repr) == "'x'"
        assert _shown(10 ** 5000, repr) == "an integer of 5001 digits"
