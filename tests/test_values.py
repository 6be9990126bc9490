"""Constants and certificates are values: FixedParams and DecisionVars are
frozen and hold read-only arrays; what is derived from X, and the X-free
half of a subsystem's condition layout, is built once on its owner, each
table equal to the expression it replaced."""

import copy
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from it2mpc.configio import (bundled_config_names, load_bundled_config,
                             load_certificate)
from it2mpc.linalg import sym_eig, sym_matrix
from it2mpc.lmis import DecisionVars
from it2mpc.simulation import run_online_loop
from it2mpc.synthesis import minimize_xi, verify_certificate

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
        params = load_bundled_config(name).params
        for i, x in enumerate(params.X):
            np.testing.assert_array_equal(
                params.x_eigs[i], np.linalg.eigvalsh(sym_matrix(x)))
            np.testing.assert_array_equal(
                params.x_inv[i], np.linalg.solve(x, np.eye(x.shape[0])))
            eig = sym_eig(x)
            np.testing.assert_array_equal(
                params.x_inv_sqrt[i], eig.vectors @ np.diag(
                    1.0 / np.sqrt(eig.values)) @ eig.vectors.T)
        assert params.shape_inverses is params.x_inv      # built once

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
