import copy
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import tiny_config_doc
from it2mpc.configio import (ConfigError, bundled_config_names,
                             load_bundled_config, load_certificate,
                             load_config, parse_config, save_certificate,
                             save_config, serialize_config)
from it2mpc.lmis import DecisionVars
from it2mpc.membership import ResidualMF, SigmoidMF
from it2mpc.synthesis import SynthesisConfig


@pytest.fixture
def doc():
    return tiny_config_doc()


class TestRoundTrip:
    def test_parse_serialize_identity(self, doc):
        cfg = parse_config(copy.deepcopy(doc))
        assert serialize_config(cfg) == doc
        assert cfg.data == doc

    def test_json_text_round_trip_is_stable(self, doc):
        # through actual JSON text, twice
        cfg1 = parse_config(json.loads(json.dumps(doc)))
        cfg2 = parse_config(json.loads(json.dumps(serialize_config(cfg1))))
        assert serialize_config(cfg2) == serialize_config(cfg1)

    @pytest.mark.parametrize("key, value", [
        ("input_margin", 1e-6), ("n_starts", 2), ("max_iters", 60),
        ("init_step", 0.4), ("min_step", 1e-7), ("step_grow", 1.6),
        ("step_shrink", 0.5), ("start_scale", 0.3), ("xi_rel_tol", 1e-3),
        ("xi_growth_iters", 24), ("rescue_evals", 600), ("xi_floor", 1e-8),
        ("xi_floor", 0.0), ("xi_floor", "x")])
    def test_legacy_synthesis_key_is_dropped(self, doc, key, value):
        # keys of the retired input certificate Z, of the retired
        # derivative-free gain search and the retired set-size floor, which
        # the disturbance budget replaced: a config carrying them still loads,
        # their values unread (an xi_floor of 0.0 or "x" was refused)
        legacy = copy.deepcopy(doc)
        legacy["synthesis"][key] = value
        cfg = parse_config(legacy)
        assert key not in serialize_config(cfg)["synthesis"]
        assert serialize_config(cfg) == doc
        assert parse_config(serialize_config(cfg)).data == doc

    def test_save_and_load_file(self, doc, tmp_path):
        cfg = parse_config(copy.deepcopy(doc))
        path = tmp_path / "sys.json"
        save_config(cfg, path)
        again = load_config(path)
        assert again.data == cfg.data
        assert again.name == cfg.name

    def test_built_objects(self, doc):
        cfg = parse_config(copy.deepcopy(doc))
        assert cfg.n_subsystems == 1
        sub = cfg.system.subsystems[0]
        assert sub.n_rules == 2 and sub.n_u == 2
        assert_allclose(sub.rules[0].A, [[0.5, 0.1], [0.0, 0.4]])
        assert sub.H.shape == (1, 2)
        assert cfg.params.lam == (0.05,)
        assert cfg.simulation.steps == 20
        assert cfg.simulation.disturbance.kind == "uniform_ball"
        assert cfg.synthesis == SynthesisConfig()
        assert cfg.gains is None

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "missing.json")

    def test_invalid_json_text(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)


class TestValidationErrors:
    """Every rejection names the offending field path."""

    def check(self, doc, mutate, pattern):
        bad = copy.deepcopy(doc)
        mutate(bad)
        with pytest.raises(ConfigError, match=pattern):
            parse_config(bad, source="cfg")

    def test_unsupported_schema_version(self, doc):
        self.check(doc, lambda d: d.update(schema_version=99),
                   r"cfg\.schema_version.*unsupported")

    def test_missing_required_section(self, doc):
        self.check(doc, lambda d: d.pop("fixed_params"),
                   "missing required field 'fixed_params'")

    def test_unknown_top_level_field(self, doc):
        self.check(doc, lambda d: d.update(extra=1), r"unknown field")

    def test_lam_out_of_range(self, doc):
        def mutate(d):
            d["fixed_params"]["lam"][0] = 1.5
        self.check(doc, mutate, r"cfg\.fixed_params.*lam\[0\]")

    def test_ragged_matrix(self, doc):
        def mutate(d):
            d["subsystems"][0]["rules"][0]["A"] = [[1.0, 2.0], [3.0]]
        self.check(doc, mutate, r"rules\[1\]\.A.*equal-length")

    def test_non_numeric_entry(self, doc):
        def mutate(d):
            d["subsystems"][0]["rules"][0]["B"][0][0] = "x"
        self.check(doc, mutate, r"B\[1\]\[1\].*expected a number")

    def test_rule_shape_mismatch_reported_with_subsystem_path(self, doc):
        def mutate(d):
            d["subsystems"][0]["rules"][1]["E"] = [[0.1, 0.0]]
        self.check(doc, mutate, r"cfg\.subsystems\[1\].*E has shape")

    def test_x0_count(self, doc):
        def mutate(d):
            d["simulation"]["x0"] = []
        self.check(doc, mutate, r"simulation\.x0.*expected 1 vectors")

    def test_x0_length(self, doc):
        def mutate(d):
            d["simulation"]["x0"] = [[1.0, 2.0, 3.0]]
        self.check(doc, mutate, r"x0\[1\].*expected 2 entries")

    def test_bad_disturbance_kind(self, doc):
        def mutate(d):
            d["simulation"]["disturbance"]["kind"] = "gauss"
        self.check(doc, mutate, r"disturbance\.kind")

    def test_bad_resynth(self, doc):
        def mutate(d):
            d["simulation"]["resynth"] = "sometimes"
        self.check(doc, mutate, r"simulation\.resynth")

    def test_negative_steps(self, doc):
        def mutate(d):
            d["simulation"]["steps"] = -1
        self.check(doc, mutate, r"simulation\.steps.*nonnegative")

    def test_mu_bar_range(self, doc):
        def mutate(d):
            d["simulation"]["mu_bar"] = 1.5
        self.check(doc, mutate, r"mu_bar.*\[0, 1\]")

    def test_reconstructed_mode_needs_rho_bar(self, doc):
        def mutate(d):
            d["simulation"]["mode"] = "reconstructed"
        self.check(doc, mutate, r"rho_bar")

    def test_nonpositive_ts(self, doc):
        self.check(doc, lambda d: d.update(Ts=0.0), r"cfg\.Ts.*positive")

    def test_unknown_membership_kind(self, doc):
        def mutate(d):
            d["subsystems"][0]["model_mfs"]["lower"][0]["kind"] = "triangle"
        self.check(doc, mutate, r"lower\[1\].*unknown membership kind")

    def test_sigmoid_zero_divisor(self, doc):
        def mutate(d):
            d["subsystems"][0]["model_mfs"]["upper"][1]["divisor"] = 0.0
        self.check(doc, mutate, r"upper\[2\].*divisor")

    def test_mismatched_tier_lengths(self, doc):
        def mutate(d):
            d["subsystems"][0]["model_mfs"]["lower"].append(
                {"kind": "sigmoid", "shift": 0.0, "divisor": 1.0})
        self.check(doc, mutate, r"model_mfs.*same number of rules")

    def test_bad_synthesis_field(self, doc):
        def mutate(d):
            d["synthesis"]["n_startz"] = 3
        self.check(doc, mutate, r"cfg\.synthesis.*unknown field")

    def test_unknown_xi_mode(self, doc):
        def mutate(d):
            d["synthesis"]["xi_mode"] = "bogus"
        self.check(doc, mutate, r"cfg\.synthesis.*unknown xi mode: 'bogus'")

    @pytest.mark.parametrize("density", [1, 0, -3, True, 2.5, "11"])
    def test_grid_density_must_be_an_integer_of_two_or_more(self, doc,
                                                            density):
        # 1 made NaN weights and <= 0 an empty grid, each failing in verify
        def mutate(d):
            d["synthesis"]["grid_density"] = density
        self.check(doc, mutate,
                   r"cfg\.synthesis\.grid_density: must be an integer >= 2")

    @pytest.mark.parametrize("field, value, rule", [
        ("strictness", "1e-9", ">= 0"), ("strictness", -1.0, ">= 0"),
        ("strictness", float("nan"), ">= 0"), ("strictness", True, ">= 0"),
        ("strictness", float("inf"), ">= 0")])
    def test_tolerances_must_be_finite_numbers(self, doc, field, value,
                                               rule):
        # a string failed deep in numpy, a negative strictness was judged as
        # an allowance, and NaN failed only at run time
        def mutate(d):
            d["synthesis"][field] = value
        self.check(doc, mutate, rf"cfg\.synthesis\.{field}: must be a "
                                rf"finite number {rule}, got")

    @pytest.mark.parametrize("field, value", [
        ("strictness", 0), ("strictness", 0.0), ("strictness", 1e-6)])
    def test_finite_tolerances_load(self, doc, field, value):
        good = copy.deepcopy(doc)
        good["synthesis"][field] = value
        assert getattr(parse_config(good).synthesis, field) == value

    @pytest.mark.parametrize("density", [2, 3, 11])
    def test_grid_density_of_two_or_more_loads(self, doc, density):
        good = copy.deepcopy(doc)
        good["synthesis"]["grid_density"] = density
        assert parse_config(good).synthesis.grid_density == density

    def test_premise_selector_must_be_one_based(self, doc):
        def mutate(d):
            d["subsystems"][0]["premise_selector"] = 0
        self.check(doc, mutate, r"premise_selector.*1-based")

    def test_gains_rule_count(self, doc):
        def mutate(d):
            d["gains"] = [[[[0.0, 0.0], [0.0, 0.0]]]]  # one matrix, need two
        self.check(doc, mutate, r"gains\[1\].*expected 2 gain matrices")

    def test_gains_shape(self, doc):
        def mutate(d):
            d["gains"] = [[[[0.0, 0.0]], [[0.0, 0.0]]]]  # 1x2, need 2x2
        self.check(doc, mutate, r"gains\[1\]\[1\].*expected 2 rows")


class TestMembershipRecords:
    def test_residual_reference_round_trip(self):
        cfg = load_bundled_config("example2")
        fam = cfg.system.subsystems[0].model_mfs
        assert isinstance(fam.lower[1], ResidualMF)
        assert all(isinstance(mf, SigmoidMF) for mf in fam.lower[1].others)
        # middle lower rule completes the two upper shoulders
        z = 0.17
        expected = 1.0 - fam.upper[0](z) - fam.upper[2](z)
        assert fam.lower[1](z) == pytest.approx(max(0.0, expected))

    def test_residual_may_only_reference_sigmoids(self, doc):
        bad = copy.deepcopy(doc)
        mfs = bad["subsystems"][0]["model_mfs"]
        mfs["lower"][0] = {"kind": "residual",
                           "of": [{"tier": "lower", "rule": 2}]}
        mfs["lower"][1] = {"kind": "residual",
                           "of": [{"tier": "lower", "rule": 1}]}
        with pytest.raises(ConfigError, match="only sigmoid"):
            parse_config(bad, source="cfg")

    def test_residual_reference_out_of_range(self, doc):
        bad = copy.deepcopy(doc)
        bad["subsystems"][0]["model_mfs"]["lower"][0] = {
            "kind": "residual", "of": [{"tier": "upper", "rule": 7}]}
        with pytest.raises(ConfigError, match=r"rule must be in 1\.\.2"):
            parse_config(bad, source="cfg")

    def test_true_tier_required_only_for_true_plant_mode(self, doc):
        bad = copy.deepcopy(doc)
        del bad["subsystems"][0]["model_mfs"]["true"]
        with pytest.raises(ConfigError, match="needs a 'true' tier"):
            parse_config(bad, source="cfg")
        bad["simulation"]["mode"] = "reconstructed"
        bad["simulation"]["rho_bar"] = 0.5
        cfg = parse_config(bad, source="cfg")
        assert cfg.system.subsystems[0].model_mfs.true_mf is None


def _unequal_dims_doc():
    """The tiny document plus a second, one-state subsystem (two rules, two
    inputs), with per-subsystem Q and R."""
    doc = tiny_config_doc()
    sub = copy.deepcopy(doc["subsystems"][0])
    for rule in sub["rules"]:
        rule.update(A=[[0.5]], B=[[1.0, 0.0]], E=[[0.1]])
    sub["H"] = [[1.0]]
    doc["subsystems"].append(sub)
    fp = doc["fixed_params"]
    for name, value in (("X", [[5.0]]), ("lam", 0.05), ("N_const", 20.0),
                        ("M", fp["M"][0]), ("tau", 1.0)):
        fp[name].append(value)
    fp["Q"] = [fp["Q"], [[0.07]]]
    fp["R"] = [fp["R"], [[2.0, 0.0], [0.0, 3.0]]]
    doc["simulation"]["x0"].append([0.1])
    return doc


class TestPerSubsystemWeights:
    """The per-subsystem Q/R form: one matrix per subsystem in place of a
    shared one."""

    @staticmethod
    def _example1_doc():
        doc = load_bundled_config("example1_synthesis").data
        doc["fixed_params"]["Q"] = [(0.1 * (i + 1) * np.eye(2)).tolist()
                                    for i in range(3)]
        doc["fixed_params"]["R"] = [[[float(i + 1)]] for i in range(3)]
        return doc

    @pytest.mark.parametrize("make", ["example1", "unequal_dims"])
    def test_parses_and_round_trips(self, make):
        doc = self._example1_doc() if make == "example1" \
            else _unequal_dims_doc()
        cfg = parse_config(copy.deepcopy(doc))
        for i, (q, r) in enumerate(zip(doc["fixed_params"]["Q"],
                                       doc["fixed_params"]["R"])):
            assert np.array_equal(cfg.params.q_mat(i), np.array(q))
            assert np.array_equal(cfg.params.r_mat(i), np.array(r))
        assert serialize_config(cfg) == doc
        assert serialize_config(parse_config(serialize_config(cfg))) == doc

    def test_wrong_length_list_names_the_field(self):
        doc = self._example1_doc()
        del doc["fixed_params"]["Q"][2]
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert str(info.value) == \
            "<config>.fixed_params.Q: expected 3 entries, got 2"

    def test_shared_matrix_needs_equal_dims(self):
        doc = _unequal_dims_doc()
        doc["fixed_params"]["Q"] = doc["fixed_params"]["Q"][0]
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert str(info.value) == ("<config>.fixed_params.Q: shared matrix "
                                   "needs equal dimensions across subsystems")


class TestBundledConfigs:
    def test_names(self):
        assert bundled_config_names() == [
            "example1", "example1_synthesis", "example2",
            "example2_stabilized"]

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="no bundled config"):
            load_bundled_config("example99")

    def test_example1_values(self):
        cfg = load_bundled_config("example1")
        assert cfg.n_subsystems == 3
        assert_allclose(cfg.system.subsystems[0].rules[0].A,
                        [[0.55, 0.05], [0.0, 0.42]])
        assert cfg.params.lam == (0.5, 0.488, 0.487)
        assert cfg.params.tau[2] == 2.0
        assert cfg.gains is not None
        assert_allclose(cfg.gains[0][0], [[-0.549, -0.222]])
        assert cfg.simulation.disturbance.kind == "zero"
        # coupling keys come back 0-based in memory
        assert set(cfg.system.subsystems[0].couplings) == {1, 2}

    def test_example1_synthesis_values(self):
        cfg = load_bundled_config("example1_synthesis")
        assert cfg.gains is None
        assert cfg.simulation.resynth == "every_step"
        assert_allclose(cfg.params.X[1], 30.0 * np.eye(2))
        assert cfg.params.alpha == 2.0

    def test_example2_values(self):
        cfg = load_bundled_config("example2")
        sub2 = cfg.system.subsystems[1]
        assert_allclose(sub2.rules[0].B, [[1.0], [1.0]])
        assert_allclose(sub2.H, [[1.0, 0.0]])
        assert sub2.eta == 0.02
        assert cfg.system.subsystems[0].n_rules == 3

    def test_example2_stabilized_has_shared_gains(self):
        cfg = load_bundled_config("example2_stabilized")
        gains = cfg.gains
        assert len(gains) == 2 and all(len(g) == 3 for g in gains)
        for g in gains:
            for k in g[1:]:
                assert_allclose(k, g[0])

    def test_all_bundled_round_trip(self):
        for name in bundled_config_names():
            cfg = load_bundled_config(name)
            assert serialize_config(
                parse_config(copy.deepcopy(cfg.data))) == cfg.data


class TestCertificateFiles:
    def make_dv(self):
        return DecisionVars(
            gains=[[np.array([[-0.5, -0.1], [0.0, -0.4]]),
                    np.array([[-0.3, 0.0], [0.1, -0.2]])]],
            xi=[1.25])

    def test_round_trip(self, tmp_path, doc):
        cfg = parse_config(copy.deepcopy(doc))
        dv = self.make_dv()
        path = tmp_path / "cert.json"
        save_certificate(dv, path, margins={"invariance[i=0]": -0.5},
                         meta={"xi_mode": "common"})
        back, raw = load_certificate(path, cfg.system)
        assert back.xi == (1.25,)
        assert_allclose(back.gains[0][1], dv.gains[0][1])
        assert "Z" not in raw
        assert raw["worst"] == -0.5
        assert raw["meta"]["xi_mode"] == "common"

    def test_wrong_kind_rejected(self, tmp_path, doc):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({"kind": "other"}))
        with pytest.raises(ConfigError, match="not a certificate"):
            load_certificate(path, parse_config(copy.deepcopy(doc)).system)

    def test_missing_field(self, tmp_path, doc):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({"kind": "certificate", "xi": [1.0]}))
        with pytest.raises(ConfigError, match="missing required field"):
            load_certificate(path, parse_config(copy.deepcopy(doc)).system)

    def test_shape_checked_against_system(self, tmp_path, doc):
        # the gains are read as a config's are: _matrix's row count first
        cfg = parse_config(copy.deepcopy(doc))
        good = self.make_dv()
        dv = DecisionVars(gains=[[np.array([[1.0, 2.0, 3.0]]),
                                  good.gains[0][1]]], xi=good.xi)
        path = tmp_path / "cert.json"
        save_certificate(dv, path)
        with pytest.raises(ConfigError, match=r"^cert\.json\.gains\[1\]\[1\]: "
                                              r"expected 2 rows, got 1$"):
            load_certificate(path, cfg.system)

    def test_entry_count_checked_against_xi(self, tmp_path, doc):
        # one set size, one subsystem, but two gain lists: _parse_gains'
        # entry count against the system
        cfg = parse_config(copy.deepcopy(doc))
        path = tmp_path / "cert.json"
        save_certificate(self.make_dv(), path)
        raw = json.loads(path.read_text())
        raw["gains"] = raw["gains"] * 2
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError,
                           match=r"^cert\.json\.gains: expected 1 entries, "
                                 r"got 2$"):
            load_certificate(path, cfg.system)

    @pytest.mark.parametrize("field, value, where", [
        ("xi", 5, r"\.xi: expected one set size per subsystem, got int"),
        ("gains", 3, r"\.gains: expected one gain list per subsystem, "
                     r"got int"),
        ("gains", [5], r"\.gains\[1\]: expected one gain matrix per "
                       r"controller rule, got int")])
    def test_field_types_checked(self, tmp_path, doc, field, value, where):
        # each was a TypeError ('int' object is not iterable)
        path = tmp_path / "cert.json"
        save_certificate(self.make_dv(), path)
        raw = json.loads(path.read_text())
        raw[field] = value
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=r"^cert\.json" + where):
            load_certificate(path, parse_config(copy.deepcopy(doc)).system)

    @pytest.mark.parametrize("value", [2, 5e-324])
    def test_positive_set_size_loads_as_float(self, tmp_path, doc, value):
        # any finite size > 0 loads, an integer one as the equal float
        cfg = parse_config(copy.deepcopy(doc))
        path = tmp_path / "cert.json"
        save_certificate(self.make_dv(), path)
        raw = json.loads(path.read_text())
        raw["xi"] = [value]
        path.write_text(json.dumps(raw))
        back, _ = load_certificate(path, cfg.system)
        assert back.xi == (value,)
        assert type(back.xi[0]) is float

    def test_legacy_z_field_is_ignored(self, tmp_path, doc):
        # certificates written before the input certificate Z was retired
        # carry it; any value loads, unchecked
        cfg = parse_config(copy.deepcopy(doc))
        path = tmp_path / "cert.json"
        save_certificate(self.make_dv(), path)
        raw = json.loads(path.read_text())
        raw["Z"] = [[[1.0]], [[2.0]]]
        path.write_text(json.dumps(raw))
        back, _ = load_certificate(path, cfg.system)
        assert back.xi == (1.25,)
        assert_allclose(back.gains[0][1], self.make_dv().gains[0][1])
        assert not hasattr(back, "Z")
