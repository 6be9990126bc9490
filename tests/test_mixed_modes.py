"""A stacked step with one membership mode per sample, bit for bit against
the single-mode calls on its subsets.

step_closed_loop_detail and step_open_loop take mode as a (P,) array of
mode names when the states are stacked (P, n_x): each sample must get, as
float hex, what a call with that sample's mode alone gives it, on drawn
plants (several shape groups, unequal couplings) and on the stored example1
certificate, with all-true, all-reconstructed and one-sample stacks among
them. rho_bar is read at the reconstructed samples only."""

from pathlib import Path

import numpy as np
import pytest

from it2mpc.configio import load_bundled_config, load_certificate
from it2mpc.plant import step_closed_loop_detail, step_open_loop

from test_plant_groups import build_plant, plants

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

MODES = ("true_plant", "reconstructed")
FIXTURE = (Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
           / "example1_certificate.json")


def _hex(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


def _rows(weight, sel):
    return weight[sel] if isinstance(weight, np.ndarray) else weight


def assert_equals_single_mode_calls(system, gains, x_all, d_all, mu, modes,
                                    rho):
    """The mixed step (closed and open loop) against one call per mode on
    that mode's samples."""
    got = step_closed_loop_detail(system, gains, x_all, d_all, mu, modes, rho)
    opened = step_open_loop(system, x_all, got[1], d_all, modes, rho)
    for mode in MODES:
        sel = modes == mode
        if not sel.any():
            continue
        sub_x = [x[sel] for x in x_all]
        sub_d = [d[sel] for d in d_all]
        sub_rho = _rows(rho, sel) if mode == "reconstructed" else None
        want = step_closed_loop_detail(system, gains, sub_x, sub_d,
                                       _rows(mu, sel), mode, sub_rho)
        for got_all, want_all in zip(got, want, strict=True):
            for g, w in zip(got_all, want_all, strict=True):
                assert g[sel].shape == w.shape
                assert _hex(g[sel]) == _hex(w)
        want_open = step_open_loop(system, sub_x, [u[sel] for u in got[1]],
                                   sub_d, mode, sub_rho)
        for g, w in zip(opened, want_open, strict=True):
            assert _hex(g[sel]) == _hex(w)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(plant=plants(), data=st.data(), n_samples=st.integers(1, 6),
       per_sample=st.booleans())
def test_drawn_plants(plant, data, n_samples, per_sample):
    shapes, links, seed = plant
    system, gains, rng = build_plant(shapes, links, seed)
    modes = np.array(data.draw(st.lists(st.sampled_from(MODES),
                                        min_size=n_samples,
                                        max_size=n_samples)))

    def weight():
        return rng.uniform(0.0, 1.0, n_samples) if per_sample \
            else float(rng.uniform(0.0, 1.0))

    x_all = [rng.uniform(-2.0, 2.0, (n_samples, s[0])) for s in shapes]
    d_all = [rng.uniform(-0.2, 0.2, (n_samples, s[2])) for s in shapes]
    assert_equals_single_mode_calls(system, gains, x_all, d_all, weight(),
                                    modes, weight())


@pytest.fixture(scope="module")
def fixture_certificate():
    cfg = load_bundled_config("example1_synthesis")
    dv, _doc = load_certificate(FIXTURE, cfg.system)
    return cfg.system, dv.gains


STACKS = {
    "all true": ["true_plant"] * 5,
    "all reconstructed": ["reconstructed"] * 5,
    "one true": ["true_plant"],
    "one reconstructed": ["reconstructed"],
    "audit pattern": ["reconstructed", "reconstructed", "true_plant"] * 4,
}


@pytest.mark.parametrize("name", sorted(STACKS))
def test_fixture_stacks(fixture_certificate, name):
    system, gains = fixture_certificate
    modes = np.array(STACKS[name])
    rng = np.random.default_rng(len(modes))
    p = len(modes)
    x_all = [rng.uniform(-3.0, 3.0, (p, 2)) for _ in range(3)]
    d_all = [rng.uniform(-0.1, 0.1, (p, 1)) for _ in range(3)]
    grid = np.linspace(0.0, 1.0, 5)
    assert_equals_single_mode_calls(system, gains, x_all, d_all,
                                    grid[np.arange(p) % 5], modes,
                                    grid[(np.arange(p) // 5) % 5])


def test_rho_bar_is_read_at_reconstructed_samples_only(fixture_certificate):
    system, gains = fixture_certificate
    modes = np.array(["true_plant", "reconstructed", "true_plant"])
    x_all = [np.full((3, 2), 0.5), np.full((3, 2), -0.5), np.zeros((3, 2))]
    d_all = [np.zeros((3, 1))] * 3
    rho = np.array([7.0, 0.25, np.nan])
    assert_equals_single_mode_calls(system, gains, x_all, d_all, 0.5, modes,
                                    rho)
    # no reconstructed sample: rho_bar is not needed at all
    step_closed_loop_detail(system, gains, x_all, d_all, 0.5,
                            np.array(["true_plant"] * 3), None)


@pytest.mark.parametrize("modes, rho, message", [
    (["true_plant", "reconstucted", "true_plant"], 0.5,
     "unknown membership mode 'reconstucted'"),
    (["true_plant", "", "reconstructed"], 0.5, "unknown membership mode ''"),
    (["reconstructed"] * 3, np.array([0.5, 1.5, 0.5]), r"rho_bar in \[0, 1\]"),
    (["reconstructed"] * 3, np.array([0.5, 0.5, -0.1]), r"rho_bar in \[0, 1\]"),
    (["true_plant", "reconstructed", "true_plant"], np.array([0.5, np.nan, 0.5]),
     r"rho_bar in \[0, 1\]"),
    (["true_plant", "reconstructed", "true_plant"], 1.5, r"rho_bar in \[0, 1\]"),
    (["true_plant", "reconstructed", "true_plant"], None, r"rho_bar in \[0, 1\]"),
    (["true_plant", "reconstructed"], 0.5, "one entry per stacked state"),
    ([["true_plant"] * 3], 0.5, "one entry per stacked state"),
])
def test_bad_mode_array_raises(fixture_certificate, modes, rho, message):
    system, gains = fixture_certificate
    x_all = [np.zeros((3, 2))] * 3
    d_all = [np.zeros((3, 1))] * 3
    with pytest.raises(ValueError, match=message):
        step_closed_loop_detail(system, gains, x_all, d_all, 0.5,
                                np.array(modes), rho)
    with pytest.raises(ValueError, match=message):
        step_open_loop(system, x_all, [np.zeros((3, 1))] * 3, d_all,
                       np.array(modes), rho)


def test_mode_array_needs_stacked_states(fixture_certificate):
    system, gains = fixture_certificate
    x_all = [np.zeros(2)] * 3
    d_all = [np.zeros(1)] * 3
    with pytest.raises(ValueError, match="one entry per stacked state"):
        step_closed_loop_detail(system, gains, x_all, d_all, 0.5,
                                np.array(["true_plant", "true_plant"]))
