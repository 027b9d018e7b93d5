"""The benchmark's oracle against direct numeric integration.

    python3 -m pytest perfbench/test_oracle.py

Each closed form or lobe quadrature in oracle.py is compared with a plain
trapezoid rule over the detuning density on a fine grid. None of these
tests imports the package under test.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

import oracle

DELAYS_PS = (0.08, 0.12, 0.20, 0.27, 0.37, 0.80)
# +-12 detuning spreads, fine enough to resolve cos(2 pi d tau) up to 1.6 ps.
D = np.linspace(-12 * oracle.SIGMA_D_THZ, 12 * oracle.SIGMA_D_THZ, 400_001)
G_D = oracle.detuning_density(D)


def _integral(values) -> float:
    return float(np.trapezoid(values, D))


def test_detuning_spread_of_the_20nm_source():
    # 20 nm at 810 nm is 9.14 THz FWHM per photon; the detuning of an
    # anti-correlated pair spreads twice as wide.
    fwhm_thz = 299792.458 * 20.0 / 810.0 ** 2
    assert oracle.SIGMA_D_THZ == pytest.approx(
        2 * fwhm_thz / (2 * math.sqrt(2 * math.log(2))), rel=1e-15)
    assert _integral(G_D) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("tau", (0.0, 0.03, 0.12, 0.37, 1.5))
def test_characteristic_function(tau):
    direct = _integral(G_D * np.cos(2 * np.pi * D * tau))
    assert float(oracle.characteristic(tau)) == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("tau1", DELAYS_PS)
def test_coincidence_probability(tau1):
    direct = _integral(0.5 * G_D * (1 - np.cos(2 * np.pi * D * tau1)))
    assert oracle.coincidence_probability(tau1) == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("tau1", DELAYS_PS)
def test_fringe_probability(tau1):
    w = G_D * (1 - np.cos(2 * np.pi * D * tau1))
    tau2 = np.linspace(-0.75, 0.75, 61)
    direct = [0.5 * (1 + _integral(w * np.cos(2 * np.pi * D * t)) / _integral(w))
              for t in tau2]
    np.testing.assert_allclose(oracle.fringe_probability(tau1, tau2), direct,
                               rtol=0, atol=1e-11)


@pytest.mark.parametrize("tau1", DELAYS_PS)
def test_fringe_limits(tau1):
    # 1 at zero delay, 1/2 far outside the coherence time.
    assert oracle.fringe_probability(tau1, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert oracle.fringe_probability(tau1, 50.0) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("tau1", DELAYS_PS)
def test_lobe_volumes_and_centroids(tau1):
    lobes = oracle.lobes(tau1)
    total = 0.0
    for k, (vol, centroid) in enumerate(lobes):
        d = np.linspace(k / tau1, (k + 1) / tau1, 200_001)
        w = oracle.detuning_density(d) * (1 - np.cos(2 * np.pi * d * tau1))
        direct_vol = float(np.trapezoid(w, d))
        assert vol == pytest.approx(direct_vol, rel=1e-9, abs=1e-15)
        if direct_vol > 1e-9:
            assert centroid == pytest.approx(
                float(np.trapezoid(d * w, d)) / direct_vol, rel=1e-9)
        total += vol
    # The lobe weight g(1 - cos) is twice the coincidence integrand, and the
    # negative side mirrors the positive one.
    assert total == pytest.approx(oracle.coincidence_probability(tau1), abs=1e-12)


def test_dimensions_at_the_reference_delays():
    # The paper's 2-, 4-, 4- and 6-dimensional combs.
    assert [oracle.dimension(t) for t in (0.12, 0.20, 0.27, 0.37)] == [2, 4, 4, 6]
    assert oracle.dimension(0.08) == 2
    assert oracle.dimension(0.80) == 12


def test_scan_csv_layout(tmp_path):
    rng = np.random.default_rng(7)
    tau2, probs, counts = oracle.scan_rows(0.27, -0.75, 0.75, 601, 1000, rng)
    path = os.path.join(tmp_path, "scan.csv")
    oracle.write_scan_csv(path, tau2, probs, counts, 1000, 7)
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[:4] == ["# schema_version=1", "# counts_per_point=1000",
                         "# seed=7", "tau2_ps,probability_model,counts,sigma"]
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[4:]])
    np.testing.assert_array_equal(rows[:, 0], tau2)
    np.testing.assert_array_equal(rows[:, 1], probs)
    np.testing.assert_array_equal(rows[:, 2], counts)
    np.testing.assert_array_equal(rows[:, 3], np.sqrt(np.maximum(counts, 1)))

    tau2, probs, counts = oracle.scan_rows(0.27, -0.75, 0.75, 601, 0, rng)
    assert counts is None
    oracle.write_scan_csv(path, tau2, probs, None, 0, None)
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[:3] == ["# schema_version=1", "# counts_per_point=0",
                         "tau2_ps,probability_model"]
    assert len(lines) == 3 + 601
