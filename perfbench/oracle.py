"""Independent reference computations for the benchmark's checks.

Nothing here imports ``hombeat``: the checks must not share code with the
program they check. The source is the Gaussian pair source of the paper
(810 nm degenerate wavelength, 20 nm single-photon marginal FWHM), whose
detuning d = nu1 - nu2 is normal with spread sigma_d. Every delay-domain
quantity then follows from its characteristic function

    G(tau) = exp(-2 pi^2 sigma_d^2 tau^2).

Units: delays in ps, detunings in THz.
"""

from __future__ import annotations

import math

import numpy as np

C_NM_PER_PS = 299792.458
CENTER_WAVELENGTH_NM = 810.0
MARGINAL_FWHM_NM = 20.0
BIN_THRESHOLD = 0.6

# Single-photon marginal FWHM converted to frequency, then to a standard
# deviation; the detuning of anti-correlated photons spreads twice as wide.
SIGMA_SINGLE_THZ = (C_NM_PER_PS * MARGINAL_FWHM_NM / CENTER_WAVELENGTH_NM ** 2
                    / (2.0 * math.sqrt(2.0 * math.log(2.0))))
SIGMA_D_THZ = 2.0 * SIGMA_SINGLE_THZ

# Gauss-Legendre nodes for one lobe; the integrands are smooth on each
# lobe, so 64 nodes integrate them to rounding error.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)


def characteristic(tau_ps):
    """G(tau): the Fourier transform of the detuning density at delay tau."""
    tau = np.asarray(tau_ps, dtype=float)
    return np.exp(-2.0 * math.pi ** 2 * SIGMA_D_THZ ** 2 * tau * tau)


def coincidence_probability(tau1_ps: float) -> float:
    """First-stage coincidence probability 1/2 (1 - G(tau1))."""
    return float(0.5 * (1.0 - characteristic(tau1_ps)))


def fringe_probability(tau1_ps: float, tau2_ps) -> np.ndarray:
    """Second-stage fringe probability after purification.

    1/2 [1 + (G(tau2) - G(tau2 - tau1)/2 - G(tau2 + tau1)/2) / (1 - G(tau1))].
    """
    t = np.asarray(tau2_ps, dtype=float)
    g = characteristic
    num = g(t) - 0.5 * g(t - tau1_ps) - 0.5 * g(t + tau1_ps)
    return 0.5 * (1.0 + num / (1.0 - g(tau1_ps)))


def detuning_density(d_thz) -> np.ndarray:
    d = np.asarray(d_thz, dtype=float)
    return np.exp(-0.5 * (d / SIGMA_D_THZ) ** 2) / (math.sqrt(2.0 * math.pi)
                                                     * SIGMA_D_THZ)


def lobes(tau1_ps: float) -> list[tuple[float, float]]:
    """(volume, centroid) of each positive-detuning lobe of the comb.

    Lobe k spans [k/tau1, (k+1)/tau1], between consecutive zeros of the
    anti-bunching factor 1 - cos(2 pi d tau1); its weight is
    g(d) (1 - cos(2 pi d tau1)). Lobes are listed until they start beyond
    eight detuning spreads, where their volume is below 1e-14.
    """
    out = []
    k = 0
    while k / tau1_ps < 8.0 * SIGMA_D_THZ:
        lo, hi = k / tau1_ps, (k + 1) / tau1_ps
        d = 0.5 * (hi - lo) * _GL_X + 0.5 * (hi + lo)
        w = detuning_density(d) * (1.0 - np.cos(2.0 * math.pi * d * tau1_ps))
        vol = 0.5 * (hi - lo) * float(_GL_W @ w)
        centroid = 0.5 * (hi - lo) * float(_GL_W @ (d * w)) / vol
        out.append((vol, centroid))
        k += 1
    return out


def kept_centroids(tau1_ps: float, threshold: float = BIN_THRESHOLD) -> np.ndarray:
    """Centroids of the lobes holding at least ``threshold`` of the largest
    lobe volume, ascending; one bin pair each, so m = 2 * len(result)."""
    lv = lobes(tau1_ps)
    vmax = max(v for v, _ in lv)
    return np.array([c for v, c in lv if v >= threshold * vmax])


def dimension(tau1_ps: float, threshold: float = BIN_THRESHOLD) -> int:
    """Number of frequency bins m at the lobe-volume threshold."""
    return 2 * len(kept_centroids(tau1_ps, threshold))


def scan_rows(tau1_ps: float, tau2_min_ps: float, tau2_max_ps: float,
              n_points: int, counts_per_point: int, rng) -> tuple:
    """A second-stage delay scan: (tau2, model probability, counts or None).

    Counts are Poisson draws with mean counts_per_point times the model
    probability; counts_per_point = 0 gives the noiseless curve.
    """
    tau2 = np.linspace(tau2_min_ps, tau2_max_ps, n_points)
    probs = fringe_probability(tau1_ps, tau2)
    counts = (rng.poisson(counts_per_point * probs).astype(float)
              if counts_per_point > 0 else None)
    return tau2, probs, counts


def write_scan_csv(path: str, tau2, probs, counts, counts_per_point: int,
                   seed: int | None) -> None:
    """Write a scan in the CSV layout the package README documents.

    ``# key=value`` comment lines, one header row, then one row per delay;
    a counted scan adds ``counts`` and ``sigma`` = sqrt(max(count, 1)).
    Numbers are written with ``repr`` so they read back exactly.
    """
    lines = ["# schema_version=1", f"# counts_per_point={counts_per_point}"]
    columns = [tau2, probs]
    if counts is None:
        lines.append("tau2_ps,probability_model")
    else:
        if seed is not None:
            lines.append(f"# seed={seed}")
        lines.append("tau2_ps,probability_model,counts,sigma")
        columns += [counts, np.sqrt(np.maximum(counts, 1.0))]
    lines += map(",".join, zip(*(map(repr, np.asarray(c, dtype=float).tolist())
                                 for c in columns)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
