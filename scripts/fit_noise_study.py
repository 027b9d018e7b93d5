#!/usr/bin/env python3
"""Monte-Carlo study of fringe-fit accuracy under Poisson counting noise.

Draws many noisy realizations of the same underlying scan, fits each one,
and reports how often the recovered detunings, visibilities and phases fall
within the stated tolerances of the truth. This is the calibration behind
the fit-accuracy expectations in the test suite.

Example:
    python3 scripts/fit_noise_study.py --tau1 0.27 --n-seeds 100
"""

from __future__ import annotations

import argparse

import numpy as np

from hombeat import fit_fringe_scan, synth_scan
from hombeat.reference import fringe_params_from_reference


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tau1", type=float, default=0.27,
                        help="first-stage delay with tabulated parameters")
    parser.add_argument("--n-seeds", type=int, default=100,
                        help="number of Poisson realizations")
    parser.add_argument("--counts", type=int, default=1000,
                        help="mean counts per scan point at the peak scale")
    parser.add_argument("--n-points", type=int, default=601,
                        help="scan points over the +-0.75 ps window")
    parser.add_argument("--mu-rtol", type=float, default=0.02,
                        help="relative detuning tolerance")
    parser.add_argument("--vis-atol", type=float, default=0.05,
                        help="absolute visibility tolerance")
    parser.add_argument("--phase-atol-deg", type=float, default=5.0,
                        help="absolute phase tolerance in degrees")
    args = parser.parse_args()

    truth = fringe_params_from_reference(args.tau1)
    weights = [p.weight for p in truth.pairs]
    mu_true = np.array([p.detuning_thz for p in truth.pairs])
    vis_true = np.array([p.visibility for p in truth.pairs])
    phase_true = np.array([p.phase_deg for p in truth.pairs])

    n_ok = 0
    n_converged = 0
    worst = {"mu": 0.0, "vis": 0.0, "phase": 0.0}
    for seed in range(args.n_seeds):
        scan = synth_scan(truth, -0.75, 0.75, args.n_points,
                          counts_per_point=args.counts, seed=seed)
        result = fit_fringe_scan(scan, m=truth.dimension_m,
                                 known_weights=weights)
        if not result.converged:
            continue
        n_converged += 1
        fitted = result.params
        mu = np.array([p.detuning_thz for p in fitted.pairs])
        vis = np.array([p.visibility for p in fitted.pairs])
        phase = np.array([p.phase_deg for p in fitted.pairs])
        mu_err = np.abs(mu / mu_true - 1.0)
        vis_err = np.abs(vis - vis_true)
        phase_err = np.abs((phase - phase_true + 180.0) % 360.0 - 180.0)
        worst["mu"] = max(worst["mu"], float(mu_err.max()))
        worst["vis"] = max(worst["vis"], float(vis_err.max()))
        worst["phase"] = max(worst["phase"], float(phase_err.max()))
        if (mu_err.max() <= args.mu_rtol
                and vis_err.max() <= args.vis_atol
                and phase_err.max() <= args.phase_atol_deg):
            n_ok += 1

    print(f"tau1 = {args.tau1} ps, {args.n_seeds} seeds, "
          f"{args.counts} counts/point, {args.n_points} points")
    print(f"converged: {n_converged}/{args.n_seeds}")
    print(f"within tolerance (mu {args.mu_rtol:.0%}, "
          f"vis {args.vis_atol}, phase {args.phase_atol_deg} deg): "
          f"{n_ok}/{args.n_seeds}")
    print(f"worst-case errors: mu {worst['mu']:.2%}, "
          f"vis {worst['vis']:.4f}, phase {worst['phase']:.2f} deg")


if __name__ == "__main__":
    main()
