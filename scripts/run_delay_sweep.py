#!/usr/bin/env python3
"""Sweep the first-stage delay and tabulate the discrete structure.

For each delay the script prints the predicted bin pairs (envelope-weighted
lobe centroids) next to what the 2D-map extraction recovers, plus the
coherence time implied by the smallest detuning. Useful for picking delays
that land a target dimensionality.

Example:
    python3 scripts/run_delay_sweep.py --delays 0.12 0.20 0.27 0.37
"""

from __future__ import annotations

import argparse
from itertools import islice

import numpy as np

from hombeat import Scenario, coherence_time, predict_bins
from hombeat.cli import BIN_THRESHOLD, run_chain


def sweep(delays: list[float], with_maps: bool) -> None:
    for tau1 in delays:
        scenario = Scenario(tau1_ps=tau1)
        if with_maps:
            # The chain's first two stages: the map, then its bins.
            stages = dict(islice(run_chain(scenario), 2))
            extraction, predicted = stages["spectrum_bins"]
        else:
            predicted = predict_bins(scenario.model, tau1, threshold=BIN_THRESHOLD)
        print(f"tau1 = {tau1:.3f} ps   m = {predicted.dimension_m}   "
              f"tau_c = {coherence_time(predicted):.3f} ps")
        header = f"  {'pair':>4} {'mu_pred/THz':>12} {'A_pred':>8}"
        rows = [
            [f"  {p.index_j:>4} {p.detuning_thz:>12.4f} {p.weight:>8.4f}"]
            for p in predicted.pairs
        ]
        if with_maps:
            header += f" {'mu_map/THz':>12} {'A_map':>8} {'p_map':>7} {'fwhm/nm':>8}"
            for k, p in enumerate(extraction.state.pairs):
                if k < len(rows):
                    rows[k].append(
                        f" {p.detuning_thz:>12.4f} {p.weight:>8.4f}"
                        f" {p.balance:>7.3f}"
                        f" {extraction.lobe_fwhm_nm[k]:>8.3f}")
                else:
                    rows.append([f"  {'':>4} {'':>12} {'':>8}",
                                 f" {p.detuning_thz:>12.4f} {p.weight:>8.4f}"
                                 f" {p.balance:>7.3f}"
                                 f" {extraction.lobe_fwhm_nm[k]:>8.3f}"])
        print(header)
        for row in rows:
            print("".join(row))
        print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delays", type=float, nargs="+",
                        default=[0.12, 0.20, 0.27, 0.37],
                        help="first-stage delays in ps")
    parser.add_argument("--fine", action="store_true",
                        help="also sweep a fine grid (prediction only)")
    parser.add_argument("--no-maps", action="store_true",
                        help="skip the 2D-map extraction; print predictions only")
    args = parser.parse_args()

    sweep(args.delays, with_maps=not args.no_maps)

    if args.fine:
        print("fine sweep (prediction only):")
        print(f"  {'tau1/ps':>8} {'m':>3} {'mu_min/THz':>11} {'tau_c/ps':>9}")
        model = Scenario().model
        for tau1 in np.arange(0.05, 0.81, 0.025):
            state = predict_bins(model, float(tau1), threshold=BIN_THRESHOLD)
            print(f"  {tau1:>8.3f} {state.dimension_m:>3}"
                  f" {state.pairs[0].detuning_thz:>11.4f}"
                  f" {coherence_time(state):>9.3f}")


if __name__ == "__main__":
    main()
