"""The benchmark's three workloads: their seeded inputs, ops and checks.

Each workload makes a fixed input list from the seed during set-up, and a
run repeats whole passes over that list. An op's outputs are checked after
its timer stops, against ``oracle`` (which never calls the package) or
against properties the method must have. The tolerances leave room for a
more accurate method; none is fitted to today's output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

import oracle

REFERENCE_DELAYS_PS = (0.12, 0.20, 0.27, 0.37)
# Dimensions the paper reports at the reference delays.
PAPER_DIMENSIONS = {0.12: 2, 0.20: 4, 0.27: 4, 0.37: 6}
SWEEP_DELAYS_PS = tuple(round(0.08 + 0.02 * k, 2) for k in range(37))

# Counts per point of the pipeline's scans and of the fit workload's
# Poisson scans.
PIPELINE_COUNTS_PER_POINT = 1_000
FIT_COUNTS_PER_POINT = (1_000, 10_000)
SCAN_RANGE_PS = (-0.75, 0.75)
SCAN_POINTS = 601
FIT_DRAWS_PER_DELAY = 20

# Absolute error allowed in the total mass of a 512 x 512 map.
MAP_MASS_TOL = 1e-3
# Relative distance allowed between an extracted or fitted detuning and its
# lobe centroid; today's worst cases are 2.0 % (sweep) and 1.7 % (fit, at
# 10^3 counts per point).
DETUNING_REL_TOL = 0.05
# Relative distance allowed between a predicted detuning and the centroid:
# both are the same integral, so only quadrature error separates them.
PREDICTED_REL_TOL = 1e-6


class Workload:
    """A fixed, seeded list of inputs and one op per input."""

    def setup(self, seed: int, workdir: str) -> list:
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def failure(self, inp, out) -> str | None:
        """Why the op itself failed (not how its outputs are wrong)."""
        return None

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError


def _run_cli(cli, argv) -> tuple[int, str]:
    """cli.main(argv) with its stdout dropped and its stderr kept."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _check_detunings(label, mus, tau1, tol) -> list[str]:
    ref = oracle.kept_centroids(tau1)
    mus = np.sort(np.asarray(mus, dtype=float))
    if mus.size != ref.size:
        return [f"{label}: {mus.size} pairs, expected {ref.size}"]
    worst = float(np.max(np.abs(mus / ref - 1.0)))
    if worst > tol:
        return [f"{label}: detuning {worst:.2%} from its lobe centroid "
                f"(tolerance {tol:.2%})"]
    return []


def _check_bin_state(label, dimension_m, mus, weights, tau1, tol) -> list[str]:
    problems = []
    m_ref = oracle.dimension(tau1)
    if dimension_m != m_ref:
        problems.append(f"{label}: m = {dimension_m}, lobe count gives {m_ref}")
    if tau1 in PAPER_DIMENSIONS and dimension_m != PAPER_DIMENSIONS[tau1]:
        problems.append(f"{label}: m = {dimension_m}, the paper has "
                        f"{PAPER_DIMENSIONS[tau1]}")
    if abs(sum(weights) - 1.0) > 1e-6:
        problems.append(f"{label}: weights sum to {sum(weights)!r}")
    return problems + _check_detunings(label, mus, tau1, tol)


def _check_dm_and_report(label, out_dir, m) -> list[str]:
    problems = []
    dm = _load_json(os.path.join(out_dir, "dm.json"))
    rho = np.array(dm["real"]) + 1j * np.array(dm["imag"])
    if rho.shape != (m, m):
        problems.append(f"{label}: density matrix is {rho.shape}, m = {m}")
    if abs(np.trace(rho) - 1.0) > 1e-9:
        problems.append(f"{label}: trace {np.trace(rho)!r}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        problems.append(f"{label}: density matrix is not Hermitian")
    elif np.linalg.eigvalsh(rho).min() < -1e-9:
        problems.append(f"{label}: eigenvalue {np.linalg.eigvalsh(rho).min()!r}")
    eof = _load_json(os.path.join(out_dir, "report.json"))["eof_lower_bound_ebits"]
    if not 0.0 <= eof <= math.log2(m) + 1e-12:
        problems.append(f"{label}: EoF {eof!r} outside [0, log2 {m}]")
    return problems


class Pipeline(Workload):
    """``hombeat pipeline`` in process, at the four reference delays in
    both formats: the whole chain as a CLI user runs it."""

    def setup(self, seed, workdir):
        import hombeat.cli
        self.cli = hombeat.cli
        self.hashes = {}
        inputs = []
        for tau1 in REFERENCE_DELAYS_PS:
            # The scan keeps the scenario's default seed: like the fit
            # workload's panel, the same draws in every run, so no run
            # meets the rare draw the fit does not converge on. The order
            # is fixed too: the process's peak RSS depends on which op
            # runs first (153 or 161 MB), so the seed does not enter here.
            scenario = os.path.join(workdir, f"scenario-{tau1}.json")
            _write_json(scenario, {
                "tau1_ps": tau1,
                "scan": {"counts_per_point": PIPELINE_COUNTS_PER_POINT}})
            for fmt in ("csv", "json"):
                out = os.path.join(workdir, f"pipeline-{tau1}-{fmt}")
                os.makedirs(out)
                inputs.append({"tau1": tau1, "fmt": fmt, "out": out,
                               "argv": ["--scenario", scenario, "--out", out,
                                        "--format", fmt, "pipeline"]})
        return inputs

    def op(self, inp):
        return _run_cli(self.cli, inp["argv"])

    def failure(self, inp, out):
        rc, err = out
        return f"exit {rc}: {err.strip()}" if rc else None

    def check(self, inp, out):
        tau1, fmt, d = inp["tau1"], inp["fmt"], inp["out"]
        label = f"pipeline tau1={tau1} {fmt}"
        bins = _load_json(os.path.join(d, "spectrum_bins.json"))
        m = bins["dimension_m"]
        problems = _check_bin_state(
            label, m, [p["detuning_thz"] for p in bins["pairs"]],
            [p["weight"] for p in bins["pairs"]], tau1, DETUNING_REL_TOL)

        tau2, model = _read_scan_model(os.path.join(d, f"scan.{fmt}"))
        grid = np.linspace(*SCAN_RANGE_PS, SCAN_POINTS)
        if tau2.shape != grid.shape or np.max(np.abs(tau2 - grid)) > 1e-12:
            problems.append(f"{label}: scan grid differs from the scenario's")
        else:
            err = float(np.max(np.abs(model - oracle.fringe_probability(tau1, tau2))))
            if err > 1e-9:
                problems.append(f"{label}: probability_model off the closed "
                                f"form by {err:.3g}")

        if not _load_json(os.path.join(d, "fit.json"))["converged"]:
            problems.append(f"{label}: fit did not converge")
        problems += _check_dm_and_report(label, d, m)

        # Byte determinism: every file but the time-stamped bundle must
        # repeat exactly when the same scenario and seed run again.
        digests = {}
        for name in sorted(os.listdir(d)):
            if name != "bundle.json":
                with open(os.path.join(d, name), "rb") as fh:
                    digests[name] = hashlib.sha256(fh.read()).hexdigest()
        first = self.hashes.setdefault(d, digests)
        if digests != first:
            problems.append(f"{label}: a repeated run wrote different bytes")
        return problems


def _read_scan_model(path):
    """(tau2, probability_model) columns of a CSV or JSON scan file."""
    if path.endswith(".json"):
        data = _load_json(path)
        return (np.array(data["tau2_ps"], dtype=float),
                np.array(data["probability_model"], dtype=float))
    with open(path, encoding="utf-8") as fh:
        rows = [line.strip().split(",") for line in fh
                if line.strip() and not line.startswith("#")]
    if rows[0][:2] != ["tau2_ps", "probability_model"]:
        raise ValueError(f"unexpected scan header {rows[0]}")
    cols = np.array([[float(r[0]), float(r[1])] for r in rows[1:]])
    return cols[:, 0], cols[:, 1]


class Sweep(Workload):
    """Map synthesis, bin extraction and bin prediction over the first
    delay, 0.08 to 0.80 ps: the design loop of scripts/run_delay_sweep.py.
    No files are written."""

    def setup(self, seed, workdir):
        import hombeat.bins
        import hombeat.hom
        from hombeat import BiphotonSpectrumModel
        self.hom, self.bins = hombeat.hom, hombeat.bins
        self.model = BiphotonSpectrumModel()
        order = np.random.default_rng(seed).permutation(len(SWEEP_DELAYS_PS))
        return [SWEEP_DELAYS_PS[k] for k in order]

    def op(self, tau1):
        map_ = self.hom.coincidence_spectrum(self.model, tau1)
        extraction = self.bins.extract_bins_from_map(map_, threshold=oracle.BIN_THRESHOLD)
        predicted = self.bins.predict_bins(self.model, tau1, threshold=oracle.BIN_THRESHOLD)
        return map_, extraction.state, predicted

    def check(self, tau1, out):
        map_, state, predicted = out
        label = f"sweep tau1={tau1}"
        problems = []
        mass = float((map_.intensity * np.outer(_cell_widths(map_.signal_nm),
                                                _cell_widths(map_.idler_nm))).sum())
        expected = oracle.coincidence_probability(tau1)
        if abs(mass - expected) > MAP_MASS_TOL:
            problems.append(f"{label}: map mass {mass:.6f}, closed form "
                            f"{expected:.6f}")
        problems += _check_bin_state(
            f"{label} extracted", state.dimension_m, state.detunings_thz(),
            state.weights(), tau1, DETUNING_REL_TOL)
        problems += _check_bin_state(
            f"{label} predicted", predicted.dimension_m,
            predicted.detunings_thz(), predicted.weights(), tau1,
            PREDICTED_REL_TOL)
        return problems


def _cell_widths(axis: np.ndarray) -> np.ndarray:
    """Midpoint-rule cell widths of a sample axis."""
    edges = np.concatenate([[1.5 * axis[0] - 0.5 * axis[1]],
                            0.5 * (axis[1:] + axis[:-1]),
                            [1.5 * axis[-1] - 0.5 * axis[-2]]])
    return np.diff(edges)


class Fit(Workload):
    """``hombeat fit SCAN`` then ``hombeat analyze``, in process, on scans
    the oracle writes: the measured-scan workflow. The map and bin layers
    are never touched."""

    def setup(self, seed, workdir):
        import hombeat.cli
        self.cli = hombeat.cli
        self.out = os.path.join(workdir, "fit-out")
        os.makedirs(self.out)
        inputs = []
        for j, tau1 in enumerate(REFERENCE_DELAYS_PS):
            m = oracle.dimension(tau1)
            scenario = os.path.join(workdir, f"scenario-{tau1}.json")
            _write_json(scenario, {"tau1_ps": tau1, "fit": {"m": m}})
            # A fixed panel of draws: which draws need 15-40 LM iterations
            # sets the slowest 1 % of ops, so draws taken from the run seed
            # moved op_tail_s by 22 % between seeds. It also keeps out the
            # rare draws on which the fit does not converge at 10^3.
            draws = [(0, None)] + [(cpp, FIT_DRAWS_PER_DELAY * j + k)
                                   for cpp in FIT_COUNTS_PER_POINT
                                   for k in range(FIT_DRAWS_PER_DELAY)]
            for cpp, scan_seed in draws:
                tau2, probs, counts = oracle.scan_rows(
                    tau1, *SCAN_RANGE_PS, SCAN_POINTS, cpp,
                    np.random.default_rng(scan_seed))
                path = os.path.join(workdir, f"scan-{tau1}-{cpp}-{scan_seed}.csv")
                oracle.write_scan_csv(path, tau2, probs, counts, cpp, scan_seed)
                common = ["--scenario", scenario, "--out", self.out]
                inputs.append({"tau1": tau1, "m": m, "counts": cpp,
                               "argv": (common + ["fit", path],
                                        common + ["analyze"])})
        # The seed orders the ops, so that slow spells of a shared machine
        # fall on every delay alike.
        order = np.random.default_rng(seed).permutation(len(inputs))
        return [inputs[k] for k in order]

    def op(self, inp):
        fit_argv, analyze_argv = inp["argv"]
        rc, err = _run_cli(self.cli, fit_argv)
        if rc:
            return "fit", rc, err
        return ("analyze",) + _run_cli(self.cli, analyze_argv)

    def failure(self, inp, out):
        stage, rc, err = out
        return f"{stage} exit {rc}: {err.strip()}" if rc else None

    def check(self, inp, out):
        tau1, m = inp["tau1"], inp["m"]
        label = f"fit tau1={tau1} counts={inp['counts']}"
        fit = _load_json(os.path.join(self.out, "fit.json"))
        problems = [] if fit["converged"] else [f"{label}: not converged"]
        pairs = fit["pairs"]
        if len(pairs) != m // 2:
            return problems + [f"{label}: {len(pairs)} pairs, expected {m // 2}"]
        problems += _check_detunings(label, [p["detuning_thz"] for p in pairs],
                                     tau1, DETUNING_REL_TOL)
        if not all(0.0 < p["visibility"] <= 1.0 for p in pairs):
            problems.append(f"{label}: visibility outside (0, 1]")
        return problems + _check_dm_and_report(label, self.out, m)


WORKLOADS = {"pipeline": Pipeline, "sweep": Sweep, "fit": Fit}
