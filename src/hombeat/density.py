"""Restricted density matrices over occupied bin pairs and EoF bounds.

For perfectly anti-correlated pairs only 2 of the m^2 two-photon basis
states per bin pair carry population, so the state is represented on the
m-dimensional restricted basis of occupied states. Coherences inside a bin
pair come from fitted visibilities; coherences between different pairs are
not directly measured and are either zeroed or set to the average fitted
visibility, the choice every report labels explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fringes import FringeModelParams
from .reference import EOF_EBITS

__all__ = [
    "RestrictedDensityMatrix",
    "EntanglementReport",
    "EofComparison",
    "build_restricted_dm",
    "eof_lower_bound",
    "eof_reference_comparison",
    "CROSS_COHERENCE_MODES",
]

CROSS_COHERENCE_MODES = ("assumed-average", "measured-only")

_MODE_NOTES = {
    "assumed-average": (
        "cross-pair coherences are not measured by the fringe scans and "
        "were set to the average fitted visibility; only intra-pair "
        "coherences are experimentally certified"),
    "measured-only": (
        "cross-pair coherences were set to zero; the bound uses only the "
        "directly measured intra-pair coherences and is strictly "
        "conservative"),
}


@dataclass(frozen=True)
class RestrictedDensityMatrix:
    """Hermitian trace-one operator on the occupied two-photon basis.

    ``basis_labels[2j]`` is pair j's (signal-low, idler-high) state and
    ``basis_labels[2j+1]`` its mirror, with global bin numbers ascending
    in frequency. ``construction_mode`` records how unmeasured cross-pair
    coherences were filled in, when the matrix came from
    build_restricted_dm.
    """

    entries: np.ndarray
    basis_labels: tuple[str, ...]
    construction_mode: str | None = None

    def __post_init__(self):
        rho = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", rho)
        m = rho.shape[0]
        if rho.ndim != 2 or rho.shape != (m, m):
            raise ValueError("entries must be a square matrix")
        if m % 2 or m < 2:
            raise ValueError("restricted basis size must be even and >= 2")
        if len(self.basis_labels) != m:
            raise ValueError("need one basis label per row")
        if not np.all(np.isfinite(rho.real)) or not np.all(np.isfinite(rho.imag)):
            raise ValueError("entries must be finite")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
            raise ValueError("matrix is not Hermitian within 1e-12")
        if abs(np.trace(rho).real - 1.0) > 1e-9:
            raise ValueError("trace must be 1 within 1e-9")
        if np.linalg.eigvalsh(rho).min() < -1e-9:
            raise ValueError("matrix has an eigenvalue below -1e-9; the "
                             "parameter combination is unphysical")

    @property
    def dimension_m(self) -> int:
        return self.entries.shape[0]

    def populations(self) -> np.ndarray:
        return self.entries.real.diagonal().copy()


def _basis_labels(n_pairs: int) -> tuple[str, ...]:
    labels = []
    for j in range(n_pairs):
        lo, hi = n_pairs - j, n_pairs + 1 + j
        labels += [f"|w{lo},w{hi}>", f"|w{hi},w{lo}>"]
    return tuple(labels)


def build_restricted_dm(params: FringeModelParams, balances=None,
                        mode: str = "assumed-average") -> RestrictedDensityMatrix:
    """Assemble the restricted density matrix from fitted fringe parameters.

    Populations are weight * balance and weight * (1 - balance) per pair.
    The intra-pair coherence between a pair's two states has magnitude
    V_j * sqrt(pop_a * pop_b) and phase phi_j, so the fitted phases near
    180 degrees give real negative coherences. Cross-pair coherences follow
    ``mode``; in "assumed-average" mode they use the unweighted mean of the
    fitted visibilities on top of the same per-state phases, which keeps
    the matrix positive whenever the visibilities are mutually compatible
    (no V_j further from the mean than 1 - mean).
    """
    if mode not in CROSS_COHERENCE_MODES:
        raise ValueError(f"mode must be one of {CROSS_COHERENCE_MODES}")
    n_pairs = len(params.pairs)
    if balances is None:
        balances = np.full(n_pairs, 0.5)
    balances = np.asarray(balances, dtype=float)
    if balances.shape != (n_pairs,):
        raise ValueError("need one balance per pair")
    if np.any(balances < 0) or np.any(balances > 1):
        raise ValueError("balances must lie in [0, 1]")

    m = 2 * n_pairs
    pops = np.empty(m)
    phase = np.empty(m, dtype=complex)
    vis = np.array([p.visibility for p in params.pairs])
    weights = np.array([p.weight for p in params.pairs])
    weights = weights / weights.sum()
    v_avg = float(vis.mean())
    for j, p in enumerate(params.pairs):
        pops[2 * j] = weights[j] * balances[j]
        pops[2 * j + 1] = weights[j] * (1.0 - balances[j])
        phase[2 * j] = 1.0
        phase[2 * j + 1] = np.exp(-1j * np.deg2rad(p.phase_deg))

    amp = np.sqrt(pops) * phase
    v_cross = v_avg if mode == "assumed-average" else 0.0
    vmat = np.full((m, m), v_cross)
    for j in range(n_pairs):
        vmat[2 * j, 2 * j + 1] = vmat[2 * j + 1, 2 * j] = vis[j]
    np.fill_diagonal(vmat, 1.0)

    rho = vmat * np.outer(amp, amp.conj())
    return RestrictedDensityMatrix(entries=rho,
                                   basis_labels=_basis_labels(n_pairs),
                                   construction_mode=mode)


@dataclass(frozen=True)
class EntanglementReport:
    """Entanglement-of-formation lower bound with its assumptions."""

    eof_lower_bound_ebits: float
    b_value: float
    average_visibility: float
    dimension_m: int
    mode: str
    assumption_note: str

    def __post_init__(self):
        if not 0.0 <= self.eof_lower_bound_ebits <= np.log2(self.dimension_m) + 1e-12:
            raise ValueError("bound must lie in [0, log2(m)]")


def eof_lower_bound(dm: RestrictedDensityMatrix,
                    mode: str | None = None) -> EntanglementReport:
    """Lower-bound the entanglement of formation of a restricted state.

    Sums coherence magnitudes over all ordered pairs of occupied basis
    states; the usual subtraction of sqrt(pop_double_a * pop_double_b)
    vanishes here because double-occupation states carry no population in
    the anti-correlated model. With B = (2 / sqrt(m(m-1))) * sum, the bound
    is E >= -log2(1 - B^2 / 2), clamped at zero.

    ``mode`` labels the report; it defaults to the matrix's own
    construction mode and must be given for hand-built matrices.
    """
    if mode is None:
        mode = dm.construction_mode
    if mode not in CROSS_COHERENCE_MODES:
        raise ValueError(f"mode must be one of {CROSS_COHERENCE_MODES}; pass "
                         "it explicitly for a hand-built matrix")
    rho = dm.entries
    m = dm.dimension_m
    off = np.abs(rho[np.triu_indices(m, k=1)]).sum()
    b = 2.0 * off / np.sqrt(m * (m - 1))
    bound = max(0.0, -np.log2(max(1.0 - 0.5 * b * b, 1e-300)))

    pops = dm.populations()
    intra_vis = []
    for j in range(m // 2):
        denom = np.sqrt(pops[2 * j] * pops[2 * j + 1])
        coh = abs(rho[2 * j, 2 * j + 1])
        intra_vis.append(coh / denom if denom > 0 else 0.0)
    return EntanglementReport(
        eof_lower_bound_ebits=float(bound),
        b_value=float(b),
        average_visibility=float(np.mean(intra_vis)),
        dimension_m=m,
        mode=mode,
        assumption_note=_MODE_NOTES[mode],
    )


@dataclass(frozen=True)
class EofComparison:
    """Side-by-side record of a computed bound and its benchmark value.

    Informational only: the benchmark estimator was published without its
    formula, and the bound implemented here is a different, weaker one, so
    the deviation is recorded but never judged.
    """

    dimension_m: int
    computed_ebits: float
    reference_ebits: float
    relative_deviation: float
    note: str


def eof_reference_comparison(report: EntanglementReport) -> EofComparison:
    """Compare a computed bound against the benchmark EoF value for m."""
    m = report.dimension_m
    if m not in EOF_EBITS:
        known = ", ".join(str(k) for k in sorted(EOF_EBITS))
        raise ValueError(f"no benchmark EoF value for m={m}; have {known}")
    ref = EOF_EBITS[m]
    dev = (report.eof_lower_bound_ebits - ref) / ref
    return EofComparison(
        dimension_m=m,
        computed_ebits=report.eof_lower_bound_ebits,
        reference_ebits=ref,
        relative_deviation=float(dev),
        note=("informational comparison; the benchmark estimator formula "
              "is unpublished and differs from the bound computed here"),
    )
