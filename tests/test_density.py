import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hombeat.density import (
    EntanglementReport,
    RestrictedDensityMatrix,
    build_restricted_dm,
    eof_lower_bound,
    eof_reference_comparison,
)
from hombeat.fringes import FringeModelParams, FringePairParams
from hombeat.reference import fringe_params_from_reference


def uniform_pairs(n_pairs, visibility, phase=180.0):
    return tuple(
        FringePairParams(weight=1.0 / n_pairs, detuning_thz=2.0 * (j + 1),
                         visibility=visibility, phase_deg=phase)
        for j in range(n_pairs))


# benchmark-fit rows: (delay, m, smallest eigenvalue, B, bound in ebits)
BENCH_ROWS = [
    (0.12, 2, 0.0950, 0.5728, 0.2585),
    (0.27, 4, 0.0392, 0.7164, 0.4278),
    (0.37, 6, 0.0076, 0.7930, 0.5445),
]


class TestConstruction:
    @pytest.mark.parametrize("tau1,m,eigmin,b,bound", BENCH_ROWS)
    def test_benchmark_rows_are_physical(self, tau1, m, eigmin, b, bound):
        dm = build_restricted_dm(fringe_params_from_reference(tau1))
        rho = dm.entries
        assert dm.dimension_m == m
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert abs(np.trace(rho).real - 1.0) < 1e-9
        eigs = np.linalg.eigvalsh(dm.entries)
        assert eigs.min() > -1e-9
        assert eigs.min() == pytest.approx(eigmin, abs=5e-4)

    def test_intra_pair_coherence_value(self):
        params = FringeModelParams(0.5, (
            FringePairParams(1.0, 3.0, 0.7, 150.0),))
        dm = build_restricted_dm(params, balances=(0.4,))
        want = 0.7 * np.sqrt(0.4 * 0.6) * np.exp(1j * np.deg2rad(150.0))
        assert abs(dm.entries[0, 1] - want) < 1e-15
        assert abs(dm.entries[1, 0] - np.conj(want)) < 1e-15

    def test_half_turn_phase_gives_negative_real_coherence(self):
        dm = build_restricted_dm(
            FringeModelParams(0.5, uniform_pairs(1, 0.81)))
        assert dm.entries[0, 1] == pytest.approx(-0.405, abs=1e-12)
        assert abs(dm.entries[0, 1].imag) < 1e-15

    def test_populations_from_weights_and_balances(self):
        params = FringeModelParams(0.5, (
            FringePairParams(0.6, 2.0, 0.8, 180.0),
            FringePairParams(0.4, 6.0, 0.8, 180.0)))
        dm = build_restricted_dm(params, balances=(0.5, 0.25))
        assert np.allclose(dm.populations(), [0.3, 0.3, 0.1, 0.3])

    def test_unit_visibility_is_rank_one(self):
        dm = build_restricted_dm(FringeModelParams(0.47, uniform_pairs(1, 1.0)))
        eigs = np.sort(np.linalg.eigvalsh(dm.entries))
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
        assert abs(eigs[0]) < 1e-8
        half = np.sqrt(0.5)
        projector = np.outer([half, -half], [half, -half])
        assert np.abs(dm.entries - projector).max() < 1e-12

    def test_mode_validation(self):
        params = FringeModelParams(0.5, uniform_pairs(2, 0.8))
        with pytest.raises(ValueError, match="mode"):
            build_restricted_dm(params, mode="pessimistic")

    def test_balance_validation(self):
        params = FringeModelParams(0.5, uniform_pairs(2, 0.8))
        with pytest.raises(ValueError, match="one balance per pair"):
            build_restricted_dm(params, balances=(0.5,))
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            build_restricted_dm(params, balances=(0.5, 1.2))

    def test_incompatible_visibilities_are_unphysical(self):
        # spread beyond 1 - mean(V) drives an eigenvalue negative
        pairs = tuple(
            FringePairParams(1 / 3, 2.0 * (j + 1), v, 180.0)
            for j, v in enumerate((1.0, 1.0, 0.0)))
        with pytest.raises(ValueError, match="unphysical"):
            build_restricted_dm(FringeModelParams(1.0, pairs))

    @given(vis=st.floats(0.0, 1.0), balance=st.floats(0.3, 0.7),
           n_pairs=st.integers(1, 3), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_uniform_visibility_always_physical(self, vis, balance, n_pairs,
                                                seed):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.2, 1.0, n_pairs)
        weights = raw / raw.sum()
        pairs = tuple(
            FringePairParams(float(w), 2.0 * (j + 1), vis, 180.0)
            for j, w in enumerate(weights))
        dm = build_restricted_dm(FringeModelParams(1.0, pairs),
                                 balances=np.full(n_pairs, balance))
        assert np.linalg.eigvalsh(dm.entries).min() > -1e-9

    def test_matrix_validation_rules(self):
        labels = ("|w1,w2>", "|w2,w1>")
        with pytest.raises(ValueError, match="Hermitian"):
            RestrictedDensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]), labels)
        with pytest.raises(ValueError, match="trace"):
            RestrictedDensityMatrix(np.eye(2), labels)
        with pytest.raises(ValueError, match="even"):
            RestrictedDensityMatrix(np.eye(3) / 3, ("a", "b", "c"))
        with pytest.raises(ValueError, match="label"):
            RestrictedDensityMatrix(np.eye(2) / 2, ("a",))
        neg = np.array([[0.6, 0.55], [0.55, 0.4]])
        with pytest.raises(ValueError, match="unphysical"):
            RestrictedDensityMatrix(neg, labels)

    def test_basis_labels_track_bin_numbers(self):
        dm = build_restricted_dm(FringeModelParams(0.5, uniform_pairs(2, 0.8)))
        assert dm.basis_labels == ("|w2,w3>", "|w3,w2>", "|w1,w4>", "|w4,w1>")


class TestEofBound:
    def test_zero_visibility_gives_zero_bound(self):
        dm = build_restricted_dm(FringeModelParams(0.5, uniform_pairs(1, 0.0)))
        assert eof_lower_bound(dm).eof_lower_bound_ebits == 0.0

    def test_single_pair_anchor_values(self):
        rep = eof_lower_bound(
            build_restricted_dm(FringeModelParams(0.5, uniform_pairs(1, 0.81))))
        # B = V / sqrt(2) for one balanced pair
        assert rep.b_value == pytest.approx(0.81 / np.sqrt(2), abs=1e-12)
        assert rep.eof_lower_bound_ebits == pytest.approx(0.2585, abs=5e-4)
        rep1 = eof_lower_bound(
            build_restricted_dm(FringeModelParams(0.5, uniform_pairs(1, 1.0))))
        assert rep1.eof_lower_bound_ebits == pytest.approx(
            -np.log2(0.75), abs=1e-12)

    def test_uniform_unit_visibility_b_value(self):
        for n_pairs in (1, 2, 3):
            dm = build_restricted_dm(
                FringeModelParams(1.0, uniform_pairs(n_pairs, 1.0)))
            rep = eof_lower_bound(dm)
            m = 2 * n_pairs
            assert rep.b_value == pytest.approx(np.sqrt(1 - 1 / m), abs=1e-12)
            assert rep.eof_lower_bound_ebits <= np.log2(m)

    def test_bound_increases_with_uniform_visibility(self):
        grid = np.linspace(0.1, 1.0, 10)
        bounds = []
        for v in grid:
            dm = build_restricted_dm(
                FringeModelParams(1.0, uniform_pairs(2, float(v))))
            bounds.append(eof_lower_bound(dm).eof_lower_bound_ebits)
        assert all(b > a for a, b in zip(bounds, bounds[1:]))

    def test_raising_one_visibility_never_hurts(self):
        for mode in ("assumed-average", "measured-only"):
            base = FringeModelParams(1.0, uniform_pairs(2, 0.6))
            raised = FringeModelParams(1.0, (
                FringePairParams(0.5, 2.0, 0.7, 180.0),
                FringePairParams(0.5, 4.0, 0.6, 180.0)))
            b0 = eof_lower_bound(build_restricted_dm(base, mode=mode))
            b1 = eof_lower_bound(build_restricted_dm(raised, mode=mode))
            assert b1.eof_lower_bound_ebits >= b0.eof_lower_bound_ebits

    def test_measured_only_is_never_above_assumed_average(self):
        for tau1 in (0.27, 0.37):
            ref = fringe_params_from_reference(tau1)
            avg = eof_lower_bound(build_restricted_dm(ref, mode="assumed-average"))
            meas = eof_lower_bound(build_restricted_dm(ref, mode="measured-only"))
            assert meas.eof_lower_bound_ebits <= avg.eof_lower_bound_ebits

    @pytest.mark.parametrize("tau1,m,eigmin,b,bound", BENCH_ROWS)
    def test_benchmark_row_bounds(self, tau1, m, eigmin, b, bound):
        rep = eof_lower_bound(
            build_restricted_dm(fringe_params_from_reference(tau1)))
        assert rep.b_value == pytest.approx(b, abs=5e-4)
        assert rep.eof_lower_bound_ebits == pytest.approx(bound, abs=5e-4)
        assert rep.dimension_m == m
        assert rep.assumption_note

    def test_mode_label_required_for_hand_built(self):
        labels = ("|w1,w2>", "|w2,w1>")
        dm = RestrictedDensityMatrix(np.eye(2) / 2, labels)
        with pytest.raises(ValueError, match="explicitly"):
            eof_lower_bound(dm)
        rep = eof_lower_bound(dm, mode="measured-only")
        assert rep.eof_lower_bound_ebits == 0.0

    def test_report_validation(self):
        with pytest.raises(ValueError, match="log2"):
            EntanglementReport(eof_lower_bound_ebits=1.5, b_value=0.9,
                               average_visibility=0.9, dimension_m=2,
                               mode="assumed-average", assumption_note="x")


class TestReferenceComparison:
    @pytest.mark.parametrize("tau1,ref_ebits", [(0.12, 0.57), (0.27, 1.05),
                                                (0.37, 1.56)])
    def test_reports_deviation_from_benchmark(self, tau1, ref_ebits):
        rep = eof_lower_bound(
            build_restricted_dm(fringe_params_from_reference(tau1)))
        cmp_ = eof_reference_comparison(rep)
        assert cmp_.reference_ebits == ref_ebits
        assert cmp_.computed_ebits == rep.eof_lower_bound_ebits
        expected_dev = (rep.eof_lower_bound_ebits - ref_ebits) / ref_ebits
        assert cmp_.relative_deviation == pytest.approx(expected_dev, rel=1e-12)
        assert "informational" in cmp_.note

    def test_unknown_dimension_rejected(self):
        rep = EntanglementReport(eof_lower_bound_ebits=0.5, b_value=0.5,
                                 average_visibility=0.9, dimension_m=8,
                                 mode="assumed-average", assumption_note="x")
        with pytest.raises(ValueError, match="m=8"):
            eof_reference_comparison(rep)
