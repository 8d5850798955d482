"""Tests for repro.mtd.subspace (principal angles and the design metric)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from repro.grid.cases import available_cases, load_case
from repro.grid.matrices import measurement_matrix, reduced_measurement_matrix
from repro.mtd.subspace import (
    AttackerSubspace,
    column_space_overlap_dimension,
    is_orthogonal_complement,
    largest_principal_angle,
    principal_angles,
    smallest_principal_angle,
    spa_degrees,
    spa_profile,
    subspace_angle,
)


class TestPrincipalAngles:
    def test_identical_subspaces_have_zero_angles(self, rng):
        A = rng.standard_normal((10, 3))
        angles = principal_angles(A, 2.0 * A)
        np.testing.assert_allclose(angles, np.zeros(3), atol=1e-9)

    def test_orthogonal_subspaces_have_right_angles(self):
        A = np.zeros((6, 2))
        A[0, 0] = 1.0
        A[1, 1] = 1.0
        B = np.zeros((6, 2))
        B[2, 0] = 1.0
        B[3, 1] = 1.0
        angles = principal_angles(A, B)
        np.testing.assert_allclose(angles, np.full(2, np.pi / 2), atol=1e-9)

    def test_known_planar_angle(self):
        """Two lines in the plane at 30 degrees."""
        a = np.array([[1.0], [0.0]])
        theta = np.pi / 6
        b = np.array([[np.cos(theta)], [np.sin(theta)]])
        assert smallest_principal_angle(a, b) == pytest.approx(theta)
        assert largest_principal_angle(a, b) == pytest.approx(theta)

    def test_angles_sorted_ascending(self, rng):
        A = rng.standard_normal((12, 4))
        B = rng.standard_normal((12, 4))
        angles = principal_angles(A, B)
        assert np.all(np.diff(angles) >= -1e-12)

    def test_symmetry(self, rng):
        A = rng.standard_normal((12, 4))
        B = rng.standard_normal((12, 4))
        np.testing.assert_allclose(
            principal_angles(A, B), principal_angles(B, A), atol=1e-9
        )

    def test_bounds(self, rng):
        A = rng.standard_normal((12, 4))
        B = rng.standard_normal((12, 4))
        angles = principal_angles(A, B)
        assert np.all(angles >= -1e-12)
        assert np.all(angles <= np.pi / 2 + 1e-12)

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            principal_angles(rng.standard_normal((10, 2)), rng.standard_normal((8, 2)))

    def test_non_matrix_rejected(self, rng):
        with pytest.raises(ValueError):
            principal_angles(rng.standard_normal(10), rng.standard_normal((10, 2)))


class TestDesignMetric:
    def test_subspace_angle_is_largest_principal_angle(self, rng):
        A = rng.standard_normal((15, 5))
        B = rng.standard_normal((15, 5))
        assert subspace_angle(A, B) == pytest.approx(largest_principal_angle(A, B))

    def test_zero_for_identical_measurement_matrices(self, net14):
        H = reduced_measurement_matrix(net14)
        assert subspace_angle(H, H) == pytest.approx(0.0, abs=1e-9)

    def test_zero_for_uniform_scaling(self, net14):
        """H' = (1+η)H leaves the column space unchanged (paper's Case 2)."""
        H = reduced_measurement_matrix(net14)
        assert subspace_angle(H, 1.2 * H) == pytest.approx(0.0, abs=1e-9)

    def test_positive_for_partial_perturbation(self, net14):
        H = reduced_measurement_matrix(net14)
        x = net14.reactances()
        for index in net14.dfacts_branches:
            x[index] *= 1.5
        H_perturbed = reduced_measurement_matrix(net14, x)
        assert subspace_angle(H, H_perturbed) > 0.01

    def test_smallest_angle_is_zero_for_partial_dfacts_coverage(self, net14):
        """With only 6 of 20 lines perturbable the column spaces always share
        directions — the reproduction note motivating the choice of metric."""
        H = reduced_measurement_matrix(net14)
        x = net14.reactances()
        for index in net14.dfacts_branches:
            x[index] *= 1.5
        H_perturbed = reduced_measurement_matrix(net14, x)
        assert smallest_principal_angle(H, H_perturbed) == pytest.approx(0.0, abs=1e-7)
        assert column_space_overlap_dimension(H, H_perturbed) >= 1

    def test_larger_perturbations_give_larger_angles(self, net14):
        H = reduced_measurement_matrix(net14)
        angles = []
        for factor in (1.1, 1.3, 1.5):
            x = net14.reactances()
            for index in net14.dfacts_branches:
                x[index] *= factor
            angles.append(subspace_angle(H, reduced_measurement_matrix(net14, x)))
        assert angles[0] < angles[1] < angles[2]

    def test_spa_degrees_conversion(self, rng):
        A = rng.standard_normal((10, 3))
        B = rng.standard_normal((10, 3))
        assert spa_degrees(A, B) == pytest.approx(np.degrees(subspace_angle(A, B)))


def _scipy_gamma(A: np.ndarray, B: np.ndarray) -> float:
    return float(scipy.linalg.subspace_angles(A, B).max())


class TestAttackerSubspaceKernel:
    """The prepared-basis kernel equals ``scipy.linalg.subspace_angles`` bit for bit."""

    @pytest.mark.parametrize(
        "case_name",
        [name for name in available_cases() if load_case(name).n_buses <= 118],
    )
    def test_random_dfacts_draws_match_scipy(self, case_name):
        network = load_case(case_name)
        x0 = network.reactances()
        H = reduced_measurement_matrix(network, x0)
        prepared = AttackerSubspace(H)
        lower, upper = network.reactance_bounds()
        dfacts = list(network.dfacts_branches)
        rng = np.random.default_rng(7)
        for _ in range(2 if network.n_buses > 57 else 6):
            x = x0.copy()
            x[dfacts] = rng.uniform(lower[dfacts], upper[dfacts])
            H_perturbed = reduced_measurement_matrix(network, x)
            expected = _scipy_gamma(H, H_perturbed)
            assert subspace_angle(prepared, H_perturbed) == expected
            assert subspace_angle(H, H_perturbed) == expected
            assert np.array_equal(
                prepared.angles(H_perturbed), scipy.linalg.subspace_angles(H, H_perturbed)
            )
            assert np.array_equal(
                principal_angles(H, H_perturbed),
                np.sort(scipy.linalg.subspace_angles(H, H_perturbed)),
            )

    @pytest.mark.parametrize("shapes", [((12, 4), (12, 4)), ((12, 2), (12, 5)), ((9, 5), (9, 3))])
    def test_wide_angles_match_scipy_elementwise(self, rng, shapes):
        """Random subspaces mix the cosine (σ² < 0.5) and sine branches."""
        for _ in range(5):
            A = rng.standard_normal(shapes[0])
            B = rng.standard_normal(shapes[1])
            expected = scipy.linalg.subspace_angles(A, B)
            assert np.array_equal(AttackerSubspace(A).angles(B), expected)
            assert subspace_angle(A, B) == _scipy_gamma(A, B)

    def test_identical_subspaces(self, net14):
        H = reduced_measurement_matrix(net14)
        gamma = subspace_angle(AttackerSubspace(H), H)
        assert gamma == _scipy_gamma(H, H)
        assert gamma == pytest.approx(0.0, abs=1e-9)

    def test_rank_deficient_unreduced_matrix(self, net14):
        """The full ``H`` keeps the slack column, so its rank is ``N − 1``."""
        H = measurement_matrix(net14)
        assert np.linalg.matrix_rank(H) == H.shape[1] - 1
        x = net14.reactances()
        x[list(net14.dfacts_branches)] *= 1.3
        H_perturbed = measurement_matrix(net14, x)
        prepared = AttackerSubspace(H)
        assert prepared.basis.shape[1] == H.shape[1] - 1
        assert subspace_angle(prepared, H_perturbed) == _scipy_gamma(H, H_perturbed)

    def test_attacker_narrower_than_candidate(self, net14):
        H = reduced_measurement_matrix(net14)
        x = net14.reactances()
        x[list(net14.dfacts_branches)] *= 0.8
        H_perturbed = reduced_measurement_matrix(net14, x)
        narrow = H[:, :5]
        assert subspace_angle(AttackerSubspace(narrow), H_perturbed) == _scipy_gamma(
            narrow, H_perturbed
        )

    def test_non_finite_input_raises(self, net14):
        H = reduced_measurement_matrix(net14)
        poisoned = H.copy()
        poisoned[3, 2] = np.nan
        with pytest.raises(ValueError):
            AttackerSubspace(poisoned)
        with pytest.raises(ValueError):
            subspace_angle(AttackerSubspace(H), poisoned)
        with pytest.raises(ValueError):
            scipy.linalg.subspace_angles(H, poisoned)

    def test_row_mismatch_rejected(self, net14):
        H = reduced_measurement_matrix(net14)
        with pytest.raises(ValueError):
            subspace_angle(AttackerSubspace(H), H[:-1])


class TestOrthogonality:
    def test_orthogonal_complement_detected(self):
        A = np.eye(6)[:, :3]
        B = np.eye(6)[:, 3:]
        assert is_orthogonal_complement(A, B)

    def test_non_orthogonal_detected(self, rng):
        A = rng.standard_normal((8, 3))
        assert not is_orthogonal_complement(A, A)

    def test_overlap_dimension_full_for_identical(self, rng):
        A = rng.standard_normal((9, 4))
        assert column_space_overlap_dimension(A, A) == 4

    def test_overlap_dimension_zero_for_generic(self, rng):
        A = rng.standard_normal((20, 4))
        B = rng.standard_normal((20, 4))
        assert column_space_overlap_dimension(A, B) == 0

    def test_profile_keys(self, rng):
        A = rng.standard_normal((10, 3))
        B = rng.standard_normal((10, 3))
        profile = spa_profile(A, B)
        assert set(profile) == {"smallest", "median", "largest", "overlap_dimension"}
        assert profile["smallest"] <= profile["median"] <= profile["largest"]
