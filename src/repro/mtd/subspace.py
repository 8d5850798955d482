"""Principal angles between measurement-matrix column spaces.

The paper's central heuristic (Section V-C) is that an MTD perturbation is
more effective the larger the *smallest principal angle* (SPA)

.. math::  γ(H, H') = \\arccos \\max_{u ∈ Col(H), v ∈ Col(H'), ‖u‖=‖v‖=1} |uᵀv|

between the column spaces of the pre- and post-perturbation measurement
matrices.  ``γ = 0`` means the spaces share a direction (some attacks stay
perfectly stealthy); ``γ = π/2`` means the spaces are orthogonal (Theorem 1:
no stealthy attacks survive).

Reproduction note
-----------------
When the D-FACTS devices cover only a subset of the branches — the paper's
IEEE 14-bus setting has 6 devices on 20 lines — the two column spaces always
share non-trivial directions: any state bias that is constant across the two
endpoints of every perturbed line produces identical measurements before and
after the perturbation.  The *literal* smallest principal angle is therefore
identically zero for every realisable perturbation, which cannot be the
quantity the paper sweeps between 0 and 0.45 rad.  The paper's simulations
are built on MATLAB, whose ``subspace(A, B)`` function returns the *largest*
principal angle; that quantity reproduces the reported ranges and trends
exactly.  This library therefore uses the largest principal angle as the
operational design metric :func:`subspace_angle` (and in everything named
"SPA" downstream), while also exposing the literal
:func:`smallest_principal_angle` and the full spectrum
:func:`principal_angles` for analysis.  The theoretical results
(Proposition 1, Theorem 1) are unaffected: they are statements about column
space membership and orthogonality, not about a specific angle.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg

from repro.utils.linalg import orthonormal_basis

#: Numerical tolerance used when comparing angles against 0 or π/2.
ANGLE_TOL: float = 1e-9

#: LAPACK's divide-and-conquer SVD, which ``scipy.linalg.svd`` calls by default.
_GESDD, _GESDD_LWORK = scipy.linalg.get_lapack_funcs(
    ("gesdd", "gesdd_lwork"), (np.zeros((1, 1)),), ilp64="preferred"
)


@functools.lru_cache(maxsize=64)
def _gesdd_lwork(m: int, n: int, compute_uv: int, full_matrices: int) -> int:
    """The optimal ``gesdd`` workspace scipy queries for an ``m × n`` SVD."""
    work, info = _GESDD_LWORK(m, n, compute_uv=compute_uv, full_matrices=full_matrices)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: {info}")
    return int(work.real)


def _gesdd(matrix: np.ndarray, compute_uv: int, full_matrices: int, overwrite: int):
    """``gesdd`` exactly as :func:`scipy.linalg.svd` calls it, minus its validation."""
    m, n = matrix.shape
    u, s, vh, info = _GESDD(
        matrix, compute_uv=compute_uv, lwork=_gesdd_lwork(m, n, compute_uv, full_matrices),
        full_matrices=full_matrices, overwrite_a=overwrite,
    )
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal gesdd")
    return u, s, vh


class AttackerSubspace:
    """``Col(H_t)`` prepared once for repeated ``γ(H_t, ·)`` evaluations.

    The MTD design loops evaluate the SPA of many candidate matrices
    against one fixed attacker matrix ``H_t``.
    :func:`scipy.linalg.subspace_angles` re-orthonormalises ``H_t`` on
    every call; this class keeps ``scipy.linalg.orth(H_t)`` and then
    follows ``subspace_angles`` step for step (Björck & Golub, *Math.
    Comp.* 27, 1973): the rank cut of ``orth(H′)``, the SVD of the cosine
    matrix ``Q_aᵀQ_b``, the SVD of the sine matrix when any ``σ² ≥ 0.5``,
    and the same ``clip``/``where``.  Each SVD calls LAPACK's ``gesdd``
    directly with the workspace scipy would query, cached per shape, so
    every angle is bit-identical to scipy's.
    """

    __slots__ = ("basis", "_basis_h")

    def __init__(self, attacker_matrix: np.ndarray) -> None:
        #: Orthonormal basis ``Q_a`` of ``Col(H_t)``.
        self.basis = scipy.linalg.orth(_validated(attacker_matrix))
        self._basis_h = self.basis.T.conj()

    def angles(self, matrix: np.ndarray) -> np.ndarray:
        """Principal angles to ``Col(matrix)``, as ``subspace_angles`` orders them."""
        candidate = _validated(matrix)
        qa = self.basis
        if candidate.shape[0] != qa.shape[0]:
            raise ValueError(
                "matrices must live in the same ambient space, got "
                f"{qa.shape[0]} and {candidate.shape[0]} rows"
            )
        if candidate.size == 0 or qa.size == 0:
            return np.zeros(0)
        # orth(candidate): thin SVD, then scipy's default rank cut.
        u, s, vh = _gesdd(candidate, compute_uv=1, full_matrices=0, overwrite=0)
        tol = np.amax(s, initial=0.0) * (np.finfo(s.dtype).eps * max(u.shape[0], vh.shape[1]))
        qb = u[:, : np.sum(s > tol, dtype=int)]
        if qb.size == 0:
            return np.zeros(0)
        # Cosines: singular values of Q_aᵀQ_b.
        cross = np.dot(self._basis_h, qb)
        sigma = _gesdd(cross, compute_uv=0, full_matrices=1, overwrite=0)[1]
        # Sines, for the angles whose cosine is too close to 1 to resolve.
        mask = sigma**2 >= 0.5
        if mask.any():
            if qa.shape[1] >= qb.shape[1]:
                residual = qb - np.dot(qa, cross)
            else:
                residual = qa - np.dot(qb, cross.T.conj())
            sines = _gesdd(residual, compute_uv=0, full_matrices=1, overwrite=1)[1]
            mu_arcsin = np.arcsin(np.clip(sines, -1.0, 1.0))
        else:
            mu_arcsin = 0.0
        return np.where(mask, mu_arcsin, np.arccos(np.clip(sigma[::-1], -1.0, 1.0)))


def _validated(matrix: np.ndarray) -> np.ndarray:
    """A finite 2-D array, rejected as :func:`scipy.linalg.subspace_angles` would."""
    array = np.asarray_chkfinite(matrix, dtype=np.float64)
    if array.ndim != 2:
        raise ValueError(f"expected 2D array, got shape {array.shape}")
    return array


def principal_angles(matrix_a: np.ndarray, matrix_b: np.ndarray) -> np.ndarray:
    """All principal angles between ``Col(A)`` and ``Col(B)``, ascending.

    Uses the Björck–Golub SVD algorithm (:class:`AttackerSubspace`,
    bit-identical to :func:`scipy.linalg.subspace_angles`).  The returned
    array has ``min(rank(A), rank(B))`` entries in ``[0, π/2]`` sorted
    from the smallest to the largest angle.
    """
    angles = AttackerSubspace(matrix_a).angles(matrix_b)
    # The algorithm returns the angles in descending order; we standardise
    # on ascending so that index 0 is always the smallest principal angle.
    return np.sort(angles)


def smallest_principal_angle(matrix_a: np.ndarray, matrix_b: np.ndarray) -> float:
    """The SPA ``γ(A, B)`` in radians (Definition V.1 of the paper)."""
    angles = principal_angles(matrix_a, matrix_b)
    if angles.size == 0:
        return 0.0
    return float(angles[0])


def largest_principal_angle(matrix_a: np.ndarray, matrix_b: np.ndarray) -> float:
    """The largest principal angle, a complementary separation measure."""
    angles = principal_angles(matrix_a, matrix_b)
    if angles.size == 0:
        return 0.0
    return float(angles[-1])


def subspace_angle(matrix_a: np.ndarray | AttackerSubspace, matrix_b: np.ndarray) -> float:
    """The operational subspace-separation metric ``γ(A, B)`` in radians.

    This is the quantity used as the MTD design criterion throughout the
    library.  It equals the *largest* principal angle between the two column
    spaces — the value MATLAB's ``subspace`` function returns and the one
    the paper's numerical results are based on (see the module docstring's
    reproduction note).  It is zero exactly when ``Col(B) ⊆ Col(A)`` (or
    vice versa), i.e. when the perturbation leaves every attack stealthy,
    and grows towards ``π/2`` as the perturbation pushes the measurement
    matrix away from the attacker's knowledge.

    ``matrix_a`` may be a prepared :class:`AttackerSubspace`, which skips
    re-orthonormalising a fixed attacker matrix on every call; the value
    is bit-identical either way.
    """
    prepared = matrix_a if isinstance(matrix_a, AttackerSubspace) else AttackerSubspace(matrix_a)
    angles = prepared.angles(matrix_b)
    return float(angles.max()) if angles.size else 0.0


def column_space_overlap_dimension(
    matrix_a: np.ndarray, matrix_b: np.ndarray, tol: float = 1e-8
) -> int:
    """Dimension of ``Col(A) ∩ Col(B)``.

    Equal to the number of principal angles that are (numerically) zero.
    Attacks lying in this intersection remain stealthy after the MTD
    (Proposition 1), so an effective MTD drives this dimension to zero.
    """
    angles = principal_angles(matrix_a, matrix_b)
    return int(np.sum(angles < tol))


def is_orthogonal_complement(
    matrix_a: np.ndarray, matrix_b: np.ndarray, tol: float = 1e-8
) -> bool:
    """Check the Theorem 1 condition: is ``Col(B)`` orthogonal to ``Col(A)``?

    Note that true orthogonal *complements* additionally require the two
    subspace dimensions to add up to the ambient dimension; for the MTD
    analysis only mutual orthogonality matters (every attack ``a ∈ Col(A)``
    then has ``H'ᵀa = 0``), so that is what this predicate tests.
    """
    basis_a = orthonormal_basis(matrix_a)
    basis_b = orthonormal_basis(matrix_b)
    if basis_a.size == 0 or basis_b.size == 0:
        return True
    cross = basis_a.T @ basis_b
    return bool(np.max(np.abs(cross)) <= tol)


def spa_degrees(matrix_a: np.ndarray, matrix_b: np.ndarray) -> float:
    """Convenience: the design metric :func:`subspace_angle` in degrees."""
    return float(np.degrees(subspace_angle(matrix_a, matrix_b)))


def spa_profile(matrix_a: np.ndarray, matrix_b: np.ndarray) -> dict[str, float]:
    """Summary of the separation between two column spaces.

    Returns the smallest, median and largest principal angles and the
    overlap dimension; used by reporting utilities and ablation benchmarks.
    """
    angles = principal_angles(matrix_a, matrix_b)
    if angles.size == 0:
        return {"smallest": 0.0, "median": 0.0, "largest": 0.0, "overlap_dimension": 0.0}
    return {
        "smallest": float(angles[0]),
        "median": float(np.median(angles)),
        "largest": float(angles[-1]),
        "overlap_dimension": float(np.sum(angles < ANGLE_TOL)),
    }


__all__ = [
    "AttackerSubspace",
    "principal_angles",
    "smallest_principal_angle",
    "largest_principal_angle",
    "subspace_angle",
    "column_space_overlap_dimension",
    "is_orthogonal_complement",
    "spa_degrees",
    "spa_profile",
    "ANGLE_TOL",
]
