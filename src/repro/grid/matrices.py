"""Matrix builders for the DC power-flow model.

Notation follows Section III of the paper:

* ``A`` — the ``N x L`` branch-bus incidence matrix (``+1`` at the from bus,
  ``-1`` at the to bus of each branch).
* ``D`` — the ``L x L`` diagonal matrix of reciprocal branch reactances.
* ``B = A D Aᵀ`` — the ``N x N`` nodal susceptance matrix.
* ``H = [D Aᵀ; -D Aᵀ; A D Aᵀ]`` — the ``(2L + N) x N`` measurement matrix
  relating the state (bus voltage phase angles) to the SCADA measurements
  (forward branch flows, reverse branch flows, nodal injections).

Because the slack-bus angle is fixed to zero, state estimation and the MTD
subspace analysis operate on the *reduced* matrices with the slack column
removed, which are full column rank for a connected network.

Representations
---------------
Every builder accepts either a validated
:class:`~repro.grid.network.PowerNetwork` or its structure-of-arrays view
:class:`~repro.grid.arrays.NetworkArrays` — internally everything runs on
the arrays representation (``network.arrays``), whose
:class:`~repro.grid.arrays.TopologyCache` holds the incidence matrix, the
non-slack index vector and the generator-incidence matrix.  Those artifacts
depend only on the wiring, so across the thousands of reactance-perturbed
variants the MTD loop evaluates they are built exactly once and shared;
only the cheap reciprocal-reactance scaling runs per call.  The arithmetic
is unchanged from the historical per-call builders, so outputs are
bit-identical (asserted in ``tests/test_grid_arrays.py``).

Backends
--------
The dense builders return ``numpy.ndarray`` and exploit the diagonal
structure of ``D`` directly (no ``L x L`` materialisation).  For large
networks each builder has a ``scipy.sparse`` sibling (``*_sparse``)
returning CSR matrices; consumers that solve against the susceptance
matrix (:mod:`repro.powerflow.ptdf`, :mod:`repro.powerflow.dc`) switch to
the sparse backend automatically once the bus count reaches
:data:`SPARSE_BUS_THRESHOLD`, which keeps the 118- and 300-bus synthetic
cases tractable without changing the numerics of the small IEEE cases.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import scipy.sparse as sp

from repro.grid.arrays import NetworkArrays
from repro.grid.network import PowerNetwork

#: Either network representation; builders use ``network.arrays`` internally.
NetworkLike = Union[PowerNetwork, NetworkArrays]

#: Bus count at which the solver layers (PTDF, DC power flow) switch from
#: dense factorisations to the ``scipy.sparse`` backend.  The IEEE 14/30
#: and 57-bus-sized cases stay dense (their numerics are pinned by the
#: paper-reproduction tests); the 118- and 300-bus synthetic cases go
#: sparse.
SPARSE_BUS_THRESHOLD: int = 100


def prefers_sparse(n_buses: int) -> bool:
    """Whether a network of ``n_buses`` buses goes sparse (the one size policy).

    Sparse at or above :data:`SPARSE_BUS_THRESHOLD` buses, dense below.
    Both the grid/solver layers (:func:`use_sparse_backend`) and the
    factorization layer (:func:`repro.estimation.backends.resolve_backend`)
    decide through this predicate.
    """
    return n_buses >= SPARSE_BUS_THRESHOLD


def use_sparse_backend(network: NetworkLike, sparse: bool | None = None) -> bool:
    """Decide whether ``network`` should use the sparse backend.

    Parameters
    ----------
    network:
        The network in question.
    sparse:
        Explicit override; ``None`` selects automatically through
        :func:`prefers_sparse`.
    """
    if sparse is not None:
        return bool(sparse)
    return prefers_sparse(network.n_buses)


def _reciprocal_reactances(
    arrays: NetworkArrays, reactances: np.ndarray | None = None
) -> np.ndarray:
    """The diagonal of ``D`` as a vector ``b = 1/x``, shape ``(L,)``.

    Out-of-service branches (``arrays.branch_status``) contribute zero
    susceptance: they keep their row/column slots in every matrix — so the
    measurement dimension and branch indexing are contingency-invariant —
    but carry no flow.  ``branch_status is None`` (all in service) skips
    the masking entirely, keeping the common path bit-identical.
    """
    x = arrays.branch_reactance if reactances is None else np.asarray(reactances, dtype=float)
    if x.shape[0] != arrays.n_branches:
        raise ValueError(
            f"expected {arrays.n_branches} reactances, got {x.shape[0]}"
        )
    if np.any(x <= 0):
        raise ValueError("all reactances must be strictly positive")
    b = 1.0 / x
    status = arrays.branch_status
    if status is not None:
        b = np.where(status, b, 0.0)
    return b


def incidence_matrix(network: NetworkLike) -> np.ndarray:
    """Return the ``N x L`` branch-bus incidence matrix ``A``.

    A mutable copy of the topology-cached matrix; internal consumers read
    the cache directly.
    """
    return network.arrays.topology.incidence().copy()


def incidence_matrix_sparse(network: NetworkLike) -> sp.csr_matrix:
    """Return ``A`` as a ``scipy.sparse`` CSR matrix, shape ``(N, L)``."""
    return network.arrays.topology.incidence_sparse().copy()


def branch_susceptance_matrix(
    network: NetworkLike, reactances: np.ndarray | None = None
) -> np.ndarray:
    """Return the diagonal matrix ``D`` of reciprocal branch reactances.

    Parameters
    ----------
    network:
        The network providing branch ordering and default reactances.
    reactances:
        Optional override vector (one entry per branch).  Used by the MTD
        layer to evaluate candidate perturbations without materialising a new
        network object.
    """
    return np.diag(_reciprocal_reactances(network.arrays, reactances))


def branch_susceptance_matrix_sparse(
    network: NetworkLike, reactances: np.ndarray | None = None
) -> sp.dia_matrix:
    """Return ``D`` as a sparse diagonal matrix, shape ``(L, L)``."""
    return sp.diags(_reciprocal_reactances(network.arrays, reactances))


def susceptance_matrix(
    network: NetworkLike, reactances: np.ndarray | None = None
) -> np.ndarray:
    """Return the nodal susceptance matrix ``B = A D Aᵀ`` (``N x N``)."""
    arrays = network.arrays
    A = arrays.topology.incidence()
    b = _reciprocal_reactances(arrays, reactances)
    return (A * b) @ A.T


def susceptance_matrix_sparse(
    network: NetworkLike, reactances: np.ndarray | None = None
) -> sp.csr_matrix:
    """Return ``B = A D Aᵀ`` as a CSR matrix, shape ``(N, N)``."""
    arrays = network.arrays
    A = arrays.topology.incidence_sparse()
    D = sp.diags(_reciprocal_reactances(arrays, reactances))
    return (A @ D @ A.T).tocsr()


def reduced_susceptance_matrix(
    network: NetworkLike, reactances: np.ndarray | None = None
) -> np.ndarray:
    """Return ``B`` with the slack row and column removed (invertible)."""
    B = susceptance_matrix(network, reactances)
    keep = network.arrays.topology.non_slack()
    return B[np.ix_(keep, keep)]


def reduced_susceptance_matrix_sparse(
    network: NetworkLike, reactances: np.ndarray | None = None
) -> sp.csc_matrix:
    """Return the reduced ``B`` as CSC (the layout sparse LU expects).

    Shape ``(N − 1, N − 1)``; row/column order follows
    :func:`non_slack_indices`.
    """
    B = susceptance_matrix_sparse(network, reactances).tocsc()
    keep = network.arrays.topology.non_slack()
    return B[np.ix_(keep, keep)].tocsc()


def non_slack_indices(network: NetworkLike) -> np.ndarray:
    """Indices of all buses except the slack bus, in ascending order."""
    return network.arrays.topology.non_slack().copy()


def measurement_matrix(
    network: NetworkLike, reactances: np.ndarray | None = None
) -> np.ndarray:
    """Return the full ``(2L + N) x N`` measurement matrix ``H``.

    Row ordering matches the paper's ``z = [p̃, f̃, -f̃]`` convention permuted
    to ``[f̃, -f̃, p̃]``; the exact ordering is irrelevant to the analysis
    (it is a fixed permutation) but is kept consistent across the library:
    rows ``0..L-1`` are forward flows, ``L..2L-1`` reverse flows and
    ``2L..2L+N-1`` nodal injections.
    """
    arrays = network.arrays
    A = arrays.topology.incidence()
    b = _reciprocal_reactances(arrays, reactances)
    flows = b[:, None] * A.T
    # Same expression as susceptance_matrix(), so the injection block of H
    # matches B bit-for-bit.
    injections = (A * b) @ A.T
    return np.vstack([flows, -flows, injections])


def measurement_matrix_sparse(
    network: NetworkLike, reactances: np.ndarray | None = None
) -> sp.csr_matrix:
    """Return ``H`` as a CSR matrix, shape ``(2L + N, N)``.

    Same row ordering as :func:`measurement_matrix`; useful when only a few
    rows are consumed or when ``H`` feeds a sparse solver.
    """
    arrays = network.arrays
    A = arrays.topology.incidence_sparse()
    D = sp.diags(_reciprocal_reactances(arrays, reactances))
    flows = (D @ A.T).tocsr()
    injections = (A @ flows).tocsr()
    return sp.vstack([flows, -flows, injections], format="csr")


def reduced_measurement_matrix(
    network: NetworkLike, reactances: np.ndarray | None = None
) -> np.ndarray:
    """Return ``H`` with the slack-bus column removed.

    The reduced matrix has shape ``(2L + N) x (N - 1)`` and full column rank
    for any connected network, which is required both by the WLS state
    estimator and by the subspace analysis of the MTD (Proposition 1 /
    Theorem 1 reason about ``Col(H)`` of this full-column-rank matrix).
    """
    H = measurement_matrix(network, reactances)
    keep = network.arrays.topology.non_slack()
    return H[:, keep]


def reduced_measurement_matrix_sparse(
    network: NetworkLike, reactances: np.ndarray | None = None
) -> sp.csr_matrix:
    """Return the reduced ``H`` as CSR, shape ``(2L + N, N − 1)``."""
    H = measurement_matrix_sparse(network, reactances).tocsc()
    keep = network.arrays.topology.non_slack()
    return H[:, keep].tocsr()


def generator_incidence_matrix(network: NetworkLike) -> np.ndarray:
    """Return the ``N x G`` generator-to-bus mapping matrix.

    Entry ``(i, g)`` is one when generator ``g`` is connected to bus ``i``,
    so that the nodal injection vector is ``C g − l``.  A mutable copy of
    the topology-cached matrix.
    """
    return network.arrays.topology.generator_incidence().copy()


def branch_flow_matrix(
    network: NetworkLike, reactances: np.ndarray | None = None
) -> np.ndarray:
    """Return the ``L x N`` matrix mapping bus angles to branch flows ``D Aᵀ``."""
    arrays = network.arrays
    A = arrays.topology.incidence()
    b = _reciprocal_reactances(arrays, reactances)
    return b[:, None] * A.T


__all__ = [
    "SPARSE_BUS_THRESHOLD",
    "NetworkLike",
    "prefers_sparse",
    "use_sparse_backend",
    "incidence_matrix",
    "incidence_matrix_sparse",
    "branch_susceptance_matrix",
    "branch_susceptance_matrix_sparse",
    "susceptance_matrix",
    "susceptance_matrix_sparse",
    "reduced_susceptance_matrix",
    "reduced_susceptance_matrix_sparse",
    "non_slack_indices",
    "measurement_matrix",
    "measurement_matrix_sparse",
    "reduced_measurement_matrix",
    "reduced_measurement_matrix_sparse",
    "generator_incidence_matrix",
    "branch_flow_matrix",
]
