"""Robustness-of-coherence toolkit.

Exact values with witness and pseudomixture certificates via a
self-contained semidefinite programming engine, closed-form fast paths,
bound chains, device-data estimates and phase-discrimination games.
"""

from .linalg import (
    as_density,
    as_hermitian,
    basis_projector,
    density_of,
    dephase,
    jacobi_eigh,
    jacobi_eigvalsh,
    l1_coherence,
    maximally_coherent_state,
    minimal_roc_mixture,
    random_pure,
    random_state,
    random_unitary,
)

__all__ = [
    "as_density",
    "as_hermitian",
    "basis_projector",
    "density_of",
    "dephase",
    "jacobi_eigh",
    "jacobi_eigvalsh",
    "l1_coherence",
    "maximally_coherent_state",
    "minimal_roc_mixture",
    "random_pure",
    "random_state",
    "random_unitary",
]

__version__ = "0.1.0"
