"""Hermitian-core: validation, dephasing, l1 coherence, eigensolver, generators."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohrob.linalg import (
    as_density,
    as_hermitian,
    basis_projector,
    dephase,
    density_of,
    jacobi_eigh,
    jacobi_eigvalsh,
    l1_coherence,
    maximally_coherent_state,
    minimal_roc_mixture,
    random_pure,
    random_state,
    random_unitary,
)

# -- construction and validation ---------------------------------------------------


def test_as_hermitian_symmetrizes_roundoff():
    m = np.array([[1.0, 0.5 + 1e-14j], [0.5, 2.0]])
    h = as_hermitian(m)
    assert np.array_equal(h, h.conj().T)


def test_as_hermitian_rejects_nonhermitian():
    with pytest.raises(ValueError):
        as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_as_hermitian_rejects_nonsquare():
    with pytest.raises(ValueError):
        as_hermitian(np.zeros((2, 3)))


def test_as_density_accepts_state_and_rejects_bad_trace():
    rho = as_density(np.eye(3) / 3)
    assert abs(np.trace(rho) - 1) < 1e-12
    with pytest.raises(ValueError):
        as_density(np.eye(3))


def test_as_density_rejects_negative_eigenvalue():
    with pytest.raises(ValueError):
        as_density(np.diag([1.5, -0.5]))


def test_as_density_clamps_tiny_negative_eigenvalue():
    rho = as_density(np.diag([1.0 + 5e-11, -5e-11]))
    assert np.min(np.linalg.eigvalsh(rho)) >= 0.0
    assert abs(np.trace(rho) - 1) < 1e-12


@pytest.mark.parametrize("rho", [
    np.full((3, 3), 0.3333333333333333),
    *(random_state(d, rank=1, seed=seed) for d in (2, 4, 8) for seed in range(4)),
])
def test_as_density_returns_valid_rank_one_input_bit_for_bit(rho):
    # a negative eigenvalue at eigensolver roundoff is no reason to rebuild
    # the matrix from its eigenvectors, which would move every entry
    assert as_density(rho).tobytes() == as_hermitian(rho).tobytes()


def test_density_of_normalization_and_shape():
    rho = density_of(np.array([1.0, 1.0j]) / np.sqrt(2.0))
    assert abs(np.trace(rho) - 1) < 1e-12
    assert np.array_equal(rho, rho.conj().T)
    with pytest.raises(ValueError):
        density_of([0.9, 0.0])  # not normalized
    with pytest.raises(ValueError):
        density_of(np.ones((2, 2)) / 2)  # not one-dimensional


# -- dephasing ---------------------------------------------------------------------


def test_dephase_diagonal_unchanged():
    m = np.diag([0.3, 0.7])
    assert np.array_equal(dephase(m), m)


def test_dephase_plus_state():
    plus = np.full((2, 2), 0.5)
    assert np.array_equal(dephase(plus), np.diag([0.5, 0.5]))


def test_dephase_idempotent_random_d5():
    m = as_hermitian(random_state(5, seed=7) + 0.3 * np.diag(np.arange(5.0)))
    once = dephase(m)
    assert np.array_equal(dephase(once), once)


@given(st.integers(2, 6), st.integers(0, 10 ** 6))
def test_dephase_trace_preserving_and_valid_state(d, seed):
    rho = random_state(d, seed=seed)
    delta = dephase(rho)
    assert abs(np.trace(delta).real - 1) < 1e-12
    assert np.min(np.diag(delta).real) >= 0.0
    as_density(delta)  # must not raise


# -- l1 coherence ------------------------------------------------------------------


def test_l1_diagonal_is_zero():
    assert l1_coherence(np.diag([0.2, 0.3, 0.5])) == 0.0


def test_l1_maximally_coherent_d3():
    assert abs(l1_coherence(maximally_coherent_state(3)) - 2.0) < 1e-12


def test_l1_minimal_mixture_d4():
    rho = minimal_roc_mixture(4, 0.2)
    assert abs(l1_coherence(rho) - 0.6) < 1e-12


@given(st.integers(2, 6), st.integers(0, 10 ** 6))
def test_l1_zero_iff_diagonal(d, seed):
    rho = random_state(d, seed=seed)
    if np.max(np.abs(rho - dephase(rho))) <= 1e-12:
        assert l1_coherence(rho) <= 1e-12
    else:
        assert l1_coherence(rho) > 0.0
    assert l1_coherence(dephase(rho)) == 0.0


# -- purity-gap identity -----------------------------------------------------------
# The squared 2-norm of the off-diagonal part equals the purity drop under
# dephasing: ||rho - dephase(rho)||_2^2 = Tr[rho^2] - Tr[dephase(rho)^2].


@given(st.integers(2, 6), st.integers(0, 10 ** 6))
def test_purity_gap_identity(d, seed):
    rho = random_state(d, seed=seed)
    delta = dephase(rho)
    lhs = np.linalg.norm(rho - delta) ** 2
    rhs = np.trace(rho @ rho).real - np.trace(delta @ delta).real
    assert abs(lhs - rhs) < 1e-12


# -- eigensolver ------------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 32])
def test_jacobi_reconstruction(d):
    rng = np.random.default_rng(d)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = as_hermitian((g + g.conj().T) / 2)
    w, u = jacobi_eigh(m)
    recon = (u * w) @ u.conj().T
    peak = np.max(np.abs(m))
    assert np.max(np.abs(m - recon)) <= 1e-9 * peak
    assert np.all(np.diff(w) >= -1e-12)  # ascending order
    assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-10


def test_jacobi_matches_eigvalsh_entrypoint():
    m = as_hermitian(random_state(4, seed=3) - np.eye(4) / 4)
    w = jacobi_eigvalsh(m)
    ref = np.linalg.eigvalsh(m)
    assert np.max(np.abs(w - ref)) < 1e-10


def test_eigensolver_uses_hermitian_part_when_triangles_disagree():
    rng = np.random.default_rng(11)
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))  # not Hermitian
    h = 0.5 * (g + g.conj().T)
    ref = np.sort(np.linalg.eigvals(h).real)  # general solver reads every entry
    # either triangle alone has a different spectrum, so the test can tell
    assert np.max(np.abs(np.linalg.eigvalsh(g, UPLO="L") - ref)) > 1e-3
    assert np.max(np.abs(np.linalg.eigvalsh(g, UPLO="U") - ref)) > 1e-3
    assert np.max(np.abs(jacobi_eigvalsh(g) - ref)) < 1e-12
    w, u = jacobi_eigh(g)
    assert np.max(np.abs(w - ref)) < 1e-12
    assert np.max(np.abs((u * w) @ u.conj().T - h)) < 1e-12


def test_eigensolver_on_a_stack_decomposes_each_matrix():
    rng = np.random.default_rng(12)
    g = rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4))  # not Hermitian
    w, u = jacobi_eigh(g)
    for idx in np.ndindex(2, 3):
        w1, u1 = jacobi_eigh(g[idx])
        assert np.array_equal(w[idx], w1) and np.array_equal(u[idx], u1)
        assert np.array_equal(jacobi_eigvalsh(g)[idx], jacobi_eigvalsh(g[idx]))


# -- random generators -------------------------------------------------------------


def test_random_state_rank_one_is_pure():
    rho = random_state(4, rank=1, seed=9)
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12


def test_random_state_full_rank_trace_one():
    rho = random_state(3, rank=3, seed=11)
    w = np.linalg.eigvalsh(rho)
    assert abs(np.sum(w) - 1.0) < 1e-12
    assert np.min(w) > 0.0


def test_random_state_deterministic():
    a = random_state(5, seed=42)
    b = random_state(5, seed=42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, random_state(5, seed=43))


def test_random_state_invalid_rank():
    with pytest.raises(ValueError):
        random_state(3, rank=0, seed=0)
    with pytest.raises(ValueError):
        random_state(3, rank=4, seed=0)


def test_random_unitary_is_unitary_and_deterministic():
    u = random_unitary(4, seed=1)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
    assert np.array_equal(u, random_unitary(4, seed=1))


def test_random_pure_normalized():
    v = random_pure(6, seed=2)
    assert abs(np.vdot(v, v) - 1.0) < 1e-12


# -- named states ------------------------------------------------------------------


def test_maximally_coherent_state_entries():
    rho = maximally_coherent_state(3)
    assert np.max(np.abs(rho - np.full((3, 3), 1.0 / 3.0))) < 1e-15


def test_basis_projector():
    p = basis_projector(3, 1)
    assert np.array_equal(p, np.diag([0.0, 1.0, 0.0]))


def test_minimal_roc_mixture_is_valid_state():
    for d in (3, 4, 5):
        p = 1.0 / (d - 1)
        rho = minimal_roc_mixture(d, p)
        as_density(rho)
        # off-diagonal entries are all -p/d by construction
        assert abs(rho[0, 1] + p / d) < 1e-15


def test_minimal_roc_mixture_rejects_weight_outside_range():
    with pytest.raises(ValueError):
        minimal_roc_mixture(4, 0.5)  # p > 1/(d-1) leaves the state cone
