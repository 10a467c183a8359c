"""Tests for the dense linear-algebra wrappers and the eigenpair contract."""

import numpy as np
import pytest

from koopmankit import CONTINUOUS, KoopmanModel, eig, eigenfunctions, lstsq, monomials
from koopmankit.exceptions import NumericsError


def _left_rows(k):
    """K's left eigenvectors as rows: the coefficients of its model's eigenfunctions."""
    model = KoopmanModel(monomials(k.shape[0], 1), k, CONTINUOUS)
    fns = eigenfunctions(model)
    return np.array([fn.eigenvalue for fn in fns]), np.array([fn.coeffs for fn in fns])


def test_lstsq_matches_normal_equations_on_well_posed_problem():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((30, 4))
    b = rng.standard_normal((30, 2))
    x = lstsq(a, b)
    # residual is orthogonal to the column space
    np.testing.assert_allclose(a.T @ (a @ x - b), 0.0, atol=1e-12)


def test_lstsq_rank_deficient_returns_min_norm_solution():
    # duplicate column: solutions form a line, the wrapper picks least norm
    a = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    b = np.array([2.0, 4.0, 6.0])
    x = lstsq(a, b)
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)


def test_eig_ordering_descending_real_then_imag():
    k = np.diag([0.5, -0.1, 0.9])
    pairs = eig(k)
    np.testing.assert_allclose(pairs.eigenvalues.real, [0.9, 0.5, -0.1])


def test_eig_right_and_left_vector_identities():
    rng = np.random.default_rng(8)
    k = rng.standard_normal((5, 5))
    pairs = eig(k)
    for i, lam in enumerate(pairs.eigenvalues):
        v = pairs.right_vectors[:, i]
        np.testing.assert_allclose(k @ v, lam * v, atol=1e-10)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    left_values, left = _left_rows(k)
    np.testing.assert_allclose(left_values, pairs.eigenvalues, atol=1e-10)
    for lam, w in zip(left_values, left):
        np.testing.assert_allclose(w @ k, lam * w, atol=1e-10)
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)


def test_eig_conjugate_pairs_are_adjacent():
    # rotation block has eigenvalues cos(t) +/- i sin(t)
    t = 0.7
    k = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    pairs = eig(k)
    lam = pairs.eigenvalues
    assert lam[0] == np.conj(lam[1])
    assert lam[0].imag > 0  # positive-imaginary member first


def test_eig_phase_canonicalization_is_deterministic():
    rng = np.random.default_rng(12)
    k = rng.standard_normal((4, 4))
    first = eig(k)
    second = eig(k.copy())
    np.testing.assert_array_equal(first.right_vectors, second.right_vectors)
    np.testing.assert_array_equal(_left_rows(k)[1], _left_rows(k.copy())[1])


def test_closest_matches_by_value_not_by_index():
    pairs = eig(np.diag([3.0, 1.0, -2.0]))
    idx, unique = pairs.closest(1.0 + 1e-12)
    assert unique
    assert pairs.eigenvalues[idx] == pytest.approx(1.0)


def test_closest_flags_ambiguous_match():
    pairs = eig(np.diag([1.0, 1.0 + 1e-12, 5.0]))
    _, unique = pairs.closest(1.0)
    assert not unique


def test_left_vectors_biorthogonal_to_right_vectors():
    # for simple spectra, w_i . v_j vanishes off the diagonal
    k = np.array([[1.0, 2.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, 0.5]])
    gram = _left_rows(k)[1] @ eig(k).right_vectors
    off = gram - np.diag(np.diag(gram))
    np.testing.assert_allclose(off, 0.0, atol=1e-10)
    assert np.all(np.abs(np.diag(gram)) > 1e-8)
