import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechkit import fplinalg
from cechkit.fplinalg import (
    F2,
    MAX_PRIME,
    DimensionMismatch,
    FMatrix,
    ModulusTooLarge,
    NotASubspace,
    NotPrime,
    PrimeField,
    quotient_dim,
    rref,
)


def brute_force_image_size(a: np.ndarray, p: int) -> int:
    """Count distinct images of A over all input vectors; equals p^rank."""
    seen = set()
    for vec in itertools.product(range(p), repeat=a.shape[1]):
        seen.add(tuple((a @ np.array(vec)) % p))
    return len(seen)


def test_prime_validation():
    PrimeField(2)
    PrimeField(13)
    for bad in (0, 1, 4, 9, 15):
        with pytest.raises(NotPrime):
            PrimeField(bad)


def test_prime_bound_keeps_int64_arithmetic_exact():
    p = MAX_PRIME
    field = PrimeField(p)
    row = FMatrix([[p - 1] * 3], field)
    assert (row @ FMatrix([[p - 1]] * 3, field)).entries.tolist() == [[3]]
    for big in (p + 1, 65537, 2 ** 31 - 1, 2305843009213693951):
        with pytest.raises(ModulusTooLarge, match="exceeds 65521"):
            PrimeField(big)


def test_rank_nullity_trivial():
    assert FMatrix.zeros(3, 3, F2).rank_nullity() == (0, 3)
    assert FMatrix.identity(4, F2).rank_nullity() == (4, 0)


def test_rank_against_brute_force_image():
    # coboundary of the 4-cycle, transposed orientation irrelevant for rank
    a = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]])
    m = FMatrix(a, F2)
    assert 2 ** m.rank() == brute_force_image_size(a, 2)
    assert m.rank() == 3


def test_rank_equals_transpose_rank():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5):
        field = PrimeField(p)
        for _ in range(20):
            a = rng.integers(0, p, size=(4, 6))
            m = FMatrix(a, field)
            assert m.rank() == m.T.rank()


def test_kernel_basis():
    assert FMatrix.identity(3, F2).kernel_basis().cols == 0
    z = FMatrix.zeros(2, 5, F2).kernel_basis()
    assert z.cols == 5
    a = FMatrix(np.array([[1, 1, 0], [0, 1, 1]]), F2)
    k = a.kernel_basis()
    assert k.cols == 1
    assert not (a @ k).entries.any()


def test_kernel_vectors_annihilated_everywhere():
    rng = np.random.default_rng(3)
    for p in (2, 5):
        field = PrimeField(p)
        a = FMatrix(rng.integers(0, p, size=(3, 5)), field)
        k = a.kernel_basis()
        assert a.rank_nullity()[1] == k.cols
        assert not (a @ k).entries.any()


def test_solve_identity_and_unsolvable():
    b = np.array([1, 0, 1])
    assert np.array_equal(FMatrix.identity(3, F2).solve(b), b)
    assert FMatrix.zeros(3, 3, F2).solve(np.array([1, 0, 0])) is None
    assert FMatrix.zeros(2, 2, F2).solve(np.zeros(2, dtype=int)) is not None


def test_solve_cross_checked_by_rank():
    rng = np.random.default_rng(11)
    for p in (2, 3):
        field = PrimeField(p)
        for _ in range(30):
            a = FMatrix(rng.integers(0, p, size=(4, 4)), field)
            b = rng.integers(0, p, size=4)
            x = a.solve(b)
            aug = FMatrix(np.column_stack([a.entries, b]), field)
            consistent = aug.rank() == a.rank()
            assert (x is not None) == consistent
            if x is not None:
                assert np.array_equal((a.entries @ x) % p, b % p)


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        FMatrix.identity(3, F2).solve(np.array([1, 0]))


def test_quotient_dim():
    z = FMatrix(np.array([[1, 0], [0, 1], [0, 0]]), F2)
    b = FMatrix(np.array([[1], [1], [0]]), F2)
    assert quotient_dim(z, b) == 1
    assert quotient_dim(z, z) == 0
    assert quotient_dim(z, FMatrix.zeros(3, 0, F2)) == 2
    outside = FMatrix(np.array([[0], [0], [1]]), F2)
    with pytest.raises(NotASubspace):
        quotient_dim(z, outside)


def test_inverse():
    field = PrimeField(5)
    a = FMatrix(np.array([[1, 2], [3, 4]]), field)
    inv = a.inverse()
    assert (a @ inv).equals(FMatrix.identity(2, field))
    with pytest.raises(ZeroDivisionError):
        FMatrix(np.array([[1, 1], [1, 1]]), F2).inverse()


def test_column_space_basis_deterministic():
    a = FMatrix(np.array([[1, 1, 0], [1, 1, 1]]), F2)
    cb = a.column_space_basis()
    assert cb.cols == 2
    assert np.array_equal(cb.entries[:, 0], [1, 1])


def greedy_column_space_basis(m: FMatrix) -> FMatrix:
    """Reference: the per-column greedy loop column_space_basis replaced."""
    p = m.field.p
    picked: list[np.ndarray] = []
    rank = 0
    for j in range(m.cols):
        candidate = picked + [m.entries[:, j]]
        r = len(rref(np.column_stack(candidate), p)[1])
        if r > rank:
            picked.append(m.entries[:, j].copy())
            rank = r
    return FMatrix.from_columns(picked, m.rows, m.field)


@st.composite
def matrices(draw) -> FMatrix:
    p = draw(st.sampled_from((2, 3, 5)))
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 8))
    values = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols))
    return FMatrix(np.array(values, dtype=np.int64).reshape(rows, cols), PrimeField(p))


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_column_space_basis_matches_greedy_loop(m):
    got = m.column_space_basis()
    want = greedy_column_space_basis(m)
    assert got.entries.shape == want.entries.shape
    assert got.entries.dtype == want.entries.dtype
    assert np.array_equal(got.entries, want.entries)


def test_column_space_basis_runs_one_elimination(monkeypatch):
    calls = []

    def counting_rref(a, p):
        calls.append(a.shape)
        return rref(a, p)

    m = FMatrix(np.arange(42).reshape(6, 7), PrimeField(5))
    rank = m.rank()
    monkeypatch.setattr(fplinalg, "rref", counting_rref)
    assert m.column_space_basis().cols == rank
    assert calls == [(6, 7)]


def test_determinism_repeated_runs():
    a = np.arange(30).reshape(5, 6)
    m = FMatrix(a, PrimeField(7))
    first = (m.rank_nullity(), m.kernel_basis().entries.tolist())
    for _ in range(3):
        again = FMatrix(a, PrimeField(7))
        assert (again.rank_nullity(), again.kernel_basis().entries.tolist()) == first


def test_entries_are_read_only_and_rank_runs_one_elimination(monkeypatch):
    calls = []

    def counting_rref(a, p):
        calls.append(a.shape)
        return rref(a, p)

    source = np.arange(42).reshape(6, 7)
    m = FMatrix(source, PrimeField(5))
    source[0, 0] = 4
    assert m.entries[0, 0] == 0
    with pytest.raises(ValueError):
        m.entries[0, 0] = 1
    monkeypatch.setattr(fplinalg, "rref", counting_rref)
    assert m.rank() == m.rank() == m.rank_nullity()[0]
    assert calls == [(6, 7)]
