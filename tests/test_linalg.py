"""Property tests of the sparse F_p eliminator against the dense oracle.

Every answer of `FieldMatrix` is pinned by the reduced row echelon form:
the rank, the lowest-index column basis (pivot columns), the solution that
is 0 on every free column, and the nullspace vector per free column. The
reference here is `harness._oracle_rank`, which shares no code with
`linalg`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tatesplice.harness import _oracle_rank
from tatesplice.linalg import FieldMatrix

PRIMES = (2, 3, 32003)
MAX_DIM = 12


def _entries(p, rows, cols):
    # about half the entries zero, so sparse structure and cancellation occur
    value = st.one_of(st.just(0), st.integers(0, p - 1))
    return st.lists(
        st.lists(value, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@st.composite
def matrices(draw):
    """(dense int64 array, p): random, rank-deficient, or block diagonal with
    shuffled rows and columns."""
    p = draw(st.sampled_from(PRIMES))
    kind = draw(st.sampled_from(("random", "low_rank", "blocks")))
    if kind == "random":
        m = draw(st.integers(0, MAX_DIM))
        n = draw(st.integers(0, MAX_DIM))
        a = np.array(draw(_entries(p, m, n)), dtype=np.int64).reshape(m, n)
    elif kind == "low_rank":
        m = draw(st.integers(1, MAX_DIM))
        n = draw(st.integers(1, MAX_DIM))
        k = draw(st.integers(0, min(m, n) - 1))
        u = np.array(draw(_entries(p, m, k)), dtype=np.int64).reshape(m, k)
        v = np.array(draw(_entries(p, k, n)), dtype=np.int64).reshape(k, n)
        a = (u @ v) % p
    else:
        sizes = draw(
            st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=4)
        )
        m = sum(r for r, _ in sizes)
        n = sum(c for _, c in sizes)
        a = np.zeros((m, n), dtype=np.int64)
        r0 = c0 = 0
        for r, c in sizes:
            a[r0:r0 + r, c0:c0 + c] = draw(_entries(p, r, c))
            r0, c0 = r0 + r, c0 + c
        a = a[draw(st.permutations(range(m)))][:, draw(st.permutations(range(n)))]
    return a, p


def _sparse(a, p):
    """The sparse constructor graded_piece uses, with every nonzero entry
    split into two triplets so that accumulation mod p is exercised."""
    triplets = []
    for r, c in zip(*np.nonzero(a)):
        v = int(a[r, c])
        triplets += [(int(r), int(c), v + 1), (int(r), int(c), p - 1)]
    return FieldMatrix.from_triplets(a.shape[0], a.shape[1], triplets, p)


def _rank(a, p):
    return _oracle_rank(a.tolist(), p)


def _pivot_columns(a, p):
    """Columns independent of the columns before them."""
    return [j for j in range(a.shape[1]) if _rank(a[:, : j + 1], p) > _rank(a[:, :j], p)]


def _apply(a, x, p):
    return (a @ x) % p


@given(matrices())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_rank_matches_oracle_and_keeps_array_unbuilt(case):
    a, p = case
    fm = _sparse(a, p)
    assert fm.rank() == _rank(a, p)
    assert fm._array is None
    assert fm.shape == a.shape
    assert FieldMatrix(a, p).rank() == fm.rank()
    assert np.array_equal(fm.array, a)


@given(matrices(), st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_solve(case, data):
    a, p = case
    m, n = a.shape
    fm = _sparse(a, p)
    if data.draw(st.booleans()):
        x0 = np.array(data.draw(_entries(p, n, 1)), dtype=np.int64).reshape(n)
        b = _apply(a, x0, p)
    else:
        b = np.array(data.draw(_entries(p, m, 1)), dtype=np.int64).reshape(m)
    in_span = _rank(np.column_stack([a, b]), p) == _rank(a, p)
    x = fm.solve(b)
    assert (x is not None) == in_span
    if x is not None:
        assert np.array_equal(_apply(a, x, p), b)
        free = sorted(set(range(n)) - set(_pivot_columns(a, p)))
        assert not x[free].any()


@given(matrices(), st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_solve_matrix_agrees_with_solve(case, data):
    a, p = case
    m, n = a.shape
    fm = _sparse(a, p)
    k = data.draw(st.integers(0, 3))
    cols = []
    for _ in range(k):
        if data.draw(st.booleans()):
            x0 = np.array(data.draw(_entries(p, n, 1)), dtype=np.int64).reshape(n)
            cols.append(_apply(a, x0, p))
        else:
            cols.append(np.array(data.draw(_entries(p, m, 1)), dtype=np.int64).reshape(m))
    B = np.column_stack(cols) if cols else np.zeros((m, 0), dtype=np.int64)
    X = fm.solve_matrix(B)
    singles = [fm.solve(B[:, j]) for j in range(k)]
    if any(x is None for x in singles):
        assert X is None
    else:
        assert X.shape == (n, k)
        for j, x in enumerate(singles):
            assert np.array_equal(X[:, j], x)


@given(matrices())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_nullspace(case):
    a, p = case
    n = a.shape[1]
    fm = _sparse(a, p)
    free = sorted(set(range(n)) - set(_pivot_columns(a, p)))
    basis = fm.nullspace()
    assert len(basis) == len(free) == n - _rank(a, p)
    for f, v in zip(free, basis):
        assert not _apply(a, v, p).any()
        assert v[f] == 1
        assert all(v[g] == 0 for g in free if g != f)


def test_solve_rejects_wrong_length():
    with pytest.raises(ValueError):
        FieldMatrix([[1, 0], [0, 1]], 7).solve([1, 2, 3])
