"""Property tests of the sparse F_p eliminator against the dense oracle.

Every answer of `FieldMatrix` is pinned by the reduced row echelon form:
the rank, the lowest-index column basis (pivot columns), the solution that
is 0 on every free column, and the nullspace vector per free column. The
reference here is `harness._oracle_rank`, which shares no code with
`linalg`. Matrices are drawn as lists of rows; vectors going into and out of
`FieldMatrix` are sparse dicts {index: value mod p}.
"""

import pytest
from hypothesis import given, settings, strategies as st

from tatesplice.harness import _oracle_rank
from tatesplice.linalg import FieldMatrix

PRIMES = (2, 3, 32003)
MAX_DIM = 12


def _vector(p, size):
    # about half the entries zero, so sparse structure and cancellation occur
    value = st.one_of(st.just(0), st.integers(0, p - 1))
    return st.lists(value, min_size=size, max_size=size)


def _entries(p, rows, cols):
    return st.lists(_vector(p, cols), min_size=rows, max_size=rows)


@st.composite
def matrices(draw):
    """(rows, column count, p): random, rank-deficient, or block diagonal
    with shuffled rows and columns."""
    p = draw(st.sampled_from(PRIMES))
    kind = draw(st.sampled_from(("random", "low_rank", "blocks")))
    if kind == "random":
        m = draw(st.integers(0, MAX_DIM))
        n = draw(st.integers(0, MAX_DIM))
        a = draw(_entries(p, m, n))
    elif kind == "low_rank":
        m = draw(st.integers(1, MAX_DIM))
        n = draw(st.integers(1, MAX_DIM))
        k = draw(st.integers(0, min(m, n) - 1))
        u = draw(_entries(p, m, k))
        v = draw(_entries(p, k, n))
        a = [
            [sum(u[r][t] * v[t][c] for t in range(k)) % p for c in range(n)]
            for r in range(m)
        ]
    else:
        sizes = draw(
            st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=4)
        )
        m = sum(r for r, _ in sizes)
        n = sum(c for _, c in sizes)
        a = [[0] * n for _ in range(m)]
        r0 = c0 = 0
        for r, c in sizes:
            for i, row in enumerate(draw(_entries(p, r, c))):
                a[r0 + i][c0:c0 + c] = row
            r0, c0 = r0 + r, c0 + c
        rows = draw(st.permutations(range(m)))
        cols = draw(st.permutations(range(n)))
        a = [[a[r][c] for c in cols] for r in rows]
    return a, n, p


def _columns(a, n):
    """Sparse columns {row: value} of the nonzero entries."""
    return [{r: row[c] for r, row in enumerate(a) if row[c]} for c in range(n)]


def _sparse(a, n, p):
    """The sparse constructor graded_piece uses, with every nonzero entry
    split into two triplets so that accumulation mod p is exercised."""
    triplets = []
    for r, row in enumerate(a):
        for c, v in enumerate(row):
            if v:
                triplets += [(r, c, v + 1), (r, c, p - 1)]
    return FieldMatrix.from_triplets(len(a), n, triplets, p)


def _dict(vec):
    return {i: v for i, v in enumerate(vec) if v}


def _pivot_columns(a, n, p):
    """Columns independent of the columns before them."""
    ranks = [_oracle_rank([row[:j] for row in a], p) for j in range(n + 1)]
    return [j for j in range(n) if ranks[j + 1] > ranks[j]]


def _apply(a, x, p):
    """A x as a dense list, for a sparse x."""
    return [sum(row[k] * v for k, v in x.items()) % p for row in a]


@given(matrices())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_rank_matches_oracle(case):
    a, n, p = case
    fm = _sparse(a, n, p)
    assert fm.rank() == _oracle_rank(a, p)
    assert fm.shape == (len(a), n)
    assert fm.columns == _columns(a, n)
    assert FieldMatrix(len(a), _columns(a, n), p).rank() == fm.rank()


def _draw_rhs(data, a, n, p):
    """A dense right-hand side: A x0 for a drawn x0, or drawn outright."""
    if data.draw(st.booleans()):
        return _apply(a, _dict(data.draw(_vector(p, n))), p)
    return data.draw(_vector(p, len(a)))


@given(matrices(), st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_solve(case, data):
    a, n, p = case
    fm = _sparse(a, n, p)
    b = _draw_rhs(data, a, n, p)
    in_span = _oracle_rank([row + [v] for row, v in zip(a, b)], p) == _oracle_rank(a, p)
    x = fm.solve(_dict(b))
    assert (x is not None) == in_span
    if x is not None:
        assert _apply(a, x, p) == b
        assert all(0 < v < p for v in x.values())
        free = set(range(n)) - set(_pivot_columns(a, n, p))
        assert not free & set(x)


@given(matrices(), st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_solve_matrix_agrees_with_solve(case, data):
    a, n, p = case
    fm = _sparse(a, n, p)
    k = data.draw(st.integers(0, 3))
    rhs = [_dict(_draw_rhs(data, a, n, p)) for _ in range(k)]
    X = fm.solve_matrix(rhs)
    singles = [fm.solve(b) for b in rhs]
    if any(x is None for x in singles):
        assert X is None
    else:
        assert X == singles


@given(matrices())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_nullspace(case):
    a, n, p = case
    fm = _sparse(a, n, p)
    free = sorted(set(range(n)) - set(_pivot_columns(a, n, p)))
    basis = fm.nullspace()
    assert len(basis) == len(free) == n - _oracle_rank(a, p)
    for f, v in zip(free, basis):
        assert not any(_apply(a, v, p))
        assert v.get(f) == 1
        assert all(v.get(g, 0) == 0 for g in free if g != f)


def test_solve_rejects_wrong_length():
    identity = FieldMatrix(2, [{0: 1}, {1: 1}], 7)
    for b in ({0: 1, 1: 2, 2: 3}, {-1: 1}):
        with pytest.raises(ValueError):
            identity.solve(b)
