"""Shared instance fixtures; session-scoped so expensive builds happen once."""

import pytest

from tatesplice.harness import InstanceData, ProblemInstance, run_build

P = 32003


def ingest(variables, f_strs, g_strs, window, dmax):
    """The production ingestion of one instance over F_32003: sequences,
    Gröbner bases, the rings S, R and M, and the lift matrix."""
    return InstanceData(
        ProblemInstance(
            field_char=P,
            variables=list(variables),
            f=list(f_strs),
            g=list(g_strs),
            window=window,
            max_internal_degree=dmax,
        )
    )


@pytest.fixture(scope="session")
def inst_t():
    """f = (x, y), g = (x^2, y^2), M = k: the socle-splice example."""
    return ingest(["x", "y"], ["x", "y"], ["x^2", "y^2"], (-4, 5), 10)


@pytest.fixture(scope="session")
def inst_c():
    """f = (x^2, y^2, z^2), g = (x^3, y^3): codimensions 3 and 2."""
    return ingest(["x", "y", "z"], ["x^2", "y^2", "z^2"], ["x^3", "y^3"], (-4, 6), 12)


@pytest.fixture(scope="session")
def inst_h():
    """Hypersurface degeneration: f = (x, y), g = x^2 + y^2."""
    return ingest(["x", "y"], ["x", "y"], ["x^2 + y^2"], (-4, 5), 10)


@pytest.fixture(scope="session")
def inst_52():
    return ingest(
        ["x1", "x2", "x3", "x4", "x5"],
        ["x1^2", "x2^2", "x3^2", "x4^2", "x5^2"],
        ["x1^3", "x2^3"],
        (-1, 2),
        4,
    )


@pytest.fixture(scope="session")
def inst_52w():
    """Rung 52 widened to window [-2, 3], dmax 6: graded pieces up to
    9429 x 4530, very sparse."""
    return ingest(
        ["x1", "x2", "x3", "x4", "x5"],
        ["x1^2", "x2^2", "x3^2", "x4^2", "x5^2"],
        ["x1^3", "x2^3"],
        (-2, 3),
        6,
    )


@pytest.fixture(scope="session")
def inst_41():
    return ingest(
        ["x1", "x2", "x3", "x4"],
        ["x1^2", "x2^2", "x3^2", "x4^2"],
        ["x1^3"],
        (-2, 3),
        5,
    )


@pytest.fixture(scope="session")
def build_t(inst_t):
    return run_build(inst_t.instance)


@pytest.fixture(scope="session")
def build_c(inst_c):
    return run_build(inst_c.instance)


@pytest.fixture(scope="session")
def build_h(inst_h):
    return run_build(inst_h.instance)


@pytest.fixture(scope="session")
def build_52(inst_52):
    return run_build(inst_52.instance)


@pytest.fixture(scope="session")
def build_52w(inst_52w):
    return run_build(inst_52w.instance)


@pytest.fixture(scope="session")
def build_41(inst_41):
    return run_build(inst_41.instance)
