import numpy as np
import pytest

from altspectra.verify import _GraphCache


@pytest.fixture(scope="session")
def graph():
    """Session-wide family graph builder, memoized by the battery's own cache."""
    return _GraphCache().get


def adjacency(G):
    """G's order x order adjacency matrix, one entry set per row and vertex:
    the dense oracle that test solves are compared with."""
    A = np.zeros((G.order, G.order))
    for row in G.perms:
        A[np.arange(G.order), row] = 1.0
    return A
