import pytest

from altspectra.verify import _GraphCache


@pytest.fixture(scope="session")
def graph():
    """Session-wide family graph builder, memoized by the battery's own cache."""
    return _GraphCache().get
