import pytest

from altspectra.cayley import build_family

_cache = {}


@pytest.fixture(scope="session")
def graph():
    """Session-wide memoized family graph builder."""

    def get(family, n):
        key = (family, n)
        if key not in _cache:
            _cache[key] = build_family(family, n)
        return _cache[key]

    return get
