import pytest

from robinaudit.primes import PrimeTable


@pytest.fixture(scope="session", autouse=True)
def _no_precision_override():
    """The CLI reads ROBIN_PRECISION_BITS; a value in the caller's
    environment must not change what the tests see.  Session scope, so
    the variable is gone before any module-scoped fixture runs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("ROBIN_PRECISION_BITS", raising=False)
        yield


@pytest.fixture(scope="session")
def table_1e5():
    return PrimeTable.build(10**5)


@pytest.fixture(scope="session")
def table_1e6():
    return PrimeTable.build(10**6)


@pytest.fixture(scope="session")
def table_1e7():
    return PrimeTable.build(10**7)
