import pytest


@pytest.fixture(scope="session")
def suite_42_25():
    """run_suite(42, 25), the full suite at the seed of the behaviour gate,
    run once and shared by the tests that read it."""
    from cevian.verify import run_suite

    return run_suite(42, 25)
