import pytest

from comaxlat.enumeration import enumerated_universe
from comaxlat.presets import PRESET_NAMES, preset


def pytest_addoption(parser):
    parser.addoption(
        "--size6",
        action="store_true",
        default=False,
        help="run the deep checks at size 6 instead of size 5 (slower)",
    )
    parser.addoption(
        "--size7",
        action="store_true",
        default=False,
        help="also run the size-7 checks: frozen counts and catalog forms (slower)",
    )
    parser.addoption(
        "--size8",
        action="store_true",
        default=False,
        help="also run the size-8 checks: orders and multiplication counts (slower)",
    )


@pytest.fixture(scope="session")
def deep_size(request) -> int:
    return 6 if request.config.getoption("--size6") else 5


@pytest.fixture(scope="session")
def universe5():
    return enumerated_universe(5)


@pytest.fixture(scope="session")
def universe6():
    return enumerated_universe(6)


@pytest.fixture(scope="session")
def universe7(request):
    if not request.config.getoption("--size7"):
        pytest.skip("needs --size7")
    return enumerated_universe(7, size_cap=7)


@pytest.fixture(scope="session")
def universe_deep(deep_size):
    return enumerated_universe(deep_size)


@pytest.fixture(scope="session")
def all_presets():
    return [preset(name) for name in PRESET_NAMES]
