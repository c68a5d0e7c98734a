import random
import traceback

import pytest

try:
    import resource
except ImportError:  # not on every platform
    resource = None

#: the address space the test process may hold: a listing that runs away then
#: fails its test with MemoryError instead of getting the whole run killed
ADDRESS_SPACE_CAP = 2 * 1024**3


def pytest_addoption(parser):
    parser.addoption(
        "--qplab-seed",
        type=int,
        default=20260809,
        help="seed for the randomized property suites",
    )


def pytest_configure(config):
    if resource is None:
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    # only ever lower the limit: a smaller one set by the caller stays, and
    # a hard limit below the cap keeps the soft one below it too
    if soft == resource.RLIM_INFINITY or soft > ADDRESS_SPACE_CAP:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, hard))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    # a test that ran out of memory still holds what filled it in the locals
    # of its traceback's frames; free them so that its report can be written
    if call.excinfo is not None and call.excinfo.errisinstance(MemoryError):
        traceback.clear_frames(call.excinfo.tb)
    yield


@pytest.fixture
def seed(request) -> int:
    return request.config.getoption("--qplab-seed")


@pytest.fixture
def rng(seed) -> random.Random:
    return random.Random(seed)
