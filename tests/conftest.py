import signal
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")

# Seconds any one test may run: a search that loops instead of answering
# fails its test rather than hanging the suite.  The slowest test takes
# about 11 s on a 2-vCPU VM.
TEST_TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def time_limit():
    """Raise ``TimeoutError`` in a test that runs past ``TEST_TIME_LIMIT_S``;
    where the platform has no interval timer, tests run unbounded."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test ran past its limit of {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
