import os
import sys

import pytest
from hypothesis import settings

# Allow running the suite straight from a checkout, without installing.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cantorspec import cyclotomic, kernel  # noqa: E402  (needs the path above)

settings.register_profile("default", deadline=None)
settings.load_profile("default")


@pytest.fixture(autouse=True)
def fresh_process_caches():
    """Start each test with no memoised slice closure and no order memo, so
    that a test which counts closure builds or class sums sees only its own."""
    kernel._closure_memo.cache_clear()
    cyclotomic._order_memo.cache_clear()
