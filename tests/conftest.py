import pytest

from redop import CONFIG


@pytest.fixture(autouse=True)
def deterministic_config():
    """Pin the sampling knobs so verdicts do not drift between runs."""
    saved = dict(CONFIG)
    CONFIG.update({"samples": 5, "seed": 0})
    yield
    CONFIG.clear()
    CONFIG.update(saved)
