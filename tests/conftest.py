import pytest


@pytest.fixture(autouse=True)
def _own_cache_home(tmp_path_factory, monkeypatch):
    """Each test gets its own empty ``XDG_CACHE_HOME``, so no test reads or
    writes the user's derived-input cache (estimate tables and
    rotation-uncertainty tensors); subprocesses a test starts inherit it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache_home")))
