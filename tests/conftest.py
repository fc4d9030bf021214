import pytest

from plbounds import io


@pytest.fixture(autouse=True)
def _own_cache_home(tmp_path_factory, monkeypatch):
    """Each test gets its own empty ``XDG_CACHE_HOME``, so no test reads or
    writes the user's derived-input cache (estimate tables and
    rotation-uncertainty tensors); subprocesses a test starts inherit it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache_home")))


@pytest.fixture(autouse=True)
def _no_input_file_settles(monkeypatch):
    """No input file is settled (``io._SETTLED_NS``), so no test leaves a
    digest memo in its cache, or reads one, because it ran slowly; the
    memo's own tests set the settle time they need."""
    monkeypatch.setattr(io, "_SETTLED_NS", 1 << 100)
