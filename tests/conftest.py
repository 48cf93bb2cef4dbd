import pytest


@pytest.fixture(autouse=True)
def own_cache(tmp_path, monkeypatch):
    """Each test starts with an empty cache of parsed CSV tables in its own
    directory, so no test reads or writes the user's."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
