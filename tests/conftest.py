import pytest


@pytest.fixture(autouse=True)
def _cache_dir(monkeypatch, tmp_path):
    """Point the b-file cache at a directory of the test's own.

    No test reads or writes the user's ~/.cache/binsum, and a subprocess a
    test starts inherits the setting.  The directory does not exist until a
    fetch writes to it; a test that puts a file in the cache sets
    BINSUM_CACHE_DIR itself.
    """
    monkeypatch.setenv("BINSUM_CACHE_DIR", str(tmp_path / "cache"))
