"""Shared fixtures."""

import pytest

import fdnoma.mcsim as mcsim


@pytest.fixture
def recording_pool(monkeypatch):
    """Replace the simulator's process pool by an in-process stand-in; the
    returned list gets the max_workers of every pool created."""
    created = []

    class RecordingPool:
        def __init__(self, max_workers=None):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(mcsim, "ProcessPoolExecutor", RecordingPool)
    return created
