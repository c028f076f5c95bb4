"""Fixtures shared by the test modules."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

import evontree.gateway as gateway_module


@pytest.fixture
def full_backoff(monkeypatch):
    """Each retry after a failure with no Retry-After waits its whole
    RETRY_BACKOFF_S step: the jitter draw returns the top of its range."""
    monkeypatch.setattr(gateway_module._JITTER, "uniform", lambda lo, hi: hi)


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every thread pool the gateways build, in order."""
    built = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(gateway_module, "ThreadPoolExecutor", RecordingPool)
    return built
