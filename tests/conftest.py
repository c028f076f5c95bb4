"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

import evontree.gateway as gateway_module


@pytest.fixture
def full_backoff(monkeypatch):
    """Each retry after a failure with no Retry-After waits its whole
    RETRY_BACKOFF_S step: the jitter draw returns the top of its range."""
    monkeypatch.setattr(gateway_module._JITTER, "uniform", lambda lo, hi: hi)
