"""Shared fixtures."""

import pytest

import rankin.qseries

SERIES_KERNELS = ("_packed_mul", "_schoolbook_mul", "_newton_inverse", "_recurrence_inverse")


@pytest.fixture
def refuse_series_kernels(monkeypatch):
    """A function that makes every series product and inverse kernel raise
    from the moment it is called."""
    def install():
        def refuse(*args, **kwargs):
            raise RuntimeError("a series product or inverse was computed")
        for name in SERIES_KERNELS:
            monkeypatch.setattr(rankin.qseries, name, refuse)
    return install
