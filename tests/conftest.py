"""Shared fixtures."""

import sys

import pytest

from beamstab import fem


@pytest.fixture
def kernels(monkeypatch):
    """``kernels("dense")`` or ``kernels("banded")`` makes ``fem`` use that
    kind of kernel for every system size, until the test ends."""
    def use(kind: str) -> None:
        monkeypatch.setattr(fem, "DENSE_MAX_N", {"dense": sys.maxsize, "banded": 0}[kind])

    return use
