"""Shared fixtures: small pinned matrices and the session-wide catalog."""

from __future__ import annotations

import pytest

from dynkin import enumerate_hyperbolic, validate_gcm


@pytest.fixture
def unbalanced_triangle():
    """Rank-3 hyperbolic triangle whose cycle products differ (-4 vs -2)."""
    return validate_gcm([[2, -1, -1], [-2, 2, -2], [-2, -1, 2]])


@pytest.fixture
def arrow_chain():
    """Rank-3 chain with one double arrow; symmetrizer pinned to (1, 1, 2)."""
    return validate_gcm([[2, -1, 0], [-1, 2, -2], [0, -1, 2]])


@pytest.fixture
def g2():
    return validate_gcm([[2, -1], [-3, 2]])


@pytest.fixture(scope="session")
def catalog():
    """Full hyperbolic catalog, built once per test session."""
    return enumerate_hyperbolic(3, 10)

