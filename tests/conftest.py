"""Shared fixtures: small pinned matrices, the session-wide catalog, one CLI parser."""

from __future__ import annotations

import pytest

import dynkin.cli
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


@pytest.fixture
def one_parser(monkeypatch):
    """``dynkin.cli.main`` reuses one parser for the test's many runs.

    Building the parser takes about 0.8 ms and parsing a command line 0.03 ms,
    so a test of a thousand command lines spends most of its time building.
    A parse leaves the parser as it was, so the runs print the same bytes.
    """
    parser = dynkin.cli.build_parser()
    monkeypatch.setattr(dynkin.cli, "build_parser", lambda: parser)
