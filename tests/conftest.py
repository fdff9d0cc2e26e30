"""Shared fixtures for the test suite."""

import multiprocessing

import pytest


@pytest.fixture
def force_spawn(monkeypatch):
    """Make the platform look fork-less for the duration of a test.

    ``run_sharded`` then builds a real spawn pool, whose workers attach
    to the shared-memory context from its pickled descriptor — the only
    pool path on platforms without fork.
    """
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )
    monkeypatch.setattr(
        multiprocessing,
        "get_start_method",
        lambda allow_none=False: "spawn",
    )
