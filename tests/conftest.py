"""Shared fixtures: quotient tables are expensive, build each config once.

The fixtures read chowring.table, the same per-process cache the CLI and the
acceptance criteria use, so a config built for one test module is never
built again for another.  The build mode is only a report label, so one
table per config serves every mode."""

import random

import pytest

from m36 import chowring, labels


@pytest.fixture(scope="session")
def table():
    """All-line-fiber table."""
    return chowring.table(labels.config_all_p1())


@pytest.fixture(scope="session")
def table_p2():
    """All-plane-fiber table."""
    return chowring.table(labels.config_all_p2())


@pytest.fixture(scope="session")
def table_mixed():
    """A seeded config with some plane fibers and some line fibers."""
    rng = random.Random(3636)
    pts = rng.sample(labels.SINGULAR_POINTS, rng.randint(2, 13))
    return chowring.table(labels.ResolutionConfig(s2=frozenset(pts)))
