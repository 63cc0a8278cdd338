"""Shared fixtures for the test-suite."""

from __future__ import annotations

import json
import time

import pytest

from repro.utils.rng import RngFactory
from repro.dynamics import generators
from repro.dynamics.topology import Topology


@pytest.fixture
def rng_factory() -> RngFactory:
    """A deterministic RNG factory for tests."""
    return RngFactory(12345)


@pytest.fixture
def triangle() -> Topology:
    """The triangle graph on nodes {0, 1, 2}."""
    return Topology([0, 1, 2], [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path4() -> Topology:
    """The path 0 - 1 - 2 - 3."""
    return generators.path(4)


@pytest.fixture
def small_gnp(rng_factory: RngFactory) -> Topology:
    """A small sparse random graph used by many algorithm tests."""
    return generators.gnp(24, 0.2, rng_factory.stream("small_gnp"))


@pytest.fixture
def medium_gnp(rng_factory: RngFactory) -> Topology:
    """A medium random graph for convergence tests."""
    return generators.gnp(48, 0.12, rng_factory.stream("medium_gnp"))


@pytest.fixture
def ready_fleet():
    """Wait until every worker of a started remote backend has sent ``ready``.

    Fault injection arms worker 0 only.  The dispatcher feeds whichever
    worker is ready first, so a healthy worker that finishes importing
    sooner can drain a small batch before worker 0 gets any work, and the
    fault never fires.  Absorbing every handshake before ``submit_batch``
    makes the first dispatch reach worker 0.
    """

    def wait(backend, timeout: float = 120.0) -> None:
        deadline = time.monotonic() + timeout
        while not all(state.ready for state in backend._workers.values()):
            worker_id, line = backend._inbox.get(timeout=max(0.0, deadline - time.monotonic()))
            assert line is not None, f"worker {worker_id} exited before its ready line"
            assert json.loads(line).get("ready"), f"unexpected first line {line!r}"
            backend._workers[worker_id].ready = True

    return wait
