"""Shared fixtures and builders for the USEP test suite."""

from __future__ import annotations

import http.client
import socket
import statistics
import time
from typing import List, Optional, Sequence, Tuple

import pytest

from repro.core import (
    Event,
    GridCostModel,
    TimeInterval,
    USEPInstance,
    User,
)
from repro.datagen import SyntheticConfig, generate_instance


def make_events(specs: Sequence[Tuple]) -> List[Event]:
    """Events from terse tuples ``(location, capacity, start, end)``."""
    return [
        Event(id=i, location=loc, capacity=cap, interval=TimeInterval(t1, t2))
        for i, (loc, cap, t1, t2) in enumerate(specs)
    ]


def make_users(specs: Sequence[Tuple]) -> List[User]:
    """Users from terse tuples ``(location, budget)``."""
    return [User(id=i, location=loc, budget=b) for i, (loc, b) in enumerate(specs)]


def grid_instance(
    event_specs: Sequence[Tuple],
    user_specs: Sequence[Tuple],
    utilities,
    speed: Optional[float] = None,
) -> USEPInstance:
    """Instance on the Manhattan grid from terse specs."""
    return USEPInstance(
        make_events(event_specs),
        make_users(user_specs),
        GridCostModel(speed=speed),
        utilities,
    )


@pytest.fixture
def line_instance() -> USEPInstance:
    """Three sequential events on a line, two users; hand-checkable.

    Layout (x axis): u0 at 0, v0 at 2, v1 at 4, v2 at 6, u1 at 8.
    Times: v0 [0,10], v1 [10,20], v2 [20,30] — no conflicts.
    """
    return grid_instance(
        event_specs=[
            ((2, 0), 1, 0, 10),
            ((4, 0), 1, 10, 20),
            ((6, 0), 2, 20, 30),
        ],
        user_specs=[((0, 0), 100), ((8, 0), 100)],
        utilities=[[0.9, 0.1], [0.8, 0.2], [0.7, 0.3]],
    )


@pytest.fixture
def conflict_instance() -> USEPInstance:
    """Two overlapping events plus one compatible; one user."""
    return grid_instance(
        event_specs=[
            ((1, 0), 1, 0, 10),
            ((2, 0), 1, 5, 15),  # overlaps event 0
            ((3, 0), 1, 20, 30),
        ],
        user_specs=[((0, 0), 100)],
        utilities=[[0.5], [0.6], [0.7]],
    )


@pytest.fixture
def small_synthetic() -> USEPInstance:
    """A small seeded synthetic instance for integration-ish tests."""
    return generate_instance(
        SyntheticConfig(
            num_events=12,
            num_users=30,
            mean_capacity=4,
            grid_size=30,
            seed=11,
        )
    )


@pytest.fixture
def tiny_synthetic() -> USEPInstance:
    """A very small synthetic instance (exact solver friendly)."""
    return generate_instance(
        SyntheticConfig(
            num_events=5,
            num_users=4,
            mean_capacity=2,
            grid_size=12,
            seed=5,
        )
    )


#: Ceiling on the median kept-alive request in the transport tests.  A
#: reply held back by Nagle's algorithm waits for the client's delayed
#: ACK, 40 ms at Linux's floor; without the stall a loopback GET takes
#: about a millisecond.
KEPT_ALIVE_MEDIAN_LIMIT_S = 0.020


def kept_alive_median_s(address, path: str = "/healthz", requests: int = 30) -> float:
    """Median latency of sequential GETs on one kept-alive connection.

    Every reply must be a 200 over the same socket, so a server that
    closes between requests cannot pass for a fast kept-alive one.
    """
    conn = http.client.HTTPConnection(*address[:2], timeout=30)
    latencies = []
    try:
        conn.connect()
        sock = conn.sock
        for _ in range(requests):
            started = time.perf_counter()
            conn.request("GET", path)
            response = conn.getresponse()
            response.read()
            latencies.append(time.perf_counter() - started)
            assert response.status == 200
            assert conn.sock is sock, "kept-alive connection was closed"
    finally:
        conn.close()
    return statistics.median(latencies)


def error_reply_closing(address) -> bytes:
    """The 404 reply that ends a kept-alive connection.

    Pipelines ``GET /healthz`` and ``GET /nope`` on one connection and
    reads to the server's EOF: the 200 must keep the connection open
    for the second request, and the 404 must close it (a server that
    keeps it open makes the read raise ``socket.timeout``).
    """
    received = b""
    with socket.create_connection(address[:2], timeout=10) as sock:
        sock.sendall(
            b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
            b"GET /nope HTTP/1.1\r\nHost: test\r\n\r\n"
        )
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            received += chunk
    assert received.startswith(b"HTTP/1.1 200")
    return received[received.index(b"HTTP/1.1 404"):]
