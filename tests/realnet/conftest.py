"""Shared fixtures: one fabric dialling its own in-process listener."""

import socket

import pytest

from repro.realnet.fabric import AsyncioFabric
from repro.realnet.node import RealNode
from repro.realnet.registry import HostRegistry


@pytest.fixture
def loopback():
    """Skip the test where loopback TCP sockets cannot be bound."""
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
    except OSError:
        pytest.skip("loopback sockets unavailable")


@pytest.fixture
def fabric(loopback, tmp_path):
    registry = HostRegistry(str(tmp_path / "reg.json"))
    fabric = AsyncioFabric(registry, local_host="alpha")
    yield fabric
    fabric.close()


@pytest.fixture
def node(fabric):
    node = RealNode(fabric, "alpha", fabric.registry)
    node.start()
    yield node
    node.close()
