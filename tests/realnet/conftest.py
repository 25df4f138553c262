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
    """A fabric whose loop records every exception it would only have
    logged (a callback that raised, a task that died with nobody
    awaiting it); the test fails at teardown if there was one.  A test
    that provokes one on purpose installs its own handler."""
    registry = HostRegistry(str(tmp_path / "reg.json"))
    fabric = AsyncioFabric(registry, local_host="alpha")
    unhandled = []
    fabric.loop.set_exception_handler(
        lambda loop, context: unhandled.append(context))
    yield fabric
    fabric.close()
    if unhandled:
        pytest.fail("the event loop had unhandled exceptions: %s" % (
            "; ".join("%s (%r)" % (context.get("message"),
                                   context.get("exception"))
                      for context in unhandled),))


@pytest.fixture
def node(fabric):
    node = RealNode(fabric, "alpha", fabric.registry)
    node.start()
    yield node
    node.close()
