"""Who sizes a message: only what crosses a link between hosts.

A tool talks to its LPM over a host-local stream, a zero-link path
whose cost is IPC time, so neither backend sizes a tool message.  The
sibling transport sizes each message it puts on an inter-host circuit,
and every send encodes the message exactly once.
"""

import importlib.util
import os
import socket

import pytest

from repro import PersonalProcessManager, spinner_spec
from repro.core.messages import Message, MsgKind
from repro.perf import PERF

from .conftest import build_world

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _loopback_available() -> bool:
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
    except OSError:
        return False
    return True


def test_netsim_tool_call_is_unsized_and_sibling_send_sized_once():
    world = build_world()
    manager = PersonalProcessManager(world, "lfc", "alpha",
                                     recovery_hosts=["alpha"]).start()
    manager.create_process("job", host="beta", program=spinner_spec(None))
    base = PERF.snapshot()
    assert manager.client.ping()["ok"]
    assert PERF.delta_since(base)["size_calls"] == 0

    lpm = world.lpms[("alpha", "lfc")]
    link = lpm.transport.links["beta"]
    message = Message(kind=MsgKind.RSTATS, req_id=99, origin="alpha",
                      user="lfc", route=["alpha", "beta"],
                      final_dest="beta")
    base = PERF.snapshot()
    lpm.transport.send_on_link(link, message)
    delta = PERF.delta_since(base)
    assert delta["size_calls"] == 1
    assert delta["encodes_performed"] == 1


@pytest.mark.skipif(not _loopback_available(),
                    reason="loopback sockets unavailable")
def test_realnet_ping_encodes_once_and_sizes_nothing():
    from repro.realnet.session import RealSession, launch_hosts

    with launch_hosts(["alpha"], budget_s=60.0) as fleet:
        with RealSession(fleet.registry_path, "lfc", "alpha") as session:
            assert session.client.ping()["ok"]  # connects first
            base = PERF.snapshot()
            assert session.client.ping()["ok"]
            delta = PERF.delta_since(base)
    assert delta["size_calls"] == 0
    assert delta["encodes_performed"] == 1


def test_only_sibling_senders_size_messages():
    spec = importlib.util.spec_from_file_location(
        "check_layering",
        os.path.join(REPO_ROOT, "tools", "check_layering.py"))
    lint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lint)
    assert lint.check() == []
    source = '''
def reply(endpoint, message):
    """Never calls message_size_bytes(message)."""
    endpoint.send(message, nbytes=message_size_bytes(message))
    wire.message_size_bytes(message)
    size = message_size_bytes
    return encode(message)
'''
    assert lint.size_calls(source) == [4, 5]
