"""In-process tests of the real LPM's sibling conversation: two nodes
(and two pmds) on one fabric, so a request from host ``alpha`` to host
``beta`` crosses real sockets and real processes without a serve
process."""

import sys
import time

import pytest

from repro.core.messages import Message, MsgKind
from repro.realnet.lpm import RealLpm
from repro.realnet.node import RealNode
from repro.realnet.pmd import RealPmd


@pytest.fixture
def beta(fabric):
    node = RealNode(fabric, "beta", fabric.registry)
    node.start()
    yield node
    node.close()


def dial(fabric, host, service, payload):
    """An established endpoint to ``service`` on ``host``."""
    holder = []
    fabric.connect("tester", host, service, payload=payload,
                   on_established=holder.append)
    assert fabric.run_until_true(lambda: bool(holder), timeout_ms=5_000)
    return holder[0]


def test_rstats_from_one_host_reports_an_exit_on_another(fabric, node,
                                                         beta):
    """A short worker created on ``beta`` exits with status 3; ``rstats``
    asked of ``alpha``'s LPM returns its exit record, gathered from
    ``beta``'s LPM over the sibling channel."""
    pmds = [RealPmd(fabric, node), RealPmd(fabric, beta)]
    lpm = pmds[0].get_or_create_lpm("lfc")
    tool = dial(fabric, "alpha", lpm.accept_service, {"role": "tool"})
    replies = {}
    tool.on_message = lambda message, ep: replies.update(
        {message.reply_to: message.payload})

    def call(req_id, kind, payload):
        tool.send(Message(kind=kind, req_id=req_id, origin="tester",
                          user="lfc", payload=payload))
        assert fabric.run_until_true(lambda: req_id in replies,
                                     timeout_ms=10_000)
        return replies[req_id]

    created = call(1, MsgKind.TOOL_CREATE, {
        "host": "beta", "command": "short",
        "program": {"argv": [sys.executable, "-c",
                             "import sys; sys.exit(3)"]}})
    assert created["ok"] and created["host"] == "beta"
    records = []
    for req_id in range(2, 200):
        answer = call(req_id, MsgKind.TOOL_RSTATS, {})
        assert answer["ok"] and answer["missing"] == []
        records = [record for record in answer["records"]
                   if (record["host"], record["pid"])
                   == ("beta", created["pid"])]
        if records:
            break
        time.sleep(0.02)
    assert len(records) == 1
    assert records[0]["state"] == "exited"
    assert records[0]["exit_status"] == 3
    assert records[0]["command"] == "short"
    tool.close()
    for pmd in pmds:
        pmd.shutdown()


def test_a_sibling_that_never_replies_times_out_once(fabric, node, beta):
    """``_request`` to a sibling that accepts and never answers calls
    ``on_reply(None)`` exactly once at its timeout, and forgets it."""
    node.listen("mute", lambda endpoint, payload: None)
    lpm = RealLpm(fabric, beta, "lfc", token="0" * 32)
    lpm._register_sibling("alpha", dial(fabric, "alpha", "mute", None))
    replies = []
    lpm._request("alpha", MsgKind.LOCATE, {"host": "alpha", "pid": 1},
                 replies.append, timeout_ms=20.0)
    assert len(lpm._pending) == 1
    assert fabric.run_until_true(lambda: bool(replies), timeout_ms=5_000)
    assert not fabric.run_until_true(lambda: len(replies) > 1,
                                     timeout_ms=100)
    assert replies == [None]
    assert lpm._pending == {}
    lpm.shutdown()
