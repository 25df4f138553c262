"""Direct tests for the link model."""

import pytest

from repro.netsim.link import Link


def test_endpoints_and_other():
    link = Link("a", "b")
    assert link.endpoints() == frozenset(("a", "b"))
    assert link.other("a") == "b"
    assert link.other("b") == "a"
    with pytest.raises(ValueError):
        link.other("c")


def test_transfer_delay_combines_latency_and_serialisation():
    link = Link("a", "b", latency_ms=10.0, bandwidth_bytes_per_ms=100.0)
    assert link.transfer_delay_ms(0) == pytest.approx(10.0)
    assert link.transfer_delay_ms(500) == pytest.approx(15.0)


def test_usable_requires_up_and_unpartitioned():
    link = Link("a", "b")
    assert link.usable
    link.partitioned = True
    assert not link.usable
    link.partitioned = False
    link.up = False
    assert not link.usable


def test_default_bandwidth_is_ethernet_scale():
    # 10 Mb/s Ethernet moves ~1250 bytes per millisecond.
    link = Link("a", "b")
    delay_per_kb = link.transfer_delay_ms(1250) - link.latency_ms
    assert delay_per_kb == pytest.approx(1.0)
