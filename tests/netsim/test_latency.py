"""Tests for the calibrated latency model (Table 1 anchors)."""

import pytest

from repro.errors import ConfigError
from repro.latency import _KERNEL_MESSAGE_ANCHORS, _interpolate
from repro.netsim import (
    DEFAULT_COST_MODEL,
    HostClass,
    kernel_message_delay_ms,
    load_factor,
)


# Band midpoints and the paper's Table 1 values.
TABLE1 = [
    (HostClass.VAX_780, 0.5, 7.2),
    (HostClass.VAX_780, 1.5, 9.8),
    (HostClass.VAX_780, 2.5, 13.6),
    (HostClass.VAX_750, 0.5, 7.2),
    (HostClass.VAX_750, 1.5, 9.6),
    (HostClass.VAX_750, 2.5, 12.8),
    (HostClass.VAX_750, 3.5, 18.9),
    (HostClass.SUN_2, 0.5, 8.31),
    (HostClass.SUN_2, 1.5, 14.13),
    (HostClass.SUN_2, 2.5, 22.0),
    (HostClass.SUN_2, 3.5, 42.7),
]


@pytest.mark.parametrize("host_class,load,expected", TABLE1)
def test_anchors_reproduce_table1(host_class, load, expected):
    assert kernel_message_delay_ms(host_class, load) == pytest.approx(expected)


def test_delay_monotonic_in_load():
    for host_class in HostClass:
        previous = 0.0
        for load in [0.0, 0.5, 1.0, 1.7, 2.4, 3.0, 3.9, 5.0]:
            current = kernel_message_delay_ms(host_class, load)
            assert current >= previous
            previous = current


def test_sun2_slower_than_vaxes_at_all_loads():
    for load in [0.5, 1.5, 2.5, 3.5]:
        sun = kernel_message_delay_ms(HostClass.SUN_2, load)
        assert sun > kernel_message_delay_ms(HostClass.VAX_780, load)
        assert sun > kernel_message_delay_ms(HostClass.VAX_750, load)


def test_light_load_clamps_to_first_anchor():
    assert kernel_message_delay_ms(HostClass.VAX_780, 0.0) == pytest.approx(7.2)
    assert kernel_message_delay_ms(HostClass.VAX_780, 0.3) == pytest.approx(7.2)


def test_extrapolation_beyond_last_band():
    heavy = kernel_message_delay_ms(HostClass.SUN_2, 5.0)
    assert heavy > 42.7


def test_negative_load_rejected():
    with pytest.raises(ConfigError):
        kernel_message_delay_ms(HostClass.VAX_780, -0.1)


def test_message_size_scales_copy_cost():
    base = kernel_message_delay_ms(HostClass.VAX_780, 0.5, size_bytes=112)
    double = kernel_message_delay_ms(HostClass.VAX_780, 0.5, size_bytes=224)
    half = kernel_message_delay_ms(HostClass.VAX_780, 0.5, size_bytes=56)
    assert half < base < double
    # Only the copy share scales, so doubling size does not double cost.
    assert double < 2 * base


def test_load_factor_normalised_at_light_load():
    for host_class in HostClass:
        assert load_factor(host_class, 0.5) == pytest.approx(1.0)
        assert load_factor(host_class, 0.0) == pytest.approx(1.0)


@pytest.mark.parametrize("host_class", list(HostClass))
@pytest.mark.parametrize("load", [0.0, 0.5, 0.5001, 3.7])
def test_load_factor_equals_the_interpolated_ratio(host_class, load):
    # The light-load short cut must give exactly what the interpolation
    # gives: every class's first anchor sits at la = 0.5.
    anchors = _KERNEL_MESSAGE_ANCHORS[host_class]
    assert anchors[0][0] == 0.5
    expected = _interpolate(anchors, max(load, 0.0)) / anchors[0][1]
    assert load_factor(host_class, load) == expected
    assert (expected == 1.0) == (load <= 0.5)


def test_load_factor_grows_faster_on_sun2():
    # Table 1: the SUN II degrades much faster under load.
    assert load_factor(HostClass.SUN_2, 3.5) > load_factor(
        HostClass.VAX_780, 3.5)


class TestCostModelCalibration:
    """The Table 2 identities the constants were solved from."""

    def test_within_host_stop(self):
        m = DEFAULT_COST_MODEL
        total = 2 * m.tool_ipc_ms + m.signal_ms
        assert total == pytest.approx(30.0)

    def test_within_host_create(self):
        m = DEFAULT_COST_MODEL
        total = 2 * m.tool_ipc_ms + m.fork_ms + m.exec_ms + m.adopt_ms
        assert total == pytest.approx(77.0)

    def test_one_hop_stop(self):
        # Request and reply each cross one overlay hop; the blocking
        # request occupies a (warm) handler.
        m = DEFAULT_COST_MODEL
        total = (2 * m.tool_ipc_ms + m.handler_reuse_ms
                 + 2 * m.sibling_one_way_ms(1) + m.signal_ms)
        assert total == pytest.approx(199.0)

    def test_two_hop_stop(self):
        m = DEFAULT_COST_MODEL
        total = (2 * m.tool_ipc_ms + m.handler_reuse_ms
                 + 2 * m.sibling_one_way_ms(2) + m.signal_ms)
        assert total == pytest.approx(210.0)

    def test_remote_create_matches_section8(self):
        # "Remote process creation, once a connection between sibling
        # managers exist, takes 177 milliseconds under lightly loaded
        # conditions."
        m = DEFAULT_COST_MODEL
        total = (2 * m.tool_ipc_ms + m.handler_reuse_ms
                 + 2 * m.sibling_one_way_ms(1) + m.server_fork_ms)
        assert total == pytest.approx(177.0)

    def test_hops_must_be_positive(self):
        with pytest.raises(ConfigError):
            DEFAULT_COST_MODEL.sibling_one_way_ms(0)

    def test_wire_cost_is_positive(self):
        # wire_ms is the default Ethernet link latency; at zero a
        # message would reach another host in the instant it was sent.
        assert DEFAULT_COST_MODEL.wire_ms > 0.0

    def test_each_extra_hop_adds_wire_plus_forward(self):
        m = DEFAULT_COST_MODEL
        delta = m.sibling_one_way_ms(3) - m.sibling_one_way_ms(2)
        assert delta == pytest.approx(m.wire_ms + m.forward_ms)

    def test_send_recv_factors_scale_endpoint_shares_only(self):
        m = DEFAULT_COST_MODEL
        base = m.sibling_one_way_ms(1)
        heavy = m.sibling_one_way_ms(1, send_factor=2.0, recv_factor=3.0)
        assert heavy - base == pytest.approx(
            m.sibling_send_ms + 2 * m.sibling_recv_ms)

    def test_datagram_auth_charge_is_positive(self):
        # Section 3's trade-off only exists if per-message
        # authentication actually costs something.
        assert DEFAULT_COST_MODEL.datagram_auth_ms > 0.0
