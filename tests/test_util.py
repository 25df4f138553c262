"""Tests for shared utilities (Deferred, table formatting) and ids."""

import pytest

from repro.errors import ReproError
from repro.ids import BroadcastId, GlobalPid, SessionId
from repro.util import Deferred, format_table


class TestDeferred:
    def test_resolve_then_then(self):
        deferred = Deferred()
        assert not deferred.resolved
        assert deferred.resolve(42)
        values = []
        deferred.then(values.append)
        assert values == [42]
        assert deferred.value == 42

    def test_then_before_resolve(self):
        deferred = Deferred()
        values = []
        deferred.then(values.append)
        deferred.then(values.append)
        deferred.resolve("x")
        assert values == ["x", "x"]

    def test_first_resolution_wins(self):
        deferred = Deferred()
        assert deferred.resolve(1)
        assert not deferred.resolve(2)
        assert deferred.value == 1

    def test_chaining_returns_self(self):
        deferred = Deferred()
        assert deferred.then(lambda value: None) is deferred


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(["name", "n"], [["alpha", 1], ["b", 22]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("name")
        assert "-----" in lines[2]
        assert len(lines) == 5

    def test_no_title(self):
        text = format_table(["x"], [["1"]])
        assert text.splitlines()[0] == "x"


class TestIds:
    def test_global_pid_ordering_and_str(self):
        a = GlobalPid("alpha", 2)
        b = GlobalPid("alpha", 10)
        assert a < b
        assert str(a) == "<alpha,2>"

    def test_parse_errors(self):
        with pytest.raises(ReproError):
            GlobalPid.parse("alpha,2")
        with pytest.raises(ReproError):
            GlobalPid.parse("<alpha>")
        with pytest.raises(ReproError):
            GlobalPid.parse("<alpha,xyz>")
        with pytest.raises(ReproError):
            GlobalPid.parse("<,5>")

    def test_parse_host_with_comma(self):
        gpid = GlobalPid("odd,name", 3)
        assert GlobalPid.parse(str(gpid)) == gpid

    def test_broadcast_id_keys_distinct(self):
        a = BroadcastId.make("h", 1.0, 1, "s")
        b = BroadcastId.make("h", 1.0, 2, "s")
        assert a.key() != b.key()

    def test_session_id_str(self):
        session = SessionId("lfc", "ucbvax", 1234.0)
        assert "lfc@ucbvax" in str(session)


class TestConfig:
    def test_invalid_values_rejected(self):
        from repro import PPMConfig
        from repro.errors import ConfigError
        for kwargs in ({"lpm_time_to_live_ms": 0},
                       {"time_to_die_ms": -1},
                       {"broadcast_dedup_window_ms": -5},
                       {"handler_pool_max": 0},
                       {"topology_policy": "ring"},
                       {"topology_policy": "sparse"},
                       {"request_timeout_ms": 0},
                       {"ccs_probe_interval_ms": 0},
                       {"recovery_retry_interval_ms": 0}):
            with pytest.raises(ConfigError):
                PPMConfig(**kwargs)

    def test_transport_is_not_a_knob(self):
        # Sibling LPMs talk only over section 3's stream circuits; the
        # datagram alternative is an ablation, not a configuration.
        from repro import PPMConfig
        with pytest.raises(TypeError):
            PPMConfig(transport="stream")

    def test_with_overrides(self):
        from dataclasses import asdict, replace

        from repro import DEFAULT_CONFIG, ConfigError, PPMConfig
        before = asdict(DEFAULT_CONFIG)
        config = replace(DEFAULT_CONFIG, handler_pool_max=3)
        assert config.handler_pool_max == 3
        assert config is not DEFAULT_CONFIG
        assert asdict(DEFAULT_CONFIG) == before
        assert DEFAULT_CONFIG == PPMConfig()
        assert config.lpm_time_to_live_ms == \
            DEFAULT_CONFIG.lpm_time_to_live_ms
        # A frozen dataclass's replace re-runs __post_init__'s checks.
        with pytest.raises(ConfigError):
            replace(DEFAULT_CONFIG, topology_policy="ring")
