"""Identities used across the PPM.

The paper identifies processes in the network by ``<host name, pid>``
(section 6, figure 5).  Broadcast duplicate suppression uses a *signed
timestamp in which the name of the originating host appears* (section 4);
:class:`BroadcastId` models that stamp.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import ReproError
from .perf import PERF

#: The well-known service inetd listens on (both backends).
INETD_SERVICE = "inetd"
#: The sub-service tools and remote LPMs request for PPM bootstrap.
PPM_SERVICE = "ppm"
#: The well-known service the CCS name server listens on.
NAME_SERVICE = "ccsns"


@dataclass(frozen=True, order=True)
class GlobalPid:
    """A network-wide process identity, ``<host name, pid>``."""

    host: str
    pid: int

    def __str__(self) -> str:
        return "<%s,%d>" % (self.host, self.pid)

    @classmethod
    def parse(cls, text: str) -> "GlobalPid":
        """Parse the ``<host,pid>`` rendering back into a :class:`GlobalPid`."""
        stripped = text.strip()
        if not (stripped.startswith("<") and stripped.endswith(">")):
            raise ReproError("not a global pid: %r" % (text,))
        body = stripped[1:-1]
        host, sep, pid_text = body.rpartition(",")
        if not sep or not host:
            raise ReproError("not a global pid: %r" % (text,))
        try:
            pid = int(pid_text)
        except ValueError:
            raise ReproError("not a global pid: %r" % (text,)) from None
        return cls(host=host, pid=pid)


def _sign(origin: str, timestamp_ms: float, seq: int, secret: str) -> str:
    digest = hashlib.sha256(
        ("%s|%.6f|%d|%s" % (origin, timestamp_ms, seq, secret)).encode("utf-8")
    )
    return digest.hexdigest()[:16]


#: Signature-verification memo.  Keyed on every field of the stamp PLUS
#: the claimed signature and the secret, so a forged stamp that shares
#: ``key()`` with a genuine one can never hit a cached True.  Bounded so
#: adversarial traffic cannot grow it without limit.
_VERIFY_CACHE: dict = {}
_VERIFY_CACHE_MAX = 4096


@dataclass(frozen=True)
class BroadcastId:
    """A signed timestamp naming the originating host (section 4).

    LPMs keep recently seen :class:`BroadcastId` values for a configurable
    time window so that old broadcast requests are not retransmitted.  The
    signature lets a receiver check that the stamp was produced by the
    origin's LPM (we model the per-session secret the LPMs share after
    authentication).
    """

    origin: str
    timestamp_ms: float
    seq: int
    signature: str = ""

    @classmethod
    def make(cls, origin: str, timestamp_ms: float, seq: int,
             secret: str) -> "BroadcastId":
        return cls(origin=origin, timestamp_ms=timestamp_ms, seq=seq,
                   signature=_sign(origin, timestamp_ms, seq, secret))

    def verify(self, secret: str) -> bool:
        """Check the signature against the session secret.

        Flooding presents the same stamp to every LPM on every hop;
        results are memoised (see :data:`_VERIFY_CACHE`) so a broadcast
        storm costs one hash per distinct (stamp, secret), not one per
        arrival.
        """
        cache_key = (self.origin, self.timestamp_ms, self.seq,
                     self.signature, secret)
        cached = _VERIFY_CACHE.get(cache_key)
        if cached is not None:
            PERF.hmac_cache_hits += 1
            return cached
        PERF.hmac_computed += 1
        result = self.signature == _sign(self.origin, self.timestamp_ms,
                                         self.seq, secret)
        if len(_VERIFY_CACHE) >= _VERIFY_CACHE_MAX:
            _VERIFY_CACHE.clear()
        _VERIFY_CACHE[cache_key] = result
        return result

    def key(self) -> tuple:
        """The dedup key retained inside the time window."""
        return (self.origin, self.timestamp_ms, self.seq)


@dataclass(frozen=True)
class SessionId:
    """Identity of one PPM session (user plus an origin stamp)."""

    user: str
    origin_host: str
    created_ms: float

    def __str__(self) -> str:
        return "%s@%s/%.0f" % (self.user, self.origin_host, self.created_ms)
