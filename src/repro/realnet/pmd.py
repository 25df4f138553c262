"""The real pmd: per-host manager-of-managers over real TCP.

Plays the roles the simulator splits between ``inetd`` and ``pmd``
(Figure 2): it listens on the well-known ``inetd`` service, and a
bootstrap request for the ``ppm`` service gets (or creates) the
requesting user's :class:`~repro.realnet.lpm.RealLpm` on this host and
returns the LPM's private accept service plus the introduction token
that authenticates sibling channels to it.
"""

from __future__ import annotations

from typing import Dict

import os

from ..ids import INETD_SERVICE, PPM_SERVICE
from .lpm import RealLpm


class RealPmd:
    """One per serve process; owns every user's LPM on this host."""

    def __init__(self, fabric, node) -> None:
        self.fabric = fabric
        self.node = node
        #: user -> that user's RealLpm on this host.
        self.lpms: Dict[str, RealLpm] = {}
        self.requests_served = 0
        node.listen(INETD_SERVICE, self._on_bootstrap)

    def get_or_create_lpm(self, user: str) -> RealLpm:
        lpm = self.lpms.get(user)
        if lpm is None or not lpm.running:
            lpm = RealLpm(self.fabric, self.node, user,
                          token=os.urandom(16).hex())
            self.lpms[user] = lpm
        return lpm

    def _on_bootstrap(self, endpoint, payload) -> None:
        self.requests_served += 1
        if not isinstance(payload, dict) or "service" not in payload:
            self._reply(endpoint, {"ok": False, "error": "bad request"})
            return
        if payload["service"] != PPM_SERVICE:
            self._reply(endpoint, {
                "ok": False,
                "error": "unknown service %r" % (payload["service"],)})
            return
        user = payload.get("user", "")
        created = user not in self.lpms or not self.lpms[user].running
        lpm = self.get_or_create_lpm(user)
        self._reply(endpoint, {
            "ok": True,
            "created": created,
            "user": user,
            "lpm_host": lpm.name,
            "accept_service": lpm.accept_service,
            "token": lpm.token,
        })

    def _reply(self, endpoint, reply: dict) -> None:
        if endpoint.open:
            endpoint.send(reply, nbytes=160)

    def shutdown(self) -> None:
        """Tear down every LPM (and its managed processes)."""
        self.node.unlisten(INETD_SERVICE)
        for lpm in list(self.lpms.values()):
            lpm.shutdown()
        self.lpms.clear()
