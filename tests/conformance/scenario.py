"""The shared cross-backend scenario.

One session script — bootstrap, ping, session info, local create,
cross-host create, locate, stop/continue, snapshot, kill, teardown —
run unmodified against any object satisfying the ``PPMClient``
surface.  It returns a *journal* (the ordered tool-stream traffic:
request kind plus the backend-independent parts of each reply) and a
normalized final process-table summary, so the test can assert the
netsim and realnet backends administer the computation identically
even though pids, states, and latencies legitimately differ.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.progspec import sleeper_spec

#: The overlay host names every conformance run uses.
HOSTS = ["alpha", "beta", "gamma"]


def run_scenario(client, hosts: Sequence[str]) -> Tuple[List, List]:
    """Drive one full session; returns ``(journal, table)``.

    The journal records, in order, each request the tool stream
    carried and the reply facts that must not depend on the backend.
    The table maps the created processes to creation-order labels so
    genealogy compares across backends with different pid spaces.
    """
    home, away = hosts[0], hosts[-1]
    journal: List = []

    client.connect()
    journal.append(("connect", True))

    ping = client.ping()
    journal.append(("tool_ping", bool(ping["ok"]), ping["host"]))

    info = client.session_info()
    journal.append(("tool_session_info", bool(info["ok"]),
                    info["host"], info["user"]))

    local = client.create_process("coordinator",
                                  program=sleeper_spec(60_000.0))
    journal.append(("tool_create", "local", local.host == home))

    remote = client.create_process("worker", host=away, parent=local,
                                   program=sleeper_spec(60_000.0))
    journal.append(("tool_create", "remote", remote.host == away))

    located = client.locate(remote)
    journal.append(("tool_locate", bool(located["ok"]),
                    bool(located["found"]), located["host"]))

    journal.append(("tool_control", "stop",
                    bool(client.stop(remote)["ok"])))
    journal.append(("tool_control", "continue",
                    bool(client.cont(remote)["ok"])))

    forest = client.snapshot(prune=False)
    labels = {local: "p0", remote: "p1"}
    table = sorted(
        (labels[gpid], gpid.host,
         labels.get(record.parent) if record.parent is not None
         else None)
        for gpid, record in forest.records.items() if gpid in labels)
    journal.append(("tool_snapshot", True, len(table)))

    for gpid in (remote, local):
        journal.append(("tool_control", "kill",
                        bool(client.kill(gpid)["ok"])))

    client.close()
    journal.append(("close", True))
    return journal, table


def run_two_user_scenario(client_a, client_b,
                          hosts: Sequence[str]) -> List:
    """Two co-located users, each over its own circuits; one journal.

    The interleaving is fixed — connect a, connect b, then each step
    for a before b — so the journal is deterministic on any backend.
    Every fact recorded is backend-independent: reply flags, hosts,
    and the isolation check that neither user's snapshot contains the
    other's process.
    """
    home, away = hosts[0], hosts[-1]
    journal: List = []

    client_a.connect()
    client_b.connect()
    journal.append(("connect", "a", True))
    journal.append(("connect", "b", True))

    for label, client in (("a", client_a), ("b", client_b)):
        ping = client.ping()
        journal.append(("tool_ping", label, bool(ping["ok"]),
                        ping["host"]))

    created = {}
    for label, client in (("a", client_a), ("b", client_b)):
        gpid = client.create_process("worker", host=away,
                                     program=sleeper_spec(60_000.0))
        created[label] = gpid
        journal.append(("tool_create", label, gpid.host == away))

    for label, client in (("a", client_a), ("b", client_b)):
        located = client.locate(created[label])
        journal.append(("tool_locate", label, bool(located["ok"]),
                        bool(located["found"]), located["host"]))

    forest_a = client_a.snapshot(prune=False)
    forest_b = client_b.snapshot(prune=False)
    journal.append(("isolated",
                    created["a"] in forest_a.records
                    and created["b"] not in forest_a.records,
                    created["b"] in forest_b.records
                    and created["a"] not in forest_b.records))

    for label, client in (("a", client_a), ("b", client_b)):
        journal.append(("tool_control", label, "kill",
                        bool(client.kill(created[label])["ok"])))

    client_a.close()
    client_b.close()
    journal.append(("close", True))
    return journal
