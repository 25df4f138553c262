"""Tests for the snapshot data model (trees, forests, exit retention)."""

from repro.core.snapshot import ProcessRecord, SnapshotForest
from repro.ids import GlobalPid


def record(host, pid, parent=None, state="running", command="job",
           **kwargs):
    parent_gpid = GlobalPid(*parent) if parent else None
    return ProcessRecord(gpid=GlobalPid(host, pid), parent=parent_gpid,
                         user="lfc", command=command, state=state,
                         start_ms=0.0, **kwargs)


def test_record_dict_roundtrip():
    original = record("alpha", 5, parent=("beta", 2), state="stopped",
                      end_ms=9.0, exit_status=1,
                      rusage={"utime_ms": 3.5})
    copy = ProcessRecord.from_dict(original.to_dict())
    assert copy == original


def test_single_tree():
    forest = SnapshotForest(0.0, records=[
        record("alpha", 1),
        record("alpha", 2, parent=("alpha", 1)),
        record("beta", 7, parent=("alpha", 1)),
    ])
    assert forest.roots() == [GlobalPid("alpha", 1)]
    assert not forest.is_forest()
    assert forest.children(GlobalPid("alpha", 1)) == [
        GlobalPid("alpha", 2), GlobalPid("beta", 7)]
    assert forest.descendants(GlobalPid("alpha", 1)) == [
        GlobalPid("alpha", 2), GlobalPid("beta", 7)]


def test_forest_when_parent_unknown():
    # A missing LPM's records vanish: "the snapshot of the genealogical
    # process structure may now become a forest" (section 5).
    forest = SnapshotForest(0.0, records=[
        record("alpha", 1),
        record("beta", 7, parent=("gamma", 3)),  # gamma's LPM is gone
    ], missing_hosts={"gamma"})
    assert forest.is_forest()
    assert len(forest.roots()) == 2
    assert forest.missing_hosts == {"gamma"}


def test_subtree_hosts():
    forest = SnapshotForest(0.0, records=[
        record("alpha", 1),
        record("beta", 2, parent=("alpha", 1)),
        record("gamma", 3, parent=("beta", 2)),
        record("alpha", 9),  # unrelated root
    ])
    assert forest.subtree_hosts(GlobalPid("alpha", 1)) == {
        "alpha", "beta", "gamma"}


def test_prune_drops_exited_leaves_keeps_exited_interior():
    # "We chose to retain exit information while there are children
    # alive ... we mark the process as exited." (section 2)
    forest = SnapshotForest(0.0, records=[
        record("alpha", 1, state="exited"),          # interior: kept
        record("alpha", 2, parent=("alpha", 1)),      # alive child
        record("alpha", 3, parent=("alpha", 1), state="exited"),  # leaf
        record("beta", 4, state="exited"),            # exited root, alone
    ])
    pruned = forest.prune_exited_leaves()
    assert GlobalPid("alpha", 1) in pruned
    assert GlobalPid("alpha", 2) in pruned
    assert GlobalPid("alpha", 3) not in pruned
    assert GlobalPid("beta", 4) not in pruned


def test_prune_transitive_chain_of_exited():
    forest = SnapshotForest(0.0, records=[
        record("alpha", 1, state="exited"),
        record("alpha", 2, parent=("alpha", 1), state="exited"),
        record("alpha", 3, parent=("alpha", 2), state="exited"),
    ])
    pruned = forest.prune_exited_leaves()
    assert len(pruned) == 0


def test_prune_keeps_deep_live_descendant():
    forest = SnapshotForest(0.0, records=[
        record("alpha", 1, state="exited"),
        record("alpha", 2, parent=("alpha", 1), state="exited"),
        record("beta", 3, parent=("alpha", 2)),  # alive grandchild
    ])
    pruned = forest.prune_exited_leaves()
    assert len(pruned) == 3


def test_by_host_and_alive():
    forest = SnapshotForest(0.0, records=[
        record("alpha", 1),
        record("alpha", 2, state="exited"),
        record("beta", 1),
    ])
    assert [r.gpid.pid for r in forest.by_host("alpha")] == [1, 2]
    assert sum(not r.exited for r in forest.records.values()) == 2
    assert forest.hosts() == {"alpha", "beta"}


def test_roots_sorted_deterministically():
    forest = SnapshotForest(0.0, records=[
        record("zeta", 5), record("alpha", 9), record("alpha", 2)])
    assert forest.roots() == [GlobalPid("alpha", 2), GlobalPid("alpha", 9),
                              GlobalPid("zeta", 5)]


def test_add_invalidates_child_index():
    forest = SnapshotForest(0.0, records=[record("alpha", 1)])
    assert forest.children(GlobalPid("alpha", 1)) == []
    forest.add(record("alpha", 2, parent=("alpha", 1)))
    assert forest.children(GlobalPid("alpha", 1)) == [GlobalPid("alpha", 2)]
