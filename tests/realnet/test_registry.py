"""Host-registry tests: atomic publication of ephemeral addresses."""

import fcntl
import json
import os
import subprocess
import sys

import pytest

from repro.errors import RegistryError
from repro.realnet.registry import HostRegistry


def test_publish_lookup_withdraw(tmp_path):
    registry = HostRegistry(str(tmp_path / "reg.json"))
    registry.publish("alpha", "127.0.0.1", 4242)
    assert registry.lookup("alpha") == ("127.0.0.1", 4242)
    assert registry.lookup("beta") is None
    registry.withdraw("alpha")
    assert registry.lookup("alpha") is None


def test_publish_merges_across_writers(tmp_path):
    """Two registries on the same file (two serve processes) must not
    clobber each other's entries."""
    path = str(tmp_path / "reg.json")
    HostRegistry(path).publish("alpha", "127.0.0.1", 1000)
    HostRegistry(path).publish("beta", "127.0.0.1", 2000)
    merged = HostRegistry(path).read()
    assert merged == {"alpha": ("127.0.0.1", 1000),
                      "beta": ("127.0.0.1", 2000)}


def test_missing_file_reads_empty(tmp_path):
    registry = HostRegistry(str(tmp_path / "absent.json"))
    assert registry.read() == {}


@pytest.mark.parametrize("garbage", [
    "{half a json doc", "[1, 2]", '{"alpha": 7}', '{"alpha": ["a"]}',
    b"\xff\xfe"])
def test_corrupt_registry_raises_and_is_left_alone(tmp_path, garbage):
    """A registry that does not parse is an error, not an empty fleet:
    publishing over it would drop every other host's entry."""
    path = tmp_path / "reg.json"
    if isinstance(garbage, bytes):
        path.write_bytes(garbage)
    else:
        path.write_text(garbage)
    before = path.read_bytes()
    registry = HostRegistry(str(path))
    for update in (lambda: registry.publish("beta", "127.0.0.1", 1),
                   lambda: registry.withdraw("alpha"),
                   lambda: registry.prune(["alpha"]),
                   lambda: registry.wait_for(["alpha"], timeout_s=5.0),
                   registry.read):
        with pytest.raises(RegistryError, match=str(path)):
            update()
        assert path.read_bytes() == before


def test_prune_removes_the_published_names_and_releases_the_lock(tmp_path):
    path = str(tmp_path / "reg.json")
    registry = HostRegistry(path)
    for port, host in enumerate(("alpha", "beta", "gamma")):
        registry.publish(host, "127.0.0.1", 6000 + port)
    assert registry.prune(["alpha", "ghost", "gamma"]) == ["alpha", "gamma"]
    assert registry.read() == {"beta": ("127.0.0.1", 6001)}
    # A non-blocking probe takes the lock at once, so the prune let go
    # of it and the next publish cannot block.
    with open(path + ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        fcntl.flock(lock, fcntl.LOCK_UN)
    registry.publish("delta", "127.0.0.1", 6003)
    assert sorted(registry.read()) == ["beta", "delta"]


def test_write_is_atomic_replace(tmp_path):
    """Publishing leaves no temp droppings and the file is always a
    complete JSON document."""
    path = tmp_path / "reg.json"
    registry = HostRegistry(str(path))
    for port in range(20):
        registry.publish("alpha", "127.0.0.1", 5000 + port)
        json.loads(path.read_text())  # never torn
    assert [name for name in os.listdir(str(tmp_path))
            if name.startswith(".registry-")] == []


def test_simultaneous_publishers_lose_no_entries(tmp_path):
    """The lost-update regression: N processes publishing at once must
    all survive — read-merge-write without the flock drops entries when
    every writer starts from the empty file."""
    path = str(tmp_path / "reg.json")
    code = ("import sys; from repro.realnet.registry import "
            "HostRegistry; HostRegistry(sys.argv[1]).publish("
            "sys.argv[2], '127.0.0.1', int(sys.argv[3]))")
    hosts = ["h%d" % i for i in range(8)]
    workers = [subprocess.Popen(
        [sys.executable, "-c", code, path, host, str(7000 + i)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        for i, host in enumerate(hosts)]
    for worker in workers:
        assert worker.wait(timeout=30) == 0
    merged = HostRegistry(path).read()
    assert sorted(merged) == hosts


def test_remove_files_cleans_lock(tmp_path):
    path = str(tmp_path / "reg.json")
    registry = HostRegistry(path)
    registry.publish("alpha", "127.0.0.1", 1)
    assert os.path.exists(path) and os.path.exists(path + ".lock")
    registry.remove_files()
    assert not os.path.exists(path)
    assert not os.path.exists(path + ".lock")


def test_wait_for_times_out(tmp_path):
    registry = HostRegistry(str(tmp_path / "reg.json"))
    registry.publish("alpha", "127.0.0.1", 1)
    assert registry.wait_for(["alpha"], timeout_s=0.2)
    assert not registry.wait_for(["alpha", "ghost"], timeout_s=0.2,
                                 poll_s=0.01)
