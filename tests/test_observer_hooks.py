"""The coprocessor extension points themselves: custom observers get both
hooks — ``post_batch`` for every write (a single put or delete is a
batch of one) and ``pre_flush`` — as §7 describes the plug-in
framework."""

import pytest

from repro import MiniCluster
from repro.core.coprocessor import RegionObserver


class RecordingObserver(RegionObserver):
    def __init__(self):
        self.puts = []
        self.deletes = []
        self.pre_flushes = []

    def post_batch(self, server, table, rows, span):
        for kind, row, values, ts in rows:
            if kind == "put":
                self.puts.append((row, dict(values), ts))
            else:
                self.deletes.append((row, ts))
        return
        yield  # pragma: no cover

    def pre_flush(self, server, region_name):
        self.pre_flushes.append(region_name)
        return
        yield  # pragma: no cover


@pytest.fixture
def wired():
    cluster = MiniCluster(num_servers=1, seed=36).start()
    cluster.create_table("t", flush_threshold_bytes=512)
    observer = RecordingObserver()
    # Install the custom coprocessor alongside (before) the built-ins.
    cluster._observer_cache["t"] = (observer,)
    return cluster, observer


def test_post_put_hook_fires(wired):
    cluster, observer = wired
    client = cluster.new_client()
    ts = cluster.run(client.put("t", b"r1", {"a": b"1"}))
    assert observer.puts == [(b"r1", {"a": b"1"}, ts)]


def test_post_delete_hook_fires(wired):
    cluster, observer = wired
    client = cluster.new_client()
    cluster.run(client.put("t", b"r1", {"a": b"1"}))
    ts = cluster.run(client.delete("t", b"r1", columns=["a"]))
    assert observer.deletes == [(b"r1", ts)]


def test_pre_flush_hook_fires(wired):
    cluster, observer = wired
    client = cluster.new_client()
    for i in range(30):
        cluster.run(client.put("t", f"r{i:02d}".encode(), {"a": b"x" * 40}))
    cluster.advance(500.0)   # maintenance loop flushes
    assert observer.pre_flushes, "pre_flush must run before a flush"


def test_default_hooks_are_noops():
    """The base class hooks are generator-coroutines that do nothing —
    subclasses override only what they need."""
    cluster = MiniCluster(num_servers=1, seed=37).start()
    cluster.create_table("t")
    observer = RegionObserver()
    cluster._observer_cache["t"] = (observer,)
    client = cluster.new_client()
    cluster.run(client.put("t", b"r", {"a": b"1"}))   # must not blow up
    assert cluster.run(client.get("t", b"r"))["a"][0] == b"1"
