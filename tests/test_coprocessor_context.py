"""The base read and the index-op shipping path: routing of index ops,
including the remote base-read fallback used when a region moved away
from the APS's server."""

import pytest

from repro import IndexDescriptor, IndexScheme, MiniCluster
from repro.core.auq import (IndexTask, plan_delete_ops, plan_insert_ops,
                            ship_index_ops, touched_indexes)
from repro.core.coprocessor import base_read
from repro.errors import RpcError


@pytest.fixture
def cluster():
    c = MiniCluster(num_servers=3, seed=32).start()
    c.create_table("t", split_keys=[b"m"])
    c.create_index(IndexDescriptor("ix", "t", ("c",),
                                   scheme=IndexScheme.SYNC_FULL))
    return c


def test_base_read_local_when_region_hosted(cluster):
    client = cluster.new_client()
    cluster.run(client.put("t", b"aa", {"c": b"v"}))
    server, _region = cluster.locate("t", b"aa")
    rpc_before = cluster.network.rpc_count
    result = cluster.run(base_read(
        server, "t", b"aa", ["c"], max_ts=None, background=False))
    assert result["c"][0] == b"v"
    assert cluster.network.rpc_count == rpc_before   # no network hop


def test_base_read_remote_fallback(cluster):
    """Ask a server that does NOT host the row: the read routes an RPC
    to the right server (the post-region-move APS case)."""
    client = cluster.new_client()
    cluster.run(client.put("t", b"aa", {"c": b"v"}))
    owner, _region = cluster.locate("t", b"aa")
    other = next(s for s in cluster.servers.values() if s is not owner)
    rpc_before = cluster.network.rpc_count
    result = cluster.run(base_read(
        other, "t", b"aa", ["c"], max_ts=None, background=False))
    assert result["c"][0] == b"v"
    assert cluster.network.rpc_count == rpc_before + 1


def _ship(server, kind, index, key, ts):
    """Ship one planned index op the way the sync observers do."""
    op = (kind, index.table_name, key, ts, index.created_epoch)
    return ship_index_ops(server.cluster, server, [op], background=False,
                          index_pool=True,
                          site="index_pi" if kind == "put" else "index_di")


def test_index_put_routes_to_owner(cluster):
    index = cluster.index_descriptor("ix")
    some_server = next(iter(cluster.servers.values()))
    key = b"\x04hello\x00\x00row1"
    cluster.run(_ship(some_server, "put", index, key, 123))
    owner, region_name = cluster.locate(index.table_name, key)
    region = owner.regions[region_name]
    assert region.tree.get(key) is not None


def test_index_delete_routes_and_masks(cluster):
    index = cluster.index_descriptor("ix")
    server = next(iter(cluster.servers.values()))
    key = b"\x04hello\x00\x00row1"
    cluster.run(_ship(server, "put", index, key, 10))
    cluster.run(_ship(server, "del", index, key, 10))
    owner, region_name = cluster.locate(index.table_name, key)
    assert owner.regions[region_name].tree.get(key) is None


def test_ship_to_dead_target_raises(cluster):
    """An index region whose server died (and is not yet recovered) makes
    the delivery raise RpcError for the caller's retry/degrade policy."""
    index = cluster.index_descriptor("ix")
    key = b"\x04hello\x00\x00row1"
    owner, _region = cluster.locate(index.table_name, key)
    issuer = next(s for s in cluster.servers.values() if s is not owner)
    cluster.kill_server(owner.name)
    with pytest.raises(RpcError):
        cluster.run(_ship(issuer, "put", index, key, 1))


def test_index_planning_skips_untouched_columns(cluster):
    """A task whose values touch no indexed column plans no op and pays
    no base read."""
    server, _region = cluster.locate("t", b"aa")
    base = cluster.counters.snapshot()
    task = IndexTask("t", b"aa", {"unrelated": b"1"}, ts=100)
    touched = touched_indexes(cluster.descriptor("t"), task)
    assert touched == []
    assert plan_insert_ops(task, touched) == []
    dels = cluster.run(plan_delete_ops(server, task, touched,
                                       background=False))
    assert dels == []
    diff = cluster.counters.since(base)
    assert diff.index_put == 0 and diff.base_read == 0
