"""The decade-scaling bench's rows and checks, on rings tier-1 can afford."""

from __future__ import annotations

import pytest

from repro.bench.scale import BACKENDS, SERVE_BATCHES, _build, _spot_check, measure_decade


@pytest.mark.parametrize("backend", BACKENDS)
def test_decade_rows_pass_their_checks(backend):
    build, serve = measure_decade(backend, 2000, 256, seed=5)
    assert (build["phase"], serve["phase"]) == ("build", "serve")
    assert build["spot_check_ok"] and serve["oracle_ok"]
    assert build["bytes_per_node"] == build["array_bytes"] / 2000 > 0
    assert serve["batches"] == SERVE_BATCHES
    assert serve["lookups_per_sec"] > 0 and serve["lookups_per_sec_iqr"] >= 0
    assert serve["msgs_per_lookup"] > 0


def test_build_only_rows_skip_the_serve():
    rows = measure_decade("chord", 500, 64, seed=1, serve=False)
    assert [row["phase"] for row in rows] == ["build"]
    assert rows[0]["spot_check_ok"]


def test_chord_check_reads_every_successor():
    # One stale successor anywhere on the ring fails the build row.
    net = _build("chord", 300, seed=2)
    assert _spot_check(net, "chord")
    ids = net.sorted_ids()
    node = net.nodes[ids[150]]
    node.successors = [ids[152], *node.successors[1:]]
    assert not _spot_check(net, "chord")
