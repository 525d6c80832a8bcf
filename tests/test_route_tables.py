"""Route tables (simulation.fabric) against the object-level router.

The fabric builds every segment's channel ids by digit arithmetic; the
oracle is :func:`repro.cluster.pathing.build_path` (Up*/Down* on
explicit addresses), mapped to dense ids through ``fabric.channel_index``.
Small systems are checked on every ordered pair; the paper systems on
every intra pair, every ascent/descent leg and every ICN2 cluster pair.
"""

import numpy as np
import pytest

from repro.cluster import HeterogeneousSystem, homogeneous_system
from repro.cluster.pathing import build_path, inter_path, intra_path
from repro.core import MessageSpec, ModelOptions
from repro.scenarios.registry import get_scenario
from repro.simulation import ResolvedFabric, SimulationSession
from repro.simulation.metrics import MeasurementWindow
from repro.simulation.rng import make_streams


def fabric_for(config, message=MessageSpec(16, 256.0)):
    return ResolvedFabric(HeterogeneousSystem(config), message, ModelOptions())


def table_segment(fabric, sid):
    lo, hi = fabric.seg_off[sid], fabric.seg_off[sid + 1]
    return tuple(fabric.seg_cids[lo:hi].tolist())


def oracle_segments(fabric, path):
    return [tuple(fabric.channel_index[ch] for ch in seg.channels) for seg in path.segments]


def table_segments(fabric, source, destination):
    return [table_segment(fabric, sid) for sid in fabric.segment_ids(source, destination)]


@pytest.mark.parametrize(
    "config",
    [
        get_scenario("het8-extreme").system,
        get_scenario("het8-uniform").system,
        homogeneous_system(switch_ports=4, tree_depth=3, num_clusters=1),
    ],
    ids=["het8-extreme", "het8-uniform", "single-cluster"],
)
def test_every_ordered_pair_matches_build_path(config):
    fabric = fabric_for(config)
    system = fabric.system
    for source in system.global_ids():
        for destination in system.global_ids():
            if source != destination:
                expected = oracle_segments(fabric, build_path(system, source, destination))
                assert table_segments(fabric, source, destination) == expected, (source, destination)


def test_single_cluster_has_no_inter_segments():
    fabric = fabric_for(homogeneous_system(switch_ports=4, tree_depth=3, num_clusters=1))
    n = fabric.system.total_nodes
    assert fabric.seg_off.size - 1 == n * (n - 1)
    assert fabric.channels_per_group()["icn2"] == 0


@pytest.mark.parametrize("scenario", ["544", "1120"])
class TestPaperSystems:
    def test_every_intra_pair(self, scenario):
        fabric = fabric_for(get_scenario(scenario).system)
        system = fabric.system
        for cluster in system.clusters:
            nodes = range(cluster.first_global_id, cluster.first_global_id + cluster.num_nodes)
            for source in nodes:
                for destination in nodes:
                    if source != destination:
                        expected = oracle_segments(fabric, intra_path(system, source, destination))
                        assert table_segments(fabric, source, destination) == expected

    def test_every_ascent_and_descent_leg(self, scenario):
        fabric = fabric_for(get_scenario(scenario).system)
        system = fabric.system
        for node in system.global_ids():
            # Any node of another cluster exercises both legs of *node*.
            other = 0 if system.cluster_of(node).index else system.total_nodes - 1
            out = oracle_segments(fabric, inter_path(system, node, other))
            back = oracle_segments(fabric, inter_path(system, other, node))
            assert table_segments(fabric, node, other)[0] == out[0]
            assert table_segments(fabric, other, node)[2] == back[2]

    def test_every_icn2_cluster_pair(self, scenario):
        fabric = fabric_for(get_scenario(scenario).system)
        system = fabric.system
        firsts = [c.first_global_id for c in system.clusters]
        for i, source in enumerate(firsts):
            for j, destination in enumerate(firsts):
                if i != j:
                    expected = oracle_segments(fabric, inter_path(system, source, destination))
                    assert table_segments(fabric, source, destination)[1] == expected[1]


def test_vector_paths_match_scalar_segment_ids():
    fabric = fabric_for(get_scenario("544").system)
    rng = make_streams(3).destinations
    n = fabric.system.total_nodes
    source = rng.integers(0, n, size=2000).astype(np.int32)
    destination = (source + rng.integers(1, n, size=2000)) % n
    p_off, p_segs = fabric.path_segments(source, destination)
    for i, (s, d) in enumerate(zip(source.tolist(), destination.tolist())):
        assert tuple(p_segs[p_off[i] : p_off[i + 1]].tolist()) == fabric.segment_ids(s, d)


def test_segment_tables_fold_release_arithmetic():
    fabric = fabric_for(get_scenario("het8-extreme").system)
    m = fabric.message.length_flits
    tables = fabric.segment_tables(ideal_sinks=True, cd_mode="paper")
    flags = fabric.uncontended_flags(ideal_sinks=True, cd_mode="paper")
    for sid in range(0, fabric.seg_off.size - 1, 7):
        cids, drain, last, rel_items = tables.record(sid)
        tau = max(float(fabric.flit_time[c]) for c in cids)
        assert cids == table_segment(fabric, sid)
        assert drain == (m - 1) * tau
        assert last == len(cids) - 1
        assert rel_items == tuple(
            (k, c, m * float(fabric.flit_time[c]), (last - k) * tau)
            for k, c in enumerate(cids)
            if not flags[c]
        )
        assert tables.record(sid) is tables.record(sid)


@pytest.mark.parametrize("engine", ["array", "reference"])
def test_runs_make_no_per_pair_resolve_calls(engine, monkeypatch):
    """Simulator runs index the route tables; ``resolve`` is never called."""
    calls = []
    original = ResolvedFabric.resolve

    def counting(self, source, destination):
        calls.append((source, destination))
        return original(self, source, destination)

    monkeypatch.setattr(ResolvedFabric, "resolve", counting)
    spec = get_scenario("544")
    session = SimulationSession(spec.system, spec.message)
    result = session.run(3e-4, seed=1, window=MeasurementWindow(100, 600, 100), engine=engine)
    assert result.events > 0
    assert calls == []
