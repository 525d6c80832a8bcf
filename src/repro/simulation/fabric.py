"""Resolved fabric: integer channel ids, flit times and route tables.

The simulators work on dense integer channel ids instead of structured
:class:`~repro.cluster.channels.SystemChannel` objects.  A
:class:`ResolvedFabric` binds a :class:`~repro.cluster.system.
HeterogeneousSystem` to one :class:`~repro.core.parameters.MessageSpec`,
assigning every directed channel its per-flit service time (``t_cn`` /
``t_cs`` of the owning network — the same primitives the analytical model
uses) and a reporting group:

``icn1`` / ``ecn1`` / ``icn2``
    ordinary channels of each network;
``cd-concentrate``
    the concentrator→ICN2 injection channel (the Eq. 37 concentrate buffer
    server);
``cd-dispatch``
    the dispatcher→ECN1 injection channel (the dispatch buffer server).

Route tables
------------
Deterministic Up*/Down* routing on an m-port n-tree is digit arithmetic
on node indices (``q = m/2``, ``N = 2 q^n`` nodes): the route ``a → b``
climbs to level ``h``, the smallest ``k`` with ``a // q^k == b // q^k``
(``n`` if none), taking up-port ``b_k`` (the destination's digit ``k``)
at level ``k``.  In the tree's channel enumeration the link between
levels ``k`` and ``k+1`` on that route has local id ``2Nk + 2w`` (up) or
``2Nk + 2w + 1`` (down), where ``w`` encodes the level-``k`` switch and
port (:func:`_lane`).  The fabric builds every route once, as numpy
arrays, and gives each wormhole segment a dense id:

* intra segments — one template per tree shape ``(m, n)`` over all
  ordered local pairs, shifted by each cluster's ICN1 channel base;
* per node, the ECN1 ascent and descent legs, each including the
  concentrator attachment channel of the node's home root;
* per ordered cluster pair, the ICN2 leg (the ICN2 tree's own template).

A journey is one intra segment, or the ascent/ICN2/descent triple
(:meth:`ResolvedFabric.segment_ids`, :meth:`ResolvedFabric.path_segments`).
:meth:`ResolvedFabric.segment_tables` folds one run configuration's
arithmetic (``M·τ_k`` holds, ``(M−1)·τ*`` drains and contended-channel
release offsets) into the flat arrays the compiled event core reads;
:meth:`~ResolvedFabric.resolve` and :meth:`~ResolvedFabric.hot_resolver`
compose per-segment records memoised by segment id.  The object-level
router (:mod:`repro.cluster.pathing`) is the reference these tables are
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import require
from repro.cluster.channels import Concentrator, SystemChannel
from repro.cluster.system import HeterogeneousSystem
from repro.core.parameters import MessageSpec, ModelOptions, NetworkCharacteristics
from repro.core.service_times import ServiceTimes
from repro.topology.addressing import NodeAddress
from repro.topology.mport_ntree import ChannelKind

__all__ = ["ResolvedSegment", "ResolvedFabric", "SegmentTables", "GROUPS"]

GROUPS: tuple[str, ...] = ("icn1", "ecn1", "icn2", "cd-concentrate", "cd-dispatch")


@dataclass(frozen=True)
class ResolvedSegment:
    """One wormhole leg as the simulators consume it."""

    channel_ids: tuple[int, ...]
    bottleneck_flit_time: float


def _lane(n_nodes: int, q: int, k: int, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Local id of the up channel from level *k* to *k + 1*.

    The level-``k`` switch serves subtree prefix ``hi // q^k`` in column
    ``lo mod q^(k-1)`` and climbs through up-port ``lo``'s digit ``k``;
    its ``2q`` channels sit at ``2Nk + 2q·switch + 2·port`` (+1 for the
    matching down channel).
    """
    below = q ** (k - 1)
    return 2 * n_nodes * k + 2 * ((hi // (below * q)) * (below * q) + (lo % below) * q + (lo // below) % q)


def _tree_routes(switch_ports: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """``(lengths, local channel ids)`` of every ordered-pair route of one tree.

    Pairs run row-major over ``(source, destination)`` with the diagonal
    skipped, so pair ``(s, d)`` is row ``s·(N−1) + d − (d > s)``.
    """
    q = switch_ports // 2
    n_nodes = 2 * q**depth
    src, dst = np.nonzero(~np.eye(n_nodes, dtype=bool))
    h = np.full(src.size, depth)
    for k in range(depth - 1, 0, -1):
        h[src // q**k == dst // q**k] = k
    table = np.full((src.size, 2 * depth), -1, dtype=np.int64)
    rows = np.arange(src.size)
    table[:, 0] = 2 * src
    table[rows, 2 * h - 1] = 2 * dst + 1
    for k in range(1, depth):
        r = rows[h > k]
        table[r, k] = _lane(n_nodes, q, k, src[r], dst[r])
        table[r, 2 * h[r] - 1 - k] = _lane(n_nodes, q, k, dst[r], dst[r]) + 1
    return 2 * h, table[table >= 0]


def _tree_legs(switch_ports: int, depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per node: local ascent to / descent from its home root, and that root.

    The home root's column is the node's lower ``n − 1`` digits, so the
    climb takes up-port ``a_k`` at every level (see
    :func:`repro.topology.routing.home_root`).
    """
    q = switch_ports // 2
    n_nodes = 2 * q**depth
    v = np.arange(n_nodes)
    up = [2 * v] + [_lane(n_nodes, q, k, v, v) for k in range(1, depth)]
    down = [_lane(n_nodes, q, k, v, v) + 1 for k in range(depth - 1, 0, -1)] + [2 * v + 1]
    return np.stack(up, axis=1), np.stack(down, axis=1), v % q ** (depth - 1)


class SegmentTables:
    """Flat per-segment arrays for one ``(ideal_sinks, cd_mode)`` run config.

    ``s_*`` index channel ``k`` of segment ``sid`` at ``s_cid_off[sid] + k``
    (``s_hold = M·τ_k``; ``s_drain[sid] = (M−1)·τ*``); ``r_*`` list the
    segment's *contended* channels only, from ``s_rel_off[sid]``, with the
    release offset ``r_off = (last − k)·τ*`` folded in.
    """

    def __init__(self, fabric: "ResolvedFabric", uncontended: list[bool]) -> None:
        m = fabric.message.length_flits
        off, cids, tau = fabric.seg_off, fabric.seg_cids, fabric.seg_tau
        lengths = np.diff(off)
        starts = np.repeat(off[:-1], lengths)
        pos = np.arange(cids.size) - starts
        rel_off = (np.repeat(lengths, lengths) - 1 - pos) * np.repeat(tau, lengths)
        self.uncontended = np.asarray(uncontended, dtype=np.int8)
        keep = self.uncontended[cids] == 0
        self.s_cid_off = off.astype(np.int32)
        self.s_cids = cids
        self.s_hold = m * fabric.flit_time[cids]
        self.s_drain = (m - 1) * tau
        self.s_rel_off = np.concatenate(([0], np.cumsum(keep)))[off].astype(np.int32)
        self.r_kk = pos[keep].astype(np.int32)
        self.r_cid = cids[keep]
        self.r_hold = self.s_hold[keep]
        self.r_off = rel_off[keep]
        self._records: dict[int, tuple] = {}

    def record(self, sid: int) -> tuple:
        """Segment *sid* as the reference loop reads it, memoised.

        ``(channel_ids, drain, last, rel_items)`` with ``last = len − 1``
        and ``rel_items`` the ``(k, channel_id, M·τ_k, (last−k)·τ*)``
        entries of the contended channels.
        """
        rec = self._records.get(sid)
        if rec is None:
            lo, hi = self.s_cid_off[sid : sid + 2].tolist()
            r_lo, r_hi = self.s_rel_off[sid : sid + 2].tolist()
            rel = slice(r_lo, r_hi)
            rec = (
                tuple(self.s_cids[lo:hi].tolist()),
                float(self.s_drain[sid]),
                hi - lo - 1,
                tuple(zip(
                    self.r_kk[rel].tolist(), self.r_cid[rel].tolist(),
                    self.r_hold[rel].tolist(), self.r_off[rel].tolist(),
                )),
            )
            self._records[sid] = rec
        return rec


class ResolvedFabric:
    """Dense-id view of the fabric for one message specification."""

    def __init__(
        self,
        system: HeterogeneousSystem,
        message: MessageSpec,
        options: ModelOptions | None = None,
    ) -> None:
        self.system = system
        self.message = message
        self.options = options or ModelOptions()

        self._service_cache: dict[NetworkCharacteristics, ServiceTimes] = {}
        channels = list(system.channels())
        self.num_channels = len(channels)
        self.channel_index: dict[SystemChannel, int] = {ch: i for i, ch in enumerate(channels)}
        self.channels: tuple[SystemChannel, ...] = tuple(channels)

        flit_time = np.empty(self.num_channels, dtype=np.float64)
        group = np.empty(self.num_channels, dtype=np.int8)
        ejection = np.zeros(self.num_channels, dtype=bool)
        cd_reception = np.zeros(self.num_channels, dtype=bool)
        for i, ch in enumerate(channels):
            flit_time[i] = self._channel_flit_time(ch)
            group[i] = GROUPS.index(self._channel_group(ch))
            ejection[i] = ch.kind is ChannelKind.SWITCH_TO_NODE and isinstance(ch.target, NodeAddress)
            cd_reception[i] = isinstance(ch.target, Concentrator)
        self.flit_time = flit_time
        self.group = group
        self.ejection = ejection
        #: Links delivering into a concentrator/dispatcher buffer.  The
        #: paper models every segment sink as "always able to receive"
        #: (Eq. 29's final stage has no blocking term), so under
        #: ``cd_mode="paper"`` the simulators treat these as interleaving,
        #: non-blocking ingress links.
        self.cd_reception = cd_reception
        counts = np.bincount(group, minlength=len(GROUPS)).tolist()
        self._group_counts = dict(zip(GROUPS, counts))

        sizes = [c.num_nodes for c in system.clusters]
        #: node id -> cluster index (int32 array and list for the hot loop).
        self.node_cluster = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
        self.cluster_index: list[int] = self.node_cluster.tolist()
        self._build_routes()
        self._segments: dict[int, ResolvedSegment] = {}
        self._flags: dict[tuple[bool, str], list[bool]] = {}
        self._tables: dict[tuple[bool, str], SegmentTables] = {}

    # -- channel attributes ------------------------------------------------------

    def _network_of(self, channel: SystemChannel) -> NetworkCharacteristics:
        tag = channel.network
        if tag[0] == "icn1":
            return self.system.clusters[tag[1]].spec.icn1
        if tag[0] == "ecn1":
            return self.system.clusters[tag[1]].spec.ecn1
        return self.system.config.icn2

    def _service_times(self, network: NetworkCharacteristics) -> ServiceTimes:
        st = self._service_cache.get(network)
        if st is None:
            st = ServiceTimes.for_network(network, self.message, self.options)
            self._service_cache[network] = st
        return st

    def _channel_flit_time(self, channel: SystemChannel) -> float:
        st = self._service_times(self._network_of(channel))
        return st.t_cn if channel.kind.is_node_link else st.t_cs

    def _channel_group(self, channel: SystemChannel) -> str:
        if isinstance(channel.source, Concentrator):
            return "cd-concentrate" if channel.network[0] == "icn2" else "cd-dispatch"
        return channel.network[0]

    # -- route tables --------------------------------------------------------------

    def _build_routes(self) -> None:
        """Every segment's channel ids, by digit arithmetic (module docstring).

        Channel bases follow :meth:`HeterogeneousSystem.channels`: per
        cluster its ICN1 and ECN1 trees (``2nN`` channels each) and, with
        more than one cluster, the ``2 q^(n−1)`` root attachments; then
        the ICN2 tree.
        """
        system = self.system
        m = system.config.switch_ports
        n_clusters = len(system.clusters)
        templates: dict[int, tuple] = {}
        intra, ascent, descent = [], [], []
        intra_row = np.empty(system.total_nodes, dtype=np.int64)
        sid = base = 0
        for cluster in system.clusters:
            depth, size, first = cluster.spec.tree_depth, cluster.num_nodes, cluster.first_global_id
            if depth not in templates:
                templates[depth] = (_tree_routes(m, depth), _tree_legs(m, depth))
            (lengths, local), (up, down, root) = templates[depth]
            intra.append((lengths, local + base))
            intra_row[first : first + size] = sid + np.arange(size) * (size - 1) - first
            sid += lengths.size
            ecn1 = base + 2 * depth * size
            attach = ecn1 + 2 * depth * size
            base = attach
            if n_clusters > 1:
                legs = np.full(size, depth + 1)
                ascent.append((legs, np.column_stack([ecn1 + up, attach + 2 * root]).ravel()))
                descent.append((legs, np.column_stack([attach + 2 * root + 1, ecn1 + down]).ravel()))
                base += 2 * (m // 2) ** (depth - 1)
        icn2 = []
        if n_clusters > 1:
            lengths, local = _tree_routes(m, system.config.icn2_tree_depth)
            icn2.append((lengths, local + base))
            base += 2 * system.config.icn2_tree_depth * n_clusters
        require(base == self.num_channels, "route tables disagree with the channel enumeration")

        blocks = intra + ascent + descent + icn2
        lengths = np.concatenate([b[0] for b in blocks])
        self.seg_off = np.concatenate(([0], np.cumsum(lengths)))
        self.seg_cids = np.concatenate([b[1] for b in blocks]).astype(np.int32)
        self.seg_tau = np.maximum.reduceat(self.flit_time[self.seg_cids], self.seg_off[:-1])
        self.max_segment_channels = int(lengths.max())
        self._intra_row = intra_row
        self._asc0 = sid
        self._desc0 = sid + system.total_nodes
        self._icn2_row = self._desc0 + system.total_nodes + np.arange(n_clusters) * (n_clusters - 1)
        self._rows = (intra_row.tolist(), self._icn2_row.tolist())

    def segment_ids(self, source: int, destination: int) -> tuple[int, ...]:
        """Segment ids of the journey ``source → destination`` (flat node ids)."""
        intra_row, icn2_row = self._rows
        cs, cd = self.cluster_index[source], self.cluster_index[destination]
        if cs == cd:
            return (intra_row[source] + destination - (destination > source),)
        return (self._asc0 + source, icn2_row[cs] + cd - (cd > cs), self._desc0 + destination)

    def path_segments(self, source: np.ndarray, destination: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(p_off, p_segs)``: one journey per element, segment ids concatenated."""
        cs, cd = self.node_cluster[source], self.node_cluster[destination]
        inter = cs != cd
        p_off = np.zeros(source.size + 1, dtype=np.int32)
        np.cumsum(np.where(inter, 3, 1), out=p_off[1:])
        p_segs = np.empty(int(p_off[-1]), dtype=np.int32)
        first = p_off[:-1]
        p_segs[first] = np.where(
            inter, self._asc0 + source, self._intra_row[source] + destination - (destination > source)
        )
        first, cs, cd = first[inter], cs[inter], cd[inter]
        p_segs[first + 1] = self._icn2_row[cs] + cd - (cd > cs)
        p_segs[first + 2] = self._desc0 + destination[inter]
        return p_off, p_segs

    def _segment(self, sid: int) -> ResolvedSegment:
        seg = self._segments.get(sid)
        if seg is None:
            lo, hi = self.seg_off[sid : sid + 2].tolist()
            seg = ResolvedSegment(tuple(self.seg_cids[lo:hi].tolist()), float(self.seg_tau[sid]))
            self._segments[sid] = seg
        return seg

    def resolve(self, source: int, destination: int) -> tuple[ResolvedSegment, ...]:
        """Segments of the journey ``source → destination`` (flat node ids).

        Memoised per segment id: journeys sharing a leg share its object.
        """
        n = self.system.total_nodes
        require(0 <= source < n and 0 <= destination < n, f"node ids must be in [0, {n})")
        require(source != destination, "source and destination must differ")
        return tuple(self._segment(sid) for sid in self.segment_ids(source, destination))

    def uncontended_flags(self, *, ideal_sinks: bool, cd_mode: str) -> list[bool]:
        """Per-channel "grants without queueing" flags for one run config.

        Ejection links are uncontended under the model's ideal-sink
        assumption; concentrator/dispatcher ingress links are uncontended
        under ``cd_mode="paper"`` (the Eq. 29 "always able to receive"
        buffer).  Built once per config; callers must not mutate it.
        """
        key = (bool(ideal_sinks), cd_mode)
        flags = self._flags.get(key)
        if flags is None:
            mask = self.ejection if ideal_sinks else np.zeros(self.num_channels, dtype=bool)
            if cd_mode == "paper":
                mask = mask | self.cd_reception
            flags = self._flags[key] = mask.tolist()
        return flags

    def segment_tables(self, *, ideal_sinks: bool, cd_mode: str) -> SegmentTables:
        """The flat :class:`SegmentTables` of one run config (built once)."""
        key = (bool(ideal_sinks), cd_mode)
        tables = self._tables.get(key)
        if tables is None:
            flags = self.uncontended_flags(ideal_sinks=ideal_sinks, cd_mode=cd_mode)
            tables = self._tables[key] = SegmentTables(self, flags)
        return tables

    def hot_resolver(self, *, ideal_sinks: bool, cd_mode: str):
        """``resolve(source, destination)`` → segment records for one run config.

        Each path is a tuple of :meth:`SegmentTables.record` entries, the
        release arithmetic the reference loop runs at every segment sink
        with the uncontended-channel branch resolved away.
        """
        record = self.segment_tables(ideal_sinks=ideal_sinks, cd_mode=cd_mode).record
        segment_ids = self.segment_ids

        def resolve(source: int, destination: int) -> tuple:
            return tuple(map(record, segment_ids(source, destination)))

        return resolve

    # -- reporting -------------------------------------------------------------------

    def channels_per_group(self) -> dict[str, int]:
        """Directed channel counts by reporting group."""
        return dict(self._group_counts)
