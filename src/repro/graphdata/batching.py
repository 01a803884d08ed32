"""Graph batching and topological level schedules.

Two pieces of machinery the models rely on:

* :func:`merge` — combine several :class:`CircuitGraph` objects into one
  disjoint batched graph with offset node ids, so one forward pass trains on
  a whole mini-batch of circuits.
* :class:`LevelSchedule` — the *topological batching* of Thost & Chen
  (paper §IV-B): nodes are grouped by logic level, and message passing
  processes one level at a time with all of the level's nodes updated in a
  single vectorised step.  Forward schedules walk levels upward, reverse
  schedules walk them downward (the paper's reversed propagation layer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn.kernels import SegmentLayout
from .features import CircuitGraph
from .positional import positional_encoding

__all__ = [
    "merge",
    "merge_schedules",
    "LevelGroup",
    "LevelSchedule",
    "GatherSplit",
    "CompiledGroup",
    "CompiledSchedule",
    "PassBlock",
    "PASS_INPUT",
    "FRONTIER",
    "Window",
    "WindowedSchedule",
]

#: :class:`GatherSplit` producer sentinel — rows come from the pass input
PASS_INPUT = -1
#: :class:`GatherSplit` producer sentinel — rows come from an earlier
#: window's output (the frontier cut set; see :class:`WindowedSchedule`)
FRONTIER = -2


def _level_runs(levels: np.ndarray) -> List[Tuple[int, np.ndarray]]:
    """Group positions by value with ONE stable argsort.

    Returns ``[(level, positions), ...]`` in ascending level order, with
    each ``positions`` array preserving the original relative order —
    exactly what a per-level ``np.nonzero(levels == lv)`` scan would give,
    without the O(max_level × E) repeated passes.
    """
    if levels.size == 0:
        return []
    order = np.argsort(levels, kind="stable")
    sorted_levels = levels[order]
    boundaries = np.flatnonzero(np.diff(sorted_levels)) + 1
    starts = np.concatenate([np.zeros(1, np.int64), boundaries])
    stops = np.concatenate([boundaries, [levels.size]])
    return [
        (int(sorted_levels[a]), order[a:b]) for a, b in zip(starts, stops)
    ]


def merge(graphs: Sequence[CircuitGraph]) -> CircuitGraph:
    """Disjoint union of circuit graphs (the mini-batch collate function)."""
    graphs = list(graphs)
    if not graphs:
        raise ValueError("cannot merge an empty list of graphs")
    type_names = graphs[0].type_names
    for g in graphs[1:]:
        if g.type_names != type_names:
            raise ValueError("cannot merge graphs with different type vocabularies")
    offsets = np.cumsum([0] + [g.num_nodes for g in graphs])
    node_type = np.concatenate([g.node_type for g in graphs])
    levels = np.concatenate([g.levels for g in graphs])
    labels = np.concatenate([g.labels for g in graphs])
    edges = np.concatenate(
        [g.edges + off for g, off in zip(graphs, offsets)], axis=0
    )
    skip_edges = np.concatenate(
        [g.skip_edges + off for g, off in zip(graphs, offsets)], axis=0
    )
    skip_diff = np.concatenate([g.skip_level_diff for g in graphs])
    return CircuitGraph(
        node_type=node_type,
        type_names=type_names,
        edges=edges,
        levels=levels,
        labels=labels,
        skip_edges=skip_edges,
        skip_level_diff=skip_diff,
        name=f"batch[{len(graphs)}]",
    )


@dataclass
class LevelGroup:
    """One vectorised message-passing step: update ``nodes`` together.

    ``src[k]`` feeds the node at position ``seg[k]`` within ``nodes``.
    ``skip_*`` carry the reconvergence skip connections landing on this
    level, with their positional-encoding edge attributes (paper Eq. 7).
    """

    nodes: np.ndarray
    src: np.ndarray
    seg: np.ndarray
    skip_src: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    skip_seg: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    skip_attr: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 0), np.float32)
    )

    @property
    def has_skip(self) -> bool:
        return len(self.skip_src) > 0


class LevelSchedule:
    """Precomputed level-by-level propagation plan for a (batched) graph."""

    def __init__(self, groups: List[LevelGroup], num_nodes: int):
        self.groups = groups
        self.num_nodes = num_nodes

    def __iter__(self):
        return iter(self.groups)

    def __len__(self) -> int:
        return len(self.groups)

    # ------------------------------------------------------------------
    @classmethod
    def forward(
        cls,
        graph: CircuitGraph,
        include_skip: bool = False,
        pe_levels: int = 8,
    ) -> "LevelSchedule":
        """Schedule walking levels 1..max (predecessor aggregation)."""
        edges = graph.edges
        dst_level = graph.levels[edges[:, 1]]
        groups: List[LevelGroup] = []
        if graph.num_nodes == 0:
            return cls(groups, 0)
        skip = graph.skip_edges if include_skip else np.zeros((0, 2), np.int64)
        skip_level = (
            graph.levels[skip[:, 1]] if len(skip) else np.zeros(0, np.int64)
        )
        # edge attribute = [gamma(D), is_skip]: the trailing indicator lets
        # the attention learn one global gate over skip connections (and its
        # negative initialisation starts them nearly muted, so they cannot
        # dilute real fan-in messages before training decides to use them)
        if include_skip and len(skip):
            pe = positional_encoding(graph.skip_level_diff, pe_levels)
            skip_attr_all = np.concatenate(
                [pe, np.ones((len(skip), 1), np.float32)], axis=1
            )
        else:
            skip_attr_all = np.zeros((0, 2 * pe_levels + 1), np.float32)
        skip_runs = dict(_level_runs(skip_level))
        for lv, sel in _level_runs(dst_level):
            e = edges[sel]
            nodes, seg = np.unique(e[:, 1], return_inverse=True)
            group = LevelGroup(nodes=nodes, src=e[:, 0], seg=seg)
            ssel = skip_runs.get(lv)
            if ssel is not None:
                s = skip[ssel]
                pos = np.searchsorted(nodes, s[:, 1])
                group.skip_src = s[:, 0]
                group.skip_seg = pos
                group.skip_attr = skip_attr_all[ssel]
            groups.append(group)
        return cls(groups, graph.num_nodes)

    @classmethod
    def reverse(cls, graph: CircuitGraph) -> "LevelSchedule":
        """Schedule walking levels max-1..0 (successor aggregation).

        Every edge ``u -> v`` becomes a reverse message ``v -> u``; node
        ``u`` is updated when its (forward) level is reached on the way
        down, by which time all successors have been processed.
        """
        edges = graph.edges
        groups: List[LevelGroup] = []
        if graph.num_nodes == 0:
            return cls(groups, 0)
        src_level = graph.levels[edges[:, 0]]
        for lv, sel in reversed(_level_runs(src_level)):
            e = edges[sel]
            nodes, seg = np.unique(e[:, 0], return_inverse=True)
            groups.append(LevelGroup(nodes=nodes, src=e[:, 1], seg=seg))
        return cls(groups, graph.num_nodes)

    @classmethod
    def undirected(cls, graph: CircuitGraph) -> "LevelSchedule":
        """Single-step schedule over the symmetrised edge set (GCN mode)."""
        if graph.num_edges == 0:
            return cls([], graph.num_nodes)
        fwd = graph.edges
        both = np.concatenate([fwd, fwd[:, ::-1]], axis=0)
        nodes, seg = np.unique(both[:, 1], return_inverse=True)
        return cls(
            [LevelGroup(nodes=nodes, src=both[:, 0], seg=seg)], graph.num_nodes
        )


def merge_schedules(
    schedules: Sequence[LevelSchedule],
    graphs: Sequence[CircuitGraph],
    descending: bool = False,
) -> LevelSchedule:
    """Merge per-circuit level schedules into the batched graph's schedule.

    Produces exactly what ``LevelSchedule.forward`` / ``.reverse`` would
    compute on ``merge(graphs)``, without touching the merged edge list:
    the level groups of each single-circuit schedule are concatenated
    per level with node-id and segment offsets applied.  This holds
    because the batched construction sorts stably by level and circuit
    offsets ascend, so within a level the batched arrays are the
    circuits' arrays in order.  ``repro serve`` uses it to batch cached
    single-circuit prepares without recompiling.  Not applicable to
    ``undirected`` schedules, whose single group interleaves forward and
    flipped edges rather than circuits.
    """
    schedules = list(schedules)
    graphs = list(graphs)
    if len(schedules) != len(graphs):
        raise ValueError("need one graph per schedule")
    if not schedules:
        raise ValueError("cannot merge an empty list of schedules")
    offsets = np.cumsum([0] + [g.num_nodes for g in graphs])
    by_level: dict = {}
    for ci, (sched, graph) in enumerate(zip(schedules, graphs)):
        if sched.num_nodes != graph.num_nodes:
            raise ValueError("schedule/graph node count mismatch")
        for group in sched:
            lv = int(graph.levels[group.nodes[0]])
            by_level.setdefault(lv, []).append((ci, group))
    groups: List[LevelGroup] = []
    for lv in sorted(by_level, reverse=descending):
        parts = by_level[lv]
        node_base = np.cumsum([0] + [len(g.nodes) for _, g in parts])
        merged = LevelGroup(
            nodes=np.concatenate([g.nodes + offsets[ci] for ci, g in parts]),
            src=np.concatenate([g.src + offsets[ci] for ci, g in parts]),
            seg=np.concatenate(
                [g.seg + base for (_, g), base in zip(parts, node_base)]
            ),
        )
        if any(g.has_skip for _, g in parts):
            merged.skip_src = np.concatenate(
                [g.skip_src + offsets[ci] for ci, g in parts]
            )
            merged.skip_seg = np.concatenate(
                [g.skip_seg + base for (_, g), base in zip(parts, node_base)]
            )
            merged.skip_attr = np.concatenate(
                [g.skip_attr for _, g in parts if g.has_skip]
            )
        groups.append(merged)
    return LevelSchedule(groups, int(offsets[-1]))


# ---------------------------------------------------------------------------
# compiled schedules (the propagation fast path's precomputed plan)
# ---------------------------------------------------------------------------


@dataclass
class GatherSplit:
    """One producer's share of a group's source gather.

    ``producer`` is the index of the level group (within the same pass —
    window-local when compiled per window) whose output the rows come
    from, :data:`PASS_INPUT` (``-1``) for the pass's input state, or
    :data:`FRONTIER` (``-2``) for rows produced by an *earlier window*
    of a :class:`WindowedSchedule` (read from the window's frontier cut
    set rather than a full working matrix).  ``positions`` selects the
    entries of the group's ``src`` array that read from this producer
    (``None`` = all of them); ``layout`` is the segment layout over the
    producer-local row indices used to pre-reduce repeated rows before
    scattering gradients back.

    ``layout.segment_ids`` doubles as the forward gather index array in
    position order: global node ids for :data:`PASS_INPUT`, rows into
    the window's ``ext_rows`` snapshot for :data:`FRONTIER`, and
    producer-local output rows for in-pass producers.
    """

    producer: int
    positions: Optional[np.ndarray]
    layout: SegmentLayout


def _fold_skip(
    g: LevelGroup, edge_attr_dim: Optional[int]
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Concatenate a group's real and skip edges (and attribute block)."""
    if g.has_skip:
        src = np.concatenate([g.src, g.skip_src])
        seg = np.concatenate([g.seg, g.skip_seg])
    else:
        src, seg = g.src, g.seg
    edge_attr = None
    if edge_attr_dim is not None:
        edge_attr = np.zeros((len(src), edge_attr_dim), np.float32)
        if g.has_skip:
            edge_attr[len(g.src):] = g.skip_attr
    return src, seg, edge_attr


@dataclass
class CompiledGroup:
    """Everything one propagation step needs, precomputed once per batch.

    Compared to a :class:`LevelGroup`, the skip connections are already
    folded in (``src``/``seg`` are the concatenated real+skip arrays and
    ``edge_attr`` the matching zero/PE attribute block), the gate-type
    feature rows are pre-gathered, and the segment sort layout is built.
    """

    nodes: np.ndarray
    src: np.ndarray
    seg: np.ndarray
    seg_layout: SegmentLayout
    gather_plan: List[GatherSplit]
    x_rows: np.ndarray
    edge_attr: Optional[np.ndarray] = None
    #: row offsets of this group within the pass-wide block layout (see
    #: :class:`PassBlock`): nodes occupy ``[node_offset, node_offset +
    #: len(nodes))`` of the written-node axis, edges likewise on the edge
    #: axis
    node_offset: int = 0
    edge_offset: int = 0


@dataclass
class PassBlock:
    """Packed per-pass block layout over a compiled schedule's groups.

    The whole-pass runner's batched ("block") execution mode lays every
    per-group quantity of a pass out contiguously, in group order, so
    every parameter gradient of the backward walk accumulates per-group
    intermediates into ``(num_written, ·)`` / ``(num_edges, ·)`` buffers
    (contiguous slice writes, no scatter) and contracts them against
    these concatenated inputs in ONE large GEMM per pass instead of one
    tiny GEMM per level group.

    ``node_offsets``/``edge_offsets`` are ``(G+1,)`` cumulative sums;
    group ``k``'s rows are ``[offsets[k], offsets[k+1])``.  ``written``
    is the concatenation of the groups' node ids (the same array as
    ``CompiledSchedule.written``), ``x_rows``/``edge_attr`` the
    concatenated per-group feature/attribute blocks, and ``counts`` the
    per-written-node fan-in counts (concatenated segment-layout counts).
    """

    node_offsets: np.ndarray
    edge_offsets: np.ndarray
    written: np.ndarray
    x_rows: np.ndarray
    counts: np.ndarray
    edge_attr: Optional[np.ndarray]

    @property
    def num_written(self) -> int:
        return int(self.node_offsets[-1])

    @property
    def num_edges(self) -> int:
        return int(self.edge_offsets[-1])

    @classmethod
    def pack(
        cls, groups: List[CompiledGroup], written: np.ndarray
    ) -> "PassBlock":
        """Pack compiled groups (with their offsets already assigned)
        and their concatenated node ids ``written`` into one block."""
        node_offsets = np.cumsum(
            [0] + [len(g.nodes) for g in groups], dtype=np.int64
        )
        edge_offsets = np.cumsum(
            [0] + [len(g.src) for g in groups], dtype=np.int64
        )
        feat = groups[0].x_rows.shape[1] if groups else 0
        x_rows = (
            np.concatenate([g.x_rows for g in groups])
            if groups
            else np.zeros((0, feat), np.float32)
        )
        counts = (
            np.concatenate([g.seg_layout.counts for g in groups])
            if groups
            else np.zeros(0, np.float32)
        )
        edge_attr = None
        if groups and groups[0].edge_attr is not None:
            edge_attr = np.concatenate([g.edge_attr for g in groups])
        return cls(
            node_offsets=node_offsets,
            edge_offsets=edge_offsets,
            written=written,
            x_rows=x_rows,
            counts=counts,
            edge_attr=edge_attr,
        )


class CompiledSchedule:
    """A :class:`LevelSchedule` compiled against a batch's features.

    Precomputes what the propagation loop would otherwise rebuild on every
    iteration of every epoch: concatenated skip index/segment arrays, the
    zero-padded edge-attribute blocks, per-group segment sort layouts, the
    gathered one-hot input rows, and — because a forward/reverse pass
    writes each node at most once — a *provenance plan* mapping every
    source row to the in-pass group that produced it (or to the pass
    input).  The plan lets the runner gather from a single working matrix
    and materialise the state exactly once per pass instead of once per
    level.
    """

    def __init__(
        self,
        groups: List[CompiledGroup],
        num_nodes: int,
        written: np.ndarray,
    ):
        self.groups = groups
        self.num_nodes = num_nodes
        #: all node ids written during the pass (unique by construction)
        self.written = written
        self._block: Optional[PassBlock] = None

    def __iter__(self):
        return iter(self.groups)

    def __len__(self) -> int:
        return len(self.groups)

    def block(self) -> PassBlock:
        """The pass-wide :class:`PassBlock` layout, built once and cached.

        Valid because group offsets are assigned at compile time and the
        groups' arrays never change afterwards.
        """
        if self._block is None:
            self._block = PassBlock.pack(self.groups, self.written)
        return self._block

    @classmethod
    def compile(
        cls,
        schedule: LevelSchedule,
        x: np.ndarray,
        edge_attr_dim: Optional[int] = None,
    ) -> "CompiledSchedule":
        """Compile ``schedule`` for a batch with feature matrix ``x``.

        ``edge_attr_dim`` enables the per-edge attribute blocks (real edges
        zero, skip edges their positional encoding); ``None`` skips them
        for models that don't consume edge attributes.
        """
        num_nodes = schedule.num_nodes
        # which group (this pass) last wrote each node, and at which local row
        writer = np.full(num_nodes, -1, dtype=np.int64)
        local = np.zeros(num_nodes, dtype=np.int64)
        groups: List[CompiledGroup] = []
        node_offset = 0
        edge_offset = 0
        for gi, g in enumerate(schedule):
            src, seg, edge_attr = _fold_skip(g, edge_attr_dim)
            prov = writer[src]
            plan: List[GatherSplit] = []
            for p in np.unique(prov) if src.size else ():
                if prov.size and (prov == p).all():
                    positions = None
                    chosen = src
                else:
                    positions = np.flatnonzero(prov == p)
                    chosen = src[positions]
                if p < 0:
                    rows, size = chosen, num_nodes
                else:
                    rows, size = local[chosen], len(groups[p].nodes)
                plan.append(
                    GatherSplit(int(p), positions, SegmentLayout(rows, size))
                )
            groups.append(
                CompiledGroup(
                    nodes=g.nodes,
                    src=src,
                    seg=seg,
                    seg_layout=SegmentLayout(seg, len(g.nodes)),
                    gather_plan=plan,
                    x_rows=np.ascontiguousarray(x[g.nodes]),
                    edge_attr=edge_attr,
                    node_offset=node_offset,
                    edge_offset=edge_offset,
                )
            )
            node_offset += len(g.nodes)
            edge_offset += len(src)
            writer[g.nodes] = gi
            local[g.nodes] = np.arange(len(g.nodes))
        written = (
            np.concatenate([g.nodes for g in groups])
            if groups
            else np.zeros(0, np.int64)
        )
        return cls(groups, num_nodes, written)


# ---------------------------------------------------------------------------
# windowed schedules (bounded-memory streaming propagation)
# ---------------------------------------------------------------------------


@dataclass
class Window:
    """One bounded slice of a pass: consecutive level groups compiled
    together, plus the frontier cut set they read from earlier windows.

    ``compiled`` is a per-window :class:`CompiledSchedule` whose
    ``gather_plan`` producers are *window-local* group indices (or the
    :data:`PASS_INPUT`/:data:`FRONTIER` sentinels) and whose block
    layout (:meth:`CompiledSchedule.block`) therefore packs only this
    window's rows.  ``ext_rows`` is the sorted array of global node ids
    written by earlier windows and read by this one — the rows whose
    values cross the window boundary and must be carried (or spilled)
    between windows.  ``written_start``/``written_stop`` locate this
    window's written nodes inside the pass-global written-node axis.
    """

    index: int
    compiled: CompiledSchedule
    ext_rows: np.ndarray
    written_start: int
    written_stop: int

    @property
    def num_written(self) -> int:
        return self.written_stop - self.written_start


class WindowedSchedule:
    """A level schedule partitioned into windows of bounded size.

    Greedy partition of the level groups into consecutive windows whose
    written-node count stays within ``node_budget`` (and, optionally,
    whose folded edge count stays within ``edge_budget``); a window
    always takes at least one group, so a single oversized level group
    becomes its own window rather than failing.  Each window compiles
    exactly like :meth:`CompiledSchedule.compile` — the provenance
    ``writer``/``local`` maps are shared across windows, so a source
    row's producer is classified as in-window (window-local index),
    earlier-window (:data:`FRONTIER`, resolved through the window's
    ``ext_rows`` cut set), or the pass input (:data:`PASS_INPUT`).

    The windowed pass runner streams windows in level order, keeping
    only the current window's state plus the bounded frontier rows —
    see :func:`repro.models.propagation.run_pass`.  The runner packs a
    window's :class:`PassBlock` only for that window's backward, so
    windows retain no copy of their groups' rows.
    """

    def __init__(
        self,
        windows: List[Window],
        num_nodes: int,
        written: np.ndarray,
        node_budget: int,
        edge_budget: Optional[int] = None,
    ):
        self.windows = windows
        self.num_nodes = num_nodes
        #: all node ids written during the pass, in window/group order
        self.written = written
        self.node_budget = node_budget
        self.edge_budget = edge_budget

    def __iter__(self):
        return iter(self.windows)

    def __len__(self) -> int:
        return len(self.windows)

    @property
    def num_groups(self) -> int:
        return sum(len(w.compiled.groups) for w in self.windows)

    @property
    def max_frontier_rows(self) -> int:
        return max((len(w.ext_rows) for w in self.windows), default=0)

    @classmethod
    def build(
        cls,
        schedule: LevelSchedule,
        x: np.ndarray,
        node_budget: int,
        edge_attr_dim: Optional[int] = None,
        edge_budget: Optional[int] = None,
    ) -> "WindowedSchedule":
        """Partition and compile ``schedule`` into bounded windows."""
        node_budget = int(node_budget)
        if node_budget < 1:
            raise ValueError(f"node_budget must be >= 1, got {node_budget}")
        if edge_budget is not None and edge_budget < 1:
            raise ValueError(f"edge_budget must be >= 1, got {edge_budget}")
        num_nodes = schedule.num_nodes
        folded = [_fold_skip(g, edge_attr_dim) for g in schedule]
        nodes_per_group = [len(g.nodes) for g in schedule]
        # greedy spans: [g0, g1) per window, >= 1 group each
        spans: List[Tuple[int, int]] = []
        g0 = 0
        while g0 < len(folded):
            n_sum = nodes_per_group[g0]
            e_sum = len(folded[g0][0])
            g1 = g0 + 1
            while g1 < len(folded):
                n_next = n_sum + nodes_per_group[g1]
                e_next = e_sum + len(folded[g1][0])
                if n_next > node_budget:
                    break
                if edge_budget is not None and e_next > edge_budget:
                    break
                n_sum, e_sum = n_next, e_next
                g1 += 1
            spans.append((g0, g1))
            g0 = g1
        # pass-global provenance, shared across windows
        writer = np.full(num_nodes, -1, dtype=np.int64)
        local = np.zeros(num_nodes, dtype=np.int64)
        windows: List[Window] = []
        written_parts: List[np.ndarray] = []
        w_start = 0
        for wi, (a, b) in enumerate(spans):
            # first sweep: record each group's provenance, then mark the
            # group as written so later groups in this window see it
            provs: List[np.ndarray] = []
            for k in range(a, b):
                g = schedule.groups[k]
                src = folded[k][0]
                provs.append(writer[src])
                writer[g.nodes] = k
                local[g.nodes] = np.arange(len(g.nodes))
            ext_parts = [
                src[(prov >= 0) & (prov < a)]
                for (src, _, _), prov in zip(folded[a:b], provs)
            ]
            ext_cat = (
                np.concatenate(ext_parts)
                if ext_parts
                else np.zeros(0, np.int64)
            )
            ext_rows = np.unique(ext_cat)
            # second sweep: build the window's compiled groups with
            # window-local producers and frontier splits
            cgroups: List[CompiledGroup] = []
            node_offset = 0
            edge_offset = 0
            for k in range(a, b):
                g = schedule.groups[k]
                src, seg, edge_attr = folded[k]
                prov = provs[k - a]
                plan: List[GatherSplit] = []
                for p in np.unique(prov) if src.size else ():
                    if prov.size and (prov == p).all():
                        positions = None
                        chosen = src
                    else:
                        positions = np.flatnonzero(prov == p)
                        chosen = src[positions]
                    if p < 0:
                        producer = PASS_INPUT
                        rows, size = chosen, num_nodes
                    elif p < a:
                        producer = FRONTIER
                        rows = np.searchsorted(ext_rows, chosen)
                        size = len(ext_rows)
                    else:
                        producer = int(p - a)
                        rows = local[chosen]
                        size = nodes_per_group[p]
                    plan.append(
                        GatherSplit(
                            producer, positions, SegmentLayout(rows, size)
                        )
                    )
                cgroups.append(
                    CompiledGroup(
                        nodes=g.nodes,
                        src=src,
                        seg=seg,
                        seg_layout=SegmentLayout(seg, len(g.nodes)),
                        gather_plan=plan,
                        x_rows=np.ascontiguousarray(x[g.nodes]),
                        edge_attr=edge_attr,
                        node_offset=node_offset,
                        edge_offset=edge_offset,
                    )
                )
                node_offset += len(g.nodes)
                edge_offset += len(src)
            win_written = (
                np.concatenate([cg.nodes for cg in cgroups])
                if cgroups
                else np.zeros(0, np.int64)
            )
            written_parts.append(win_written)
            windows.append(
                Window(
                    index=wi,
                    compiled=CompiledSchedule(cgroups, num_nodes, win_written),
                    ext_rows=ext_rows,
                    written_start=w_start,
                    written_stop=w_start + len(win_written),
                )
            )
            w_start += len(win_written)
        written = (
            np.concatenate(written_parts)
            if written_parts
            else np.zeros(0, np.int64)
        )
        return cls(windows, num_nodes, written, node_budget, edge_budget)
