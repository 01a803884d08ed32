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

from dataclasses import dataclass, field, replace
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..nn.kernels import SegmentLayout, segment_rank_order
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
    "GroupStep",
    "WalkPlan",
    "PassBlock",
    "Window",
    "WindowedSchedule",
]


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
    """One destination's share of a group's source-gradient routing.

    A group's sources split by what the row held when the group read it:
    ``pass_input`` rows had not been written yet in this pass, so their
    gradient belongs to the pass input; the others were written by an
    earlier group, so their gradient flows back into the pass's running
    output gradient.  ``positions`` selects the entries of the group's
    ``src`` array in this split (``None`` = all of them); ``layout`` is
    the segment layout over their global node ids, which accumulates
    repeated rows rank by rank when the runner scatters gradients back.
    """

    pass_input: bool
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


def _rank_major(
    g: LevelGroup, edge_attr_dim: Optional[int]
) -> Tuple[np.ndarray, np.ndarray, SegmentLayout, Optional[np.ndarray]]:
    """A group's nodes and folded edges in rank-major order, and the
    segment layout of its edges.

    Nodes run by in-degree, descending and stable; edges run rank by
    rank — every node's first in-edge, then the second in-edge of every
    node that has one, and so on, each rank in node order.  Every node of
    a level group has an in-edge, so rank ``r`` feeds the node prefix
    ``0..c_r-1`` and each per-target reduction over the group is a chain
    of slice ops (see :class:`~repro.nn.kernels.SegmentLayout`); the
    layout takes the rank sizes the edge ordering computed.
    """
    src, seg, edge_attr = _fold_skip(g, edge_attr_dim)
    n = len(g.nodes)
    node_order = np.argsort(-np.bincount(seg, minlength=n), kind="stable")
    pos = np.empty(n, np.int64)
    pos[node_order] = np.arange(n)
    seg = pos[seg]
    edge_order, rank_sizes = segment_rank_order(seg)
    if edge_attr is not None:
        edge_attr = edge_attr[edge_order]
    layout = SegmentLayout(seg[edge_order], n, rank_sizes)
    return g.nodes[node_order], src[edge_order], layout, edge_attr


def _gather_plan(
    src: np.ndarray, from_input: np.ndarray, num_nodes: int
) -> List[GatherSplit]:
    """Split a group's sources into those read from the pass input
    (``from_input``) and those written earlier in the pass."""
    plan: List[GatherSplit] = []
    if not src.size:
        return plan
    for pass_input, mask in ((True, from_input), (False, ~from_input)):
        if mask.all():
            positions, chosen = None, src
        elif mask.any():
            positions = np.flatnonzero(mask)
            chosen = src[positions]
        else:
            continue
        plan.append(
            GatherSplit(pass_input, positions, SegmentLayout(chosen, num_nodes))
        )
    return plan


@dataclass
class CompiledGroup:
    """Everything one propagation step needs, precomputed once per batch.

    Compared to a :class:`LevelGroup`, the skip connections are already
    folded in (``src``/``seg`` are the concatenated real+skip arrays and
    ``edge_attr`` the matching zero/PE attribute block), nodes and edges
    are laid out rank-major (see :func:`_rank_major`), the gate-type
    feature rows are pre-gathered, and the segment rank plan is built.
    The source-gradient routing plan, which only a backward reads, is
    built on first access (:attr:`gather_plan`).
    """

    nodes: np.ndarray
    src: np.ndarray
    seg: np.ndarray
    seg_layout: SegmentLayout
    x_rows: np.ndarray
    #: per source, whether the group reads it from the pass input (no
    #: earlier group had written the row); dropped once
    #: :attr:`gather_plan` is built from it
    from_input: Optional[np.ndarray]
    #: the pass-wide node count: the routing plan's layouts span it
    num_rows: int
    edge_attr: Optional[np.ndarray] = None
    #: row offsets of this group within its schedule's (or window's)
    #: block layout (see :class:`PassBlock`): nodes occupy
    #: ``[node_offset, node_offset + len(nodes))`` of the written-node
    #: axis, edges likewise on the edge axis
    node_offset: int = 0
    edge_offset: int = 0
    _gather_plan: Optional[List[GatherSplit]] = field(default=None, repr=False)

    @property
    def gather_plan(self) -> List[GatherSplit]:
        """The group's source-gradient routing, one :class:`GatherSplit`
        per destination, built on first access and kept."""
        if self._gather_plan is None:
            self._gather_plan = _gather_plan(
                self.src, self.from_input, self.num_rows
            )
            self.from_input = None
        return self._gather_plan


@dataclass
class PassBlock:
    """Packed block layout over a compiled schedule's groups.

    The pass runner's backward lays every per-group quantity of a window
    (a whole :class:`CompiledSchedule`, or one window of a
    :class:`WindowedSchedule`) out contiguously, in group order, so every
    parameter gradient accumulates per-group intermediates into
    ``(num_written, ·)`` / ``(num_edges, ·)`` buffers (contiguous slice
    writes, no scatter) and contracts them against these concatenated
    inputs in ONE large GEMM per window instead of one tiny GEMM per
    level group.

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


class GroupStep(NamedTuple):
    """One level group as a forward walk reads it (see :class:`WalkPlan`).

    ``rows``/``edges`` are the group's slices of its schedule's
    written-node and edge axes.  ``one_rank`` marks a group whose nodes
    each have exactly one in-edge.  ``edge_attr`` is the group's
    attribute block when any of its edges carries a nonzero attribute (a
    skip edge), else ``None``: a real edge's all-zero row scores ``±0``,
    which cannot change a softmax.
    """

    nodes: np.ndarray
    src: np.ndarray
    layout: SegmentLayout
    rows: slice
    edges: slice
    one_rank: bool
    edge_attr: Optional[np.ndarray]


@dataclass
class WalkPlan:
    """What a forward walk over a schedule needs that depends only on the
    schedule: one flat :class:`GroupStep` per group, in group order, and
    ``edge_targets``, the target node id of every edge on the edge axis
    (each group's ``nodes[seg]``, concatenated), so a per-node quantity
    gathers onto every edge of the walk in one ``take``.
    """

    steps: List[GroupStep]
    edge_targets: np.ndarray

    @classmethod
    def build(cls, groups: List[CompiledGroup]) -> "WalkPlan":
        steps = []
        for g in groups:
            layout = g.seg_layout
            attr = g.edge_attr
            steps.append(GroupStep(
                nodes=g.nodes,
                src=g.src,
                layout=layout,
                rows=slice(g.node_offset, g.node_offset + len(g.nodes)),
                edges=slice(g.edge_offset, g.edge_offset + len(g.src)),
                one_rank=layout.grid and len(layout.ranks) == 1,
                edge_attr=attr if attr is not None and attr.any() else None,
            ))
        targets = [g.nodes[g.seg] for g in groups]
        return cls(
            steps=steps,
            edge_targets=(
                np.concatenate(targets) if targets else np.zeros(0, np.int64)
            ),
        )


def _written(groups: List[CompiledGroup]) -> np.ndarray:
    """The groups' node ids, concatenated in group order."""
    if not groups:
        return np.zeros(0, np.int64)
    return np.concatenate([g.nodes for g in groups])


def _compile_groups(
    schedule: LevelSchedule,
    x: np.ndarray,
    edge_attr_dim: Optional[int],
) -> Tuple[List[CompiledGroup], List[np.ndarray], np.ndarray]:
    """Compile a schedule's groups, offsets pass-global.

    Also returns each group's provenance — per source, the index of the
    group that had written the row when this group read it (``-1``: not
    yet written, so the pass input) — and the final writer of every node
    (``-1``: never written).
    """
    num_nodes = schedule.num_nodes
    writer = np.full(num_nodes, -1, dtype=np.int64)
    groups: List[CompiledGroup] = []
    provs: List[np.ndarray] = []
    node_offset = 0
    edge_offset = 0
    for gi, g in enumerate(schedule):
        nodes, src, layout, edge_attr = _rank_major(g, edge_attr_dim)
        prov = writer[src]
        groups.append(
            CompiledGroup(
                nodes=nodes,
                src=src,
                seg=layout.segment_ids,
                seg_layout=layout,
                x_rows=np.ascontiguousarray(x[nodes]),
                from_input=prov < 0,
                num_rows=num_nodes,
                edge_attr=edge_attr,
                node_offset=node_offset,
                edge_offset=edge_offset,
            )
        )
        provs.append(prov)
        node_offset += len(nodes)
        edge_offset += len(src)
        writer[nodes] = gi
    return groups, provs, writer


class CompiledSchedule:
    """A :class:`LevelSchedule` compiled against a batch's features.

    Precomputes what the propagation loop would otherwise rebuild on every
    iteration of every epoch: concatenated skip index/segment arrays, the
    zero-padded edge-attribute blocks, the rank-major group layouts and
    their segment rank plans, the gathered one-hot input rows, and —
    because a forward/reverse pass writes each node at most once — a
    *routing plan* splitting every group's sources into rows read from
    the pass input and rows written earlier in the pass.  The plan lets
    the runner gather from a single working matrix, materialise the
    state exactly once per pass, and route source gradients with at most
    two scatters per group; each group builds it on first access from
    its provenance mask, so a schedule that only runs inference never
    builds one.  :meth:`block` and :meth:`walk_plan` cache the
    backward's packed layout and the forward walk's per-group plan.
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
        self._plan: Optional[WalkPlan] = None

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

    def walk_plan(self) -> WalkPlan:
        """The forward walk's :class:`WalkPlan`, built once and cached
        (valid for the same reason as :meth:`block`)."""
        if self._plan is None:
            self._plan = WalkPlan.build(self.groups)
        return self._plan

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
        groups, _, _ = _compile_groups(schedule, x, edge_attr_dim)
        return cls(groups, schedule.num_nodes, _written(groups))


# ---------------------------------------------------------------------------
# windowed schedules (bounded-memory streaming propagation)
# ---------------------------------------------------------------------------


@dataclass
class Window:
    """One bounded slice of a pass: consecutive level groups compiled
    together.

    ``compiled`` is a per-window :class:`CompiledSchedule` whose group
    offsets are window-local, so its block layout
    (:meth:`CompiledSchedule.block`) packs only this window's rows; its
    gather plans route by global row id, exactly as in the full
    schedule.  ``frontier_rows`` counts the distinct rows written by
    earlier windows that this window reads — the rows whose values cross
    the window boundary.  ``written_start``/``written_stop`` locate this
    window's written nodes inside the pass-global written-node axis.
    """

    compiled: CompiledSchedule
    frontier_rows: int
    written_start: int
    written_stop: int

    @property
    def num_written(self) -> int:
        return self.written_stop - self.written_start


class WindowedSchedule:
    """A level schedule partitioned into windows of bounded size.

    Greedy partition of the compiled level groups into consecutive windows
    whose written-node count stays within ``node_budget``; a window
    always takes at least one group, so a single oversized level group
    becomes its own window rather than failing.  The groups compile
    exactly as in :meth:`CompiledSchedule.compile` — same rank-major
    layouts, same routing plans — and only their block offsets are
    rebased per window.

    The pass runner streams windows in level order and, when there are
    several, re-streams them in reverse in the backward, re-reading each
    window's sources from the pass output — see
    :func:`repro.models.propagation.run_pass`.  That is only sound for a
    *topological* schedule, where no group reads a row written by itself
    or by a later group, so :meth:`build` rejects any other (an
    ``undirected`` schedule, for one).  The runner then packs a window's
    :class:`PassBlock` only for that window's backward, so windows retain
    no copy of their groups' rows.
    """

    def __init__(
        self,
        windows: List[Window],
        num_nodes: int,
        written: np.ndarray,
    ):
        self.windows = windows
        self.num_nodes = num_nodes
        #: all node ids written during the pass, in window/group order
        self.written = written

    def __iter__(self):
        return iter(self.windows)

    def __len__(self) -> int:
        return len(self.windows)

    @property
    def num_groups(self) -> int:
        return sum(len(w.compiled.groups) for w in self.windows)

    @classmethod
    def build(
        cls,
        schedule: LevelSchedule,
        x: np.ndarray,
        node_budget: int,
        edge_attr_dim: Optional[int] = None,
    ) -> "WindowedSchedule":
        """Partition and compile ``schedule`` into bounded windows.

        Raises ``ValueError`` naming the first group that reads a row
        written by itself or by a later group.
        """
        node_budget = int(node_budget)
        if node_budget < 1:
            raise ValueError(f"node_budget must be >= 1, got {node_budget}")
        groups, provs, writer = _compile_groups(schedule, x, edge_attr_dim)
        for k, (g, prov) in enumerate(zip(groups, provs)):
            late = (prov < 0) & (writer[g.src] >= 0)
            if late.any():
                row = int(g.src[np.argmax(late)])
                raise ValueError(
                    f"level group {k} reads row {row} before group "
                    f"{int(writer[row])} writes it; a windowed schedule "
                    "must be topological (every group reads only rows "
                    "written by earlier groups or the pass input)"
                )
        # greedy spans: [g0, g1) per window, >= 1 group each
        spans: List[Tuple[int, int]] = []
        g0 = 0
        while g0 < len(groups):
            n_sum = len(groups[g0].nodes)
            g1 = g0 + 1
            while g1 < len(groups):
                n_sum += len(groups[g1].nodes)
                if n_sum > node_budget:
                    break
                g1 += 1
            spans.append((g0, g1))
            g0 = g1
        num_nodes = schedule.num_nodes
        written = _written(groups)
        windows: List[Window] = []
        for a, b in spans:
            n0, e0 = groups[a].node_offset, groups[a].edge_offset
            cgroups = [
                replace(
                    g,
                    node_offset=g.node_offset - n0,
                    edge_offset=g.edge_offset - e0,
                )
                for g in groups[a:b]
            ]
            earlier = np.concatenate([
                g.src[(p >= 0) & (p < a)]
                for g, p in zip(groups[a:b], provs[a:b])
            ])
            n1 = n0 + sum(len(g.nodes) for g in cgroups)
            windows.append(
                Window(
                    compiled=CompiledSchedule(
                        cgroups, num_nodes, written[n0:n1]
                    ),
                    frontier_rows=int(np.unique(earlier).size),
                    written_start=n0,
                    written_stop=n1,
                )
            )
        return cls(windows, num_nodes, written)
