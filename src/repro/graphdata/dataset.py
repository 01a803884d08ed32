"""Datasets of featurised circuits and prepared training batches.

Two dataset flavours share one mental model:

* :class:`CircuitDataset` — everything in memory; fine up to a few hundred
  circuits (the ``smoke``/``default`` experiment scales);
* :class:`ShardedCircuitDataset` — a lazy view over a directory of shards
  written by :mod:`repro.datagen.pipeline`; shards are loaded on demand
  through a small LRU cache, so paper-scale datasets stream through a
  bounded memory footprint.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .batching import (
    CompiledSchedule,
    LevelSchedule,
    WindowedSchedule,
    merge,
)
from .features import CircuitGraph
from .shards import iter_shard, load_manifest, read_shard

__all__ = [
    "PreparedBatch",
    "CircuitDataset",
    "ShardedCircuitDataset",
    "prepare",
]


class PreparedBatch:
    """A merged mini-batch with cached level schedules and features.

    Schedules depend only on graph structure, so they are computed once and
    reused across every epoch and every model that sees the batch.  The
    level schedules the reference path walks are cached by
    :meth:`forward_schedule` and its siblings; the compiled and windowed
    builders compile a level schedule of their own and drop it, so a
    batch that only runs the fast path keeps none.
    """

    def __init__(self, graph: CircuitGraph):
        self.graph = graph
        self.x = graph.one_hot()
        self.labels = graph.labels
        self._forward: Dict[Tuple[bool, int], LevelSchedule] = {}
        self._reverse: Optional[LevelSchedule] = None
        self._undirected: Optional[LevelSchedule] = None
        self._compiled: Dict[Tuple[str, bool, int], CompiledSchedule] = {}
        self._windowed: Dict[
            Tuple[str, bool, int, int], WindowedSchedule
        ] = {}

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    def forward_schedule(
        self, include_skip: bool = False, pe_levels: int = 8
    ) -> LevelSchedule:
        key = (include_skip, pe_levels)
        if key not in self._forward:
            self._forward[key] = LevelSchedule.forward(
                self.graph, include_skip=include_skip, pe_levels=pe_levels
            )
        return self._forward[key]

    def reverse_schedule(self) -> LevelSchedule:
        if self._reverse is None:
            self._reverse = LevelSchedule.reverse(self.graph)
        return self._reverse

    def undirected_schedule(self) -> LevelSchedule:
        if self._undirected is None:
            self._undirected = LevelSchedule.undirected(self.graph)
        return self._undirected

    # -- compiled fast-path schedules ----------------------------------
    def compiled_forward_schedule(
        self, include_skip: bool = False, pe_levels: int = 8
    ) -> CompiledSchedule:
        """Forward schedule compiled for the fast path (cached).

        With ``include_skip``, skip edges and their positional-encoding
        attribute blocks are folded into each group once, instead of being
        re-concatenated on every propagation iteration.
        """
        key = ("forward", include_skip, pe_levels)
        if key not in self._compiled:
            attr_dim = 2 * pe_levels + 1 if include_skip else None
            self._compiled[key] = CompiledSchedule.compile(
                LevelSchedule.forward(self.graph, include_skip, pe_levels),
                self.x,
                edge_attr_dim=attr_dim,
            )
        return self._compiled[key]

    def compiled_reverse_schedule(self) -> CompiledSchedule:
        key = ("reverse", False, 0)
        if key not in self._compiled:
            self._compiled[key] = CompiledSchedule.compile(
                LevelSchedule.reverse(self.graph), self.x
            )
        return self._compiled[key]

    def compiled_undirected_schedule(self) -> CompiledSchedule:
        key = ("undirected", False, 0)
        if key not in self._compiled:
            self._compiled[key] = CompiledSchedule.compile(
                LevelSchedule.undirected(self.graph), self.x
            )
        return self._compiled[key]

    # -- windowed (streaming) schedules --------------------------------
    def windowed_forward_schedule(
        self,
        node_budget: int,
        include_skip: bool = False,
        pe_levels: int = 8,
    ) -> WindowedSchedule:
        """Forward schedule partitioned into bounded windows (cached per
        budget) — the streaming propagation plan of
        :func:`repro.models.propagation.run_pass`."""
        key = ("forward", include_skip, pe_levels, int(node_budget))
        if key not in self._windowed:
            attr_dim = 2 * pe_levels + 1 if include_skip else None
            self._windowed[key] = WindowedSchedule.build(
                LevelSchedule.forward(self.graph, include_skip, pe_levels),
                self.x,
                node_budget,
                edge_attr_dim=attr_dim,
            )
        return self._windowed[key]

    def windowed_reverse_schedule(self, node_budget: int) -> WindowedSchedule:
        key = ("reverse", False, 0, int(node_budget))
        if key not in self._windowed:
            self._windowed[key] = WindowedSchedule.build(
                LevelSchedule.reverse(self.graph), self.x, node_budget
            )
        return self._windowed[key]


def prepare(graphs: Sequence[CircuitGraph]) -> PreparedBatch:
    """Merge graphs and wrap them as a :class:`PreparedBatch`."""
    graphs = list(graphs)
    merged = graphs[0] if len(graphs) == 1 else merge(graphs)
    return PreparedBatch(merged)


class CircuitDataset:
    """An in-memory collection of circuit graphs with train/test splitting."""

    def __init__(self, graphs: Sequence[CircuitGraph], name: str = "dataset"):
        self.graphs = list(graphs)
        self.name = name

    def __len__(self) -> int:
        return len(self.graphs)

    def __getitem__(self, index: int) -> CircuitGraph:
        return self.graphs[index]

    def __iter__(self):
        return iter(self.graphs)

    def split(
        self, train_fraction: float = 0.9, seed: int = 0
    ) -> Tuple["CircuitDataset", "CircuitDataset"]:
        """Shuffled train/test split (the paper uses 90/10)."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self.graphs))
        cut = max(1, int(round(train_fraction * len(self.graphs))))
        cut = min(cut, len(self.graphs) - 1) if len(self.graphs) > 1 else cut
        train = [self.graphs[i] for i in order[:cut]]
        test = [self.graphs[i] for i in order[cut:]]
        return (
            CircuitDataset(train, f"{self.name}/train"),
            CircuitDataset(test, f"{self.name}/test"),
        )

    def batches(
        self, batch_size: int, seed: Optional[int] = None
    ) -> Iterator[PreparedBatch]:
        """Yield merged mini-batches, optionally shuffled."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        order = np.arange(len(self.graphs))
        if seed is not None:
            np.random.default_rng(seed).shuffle(order)
        for start in range(0, len(order), batch_size):
            chunk = [self.graphs[i] for i in order[start : start + batch_size]]
            yield prepare(chunk)

    def prepared_batches(
        self, batch_size: int, seed: int = 0
    ) -> List[PreparedBatch]:
        """Materialise all batches once (schedule reuse across epochs)."""
        return list(self.batches(batch_size, seed=seed))

    # -- statistics (Table I) ------------------------------------------
    def node_count_range(self) -> Tuple[int, int]:
        counts = [g.num_nodes for g in self.graphs]
        return (min(counts), max(counts)) if counts else (0, 0)

    def level_range(self) -> Tuple[int, int]:
        depths = [g.depth for g in self.graphs]
        return (min(depths), max(depths)) if depths else (0, 0)

    def summary(self) -> Dict[str, object]:
        lo_n, hi_n = self.node_count_range()
        lo_l, hi_l = self.level_range()
        return {
            "name": self.name,
            "circuits": len(self.graphs),
            "nodes": (lo_n, hi_n),
            "levels": (lo_l, hi_l),
        }


class ShardedCircuitDataset:
    """A lazy dataset over a pipeline-built directory of ``.npz`` shards.

    Random access (``ds[i]``) and streaming iteration both go through an
    LRU cache of ``cache_shards`` decoded shards, so sequential scans load
    each shard exactly once and memory stays bounded by the cache size
    rather than the dataset size.
    """

    def __init__(
        self, root: Union[str, Path], cache_shards: int = 2
    ):
        self.root = Path(root)
        manifest = load_manifest(self.root)
        if manifest is None:
            raise FileNotFoundError(
                f"no dataset manifest in {self.root}; run "
                f"'python -m repro dataset build' first"
            )
        if cache_shards < 1:
            raise ValueError("cache_shards must be >= 1")
        self.manifest = manifest
        self.name = f"sharded[{self.root.name}]"
        self._shards: List[Dict[str, object]] = list(manifest["shards"])
        # global index -> (shard number, index within shard)
        self._index: List[Tuple[int, int]] = [
            (s, k)
            for s, shard in enumerate(self._shards)
            for k in range(int(shard["num_circuits"]))
        ]
        self._cache_shards = cache_shards
        self._cache: "OrderedDict[int, List[CircuitGraph]]" = OrderedDict()
        # the DataLoader's prefetch thread and the consumer may both reach
        # the LRU; serialise mutations so eviction can't race a lookup
        self._cache_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._index)

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def _load_shard(self, shard_number: int) -> List[CircuitGraph]:
        with self._cache_lock:
            if shard_number in self._cache:
                self._cache.move_to_end(shard_number)
                return self._cache[shard_number]
        path = self.root / str(self._shards[shard_number]["filename"])
        graphs = read_shard(path)
        with self._cache_lock:
            self._cache[shard_number] = graphs
            while len(self._cache) > self._cache_shards:
                self._cache.popitem(last=False)
        return graphs

    def __getitem__(self, index: int) -> CircuitGraph:
        shard_number, local = self._index[index]
        return self._load_shard(shard_number)[local]

    def __iter__(self) -> Iterator[CircuitGraph]:
        """Stream graphs one at a time.

        Cached shards are served from the LRU; un-cached shards stream
        through :func:`repro.graphdata.shards.iter_shard` *without*
        materialising the whole shard, so a sequential scan's memory is
        bounded by one graph (plus whatever the cache already holds),
        not by shard size.
        """
        for shard_number in range(len(self._shards)):
            with self._cache_lock:
                cached = self._cache.get(shard_number)
                if cached is not None:
                    self._cache.move_to_end(shard_number)
            if cached is not None:
                yield from cached
            else:
                path = self.root / str(self._shards[shard_number]["filename"])
                yield from iter_shard(path)

    def batches(
        self, batch_size: int, seed: Optional[int] = None
    ) -> Iterator[PreparedBatch]:
        """Stream merged mini-batches.

        Shuffling is *shard-local*: the shard order and the order within
        each shard are permuted, but consecutive indices stay on the same
        shard, so an epoch decodes every shard exactly once instead of
        thrashing the LRU cache with a global permutation.  The
        unshuffled path streams lazily per graph and never decodes a
        whole shard at once.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if seed is None:
            chunk: List[CircuitGraph] = []
            for graph in self:
                chunk.append(graph)
                if len(chunk) == batch_size:
                    yield prepare(chunk)
                    chunk = []
            if chunk:
                yield prepare(chunk)
            return
        rng = np.random.default_rng(seed)
        counts = [int(s["num_circuits"]) for s in self._shards]
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        parts = [
            starts[s] + rng.permutation(counts[s])
            for s in rng.permutation(len(self._shards))
        ]
        order = np.concatenate(parts) if parts else np.arange(0)
        for start in range(0, len(order), batch_size):
            chunk = [self[int(i)] for i in order[start : start + batch_size]]
            yield prepare(chunk)

    def suite_names(self) -> List[str]:
        seen: List[str] = []
        for shard in self._shards:
            if shard["suite"] not in seen:
                seen.append(str(shard["suite"]))
        return seen

    def suite(self, name: str) -> CircuitDataset:
        """Materialise one suite's circuits as an in-memory dataset."""
        graphs: List[CircuitGraph] = []
        for shard_number, shard in enumerate(self._shards):
            if shard["suite"] == name:
                graphs.extend(self._load_shard(shard_number))
        if not graphs:
            raise KeyError(f"suite {name!r} not in {self.suite_names()}")
        return CircuitDataset(graphs, name=name)

    def by_suite(self) -> Dict[str, CircuitDataset]:
        return {name: self.suite(name) for name in self.suite_names()}

    def materialize(self) -> CircuitDataset:
        """Load everything into a plain :class:`CircuitDataset`."""
        return CircuitDataset(list(self), name=self.name)

    def summary(self) -> Dict[str, object]:
        counts = [int(s["num_circuits"]) for s in self._shards]
        return {
            "name": self.name,
            "circuits": sum(counts),
            "shards": len(self._shards),
            "suites": self.suite_names(),
        }

    def suite_summaries(self) -> Dict[str, Dict[str, object]]:
        """Per-suite circuit count and node/level ranges, computed by
        streaming one shard at a time (never holds a whole suite in
        memory — ``dataset info`` uses this)."""
        out: Dict[str, Dict[str, object]] = {}
        for shard_number, shard in enumerate(self._shards):
            suite = str(shard["suite"])
            stats = out.setdefault(
                suite, {"circuits": 0, "nodes": None, "levels": None}
            )
            for g in self._load_shard(shard_number):
                stats["circuits"] = int(stats["circuits"]) + 1
                for field, value in (("nodes", g.num_nodes), ("levels", g.depth)):
                    lo, hi = stats[field] or (value, value)
                    stats[field] = (min(lo, value), max(hi, value))
        return out
