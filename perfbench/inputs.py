"""Seeded workload inputs: the benchmark makes them, the program receives them.

Every generator is a pure function of its arguments: the same seed gives
byte-identical circuit texts (and an identical huge circuit), whose
sha256 is printed with the metrics.  Circuits come from the four
``datagen.suites.suite_pool`` pools (the Table I EPFL/ITC99/IWLS/OpenCores
mix), taken round-robin, each pool with its own ``[seed, pool]`` stream.

Small circuit sets (the train set, the serve catalog) are *stratified*:
drawn as quantiles of a larger seeded sample by the netlist's own depth
or gate count.  Another seed then gives other circuits with the same size
and depth profile, so the figures move with the program, not the seed.
Selection reads only the netlist, never a result of the program.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.aig import aiger, bench
from repro.aig.netlist import Netlist
from repro.datagen.generators import huge_circuit
from repro.datagen.suites import SUITE_NAMES, suite_pool
from repro.synth import netlist_to_aig

__all__ = [
    "Query",
    "ServeMix",
    "pool_netlists",
    "bench_texts",
    "stratified",
    "train_texts",
    "rename_bench",
    "rename_aiger",
    "serve_mix",
    "stream_graph",
    "sha256_texts",
    "sha256_arrays",
]


def pool_netlists(
    seed: int,
    min_gates: int = 0,
    max_gates: Optional[int] = None,
    max_depth: Optional[int] = None,
) -> Iterator[Netlist]:
    """Endless round-robin over the four pools, optionally filtered by the
    netlist's own gate count and depth."""
    pools = [
        suite_pool(name, np.random.default_rng([seed, k]))
        for k, name in enumerate(SUITE_NAMES)
    ]
    index = 0
    while True:
        for pool in pools:
            netlist = next(pool)
            gates = netlist.num_gates()
            if gates < min_gates or (max_gates is not None and gates > max_gates):
                continue
            if max_depth is not None and netlist.depth() > max_depth:
                continue
            netlist.name = f"{netlist.name}_{index}"
            index += 1
            yield netlist


def bench_texts(seed: int, count: int) -> List[str]:
    """``count`` BENCH texts from the pools."""
    source = pool_netlists(seed)
    return [bench.dumps(next(source)) for _ in range(count)]


def stratified(netlists: Sequence[Netlist], count: int) -> List[Netlist]:
    """``count`` netlists spanning the sample's depth quantiles.

    The sample is sorted by depth and cut into ``count`` equal strata;
    each stratum contributes its median by gate count.  The result is in
    depth order.
    """
    if count > len(netlists):
        raise ValueError(f"cannot pick {count} of {len(netlists)} netlists")
    keys = [(n.depth(), n.num_gates(), i) for i, n in enumerate(netlists)]
    picks = []
    for stratum in np.array_split(np.array(sorted(keys)), count):
        ordered = sorted(stratum.tolist(), key=lambda k: (k[1], k[2]))
        picks.append(netlists[ordered[len(ordered) // 2][2]])
    return picks


#: train set: candidates sampled per seed, spare circuits, netlist window
TRAIN_SAMPLE, TRAIN_SPARES, TRAIN_MAX_DEPTH, TRAIN_MAX_GATES = 400, 8, 28, 400


def train_texts(seed: int, count: int) -> List[str]:
    """``count`` BENCH texts at the sample's depth quantiles, then spares.

    The netlist window keeps the circuits near the ``default`` scale's
    limits after synthesis (up to ~80 levels, well under 1200 nodes);
    spares stand in for circuits the pipeline skips.
    """
    source = pool_netlists(seed, min_gates=10, max_gates=TRAIN_MAX_GATES,
                           max_depth=TRAIN_MAX_DEPTH)
    candidates = [next(source) for _ in range(TRAIN_SAMPLE)]
    picks = stratified(candidates, count)
    picks += [next(source) for _ in range(TRAIN_SPARES)]
    return [bench.dumps(n) for n in picks]


_IO_LINE = re.compile(r"(INPUT|OUTPUT)\((.+)\)$")
_GATE_LINE = re.compile(r"(\S+) = (\w+)\((.*)\)$")


def rename_bench(text: str, tag: str) -> str:
    """The same BENCH circuit with every net renamed ``<tag>_<k>``.

    Lines keep their order, so the parsed netlist keeps its gate order and
    lowers to the same AIG: a different text with the same structure.
    """
    names: Dict[str, str] = {}

    def new(name: str) -> str:
        return names.setdefault(name.strip(), f"{tag}_{len(names)}")

    out = []
    for line in text.splitlines():
        io, gate = _IO_LINE.match(line), _GATE_LINE.match(line)
        if line.startswith("#"):
            out.append(f"# {tag}")
        elif io:
            out.append(f"{io[1]}({new(io[2])})")
        elif gate:
            args = ", ".join(new(a) for a in gate[3].split(",") if a.strip())
            out.append(f"{new(gate[1])} = {gate[2]}({args})")
        else:
            raise ValueError(f"unexpected BENCH line {line!r}")
    return "\n".join(out) + "\n"


def rename_aiger(text: str, tag: str) -> str:
    """The same ASCII AIGER circuit with a symbol table naming every input
    and output ``<tag>_<k>`` (the body, hence the structure, is unchanged)."""
    body = text.split("\nc\n", 1)[0]
    _, _, inputs, _, outputs, _ = body.split("\n", 1)[0].split()
    symbols = [f"i{k} {tag}_{k}" for k in range(int(inputs))]
    symbols += [f"o{k} {tag}_o{k}" for k in range(int(outputs))]
    return "\n".join([body, *symbols, "c", tag]) + "\n"


def _aiger_text(bench_text: str) -> str:
    """The AIGER form the service would build from ``bench_text``."""
    return aiger.dumps(netlist_to_aig(bench.loads(bench_text)))


def _servable(bench_text: str) -> bool:
    """Whether the service accepts the circuit (not all outputs constant
    after strash), so no query of the mix is refused by design."""
    from repro.serve.service import CircuitRejected, canonicalize

    try:
        _, canonical = canonicalize(netlist_to_aig(bench.loads(bench_text)))
    except CircuitRejected:
        return False
    return canonical.num_ands > 0


@dataclass(frozen=True)
class Query:
    """One serve request: catalog structure, format and circuit text."""

    structure: int
    fmt: str
    text: str
    renamed: bool


@dataclass
class ServeMix:
    """A seeded catalog of BENCH texts and the queries drawn from it."""

    catalog: List[str]
    queries: List[Query]
    popularity: np.ndarray  # per-structure probability

    @property
    def texts(self) -> List[str]:
        return [q.text for q in self.queries]


# The serve traffic.  These are assumptions, not measured user traffic;
# the repository holds no traffic description to derive them from.
#: catalog structures and queries per seed
CATALOG_SIZE, NUM_QUERIES = 32, 4000
#: Zipf exponent of structure popularity (rank k has weight 1/(k+1)**s)
ZIPF_S = 1.0
#: share of queries that are renamed copies, and of queries sent as AIGER
RENAME_SHARE, AIGER_SHARE = 0.3, 0.5
#: netlist band of the catalog, picked for steadiness: a small circuit's
#: pass time follows its depth, so a narrow band keeps seeds alike
MIN_GATES, MAX_GATES, MIN_DEPTH, MAX_DEPTH = 60, 200, 8, 16
#: servable candidates sampled per catalog structure
SAMPLE_FACTOR = 4


def serve_mix(seed: int) -> ServeMix:
    """Queries over a catalog of pool circuits with skewed popularity.

    The catalog comes from the netlist band above, stratified by depth from
    ``SAMPLE_FACTOR`` times as many servable candidates; popularity rank
    ``k`` always goes to the same depth stratum (a fixed shuffle), so the
    load the mix puts on the server depends little on the seed.  Structure
    ``k`` is drawn with probability proportional to ``1 / (k + 1) ** ZIPF_S``;
    an ``AIGER_SHARE`` of the queries are AIGER, the rest BENCH, and a
    ``RENAME_SHARE`` of them are renamed copies (new text, same structure).
    """
    rng = np.random.default_rng([seed, 7])
    source = pool_netlists(seed, min_gates=MIN_GATES, max_gates=MAX_GATES,
                           max_depth=MAX_DEPTH)
    candidates: List[Netlist] = []
    while len(candidates) < SAMPLE_FACTOR * CATALOG_SIZE:
        netlist = next(source)
        if netlist.depth() >= MIN_DEPTH and _servable(bench.dumps(netlist)):
            candidates.append(netlist)
    by_depth = stratified(candidates, CATALOG_SIZE)
    rank_to_stratum = np.random.default_rng(0).permutation(CATALOG_SIZE)
    catalog = [bench.dumps(by_depth[s]) for s in rank_to_stratum]
    weights = 1.0 / np.arange(1, CATALOG_SIZE + 1) ** ZIPF_S
    popularity = weights / weights.sum()
    picks = rng.choice(CATALOG_SIZE, size=NUM_QUERIES, p=popularity)
    fmts = np.where(rng.random(NUM_QUERIES) < AIGER_SHARE, "aiger", "bench")
    is_renamed = rng.random(NUM_QUERIES) < RENAME_SHARE
    base = {"bench": catalog, "aiger": [_aiger_text(t) for t in catalog]}
    rename = {"bench": rename_bench, "aiger": rename_aiger}
    queries = []
    for j, (k, fmt, ren) in enumerate(zip(picks, fmts, is_renamed)):
        k, fmt, ren = int(k), str(fmt), bool(ren)
        text = rename[fmt](base[fmt][k], f"q{j}") if ren else base[fmt][k]
        queries.append(Query(k, fmt, text, ren))
    return ServeMix(catalog, queries, popularity)


def stream_graph(seed: int, num_gates: int):
    """The seeded huge circuit the stream workload trains on."""
    return huge_circuit(num_gates, seed=seed)


def sha256_texts(texts: Sequence[str]) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def sha256_arrays(arrays: Sequence[np.ndarray]) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()
