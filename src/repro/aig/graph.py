"""And-Inverter Graph (AIG) core data structures.

Two representations are provided:

``AIG``
    The classical compact form used by synthesis tools: two-input AND nodes
    plus *complemented edges*.  Literals follow the AIGER convention
    ``lit = 2 * var + negated`` with variable 0 reserved for constant FALSE.
    This is the form :mod:`repro.synth` produces and :mod:`repro.sim`
    simulates.

``GateGraph``
    The explicit-node DAG that DeepGate's GNN consumes: every node is a
    primary input, a 2-input AND gate, or a 1-input NOT gate (the paper's
    3-way one-hot ``x_v``).  Inverters that are implicit (complemented edges)
    in the ``AIG`` become real nodes here, shared per literal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "AIG",
    "AIGBuilder",
    "GateGraph",
    "PI",
    "AND",
    "NOT",
    "NODE_TYPE_NAMES",
    "lit_var",
    "lit_is_negated",
    "lit_make",
    "lit_negate",
    "CONST0_LIT",
    "CONST1_LIT",
]

# ---------------------------------------------------------------------------
# literal helpers (AIGER convention)
# ---------------------------------------------------------------------------

CONST0_LIT = 0
CONST1_LIT = 1


def lit_make(var: int, negated: bool = False) -> int:
    """Build a literal from a variable index and a complement flag."""
    return 2 * var + int(negated)


def lit_var(lit: int) -> int:
    """Variable index of a literal."""
    return lit >> 1


def lit_is_negated(lit: int) -> bool:
    """True when the literal carries a complement (inverter) edge."""
    return bool(lit & 1)


def lit_negate(lit: int) -> int:
    """Complement a literal."""
    return lit ^ 1


# ---------------------------------------------------------------------------
# AIG
# ---------------------------------------------------------------------------


class AIG:
    """An immutable combinational And-Inverter Graph.

    Variables are numbered ``0`` (constant FALSE), ``1 .. num_pis`` (primary
    inputs), then one variable per AND node in topological order.

    Parameters
    ----------
    num_pis:
        Number of primary inputs.
    ands:
        ``(n_ands, 2)`` int array; row ``i`` holds the two fan-in literals of
        AND variable ``num_pis + 1 + i``.  Fan-ins must reference earlier
        variables (topological order).
    outputs:
        Output literals.
    name:
        Optional design name, carried through transformations.
    """

    def __init__(
        self,
        num_pis: int,
        ands: np.ndarray,
        outputs: Sequence[int],
        name: str = "aig",
    ):
        self.name = name
        self.num_pis = int(num_pis)
        self.ands = np.asarray(ands, dtype=np.int64).reshape(-1, 2)
        self.outputs = list(int(o) for o in outputs)
        self._levels: Optional[np.ndarray] = None
        #: set by :meth:`repro.synth.StrashBuilder.build` alone: the AIG is
        #: a strash fixed point, so :func:`repro.synth.strash` returns it
        self._strashed = False
        self._validate()

    # -- construction helpers -------------------------------------------
    def _validate(self) -> None:
        """Reject a fan-in that is negative or not an earlier variable,
        naming the first offender in row order (an AND's first fan-in
        before its second), and an out-of-range output literal."""
        ands = self.ands
        if ands.size:
            first_and_var = 1 + self.num_pis
            var = np.arange(first_and_var, first_and_var + len(ands))
            bad = (ands < 0) | ((ands >> 1) >= var[:, None])
            if bad.any():
                i, k = divmod(int(bad.argmax()), 2)
                raise ValueError(
                    f"AND var {first_and_var + i}: fan-in literal "
                    f"{ands[i, k]} is not an earlier variable (AIG must be "
                    "topologically ordered)"
                )
        n_vars = self.num_vars
        for o in self.outputs:
            if o < 0 or lit_var(o) >= n_vars:
                raise ValueError(f"output literal {o} out of range")

    # -- sizes -----------------------------------------------------------
    @property
    def num_ands(self) -> int:
        return int(self.ands.shape[0])

    @property
    def num_vars(self) -> int:
        """Total variables including constant-0 var."""
        return 1 + self.num_pis + self.num_ands

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    def pi_var(self, i: int) -> int:
        """Variable index of primary input ``i`` (0-based)."""
        if not 0 <= i < self.num_pis:
            raise IndexError(f"PI index {i} out of range")
        return 1 + i

    def pi_lit(self, i: int) -> int:
        """Positive literal of primary input ``i``."""
        return lit_make(self.pi_var(i))

    def and_var(self, i: int) -> int:
        """Variable index of AND node ``i`` (0-based)."""
        if not 0 <= i < self.num_ands:
            raise IndexError(f"AND index {i} out of range")
        return 1 + self.num_pis + i

    def is_pi_var(self, var: int) -> bool:
        return 1 <= var <= self.num_pis

    def is_and_var(self, var: int) -> bool:
        return var > self.num_pis and var < self.num_vars

    # -- structure --------------------------------------------------------
    def levels(self) -> np.ndarray:
        """Per-variable logic level: constants and PIs at 0, AND at 1+max."""
        if self._levels is None:
            lv = np.zeros(self.num_vars, dtype=np.int64)
            base = 1 + self.num_pis
            for i, (a, b) in enumerate(self.ands):
                lv[base + i] = 1 + max(lv[lit_var(int(a))], lv[lit_var(int(b))])
            self._levels = lv
        return self._levels

    def depth(self) -> int:
        """Maximum AND level over the whole graph."""
        return int(self.levels().max()) if self.num_vars else 0

    def fanout_counts(self) -> np.ndarray:
        """Per-variable count of references (AND fan-ins plus outputs)."""
        counts = np.zeros(self.num_vars, dtype=np.int64)
        if self.num_ands:
            vars_ = (self.ands >> 1).ravel()
            np.add.at(counts, vars_, 1)
        for o in self.outputs:
            counts[lit_var(o)] += 1
        return counts

    def uses_constant(self) -> bool:
        """True if any AND fan-in or output references constant FALSE/TRUE."""
        if any(lit_var(o) == 0 for o in self.outputs):
            return True
        return bool(self.num_ands and ((self.ands >> 1) == 0).any())

    def stats(self) -> Dict[str, int]:
        """Summary statistics (used for Table I style reporting)."""
        return {
            "pis": self.num_pis,
            "ands": self.num_ands,
            "outputs": self.num_outputs,
            "depth": self.depth(),
        }

    def copy(self, name: Optional[str] = None) -> "AIG":
        return AIG(
            self.num_pis, self.ands.copy(), list(self.outputs), name or self.name
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"AIG({self.name!r}, pis={self.num_pis}, ands={self.num_ands}, "
            f"outputs={self.num_outputs}, depth={self.depth()})"
        )

    # -- conversion --------------------------------------------------------
    def to_gate_graph(self) -> "GateGraph":
        """Expand complemented edges into explicit NOT nodes.

        Returns the :class:`GateGraph` DeepGate trains on.  Raises if the AIG
        still references constants: run :func:`repro.synth.synthesize` first,
        which propagates constants away.
        """
        return GateGraph.from_aig(self)


class AIGBuilder:
    """Incremental AIG constructor (no structural hashing — see synth.strash).

    >>> b = AIGBuilder(num_pis=2)
    >>> a, bb = b.pi_lit(0), b.pi_lit(1)
    >>> g = b.add_and(a, bb)
    >>> b.add_output(g)
    >>> aig = b.build("and2")
    """

    def __init__(self, num_pis: int, name: str = "aig"):
        self.name = name
        self.num_pis = num_pis
        self._ands: List[Tuple[int, int]] = []
        self._outputs: List[int] = []

    def pi_lit(self, i: int) -> int:
        if not 0 <= i < self.num_pis:
            raise IndexError(f"PI index {i} out of range")
        return lit_make(1 + i)

    def add_and(self, a: int, b: int) -> int:
        """Append an AND node and return its positive literal."""
        var = 1 + self.num_pis + len(self._ands)
        for lit in (a, b):
            if lit < 0 or lit_var(lit) >= var:
                raise ValueError(f"fan-in literal {lit} not yet defined")
        self._ands.append((a, b))
        return lit_make(var)

    def add_output(self, lit: int) -> None:
        self._outputs.append(lit)

    def build(self, name: Optional[str] = None) -> AIG:
        ands = np.asarray(self._ands, dtype=np.int64).reshape(-1, 2)
        return AIG(self.num_pis, ands, self._outputs, name or self.name)


# ---------------------------------------------------------------------------
# GateGraph: explicit PI / AND / NOT node DAG for the GNN
# ---------------------------------------------------------------------------

PI = 0
AND = 1
NOT = 2
NODE_TYPE_NAMES = ("PI", "AND", "NOT")


@dataclass
class GateGraph:
    """Explicit-node circuit DAG with only PI, AND and NOT gates.

    Nodes are numbered in topological order.  ``edges[k] = (u, v)`` means
    node ``u`` feeds node ``v``.  This is the graph DeepGate's message
    passing runs over; skip connections for reconvergence (paper §III-D) are
    added later by :mod:`repro.graphdata` using
    :func:`repro.sim.analysis.find_reconvergences`.
    """

    node_type: np.ndarray  # (N,) int8, values in {PI, AND, NOT}
    edges: np.ndarray  # (E, 2) int64, (src, dst)
    outputs: np.ndarray  # (num_pos,) node ids of primary outputs
    name: str = "graph"
    #: positive AIG literal each node computes (provenance / label lookup)
    source_lit: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    # -- sizes -----------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return int(self.node_type.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def num_pis(self) -> int:
        return int((self.node_type == PI).sum())

    def type_counts(self) -> Dict[str, int]:
        return {
            NODE_TYPE_NAMES[t]: int((self.node_type == t).sum())
            for t in (PI, AND, NOT)
        }

    # -- structure --------------------------------------------------------
    def levels(self) -> np.ndarray:
        """Per-node logic level; PIs at level 0, every edge adds one."""
        lv = [0] * self.num_nodes
        for v, fanins in enumerate(self.fanin_lists()):
            if fanins:
                lv[v] = 1 + max([lv[u] for u in fanins])
        return np.asarray(lv, dtype=np.int64)

    def depth(self) -> int:
        return int(self.levels().max()) if self.num_nodes else 0

    def fanin_lists(self) -> List[List[int]]:
        """Predecessor list per node."""
        fanins: List[List[int]] = [[] for _ in range(self.num_nodes)]
        for u, v in self.edges.tolist():
            fanins[v].append(u)
        return fanins

    def fanout_lists(self) -> List[List[int]]:
        """Successor list per node."""
        fanouts: List[List[int]] = [[] for _ in range(self.num_nodes)]
        for u, v in self.edges.tolist():
            fanouts[u].append(v)
        return fanouts

    def validate(self) -> None:
        """Check arity (AND=2, NOT=1, PI=0) and topological edge order."""
        fanins = self.fanin_lists()
        for v in range(self.num_nodes):
            t = int(self.node_type[v])
            want = {PI: 0, AND: 2, NOT: 1}[t]
            if len(fanins[v]) != want:
                raise ValueError(
                    f"node {v} ({NODE_TYPE_NAMES[t]}) has {len(fanins[v])} "
                    f"fanins, expected {want}"
                )
            for u in fanins[v]:
                if u >= v:
                    raise ValueError(f"edge ({u}->{v}) violates topological order")
        for o in self.outputs:
            if not 0 <= int(o) < self.num_nodes:
                raise ValueError(f"output node {o} out of range")

    # -- construction ------------------------------------------------------
    @classmethod
    def from_aig(cls, aig: AIG) -> "GateGraph":
        """Materialise inverters of an :class:`AIG` as shared NOT nodes."""
        if aig.uses_constant():
            raise ValueError(
                "AIG references constants; run repro.synth.synthesize() to "
                "propagate them before building a GateGraph"
            )
        node_type: List[int] = []
        edges: List[Tuple[int, int]] = []
        source_lit: List[int] = []
        var_node: Dict[int, int] = {}
        not_node: Dict[int, int] = {}  # var -> NOT-node id

        def new_node(t: int, lit: int) -> int:
            node_type.append(t)
            source_lit.append(lit)
            return len(node_type) - 1

        for i in range(aig.num_pis):
            var_node[aig.pi_var(i)] = new_node(PI, aig.pi_lit(i))

        def node_of(lit: int) -> int:
            """Node computing ``lit``, creating a NOT node on demand."""
            var = lit_var(lit)
            if not lit_is_negated(lit):
                return var_node[var]
            nid = not_node.get(var)
            if nid is None:
                nid = new_node(NOT, lit)
                not_node[var] = nid
                edges.append((var_node[var], nid))
            return nid

        for i in range(aig.num_ands):
            a, b = (int(x) for x in aig.ands[i])
            na, nb = node_of(a), node_of(b)
            var = aig.and_var(i)
            nid = new_node(AND, lit_make(var))
            var_node[var] = nid
            edges.append((na, nid))
            edges.append((nb, nid))

        outputs = [node_of(o) for o in aig.outputs]
        g = cls(
            node_type=np.asarray(node_type, dtype=np.int8),
            edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
            outputs=np.asarray(outputs, dtype=np.int64),
            name=aig.name,
            source_lit=np.asarray(source_lit, dtype=np.int64),
        )
        return g

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        c = self.type_counts()
        return (
            f"GateGraph({self.name!r}, nodes={self.num_nodes} "
            f"[PI={c['PI']}, AND={c['AND']}, NOT={c['NOT']}], "
            f"edges={self.num_edges})"
        )
