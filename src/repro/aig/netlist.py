"""Generic gate-level netlist intermediate representation.

The paper's input circuits are heterogeneous gate-level netlists (mapped with
various technology libraries) or RTL that has been elaborated to gates.  This
module provides the pre-synthesis IR: a named, multi-fanin, multi-type gate
network.  The synthesis front end (:mod:`repro.synth`) lowers a ``Netlist``
into the unified AIG form that DeepGate learns on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import CircuitParseError

__all__ = ["GateType", "Gate", "Netlist", "NetlistError"]


class GateType:
    """Enumeration of supported gate types.

    Plain string constants (not :class:`enum.Enum`) keep the netlist cheap to
    construct and trivially serialisable to ``.bench`` files.
    """

    INPUT = "INPUT"
    CONST0 = "CONST0"
    CONST1 = "CONST1"
    BUF = "BUF"
    NOT = "NOT"
    AND = "AND"
    NAND = "NAND"
    OR = "OR"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    MUX = "MUX"  # fanins: (select, if_false, if_true)

    ALL = (INPUT, CONST0, CONST1, BUF, NOT, AND, NAND, OR, NOR, XOR, XNOR, MUX)

    #: gate types with a fixed arity; ``None`` entries accept 2+ fanins.
    _ARITY = {
        INPUT: 0,
        CONST0: 0,
        CONST1: 0,
        BUF: 1,
        NOT: 1,
        MUX: 3,
    }

    @classmethod
    def arity(cls, gate_type: str) -> Optional[int]:
        """Return the required fan-in count, or ``None`` for variadic gates."""
        if gate_type not in cls.ALL:
            raise NetlistError(f"unknown gate type {gate_type!r}")
        return cls._ARITY.get(gate_type)


class NetlistError(CircuitParseError):
    """Raised for malformed netlists (unknown nets, bad arity, cycles)."""


@dataclass
class Gate:
    """A single named gate: output net ``name`` driven by ``gate_type``."""

    name: str
    gate_type: str
    fanins: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        required = GateType.arity(self.gate_type)
        actual = len(self.fanins)
        if required is not None and actual != required:
            raise NetlistError(
                f"gate {self.name!r} of type {self.gate_type} needs "
                f"{required} fanins, got {actual}"
            )
        if required is None and actual < 2:
            raise NetlistError(
                f"gate {self.name!r} of type {self.gate_type} needs >=2 "
                f"fanins, got {actual}"
            )


class Netlist:
    """A combinational gate-level netlist.

    Nets are identified by string names.  Every net is driven by exactly one
    gate.  The netlist is a DAG; cycles are rejected by :meth:`validate`.

    Example
    -------
    >>> nl = Netlist("half_adder")
    >>> nl.add_input("a"); nl.add_input("b")
    >>> nl.add_gate("sum", GateType.XOR, ["a", "b"])
    >>> nl.add_gate("carry", GateType.AND, ["a", "b"])
    >>> nl.set_outputs(["sum", "carry"])
    """

    def __init__(self, name: str = "netlist"):
        self.name = name
        self._gates: Dict[str, Gate] = {}
        self._inputs: List[str] = []
        self._outputs: List[str] = []
        #: :meth:`topological_order`'s last answer; ``_add`` drops it
        self._order: Optional[List[str]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> str:
        """Declare a primary input net and return its name."""
        self._add(Gate(name, GateType.INPUT))
        self._inputs.append(name)
        return name

    def add_gate(self, name: str, gate_type: str, fanins: Sequence[str] = ()) -> str:
        """Add a gate driving net ``name`` and return the net name."""
        if gate_type == GateType.INPUT:
            raise NetlistError("use add_input() for primary inputs")
        self._add(Gate(name, gate_type, tuple(fanins)))
        return name

    def set_outputs(self, names: Iterable[str]) -> None:
        """Declare the primary outputs (replaces any previous list)."""
        self._outputs = list(names)

    def add_output(self, name: str) -> None:
        """Append one primary output."""
        self._outputs.append(name)

    def _add(self, gate: Gate) -> None:
        if gate.name in self._gates:
            raise NetlistError(f"net {gate.name!r} already driven")
        self._gates[gate.name] = gate
        self._order = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> List[str]:
        return list(self._inputs)

    @property
    def outputs(self) -> List[str]:
        return list(self._outputs)

    @property
    def gates(self) -> List[Gate]:
        return list(self._gates.values())

    def gate(self, name: str) -> Gate:
        try:
            return self._gates[name]
        except KeyError:
            raise NetlistError(f"no gate drives net {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._gates

    def __len__(self) -> int:
        return len(self._gates)

    def num_gates(self, *, exclude_inputs: bool = True) -> int:
        """Number of gates, excluding primary inputs by default."""
        if exclude_inputs:
            return sum(
                1 for g in self._gates.values() if g.gate_type != GateType.INPUT
            )
        return len(self._gates)

    def gate_type_counts(self) -> Dict[str, int]:
        """Histogram of gate types (used for Table IV's imbalance analysis)."""
        counts: Dict[str, int] = {}
        for g in self._gates.values():
            counts[g.gate_type] = counts.get(g.gate_type, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check that every fan-in exists, outputs exist, and no cycles."""
        for g in self._gates.values():
            for f in g.fanins:
                if f not in self._gates:
                    raise NetlistError(
                        f"gate {g.name!r} references undriven net {f!r}"
                    )
        for o in self._outputs:
            if o not in self._gates:
                raise NetlistError(f"output {o!r} is not driven")
        self.topological_order()  # raises on cycles

    def topological_order(self) -> List[str]:
        """Return net names in topological order (inputs first).

        The order is sorted once and kept until a gate is added; each
        call returns a fresh copy of it.

        Raises
        ------
        NetlistError
            If the netlist contains a combinational cycle.
        """
        if self._order is None:
            self._order = self._sort()
        return list(self._order)

    def _sort(self) -> List[str]:
        indegree = {name: len(g.fanins) for name, g in self._gates.items()}
        fanouts: Dict[str, List[str]] = {name: [] for name in self._gates}
        for name, g in self._gates.items():
            for f in g.fanins:
                if f in fanouts:
                    fanouts[f].append(name)
        ready = [n for n, d in indegree.items() if d == 0]
        order: List[str] = []
        while ready:
            n = ready.pop()
            order.append(n)
            for s in fanouts[n]:
                indegree[s] -= 1
                if indegree[s] == 0:
                    ready.append(s)
        if len(order) != len(self._gates):
            raise NetlistError("netlist contains a combinational cycle")
        return order

    def levels(self) -> Dict[str, int]:
        """Logic level of each net (inputs and constants at level 0)."""
        level: Dict[str, int] = {}
        for name in self.topological_order():
            g = self._gates[name]
            if not g.fanins:
                level[name] = 0
            else:
                level[name] = 1 + max(level[f] for f in g.fanins)
        return level

    def depth(self) -> int:
        """Maximum logic level over all nets (0 for input-only netlists)."""
        lv = self.levels()
        return max(lv.values()) if lv else 0

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, input_values: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Evaluate the netlist on packed-word input values.

        Parameters
        ----------
        input_values:
            Maps each primary-input name to a numpy array (any shape) of
            ``uint64`` words (64 patterns per word) or booleans.  All arrays
            must share one shape.

        Returns
        -------
        dict
            Net name -> value array for *every* net.
        """
        values: Dict[str, np.ndarray] = {}
        shape: Optional[Tuple[int, ...]] = None
        for name in self._inputs:
            if name not in input_values:
                raise NetlistError(f"missing value for input {name!r}")
            arr = np.asarray(input_values[name])
            if shape is None:
                shape = arr.shape
            elif arr.shape != shape:
                raise NetlistError("input value arrays must share one shape")
            values[name] = arr
        if shape is None:
            shape = (1,)
        is_packed = any(v.dtype == np.uint64 for v in values.values()) or not values
        ones = (
            np.full(shape, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
            if is_packed
            else np.ones(shape, dtype=bool)
        )
        zeros = np.zeros(shape, dtype=np.uint64 if is_packed else bool)

        for name in self.topological_order():
            g = self._gates[name]
            if g.gate_type == GateType.INPUT:
                continue
            values[name] = _eval_gate(g, values, ones, zeros)
        return values

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def copy(self) -> "Netlist":
        """Deep copy of the netlist."""
        out = Netlist(self.name)
        for name in self._inputs:
            out.add_input(name)
        for g in self._gates.values():
            if g.gate_type != GateType.INPUT:
                out.add_gate(g.name, g.gate_type, g.fanins)
        out.set_outputs(self._outputs)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Netlist({self.name!r}, inputs={len(self._inputs)}, "
            f"gates={self.num_gates()}, outputs={len(self._outputs)})"
        )


def _eval_gate(
    gate: Gate,
    values: Mapping[str, np.ndarray],
    ones: np.ndarray,
    zeros: np.ndarray,
) -> np.ndarray:
    """Compute one gate's output from already-computed fan-in values."""
    t = gate.gate_type
    if t == GateType.CONST0:
        return zeros
    if t == GateType.CONST1:
        return ones
    ins = [values[f] for f in gate.fanins]
    if t == GateType.BUF:
        return ins[0]
    if t == GateType.NOT:
        return ins[0] ^ ones
    if t == GateType.MUX:
        sel, a, b = ins
        return (sel & b) | ((sel ^ ones) & a)
    acc = ins[0]
    if t in (GateType.AND, GateType.NAND):
        for v in ins[1:]:
            acc = acc & v
    elif t in (GateType.OR, GateType.NOR):
        for v in ins[1:]:
            acc = acc | v
    elif t in (GateType.XOR, GateType.XNOR):
        for v in ins[1:]:
            acc = acc ^ v
    else:  # pragma: no cover - guarded by Gate.__post_init__
        raise NetlistError(f"unknown gate type {t!r}")
    if t in (GateType.NAND, GateType.NOR, GateType.XNOR):
        acc = acc ^ ones
    return acc
