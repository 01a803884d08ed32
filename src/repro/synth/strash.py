"""Structural hashing (strash) for AIG construction.

Structural hashing is the workhorse of ABC-style synthesis: every 2-input
AND is canonicalised (ordered fan-ins) and looked up in a hash table, so
structurally identical sub-functions are built exactly once.  Constant and
trivial-identity simplifications are applied on the fly, together with a
small set of one-level rewrite rules (containment / contradiction), which is
what gives the "optimised circuit" inductive bias the paper relies on.
"""

from __future__ import annotations

import hashlib
import heapq
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..aig.graph import (
    AIG,
    CONST0_LIT,
    CONST1_LIT,
    lit_make,
    lit_negate,
    lit_var,
)

__all__ = ["StrashBuilder", "strash", "structural_hash"]


class StrashBuilder:
    """AIG builder with structural hashing and local simplification.

    Compared with :class:`repro.aig.AIGBuilder`, ``add_and`` here never
    creates duplicate structure and applies these rules:

    * ``a & a = a``; ``a & !a = 0``; ``a & 1 = a``; ``a & 0 = 0``
    * containment: ``a & (a & b) = (a & b)``
    * contradiction: ``a & (!a & b) = 0`` (checked one level deep)
    """

    def __init__(self, num_pis: int, name: str = "aig"):
        self.name = name
        self.num_pis = num_pis
        self._ands: List[Tuple[int, int]] = []
        self._outputs: List[int] = []
        self._table: Dict[Tuple[int, int], int] = {}  # (lit0, lit1) -> var
        self._levels: List[int] = [0] * (1 + num_pis)  # per-var logic level

    # -- literals ---------------------------------------------------------
    def pi_lit(self, i: int) -> int:
        if not 0 <= i < self.num_pis:
            raise IndexError(f"PI index {i} out of range")
        return lit_make(1 + i)

    @property
    def const0(self) -> int:
        return CONST0_LIT

    @property
    def const1(self) -> int:
        return CONST1_LIT

    # -- core -------------------------------------------------------------
    def add_and(self, a: int, b: int) -> int:
        """Return a literal computing ``a & b``, reusing structure.

        Every strash runs this once per AND, so it works on plain ints
        with the rules inlined: ``lit >> 1`` is a literal's variable and
        ``lit ^ 1`` its complement.
        """
        if a > b:
            a, b = b, a
        # constants and trivial identities
        if a == CONST0_LIT:
            return CONST0_LIT
        if a == CONST1_LIT or a == b:
            return b
        if a == b ^ 1:
            return CONST0_LIT
        # one-level rules when b is a non-complemented AND: containment
        # a & (a & c) = (a & c) and contradiction a & (!a & c) = 0.  An
        # AND's fan-ins and their complements are below its own literal,
        # so they can never equal the larger operand b: expanding a
        # instead never applies
        first_and = 1 + self.num_pis
        ands = self._ands
        if not b & 1 and b >> 1 >= first_and:
            f0, f1 = ands[(b >> 1) - first_and]
            if a == f0 or a == f1:
                return b
            if a ^ 1 == f0 or a ^ 1 == f1:
                return CONST0_LIT
        key = (a, b)
        var = self._table.get(key)
        if var is None:
            var = first_and + len(ands)
            if b >> 1 >= var:
                lit = a if a >> 1 >= var else b
                raise ValueError(f"fan-in literal {lit} not yet defined")
            ands.append(key)
            self._table[key] = var
            levels = self._levels
            levels.append(1 + max(levels[a >> 1], levels[b >> 1]))
        return var << 1

    def level_of(self, lit: int) -> int:
        """Logic level of the variable behind ``lit`` (PIs/consts at 0)."""
        return self._levels[lit_var(lit)]

    # -- convenience logic ops (used by transform and generators) ---------
    def add_not(self, a: int) -> int:
        return lit_negate(a)

    def add_or(self, a: int, b: int) -> int:
        return lit_negate(self.add_and(lit_negate(a), lit_negate(b)))

    def add_nand(self, a: int, b: int) -> int:
        return lit_negate(self.add_and(a, b))

    def add_nor(self, a: int, b: int) -> int:
        return self.add_and(lit_negate(a), lit_negate(b))

    def add_xor(self, a: int, b: int) -> int:
        # a ^ b = !( !(a & !b) & !(!a & b) )
        t0 = self.add_and(a, lit_negate(b))
        t1 = self.add_and(lit_negate(a), b)
        return self.add_or(t0, t1)

    def add_xnor(self, a: int, b: int) -> int:
        return lit_negate(self.add_xor(a, b))

    def add_mux(self, sel: int, if_false: int, if_true: int) -> int:
        """2:1 multiplexer: ``sel ? if_true : if_false``."""
        t = self.add_and(sel, if_true)
        f = self.add_and(lit_negate(sel), if_false)
        return self.add_or(t, f)

    def add_and_tree(self, lits: List[int]) -> int:
        """Depth-aware conjunction of arbitrarily many literals.

        Operands are merged lowest-level-first (Huffman style), which is the
        balancing strategy ABC's ``balance`` pass uses for AND supergates.
        """
        if not lits:
            return CONST1_LIT
        heap = [(self.level_of(lit), k, lit) for k, lit in enumerate(lits)]
        heapq.heapify(heap)
        counter = len(lits)
        while len(heap) > 1:
            _, _, a = heapq.heappop(heap)
            _, _, b = heapq.heappop(heap)
            c = self.add_and(a, b)
            heapq.heappush(heap, (self.level_of(c), counter, c))
            counter += 1
        return heap[0][2]

    def add_or_tree(self, lits: List[int]) -> int:
        """Balanced disjunction of arbitrarily many literals."""
        return lit_negate(self.add_and_tree([lit_negate(x) for x in lits]))

    def add_xor_tree(self, lits: List[int]) -> int:
        """Balanced parity of arbitrarily many literals."""
        if not lits:
            return CONST0_LIT
        layer = list(lits)
        while len(layer) > 1:
            nxt = [
                self.add_xor(layer[k], layer[k + 1])
                for k in range(0, len(layer) - 1, 2)
            ]
            if len(layer) % 2:
                nxt.append(layer[-1])
            layer = nxt
        return layer[0]

    # -- outputs / build ----------------------------------------------------
    def add_output(self, lit: int) -> None:
        self._outputs.append(lit)

    @property
    def num_ands(self) -> int:
        return len(self._ands)

    def build(self, name: Optional[str] = None) -> AIG:
        """The AIG built so far, marked as a strash fixed point.

        Every AND went through :meth:`add_and`, so rebuilding the result
        through a fresh builder re-creates each AND at its own index:
        its fan-ins map to themselves, it is already ordered and
        simplified, and no earlier AND shares its key.  :func:`strash`
        therefore returns a marked AIG as is.
        """
        ands = np.asarray(self._ands, dtype=np.int64).reshape(-1, 2)
        aig = AIG(self.num_pis, ands, self._outputs, name or self.name)
        aig._strashed = True
        return aig


def strash(aig: AIG) -> AIG:
    """Rebuild ``aig`` through a :class:`StrashBuilder`.

    Merges structurally identical nodes, propagates constants and applies
    the one-level rules.  The result is functionally equivalent.  An AIG
    a :class:`StrashBuilder` built (a strash output, or a
    ``netlist_to_aig`` or ``balance`` one) is returned as is: the rebuild
    would reproduce it exactly (see :meth:`StrashBuilder.build`).
    """
    if aig._strashed:
        return aig
    b = StrashBuilder(aig.num_pis, aig.name)
    add_and = b.add_and
    # old variable -> new literal; constant 0 and the PIs map to themselves
    lit_of = list(range(0, 2 * (1 + aig.num_pis), 2))
    for a0, a1 in aig.ands.tolist():
        lit_of.append(
            add_and(lit_of[a0 >> 1] ^ (a0 & 1), lit_of[a1 >> 1] ^ (a1 & 1))
        )
    for o in aig.outputs:
        b.add_output(lit_of[o >> 1] ^ (o & 1))
    return b.build()


def structural_hash(aig: AIG, canonicalize: bool = True) -> str:
    """Name-independent sha256 fingerprint of ``aig``'s structure.

    The hash covers the PI count, the AND fan-in table and the output
    literals — everything that defines the graph — and nothing else, so
    two parses of the same circuit under different names collide (which is
    the point: it is the compilation-cache key for ``repro serve``).  With
    ``canonicalize`` (the default) the AIG is first rebuilt through
    :func:`strash`, merging duplicate structure, so lightly redundant
    variants of the same netlist also map to one key.
    """
    if canonicalize:
        aig = strash(aig)
    h = hashlib.sha256()
    outputs = ",".join(str(int(o)) for o in aig.outputs)
    h.update(f"aig1:{aig.num_pis}:{aig.num_ands}:{outputs}:".encode("ascii"))
    h.update(np.ascontiguousarray(aig.ands, dtype=np.int64).tobytes())
    return h.hexdigest()
