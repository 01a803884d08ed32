"""Tests for structural hashing and the StrashBuilder logic ops."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.aig import AIG, AIGBuilder, CONST0_LIT, CONST1_LIT, aiger, lit_negate
from repro.datagen import generators
from repro.sim import exhaustive_patterns, popcount, simulate_aig
from repro.synth import (
    StrashBuilder,
    netlist_to_aig,
    strash,
    structural_hash,
    sweep,
    synthesize,
)

from ..helpers import assert_functionally_equal


def truth(builder: StrashBuilder, lit: int) -> int:
    """4-row truth table (2 PIs) of ``lit`` as an int in [0, 16)."""
    aig = _with_output(builder, lit)
    vals = simulate_aig(aig, exhaustive_patterns(2))
    word = int(vals[lit >> 1, 0]) & 0xF
    return word ^ 0xF if lit & 1 else word


def _with_output(builder: StrashBuilder, lit: int):
    snapshot = StrashBuilder(builder.num_pis)
    snapshot._ands = list(builder._ands)
    snapshot.add_output(lit)
    return snapshot.build()


class TestSimplificationRules:
    def setup_method(self):
        self.b = StrashBuilder(num_pis=2)
        self.a = self.b.pi_lit(0)
        self.c = self.b.pi_lit(1)

    def test_and_idempotent(self):
        assert self.b.add_and(self.a, self.a) == self.a

    def test_and_contradiction(self):
        assert self.b.add_and(self.a, lit_negate(self.a)) == CONST0_LIT

    def test_and_with_const0(self):
        assert self.b.add_and(self.a, CONST0_LIT) == CONST0_LIT

    def test_and_with_const1(self):
        assert self.b.add_and(self.a, CONST1_LIT) == self.a

    def test_commutative_hashing(self):
        g1 = self.b.add_and(self.a, self.c)
        g2 = self.b.add_and(self.c, self.a)
        assert g1 == g2
        assert self.b.num_ands == 1

    def test_one_level_containment(self):
        inner = self.b.add_and(self.a, self.c)
        assert self.b.add_and(self.a, inner) == inner

    def test_one_level_contradiction(self):
        inner = self.b.add_and(self.a, self.c)
        assert self.b.add_and(lit_negate(self.a), inner) == CONST0_LIT


class TestDerivedOps:
    """Each derived op must match its truth table exactly."""

    def setup_method(self):
        self.b = StrashBuilder(num_pis=2)
        self.a = self.b.pi_lit(0)  # truth 0b1010 over patterns 00,01,10,11
        self.c = self.b.pi_lit(1)  # truth 0b1100

    def test_or(self):
        assert truth(self.b, self.b.add_or(self.a, self.c)) == 0b1110

    def test_nand(self):
        assert truth(self.b, self.b.add_nand(self.a, self.c)) == 0b0111

    def test_nor(self):
        assert truth(self.b, self.b.add_nor(self.a, self.c)) == 0b0001

    def test_xor(self):
        assert truth(self.b, self.b.add_xor(self.a, self.c)) == 0b0110

    def test_xnor(self):
        assert truth(self.b, self.b.add_xnor(self.a, self.c)) == 0b1001

    def test_mux(self):
        # sel=a: out = a ? c : !c
        out = self.b.add_mux(self.a, lit_negate(self.c), self.c)
        # pattern (a,c): 00->!c=1, 01->!c? a=0 -> !c=... enumerate:
        # p0 a=0 c=0 -> if_false=!c=1; p1 a=1 c=0 -> if_true=c=0
        # p2 a=0 c=1 -> !c=0;          p3 a=1 c=1 -> c=1
        assert truth(self.b, out) == 0b1001

    def test_and_tree_empty_is_const1(self):
        assert self.b.add_and_tree([]) == CONST1_LIT

    def test_xor_tree_empty_is_const0(self):
        assert self.b.add_xor_tree([]) == CONST0_LIT

    def test_or_tree_many(self):
        b = StrashBuilder(num_pis=6)
        lits = [b.pi_lit(i) for i in range(6)]
        out = b.add_or_tree(lits)
        b.add_output(out)
        aig = b.build()
        vals = simulate_aig(aig, exhaustive_patterns(6))
        ones = popcount(vals[out >> 1 : (out >> 1) + 1])[0]
        if out & 1:
            ones = 64 - ones
        assert ones == 63  # OR of 6 vars is 1 except the all-zero pattern

    def test_level_tracking(self):
        b = StrashBuilder(num_pis=4)
        lits = [b.pi_lit(i) for i in range(4)]
        out = b.add_and_tree(lits)
        assert b.level_of(out) == 2  # balanced, not a depth-3 chain


class TestStrashPass:
    def test_merges_duplicates(self):
        b = AIGBuilder(num_pis=2)
        g1 = b.add_and(b.pi_lit(0), b.pi_lit(1))
        g2 = b.add_and(b.pi_lit(0), b.pi_lit(1))  # duplicate
        b.add_output(b.add_and(g1, g2))
        before = b.build()
        after = strash(before)
        assert after.num_ands < before.num_ands
        assert_functionally_equal(before, after)

    def test_propagates_constants(self):
        b = AIGBuilder(num_pis=1)
        # x & !x = 0 feeding another AND -> everything collapses
        z = b.add_and(b.pi_lit(0), lit_negate(b.pi_lit(0)))
        g = b.add_and(z, b.pi_lit(0))
        b.add_output(lit_negate(g))
        after = strash(b.build())
        assert after.num_ands == 0
        assert after.outputs == [CONST1_LIT]

    def test_random_netlists_preserved(self):
        from ..helpers import random_netlist
        from repro.synth import netlist_to_aig

        rng = np.random.default_rng(7)
        for _ in range(10):
            nl = random_netlist(rng, num_inputs=4, num_gates=15)
            aig = netlist_to_aig(nl)
            assert_functionally_equal(aig, strash(aig))


class TestStructuralHash:
    """structural_hash is the compilation-cache key for repro serve."""

    def _adder_bench(self):
        from repro.aig import bench
        from repro.datagen.generators import ripple_adder

        return bench.dumps(ripple_adder(3))

    def _rename(self, text, prefix="net_"):
        names = set()
        for line in text.splitlines():
            head, _, rest = line.partition("=")
            if rest:
                names.add(head.strip())
            elif "(" in line:
                names.add(line.split("(", 1)[1].rstrip(")").strip())
        for name in sorted(names, key=len, reverse=True):
            text = text.replace(name, prefix + name)
        return text

    def test_rename_invariant(self):
        from repro.aig import bench
        from repro.synth import netlist_to_aig, structural_hash

        text = self._adder_bench()
        a = netlist_to_aig(bench.loads(text))
        b = netlist_to_aig(bench.loads(self._rename(text)))
        assert structural_hash(a) == structural_hash(b)

    def test_distinct_structures_differ(self):
        from repro.datagen.generators import parity, ripple_adder
        from repro.synth import netlist_to_aig, structural_hash

        h1 = structural_hash(netlist_to_aig(ripple_adder(3)))
        h2 = structural_hash(netlist_to_aig(parity(5)))
        assert h1 != h2

    def test_canonicalize_merges_redundancy(self):
        from repro.synth import structural_hash

        def build(duplicated):
            b = AIGBuilder(num_pis=2)
            g1 = b.add_and(b.pi_lit(0), b.pi_lit(1))
            g2 = b.add_and(b.pi_lit(0), b.pi_lit(1)) if duplicated else g1
            b.add_output(b.add_and(g1, g2))
            return b.build()

        lean, fat = build(False), build(True)
        assert structural_hash(lean) == structural_hash(fat)
        assert structural_hash(
            lean, canonicalize=False
        ) != structural_hash(fat, canonicalize=False)

    def test_output_polarity_matters(self):
        from repro.synth import structural_hash

        def build(negate):
            b = AIGBuilder(num_pis=2)
            g = b.add_and(b.pi_lit(0), b.pi_lit(1))
            b.add_output(lit_negate(g) if negate else g)
            return b.build()

        assert structural_hash(build(False)) != structural_hash(build(True))

    def test_hash_is_hex_digest(self):
        from repro.synth import structural_hash

        b = AIGBuilder(num_pis=1)
        b.add_output(b.pi_lit(0))
        h = structural_hash(b.build())
        assert len(h) == 64
        int(h, 16)  # valid hex


def redundant_copy(aig):
    """``aig`` with every AND twice, fan-ins swapped in the first copy,
    and every reader taking the second copy: strash merges it back."""
    base = 1 + aig.num_pis
    lit_of = list(range(0, 2 * base, 2))
    rows = []
    for a, b in aig.ands.tolist():
        a, b = lit_of[a >> 1] ^ (a & 1), lit_of[b >> 1] ^ (b & 1)
        rows += [(b, a), (a, b)]
        lit_of.append(2 * (base + len(rows) - 1))
    outputs = [lit_of[o >> 1] ^ (o & 1) for o in aig.outputs]
    return AIG(aig.num_pis, np.asarray(rows).reshape(-1, 2), outputs, aig.name)


#: The cache keys (``structural_hash``) of generated circuits, three ways
#: per circuit: ``netlist_to_aig``; ``aiger.loads`` of its redundant copy
#: (above), then ``strash``; ``synthesize``.  They hash integer arrays
#: only, so they hold on every platform.  A strash that orders or merges
#: ANDs differently re-keys every structure ``repro serve`` caches, and
#: clients see the keys.
PINNED_KEYS = {
    "ripple_adder(4)": (
        "76016b6187f979f4f01a0c085fe70f30b771fbe9943aedf31202036e026e27df",
        "76016b6187f979f4f01a0c085fe70f30b771fbe9943aedf31202036e026e27df",
        "76016b6187f979f4f01a0c085fe70f30b771fbe9943aedf31202036e026e27df",
    ),
    "carry_select_adder(6)": (
        "7f55cef1269d32b3fc0305f0b5d997d5dc40fa77169bb5878587fd63c58660fc",
        "7f55cef1269d32b3fc0305f0b5d997d5dc40fa77169bb5878587fd63c58660fc",
        "7f55cef1269d32b3fc0305f0b5d997d5dc40fa77169bb5878587fd63c58660fc",
    ),
    "multiplier(3)": (
        "0b0df0b95ad6b36de56e530e29a01755748a7559ab2ee0b5041f04f0c5d49be8",
        "0b0df0b95ad6b36de56e530e29a01755748a7559ab2ee0b5041f04f0c5d49be8",
        "0b0df0b95ad6b36de56e530e29a01755748a7559ab2ee0b5041f04f0c5d49be8",
    ),
    "comparator(4)": (
        "cfead791134b9d58ed0857878a50dbe5e46d8fbec18b0ccde2dc2b6aa3a0048e",
        "cfead791134b9d58ed0857878a50dbe5e46d8fbec18b0ccde2dc2b6aa3a0048e",
        "f6865ae9cf2fde767a8af804eb5089d45a417d1f13c9a30a1c5ecb6703dc3d95",
    ),
    "priority_arbiter(5)": (
        "32cf369ea1bd22eb6753ec9bfdde6e13810aea37cb7abaa3dec01598580c3f20",
        "32cf369ea1bd22eb6753ec9bfdde6e13810aea37cb7abaa3dec01598580c3f20",
        "69e6bce31a5f33b86e3dd5da780ba17c355a604906371a5df6db9d4eb1a4ba69",
    ),
    "decoder(3)": (
        "f47fd994ec55fb351f17902273fd6957bfc85b12561b3670da91a457058670a1",
        "f47fd994ec55fb351f17902273fd6957bfc85b12561b3670da91a457058670a1",
        "f47fd994ec55fb351f17902273fd6957bfc85b12561b3670da91a457058670a1",
    ),
    "mux_tree(2)": (
        "bc5b0743e26642f182b11e9abee1b3b2370c5048b12b4ac28eac813e0c505291",
        "bc5b0743e26642f182b11e9abee1b3b2370c5048b12b4ac28eac813e0c505291",
        "bc5b0743e26642f182b11e9abee1b3b2370c5048b12b4ac28eac813e0c505291",
    ),
    "barrel_shifter(2)": (
        "37fd93a30c31bd61c3f00ae82a7321597a0e8ddf6bcbef67f21302de95ed2f70",
        "37fd93a30c31bd61c3f00ae82a7321597a0e8ddf6bcbef67f21302de95ed2f70",
        "37fd93a30c31bd61c3f00ae82a7321597a0e8ddf6bcbef67f21302de95ed2f70",
    ),
    "parity(6)": (
        "8b6da6aa369324b805e32735c0c4ce9522d91283c38f6628c41cd55f51b94bf8",
        "8b6da6aa369324b805e32735c0c4ce9522d91283c38f6628c41cd55f51b94bf8",
        "8b6da6aa369324b805e32735c0c4ce9522d91283c38f6628c41cd55f51b94bf8",
    ),
    "crc(8)": (
        "15311d78a9b0eeb59fa94fddd54bb993716e8cf48c2c1bcbb040fb971f64d1d1",
        "15311d78a9b0eeb59fa94fddd54bb993716e8cf48c2c1bcbb040fb971f64d1d1",
        "15311d78a9b0eeb59fa94fddd54bb993716e8cf48c2c1bcbb040fb971f64d1d1",
    ),
    "alu(3)": (
        "5168ff88f051764cc1fedc376b066b030bf537d97e7aec9d5298d19c2eb96dee",
        "5168ff88f051764cc1fedc376b066b030bf537d97e7aec9d5298d19c2eb96dee",
        "5168ff88f051764cc1fedc376b066b030bf537d97e7aec9d5298d19c2eb96dee",
    ),
    "majority_voter(5)": (
        "3ef52e1f86e62fc8464a0ab09e6dce87afc7dbd6609fc396fd49b3c08182e5f2",
        "3ef52e1f86e62fc8464a0ab09e6dce87afc7dbd6609fc396fd49b3c08182e5f2",
        "9cc45a4c78b04a759f0214ecd1ea6f41b05c015fbf8ce4b05f2b813831a44763",
    ),
}


class TestPinnedKeys:
    @pytest.mark.parametrize("circuit", sorted(PINNED_KEYS))
    def test_digests_hold(self, circuit):
        name, width = circuit[:-1].split("(")
        netlist = getattr(generators, name)(int(width))
        lowered = netlist_to_aig(netlist)
        parsed = strash(aiger.loads(aiger.dumps(redundant_copy(lowered))))
        assert parsed.num_ands == lowered.num_ands
        assert (
            structural_hash(lowered),
            structural_hash(parsed, canonicalize=False),
            structural_hash(synthesize(netlist)),
        ) == PINNED_KEYS[circuit]


# -- strash fixed point and validation parity (properties) ---------------


@st.composite
def raw_aigs(draw, max_pis=4, max_ands=14):
    """Unhashed AIGs with constant, inverted, duplicate and dangling
    fan-ins (and outputs)."""
    num_pis = draw(st.integers(0, max_pis))
    b = AIGBuilder(num_pis)
    num_ands = draw(st.integers(0, max_ands))
    for k in range(num_ands):
        defined = 2 * (1 + num_pis + k)
        a = draw(st.integers(0, defined - 1))
        c = draw(st.one_of(
            st.just(a), st.just(a ^ 1), st.integers(0, defined - 1)
        ))
        b.add_and(a, c)
    num_vars = 1 + num_pis + num_ands
    for o in draw(st.lists(st.integers(0, 2 * num_vars - 1), max_size=3)):
        b.add_output(o)
    return b.build(draw(st.sampled_from(["aig", "x"])))


@st.composite
def built_aigs(draw, max_pis=4, max_ops=14):
    """AIGs a StrashBuilder built, through its logic ops."""
    b = StrashBuilder(draw(st.integers(1, max_pis)))
    lits = [CONST0_LIT, CONST1_LIT] + [b.pi_lit(i) for i in range(b.num_pis)]
    pick = st.sampled_from(lits)
    for _ in range(draw(st.integers(0, max_ops))):
        op = draw(st.sampled_from(["and", "or", "xor", "mux"]))
        x, y = draw(pick) ^ draw(st.integers(0, 1)), draw(pick)
        if op == "mux":
            lit = b.add_mux(x, y, draw(pick))
        else:
            lit = getattr(b, f"add_{op}")(x, y)
        lits.append(lit)
        pick = st.sampled_from(lits)
    for lit in draw(st.lists(pick, max_size=3)):
        b.add_output(lit)
    return b.build()


@st.composite
def fan_in_tables(draw, max_pis=3, max_ands=6):
    """``(num_pis, rows, outputs)`` with every literal within one step of
    the valid range, so tables fail at any row, or not at all."""
    num_pis = draw(st.integers(0, max_pis))
    rows = []
    for k in range(draw(st.integers(0, max_ands))):
        lit = st.integers(-1, 2 * (1 + num_pis + k) + 1)
        rows.append((draw(lit), draw(lit)))
    num_vars = 1 + num_pis + len(rows)
    outputs = draw(st.lists(st.integers(-1, 2 * num_vars + 1), max_size=3))
    return num_pis, rows, outputs


def unmarked(aig):
    """The same AIG through the plain constructor."""
    return AIG(aig.num_pis, aig.ands, aig.outputs, aig.name)


def assert_same_aig(got, want):
    assert got.num_pis == want.num_pis
    np.testing.assert_array_equal(got.ands, want.ands)
    assert got.outputs == want.outputs
    assert got.name == want.name


def reference_validate(num_pis, ands, outputs):
    """Reference for ``AIG._validate``, one AND at a time: the message
    it must raise for the first offender, or ``None`` for a valid AIG."""
    ands = np.asarray(ands, dtype=np.int64).reshape(-1, 2)
    for i, (a, b) in enumerate(ands):
        var = 1 + num_pis + i
        for lit in (a, b):
            if lit < 0 or int(lit) >> 1 >= var:
                return (
                    f"AND var {var}: fan-in literal {lit} is not an "
                    "earlier variable (AIG must be topologically ordered)"
                )
    for o in outputs:
        if o < 0 or o >> 1 >= 1 + num_pis + len(ands):
            return f"output literal {o} out of range"
    return None


class TestStrashFixedPoint:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(aig=raw_aigs())
    def test_strash_of_strash_rebuilds_nothing(self, aig):
        once = strash(aig)
        assert once is not aig
        assert strash(once) is once
        # the rebuild the shortcut skips: it reproduces ``once`` exactly
        assert_same_aig(strash(unmarked(once)), once)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(aig=built_aigs())
    def test_builder_output_is_returned_as_is(self, aig):
        assert strash(aig) is aig
        assert_same_aig(strash(unmarked(aig)), aig)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(aig=built_aigs())
    def test_only_the_builder_marks(self, aig):
        copies = [
            aig.copy(),
            unmarked(aig),
            aiger.loads(aiger.dumps(aig), name=aig.name),
            sweep(aig),
        ]
        for copy in copies:
            again = strash(copy)
            assert again is not copy
            assert strash(again) is again

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(table=fan_in_tables())
    def test_validation_matches_the_loop(self, table):
        num_pis, rows, outputs = table
        want = reference_validate(num_pis, rows, outputs)
        ands = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
        if want is None:
            AIG(num_pis, ands, outputs)
        else:
            with pytest.raises(ValueError) as info:
                AIG(num_pis, ands, outputs)
            assert str(info.value) == want
