"""Unit tests for the gate-level netlist IR."""

import numpy as np
import pytest

from repro.aig import GateType, Netlist, NetlistError, aiger, bench
from repro.datagen.generators import ripple_adder
from repro.serve.service import canonicalize, parse_circuit

from ..helpers import random_netlist


def half_adder() -> Netlist:
    nl = Netlist("ha")
    nl.add_input("a")
    nl.add_input("b")
    nl.add_gate("sum", GateType.XOR, ["a", "b"])
    nl.add_gate("carry", GateType.AND, ["a", "b"])
    nl.set_outputs(["sum", "carry"])
    return nl


class TestConstruction:
    def test_inputs_tracked_in_order(self):
        nl = Netlist()
        nl.add_input("x")
        nl.add_input("y")
        assert nl.inputs == ["x", "y"]

    def test_duplicate_net_rejected(self):
        nl = Netlist()
        nl.add_input("x")
        with pytest.raises(NetlistError, match="already driven"):
            nl.add_gate("x", GateType.NOT, ["x"])

    def test_input_via_add_gate_rejected(self):
        nl = Netlist()
        with pytest.raises(NetlistError, match="add_input"):
            nl.add_gate("x", GateType.INPUT)

    def test_unary_arity_enforced(self):
        nl = Netlist()
        nl.add_input("a")
        nl.add_input("b")
        with pytest.raises(NetlistError, match="needs 1 fanins"):
            nl.add_gate("n", GateType.NOT, ["a", "b"])

    def test_mux_arity_enforced(self):
        nl = Netlist()
        nl.add_input("a")
        with pytest.raises(NetlistError, match="needs 3 fanins"):
            nl.add_gate("m", GateType.MUX, ["a", "a"])

    def test_binary_gates_need_two_fanins(self):
        nl = Netlist()
        nl.add_input("a")
        with pytest.raises(NetlistError, match=">=2"):
            nl.add_gate("g", GateType.AND, ["a"])

    def test_unknown_gate_type_rejected(self):
        nl = Netlist()
        nl.add_input("a")
        with pytest.raises(NetlistError, match="unknown gate type"):
            nl.add_gate("g", "FROB", ["a", "a"])

    def test_variadic_gates_accept_many_fanins(self):
        nl = Netlist()
        nets = [nl.add_input(f"i{k}") for k in range(5)]
        nl.add_gate("g", GateType.OR, nets)
        assert len(nl.gate("g").fanins) == 5


class TestValidation:
    def test_valid_netlist_passes(self):
        half_adder().validate()

    def test_undriven_fanin_detected(self):
        nl = Netlist()
        nl.add_input("a")
        nl.add_gate("g", GateType.AND, ["a", "ghost"])
        with pytest.raises(NetlistError, match="undriven"):
            nl.validate()

    def test_undriven_output_detected(self):
        nl = Netlist()
        nl.add_input("a")
        nl.set_outputs(["ghost"])
        with pytest.raises(NetlistError, match="not driven"):
            nl.validate()

    def test_cycle_detected(self):
        nl = Netlist()
        nl.add_input("a")
        nl.add_gate("g1", GateType.AND, ["a", "g2"])
        nl.add_gate("g2", GateType.AND, ["a", "g1"])
        nl.set_outputs(["g2"])
        with pytest.raises(NetlistError, match="cycle"):
            nl.validate()

    def test_missing_net_lookup(self):
        with pytest.raises(NetlistError, match="no gate drives"):
            Netlist().gate("nope")


class TestStructure:
    def test_topological_order_respects_dependencies(self):
        nl = half_adder()
        order = nl.topological_order()
        assert order.index("a") < order.index("sum")
        assert order.index("b") < order.index("carry")

    def test_levels(self):
        nl = Netlist()
        nl.add_input("a")
        nl.add_gate("n1", GateType.NOT, ["a"])
        nl.add_gate("n2", GateType.NOT, ["n1"])
        nl.set_outputs(["n2"])
        assert nl.levels() == {"a": 0, "n1": 1, "n2": 2}
        assert nl.depth() == 2

    def test_num_gates_excludes_inputs(self):
        nl = half_adder()
        assert nl.num_gates() == 2
        assert nl.num_gates(exclude_inputs=False) == 4

    def test_gate_type_counts(self):
        counts = half_adder().gate_type_counts()
        assert counts[GateType.INPUT] == 2
        assert counts[GateType.XOR] == 1
        assert counts[GateType.AND] == 1

    def test_copy_is_independent(self):
        nl = half_adder()
        cp = nl.copy()
        cp.add_gate("extra", GateType.NOT, ["sum"])
        assert "extra" in cp
        assert "extra" not in nl
        assert cp.outputs == nl.outputs


class TestOrderCache:
    """The topological order is sorted once per set of gates."""

    @pytest.fixture
    def sorts(self, monkeypatch):
        count = [0]
        sort = Netlist._sort

        def counting_sort(netlist):
            count[0] += 1
            return sort(netlist)

        monkeypatch.setattr(Netlist, "_sort", counting_sort)
        return count

    def test_a_bench_query_sorts_once(self, sorts):
        text = bench.dumps(ripple_adder(3))
        sorts[0] = 0
        parse_circuit(text, "bench")
        assert sorts[0] == 1

    def test_adding_a_gate_forces_a_fresh_sort(self, sorts):
        nl = half_adder()
        nl.validate()
        nl.validate()
        assert sorts[0] == 1
        nl.add_gate("nsum", GateType.NOT, ["sum"])
        order = nl.topological_order()
        assert sorts[0] == 2
        assert order.index("sum") < order.index("nsum")

    def test_a_cycle_closed_after_validate_still_raises(self):
        nl = half_adder()
        nl.validate()
        nl.add_gate("g1", GateType.AND, ["sum", "g2"])
        nl.add_gate("g2", GateType.AND, ["carry", "g1"])
        with pytest.raises(NetlistError, match="cycle"):
            nl.validate()

    def test_callers_get_a_copy(self):
        nl = half_adder()
        nl.topological_order().reverse()
        nl.topological_order().clear()
        order = nl.topological_order()
        assert len(order) == 4
        assert order.index("a") < order.index("sum")

    @pytest.mark.parametrize("seed", range(5))
    def test_aigs_and_hashes_match_a_sort_per_call(self, seed, monkeypatch):
        text = bench.dumps(random_netlist(np.random.default_rng(seed), 5, 30))
        cached = canonicalize(parse_circuit(text, "bench"))
        monkeypatch.setattr(Netlist, "topological_order", Netlist._sort)
        resorted = canonicalize(parse_circuit(text, "bench"))
        assert cached[0] == resorted[0]
        assert aiger.dumps(cached[1]) == aiger.dumps(resorted[1])


class TestEvaluate:
    def test_boolean_evaluation_half_adder(self):
        nl = half_adder()
        a = np.array([0, 0, 1, 1], dtype=bool)
        b = np.array([0, 1, 0, 1], dtype=bool)
        vals = nl.evaluate({"a": a, "b": b})
        assert vals["sum"].tolist() == [False, True, True, False]
        assert vals["carry"].tolist() == [False, False, False, True]

    def test_packed_evaluation_matches_boolean(self):
        nl = half_adder()
        a = np.array([0b0011], dtype=np.uint64)
        b = np.array([0b0101], dtype=np.uint64)
        vals = nl.evaluate({"a": a, "b": b})
        assert int(vals["sum"][0]) & 0xF == 0b0110
        assert int(vals["carry"][0]) & 0xF == 0b0001

    def test_every_gate_type_semantics(self):
        nl = Netlist()
        nl.add_input("a")
        nl.add_input("b")
        nl.add_input("s")
        cases = {
            "t_and": (GateType.AND, ["a", "b"]),
            "t_nand": (GateType.NAND, ["a", "b"]),
            "t_or": (GateType.OR, ["a", "b"]),
            "t_nor": (GateType.NOR, ["a", "b"]),
            "t_xor": (GateType.XOR, ["a", "b"]),
            "t_xnor": (GateType.XNOR, ["a", "b"]),
            "t_not": (GateType.NOT, ["a"]),
            "t_buf": (GateType.BUF, ["a"]),
            "t_mux": (GateType.MUX, ["s", "a", "b"]),
            "t_c0": (GateType.CONST0, []),
            "t_c1": (GateType.CONST1, []),
        }
        for name, (t, fi) in cases.items():
            nl.add_gate(name, t, fi)
        nl.set_outputs(list(cases))
        a = np.array([0, 0, 1, 1, 0, 0, 1, 1], dtype=bool)
        b = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=bool)
        s = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=bool)
        v = nl.evaluate({"a": a, "b": b, "s": s})
        np.testing.assert_array_equal(v["t_and"], a & b)
        np.testing.assert_array_equal(v["t_nand"], ~(a & b))
        np.testing.assert_array_equal(v["t_or"], a | b)
        np.testing.assert_array_equal(v["t_nor"], ~(a | b))
        np.testing.assert_array_equal(v["t_xor"], a ^ b)
        np.testing.assert_array_equal(v["t_xnor"], ~(a ^ b))
        np.testing.assert_array_equal(v["t_not"], ~a)
        np.testing.assert_array_equal(v["t_buf"], a)
        np.testing.assert_array_equal(v["t_mux"], np.where(s, b, a))
        assert not v["t_c0"].any()
        assert v["t_c1"].all()

    def test_missing_input_value_rejected(self):
        nl = half_adder()
        with pytest.raises(NetlistError, match="missing value"):
            nl.evaluate({"a": np.zeros(1, dtype=bool)})

    def test_mismatched_shapes_rejected(self):
        nl = half_adder()
        with pytest.raises(NetlistError, match="share one shape"):
            nl.evaluate(
                {"a": np.zeros(1, dtype=bool), "b": np.zeros(2, dtype=bool)}
            )
