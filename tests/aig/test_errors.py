"""Parse errors carry a common base type and 1-based line numbers.

``repro serve`` maps :class:`CircuitParseError` to a structured 400
reply whose ``line`` field comes straight from the exception, so every
front-end parser must raise through the shared base with the location
attached whenever it is known.
"""

import pytest

from repro.aig import CircuitParseError, NetlistError, aiger, bench, verilog


class TestCommonBase:
    def test_aiger_error_is_circuit_parse_error(self):
        with pytest.raises(CircuitParseError):
            aiger.loads("aag nonsense\n")

    def test_bench_error_is_circuit_parse_error(self):
        with pytest.raises(CircuitParseError):
            bench.loads("INPUT(a)\nb = FROB(a)\n")

    def test_verilog_error_is_circuit_parse_error(self):
        with pytest.raises(CircuitParseError):
            verilog.loads("module m; endmodule extra")

    def test_netlist_error_is_circuit_parse_error(self):
        assert issubclass(NetlistError, CircuitParseError)


class TestLineNumbers:
    def test_aiger_bad_header_line(self):
        with pytest.raises(aiger.AigerError) as info:
            aiger.loads("aag 2 1 0 1\nrest\n")
        assert info.value.line == 1
        assert "line 1" in str(info.value)

    def test_aiger_bad_body_line(self):
        with pytest.raises(aiger.AigerError) as info:
            aiger.loads("aag 1 1 0 1 0\n2\nnonsense\n")
        assert info.value.line == 3

    # structural faults surface with their line too, not only from the
    # AIG constructor: (text, line, message)
    STRUCTURAL = [
        ("aag 3 1 0 1 2\n2\n6\n4 6 2\n6 2 2\n", 4,
         "AND var 2: fan-in literal 6 is not an earlier variable"),
        ("aag 3 1 0 1 2\n2\n6\n4 2 2\n6 -4 2\n", 5,
         "AND var 3: fan-in literal -4 is not an earlier variable"),
        ("aag 3 1 0 2 2\n2\n6\n8\n4 2 3\n6 4 2\n", 4,
         "output literal 8 out of range"),
    ]

    @pytest.mark.parametrize(
        "text,line,message", STRUCTURAL,
        ids=["later_fanin", "negative_fanin", "output_out_of_range"],
    )
    def test_aiger_structural_fault_line(self, text, line, message):
        with pytest.raises(aiger.AigerError) as info:
            aiger.loads(text)
        assert info.value.line == line
        assert str(info.value).startswith(f"line {line}: {message}")

    def test_bench_bad_operator_line(self):
        with pytest.raises(NetlistError) as info:
            bench.loads("INPUT(a)\nb = FROB(a)\nOUTPUT(b)\n")
        assert info.value.line == 2

    def test_bench_unparseable_line(self):
        with pytest.raises(NetlistError) as info:
            bench.loads("INPUT(a)\n???\n")
        assert info.value.line == 2

    def test_bench_validation_faults_have_no_line(self):
        # undriven nets are netlist-level faults found only at final
        # validation; there is no single offending source line
        with pytest.raises(NetlistError) as info:
            bench.loads("OUTPUT(ghost)\n")
        assert info.value.line is None

    def test_verilog_bad_assign_line(self):
        text = "module m(input a, output y);\nassign y = a ?? a;\nendmodule\n"
        with pytest.raises(verilog.VerilogError) as info:
            verilog.loads(text)
        assert info.value.line == 2

    def test_empty_input_has_no_line(self):
        with pytest.raises(aiger.AigerError) as info:
            aiger.loads("")
        assert info.value.line is None
