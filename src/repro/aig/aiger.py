"""ASCII AIGER (``.aag``) reader and writer.

AIGER is the standard interchange format for And-Inverter Graphs produced by
ABC and consumed by model checkers and SAT flows.  Only the combinational
subset is supported (no latches), matching the paper's combinational setting.

Header: ``aag M I L O A`` with ``M`` = max variable index, ``I`` inputs,
``L`` latches (must be 0), ``O`` outputs, ``A`` AND gates.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

import numpy as np

from .errors import CircuitParseError
from .graph import AIG

__all__ = ["loads", "dumps", "load", "dump", "AigerError"]


class AigerError(CircuitParseError):
    """Raised for malformed AIGER input."""


def _ints(line: str, lineno: int) -> List[int]:
    try:
        return [int(x) for x in line.split()]
    except ValueError:
        raise AigerError(f"expected integers, got {line!r}", line=lineno)


def _statements(lines: Iterable[str]) -> Iterator[Tuple[int, str]]:
    """Yield ``(lineno, stripped)`` for each non-blank line before ``c``."""
    for lineno, raw in enumerate(lines, start=1):
        ln = raw.strip()
        if ln == "c":  # comment section runs to end of file
            return
        if ln:
            yield lineno, ln


def _parse_lines(lines: Iterable[str], name: str) -> AIG:
    """Streaming parser core: consumes lines one at a time.

    Each statement is validated as it arrives (an output literal once
    the AND lines are read), so every structural error names its line.
    Only the decoded AND table is retained, so peak memory is one line
    of text plus the ``(A, 2)`` output array — not a second copy of the
    file.
    """
    it = _statements(lines)
    header_item = next(it, None)
    if header_item is None:
        raise AigerError("empty AIGER input")
    header_line, header_text = header_item
    header = header_text.split()
    if len(header) != 6 or header[0] != "aag":
        raise AigerError(
            f"bad header {header_text!r} (binary 'aig' not supported)",
            line=header_line,
        )
    counts = _ints(" ".join(header[1:]), header_line)
    m, i, l, o, a = counts
    if min(counts) < 0:
        raise AigerError("negative count in header", line=header_line)
    if l != 0:
        raise AigerError(
            "sequential AIGER (latches) not supported", line=header_line
        )
    if m < i + a:
        raise AigerError(f"header M={m} smaller than I+A={i + a}", line=header_line)

    seen = 0
    last = header_line

    def next_body() -> Tuple[int, str]:
        nonlocal seen, last
        item = next(it, None)
        if item is None:
            raise AigerError(
                f"truncated AIGER body: {seen} lines for I+O+A={i + o + a}",
                line=last,
            )
        seen += 1
        last = item[0]
        return item

    for k in range(i):
        lineno, ln = next_body()
        lits = _ints(ln, lineno)
        if len(lits) != 1 or lits[0] != 2 * (k + 1):
            raise AigerError(
                f"input {k} has literal {ln!r}; expected canonical {2 * (k + 1)}",
                line=lineno,
            )
    outputs = []
    output_lines = []
    for k in range(o):
        lineno, ln = next_body()
        lits = _ints(ln, lineno)
        if len(lits) != 1:
            raise AigerError(f"bad output line {ln!r}", line=lineno)
        outputs.append(lits[0])
        output_lines.append(lineno)
    ands = np.empty((a, 2), dtype=np.int64)
    for k in range(a):
        lineno, ln = next_body()
        lits = _ints(ln, lineno)
        if len(lits) != 3:
            raise AigerError(f"bad AND line {ln!r}", line=lineno)
        lhs, rhs0, rhs1 = lits
        var = i + 1 + k
        if lhs != 2 * var:
            raise AigerError(
                f"AND {k} has literal {lhs}; expected canonical {2 * var}",
                line=lineno,
            )
        for lit in (rhs0, rhs1):
            if lit < 0 or lit >> 1 >= var:
                raise AigerError(
                    f"AND var {var}: fan-in literal {lit} is not an earlier "
                    "variable (AIG must be topologically ordered)",
                    line=lineno,
                )
        ands[k, 0] = rhs0
        ands[k, 1] = rhs1
    # an output may name an AND a later line defines, so outputs are
    # checked once every AND line has been read
    for lit, lineno in zip(outputs, output_lines):
        if lit < 0 or lit >> 1 > i + a:
            raise AigerError(f"output literal {lit} out of range", line=lineno)
    # the checks above are the AIG's own; its constructor is the backstop
    try:
        return AIG(i, ands, outputs, name)
    except ValueError as exc:
        raise AigerError(str(exc)) from exc


def loads(text: str, name: str = "aiger") -> AIG:
    """Parse ASCII AIGER text into an :class:`AIG`.

    Input variables must be numbered ``1..I`` and AND variables
    ``I+1..I+A`` in topological order (the normal form ABC emits).
    Malformed input raises :class:`AigerError` with the offending
    1-based line number.
    """
    return _parse_lines(text.splitlines(), name)


def dumps(aig: AIG) -> str:
    """Serialise an :class:`AIG` to ASCII AIGER text."""
    i, a, o = aig.num_pis, aig.num_ands, aig.num_outputs
    lines = [f"aag {i + a} {i} 0 {o} {a}"]
    for k in range(i):
        lines.append(str(2 * (k + 1)))
    for lit in aig.outputs:
        lines.append(str(lit))
    for k in range(a):
        lhs = 2 * (i + 1 + k)
        lines.append(f"{lhs} {int(aig.ands[k, 0])} {int(aig.ands[k, 1])}")
    lines.append(f"c\n{aig.name}")
    return "\n".join(lines) + "\n"


def load(path) -> AIG:
    """Read an ``.aag`` file from ``path``.

    The file is streamed line by line — parse memory stays O(one line)
    plus the decoded AND table, so multi-hundred-MB AIGER dumps never
    hold two text copies in RAM.
    """
    with open(path, "r", encoding="utf-8") as f:
        return _parse_lines(f, name=str(path))


def dump(aig: AIG, path) -> None:
    """Write ``aig`` to ``path`` in ASCII AIGER format."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps(aig))
