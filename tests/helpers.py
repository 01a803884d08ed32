"""Shared test utilities: circuit/dataset factories, fake experiments,
random netlist generation and equivalence checks."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

from repro.aig import AIG, GateType, Netlist
from repro.datagen.generators import parity, ripple_adder
from repro.datagen.pipeline import PipelineConfig, build_shards
from repro.graphdata import CircuitDataset, from_aig
from repro.runtime import ExperimentResult, ExperimentSpec, UnitSpec, experiment
from repro.sim import exhaustive_patterns, output_values, simulate_aig
from repro.synth import netlist_to_aig, synthesize

# ---------------------------------------------------------------------------
# tiny labelled datasets (shared by runtime/train/graphdata tests)
# ---------------------------------------------------------------------------


def tiny_circuit_dataset(
    n: int = 8, num_patterns: int = 256, name: str = "toy"
) -> CircuitDataset:
    """A small in-memory dataset of alternating adder/parity circuits.

    The one canonical recipe behind the ``make_dataset``/``tiny_dataset``
    helpers that used to be copy-pasted across the loader, dataset,
    trainer and checkpoint test modules.
    """
    graphs = []
    for k in range(n):
        nl = ripple_adder(3 + (k % 3)) if k % 2 else parity(4 + k)
        graphs.append(
            from_aig(synthesize(nl), num_patterns=num_patterns, seed=k)
        )
    return CircuitDataset(graphs, name)


def tiny_pipeline_config(**overrides) -> PipelineConfig:
    """A seconds-fast two-suite pipeline config for shard-backed tests."""
    params = dict(
        suites=(("EPFL", 3), ("ITC99", 3)),
        seed=11,
        num_patterns=256,
        max_nodes=200,
        max_levels=50,
        shard_size=2,
    )
    params.update(overrides)
    return PipelineConfig(**params)


def build_tiny_shards(out_dir, workers: int = 1, **overrides) -> Path:
    """Build (or reuse) a tiny sharded dataset under ``out_dir``."""
    build_shards(tiny_pipeline_config(**overrides), out_dir, workers=workers)
    return Path(out_dir)


# ---------------------------------------------------------------------------
# fake experiments (shared by runtime tests)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec(ExperimentSpec):
    """Spec of the fake unit-decomposed grid experiment.

    Module-level so instances pickle across the process boundary.
    """

    rows: Tuple[str, ...] = ("alpha", "beta", "gamma")
    factor: int = 2


def register_grid_experiment(
    name: str = "fake-grid",
    log_dir: Optional[Path] = None,
    unit_sleep: float = 0.0,
) -> str:
    """Register a cheap unit experiment; returns its name.

    When ``log_dir`` is given, every ``run_unit`` execution drops a
    marker file there — countable across worker processes, which is how
    the parallel tests assert "this unit ran / was cached".
    ``unit_sleep`` makes every unit take that many seconds — the
    distributed tests use it to outlive a short lease TTL and prove
    heartbeats keep slow units alive.  A unit keyed ``explode`` raises,
    until a file named ``fixed`` appears in ``log_dir`` (the bug fix a
    rerun picks up).  Callers must
    ``repro.runtime.registry.unregister(name)`` when done.
    """

    def units(spec: GridSpec):
        return [UnitSpec(key=row, title=f"row {row}") for row in spec.rows]

    def run_unit(spec: GridSpec, unit: UnitSpec):
        fixed = log_dir is not None and (Path(log_dir) / "fixed").exists()
        if unit.key == "explode" and not fixed:
            raise RuntimeError("unit exploded")
        if unit_sleep > 0:
            time.sleep(unit_sleep)
        if log_dir is not None:
            marker = (
                Path(log_dir)
                / f"exec-{unit.key}-{os.getpid()}-{time.monotonic_ns()}"
            )
            marker.write_text("")
        return {"row": unit.key, "value": len(unit.key) * spec.factor}

    @experiment(
        name, spec=GridSpec, title="Fake grid", units=units, run_unit=run_unit
    )
    def merge(spec: GridSpec, unit_results):
        return ExperimentResult(
            experiment=name,
            rows=list(unit_results),
            table="\n".join(
                f"{r['row']} {r['value']}" for r in unit_results
            ),
        )

    return name


def count_unit_executions(log_dir: Path, key: Optional[str] = None) -> int:
    """How many times ``run_unit`` actually executed (across processes)."""
    pattern = f"exec-{key}-*" if key is not None else "exec-*"
    return len(list(Path(log_dir).glob(pattern)))


#: gate types usable as random internal gates (fixed 2-input choices + unary)
_BINARY_TYPES = (
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
)


def random_netlist(
    rng: np.random.Generator,
    num_inputs: int = 4,
    num_gates: int = 12,
    num_outputs: int = 2,
    include_unary: bool = True,
    include_mux: bool = True,
) -> Netlist:
    """Build a random, valid combinational netlist.

    Each new gate draws fan-ins uniformly from already-defined nets, so the
    result is always acyclic.  Outputs are drawn from the last few gates so
    most of the structure stays live.
    """
    nl = Netlist("random")
    nets = [nl.add_input(f"i{k}") for k in range(num_inputs)]
    for g in range(num_gates):
        choice = rng.integers(0, 10)
        name = f"g{g}"
        if include_unary and choice == 0:
            nl.add_gate(name, GateType.NOT, [str(rng.choice(nets))])
        elif include_unary and choice == 1:
            nl.add_gate(name, GateType.BUF, [str(rng.choice(nets))])
        elif include_mux and choice == 2 and len(nets) >= 3:
            picks = rng.choice(len(nets), size=3, replace=True)
            nl.add_gate(name, GateType.MUX, [nets[p] for p in picks])
        else:
            t = _BINARY_TYPES[int(rng.integers(0, len(_BINARY_TYPES)))]
            arity = int(rng.integers(2, 4))
            picks = rng.choice(len(nets), size=arity, replace=True)
            nl.add_gate(name, t, [nets[p] for p in picks])
        nets.append(name)
    pool = nets[num_inputs:] or nets
    tail = pool[-max(num_outputs, 1) * 3 :]
    outs = [
        str(tail[int(rng.integers(0, len(tail)))]) for _ in range(num_outputs)
    ]
    nl.set_outputs(outs)
    nl.validate()
    return nl


def exhaustive_output_bits(aig: AIG) -> np.ndarray:
    """Output truth tables of ``aig`` as packed words, masked to valid bits."""
    pats = exhaustive_patterns(aig.num_pis)
    outs = output_values(aig, simulate_aig(aig, pats))
    total = 1 << aig.num_pis
    if total < 64:
        outs = outs & np.uint64((1 << total) - 1)
    return outs


def assert_functionally_equal(
    left: Union[AIG, Netlist], right: Union[AIG, Netlist], max_pis: int = 14
) -> None:
    """Assert two circuits compute identical output truth tables."""
    aig_l = netlist_to_aig(left) if isinstance(left, Netlist) else left
    aig_r = netlist_to_aig(right) if isinstance(right, Netlist) else right
    assert aig_l.num_pis == aig_r.num_pis, "PI counts differ"
    assert aig_l.num_outputs == aig_r.num_outputs, "output counts differ"
    assert aig_l.num_pis <= max_pis, "too many PIs for exhaustive check"
    bits_l = exhaustive_output_bits(aig_l)
    bits_r = exhaustive_output_bits(aig_r)
    assert np.array_equal(bits_l, bits_r), "output truth tables differ"
