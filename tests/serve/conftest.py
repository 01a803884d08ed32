"""Shared fixtures and helpers: one tiny model, a few circuit texts, a
renamer and a reference forward."""

import numpy as np
import pytest

from repro.aig import aiger, bench
from repro.datagen.generators import comparator, ripple_adder
from repro.graphdata.dataset import PreparedBatch
from repro.graphdata.features import inference_graph
from repro.models import DeepGate
from repro.nn.tensor import no_grad
from repro.serve.service import canonicalize, parse_circuit
from repro.synth import netlist_to_aig


@pytest.fixture(scope="session")
def model():
    return DeepGate(dim=12, num_iterations=2, rng=np.random.default_rng(0))


@pytest.fixture(scope="session")
def adder_netlist():
    return ripple_adder(3)


@pytest.fixture(scope="session")
def adder_aag(adder_netlist):
    return aiger.dumps(netlist_to_aig(adder_netlist))


@pytest.fixture(scope="session")
def adder_bench(adder_netlist):
    return bench.dumps(adder_netlist)


@pytest.fixture(scope="session")
def comparator_aag():
    return aiger.dumps(netlist_to_aig(comparator(3)))


def rename_bench(text: str, prefix: str = "net_") -> str:
    """The same .bench circuit with every signal renamed."""
    names = set()
    for line in text.splitlines():
        head, _, rest = line.partition("=")
        if rest:
            names.add(head.strip())
        elif "(" in line:
            names.add(line.split("(", 1)[1].rstrip(")").strip())
    renamed = text
    for name in sorted(names, key=len, reverse=True):
        renamed = renamed.replace(name, prefix + name)
    return renamed


def direct_forward(model, text, fmt, num_iterations):
    """Key and predictions of a plain single-circuit forward of ``text``."""
    key, canonical = canonicalize(parse_circuit(text, fmt))
    with no_grad():
        out = model.forward(
            PreparedBatch(inference_graph(canonical)),
            num_iterations=num_iterations,
        )
    return key, tuple(float(p) for p in np.asarray(out.data, dtype=np.float32))
