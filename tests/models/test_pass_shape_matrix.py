"""The compiled model must match the reference on every pass shape.

This module sweeps every aggregator over both sides of the pass
runner's choice — a full pass (one window, whose backward keeps the
forward's group state) and a windowed pass (several windows, each
recomputed in the backward): compiled-vs-reference forward/gradient
equivalence plus a finite-difference spot check of the end-to-end
autograd.
"""

import numpy as np
import pytest

from repro.datagen.generators import parity, ripple_adder
from repro.graphdata import from_aig, prepare
from repro.models import DeepGate
from repro.models.propagation import use_window_budget
from repro.nn import Tensor, no_grad
from repro.synth import synthesize

CONFIGS = [
    {},
    {"aggregator": "conv_sum", "use_skip": False},
    {"aggregator": "deepset", "use_skip": False},
    {"aggregator": "gated_sum", "use_skip": False},
]
CONFIG_IDS = ["attention-skip", "conv_sum", "deepset", "gated_sum"]

#: window budget per pass shape: ``None`` runs every pass as one window;
#: 7 nodes splits each pass of the test batches into many windows
PASS_SHAPES = {"full": None, "windowed": 7}


def make_batch():
    g1 = from_aig(synthesize(ripple_adder(4)), num_patterns=256, seed=0)
    g2 = from_aig(synthesize(parity(5)), num_patterns=256, seed=1)
    return prepare([g1, g2])


def make_pair(**kwargs):
    defaults = dict(dim=8, num_iterations=2)
    defaults.update(kwargs)
    ref = DeepGate(rng=np.random.default_rng(0), compiled=False, **defaults)
    fast = DeepGate(rng=np.random.default_rng(0), compiled=True, **defaults)
    return ref, fast


@pytest.mark.parametrize("shape", list(PASS_SHAPES))
@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
class TestEquivalenceMatrix:
    def test_forward_matches(self, config, shape):
        batch = make_batch()
        ref, fast = make_pair(**config)
        with no_grad():
            expected = ref(batch).data
        with use_window_budget(PASS_SHAPES[shape]), no_grad():
            actual = fast(batch).data
        np.testing.assert_allclose(actual, expected, rtol=1e-5, atol=1e-6)

    def test_gradients_match(self, config, shape):
        batch = make_batch()
        ref, fast = make_pair(**config)
        # smooth loss: L1's kink would amplify round-off into mismatches
        weights = Tensor(
            np.linspace(-1.0, 1.0, batch.num_nodes).astype(np.float32)
        )
        (ref(batch) * weights).sum().backward()
        with use_window_budget(PASS_SHAPES[shape]):
            (fast(batch) * weights).sum().backward()
        for (name, p_ref), (_, p_fast) in zip(
            ref.named_parameters(), fast.named_parameters()
        ):
            assert p_ref.grad is not None and p_fast.grad is not None, name
            np.testing.assert_allclose(
                p_ref.grad, p_fast.grad, rtol=2e-4, atol=2e-5,
                err_msg=f"gradient mismatch for {name} ({shape})",
            )


@pytest.mark.parametrize("shape", list(PASS_SHAPES))
class TestFiniteDifferenceMatrix:
    """FD spot check of the whole compiled stack per pass shape."""

    def test_parameter_gradients(self, shape):
        g = from_aig(
            synthesize(ripple_adder(3)), num_patterns=128, seed=0
        )
        batch = prepare([g])
        model = DeepGate(
            dim=6, num_iterations=2, rng=np.random.default_rng(0),
            compiled=True,
        )
        weights = Tensor(
            np.linspace(0.2, 1.0, batch.num_nodes).astype(np.float32)
        )

        def loss_value() -> float:
            with no_grad():
                return float((model(batch).data * weights.data).sum())

        with use_window_budget(PASS_SHAPES[shape]):
            model.zero_grad()
            (model(batch) * weights).sum().backward()
            rng = np.random.default_rng(7)
            # the model's sigmoid chain has real curvature: a 1e-2 step
            # (fine for single kernels) leaves visible truncation error,
            # while the loss is ~16 so float32 round-off is still far
            # below a 2e-3 step's secant
            eps = 2e-3
            for name, p in model.named_parameters():
                assert p.grad is not None, name
                flat = p.data.reshape(-1)
                gflat = np.asarray(p.grad).reshape(-1)
                idx = int(rng.integers(flat.size))
                orig = flat[idx]
                flat[idx] = orig + eps
                fp = loss_value()
                flat[idx] = orig - eps
                fm = loss_value()
                flat[idx] = orig
                numeric = (fp - fm) / (2.0 * eps)
                np.testing.assert_allclose(
                    gflat[idx], numeric, atol=2e-2, rtol=8e-2,
                    err_msg=f"FD mismatch for {name}[{idx}] ({shape})",
                )
