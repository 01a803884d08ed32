"""Tests for the DeepGate model and its configuration space."""

import numpy as np
import pytest

from repro.datagen.generators import ripple_adder
from repro.graphdata import from_aig, prepare
from repro.models import DeepGate
from repro.nn import Tensor, no_grad
from repro.synth import synthesize


def make_batch(width=4, seed=0):
    g = from_aig(synthesize(ripple_adder(width)), num_patterns=512, seed=seed)
    return prepare([g])


def make_model(**kwargs):
    defaults = dict(dim=8, num_iterations=2, rng=np.random.default_rng(0))
    defaults.update(kwargs)
    return DeepGate(**defaults)


class TestForward:
    def test_output_shape_and_range(self):
        batch = make_batch()
        model = make_model()
        with no_grad():
            pred = model(batch)
        assert pred.shape == (batch.num_nodes,)
        assert (pred.data > 0).all() and (pred.data < 1).all()

    def test_deterministic(self):
        batch = make_batch()
        model = make_model()
        with no_grad():
            a = model(batch).data
            b = model(batch).data
        np.testing.assert_array_equal(a, b)

    def test_embeddings_shape(self):
        batch = make_batch()
        model = make_model(dim=16)
        with no_grad():
            emb = model.embeddings(batch)
        assert emb.shape == (batch.num_nodes, 16)

    def test_iterations_change_predictions(self):
        batch = make_batch()
        model = make_model(num_iterations=5)
        with no_grad():
            t1 = model(batch, num_iterations=1).data
            t5 = model(batch, num_iterations=5).data
        assert not np.allclose(t1, t5)

    def test_skip_connections_change_predictions(self):
        batch = make_batch()
        with_sc = make_model(use_skip=True)
        without = make_model(use_skip=False)
        without.load_state_dict(
            {
                k: v
                for k, v in with_sc.state_dict().items()
                if "w_edge" not in k
            }
        )
        with no_grad():
            a = with_sc(batch).data
            b = without(batch).data
        assert len(batch.graph.skip_edges) > 0
        assert not np.allclose(a, b)

    def test_reverse_layer_toggle(self):
        batch = make_batch()
        fwd_only = make_model(use_reverse=False, use_skip=False)
        with no_grad():
            pred = fwd_only(batch).data
        assert pred.shape == (batch.num_nodes,)
        # reverse-layer parameters must not exist
        names = [n for n, _ in fwd_only.named_parameters()]
        assert not any("rev_" in n for n in names)

    def test_init_only_mode_uses_embedding(self):
        model = make_model(input_mode="init_only", use_skip=False)
        names = [n for n, _ in model.named_parameters()]
        assert any(n.startswith("embed") for n in names)
        batch = make_batch()
        with no_grad():
            assert model(batch).shape == (batch.num_nodes,)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError, match="input_mode"):
            make_model(input_mode="bogus")
        with pytest.raises(ValueError, match="attention"):
            make_model(aggregator="deepset", use_skip=True)


class TestGradients:
    def test_all_parameters_receive_gradients(self):
        from repro.nn import l1_loss

        batch = make_batch()
        model = make_model()
        pred = model(batch)
        loss = l1_loss(pred, batch.labels)
        loss.backward()
        missing = [
            n
            for n, p in model.named_parameters()
            if p.grad is None or not np.isfinite(p.grad).all()
        ]
        assert not missing, f"no/invalid gradient for {missing}"

    def test_training_step_reduces_loss(self):
        from repro.nn import Adam, l1_loss

        batch = make_batch()
        model = make_model(dim=16, num_iterations=3)
        opt = Adam(model.parameters(), lr=5e-3)
        first = None
        for _ in range(15):
            opt.zero_grad()
            loss = l1_loss(model(batch), batch.labels)
            if first is None:
                first = loss.item()
            loss.backward()
            opt.step()
        final = l1_loss(model(batch), batch.labels).item()
        assert final < first


class TestCompiledEquivalence:
    """The fast path must match the reference propagation loop exactly
    (forward) and to float32 round-off (gradients)."""

    CONFIGS = [
        {},
        {"use_skip": False},
        {"use_reverse": False},
        {"input_mode": "init_only", "use_skip": False},
        {"aggregator": "conv_sum", "use_skip": False},
        {"aggregator": "deepset", "use_skip": False},
        {"aggregator": "gated_sum", "use_skip": False},
        {"aggregator": "gated_sum", "use_skip": False,
         "input_mode": "init_only"},
        {"aggregator": "deepset", "use_skip": False, "use_reverse": False},
    ]

    def _pair(self, **kwargs):
        ref = make_model(rng=np.random.default_rng(0), compiled=False, **kwargs)
        fast = make_model(rng=np.random.default_rng(0), compiled=True, **kwargs)
        return ref, fast

    def _check_gradients(self, batch, ref, fast):
        # a smooth loss: L1's sign kink would amplify float32 round-off
        # differences into spurious gradient mismatches
        weights = np.linspace(-1.0, 1.0, batch.num_nodes).astype(np.float32)
        for model in (ref, fast):
            (model(batch) * Tensor(weights)).sum().backward()
        for (name, p_ref), (_, p_fast) in zip(
            ref.named_parameters(), fast.named_parameters()
        ):
            assert p_ref.grad is not None and p_fast.grad is not None, name
            np.testing.assert_allclose(
                p_ref.grad, p_fast.grad, rtol=2e-4, atol=2e-5,
                err_msg=f"gradient mismatch for {name}",
            )

    @pytest.mark.parametrize(
        "config", CONFIGS, ids=[str(sorted(c.items())) for c in CONFIGS]
    )
    def test_forward_matches(self, config):
        batch = make_batch(width=5)
        ref, fast = self._pair(**config)
        with no_grad():
            a, b = ref(batch).data, fast(batch).data
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize(
        "config", CONFIGS, ids=[str(sorted(c.items())) for c in CONFIGS]
    )
    def test_gradients_match(self, config):
        self._check_gradients(make_batch(width=5), *self._pair(**config))

    def test_deep_chain_matches(self):
        # a deep carry chain (48-bit ripple adder: 1,046 nodes over 193
        # levels), where an error that compounds level by level shows
        batch = make_batch(width=48)
        ref, fast = self._pair(dim=64, num_iterations=4)
        with no_grad():
            np.testing.assert_allclose(
                ref(batch).data, fast(batch).data, rtol=1e-5, atol=1e-6
            )
        self._check_gradients(batch, ref, fast)

    def test_compiled_is_default(self):
        assert make_model().compiled

    def test_multi_circuit_batch(self):
        from repro.datagen.generators import parity

        g1 = from_aig(synthesize(ripple_adder(4)), num_patterns=256, seed=0)
        g2 = from_aig(synthesize(parity(6)), num_patterns=256, seed=1)
        batch = prepare([g1, g2])
        ref, fast = self._pair()
        with no_grad():
            np.testing.assert_allclose(
                ref(batch).data, fast(batch).data, rtol=1e-5, atol=1e-6
            )


class TestStatePersistence:
    def test_save_load_same_predictions(self, tmp_path):
        from repro.nn import load_module, save_module

        batch = make_batch()
        m1 = make_model(rng=np.random.default_rng(4))
        m2 = make_model(rng=np.random.default_rng(9))
        path = tmp_path / "dg.npz"
        save_module(m1, path)
        load_module(m2, path)  # includes the h_init buffer
        with no_grad():
            np.testing.assert_allclose(
                m1(batch).data, m2(batch).data, atol=1e-6
            )
