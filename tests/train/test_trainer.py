"""Tests for metrics and the training loop."""

import numpy as np
import pytest

from repro.models import DeepGate
from repro.train import (
    Callback,
    ErrorAccumulator,
    NonFiniteTrainingError,
    TrainConfig,
    Trainer,
    average_prediction_error,
    evaluate_model,
)

from ..helpers import tiny_circuit_dataset


def tiny_dataset(n=6):
    return tiny_circuit_dataset(n, num_patterns=512)


class TestMetrics:
    def test_average_prediction_error(self):
        err = average_prediction_error(
            np.array([0.0, 1.0]), np.array([0.5, 0.5])
        )
        assert err == pytest.approx(0.5)

    def test_perfect_prediction_zero(self):
        y = np.array([0.2, 0.8, 0.5])
        assert average_prediction_error(y, y) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            average_prediction_error(np.zeros(2), np.zeros(3))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_prediction_error(np.zeros(0), np.zeros(0))

    def test_accumulator_node_weighted(self):
        acc = ErrorAccumulator()
        acc.add(np.zeros(3), np.ones(3))  # err 1.0 over 3 nodes
        acc.add(np.ones(1), np.ones(1))  # err 0.0 over 1 node
        assert acc.value == pytest.approx(0.75)
        assert acc.count == 4

    def test_accumulator_empty_rejected(self):
        with pytest.raises(ValueError):
            ErrorAccumulator().value


class TestTrainHistory:
    def test_empty_history_returns_none(self):
        from repro.train import TrainHistory

        history = TrainHistory()
        assert history.final_train_loss is None
        assert history.best_eval_error is None

    def test_populated_history(self):
        from repro.train import TrainHistory

        history = TrainHistory(train_loss=[0.5, 0.2], eval_error=[0.4, 0.3])
        assert history.final_train_loss == 0.2
        assert history.best_eval_error == 0.3

    def test_dict_roundtrip(self):
        from repro.train import TrainHistory

        history = TrainHistory(train_loss=[0.5], eval_error=[0.4])
        assert TrainHistory.from_dict(history.to_dict()) == history


class TestTrainer:
    def test_loss_decreases(self):
        ds = tiny_dataset()
        model = DeepGate(dim=12, num_iterations=2, rng=np.random.default_rng(0))
        trainer = Trainer(model, TrainConfig(epochs=8, batch_size=3, lr=3e-3))
        history = trainer.fit(ds)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_eval_history_populated(self):
        train = tiny_dataset(4)
        test = tiny_dataset(2)
        model = DeepGate(dim=8, num_iterations=1, rng=np.random.default_rng(1))
        trainer = Trainer(model, TrainConfig(epochs=2, batch_size=2, lr=1e-3))
        history = trainer.fit(train, test)
        assert len(history.eval_error) == 2
        assert history.best_eval_error <= history.eval_error[0]

    def test_callback_invoked(self):
        ds = tiny_dataset(2)
        calls = []

        class Record(Callback):
            def on_epoch_end(self, trainer, epoch, train_loss, eval_error):
                calls.append((epoch, train_loss, eval_error))

        model = DeepGate(dim=4, num_iterations=1, rng=np.random.default_rng(2))
        trainer = Trainer(model, TrainConfig(epochs=3, batch_size=2, lr=1e-3))
        history = trainer.fit(ds, ds, callbacks=[Record()])
        assert [c[0] for c in calls] == [0, 1, 2]
        assert [c[1] for c in calls] == history.train_loss
        assert [c[2] for c in calls] == history.eval_error

    def test_plain_function_hook_is_rejected(self):
        # per-epoch hooks are Callback objects passed as `callbacks=`
        trainer = Trainer(
            DeepGate(dim=4, num_iterations=1, rng=np.random.default_rng(2)),
            TrainConfig(epochs=1, batch_size=2),
        )
        with pytest.raises(TypeError, match="callback"):
            trainer.fit(tiny_dataset(2), callback=lambda *a: None)

    def test_evaluate_with_custom_iterations(self):
        ds = tiny_dataset(3)
        model = DeepGate(dim=8, num_iterations=4, rng=np.random.default_rng(3))
        trainer = Trainer(model, TrainConfig(epochs=1, batch_size=2, lr=1e-3))
        trainer.fit(ds)
        e1 = trainer.evaluate(ds, num_iterations=1)
        e4 = trainer.evaluate(ds, num_iterations=4)
        assert e1 != e4

    def test_evaluate_model_matches_metric(self):
        ds = tiny_dataset(3)
        model = DeepGate(dim=6, num_iterations=1, rng=np.random.default_rng(4))
        batches = ds.prepared_batches(batch_size=3)
        err = evaluate_model(model, batches)
        # recompute manually
        from repro.nn import no_grad

        total, count = 0.0, 0
        with no_grad():
            for b in batches:
                p = model(b).numpy()
                total += np.abs(p - b.labels).sum()
                count += len(b.labels)
        assert err == pytest.approx(total / count, rel=1e-6)

    def test_grad_clip_disabled(self):
        ds = tiny_dataset(2)
        model = DeepGate(dim=4, num_iterations=1, rng=np.random.default_rng(5))
        trainer = Trainer(model, TrainConfig(epochs=1, batch_size=2, grad_clip=0.0))
        trainer.fit(ds)  # must not raise

    def test_fit_is_deterministic_given_seed(self):
        ds = tiny_dataset(4)

        def train_once():
            model = DeepGate(dim=6, num_iterations=1, rng=np.random.default_rng(7))
            t = Trainer(model, TrainConfig(epochs=3, batch_size=2, lr=2e-3, seed=3))
            return t.fit(ds).train_loss

        assert train_once() == train_once()

    def test_epochs_see_different_batch_orders(self):
        """The per-epoch reshuffle must actually vary the batch order."""
        ds = tiny_dataset(6)
        orders = []
        model = DeepGate(dim=4, num_iterations=1, rng=np.random.default_rng(8))
        trainer = Trainer(model, TrainConfig(epochs=3, batch_size=2, lr=1e-3))

        original = trainer._run_epoch

        def spy(batches, epoch):
            batches = list(batches)
            orders.append([b.num_nodes for b in batches])
            return original(iter(batches), epoch)

        trainer._run_epoch = spy
        trainer.fit(ds)
        assert len(orders) == 3
        assert any(o != orders[0] for o in orders[1:])

    def test_shuffle_disabled_keeps_order(self):
        ds = tiny_dataset(6)
        orders = []
        model = DeepGate(dim=4, num_iterations=1, rng=np.random.default_rng(9))
        trainer = Trainer(
            model, TrainConfig(epochs=2, batch_size=2, lr=1e-3, shuffle=False)
        )
        original = trainer._run_epoch

        def spy(batches, epoch):
            batches = list(batches)
            orders.append([b.num_nodes for b in batches])
            return original(iter(batches), epoch)

        trainer._run_epoch = spy
        trainer.fit(ds)
        assert orders[0] == orders[1]

    def test_fit_from_sharded_dataset(self, tmp_path):
        from repro.graphdata import ShardedCircuitDataset

        from ..helpers import build_tiny_shards

        build_tiny_shards(tmp_path / "ds", suites=(("EPFL", 3),), seed=5)
        sharded = ShardedCircuitDataset(tmp_path / "ds")
        model = DeepGate(dim=4, num_iterations=1, rng=np.random.default_rng(6))
        history = Trainer(model, TrainConfig(epochs=2, batch_size=2, lr=1e-3)).fit(
            sharded
        )
        assert len(history.train_loss) == 2


class TestNonFiniteTraining:
    @pytest.mark.parametrize("poisoned, step", [(0, 0), (2, 1)])
    def test_nan_label_raises_before_the_optimizer_step(self, poisoned, step):
        """A NaN label in epoch 1 stops training with a named error that
        locates the batch, and no parameter is left non-finite."""
        ds = tiny_dataset(4)
        model = DeepGate(dim=4, num_iterations=1, rng=np.random.default_rng(10))
        trainer = Trainer(
            model,
            TrainConfig(epochs=3, batch_size=2, lr=1e-3, shuffle=False, prefetch=0),
        )
        stepped = []
        real_step = trainer.optimizer.step

        def step_and_snapshot():
            real_step()
            stepped.append([p.data.copy() for p in model.parameters()])

        trainer.optimizer.step = step_and_snapshot

        class Poison(Callback):
            def on_epoch_start(self, trainer, epoch):
                if epoch == 1:
                    ds.graphs[poisoned].labels[0] = np.nan

        with pytest.raises(NonFiniteTrainingError) as info:
            trainer.fit(ds, callbacks=[Poison()])
        err = info.value
        assert (err.epoch, err.step) == (1, step)
        assert np.isnan(err.loss) and np.isnan(err.grad_norm)
        assert "epoch 1, step %d" % step in str(err)
        # the poisoned step never reached the optimizer
        assert len(stepped) == 2 + step
        for param, last in zip(model.parameters(), stepped[-1]):
            assert np.isfinite(param.data).all()
            assert np.array_equal(param.data, last)
        assert trainer.history.train_loss and np.isfinite(
            trainer.history.train_loss
        ).all()

    def test_unclipped_training_is_checked_too(self):
        ds = tiny_dataset(2)
        ds.graphs[1].labels[0] = np.nan
        model = DeepGate(dim=4, num_iterations=1, rng=np.random.default_rng(11))
        trainer = Trainer(
            model,
            TrainConfig(
                epochs=1, batch_size=1, grad_clip=0.0, shuffle=False, prefetch=0
            ),
        )
        with pytest.raises(NonFiniteTrainingError) as info:
            trainer.fit(ds)
        assert (info.value.epoch, info.value.step) == (0, 1)
        for param in model.parameters():
            assert np.isfinite(param.data).all()
