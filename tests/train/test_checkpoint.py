"""Checkpoint round-trips, resume determinism, callbacks, streamed parity."""

import numpy as np
import pytest

from repro.graphdata import ShardedCircuitDataset
from repro.models import DeepGate
from repro.nn.serialization import load_checkpoint, save_checkpoint
from repro.train import (
    Checkpoint,
    EarlyStopping,
    LRSchedule,
    TrainConfig,
    Trainer,
    cosine_schedule,
    step_decay,
)

from ..helpers import build_tiny_shards, tiny_circuit_dataset


def tiny_dataset(n=6):
    return tiny_circuit_dataset(n, num_patterns=512)


def make_model(seed=0):
    return DeepGate(dim=10, num_iterations=2, rng=np.random.default_rng(seed))


def assert_same_state(a, b):
    sa, sb = a.state_dict(), b.state_dict()
    assert sorted(sa) == sorted(sb)
    for key in sa:
        assert np.array_equal(sa[key], sb[key]), key


class TestCheckpointFile:
    def test_arrays_and_meta_roundtrip(self, tmp_path):
        path = tmp_path / "ck.npz"
        arrays = {"w": np.arange(6.0).reshape(2, 3)}
        save_checkpoint(path, arrays, meta={"epoch": 4, "note": "hi"})
        back, meta = load_checkpoint(path)
        assert meta == {"epoch": 4, "note": "hi"}
        assert np.array_equal(back["w"], arrays["w"])

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_checkpoint(
                tmp_path / "x.npz", {"__checkpoint_meta__": np.zeros(1)}
            )

    def test_non_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, w=np.zeros(2))
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_overwrite_is_atomic_replace(self, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, {"w": np.zeros(2)}, meta={"epoch": 1})
        save_checkpoint(path, {"w": np.ones(2)}, meta={"epoch": 2})
        arrays, meta = load_checkpoint(path)
        assert meta["epoch"] == 2
        assert np.array_equal(arrays["w"], np.ones(2))
        assert list(tmp_path.iterdir()) == [path]  # no temp litter


class TestCorruptArchive:
    """Unreadable files surface as CheckpointError naming the path."""

    def corrupt(self, tmp_path, payload=b"this is not a zip archive"):
        path = tmp_path / "bad.npz"
        path.write_bytes(payload)
        return path

    def test_garbage_bytes_load_checkpoint(self, tmp_path):
        from repro.nn.serialization import CheckpointError

        path = self.corrupt(tmp_path)
        with pytest.raises(CheckpointError, match=str(path)):
            load_checkpoint(path)

    def test_garbage_bytes_load_model_checkpoint(self, tmp_path):
        from repro.nn.serialization import (
            CheckpointError,
            load_model_checkpoint,
        )

        path = self.corrupt(tmp_path)
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            load_model_checkpoint(path)

    def test_garbage_bytes_load_module(self, tmp_path):
        from repro.nn.serialization import CheckpointError, load_module

        path = self.corrupt(tmp_path)
        with pytest.raises(CheckpointError, match=str(path)):
            load_module(make_model(), path)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        from repro.nn.serialization import CheckpointError

        path = tmp_path / "ck.npz"
        save_checkpoint(path, {"w": np.zeros(8)}, meta={"epoch": 1})
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "never-written.npz")

    def test_save_module_writes_exact_path(self, tmp_path):
        # np.savez silently appends '.npz' when handed a suffix-less
        # *path*; the atomic save must not fall into that trap
        from repro.nn.serialization import load_module, save_module

        path = tmp_path / "weights"  # no .npz suffix on purpose
        model = make_model(seed=3)
        save_module(model, path)
        assert path.is_file()
        assert list(tmp_path.iterdir()) == [path]  # no temp litter
        other = make_model(seed=4)
        load_module(other, path)
        assert_same_state(model, other)


class TestTrainerCheckpoint:
    def test_save_load_roundtrip_bitwise(self, tmp_path):
        ds = tiny_dataset()
        trainer = Trainer(make_model(), TrainConfig(epochs=2, batch_size=2, lr=3e-3))
        trainer.fit(ds)
        path = tmp_path / "ck.npz"
        trainer.save_checkpoint(path, epoch=1)

        restored = Trainer(make_model(seed=9), TrainConfig(epochs=2, batch_size=2, lr=3e-3))
        start = restored.load_checkpoint(path)
        assert start == 2
        assert_same_state(trainer.model, restored.model)
        assert restored.history.train_loss == trainer.history.train_loss
        assert restored.optimizer._step == trainer.optimizer._step

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        """Kill after epoch N, resume: identical loss history and weights."""
        ds = tiny_dataset()
        cfg = dict(batch_size=2, lr=3e-3)

        full = Trainer(make_model(), TrainConfig(epochs=6, **cfg))
        full_history = full.fit(ds)

        half = Trainer(make_model(), TrainConfig(epochs=3, **cfg))
        path = tmp_path / "ck.npz"
        half.fit(ds, callbacks=[Checkpoint(path)])

        resumed = Trainer(make_model(seed=5), TrainConfig(epochs=6, **cfg))
        resumed_history = resumed.fit(ds, resume_from=path)

        assert resumed_history.train_loss == full_history.train_loss
        assert_same_state(full.model, resumed.model)

    def test_model_class_mismatch_rejected(self, tmp_path):
        ds = tiny_dataset(2)
        trainer = Trainer(make_model(), TrainConfig(epochs=1, batch_size=2))
        trainer.fit(ds)
        path = tmp_path / "ck.npz"
        trainer.save_checkpoint(path, epoch=0)

        from repro.models.baselines import GCN

        other = GCN(3, 8, 2, "conv_sum", np.random.default_rng(0))
        with pytest.raises(ValueError, match="was written for"):
            Trainer(other).load_checkpoint(path)

    def test_mismatched_config_rejected_on_resume(self, tmp_path):
        ds = tiny_dataset(2)
        trainer = Trainer(make_model(), TrainConfig(epochs=1, batch_size=2, seed=3))
        trainer.fit(ds)
        path = tmp_path / "ck.npz"
        trainer.save_checkpoint(path, epoch=0)

        other = Trainer(make_model(), TrainConfig(epochs=4, batch_size=4, seed=0))
        with pytest.raises(ValueError, match="different train config"):
            other.load_checkpoint(path)

        # growing the epoch budget alone is a legitimate resume
        extended = Trainer(make_model(), TrainConfig(epochs=9, batch_size=2, seed=3))
        assert extended.load_checkpoint(path) == 1

    def test_checkpoint_every_and_final(self, tmp_path):
        ds = tiny_dataset(2)
        path = tmp_path / "ck.npz"
        trainer = Trainer(make_model(), TrainConfig(epochs=5, batch_size=2))
        trainer.fit(ds, callbacks=[Checkpoint(path, every=2)])
        _, meta = load_checkpoint(path)
        # 5 epochs, every=2: saved after epochs 2 and 4, then the final
        # partial period is flushed by on_fit_end
        assert meta["next_epoch"] == 5


class TestCallbacks:
    def test_early_stopping_stops(self):
        ds = tiny_dataset(4)
        trainer = Trainer(
            make_model(), TrainConfig(epochs=30, batch_size=2, lr=1e-3)
        )
        es = EarlyStopping(patience=2, min_delta=1.0)  # nothing improves by 1.0
        history = trainer.fit(ds, callbacks=[es])
        assert len(history.train_loss) < 30
        assert es.stopped_epoch is not None

    def test_early_stopping_consistent_across_resume(self, tmp_path):
        """A resumed run must stop at the same epoch as an uninterrupted one."""
        ds = tiny_dataset(4)
        cfg = dict(batch_size=2, lr=1e-3)

        full = Trainer(make_model(), TrainConfig(epochs=30, **cfg))
        full_history = full.fit(
            ds, callbacks=[EarlyStopping(patience=2, min_delta=1.0)]
        )

        # interrupt after epoch 1, resume with the same early stopping
        half = Trainer(make_model(), TrainConfig(epochs=1, **cfg))
        path = tmp_path / "ck.npz"
        half.fit(ds, callbacks=[Checkpoint(path)])
        resumed = Trainer(make_model(), TrainConfig(epochs=30, **cfg))
        resumed_history = resumed.fit(
            ds,
            callbacks=[EarlyStopping(patience=2, min_delta=1.0)],
            resume_from=path,
        )

        assert resumed_history.train_loss == full_history.train_loss

    def test_lr_schedule_applied(self):
        ds = tiny_dataset(2)
        seen = []

        class Spy(LRSchedule):
            def on_epoch_start(self, trainer, epoch):
                super().on_epoch_start(trainer, epoch)
                seen.append(trainer.optimizer.lr)

        trainer = Trainer(
            make_model(), TrainConfig(epochs=4, batch_size=2, lr=1e-2)
        )
        trainer.fit(ds, callbacks=[Spy(step_decay(2, gamma=0.1))])
        assert seen == pytest.approx([1e-2, 1e-2, 1e-3, 1e-3])

    def test_cosine_schedule_endpoints(self):
        fn = cosine_schedule(total_epochs=10, min_lr=1e-5)
        assert fn(0, 1e-3) == pytest.approx(1e-3)
        assert fn(10, 1e-3) == pytest.approx(1e-5)


class TestStreamedShardTraining:
    @pytest.fixture(scope="class")
    def shard_dir(self, tmp_path_factory):
        return build_tiny_shards(
            tmp_path_factory.mktemp("train-shards") / "tiny",
            suites=(("EPFL", 4),),
            seed=7,
        )

    def test_streamed_matches_materialized(self, shard_dir):
        """Training from shards == training from the same data in memory."""
        sharded = ShardedCircuitDataset(shard_dir)
        in_memory = sharded.materialize()
        cfg = TrainConfig(epochs=3, batch_size=2, lr=2e-3, shuffle=False)

        t_stream = Trainer(make_model(), cfg)
        h_stream = t_stream.fit(sharded)
        t_mem = Trainer(make_model(), cfg)
        h_mem = t_mem.fit(in_memory)

        assert h_stream.train_loss == h_mem.train_loss
        assert_same_state(t_stream.model, t_mem.model)

    def test_streamed_shuffled_training_runs(self, shard_dir):
        sharded = ShardedCircuitDataset(shard_dir)
        cfg = TrainConfig(epochs=3, batch_size=2, lr=2e-3)
        history = Trainer(make_model(), cfg).fit(sharded)
        assert len(history.train_loss) == 3


class TestModelCheckpoint:
    """Self-describing checkpoints (save/load_model_checkpoint)."""

    def test_roundtrip_rebuilds_identical_model(self, tmp_path):
        from repro.nn.serialization import (
            load_model_checkpoint,
            save_model_checkpoint,
        )

        model = make_model(seed=3)
        path = tmp_path / "model.npz"
        save_model_checkpoint(model, path, meta={"note": "hi"})
        back, meta = load_model_checkpoint(path)
        assert type(back) is type(model)
        assert_same_state(model, back)
        assert meta["note"] == "hi"
        assert meta["model_config"] == model.config()

    def test_module_without_config_rejected(self, tmp_path):
        from repro.nn.modules import Linear
        from repro.nn.serialization import (
            CheckpointError,
            save_model_checkpoint,
        )

        lin = Linear(2, 3, rng=np.random.default_rng(0))
        with pytest.raises(CheckpointError, match="config"):
            save_model_checkpoint(lin, tmp_path / "x.npz")

    def test_plain_checkpoint_rejected_with_hint(self, tmp_path):
        from repro.nn.serialization import (
            CheckpointError,
            load_model_checkpoint,
        )

        path = tmp_path / "plain.npz"
        save_checkpoint(path, {"w": np.zeros(2)}, meta={})
        with pytest.raises(CheckpointError, match="model_config"):
            load_model_checkpoint(path)

    def test_wrong_architecture_names_the_mismatch(self, tmp_path):
        from repro.nn.serialization import (
            CheckpointStateError,
            load_model_checkpoint,
            save_model_checkpoint,
        )

        wide = DeepGate(
            dim=12, num_iterations=2, rng=np.random.default_rng(0)
        )
        path = tmp_path / "model.npz"
        save_model_checkpoint(wide, path)
        # lie about the architecture: claim dim=10 over dim=12 arrays
        from repro.nn.serialization import load_checkpoint

        arrays, meta = load_checkpoint(path)
        meta["model_config"]["dim"] = 10
        save_checkpoint(path, arrays, meta)
        with pytest.raises(CheckpointStateError, match="shape mismatch"):
            load_model_checkpoint(path)

    def test_trainer_checkpoint_is_loadable_standalone(self, tmp_path):
        """Trainer checkpoints carry model_config for repro serve."""
        from repro.nn.serialization import load_model_checkpoint

        trainer = Trainer(
            make_model(seed=5), TrainConfig(epochs=1, batch_size=2)
        )
        trainer.fit(tiny_dataset(4))
        path = tmp_path / "trainer.npz"
        trainer.save_checkpoint(path, epoch=0)
        back, meta = load_model_checkpoint(path)
        assert_same_state(trainer.model, back)
        assert meta["model_config"] == trainer.model.config()


class TestValidateStateDict:
    def test_missing_and_unexpected_keys_named(self):
        from repro.nn.serialization import (
            CheckpointStateError,
            validate_state_dict,
        )

        model = make_model()
        state = model.state_dict()
        first = sorted(state)[0]
        state["bogus_key"] = np.zeros(1)
        del state[first]
        with pytest.raises(CheckpointStateError) as info:
            validate_state_dict(model, state, source="test-ck")
        msg = str(info.value)
        assert "missing keys" in msg and first in msg
        assert "unexpected keys" in msg and "bogus_key" in msg
        assert "test-ck" in msg

    def test_shape_mismatch_reports_both_shapes(self):
        from repro.nn.serialization import (
            CheckpointStateError,
            validate_state_dict,
        )

        model = make_model()
        state = model.state_dict()
        key = sorted(state)[0]
        state[key] = np.zeros(np.asarray(state[key]).shape + (1,))
        with pytest.raises(CheckpointStateError, match="shape mismatch"):
            validate_state_dict(model, state)

    def test_matching_state_passes(self):
        from repro.nn.serialization import validate_state_dict

        model = make_model()
        validate_state_dict(model, model.state_dict())
