"""Checkpoint resolution and serving a model loaded from disk."""

import json
import os

import numpy as np
import pytest

from repro.nn.serialization import save_model_checkpoint
from repro.serve import (
    CheckpointNotFound,
    QueryRequest,
    resolve_checkpoint,
    service_from_checkpoint,
)
from repro.serve.service import InferenceService


def fake_run(runs_dir, experiment, spec_hash, model, mtime=None):
    """A minimal complete run directory publishing a checkpoint."""
    from repro.runtime.runner import RUN_FORMAT_VERSION

    out_dir = runs_dir / experiment / spec_hash
    out_dir.mkdir(parents=True)
    save_model_checkpoint(model, out_dir / "checkpoint.npz")
    manifest = {
        "run_format_version": RUN_FORMAT_VERSION,
        "experiment": experiment,
        "spec_hash": spec_hash,
        "status": "complete",
        "files": {"checkpoint": "checkpoint.npz"},
        "checkpoint": "checkpoint.npz",
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest))
    if mtime is not None:
        os.utime(out_dir / "manifest.json", (mtime, mtime))
    return out_dir


class TestResolve:
    def test_explicit_file(self, tmp_path, model):
        path = tmp_path / "ck.npz"
        save_model_checkpoint(model, path)
        assert resolve_checkpoint(path) == path

    def test_run_directory(self, tmp_path, model):
        out_dir = fake_run(tmp_path, "train_backbone", "aaaa", model)
        assert (
            resolve_checkpoint(out_dir) == out_dir / "checkpoint.npz"
        )

    def test_run_directory_without_checkpoint(self, tmp_path):
        out_dir = tmp_path / "run"
        out_dir.mkdir()
        (out_dir / "manifest.json").write_text(json.dumps({"files": {}}))
        with pytest.raises(CheckpointNotFound, match="checkpoint"):
            resolve_checkpoint(out_dir)

    def test_experiment_name_picks_newest(self, tmp_path, model):
        fake_run(tmp_path, "train_backbone", "old0", model, mtime=1_000)
        new = fake_run(tmp_path, "train_backbone", "new0", model, mtime=2_000)
        resolved = resolve_checkpoint("train_backbone", runs_dir=tmp_path)
        assert resolved == new / "checkpoint.npz"

    def test_other_experiments_ignored(self, tmp_path, model):
        fake_run(tmp_path, "table2", "aaaa", model)
        with pytest.raises(CheckpointNotFound, match="train_backbone"):
            resolve_checkpoint("train_backbone", runs_dir=tmp_path)

    def test_missing_checkpoint_file_skipped(self, tmp_path, model):
        broken = fake_run(tmp_path, "train_backbone", "bad0", model)
        (broken / "checkpoint.npz").unlink()
        with pytest.raises(CheckpointNotFound):
            resolve_checkpoint("train_backbone", runs_dir=tmp_path)


class TestServiceFromCheckpoint:
    def test_loaded_model_predicts_identically(
        self, tmp_path, model, adder_aag
    ):
        live = InferenceService(model)
        try:
            ref = live.query(QueryRequest(circuit=adder_aag))
        finally:
            live.close()

        path = tmp_path / "ck.npz"
        save_model_checkpoint(model, path)
        svc = service_from_checkpoint(path)
        try:
            resp = svc.query(QueryRequest(circuit=adder_aag))
        finally:
            svc.close()
        assert resp.predictions == ref.predictions

    def test_label_describes_architecture(self, tmp_path, model):
        path = tmp_path / "ck.npz"
        save_model_checkpoint(model, path)
        svc = service_from_checkpoint(path)
        try:
            assert svc.model_label == "DeepGate(dim=12,num_iterations=2)"
        finally:
            svc.close()

    def test_service_kwargs_forwarded(self, tmp_path, model):
        path = tmp_path / "ck.npz"
        save_model_checkpoint(model, path)
        svc = service_from_checkpoint(
            path, cache_size=5, max_queue=7, model_label="custom"
        )
        try:
            assert svc.cache.capacity == 5
            assert svc.batcher.max_queue == 7
            assert svc.model_label == "custom"
        finally:
            svc.close()

    def test_non_model_checkpoint_rejected(self, tmp_path):
        from repro.nn.serialization import CheckpointError, save_checkpoint

        path = tmp_path / "plain.npz"
        save_checkpoint(path, {"w": np.zeros(2)}, meta={})
        with pytest.raises(CheckpointError):
            service_from_checkpoint(path)
