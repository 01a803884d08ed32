"""Tests for the shared atomic-publication helpers and the worker-count
default in :mod:`repro.utils`."""

import json
import os

import pytest

from repro.utils import (
    atomic_output,
    atomic_replace_dir,
    atomic_write_json,
    default_workers,
)


class TestDefaultWorkers:
    def test_env_var_sets_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_env_var_floor_is_one(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_WORKERS", value)
        assert default_workers() == 1

    def test_non_integer_env_var_is_clean_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(SystemExit, match="bad REPRO_WORKERS 'many'"):
            default_workers()

    @pytest.mark.parametrize("cpus,expected", [(6, 6), (None, 1)])
    def test_unset_env_var_uses_cpu_count(
        self, monkeypatch, cpus, expected
    ):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert default_workers() == expected


class TestAtomicPublication:
    def test_json_layout_is_canonical(self, tmp_path):
        path = tmp_path / "manifest.json"
        atomic_write_json(path, {"b": 1, "a": [2]})
        text = path.read_text()
        assert text == json.dumps({"a": [2], "b": 1}, indent=2) + "\n"

    def test_failed_write_keeps_old_contents(self, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_output(path) as tmp:
                tmp.write_bytes(b"torn")
                raise RuntimeError("crash mid-write")
        assert path.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.bin"]

    def test_replace_dir_clears_stale_target(self, tmp_path):
        final = tmp_path / "final"
        final.mkdir()
        (final / "stale.txt").write_text("partial")
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        (fresh / "shard.npz").write_text("complete")
        atomic_replace_dir(fresh, final)
        assert not fresh.exists()
        assert sorted(p.name for p in final.iterdir()) == ["shard.npz"]
