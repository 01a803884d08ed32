"""Tests for the parallel sharded dataset pipeline.

The pipeline's contract is threefold: shard contents are a pure function
of the config (so builds are reproducible byte for byte), builds on a
fleet of worker processes match the in-process path exactly, and an
unchanged config re-uses the on-disk build as a cache hit while any
config change invalidates it.
"""

import dataclasses
import json
import re
import threading

import numpy as np
import pytest

from repro.datagen.pipeline import (
    PipelineConfig,
    build_shards,
    generate_shard,
    generate_suite,
    manifest_is_current,
    plan_shards,
)
from repro.graphdata import ShardedCircuitDataset

# small enough to build in well under a second
TINY = PipelineConfig(
    suites=(("EPFL", 3), ("ITC99", 3)),
    seed=11,
    num_patterns=256,
    max_nodes=200,
    max_levels=50,
    shard_size=2,
)


def dir_bytes(root):
    """filename -> bytes for every file in a dataset directory."""
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestConfig:
    def test_hash_stable(self):
        assert TINY.config_hash() == TINY.config_hash()
        clone = PipelineConfig.from_dict(TINY.to_dict())
        assert clone == TINY
        assert clone.config_hash() == TINY.config_hash()

    def test_hash_sensitive_to_every_knob(self):
        seen = {TINY.config_hash()}
        for change in (
            {"seed": 12},
            {"num_patterns": 512},
            {"max_nodes": 300},
            {"shard_size": 3},
            {"with_skip_edges": False},
            {"suites": (("EPFL", 3),)},
        ):
            h = dataclasses.replace(TINY, **change).config_hash()
            assert h not in seen
            seen.add(h)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="unknown suite"):
            PipelineConfig(suites=(("NOPE", 3),))
        with pytest.raises(ValueError, match="positive count"):
            PipelineConfig(suites=(("EPFL", 0),))
        with pytest.raises(ValueError, match="twice"):
            PipelineConfig(suites=(("EPFL", 3), ("EPFL", 4)))
        with pytest.raises(ValueError, match="shard_size"):
            PipelineConfig(suites=(("EPFL", 1),), shard_size=0)
        with pytest.raises(ValueError, match="seed"):
            PipelineConfig(suites=(("EPFL", 1),), seed=-1)

    def test_plan_covers_counts(self):
        specs = plan_shards(TINY)
        per_suite = {}
        for s in specs:
            per_suite[s.suite] = per_suite.get(s.suite, 0) + s.count
            assert 1 <= s.count <= TINY.shard_size
        assert per_suite == {"EPFL": 3, "ITC99": 3}
        # shard indices are dense per suite
        assert [s.index for s in specs if s.suite == "EPFL"] == [0, 1]


class TestDeterminism:
    def test_same_config_builds_byte_identical_dirs(self, tmp_path):
        build_shards(TINY, tmp_path / "a")
        build_shards(TINY, tmp_path / "b")
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_workers_match_serial_exactly(self, tmp_path):
        # dir_bytes reads every entry as a file: a leftover coordination
        # directory would fail it too
        build_shards(TINY, tmp_path / "serial", workers=1)
        build_shards(TINY, tmp_path / "fleet", workers=2)
        assert dir_bytes(tmp_path / "serial") == dir_bytes(tmp_path / "fleet")

    def test_concurrent_builds_share_one_directory(self, tmp_path):
        build_shards(TINY, tmp_path / "serial")
        results = []
        builds = [
            threading.Thread(
                target=lambda: results.append(
                    build_shards(TINY, tmp_path / "shared")
                )
            )
            for _ in range(2)
        ]
        for build in builds:
            build.start()
        for build in builds:
            build.join(timeout=60)
        assert len(results) == 2
        assert results[0].manifest == results[1].manifest
        assert dir_bytes(tmp_path / "serial") == dir_bytes(tmp_path / "shared")

    def test_shard_independent_of_sibling_suites(self):
        """Adding a suite to the config must not disturb existing shards."""
        solo = PipelineConfig(
            suites=(("EPFL", 3),),
            seed=11,
            num_patterns=256,
            max_nodes=200,
            max_levels=50,
            shard_size=2,
        )
        specs = [s for s in plan_shards(TINY) if s.suite == "EPFL"]
        for spec in specs:
            a = generate_shard(TINY, spec)
            b = generate_shard(solo, spec)
            assert [g.name for g in a] == [g.name for g in b]
            for ga, gb in zip(a, b):
                assert np.array_equal(ga.labels, gb.labels)
                assert np.array_equal(ga.edges, gb.edges)

    def test_serial_api_matches_shards(self, tmp_path):
        result = build_shards(TINY, tmp_path / "d")
        on_disk = ShardedCircuitDataset(result.out_dir).suite("ITC99")
        in_memory = generate_suite(TINY, "ITC99")
        assert len(on_disk) == len(in_memory)
        for ga, gb in zip(in_memory, on_disk):
            assert ga.name == gb.name
            assert np.array_equal(ga.node_type, gb.node_type)
            assert np.array_equal(ga.labels, gb.labels)
            assert np.array_equal(ga.skip_edges, gb.skip_edges)


class TestCache:
    def test_second_build_is_cache_hit(self, tmp_path):
        first = build_shards(TINY, tmp_path)
        assert not first.cache_hit
        before = dir_bytes(tmp_path)
        second = build_shards(TINY, tmp_path)
        assert second.cache_hit
        assert dir_bytes(tmp_path) == before
        assert second.manifest == first.manifest

    def test_config_change_invalidates(self, tmp_path):
        build_shards(TINY, tmp_path)
        changed = dataclasses.replace(TINY, num_patterns=512)
        assert not manifest_is_current(tmp_path, changed)
        result = build_shards(changed, tmp_path)
        assert not result.cache_hit
        assert result.manifest["config_hash"] == changed.config_hash()
        # and the rebuilt directory is now current for the new config only
        assert manifest_is_current(tmp_path, changed)
        assert not manifest_is_current(tmp_path, TINY)

    def test_corrupt_shard_forces_rebuild(self, tmp_path):
        result = build_shards(TINY, tmp_path)
        victim = result.shard_paths[0]
        victim.write_bytes(b"garbage")
        rebuilt = build_shards(TINY, tmp_path)
        assert not rebuilt.cache_hit
        assert dir_bytes(tmp_path)[victim.name] != b"garbage"

    def test_missing_shard_forces_rebuild(self, tmp_path):
        result = build_shards(TINY, tmp_path)
        result.shard_paths[-1].unlink()
        assert not manifest_is_current(tmp_path, TINY)
        assert not build_shards(TINY, tmp_path).cache_hit

    def test_verify_hashes_false_skips_content_check(self, tmp_path):
        """Existence-only validation: fast path for huge known-good dirs."""
        result = build_shards(TINY, tmp_path)
        result.shard_paths[0].write_bytes(b"garbage")
        assert build_shards(TINY, tmp_path, verify_hashes=False).cache_hit
        # full validation still catches it
        assert not build_shards(TINY, tmp_path, verify_hashes=True).cache_hit

    def test_force_rebuilds_but_bytes_unchanged(self, tmp_path):
        build_shards(TINY, tmp_path)
        before = dir_bytes(tmp_path)
        result = build_shards(TINY, tmp_path, force=True)
        assert not result.cache_hit
        assert dir_bytes(tmp_path) == before

    def test_stale_generation_shards_removed(self, tmp_path):
        """Rebuilding with fewer circuits leaves no orphan shard files."""
        big = dataclasses.replace(TINY, suites=(("EPFL", 5), ("ITC99", 3)))
        build_shards(big, tmp_path)
        files_before = set(dir_bytes(tmp_path))
        build_shards(TINY, tmp_path)
        files_after = set(dir_bytes(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        expected = {s["filename"] for s in manifest["shards"]} | {
            "manifest.json"
        }
        assert files_after == expected
        assert "epfl-00002.npz" in files_before
        assert "epfl-00002.npz" not in files_after


class TestShardedDataset:
    def test_streaming_matches_random_access(self, tmp_path):
        result = build_shards(TINY, tmp_path)
        ds = ShardedCircuitDataset(result.out_dir, cache_shards=1)
        assert len(ds) == 6
        streamed = list(ds)
        for k, g in enumerate(streamed):
            g.validate()
            assert ds[k].name == g.name
            assert np.array_equal(ds[k].labels, g.labels)

    def test_batches_cover_everything(self, tmp_path):
        result = build_shards(TINY, tmp_path)
        ds = ShardedCircuitDataset(result.out_dir)
        batches = list(ds.batches(batch_size=4))
        assert sum(b.num_nodes for b in batches) == sum(
            g.num_nodes for g in ds
        )
        with pytest.raises(ValueError):
            list(ds.batches(0))

    def test_shuffled_batches_cover_everything(self, tmp_path):
        result = build_shards(TINY, tmp_path)
        ds = ShardedCircuitDataset(result.out_dir)
        shuffled = list(ds.batches(batch_size=2, seed=1))
        assert sum(b.num_nodes for b in shuffled) == sum(
            g.num_nodes for g in ds
        )
        # deterministic per seed, different across seeds (shard-local)
        again = [b.num_nodes for b in ds.batches(2, seed=1)]
        other = [b.num_nodes for b in ds.batches(2, seed=2)]
        assert [b.num_nodes for b in shuffled] == again
        assert again != other or len(set(again)) == 1

    def test_suite_summaries_match_materialized(self, tmp_path):
        result = build_shards(TINY, tmp_path)
        ds = ShardedCircuitDataset(result.out_dir)
        summaries = ds.suite_summaries()
        for name, stats in summaries.items():
            suite_ds = ds.suite(name)
            assert stats["circuits"] == len(suite_ds)
            assert stats["nodes"] == suite_ds.node_count_range()
            assert stats["levels"] == suite_ds.level_range()

    def test_by_suite_and_materialize(self, tmp_path):
        result = build_shards(TINY, tmp_path)
        ds = ShardedCircuitDataset(result.out_dir)
        suites = ds.by_suite()
        assert set(suites) == {"EPFL", "ITC99"}
        assert sum(len(s) for s in suites.values()) == len(ds)
        assert len(ds.materialize()) == len(ds)
        with pytest.raises(KeyError):
            ds.suite("IWLS")

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            ShardedCircuitDataset(tmp_path)


class TestExperimentIntegration:
    def test_explicit_data_dir_not_shadowed_by_memory_cache(self, tmp_path):
        """An in-memory build must not satisfy a later on-disk request."""
        from repro.experiments.common import cached_suites, get_scale

        tiny_scale = dataclasses.replace(
            get_scale("smoke"),
            circuits_per_suite=(("EPFL", 2),),
            num_patterns=256,
            max_nodes=200,
            seed=987,
        )
        in_memory = cached_suites(tiny_scale)
        assert not (tmp_path / "smoke-seed987").exists()
        on_disk = cached_suites(tiny_scale, data_dir=tmp_path)
        assert (tmp_path / "smoke-seed987" / "manifest.json").is_file()
        # same circuits either way, and both paths stay memoised
        assert [g.name for g in in_memory["EPFL"]] == [
            g.name for g in on_disk["EPFL"]
        ]
        assert cached_suites(tiny_scale, data_dir=tmp_path) is on_disk
        assert cached_suites(tiny_scale) is in_memory


class TestCli:
    def test_build_and_info(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "ds"
        argv = [
            "dataset", "build", "--out", str(out), "--scale", "smoke",
            "--suite", "EPFL=2", "--suite", "ITC99=2",
            "--patterns", "256", "--shard-size", "2", "--workers", "2",
        ]
        assert main(argv) == 0
        built = capsys.readouterr()
        assert "built: 4 circuits" in built.out
        # one progress line per shard, whichever worker built it
        assert sorted(re.findall(r"\[unit (\d)/2\] \S+: done", built.err)) == [
            "1", "2",
        ]
        assert main(argv) == 0
        hit = capsys.readouterr()
        assert "cache hit" in hit.out
        assert "[unit" not in hit.err
        assert main(["dataset", "info", str(out)]) == 0
        info = capsys.readouterr().out
        assert "circuits:    4" in info
        assert "EPFL" in info and "ITC99" in info

    def test_info_without_manifest(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="manifest"):
            main(["dataset", "info", str(tmp_path)])

    def test_build_bad_suite_override(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="NAME=COUNT"):
            main(["dataset", "build", "--out", str(tmp_path), "--suite",
                  "EPFL"])
