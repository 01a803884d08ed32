"""End-to-end tests of the command-line interface."""

import argparse
import multiprocessing
import re
import signal
import time

import pytest

from repro.cli import _CIRCUIT_SUFFIXES, _unit_progress, _workers, main
from repro.datagen.generators import GENERATOR_CATALOG
from repro.dist.work import COORD_DIR_NAME
from repro.runtime import execute_parallel, run_dir_for, spec_hash
from repro.runtime import registry as registry_module

from .helpers import GridSpec, register_grid_experiment


@pytest.fixture
def adder_bench(tmp_path):
    path = tmp_path / "adder.bench"
    assert main(["generate", "ripple_adder", "--param", "width=4",
                 "-o", str(path)]) == 0
    return path


class TestGenerate:
    def test_writes_bench(self, tmp_path, capsys):
        path = tmp_path / "p.bench"
        assert main(["generate", "parity", "-o", str(path)]) == 0
        assert path.exists()
        assert "gates" in capsys.readouterr().out

    def test_unknown_family(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown family"):
            main(["generate", "frobnicator", "-o", str(tmp_path / "x.bench")])

    def test_bad_param(self, tmp_path):
        with pytest.raises(SystemExit, match="key=value"):
            main(["generate", "parity", "--param", "width",
                  "-o", str(tmp_path / "x.bench")])

    def test_non_integer_param_is_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="bad --param 'width=abc'"):
            main(["generate", "ripple_adder", "--param", "width=abc",
                  "-o", str(tmp_path / "x.bench")])

    def test_unknown_param_is_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="bad --param.*bogus"):
            main(["generate", "ripple_adder", "--param", "bogus=3",
                  "-o", str(tmp_path / "x.bench")])

    def test_factory_rejection_is_clean_error(self, tmp_path):
        # majority_voter raises ValueError for an even input count
        with pytest.raises(
            SystemExit, match="bad --param for majority_voter: .*odd"
        ):
            main(["generate", "majority_voter", "--param", "width=4",
                  "-o", str(tmp_path / "x.bench")])

    @pytest.mark.parametrize("family", sorted(GENERATOR_CATALOG))
    def test_size_below_one_is_clean_error(self, tmp_path, family):
        # every catalog parameter is a size; 0 used to write a broken file
        # or die with an IndexError traceback
        (param,) = GENERATOR_CATALOG[family][1]
        out = tmp_path / "x.bench"
        with pytest.raises(SystemExit, match=f"'{param}=0'; sizes must be >= 1"):
            main(["generate", family, "--param", f"{param}=0", "-o", str(out)])
        assert not out.exists()

    def test_verilog_output(self, tmp_path):
        path = tmp_path / "cmp.v"
        assert main(["generate", "comparator", "-o", str(path)]) == 0
        assert "module" in path.read_text()


class TestSynth:
    def test_synth_to_aiger(self, adder_bench, tmp_path, capsys):
        out = tmp_path / "adder.aag"
        assert main(["synth", str(adder_bench), "-o", str(out)]) == 0
        assert out.exists()
        assert "ANDs" in capsys.readouterr().out

    def test_unsupported_format(self, tmp_path):
        bogus = tmp_path / "c.blif"
        bogus.write_text("")
        with pytest.raises(SystemExit, match="unsupported"):
            main(["synth", str(bogus)])


class TestStatsSimFaults:
    def test_stats(self, adder_bench, capsys):
        assert main(["stats", str(adder_bench)]) == 0
        out = capsys.readouterr().out
        assert "reconvergence nodes" in out
        assert "levels" in out

    def test_sim(self, adder_bench, capsys):
        assert main(["sim", str(adder_bench), "--patterns", "2048"]) == 0
        assert "signal probabilities" in capsys.readouterr().out

    def test_missing_file_is_clean_error(self, tmp_path):
        path = tmp_path / "missing.aag"
        with pytest.raises(SystemExit, match="missing.aag: .*No such file"):
            main(["sim", str(path)])

    def test_malformed_file_keeps_parser_line(self, tmp_path):
        path = tmp_path / "bad.aag"
        path.write_text("aag 3 2 0 1 1\n2\n4\n6\n6 2 x\n")
        with pytest.raises(SystemExit, match=r"bad.aag: line 5: "):
            main(["stats", str(path)])

    @pytest.mark.parametrize(
        "name,text,line",
        [
            ("bad.bench", "INPUT(a)\nOUTPUT(y)\ny = FOO(a)\n", 3),
            ("bad.v", "module m(a, y);\ninput a;\noutput y;\n"
                      "assign y = a &;\nendmodule\n", 4),
        ],
        ids=["bench", "verilog"],
    )
    def test_malformed_netlist_keeps_parser_line(
        self, tmp_path, name, text, line
    ):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(SystemExit, match=rf"{name}: line {line}: "):
            main(["stats", str(path)])

    @pytest.mark.parametrize("command", ["stats", "synth", "faults", "equiv"])
    def test_every_reader_reports_missing_file_cleanly(
        self, adder_bench, tmp_path, command
    ):
        missing = str(tmp_path / "missing.bench")
        argv = [command, missing]
        if command == "equiv":
            argv = [command, str(adder_bench), missing]
        with pytest.raises(SystemExit, match="missing.bench: .*No such file"):
            main(argv)

    @pytest.mark.parametrize("suffix", sorted(_CIRCUIT_SUFFIXES))
    def test_stats_reads_each_circuit_format(self, tmp_path, capsys, suffix):
        path = tmp_path / f"adder{suffix}"
        assert main(["generate", "ripple_adder", "--param", "width=4",
                     "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["stats", str(path)]) == 0
        assert "levels" in capsys.readouterr().out

    def test_faults(self, adder_bench, capsys):
        assert main(["faults", str(adder_bench), "--patterns", "512"]) == 0
        out = capsys.readouterr().out
        assert "coverage" in out


class TestEquiv:
    def test_equivalent_after_synth(self, adder_bench, tmp_path, capsys):
        out = tmp_path / "adder.aag"
        main(["synth", str(adder_bench), "-o", str(out)])
        assert main(["equiv", str(adder_bench), str(out)]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_different_circuits(self, tmp_path, capsys):
        # same interface (8 inputs, 8 outputs), different functions
        gray = tmp_path / "gray.bench"
        incr = tmp_path / "incr.bench"
        main(["generate", "gray_to_binary", "--param", "width=8", "-o", str(gray)])
        main(["generate", "incrementer", "--param", "width=8", "-o", str(incr)])
        assert main(["equiv", str(gray), str(incr)]) == 1
        assert "DIFFERENT" in capsys.readouterr().out


class TestExperimentCLI:
    def test_list(self, capsys, tmp_path):
        assert main(["experiment", "list", "--runs-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "table2", "table3", "table4", "tsweep", "ablations"):
            assert name in out

    def test_run_then_cache_hit(self, capsys, tmp_path):
        args = ["experiment", "run", "table1", "--scale", "smoke",
                "--runs-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr()
        assert "Table I" in first.out
        assert "[ran:" in first.err

        assert main(args) == 0
        second = capsys.readouterr()
        assert "Table I" in second.out
        assert "cache hit" in second.err
        assert second.out == first.out

    def test_report_requires_cached_run(self, capsys, tmp_path):
        args = ["experiment", "report", "table1", "--scale", "smoke",
                "--runs-dir", str(tmp_path)]
        assert main(args) == 1
        assert "no cached run" in capsys.readouterr().err
        main(["experiment", "run", "table1", "--scale", "smoke",
              "--runs-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(args) == 0
        assert "Table I" in capsys.readouterr().out

    def test_json_and_markdown_formats(self, capsys, tmp_path):
        import json

        assert main(["experiment", "run", "table1", "--scale", "smoke",
                     "--runs-dir", str(tmp_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "table1"
        assert payload["rows"]
        assert main(["experiment", "report", "table1", "--scale", "smoke",
                     "--runs-dir", str(tmp_path), "--format", "markdown"]) == 0
        assert "| suite |" in capsys.readouterr().out

    def test_positional_name_is_usage_error(self, capsys, tmp_path):
        # argv is parsed as given: an experiment name where the
        # subcommand belongs is not rewritten into `experiment run`
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "table1", "--scale", "smoke",
                  "--runs-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid choice: 'table1'" in capsys.readouterr().err

    def test_bad_set_override(self, tmp_path):
        with pytest.raises(SystemExit, match="key=value"):
            main(["experiment", "run", "table1", "--scale", "smoke",
                  "--runs-dir", str(tmp_path), "--set", "oops"])

    def test_unknown_spec_field(self, tmp_path):
        with pytest.raises(SystemExit, match="no field"):
            main(["experiment", "run", "table1", "--scale", "smoke",
                  "--runs-dir", str(tmp_path), "--set", "bogus=1"])

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["experiment", "run", "table99", "--runs-dir", str(tmp_path)])

    def test_bad_spec_value_is_clean_error(self, tmp_path):
        # a spec that parses but fails inside the runner must not traceback
        with pytest.raises(SystemExit, match="unknown ablation"):
            main(["experiment", "run", "ablations", "--scale", "smoke",
                  "--runs-dir", str(tmp_path), "--set", "which=bogus"])

    def test_workers_run_matches_serial_and_shows_progress(
        self, capsys, tmp_path
    ):
        serial = ["experiment", "run", "table1", "--scale", "smoke",
                  "--runs-dir", str(tmp_path / "serial")]
        assert main(serial) == 0
        first = capsys.readouterr()
        assert "[unit 1/" in first.err  # live per-unit progress lines

        parallel = ["experiment", "run", "table1", "--scale", "smoke",
                    "--runs-dir", str(tmp_path / "par"), "--workers", "2"]
        assert main(parallel) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        # one line per unit, also for units the fleet's processes ran
        for err in (first.err, second.err):
            lines = re.findall(r"\[unit (\d)/4\] \S+: done \(\d+\.\d\ds\)", err)
            assert sorted(lines) == ["1", "2", "3", "4"]

        a = (tmp_path / "serial").glob("table1/*/result.json")
        b = (tmp_path / "par").glob("table1/*/result.json")
        assert next(iter(a)).read_bytes() == next(iter(b)).read_bytes()
        assert not list((tmp_path / "par").glob(f"table1/*/{COORD_DIR_NAME}"))

    def test_resumed_run_shows_cached_units(self, capsys, tmp_path):
        args = ["experiment", "run", "table1", "--scale", "smoke",
                "--runs-dir", str(tmp_path), "--workers", "2"]
        assert main(args) == 0
        first = capsys.readouterr()
        # a run killed before its manifest resumes from its units
        next(tmp_path.glob("table1/*/manifest.json")).unlink()
        assert main(args) == 0
        resumed = capsys.readouterr()
        assert resumed.out == first.out
        assert len(re.findall(r": cached \(0\.00s\)", resumed.err)) == 4
        assert ": done" not in resumed.err

    def test_quiet_suppresses_progress(self, capsys, tmp_path):
        assert main(["experiment", "run", "table1", "--scale", "smoke",
                     "--runs-dir", str(tmp_path), "--quiet"]) == 0
        assert "[unit" not in capsys.readouterr().err


class TestWorkersResolver:
    """``--workers 0`` resolves through the shared default; a positive
    count is taken as given and a negative one is a clean error."""

    def test_zero_uses_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert _workers(argparse.Namespace(workers=0)) == 3

    def test_explicit_count_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert _workers(argparse.Namespace(workers=2)) == 2

    @pytest.mark.parametrize("argv", [
        ["dataset", "build", "--out", "{tmp}/data"],
        ["experiment", "run", "table1", "--runs-dir", "{tmp}/runs"],
        ["experiment", "capture", "table1", "--runs-dir", "{tmp}/runs",
         "--goldens-dir", "{tmp}/goldens"],
        ["experiment", "verify", "--runs-dir", "{tmp}/runs",
         "--goldens-dir", "{tmp}/goldens"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_negative_count_is_clean_error(self, tmp_path, argv):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        with pytest.raises(SystemExit, match="--workers must be >= 0, got -2"):
            main(argv + ["--workers", "-2"])
        assert not any(tmp_path.iterdir())


def _join_when_leased(coord_dir, argv):
    """Wait until a run holds its first lease, then join it via the CLI."""
    deadline = time.monotonic() + 30
    while not list(coord_dir.glob("leases/*.json")):
        if time.monotonic() > deadline:
            raise SystemExit("the run never claimed a unit")
        time.sleep(0.01)
    raise SystemExit(main(argv))


class TestDistCLI:
    def test_lease_knobs_run_matches_serial(self, capsys, tmp_path):
        serial = ["experiment", "run", "table1", "--scale", "smoke",
                  "--runs-dir", str(tmp_path / "serial"), "--quiet"]
        assert main(serial) == 0
        first = capsys.readouterr()

        dist = ["experiment", "run", "table1", "--scale", "smoke",
                "--runs-dir", str(tmp_path / "dist"),
                "--workers", "2", "--lease-ttl", "10",
                "--heartbeat-interval", "1"]
        assert main(dist) == 0
        second = capsys.readouterr()
        assert second.out == first.out

        a = (tmp_path / "serial").glob("table1/*/result.json")
        b = (tmp_path / "dist").glob("table1/*/result.json")
        assert next(iter(a)).read_bytes() == next(iter(b)).read_bytes()

    def test_standalone_worker_joins_and_reports(self, capsys, tmp_path):
        # against an already-resolved run the worker exits immediately
        # with an all-zero report — the mid-run case is covered by the
        # dist chaos suite, where timing is controllable
        run = ["experiment", "run", "table1", "--scale", "smoke",
               "--runs-dir", str(tmp_path), "--quiet"]
        assert main(run) == 0
        capsys.readouterr()
        worker = ["worker", "experiment", "table1", "--scale", "smoke",
                  "--runs-dir", str(tmp_path), "--quiet"]
        handlers = [signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)]
        assert main(worker) == 0
        out = capsys.readouterr().out
        assert "0 completed" in out
        assert "0 failed" in out
        # the drain handlers are the worker's alone: the caller's return
        assert [
            signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)
        ] == handlers

    def test_standalone_worker_joins_a_running_fleet(self, tmp_path):
        # `repro worker experiment`, started once a plain `--workers 2`
        # run holds its first lease, takes a unit of that run; the
        # result is byte-identical to a serial run
        log_dir = tmp_path / "log"
        log_dir.mkdir()
        name = register_grid_experiment(
            "fake-grid-join", log_dir=log_dir, unit_sleep=0.4
        )
        runs = tmp_path / "runs"
        spec_args = [name, "--scale", "default", "--runs-dir", str(runs)]
        coord = run_dir_for(runs, name, spec_hash(name, GridSpec()))
        coord = coord / COORD_DIR_NAME
        joiner = multiprocessing.get_context("fork").Process(
            target=_join_when_leased,
            args=(coord, ["worker", "experiment", *spec_args, "--quiet"]),
        )
        try:
            serial = execute_parallel(
                name, GridSpec(), runs_dir=tmp_path / "serial"
            )
            joiner.start()
            run = ["experiment", "run", *spec_args, "--workers", "2",
                   "--quiet"]
            assert main(run) == 0
            joiner.join(timeout=30)
        finally:
            if joiner.is_alive():
                joiner.kill()
                joiner.join()
            registry_module.unregister(name)
        assert joiner.exitcode == 0
        assert any(f"-{joiner.pid}-" in p.name for p in log_dir.iterdir())
        assert next(runs.glob(f"{name}/*/result.json")).read_bytes() == (
            serial.out_dir / "result.json"
        ).read_bytes()
        assert not coord.exists()

    @pytest.mark.parametrize("command", ["run", "capture"])
    def test_poisoned_unit_is_a_clean_exit_naming_it(
        self, tmp_path, monkeypatch, command
    ):
        monkeypatch.setenv("REPRO_MAX_ATTEMPTS", "1")
        name = register_grid_experiment("fake-grid-poison")
        argv = ["experiment", command, name, "--set", "rows=alpha,explode",
                "--runs-dir", str(tmp_path / "runs"), "--quiet"]
        if command == "capture":
            argv += ["--goldens-dir", str(tmp_path / "goldens")]
        try:
            with pytest.raises(SystemExit) as exc:
                main(argv)
        finally:
            registry_module.unregister(name)
        message = str(exc.value.code)
        assert "- explode [" in message
        assert "RuntimeError: unit exploded" in message

    def test_worker_deaths_get_a_fleet_line(self, capsys):
        _unit_progress(
            {"status": "worker-died", "label": "repro-dist-worker-1",
             "detail": "exit code -9"}
        )
        assert capsys.readouterr().err == (
            "[fleet] repro-dist-worker-1: worker-died (exit code -9)\n"
        )

    def test_bad_dist_knob_is_clean_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["experiment", "run", "table1", "--scale", "smoke",
                  "--runs-dir", str(tmp_path), "--lease-ttl", "-3"])

    @pytest.mark.parametrize("argv", [
        ["experiment", "run", "table1"],
        ["dataset", "build", "--out", "data"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_dist_flag_is_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--dist"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dist" in capsys.readouterr().err


class TestExperimentCompareCLI:
    def _run(self, tmp_path, seed):
        args = ["experiment", "run", "table1", "--scale", "smoke",
                "--runs-dir", str(tmp_path), "--quiet"]
        if seed is not None:
            args += ["--seed", str(seed)]
        assert main(args) == 0

    def test_compare_two_runs(self, capsys, tmp_path):
        self._run(tmp_path, None)
        self._run(tmp_path, 1)
        capsys.readouterr()
        runs = sorted(str(p) for p in tmp_path.glob("table1/*"))
        assert len(runs) == 2
        assert main(["experiment", "compare", runs[0], runs[1]]) == 0
        out = capsys.readouterr().out
        assert "compare table1" in out
        assert "subcircuits" in out

    def test_compare_markdown_and_json(self, capsys, tmp_path):
        import json

        self._run(tmp_path, None)
        self._run(tmp_path, 1)
        capsys.readouterr()
        runs = sorted(str(p) for p in tmp_path.glob("table1/*"))
        assert main(["experiment", "compare", runs[0], runs[1],
                     "--format", "markdown"]) == 0
        assert "| row | metric |" in capsys.readouterr().out
        assert main(["experiment", "compare", runs[0], runs[1],
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_a"] == "table1"
        assert payload["rows"]

    def test_compare_hash_refs_under_runs_dir(self, capsys, tmp_path):
        self._run(tmp_path, None)
        self._run(tmp_path, 1)
        capsys.readouterr()
        names = sorted(p.name for p in tmp_path.glob("table1/*"))
        assert main(["experiment", "compare",
                     f"table1/{names[0]}", f"table1/{names[1]}",
                     "--runs-dir", str(tmp_path)]) == 0
        assert "compare table1" in capsys.readouterr().out

    def test_compare_missing_run_is_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no run directory"):
            main(["experiment", "compare", "table1/abc", "table1/def",
                  "--runs-dir", str(tmp_path)])

    def test_compare_tolerances_annotate_but_do_not_gate(
        self, capsys, tmp_path
    ):
        self._run(tmp_path, None)
        self._run(tmp_path, 1)
        capsys.readouterr()
        limits = tmp_path / "limits.json"
        limits.write_text('{"bogus_metric": 0.1}')
        runs = sorted(str(p) for p in tmp_path.glob("table1/*"))
        # violations are reported, but without --fail-on-drift exit is 0
        assert main(["experiment", "compare", runs[0], runs[1],
                     "--tolerances", str(limits)]) == 0
        captured = capsys.readouterr()
        assert "MISSING: tolerance 'bogus_metric'" in captured.out
        assert "1 tolerance violation" in captured.err

    def test_compare_fail_on_drift_gates_exit_code(self, capsys, tmp_path):
        self._run(tmp_path, None)
        self._run(tmp_path, 1)
        capsys.readouterr()
        limits = tmp_path / "limits.json"
        limits.write_text('{"bogus_metric": 0.1}')
        runs = sorted(str(p) for p in tmp_path.glob("table1/*"))
        assert main(["experiment", "compare", runs[0], runs[1],
                     "--tolerances", str(limits), "--fail-on-drift"]) == 1
        capsys.readouterr()
        # an all-within gate passes: huge limit on a real metric
        limits.write_text('{"subcircuits": 1e9}')
        assert main(["experiment", "compare", runs[0], runs[1],
                     "--tolerances", str(limits), "--fail-on-drift"]) == 0
        assert "status" in capsys.readouterr().out

    def test_fail_on_drift_requires_tolerances(self, tmp_path):
        with pytest.raises(SystemExit, match="requires --tolerances"):
            main(["experiment", "compare", "a", "b", "--fail-on-drift"])

    def test_bad_tolerances_file_is_clean_error(self, capsys, tmp_path):
        self._run(tmp_path, None)
        capsys.readouterr()
        limits = tmp_path / "limits.json"
        limits.write_text("{nope")
        run = next(iter(tmp_path.glob("table1/*")))
        with pytest.raises(SystemExit, match="unreadable"):
            main(["experiment", "compare", str(run), str(run),
                  "--tolerances", str(limits)])


class TestGoldenCLI:
    """The capture -> commit -> verify loop through the CLI."""

    def _capture(self, tmp_path, *extra):
        return main(["experiment", "capture", "table1", "--scale", "smoke",
                     "--runs-dir", str(tmp_path / "runs"),
                     "--goldens-dir", str(tmp_path / "goldens"),
                     "--quiet", *extra])

    def _verify(self, tmp_path, *extra):
        return main(["experiment", "verify",
                     "--runs-dir", str(tmp_path / "runs"),
                     "--goldens-dir", str(tmp_path / "goldens"),
                     "--quiet", *extra])

    def _fixture_path(self, tmp_path):
        return next(iter((tmp_path / "goldens").glob("table1/*.json")))

    def test_capture_then_verify_roundtrip(self, capsys, tmp_path):
        assert self._capture(tmp_path) == 0
        out = capsys.readouterr().out
        assert "captured" in out and "table1" in out
        assert self._fixture_path(tmp_path).is_file()

        assert self._verify(tmp_path) == 0
        captured = capsys.readouterr()
        assert "PASS" in captured.out
        assert "verified 1 fixture: 1 passed, 0 failed" in captured.err

    def test_verify_detects_drift(self, capsys, tmp_path):
        import json

        assert self._capture(tmp_path) == 0
        capsys.readouterr()
        path = self._fixture_path(tmp_path)
        data = json.loads(path.read_text())
        data["metrics"][0]["value"] += 7  # int metric: tolerance 0
        data["metrics"][0]["tolerance"] = 0.5
        path.write_text(json.dumps(data, sort_keys=True))
        assert self._verify(tmp_path) == 1
        captured = capsys.readouterr()
        assert "DRIFT" in captured.out and "FAIL" in captured.out
        assert "1 failed" in captured.err

    def test_capture_tolerance_override_loosens_gate(self, capsys, tmp_path):
        import json

        assert self._capture(tmp_path, "--tolerance", "subcircuits=100") == 0
        capsys.readouterr()
        path = self._fixture_path(tmp_path)
        data = json.loads(path.read_text())
        for metric in data["metrics"]:
            if metric["metric"] == "subcircuits":
                metric["value"] += 7  # within the 100 override
        path.write_text(json.dumps(data, sort_keys=True))
        assert self._verify(tmp_path) == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_by_experiment_name_and_file(self, capsys, tmp_path):
        assert self._capture(tmp_path) == 0
        capsys.readouterr()
        assert self._verify(tmp_path, "table1") == 0
        capsys.readouterr()
        assert self._verify(tmp_path, str(self._fixture_path(tmp_path))) == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_markdown_and_json_formats(self, capsys, tmp_path):
        import json

        assert self._capture(tmp_path) == 0
        capsys.readouterr()
        assert self._verify(tmp_path, "--format", "markdown") == 0
        assert "| row | metric | golden |" in capsys.readouterr().out
        assert self._verify(tmp_path, "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True

    def test_verify_corrupt_fixture_is_counted_failure(
        self, capsys, tmp_path
    ):
        assert self._capture(tmp_path) == 0
        capsys.readouterr()
        self._fixture_path(tmp_path).write_text("{nope")
        assert self._verify(tmp_path) == 1
        err = capsys.readouterr().err
        assert "ERROR:" in err and "corrupt" in err

    def test_verify_without_fixtures_fails(self, capsys, tmp_path):
        assert self._verify(tmp_path) == 1
        assert "no golden fixtures" in capsys.readouterr().err

    def test_verify_unknown_ref_is_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no golden fixture"):
            self._verify(tmp_path, "nonesuch")

    def test_bad_tolerance_flag_is_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="metric=limit"):
            self._capture(tmp_path, "--tolerance", "oops")


class TestServeQueryCLI:
    """Argument handling and a live serve round trip."""

    @pytest.fixture
    def checkpoint(self, tmp_path):
        import numpy as np

        from repro.models import DeepGate
        from repro.nn.serialization import save_model_checkpoint

        ck = tmp_path / "ck.npz"
        save_model_checkpoint(
            DeepGate(dim=8, num_iterations=2, rng=np.random.default_rng(0)),
            ck,
        )
        return ck

    @pytest.fixture
    def running_server(self, checkpoint):
        import threading

        from repro.serve import ServeServer, service_from_checkpoint

        srv = ServeServer(service_from_checkpoint(checkpoint), port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            yield f"http://{srv.host}:{srv.port}"
        finally:
            srv.shutdown()
            thread.join(timeout=10)
            srv.close()

    def test_serve_requires_checkpoint_or_run(self):
        with pytest.raises(SystemExit):
            main(["serve"])

    @pytest.mark.parametrize(
        "option",
        [
            ["--backend", "numpy"],
            ["--max-wait-ms", "1"],
            ["--max-batch-size", "4"],
            ["--batch-mode", "merged"],
        ],
        ids=lambda option: option[0],
    )
    def test_serve_has_no_backend_option(self, capsys, tmp_path, option):
        with pytest.raises(SystemExit) as exc:
            main(["serve", *option,
                  "--checkpoint", str(tmp_path / "ck.npz")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {option[0]}" in err

    @pytest.mark.parametrize("busy", [True, False], ids=["busy", "out_of_range"])
    def test_serve_unusable_port_is_clean_error(
        self, checkpoint, monkeypatch, busy
    ):
        import socket

        from repro.serve import InferenceService

        closed = []
        close = InferenceService.close
        monkeypatch.setattr(
            InferenceService, "close",
            lambda svc: closed.append(svc) or close(svc),
        )
        with socket.socket() as holder:
            if busy:
                holder.bind(("127.0.0.1", 0))
                holder.listen(1)
                port, reason = holder.getsockname()[1], "in use"
            else:
                port, reason = 99999, "0-65535"
            with pytest.raises(SystemExit) as exc:
                main(["serve", "--checkpoint", str(checkpoint),
                      "--port", str(port)])
        message = str(exc.value.code)
        assert message.startswith(f"cannot listen on 127.0.0.1:{port}: ")
        assert reason in message and "\n" not in message
        assert len(closed) == 1

    def test_serve_unresolvable_run_is_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="train_backbone"):
            main(["serve", "--run", "train_backbone",
                  "--runs-dir", str(tmp_path)])

    def test_query_requires_circuit_or_stats(self):
        with pytest.raises(SystemExit, match="circuit file"):
            main(["query", "--url", "http://127.0.0.1:9"])

    def test_query_unknown_suffix_is_clean_error(self, tmp_path):
        path = tmp_path / "circuit.txt"
        path.write_text("whatever")
        with pytest.raises(SystemExit, match="unsupported circuit format"):
            main(["query", str(path), "--url", "http://127.0.0.1:9"])

    def test_query_unreachable_server_exits_1(self, adder_bench, capsys):
        assert main(["query", str(adder_bench),
                     "--url", "http://127.0.0.1:9", "--timeout", "2"]) == 1
        assert "transport_error" in capsys.readouterr().err

    def test_query_round_trip_and_cache_hit(
        self, running_server, adder_bench, capsys
    ):
        assert main(["query", str(adder_bench),
                     "--url", running_server]) == 0
        first = capsys.readouterr().out
        assert "cache_hit=False" in first
        assert main(["query", str(adder_bench),
                     "--url", running_server]) == 0
        assert "cache_hit=True" in capsys.readouterr().out

    def test_query_json_format(self, running_server, adder_bench, capsys):
        import json

        assert main(["query", str(adder_bench), "--url", running_server,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_nodes"] == len(payload["predictions"])

    def test_query_stats(self, running_server, adder_bench, capsys):
        for _ in range(2):
            assert main(["query", str(adder_bench),
                         "--url", running_server]) == 0
        capsys.readouterr()
        assert main(["query", "--stats", "--url", running_server]) == 0
        out = capsys.readouterr().out
        assert "requests" in out and "cache:" in out
        # the repeat was answered from the stored predictions
        assert re.search(r"^cache: 1 hits .*, 1 memo hits$", out, re.M)
        assert re.search(
            r"^batcher: 1 passes, 0 rejected \(queue 128\)$", out, re.M
        )

    def test_query_parse_error_exits_1(
        self, running_server, tmp_path, capsys
    ):
        bad = tmp_path / "bad.aag"
        bad.write_text("aag 2 1 0 1\nnonsense\n")
        assert main(["query", str(bad), "--url", running_server]) == 1
        assert "parse_error" in capsys.readouterr().err
