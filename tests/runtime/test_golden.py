"""Golden-fixture subsystem: capture, schema validation, drift gate.

Mirrors the corrupt-run-dir robustness suites from the runner tests: a
fixture that is corrupted, truncated, carries the wrong schema version,
or whose recorded spec no longer reproduces its hash must be rejected
with a clear :class:`GoldenError` — never a bare ``KeyError`` mid-verify.
The capture -> verify round trip and the drift/missing failure modes run
on the cheap fake grid experiment from ``tests.helpers``; non-finite
cells and the rule verify shares with ``compare --tolerances`` run on a
one-row experiment whose values each test sets.
"""

import json
import math

import pytest

from repro.cli import main
from repro.runtime import ExperimentSpec, execute_parallel
from repro.runtime import registry as registry_module
from repro.runtime.compare import render_markdown, render_text, result_metrics
from repro.runtime.golden import (
    GOLDEN_FORMAT_VERSION,
    Golden,
    GoldenError,
    GoldenMetric,
    capture_golden,
    default_goldens_dir,
    default_tolerance,
    golden_path,
    list_golden_paths,
    load_golden,
    verify_golden,
    write_golden,
)

from ..helpers import (
    GridSpec,
    count_unit_executions,
    register_grid_experiment,
    register_row_experiment,
)


@pytest.fixture
def grid_run(tmp_path):
    """One cached run of the fake grid experiment + its runs root; every
    unit execution leaves a marker under ``tmp_path / "log"``."""
    (tmp_path / "log").mkdir()
    name = register_grid_experiment("fake-grid", log_dir=tmp_path / "log")
    try:
        record = execute_parallel(
            name, GridSpec(factor=2), runs_dir=tmp_path / "runs"
        )
        yield tmp_path, record
    finally:
        registry_module.unregister(name)


@pytest.fixture
def one_row(tmp_path):
    """The row of the one-row experiment ``fake-row``; tests edit it.
    Every run leaves a marker under ``tmp_path / "log"``."""
    (tmp_path / "log").mkdir()
    row = {"model": "m", "error": 0.1}
    name = register_row_experiment("fake-row", row, log_dir=tmp_path / "log")
    try:
        yield row
    finally:
        registry_module.unregister(name)


def roundtrip_fixture(tmp_path, record):
    golden = capture_golden(record)
    path = write_golden(golden, goldens_dir=tmp_path / "goldens")
    return golden, path


class TestCapture:
    def test_metrics_cover_every_numeric_cell(self, grid_run):
        _, record = grid_run
        golden = capture_golden(record)
        assert [(m.row, m.metric) for m in golden.metrics] == [
            ("alpha", "value"),
            ("beta", "value"),
            ("gamma", "value"),
        ]
        assert golden.experiment == record.experiment
        assert golden.spec_hash == record.spec_hash
        assert golden.spec == record.spec

    def test_int_metrics_get_zero_tolerance(self, grid_run):
        _, record = grid_run
        golden = capture_golden(record)
        # the grid's values are ints: exact reproduction required
        assert all(m.tolerance == 0.0 for m in golden.metrics)

    def test_default_tolerance_derivation(self):
        assert default_tolerance(7) == 0.0
        assert default_tolerance(0.5) == pytest.approx(0.125)
        assert default_tolerance(-0.5) == pytest.approx(0.125)
        # near zero the floor wins
        assert default_tolerance(0.001) == 0.05

    def test_overrides_beat_derived_defaults(self, grid_run):
        _, record = grid_run
        golden = capture_golden(
            record, overrides={"value": 3.0, "beta:value": 1.0}
        )
        by_row = {m.row: m.tolerance for m in golden.metrics}
        assert by_row["alpha"] == 3.0
        assert by_row["beta"] == 1.0  # row-qualified wins

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"valeu": 3.0}, "'valeu'"),  # a typo
            ({"value": 3.0, "delta:value": 1.0}, "'delta:value'"),
        ],
    )
    def test_override_naming_no_metric_rejected(
        self, grid_run, overrides, named
    ):
        _, record = grid_run
        with pytest.raises(GoldenError, match=f"override {named} names no"):
            capture_golden(record, overrides=overrides)

    def test_rowless_results_rejected(self, grid_run):
        _, record = grid_run
        record.result = {"rows": []}
        with pytest.raises(GoldenError, match="no result rows"):
            capture_golden(record)

    def test_result_metrics_disambiguates_duplicate_labels(self):
        rows = [{"name": "x", "v": 1.0}, {"name": "x", "v": 2.0}]
        assert result_metrics(rows) == {("x", "v"): 1.0, ("x #2", "v"): 2.0}

    def test_non_finite_cells_are_not_metrics(self):
        rows = [
            {"name": "x", "v": 1.0, "w": float("nan")},
            {"name": "y", "v": float("inf"), "w": -float("inf")},
            {"name": "z", "v": 3, "w": True},
        ]
        assert result_metrics(rows) == {("x", "v"): 1.0, ("z", "v"): 3}


class TestWriteLoad:
    def test_roundtrip(self, grid_run):
        tmp_path, record = grid_run
        golden, path = roundtrip_fixture(tmp_path, record)
        assert path == golden_path(
            tmp_path / "goldens", record.experiment, record.spec_hash
        )
        loaded = load_golden(path)
        assert loaded.experiment == golden.experiment
        assert loaded.spec_hash == golden.spec_hash
        assert loaded.metrics == golden.metrics
        assert loaded.path == path

    def test_list_golden_paths(self, grid_run):
        tmp_path, record = grid_run
        _, path = roundtrip_fixture(tmp_path, record)
        assert list_golden_paths(tmp_path / "goldens") == [path]
        assert list_golden_paths(tmp_path / "absent") == []

    def test_default_goldens_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_GOLDENS_DIR", str(tmp_path / "g"))
        assert default_goldens_dir() == tmp_path / "g"
        monkeypatch.delenv("REPRO_GOLDENS_DIR")
        assert str(default_goldens_dir()) == "goldens"


class TestSchemaValidation:
    """Every reachable bad-fixture state raises a *named* GoldenError."""

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(GoldenError, match="unreadable"):
            load_golden(tmp_path / "missing.json")

    def test_corrupt_json(self, grid_run):
        tmp_path, record = grid_run
        _, path = roundtrip_fixture(tmp_path, record)
        path.write_text("{nope")
        with pytest.raises(GoldenError, match="corrupt or truncated"):
            load_golden(path)

    def test_truncated_json(self, grid_run):
        tmp_path, record = grid_run
        _, path = roundtrip_fixture(tmp_path, record)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(GoldenError, match="corrupt or truncated"):
            load_golden(path)

    def test_non_object_payload(self, grid_run):
        tmp_path, record = grid_run
        _, path = roundtrip_fixture(tmp_path, record)
        path.write_text("[1, 2, 3]")
        with pytest.raises(GoldenError, match="not a JSON object"):
            load_golden(path)

    def test_wrong_schema_version(self, grid_run):
        tmp_path, record = grid_run
        _, path = roundtrip_fixture(tmp_path, record)
        data = json.loads(path.read_text())
        data["golden_format_version"] = GOLDEN_FORMAT_VERSION + 1
        path.write_text(json.dumps(data))
        with pytest.raises(GoldenError, match="golden_format_version"):
            load_golden(path)

    @pytest.mark.parametrize(
        "mutation, message",
        [
            (lambda d: d.pop("experiment"), "experiment"),
            (lambda d: d.pop("spec"), "spec"),
            (lambda d: d.update(spec_hash="short"), "spec_hash"),
            (lambda d: d.update(metrics=[]), "metrics"),
            (lambda d: d.update(metrics=["x"]), r"metrics\[0\]"),
            (
                lambda d: d["metrics"][0].pop("value"),
                "finite numeric 'value', got None",
            ),
            (
                lambda d: d["metrics"][0].update(value=float("nan")),
                r"\(alpha/value\) needs a finite numeric 'value', got nan",
            ),
            (
                lambda d: d["metrics"][0].update(value=-float("inf")),
                r"\(alpha/value\) needs a finite numeric 'value', got -inf",
            ),
            (
                lambda d: d["metrics"][0].update(tolerance=-1),
                r"metrics\[0\]: tolerance for 'alpha:value' must be finite "
                r"and >= 0, got -1",
            ),
            (
                lambda d: d["metrics"][0].update(tolerance=float("inf")),
                "'alpha:value' must be finite and >= 0, got inf",
            ),
            (
                lambda d: d["metrics"][0].update(tolerance=float("nan")),
                "'alpha:value' must be finite and >= 0, got nan",
            ),
            (
                lambda d: d["metrics"][0].update(tolerance="0.5"),
                "'alpha:value' must be a number, got '0.5'",
            ),
        ],
    )
    def test_malformed_fields(self, grid_run, mutation, message):
        tmp_path, record = grid_run
        _, path = roundtrip_fixture(tmp_path, record)
        data = json.loads(path.read_text())
        mutation(data)
        path.write_text(json.dumps(data))
        with pytest.raises(GoldenError, match=message):
            load_golden(path)

    def test_stale_spec_hash(self, grid_run):
        """A hand-edited spec no longer reproduces the recorded hash."""
        tmp_path, record = grid_run
        _, path = roundtrip_fixture(tmp_path, record)
        data = json.loads(path.read_text())
        data["spec"]["factor"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(GoldenError, match="stale spec hash"):
            load_golden(path)

    def test_error_names_the_file(self, grid_run):
        tmp_path, record = grid_run
        _, path = roundtrip_fixture(tmp_path, record)
        path.write_text("{nope")
        with pytest.raises(GoldenError, match=path.name):
            load_golden(path)


class TestVerify:
    def test_clean_verify_passes_from_run_cache(self, grid_run):
        tmp_path, record = grid_run
        golden, path = roundtrip_fixture(tmp_path, record)
        assert count_unit_executions(tmp_path / "log") == 3
        diff = verify_golden(load_golden(path), runs_dir=tmp_path / "runs")
        # a cache hit: verify re-executed no unit
        assert count_unit_executions(tmp_path / "log") == 3
        assert diff["violations"] == []
        # same spec -> same run dir; the fixture is run a
        assert diff["run_a"] == str(path)
        assert diff["run_b"] == str(record.out_dir)
        assert [(d["row"], d["a"], d["b"], d["limit"], d["within"])
                for d in diff["rows"]] == [
            ("alpha", 10, 10, 0.0, True),
            ("beta", 8, 8, 0.0, True),
            ("gamma", 10, 10, 0.0, True),
        ]

    def test_clean_verify_passes_on_fresh_rerun(self, grid_run):
        tmp_path, record = grid_run
        golden, path = roundtrip_fixture(tmp_path, record)
        diff = verify_golden(
            load_golden(path), runs_dir=tmp_path / "fresh-runs"
        )
        assert count_unit_executions(tmp_path / "log") == 6  # a real re-run
        assert diff["violations"] == []
        assert diff["run_b"].startswith(str(tmp_path / "fresh-runs"))

    def test_drift_beyond_tolerance_fails(self, grid_run):
        tmp_path, record = grid_run
        golden, path = roundtrip_fixture(tmp_path, record)
        data = json.loads(path.read_text())
        for m in data["metrics"]:
            if m["row"] == "beta":
                m["value"] = m["value"] + 5  # tolerance is 0
        path.write_text(json.dumps(data, sort_keys=True))
        diff = verify_golden(load_golden(path), runs_dir=tmp_path / "runs")
        assert diff["violations"] == [
            {"kind": "drift", "row": "beta", "metric": "value",
             "delta": -5, "limit": 0.0}
        ]

    def test_drift_within_tolerance_passes(self, grid_run):
        tmp_path, record = grid_run
        golden = capture_golden(record, overrides={"value": 10.0})
        path = write_golden(golden, goldens_dir=tmp_path / "goldens")
        data = json.loads(path.read_text())
        data["metrics"][0]["value"] += 5  # within the 10.0 limit
        path.write_text(json.dumps(data, sort_keys=True))
        diff = verify_golden(load_golden(path), runs_dir=tmp_path / "runs")
        assert diff["violations"] == []

    def test_vanished_metric_fails_as_missing(self, grid_run):
        tmp_path, record = grid_run
        golden, path = roundtrip_fixture(tmp_path, record)
        data = json.loads(path.read_text())
        data["metrics"].append(
            {"row": "alpha", "metric": "gone", "value": 1.0, "tolerance": 9.0}
        )
        path.write_text(json.dumps(data, sort_keys=True))
        diff = verify_golden(load_golden(path), runs_dir=tmp_path / "runs")
        assert diff["violations"] == [{"kind": "missing", "key": "alpha:gone"}]

    def test_unknown_experiment_is_golden_error(self, tmp_path):
        golden = Golden(
            experiment="never-registered",
            spec={"scale": "smoke", "seed": None, "epochs": None},
            spec_hash="0" * 64,
            metrics=[GoldenMetric("x", "v", 1.0, 0.0)],
        )
        with pytest.raises(GoldenError, match="never-registered"):
            verify_golden(golden, runs_dir=tmp_path)

    def test_stale_spec_field_is_golden_error(self, grid_run):
        """A spec naming a field the current spec type lacks is stale."""
        tmp_path, record = grid_run
        golden, path = roundtrip_fixture(tmp_path, record)
        loaded = load_golden(path)
        loaded.spec = dict(loaded.spec, vanished_knob=1)
        with pytest.raises(GoldenError, match="re-baseline"):
            verify_golden(loaded, runs_dir=tmp_path / "runs")

    def test_report_json_and_renderers(self, grid_run):
        """verify prints through compare's renderers, fixture as run a."""
        tmp_path, record = grid_run
        golden, path = roundtrip_fixture(tmp_path, record)
        diff = verify_golden(load_golden(path), runs_dir=tmp_path / "runs")
        assert json.loads(json.dumps(diff)) == diff
        # compare's keys; the label keys and metrics are the fresh run's
        assert (diff["label_keys"], diff["metrics"]) == (["row"], ["value"])
        assert diff["only_in_a"] == diff["only_in_b"] == []
        text = render_text(diff)
        assert f"{path} vs {record.out_dir}" in text and "alpha" in text
        md = render_markdown(diff)
        assert f"- a: `{path}`" in md
        assert "| row | metric | a | b | delta | pct | limit | status |" in md


class TestNonFiniteCells:
    """A NaN or ±inf cell is not a metric: capture skips it, and a
    committed metric whose fresh cell turned non-finite is missing."""

    def _dirs(self, tmp_path):
        return ["--runs-dir", str(tmp_path / "runs"),
                "--goldens-dir", str(tmp_path / "goldens"), "--quiet"]

    def test_nan_cell_verifies_against_its_own_cached_run(
        self, capsys, tmp_path, one_row
    ):
        # a paper_error the paper has no figure for, as in table2
        one_row["paper_error"] = float("nan")
        assert main(["experiment", "capture", "fake-row",
                     *self._dirs(tmp_path)]) == 0
        assert count_unit_executions(tmp_path / "log") == 1
        assert main(["experiment", "verify", *self._dirs(tmp_path)]) == 0
        # verify compared against the cached run, not a re-run
        assert count_unit_executions(tmp_path / "log") == 1
        captured = capsys.readouterr()
        assert "paper_error" not in captured.out
        assert "1 passed, 0 failed, 1 checks" in captured.err
        (path,) = (tmp_path / "goldens").glob("fake-row/*.json")
        assert [(m.row, m.metric) for m in load_golden(path).metrics] == [
            ("m", "error")
        ]

    def test_committed_cell_turned_nan_fails_as_missing(
        self, tmp_path, one_row
    ):
        one_row["paper_error"] = 0.2
        record = execute_parallel(
            "fake-row", ExperimentSpec(scale="smoke"),
            runs_dir=tmp_path / "runs",
        )
        path = write_golden(
            capture_golden(record), goldens_dir=tmp_path / "goldens"
        )
        one_row["paper_error"] = float("nan")
        diff = verify_golden(
            load_golden(path), runs_dir=tmp_path / "runs", force=True
        )
        assert diff["violations"] == [
            {"kind": "missing", "key": "m:paper_error"}
        ]


class TestOneRule:
    """``compare --tolerances --fail-on-drift`` and ``verify`` judge the
    same committed (a) and fresh (b) values by the same rule."""

    @pytest.mark.parametrize(
        "fresh, verdict",
        [
            ({"model": "m", "error": 0.75}, "ok"),  # |delta| == limit
            ({"model": "m", "error": math.nextafter(0.75, 1.0)}, "DRIFT"),
            ({"model": "m"}, "MISSING"),  # the cell is absent
        ],
        ids=["at-limit", "above-limit", "absent"],
    )
    def test_compare_and_verify_agree(
        self, capsys, tmp_path, one_row, fresh, verdict
    ):
        runs, goldens = tmp_path / "runs", tmp_path / "goldens"
        one_row["error"] = 0.5
        a = execute_parallel(
            "fake-row", ExperimentSpec(scale="smoke"), runs_dir=runs
        )
        write_golden(
            capture_golden(a, overrides={"error": 0.25}), goldens_dir=goldens
        )
        one_row.clear()
        one_row.update(fresh)
        b = execute_parallel(
            "fake-row", ExperimentSpec(scale="smoke", seed=1), runs_dir=runs
        )
        limits = tmp_path / "limits.json"
        limits.write_text(json.dumps({"m:error": 0.25}))
        capsys.readouterr()

        compared = main(["experiment", "compare", str(a.out_dir),
                         str(b.out_dir), "--tolerances", str(limits),
                         "--fail-on-drift"])
        compare_out = capsys.readouterr().out
        verified = main(["experiment", "verify", "--runs-dir", str(runs),
                         "--goldens-dir", str(goldens), "--force", "--quiet"])
        verify_out = capsys.readouterr().out

        assert compared == verified == (0 if verdict == "ok" else 1)
        for out in (compare_out, verify_out):
            if verdict == "MISSING":
                assert "MISSING: tolerance 'm:error'" in out
            else:
                assert verdict in out.splitlines()[-1].split()
