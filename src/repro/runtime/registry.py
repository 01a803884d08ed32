"""Experiment protocol and decorator-based registry.

An *experiment* is a named, cacheable unit of paper reproduction — one
table or figure.  Each one declares:

* a **frozen spec dataclass** (subclass of :class:`ExperimentSpec`)
  holding every knob that affects its output — scale, seed override,
  model subset, …  The spec is hashable-by-content, which is what keys
  the on-disk run cache;
* a **runner**, ``run(spec) -> ExperimentResult``, registered with the
  :func:`experiment` decorator;
* **emitters** on the result: ``to_json`` (structured rows for the run
  directory) and ``to_markdown`` (a pipe table for reports), plus the
  plain-text paper-style table.

Grid experiments additionally decompose into **units** — independent
pieces of work (one Table-II model configuration, one ablation section,
one sweep point) that the executor in :mod:`repro.runtime.parallel`
spreads over worker processes and caches one directory each.  A unit
experiment registers

* ``units(spec) -> List[UnitSpec]`` — the grid rows, in table order;
* ``run_unit(spec, unit) -> dict`` — one row's work, returning
  JSON-able data (it runs in a worker process, so everything it
  touches must be derivable from ``(spec, unit)``);
* a **merge** function ``merge(spec, unit_results) ->
  ExperimentResult`` — the decorated function itself, assembling rows
  in unit order into the final result.

The serial runner for a unit experiment is synthesised from those three
pieces, so ``run(spec)``, ``--workers 1`` and ``--workers N`` share one
code path and produce byte-identical artifacts.

The registry is what makes the CLI generic: ``repro experiment
run/list/report`` look experiments up by name instead of hard-coding
imports.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Type

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "Experiment",
    "UnitSpec",
    "experiment",
    "unregister",
    "get_experiment",
    "list_experiments",
    "spec_from_overrides",
    "spec_from_json",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """Base spec: the knobs every experiment shares.

    ``seed``/``epochs`` of ``None`` mean "use the scale's value"; a
    non-``None`` value overrides it (and, being part of the spec, lands
    in the cache key so overridden runs never collide with default ones).
    """

    scale: str = "default"
    seed: Optional[int] = None
    epochs: Optional[int] = None


@dataclass
class ExperimentResult:
    """What a runner returns: structured rows + the rendered table."""

    experiment: str
    rows: List[Dict[str, object]]
    table: str
    meta: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        return {
            "experiment": self.experiment,
            "rows": self.rows,
            "meta": self.meta,
        }

    def to_markdown(self) -> str:
        """GitHub pipe table over the row keys, fenced plain table below."""
        lines: List[str] = []
        if self.rows:
            headers = list(self.rows[0].keys())
            lines.append("| " + " | ".join(headers) + " |")
            lines.append("| " + " | ".join("---" for _ in headers) + " |")
            for row in self.rows:
                lines.append(
                    "| "
                    + " | ".join(_md_cell(row.get(h)) for h in headers)
                    + " |"
                )
            lines.append("")
        lines.append("```")
        lines.append(self.table)
        lines.append("```")
        return "\n".join(lines)


def _md_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value).replace("|", "\\|")


@dataclass(frozen=True)
class UnitSpec:
    """One independent piece of a grid experiment (one table row).

    ``key`` is the stable identifier that (together with the spec hash)
    keys the unit's on-disk cache directory — a model code, a suite
    name, ``T=5``.  ``title`` is the human label shown in progress
    lines; ``params`` carries whatever ``run_unit`` needs beyond the key
    (kept JSON-able so the unit manifest can record it).
    """

    key: str
    title: str = ""
    params: Tuple[Tuple[str, object], ...] = ()

    @property
    def label(self) -> str:
        return self.title or self.key

    def params_dict(self) -> Dict[str, object]:
        return dict(self.params)


def canonical_unit_result(result: Dict[str, object]) -> Dict[str, object]:
    """A unit result exactly as it reads back from its cache file.

    Every unit result is JSON-roundtripped before merging (tuples become
    lists, ints stay ints, floats stay bit-exact), so a merge over fresh
    in-memory results and a merge over results reloaded from unit cache
    directories produce byte-identical artifacts.
    """
    return json.loads(json.dumps(result))


@dataclass(frozen=True)
class Experiment:
    """A registered experiment: metadata + spec type + runner.

    Unit experiments carry the decomposition triple (``units``,
    ``run_unit``, ``merge``); their ``runner`` is the synthesised serial
    path (run every unit in order, merge).
    """

    name: str
    title: str
    spec_type: Type[ExperimentSpec]
    runner: Callable[[ExperimentSpec], ExperimentResult]
    description: str = ""
    units: Optional[Callable[[ExperimentSpec], List[UnitSpec]]] = None
    run_unit: Optional[
        Callable[[ExperimentSpec, UnitSpec], Dict[str, object]]
    ] = None
    merge: Optional[
        Callable[[ExperimentSpec, List[Dict[str, object]]], ExperimentResult]
    ] = None

    @property
    def supports_units(self) -> bool:
        return self.units is not None

    def validate_spec(self, spec: Optional[ExperimentSpec]) -> ExperimentSpec:
        spec = spec if spec is not None else self.spec_type()
        if not isinstance(spec, self.spec_type):
            raise TypeError(
                f"experiment {self.name!r} takes a {self.spec_type.__name__}, "
                f"got {type(spec).__name__}"
            )
        return spec

    def run(self, spec: Optional[ExperimentSpec] = None) -> ExperimentResult:
        return self.runner(self.validate_spec(spec))


_REGISTRY: Dict[str, Experiment] = {}


def experiment(
    name: str,
    *,
    spec: Type[ExperimentSpec],
    title: str,
    description: str = "",
    units: Optional[Callable[[ExperimentSpec], List[UnitSpec]]] = None,
    run_unit: Optional[
        Callable[[ExperimentSpec, UnitSpec], Dict[str, object]]
    ] = None,
) -> Callable:
    """Register an experiment runner under ``name``.

    Without ``units``, the decorated function is the whole serial run,
    ``fn(spec) -> ExperimentResult``.  With ``units`` (and ``run_unit``),
    the decorated function is the **merge**, ``fn(spec, unit_results) ->
    ExperimentResult``, and the serial runner is synthesised: run every
    unit in order, canonicalise each result, merge.
    """
    if not dataclasses.is_dataclass(spec) or not spec.__dataclass_params__.frozen:
        raise TypeError(f"spec for {name!r} must be a frozen dataclass")
    if (units is None) != (run_unit is None):
        raise TypeError(
            f"experiment {name!r}: units and run_unit must be given together"
        )

    def decorate(fn: Callable) -> Callable:
        existing = _REGISTRY.get(name)
        if existing is not None and not _same_source(
            existing.merge if existing.merge is not None else existing.runner,
            fn,
        ):
            raise ValueError(f"experiment {name!r} already registered")
        # re-registration from the same source is idempotent: running a
        # module under runpy (``python -m repro.experiments.table1``)
        # executes its decorators a second time as ``__main__``
        if units is not None:

            def serial_runner(s: ExperimentSpec) -> ExperimentResult:
                results = [
                    canonical_unit_result(run_unit(s, u)) for u in units(s)
                ]
                return fn(s, results)

            runner, merge = serial_runner, fn
        else:
            runner, merge = fn, None
        _REGISTRY[name] = Experiment(
            name=name,
            title=title,
            spec_type=spec,
            runner=runner,
            description=description or (fn.__doc__ or "").strip(),
            units=units,
            run_unit=run_unit,
            merge=merge,
        )
        return fn

    return decorate


def _same_source(a: Callable, b: Callable) -> bool:
    """True when two runners are the same function (possibly re-imported)."""
    try:
        return (
            a.__qualname__ == b.__qualname__
            and a.__code__.co_filename == b.__code__.co_filename
        )
    except AttributeError:  # pragma: no cover - non-function callables
        return False


def unregister(name: str) -> None:
    """Remove a registration (tests use this to inject fakes)."""
    _REGISTRY.pop(name, None)


def get_experiment(name: str) -> Experiment:
    _ensure_loaded()
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(_REGISTRY)}"
        )
    return _REGISTRY[name]


def list_experiments() -> List[Experiment]:
    _ensure_loaded()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def _ensure_loaded() -> None:
    """Import the experiment modules so their decorators run."""
    from .. import experiments  # noqa: F401  (import side effect)


# ---------------------------------------------------------------------------
# spec construction from CLI-style overrides
# ---------------------------------------------------------------------------


def spec_from_overrides(
    spec_type: Type[ExperimentSpec], overrides: Dict[str, str]
) -> ExperimentSpec:
    """Build a spec from string key=value overrides, coercing field types."""
    fields = {f.name for f in dataclasses.fields(spec_type)}
    # resolve PEP 563 stringified annotations to real types
    hints = typing.get_type_hints(spec_type)
    kwargs: Dict[str, object] = {}
    for key, raw in overrides.items():
        if key not in fields:
            raise ValueError(
                f"{spec_type.__name__} has no field {key!r}; "
                f"fields: {sorted(fields)}"
            )
        kwargs[key] = _coerce(hints.get(key, str), raw, key)
    return spec_type(**kwargs)


def spec_from_json(
    spec_type: Type[ExperimentSpec], data: Dict[str, object]
) -> ExperimentSpec:
    """Rebuild a spec from its JSON form (``runner.spec_dict`` output).

    The inverse of serialising a spec into a manifest or golden fixture:
    JSON turned tuples into lists, so sequence-typed fields are coerced
    back according to the dataclass annotations.  Unknown keys raise
    ``ValueError`` — a fixture naming a field the spec no longer has is
    stale, not silently ignorable.
    """
    fields = {f.name for f in dataclasses.fields(spec_type)}
    hints = typing.get_type_hints(spec_type)
    kwargs: Dict[str, object] = {}
    for key, value in data.items():
        if key not in fields:
            raise ValueError(
                f"{spec_type.__name__} has no field {key!r}; "
                f"fields: {sorted(fields)}"
            )
        kwargs[key] = _coerce_json(hints.get(key, object), value)
    return spec_type(**kwargs)


def _coerce_json(annotation: object, value: object) -> object:
    """Map a JSON value back onto a resolved type annotation."""
    origin = typing.get_origin(annotation)
    args = typing.get_args(annotation)
    if origin is typing.Union:  # Optional[X]
        if value is None:
            return None
        inner = [a for a in args if a is not type(None)]
        return _coerce_json(inner[0], value) if inner else value
    if origin in (tuple, list) and isinstance(value, (list, tuple)):
        elem = args[0] if args else object
        seq = [_coerce_json(elem, v) for v in value]
        return tuple(seq) if origin is tuple else seq
    return value


def _coerce(annotation: object, raw: str, key: str) -> object:
    """Parse ``raw`` according to a resolved type annotation."""
    origin = typing.get_origin(annotation)
    args = typing.get_args(annotation)
    if origin is typing.Union:  # Optional[X]
        inner = [a for a in args if a is not type(None)]
        if raw.lower() in ("none", ""):
            return None
        return _coerce(inner[0], raw, key) if inner else raw
    if origin in (tuple, list):
        items = [s for s in raw.split(",") if s != ""]
        elem = args[0] if args else str
        seq = [_coerce(elem, s.strip(), key) for s in items]
        return tuple(seq) if origin is tuple else seq
    if annotation is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"field {key!r}: expected a boolean, got {raw!r}")
    if annotation is int:
        return int(raw)
    if annotation is float:
        return float(raw)
    return raw
