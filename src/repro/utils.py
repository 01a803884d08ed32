"""Small shared utilities: atomic file and directory publication, and
the worker-count default.

Everything that persists cache state in this repo — dataset shards,
run/unit directories, checkpoints, lease files — goes through one of the
helpers here, so the invariant "readers see the old state or the
complete new state, never a torn one" is implemented exactly once.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
from pathlib import Path
from typing import Iterator, Union

__all__ = [
    "atomic_output",
    "atomic_write_text",
    "atomic_write_json",
    "atomic_replace_dir",
    "default_workers",
]


@contextlib.contextmanager
def atomic_output(path: Union[str, Path]) -> Iterator[Path]:
    """Yield a writer-unique temp path; rename it onto ``path`` on success.

    The temp file lives next to the target (same filesystem, so
    ``os.replace`` is atomic) and is removed on any failure, leaving the
    previous contents of ``path`` untouched.  Use this for binary
    formats (``np.savez`` archives, zip files); text goes through
    :func:`atomic_write_text`.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` via a temp file + rename.

    Readers only ever see the old contents or the complete new contents;
    a failure mid-write cleans up the temp file and leaves ``path``
    untouched.  This is the one canonical copy of the idiom the dataset
    pipeline and the experiment runner both rely on.
    """
    with atomic_output(path) as tmp:
        tmp.write_text(text)


def atomic_write_json(path: Union[str, Path], data: object) -> None:
    """Canonical JSON (sorted keys, 2-space indent, trailing newline),
    written atomically — the layout every manifest in the repo uses."""
    atomic_write_text(path, json.dumps(data, sort_keys=True, indent=2) + "\n")


def atomic_replace_dir(
    tmp_dir: Union[str, Path], final_dir: Union[str, Path]
) -> None:
    """Atomically publish a fully-built directory at ``final_dir``.

    ``os.replace`` of a directory only succeeds when the target is
    absent or an empty directory, so a stale target (e.g. a torn partial
    write left by a crashed legacy writer) is cleared first.  If another
    process publishes the same directory concurrently the second replace
    retries once — committers in this repo write byte-identical content
    for a given key, so whichever publication survives is correct.
    """
    tmp_dir, final_dir = Path(tmp_dir), Path(final_dir)
    for attempt in (0, 1):
        try:
            os.replace(tmp_dir, final_dir)
            return
        except OSError:
            if attempt:
                raise
            shutil.rmtree(final_dir, ignore_errors=True)


def default_workers() -> int:
    """Worker-count default: ``REPRO_WORKERS`` env var, else the CPU count.

    One policy for dataset builds and experiment runs; a non-integer
    value is a clean error instead of a traceback.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise SystemExit(
                f"bad REPRO_WORKERS {env!r}: expected an integer"
            )
    return max(1, os.cpu_count() or 1)
