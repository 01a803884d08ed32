"""Thread-safe LRU cache for compiled circuits, keyed by structural hash,
and the text memo in front of it.

The server's amortisation lever: ``PreparedBatch`` memoises its level
schedules and compiled fast-path plans internally, so holding one
prepared batch per *structure* means the first query for a circuit pays
parse + featurise + schedule compilation and every structurally identical
resubmission — whatever its node names — reuses all of it.  The serve
entries also hold the predictions their passes produced, so a hit for an
iteration count already answered returns those stored predictions
without running the model; evicting an entry drops them with it.
Hit/miss/eviction counters feed the ``/stats`` endpoint, which is
how the cache's behaviour is observed from outside.

A structural key costs a parse and a strash to compute.  The
:class:`TextMemo` skips both for a byte-identical resubmission: it maps
a 128-bit digest of a request's format and exact text to the key that
text canonicalised to, and the service then fetches the entry with
:meth:`CompilationCache.get`.  The memo holds digests and keys only, no
text, entry or predictions, so a slot costs the same whatever the
circuit's size, the cache alone still bounds the compiled entries, and
a digest whose entry was evicted leads back to the parse.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Generic, Optional, Tuple, TypeVar

__all__ = ["CacheStats", "CompilationCache", "TextMemo"]

T = TypeVar("T")


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot (consistent: taken under the cache lock)."""

    hits: int
    misses: int
    evictions: int
    entries: int
    capacity: int


class _InFlight:
    """A build in progress: waiters block on the event, not the cache lock."""

    __slots__ = ("done", "value", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.value: object = None
        self.error: Optional[BaseException] = None


class CompilationCache(Generic[T]):
    """Bounded LRU mapping structural hash → compiled circuit entry.

    ``get_or_build`` runs the builder OUTSIDE the cache lock: the first
    requester for a key registers an in-flight marker and builds; later
    requesters for the *same* key wait on that marker (build-once, and a
    wait still counts as a hit), while requests for *other* keys proceed
    unblocked — a slow compile never head-of-line blocks the rest of the
    cache.
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, T]" = OrderedDict()
        self._building: Dict[str, _InFlight] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get_or_build(
        self, key: str, builder: Callable[[], T]
    ) -> Tuple[T, bool]:
        """Return ``(entry, cache_hit)``, building and inserting on miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry, True
            flight = self._building.get(key)
            if flight is None:
                # we own the build for this key
                flight = self._building[key] = _InFlight()
                self._misses += 1
                owner = True
            else:
                owner = False
        if not owner:
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            with self._lock:
                # the owner inserted before signalling; refresh LRU order
                # unless the entry was already evicted under pressure
                if key in self._entries:
                    self._entries.move_to_end(key)
                self._hits += 1
            return flight.value, True  # type: ignore[return-value]
        try:
            entry = builder()
        except BaseException as exc:
            with self._lock:
                self._building.pop(key, None)
            flight.error = exc
            flight.done.set()
            raise
        with self._lock:
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
            self._building.pop(key, None)
        flight.value = entry
        flight.done.set()
        return entry, False

    def get(self, key: str) -> Optional[T]:
        """The entry for ``key``, counted as a hit and refreshed in LRU
        order; ``None``, counting nothing, when no entry is held (never
        built, evicted, or still being built)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
            return entry

    def peek(self, key: str) -> Optional[T]:
        """The entry for ``key`` without touching LRU order or counters."""
        with self._lock:
            return self._entries.get(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                capacity=self.capacity,
            )

    def counters(self) -> Dict[str, int]:
        s = self.stats()
        return {
            "cache_hits": s.hits,
            "cache_misses": s.misses,
            "cache_evictions": s.evictions,
            "cache_entries": s.entries,
            "cache_capacity": s.capacity,
        }


class TextMemo:
    """Bounded LRU from a request's format and exact text to the
    structural hash it canonicalised to.

    Slots are keyed by :meth:`digest`, 128 bits of BLAKE2b: a collision
    would answer with another circuit's predictions, so the key is far
    wider than Python's 64-bit ``hash()``.  The service remembers only
    texts that canonicalise, so a text that fails to parse is parsed
    again each time.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._keys: "OrderedDict[bytes, str]" = OrderedDict()

    @staticmethod
    def digest(text: str, fmt: str) -> bytes:
        """16 bytes identifying ``(fmt, text)``.  ``surrogatepass`` lets
        any string JSON can carry (a lone surrogate included) through,
        so a text the parser rejects gets the parser's error.  No
        remembered format contains NUL, so the separator is unambiguous."""
        h = hashlib.blake2b(fmt.encode("utf-8", "surrogatepass"), digest_size=16)
        h.update(b"\0")
        h.update(text.encode("utf-8", "surrogatepass"))
        return h.digest()

    def get(self, digest: bytes) -> Optional[str]:
        """The structural hash remembered for ``digest``, refreshed in LRU
        order, or ``None``."""
        with self._lock:
            key = self._keys.get(digest)
            if key is not None:
                self._keys.move_to_end(digest)
            return key

    def put(self, digest: bytes, key: str) -> None:
        """Remember ``key`` for ``digest``, dropping the least recently
        used slot past capacity."""
        with self._lock:
            self._keys[digest] = key
            self._keys.move_to_end(digest)
            if len(self._keys) > self.capacity:
                self._keys.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._keys)
