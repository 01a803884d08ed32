"""LRU semantics, counters, and build-once behaviour of the cache."""

import threading

import pytest

from repro.serve.cache import CompilationCache, TextMemo


class TestBasics:
    def test_miss_then_hit(self):
        cache = CompilationCache(capacity=4)
        entry, hit = cache.get_or_build("k", lambda: "built")
        assert (entry, hit) == ("built", False)
        entry, hit = cache.get_or_build("k", lambda: "rebuilt")
        assert (entry, hit) == ("built", True)

    def test_builder_runs_once_per_key(self):
        cache = CompilationCache(capacity=4)
        calls = []
        for _ in range(5):
            cache.get_or_build("k", lambda: calls.append(1) or "v")
        assert len(calls) == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            CompilationCache(capacity=0)

    def test_peek_does_not_touch_counters(self):
        cache = CompilationCache(capacity=2)
        cache.get_or_build("a", lambda: 1)
        assert cache.peek("a") == 1
        assert cache.peek("missing") is None
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, 1)

    def test_get_counts_a_hit_and_refreshes_lru_order(self):
        cache = CompilationCache(capacity=2)
        cache.get_or_build("a", lambda: "A")
        cache.get_or_build("b", lambda: "B")
        assert cache.get("a") == "A"  # refresh a
        assert cache.get("missing") is None
        cache.get_or_build("c", lambda: "C")  # evicts b, not a
        assert cache.peek("a") == "A" and cache.peek("b") is None
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 3)

    def test_get_of_an_entry_being_built_counts_nothing(self):
        cache = CompilationCache(capacity=2)
        seen = []

        def builder():
            seen.append(cache.get("k"))
            return "built"

        assert cache.get_or_build("k", builder) == ("built", False)
        assert seen == [None]
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, 1)

    def test_clear(self):
        cache = CompilationCache(capacity=2)
        cache.get_or_build("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0


class TestLRU:
    def test_eviction_order_is_least_recently_used(self):
        cache = CompilationCache(capacity=2)
        cache.get_or_build("a", lambda: "A")
        cache.get_or_build("b", lambda: "B")
        cache.get_or_build("a", lambda: "A2")  # refresh a
        cache.get_or_build("c", lambda: "C")  # evicts b, not a
        assert cache.peek("a") == "A"
        assert cache.peek("b") is None
        assert cache.peek("c") == "C"

    def test_eviction_counter(self):
        cache = CompilationCache(capacity=1)
        for key in "abc":
            cache.get_or_build(key, lambda k=key: k)
        stats = cache.stats()
        assert stats.evictions == 2
        assert stats.entries == 1
        assert stats.capacity == 1

    def test_counters_dict_mirrors_stats(self):
        cache = CompilationCache(capacity=3)
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("a", lambda: 1)
        assert cache.counters() == {
            "cache_hits": 1,
            "cache_misses": 1,
            "cache_evictions": 0,
            "cache_entries": 1,
            "cache_capacity": 3,
        }


class TestConcurrency:
    def test_slow_build_does_not_block_other_keys(self):
        """A slow compile on one key must not head-of-line block a cache
        hit (or an independent build) on a different key."""
        cache = CompilationCache(capacity=4)
        cache.get_or_build("fast", lambda: "ready")
        slow_started = threading.Event()
        release_slow = threading.Event()
        slow_result = []

        def slow_builder():
            slow_started.set()
            assert release_slow.wait(timeout=5.0)
            return "slow-value"

        slow_thread = threading.Thread(
            target=lambda: slow_result.append(
                cache.get_or_build("slow", slow_builder)
            )
        )
        slow_thread.start()
        assert slow_started.wait(timeout=5.0)
        # while 'slow' is mid-build, a different key answers immediately
        done = threading.Event()
        hit_result = []

        def other_key():
            hit_result.append(cache.get_or_build("fast", lambda: "?"))
            done.set()

        threading.Thread(target=other_key).start()
        assert done.wait(timeout=2.0), (
            "hit on a different key blocked behind an in-flight build"
        )
        assert hit_result == [("ready", True)]
        release_slow.set()
        slow_thread.join(timeout=5.0)
        assert slow_result == [("slow-value", False)]

    def test_same_key_waiters_get_owner_value(self):
        cache = CompilationCache(capacity=4)
        release = threading.Event()
        results = []

        def builder():
            assert release.wait(timeout=5.0)
            return "v"

        def request():
            results.append(cache.get_or_build("k", builder))

        threads = [threading.Thread(target=request) for _ in range(4)]
        threads[0].start()
        while "k" not in cache._building:  # owner registered
            pass
        for t in threads[1:]:
            t.start()
        release.set()
        for t in threads:
            t.join(timeout=5.0)
        assert sorted(results) == [("v", False)] + [("v", True)] * 3

    def test_failed_build_propagates_and_allows_retry(self):
        cache = CompilationCache(capacity=4)
        with pytest.raises(RuntimeError, match="boom"):
            cache.get_or_build("k", lambda: (_ for _ in ()).throw(
                RuntimeError("boom")
            ))
        # the failure is not cached: a retry builds fresh
        assert cache.get_or_build("k", lambda: "ok") == ("ok", False)

    def test_concurrent_same_key_builds_once(self):
        cache = CompilationCache(capacity=4)
        built = []
        barrier = threading.Barrier(8)

        def hammer():
            barrier.wait()
            cache.get_or_build("k", lambda: built.append(1) or "v")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(built) == 1
        stats = cache.stats()
        assert stats.misses == 1
        assert stats.hits == 7


class TestTextMemo:
    def test_digest_is_128_bits_over_format_and_text(self):
        digest = TextMemo.digest("aag 0 0 0 0 0\n", "aiger")
        assert isinstance(digest, bytes) and len(digest) == 16
        assert digest == TextMemo.digest("aag 0 0 0 0 0\n", "aiger")
        assert digest != TextMemo.digest("aag 0 0 0 0 0\n", "bench")
        assert digest != TextMemo.digest("aag 0 0 0 0 0 \n", "aiger")
        # the separator keeps format and text apart
        assert TextMemo.digest("b", "a") != TextMemo.digest("", "ab")

    def test_lru_bound_and_order(self):
        memo = TextMemo(capacity=2)
        memo.put(b"a", "A")
        memo.put(b"b", "B")
        assert memo.get(b"a") == "A"  # refresh a
        memo.put(b"c", "C")  # drops b, not a
        assert len(memo) == 2
        assert (memo.get(b"a"), memo.get(b"b"), memo.get(b"c")) == ("A", None, "C")
