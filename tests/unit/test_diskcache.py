"""Unit tests for the disk result cache and the tiered cache over it."""

import os
import pickle
import threading

import pytest

from repro.engine import ExchangeEngine
from repro.engine.cache import LRUCache, TieredCache
from repro.facts import Fact
from repro.instance import Instance
from repro.mappings.schema_mapping import SchemaMapping
from repro.service.diskcache import (
    CACHE_OFF_VALUES,
    DiskCache,
    resolve_cache_dir,
)
from repro.terms import Const, Null


@pytest.fixture
def cache(tmp_path):
    return DiskCache(str(tmp_path / "cache"))


class TestRoundTrip:
    def test_miss_then_hit(self, cache):
        key = ("chase", "m" * 64, "i" * 64, "restricted")
        hit, _ = cache.get(key)
        assert not hit
        cache.put(key, {"facts": 3})
        hit, value = cache.get(key)
        assert hit and value == {"facts": 3}
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.writes == 1

    def test_distinct_keys_distinct_entries(self, cache):
        cache.put(("a", 1), "one")
        cache.put(("a", 2), "two")
        assert cache.get(("a", 1)) == (True, "one")
        assert cache.get(("a", 2)) == (True, "two")
        assert len(cache) == 2

    def test_overwrite_same_key(self, cache):
        cache.put(("k",), "old")
        cache.put(("k",), "new")
        assert cache.get(("k",)) == (True, "new")
        assert len(cache) == 1

    def test_survives_reopen(self, cache):
        cache.put(("k",), [1, 2, 3])
        reopened = DiskCache(cache.root)
        assert reopened.get(("k",)) == (True, [1, 2, 3])

    def test_unpicklable_value_skipped(self, cache):
        cache.put(("k",), threading.Lock())
        assert cache.stats.skipped == 1
        hit, _ = cache.get(("k",))
        assert not hit


class TestCorruption:
    def _entry_path(self, cache, key=("k",), value="v"):
        cache.put(key, value)
        return cache.path_for(key)

    def test_truncated_entry_is_miss_and_quarantined(self, cache):
        path = self._entry_path(cache)
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        hit, _ = cache.get(("k",))
        assert not hit
        assert cache.stats.quarantined == 1
        assert not os.path.exists(path)
        assert os.listdir(cache.quarantine_dir) == [
            os.path.basename(path) + ".bad"
        ]

    def test_flipped_byte_is_miss_and_quarantined(self, cache):
        path = self._entry_path(cache)
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        blob[-1] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        hit, _ = cache.get(("k",))
        assert not hit and cache.stats.quarantined == 1

    def test_bad_magic_is_miss_and_quarantined(self, cache):
        path = self._entry_path(cache)
        with open(path, "wb") as handle:
            handle.write(b"JUNK" + b"\x00" * 40)
        hit, _ = cache.get(("k",))
        assert not hit and cache.stats.quarantined == 1

    def test_empty_file_is_miss(self, cache):
        path = self._entry_path(cache)
        open(path, "wb").close()
        hit, _ = cache.get(("k",))
        assert not hit

    def test_checksum_valid_but_wrong_key_is_miss(self, cache):
        # Simulate a (astronomically unlikely) path collision: a valid
        # entry for another key sitting at this key's path.
        import hashlib

        from repro.service.diskcache import _MAGIC

        path = cache.path_for(("k",))
        payload = pickle.dumps((repr(("other",)), "value"))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(_MAGIC + hashlib.sha256(payload).digest() + payload)
        hit, _ = cache.get(("k",))
        assert not hit and cache.stats.quarantined == 1

    def test_rewrite_after_quarantine_works(self, cache):
        path = self._entry_path(cache)
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        cache.get(("k",))
        cache.put(("k",), "fresh")
        assert cache.get(("k",)) == (True, "fresh")

    #: A checksum-valid entry written while ``Const``, ``Null`` and
    #: ``Fact`` were frozen dataclasses (before DESIGN.md D13): key
    #: ``DATACLASS_KEY``, value ``(Const(5), Fact("P", (Const("a"),
    #: Null("X"))))``.  Those pickles rebuild each object empty and then
    #: set its fields, which a tagged tuple cannot take.
    DATACLASS_KEY = ("chase", "mmmmmmmm", "iiiiiiii", "restricted")
    DATACLASS_ENTRY = (
        b'RPC1\xe4\xbds\x19B\xa5U\xb2[EMW'
        b'\x8b\xbb\xe9<\x9c\x8ce\xd0N\x19\xe8\x80+\xc5\xd5\x06'
        b'\x96\xc4\xb6n\x80\x04\x95\xc5\x00\x00\x00\x00\x00\x00\x00\x8c'
        b"/('chase', 'mmmm"
        b"mmmm', 'iiiiiiii"
        b"', 'restricted')"
        b'\x94\x8c\x0brepro.terms\x94\x8c'
        b'\x05Const\x94\x93\x94)\x81\x94}\x94\x8c\x05'
        b'value\x94K\x05sb\x8c\x0brepr'
        b'o.facts\x94\x8c\x04Fact\x94\x93'
        b'\x94)\x81\x94}\x94(\x8c\x08relatio'
        b'n\x94\x8c\x01P\x94\x8c\x06values\x94h'
        b'\x03)\x81\x94}\x94h\x06\x8c\x01a\x94sbh\x01'
        b'\x8c\x04Null\x94\x93\x94)\x81\x94}\x94\x8c\x04'
        b'name\x94\x8c\x01X\x94sb\x86\x94ub\x86'
        b'\x94\x86\x94.'
    )

    def test_dataclass_era_entry_is_a_miss_not_a_wrong_value(self, cache):
        import hashlib

        from repro.service.diskcache import _MAGIC

        blob = self.DATACLASS_ENTRY
        payload = blob[len(_MAGIC) + 32:]
        assert blob[len(_MAGIC):len(_MAGIC) + 32] == hashlib.sha256(payload).digest()
        path = cache.path_for(self.DATACLASS_KEY)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(blob)
        assert cache.get(self.DATACLASS_KEY) == (False, None)
        assert cache.stats.quarantined == 1 and not os.path.exists(path)
        fresh = (Const(5), Fact("P", (Const("a"), Null("X"))))
        cache.put(self.DATACLASS_KEY, fresh)
        hit, value = cache.get(self.DATACLASS_KEY)
        assert hit and value == fresh
        assert [type(v) for v in value] == [Const, Fact]


class TestConcurrency:
    def test_concurrent_same_key_writers_leave_whole_entry(self, cache):
        key = ("shared",)
        barrier = threading.Barrier(8)

        def writer(i):
            barrier.wait()
            for _ in range(25):
                cache.put(key, {"writer": i, "payload": "x" * 512})

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        hit, value = cache.get(key)
        assert hit
        # Whichever writer won, the entry is one writer's whole payload.
        assert value["payload"] == "x" * 512
        assert cache.stats.quarantined == 0

    def test_concurrent_readers_and_writers(self, cache):
        key = ("rw",)
        cache.put(key, 0)
        stop = threading.Event()
        bad = []

        def reader():
            local = DiskCache(cache.root)
            while not stop.is_set():
                hit, value = local.get(key)
                if hit and not isinstance(value, int):
                    bad.append(value)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for t in readers:
            t.start()
        for i in range(50):
            cache.put(key, i)
        stop.set()
        for t in readers:
            t.join()
        assert bad == []


class TestGc:
    def test_size_budget_evicts_oldest_first(self, cache):
        for i in range(10):
            cache.put(("k", i), "v" * 100)
            path = cache.path_for(("k", i))
            os.utime(path, (1000 + i, 1000 + i))
        sizes = [os.path.getsize(cache.path_for(("k", i))) for i in range(10)]
        budget = sum(sizes[5:])  # room for exactly the 5 newest
        report = cache.gc(max_bytes=budget)
        assert report.deleted == 5
        assert report.reasons == {"size": 5}
        for i in range(5):
            hit, _ = cache.get(("k", i))
            assert not hit, f"old entry {i} should be gone"
        for i in range(5, 10):
            hit, _ = cache.get(("k", i))
            assert hit, f"new entry {i} should survive"
        assert report.bytes_kept <= budget

    def test_age_budget(self, cache):
        cache.put(("old",), 1)
        cache.put(("new",), 2)
        os.utime(cache.path_for(("old",)), (1000, 1000))
        os.utime(cache.path_for(("new",)), (9000, 9000))
        report = cache.gc(max_age=100.0, now=9050.0)
        assert report.deleted == 1 and report.reasons == {"age": 1}
        assert cache.get(("old",))[0] is False
        assert cache.get(("new",))[0] is True

    def test_gc_clears_quarantine(self, cache):
        cache.put(("k",), "v")
        path = cache.path_for(("k",))
        with open(path, "wb") as handle:
            handle.write(b"junk")
        cache.get(("k",))  # quarantines
        assert len(os.listdir(cache.quarantine_dir)) == 1
        report = cache.gc()
        assert report.quarantine_cleared == 1
        assert os.listdir(cache.quarantine_dir) == []

    def test_gc_report_renders(self, cache):
        cache.put(("k",), "v")
        text = cache.gc(max_bytes=0).render()
        assert "deleted 1" in text


class TestResolveCacheDir:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/env/path")
        assert resolve_cache_dir("/cli/path") == "/cli/path"

    def test_explicit_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/env/path")
        for off in CACHE_OFF_VALUES:
            assert resolve_cache_dir(off) is None

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/env/path")
        assert resolve_cache_dir(None) == "/env/path"

    def test_env_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        assert resolve_cache_dir(None) is None

    def test_nothing_set(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache_dir(None) is None


class TestTieredCache:
    def make(self, tmp_path, maxsize=4):
        disk = DiskCache(str(tmp_path / "cache"))
        return TieredCache(LRUCache(maxsize), disk, "op"), disk

    def test_write_through_and_promote(self, tmp_path):
        tiered, disk = self.make(tmp_path)
        tiered.put(("k",), "v")
        assert disk.get(("op", "k"))[0]  # namespaced on disk
        fresh, _ = self.make(tmp_path)
        # Memory-cold read falls through to disk and promotes.
        assert fresh.get(("k",)) == (True, "v")
        assert fresh.backing_hits == 1
        assert ("k",) in fresh.memory

    def test_stats_merge(self, tmp_path):
        tiered, _ = self.make(tmp_path)
        tiered.get(("miss",))
        tiered.put(("k",), "v")
        tiered.get(("k",))
        stats = tiered.stats
        assert stats.hits == 1 and stats.misses == 1

    def test_clear_keeps_backing(self, tmp_path):
        tiered, _ = self.make(tmp_path)
        tiered.put(("k",), "v")
        tiered.clear()
        assert len(tiered.memory) == 0
        assert tiered.get(("k",)) == (True, "v")
        assert tiered.backing_hits == 1

    def test_namespaces_disjoint(self, tmp_path):
        disk = DiskCache(str(tmp_path / "cache"))
        a = TieredCache(LRUCache(4), disk, "a")
        b = TieredCache(LRUCache(4), disk, "b")
        a.put(("k",), "from-a")
        assert b.get(("k",)) == (False, None)


class TestEngineDiskTier:
    def test_engine_results_survive_restart(self, tmp_path):
        mapping = SchemaMapping.from_text("P(x) -> Q(x, z)")
        source = Instance.parse("P(a)")
        first = ExchangeEngine(disk_cache=str(tmp_path / "cache"))
        cold = first.exchange(mapping, source)
        assert not cold.cached
        second = ExchangeEngine(disk_cache=str(tmp_path / "cache"))
        warm = second.exchange(mapping, source)
        assert warm.cached
        assert warm.instance.facts == cold.instance.facts

    def test_no_cache_disables_disk_tier(self, tmp_path):
        engine = ExchangeEngine(
            enable_cache=False, disk_cache=str(tmp_path / "cache")
        )
        assert engine.disk_cache is None

    def test_partial_results_not_persisted(self, tmp_path):
        from repro.limits import Limits

        mapping = SchemaMapping.from_text("E(x, y) & E(y, z) -> E(x, z)")
        source = Instance.parse("E(a, b), E(b, c), E(c, d), E(d, e)")
        engine = ExchangeEngine(disk_cache=str(tmp_path / "cache"))
        partial = engine.exchange(
            mapping, source,
            limits=Limits(max_rounds=1, on_exhausted="partial"),
        )
        assert partial.exhausted is not None
        fresh = ExchangeEngine(disk_cache=str(tmp_path / "cache"))
        replay = fresh.exchange(mapping, source)
        assert not replay.cached
        assert replay.exhausted is None
