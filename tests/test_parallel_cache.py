"""Cache correctness: hits, misses, invalidation, corruption recovery."""

import json
import os

import numpy as np
import pytest

from repro import parallel
from repro.parallel import cache as cache_mod
from repro.parallel import engine


@pytest.fixture
def cache(tmp_path):
    return parallel.ResultCache(str(tmp_path / "cache"))


PAYLOAD = {
    "experiment": "x",
    "paper_ref": "Table X",
    "rows": [{"a": 1.0}],
    "summary": {"k": 2.0},
    "telemetry": None,
}


def test_result_hit_roundtrip(cache):
    key = engine.result_cache_key("table3", True, "fp")
    assert cache.get_result(key) is None
    cache.put_result(key, PAYLOAD, meta={"elapsed_s": 1.5})
    entry = cache.get_result(key)
    assert entry["result"] == PAYLOAD
    assert entry["meta"]["elapsed_s"] == 1.5


def test_miss_on_config_change(cache):
    cache.put_result(engine.result_cache_key("table3", True, "fp"), PAYLOAD)
    # Same experiment, full instead of quick mode: different key.
    assert cache.get_result(engine.result_cache_key("table3", False, "fp")) is None
    # Different experiment name: different key.
    assert cache.get_result(engine.result_cache_key("table4", True, "fp")) is None


def test_invalidation_on_fingerprint_change(cache):
    cache.put_result(engine.result_cache_key("table3", True, "fp-v1"), PAYLOAD)
    assert cache.get_result(engine.result_cache_key("table3", True, "fp-v2")) is None
    # The old entry is still present for the old fingerprint (content
    # addressing: invalidation = unreachability, not deletion).
    assert cache.get_result(engine.result_cache_key("table3", True, "fp-v1"))


def test_fingerprint_tracks_file_content(tmp_path):
    a = tmp_path / "a.py"
    b = tmp_path / "b.py"
    a.write_text("x = 1\n")
    b.write_text("y = 2\n")
    files = [("a.py", str(a)), ("b.py", str(b))]
    before = parallel.fingerprint_files(files)
    assert before == parallel.fingerprint_files(files)  # deterministic
    b.write_text("y = 3\n")
    assert parallel.fingerprint_files(files) != before


def test_source_fingerprint_memoized_and_stable():
    fp1 = parallel.source_fingerprint(("repro.sim",))
    fp2 = parallel.source_fingerprint(("repro.sim",))
    assert fp1 == fp2 and len(fp1) == 64
    assert parallel.source_fingerprint(("repro.nerf",)) != fp1
    parallel.clear_fingerprint_cache()
    assert parallel.source_fingerprint(("repro.sim",)) == fp1


def test_corrupted_result_entry_recovers(cache):
    key = engine.result_cache_key("table3", True, "fp")
    path = cache.put_result(key, PAYLOAD)
    with open(path, "w") as fh:
        fh.write("{not json")
    assert cache.get_result(key) is None  # miss, not an exception
    assert not os.path.exists(path)  # bad entry dropped
    # And the slot is usable again.
    cache.put_result(key, PAYLOAD)
    assert cache.get_result(key)["result"] == PAYLOAD


def test_malformed_but_valid_json_entry_recovers(cache):
    key = engine.result_cache_key("table3", True, "fp")
    path = cache.put_result(key, PAYLOAD)
    with open(path, "w") as fh:
        json.dump(["not", "a", "dict"], fh)
    assert cache.get_result(key) is None
    assert not os.path.exists(path)


def test_clear_and_stats(cache):
    cache.put_result(engine.result_cache_key("a", True, "fp"), PAYLOAD)
    cache.put_result(engine.result_cache_key("b", True, "fp"), PAYLOAD)
    stats = cache.stats()
    assert stats["results"]["entries"] == 2
    assert stats["results"]["bytes"] > 0
    assert cache.clear() == 2
    assert cache.stats()["results"]["entries"] == 0


def test_cache_key_canonical():
    assert cache_mod.cache_key("k", a=1, b=2) == cache_mod.cache_key("k", b=2, a=1)
    assert cache_mod.cache_key("k", a=1) != cache_mod.cache_key("k", a=2)
    assert cache_mod.cache_key("k1", a=1) != cache_mod.cache_key("k2", a=1)


def test_default_cache_root_env(monkeypatch, tmp_path):
    monkeypatch.setenv("FUSION3D_CACHE_DIR", str(tmp_path / "xyz"))
    assert cache_mod.default_cache_root() == str(tmp_path / "xyz")
    assert parallel.ResultCache().root == str(tmp_path / "xyz")


def test_corrupted_entry_recovery_under_concurrent_writers(cache):
    """A reader racing corrupting + repairing writers never sees garbage.

    The cache's contract is "allowed to forget, never to lie": with one
    thread truncating the entry mid-flight and another atomically
    rewriting it, every concurrent read must come back as either a miss
    (None) or a fully valid entry — never a partial/corrupt payload.
    """
    import threading

    key = "f" * 64
    path = cache._result_path(key)
    cache.put_result(key, PAYLOAD)
    stop = threading.Event()
    observed = []

    def corruptor():
        while not stop.is_set():
            try:
                with open(path, "w") as fh:
                    fh.write('{"result": ')  # truncated mid-write
            except OSError:
                pass

    def repairer():
        while not stop.is_set():
            cache.put_result(key, PAYLOAD)

    threads = [
        threading.Thread(target=corruptor),
        threading.Thread(target=repairer),
    ]
    for t in threads:
        t.start()
    try:
        for _ in range(300):
            observed.append(cache.get_result(key))
    finally:
        stop.set()
        for t in threads:
            t.join()
    assert observed  # sanity
    for entry in observed:
        assert entry is None or entry["result"] == PAYLOAD
    # Once the dust settles a clean write is served again.
    cache.put_result(key, PAYLOAD)
    assert cache.get_result(key)["result"] == PAYLOAD
