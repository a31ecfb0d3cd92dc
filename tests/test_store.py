"""Content-addressed artifact store: fingerprints, round-trips, faults.

The fault-injection half is the point: a truncated, corrupted, or
concurrently-written artifact must surface as a verified miss (evict →
rebuild), never as a crash or a silently wrong load.
"""

import dataclasses
import json
import os
import pathlib

import numpy as np
import pytest

from repro.store import ArtifactStore, canonical_json, fingerprint, resolve_cache_dir


@dataclasses.dataclass(frozen=True)
class _Knobs:
    depth: int
    rate: float


def _arrays():
    return {
        "ids": np.arange(64, dtype=np.int64),
        "vals": np.linspace(0.0, 1.0, 64, dtype=np.float32),
    }


def _put(store, config=None, kind="trace"):
    return store.put(kind, config or {"seed": 7}, 1, _arrays(), meta={"n": 64})


# ---------------------------------------------------------------- fingerprints
class TestCanonicalJson:
    def test_dict_order_irrelevant(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})

    def test_tuple_and_list_equivalent(self):
        assert canonical_json({"xs": (1, 2)}) == canonical_json({"xs": [1, 2]})

    def test_numpy_scalars_normalized(self):
        assert canonical_json({"n": np.int64(3), "f": np.float64(0.5), "b": np.bool_(True)}) == (
            canonical_json({"n": 3, "f": 0.5, "b": True})
        )

    def test_dataclass_equals_its_dict(self):
        assert canonical_json(_Knobs(2, 0.1)) == canonical_json({"depth": 2, "rate": 0.1})

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json({"x": float("nan")})

    def test_inf_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json({"x": float("inf")})

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError, match="keys must be strings"):
            canonical_json({1: "a"})

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError, match="not fingerprintable"):
            canonical_json({"x": object()})


class TestFingerprint:
    def test_stable(self):
        assert fingerprint("trace", {"seed": 7}, 1) == fingerprint("trace", {"seed": 7}, 1)

    def test_kind_config_and_schema_all_enter(self):
        base = fingerprint("trace", {"seed": 7}, 1)
        assert fingerprint("split", {"seed": 7}, 1) != base
        assert fingerprint("trace", {"seed": 8}, 1) != base
        assert fingerprint("trace", {"seed": 7}, 2) != base


class TestResolveCacheDir:
    def test_explicit_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/elsewhere")
        assert resolve_cache_dir(tmp_path) == tmp_path

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/from/env")
        assert resolve_cache_dir(None) == pathlib.Path("/from/env")

    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache_dir(None) is None


# ------------------------------------------------------------------ round-trip
class TestRoundTrip:
    def test_put_get_arrays_identical(self, tmp_path):
        store = ArtifactStore(tmp_path)
        _put(store)
        art = store.get("trace", {"seed": 7}, 1)
        assert art is not None
        for name, expect in _arrays().items():
            got = art.array(name)
            np.testing.assert_array_equal(np.asarray(got), expect)
            assert np.asarray(got).dtype == expect.dtype
        assert art.meta == {"n": 64}
        assert art.array_names() == ["ids", "vals"]

    def test_arrays_memory_mapped_readonly(self, tmp_path):
        store = ArtifactStore(tmp_path)
        _put(store)
        arr = store.get("trace", {"seed": 7}, 1).array("ids")
        assert isinstance(arr, np.memmap)
        with pytest.raises((ValueError, OSError)):
            arr[0] = 99

    def test_miss_then_hit_counters(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get("trace", {"seed": 7}, 1) is None
        _put(store)
        assert store.get("trace", {"seed": 7}, 1) is not None
        assert store.stats() == {"hits": 1, "misses": 1, "builds": 0, "evictions": 0}


    def test_object_dtype_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(TypeError, match="object dtype"):
            store.put("trace", {}, 1, {"bad": np.array([{}, {}], dtype=object)})

    def test_hostile_array_name_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError, match="invalid array name"):
            store.put("trace", {}, 1, {"a/b": np.zeros(2)})


# -------------------------------------------------------------- fault injection
class TestFaults:
    def test_truncated_array_evicted_not_crashed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        art = _put(store)
        npy = art.path / "ids.npy"
        npy.write_bytes(npy.read_bytes()[: npy.stat().st_size // 2])
        assert store.get("trace", {"seed": 7}, 1) is None
        assert store.evictions == 1
        assert not art.path.exists()
        # the slot is rebuildable after eviction
        _put(store)
        assert store.get("trace", {"seed": 7}, 1) is not None

    def test_bitflip_corruption_evicted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        art = _put(store)
        npy = art.path / "vals.npy"
        raw = bytearray(npy.read_bytes())
        raw[-1] ^= 0xFF  # same size, different bytes: only the hash catches it
        npy.write_bytes(bytes(raw))
        assert store.get("trace", {"seed": 7}, 1) is None
        assert store.evictions == 1

    def test_mangled_meta_json_evicted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        art = _put(store)
        (art.path / "meta.json").write_text("{not json", encoding="utf-8")
        assert store.get("trace", {"seed": 7}, 1) is None
        assert store.evictions == 1

    def test_missing_array_file_evicted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        art = _put(store)
        (art.path / "ids.npy").unlink()
        assert store.get("trace", {"seed": 7}, 1) is None
        assert store.evictions == 1

    def test_foreign_format_evicted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        art = _put(store)
        meta = json.loads((art.path / "meta.json").read_text(encoding="utf-8"))
        meta["format"] = "someone-elses-cache"
        (art.path / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        assert store.get("trace", {"seed": 7}, 1) is None

    def test_double_writer_loser_adopts_winner(self, tmp_path):
        """Two writers race on one key: the loser's rename fails and it must
        hand back the winner's (verified) artifact, not crash."""
        winner = ArtifactStore(tmp_path)
        first = _put(winner)
        loser = ArtifactStore(tmp_path)
        second = _put(loser)  # final dir already exists → os.replace loses
        assert second.digest == first.digest
        np.testing.assert_array_equal(np.asarray(second.array("ids")), _arrays()["ids"])
        assert not any(winner.tmp_dir.iterdir())  # no abandoned tmp builds

    def test_double_writer_with_corrupt_winner_rebuilds(self, tmp_path):
        """Losing the race to a *corrupt* occupant: evict it and retry."""
        store = ArtifactStore(tmp_path)
        final = store.entry_path("trace", {"seed": 7}, 1)
        final.mkdir(parents=True)
        (final / "meta.json").write_text("garbage", encoding="utf-8")
        art = _put(store)
        assert store.evictions == 1
        np.testing.assert_array_equal(np.asarray(art.array("ids")), _arrays()["ids"])
        assert store.get("trace", {"seed": 7}, 1) is not None


# ------------------------------------------------------------------ management
class TestManagement:
    def test_ls_lists_and_filters_kinds(self, tmp_path):
        store = ArtifactStore(tmp_path)
        _put(store, kind="trace")
        _put(store, kind="split")
        assert {r.kind for r in store.ls()} == {"trace", "split"}
        only = store.ls(kinds=["split"])
        assert [r.kind for r in only] == ["split"]
        assert all(r.nbytes > 0 for r in only)

    def test_ls_skips_corrupt_entries(self, tmp_path):
        store = ArtifactStore(tmp_path)
        art = _put(store)
        (art.path / "meta.json").write_text("junk", encoding="utf-8")
        assert store.ls() == []

    def test_gc_removes_and_reclaims(self, tmp_path):
        store = ArtifactStore(tmp_path)
        _put(store, kind="trace")
        _put(store, kind="split")
        removed, reclaimed = store.gc(kinds=["trace"])
        assert removed == 1 and reclaimed > 0
        assert [r.kind for r in store.ls()] == ["split"]
        removed, _ = store.gc()
        assert removed == 1
        assert store.ls() == []

    def test_gc_reaps_stray_tmp_dirs(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.tmp_dir.mkdir(parents=True)
        stray = store.tmp_dir / f"{os.getpid()}-deadbeef"
        stray.mkdir()
        (stray / "partial.npy").write_bytes(b"\x00" * 128)
        _, reclaimed = store.gc()
        assert reclaimed >= 128
        assert not stray.exists()
