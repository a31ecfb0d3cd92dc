"""Serving core: score-index freeze/load, batched bit-identity, LRU, fold-in.

The serving layer's headline contract is *bit-identity*: a frozen index
round-trips through the artifact store byte-equal, and a request's response
(ids and scores) is byte-equal no matter which micro-batch it rode in.
"""

import hashlib
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Adam, Parameter, Tensor
from repro.autograd import functional as F
from repro.data.interactions import InteractionDataset
from repro.models import BPRMF
from repro.models.base import FitConfig
from repro.serving import (
    FoldInConfig,
    FoldInEngine,
    LRUCache,
    RecommendService,
    ScoreIndex,
)
from repro.store import ArtifactStore
from tests.foldin_reference import reference_fold_in, reference_negatives


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(0)
    num_users, num_items = 40, 30
    train = InteractionDataset(
        rng.integers(0, num_users, 600), rng.integers(0, num_items, 600),
        num_users, num_items,
    )
    model = BPRMF(num_users, num_items, dim=16, seed=3)
    model.fit(train, FitConfig(epochs=2, batch_size=128, seed=3))
    return model, train


@pytest.fixture()
def index(trained):
    model, train = trained
    return ScoreIndex.from_model(model, train)


# ---------------------------------------------------------------- the index
class TestScoreIndex:
    def test_from_model_copies_factors(self, trained, index):
        model, train = trained
        user_vecs, item_vecs = model.scoring_factors()
        np.testing.assert_array_equal(index.user_vecs, user_vecs)
        np.testing.assert_array_equal(index.item_vecs, item_vecs)
        assert index.user_vecs is not user_vecs  # frozen copy, not a view
        np.testing.assert_array_equal(index.train_indptr, train.user_offsets)
        np.testing.assert_array_equal(index.train_indices, train.item_ids)

    def test_from_model_requires_factors(self, trained):
        _, train = trained

        class Unfactored:
            def scoring_factors(self):
                return None

        with pytest.raises(ValueError, match="scoring_factors"):
            ScoreIndex.from_model(Unfactored(), train)

    def test_store_round_trip_bit_identity(self, index, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        config = {"model": "BPRMF", "seed": 3}
        artifact = index.save(store, config)
        loaded = ScoreIndex.load(store, config)
        assert loaded is not None
        for name in ("user_vecs", "item_vecs", "train_indptr", "train_indices"):
            np.testing.assert_array_equal(
                getattr(loaded, name), getattr(index, name), strict=True
            )
        assert loaded.meta["model"] == "BPRMF"
        # ... and the loaded (mmap'd) index ranks identically.
        users = np.arange(10)
        ref = index.topk_users(users, 5)
        got = loaded.topk_users(users, 5)
        for r, g in zip(ref, got):
            np.testing.assert_array_equal(g, r)
        # Content addressing: same config resolves to the same digest.
        assert ScoreIndex.by_digest(store, artifact.digest[:12]) is not None

    def test_by_digest_miss_and_ambiguity(self, index, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        index.save(store, {"seed": 1})
        index.save(store, {"seed": 2})
        assert ScoreIndex.by_digest(store, "ffff") is None
        with pytest.raises(ValueError, match="ambiguous"):
            ScoreIndex.by_digest(store, "")

    def test_topk_users_matches_recommend(self, trained, index):
        model, train = trained
        ids, scores, valid = index.topk_users(np.arange(12), 5)
        for u in range(12):
            ref = model.recommend(u, k=5, exclude=train.items_of_user(u))
            assert ids[u, : valid[u]].tolist() == ref.tolist()
            assert np.isfinite(scores[u, : valid[u]]).all()

    def test_batch_composition_bit_identity(self, index):
        """The same user's ids AND scores are byte-equal across batch shapes
        — alone, in a small batch, in a batch wider than 32 rows."""
        alone = index.topk_users(np.array([7]), 5)
        small = index.topk_users(np.array([3, 7, 11]), 5)
        big = index.topk_users(np.arange(40), 5)
        np.testing.assert_array_equal(small[0][1], alone[0][0])
        np.testing.assert_array_equal(small[1][1], alone[1][0], strict=True)
        np.testing.assert_array_equal(big[0][7], alone[0][0])
        np.testing.assert_array_equal(big[1][7], alone[1][0], strict=True)

    def test_row_value_and_position_independence(self, index):
        """A row's scores do not depend on what else is in the batch or
        where the row sits."""
        rng = np.random.default_rng(5)
        probe = rng.standard_normal(index.dim)
        empty = np.zeros(0, dtype=np.int64)

        def score_at(position, filler_seed):
            filler = np.random.default_rng(filler_seed).standard_normal(
                (8, index.dim)
            )
            vecs = filler.copy()
            vecs[position] = probe
            _, scores, _ = index.topk_vectors(vecs, 5, empty, empty)
            return scores[position]

        base = score_at(0, filler_seed=11)
        np.testing.assert_array_equal(score_at(0, filler_seed=99), base)
        np.testing.assert_array_equal(score_at(5, filler_seed=99), base)

    def test_concurrent_topk_users_match_serial(self):
        """Threads sharing one index get exactly the serial results.

        The index keeps no scratch state, so ``topk_users`` from several
        threads at once — switching as often as the interpreter allows,
        while BLAS runs without the GIL — must reproduce a serial run bit
        for bit.
        """
        index = _random_index(np.random.default_rng(23), 120, 400, 32)
        rng = np.random.default_rng(29)
        batches = [
            rng.integers(0, index.num_users, rng.integers(1, 40)) for _ in range(300)
        ]

        def run(worker):
            return [index.topk_users(batch, 10) for batch in batches]

        serial = run(None)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(run, range(4), timeout=300))
        finally:
            sys.setswitchinterval(previous)
        for results in threaded:
            for got, ref in zip(results, serial):
                for g, r in zip(got, ref):
                    np.testing.assert_array_equal(g, r, strict=True)

    def test_zero_candidate_row_yields_empty(self, index):
        """A fold-in user who observed every item has nothing to recommend."""
        vecs = np.ones((1, index.dim))
        rows = np.zeros(index.num_items, dtype=np.int64)
        cols = np.arange(index.num_items, dtype=np.int64)
        ids, scores, valid = index.topk_vectors(vecs, 5, rows, cols)
        assert valid[0] == 0
        assert (scores[0] == -np.inf).all()

    def test_k_validation(self, index):
        with pytest.raises(ValueError, match="k must be in"):
            index.topk_users(np.array([0]), 0)
        with pytest.raises(ValueError, match="k must be in"):
            index.topk_users(np.array([0]), index.num_items + 1)
        with pytest.raises(ValueError, match="user ids outside"):
            index.topk_users(np.array([index.num_users]), 5)

    def test_shape_validation(self, index):
        with pytest.raises(ValueError, match="factor dim mismatch"):
            ScoreIndex(
                np.zeros((2, 3)), np.zeros((4, 5)),
                np.zeros(3, dtype=np.int64), np.zeros(0, dtype=np.int64),
            )
        with pytest.raises(ValueError, match="num_users"):
            ScoreIndex(
                np.zeros((2, 3)), np.zeros((4, 3)),
                np.zeros(5, dtype=np.int64), np.zeros(0, dtype=np.int64),
            )


# ------------------------------------------------------------------- the LRU
class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes 'a'
        cache.put("c", 3)  # evicts 'b', the LRU entry
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_put_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh + replace
        cache.put("c", 3)  # evicts 'b'
        assert cache.get("a") == 10
        assert cache.get("b") is None

    def test_counters(self):
        cache = LRUCache(4)
        assert cache.get("x") is None
        cache.put("x", 1)
        cache.get("x")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert len(cache) == 1 and "x" in cache

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            LRUCache(0)


# ----------------------------------------------------------------- fold-in
class TestFoldIn:
    def test_deterministic(self, index):
        engine = FoldInEngine(index, FoldInConfig(seed=9))
        a = engine.embed([1, 2, 3])
        b = engine.embed([3, 1, 2, 2])  # order/duplicates don't matter
        np.testing.assert_array_equal(a, b, strict=True)

    def test_refinement_moves_off_warm_start(self, index):
        warm = FoldInEngine(index, FoldInConfig(steps=0)).embed([1, 2, 3])
        refined = FoldInEngine(index, FoldInConfig(steps=10)).embed([1, 2, 3])
        np.testing.assert_array_equal(
            warm, np.asarray(index.item_vecs)[[1, 2, 3]].mean(axis=0)
        )
        assert not np.array_equal(refined, warm)

    def test_refinement_helps_ranking(self, index):
        """Refined vectors should rank the observed items' neighborhood at
        least as well as the raw centroid does — sanity, not a proof."""
        items = [1, 2, 3]
        engine = FoldInEngine(index, FoldInConfig(steps=15))
        refined = engine.embed(items)
        item_vecs = np.asarray(index.item_vecs)
        # BPR pushes observed items above unobserved ones for this user.
        scores = item_vecs @ refined
        observed_mean = scores[items].mean()
        rest = np.delete(scores, items).mean()
        assert observed_mean > rest

    def test_item_table_stays_frozen(self, index):
        before = np.asarray(index.item_vecs).copy()
        FoldInEngine(index, FoldInConfig(steps=10)).embed([4, 5])
        np.testing.assert_array_equal(np.asarray(index.item_vecs), before)

    def test_validation(self, index):
        engine = FoldInEngine(index)
        with pytest.raises(ValueError, match="at least one"):
            engine.embed([])
        with pytest.raises(ValueError, match="outside"):
            engine.embed([index.num_items])
        with pytest.raises(ValueError, match="outside"):
            engine.embed([-1])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FoldInConfig(steps=-1)
        with pytest.raises(ValueError):
            FoldInConfig(lr=0.0)
        with pytest.raises(ValueError):
            FoldInConfig(negatives_per_pos=0)

    def test_id_past_int64_is_out_of_range(self, index):
        with pytest.raises(ValueError, match=r"outside .*\[-?1{30}\]"):
            FoldInEngine(index).embed([1, int("1" * 30)])
        with pytest.raises(ValueError, match="outside"):
            FoldInEngine(index).embed([-(10**30)])

    def test_all_but_one_observed_is_fast(self):
        """With one free item among ~2000, every negative is that item, and
        drawing them costs no more than any other fold-in (rejection
        sampling needed ~2000 rounds per step here, over a second)."""
        rng = np.random.default_rng(0)
        num_items, free_item = 2000, 1234
        index = ScoreIndex(
            rng.standard_normal((1, 16)), rng.standard_normal((num_items, 16)),
            np.zeros(2, dtype=np.int64), np.zeros(0, dtype=np.int64),
        )
        items = np.delete(np.arange(num_items), free_item)
        engine = FoldInEngine(index, FoldInConfig(steps=2, negatives_per_pos=1))
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            vector = engine.embed(items)
            seconds.append(time.perf_counter() - start)
        # ~3 ms on a 2-vCPU VM; the bound leaves >= 30x headroom.
        assert min(seconds) < 0.1, seconds
        assert np.all(np.isfinite(vector))
        negatives = engine.negatives(items)
        assert negatives.shape == (2, items.size)
        assert np.all(negatives == free_item)


def _autograd_foldin(index, config, items, negatives):
    """The fold-in refinement as a per-step autograd graph — the oracle.

    A one-row parameter table gathered once per pair through ``take_rows``,
    ``bpr_loss + l2 · squared_norm`` on the gathered rows, ``backward``, and
    the sparse-row ``Adam`` step, over the given ``(steps, pairs)``
    negatives.
    """
    item_table = np.asarray(index.item_vecs)
    user_table = Parameter(item_table[items].mean(axis=0)[None, :].copy())
    optimizer = Adam([user_table], lr=config.lr)
    pos = np.repeat(items, config.negatives_per_pos)
    row_ids = np.zeros(pos.size, dtype=np.int64)
    for neg in negatives:
        u = F.take_rows(user_table, row_ids)
        pos_scores = F.sum(F.mul(u, Tensor(item_table[pos])), axis=1)
        neg_scores = F.sum(F.mul(u, Tensor(item_table[neg])), axis=1)
        loss = F.bpr_loss(pos_scores, neg_scores)
        if config.l2:
            loss = F.add(loss, F.mul(Tensor(config.l2), F.squared_norm(u)))
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    return user_table.data[0]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_items=st.integers(2, 40),
    dim=st.integers(1, 12),
    steps=st.integers(1, 20),
    negatives_per_pos=st.integers(1, 6),
    random_l2=st.booleans(),
    data=st.data(),
)
def test_foldin_closed_form_equals_autograd_property(
    seed, num_items, dim, steps, negatives_per_pos, random_l2, data
):
    """The closed-form gradient + dense Adam lands on the autograd chain's
    vector (rtol 1e-12) for the same negatives, which avoid the observed
    set (any size from 1 to ``num_items - 1``, duplicates in the input)."""
    rng = np.random.default_rng(seed)
    index = _random_index(rng, 2, num_items, dim)
    distinct = data.draw(st.integers(1, num_items - 1), label="distinct")
    observed = rng.choice(num_items, size=distinct, replace=False)
    item_ids = np.r_[observed, rng.choice(observed, size=rng.integers(0, 4))]
    l2 = float(rng.uniform(1e-5, 1e-1)) if random_l2 else 0.0
    config = FoldInConfig(
        steps=steps, lr=float(rng.uniform(1e-3, 0.2)), l2=l2,
        negatives_per_pos=negatives_per_pos, seed=seed,
    )
    engine = FoldInEngine(index, config)
    items = engine.observed(item_ids)
    negatives = engine.negatives(items)
    assert negatives.shape == (steps, negatives_per_pos * items.size)
    assert not np.isin(negatives, items).any()
    got = engine.embed(item_ids)
    want = _autograd_foldin(index, config, items, negatives)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_items=st.integers(2, 200),
    dim=st.integers(1, 24),
    steps=st.integers(0, 20),
    negatives_per_pos=st.integers(1, 6),
    random_l2=st.booleans(),
    data=st.data(),
)
def test_fold_in_matches_reference_bits_property(
    seed, num_items, dim, steps, negatives_per_pos, random_l2, data
):
    """``RecommendService.fold_in`` mints the handle and the vector bytes of
    the step-by-step reference (masked complement, ``Parameter`` + ``Adam``),
    and the ``searchsorted`` negatives are the masked draw, for observed sets
    of any size from 1 to ``num_items - 1`` with duplicates in the input."""
    rng = np.random.default_rng(seed)
    index = _random_index(rng, 2, num_items, dim)
    distinct = data.draw(st.integers(1, num_items - 1), label="distinct")
    observed = rng.choice(num_items, size=distinct, replace=False)
    item_ids = np.r_[observed, rng.choice(observed, size=rng.integers(0, 4))]
    l2 = float(rng.uniform(1e-5, 1e-1)) if random_l2 else 0.0
    config = FoldInConfig(
        steps=steps, lr=float(rng.uniform(1e-3, 0.2)), l2=l2,
        negatives_per_pos=negatives_per_pos, seed=seed,
    )
    service = RecommendService(index, config)
    handle = service.fold_in(item_ids.tolist())
    want_handle, want_vector = reference_fold_in(index, config, item_ids)
    assert handle == want_handle
    vector, items = service._foldin_users[handle]
    assert vector.dtype == want_vector.dtype and vector.shape == want_vector.shape
    assert vector.tobytes() == want_vector.tobytes()
    np.testing.assert_array_equal(
        service.foldin.negatives(items), reference_negatives(index, config, items),
        strict=True,
    )


# ----------------------------------------------------------------- service
class TestRecommendService:
    def test_batched_equals_single(self, index):
        service = RecommendService(index)
        requests = [{"user": u, "k": 5} for u in range(20)]
        batched = service.recommend_many(requests)
        singles = [service.recommend_one(r) for r in requests]
        assert batched == singles

    def test_mixed_k_batch_equals_single(self, index):
        """Sub-batching by k: a k=3 request in a mostly-k=8 batch must match
        its standalone result (truncating a k=8 selection is not
        tie-identical to selecting k=3 directly)."""
        service = RecommendService(index)
        mixed = service.recommend_many(
            [{"user": 0, "k": 8}, {"user": 1, "k": 3}, {"user": 2, "k": 8}]
        )
        assert mixed[1] == service.recommend_one({"user": 1, "k": 3})
        assert mixed[0] == service.recommend_one({"user": 0, "k": 8})

    def test_mixed_users_and_handles(self, index):
        service = RecommendService(index)
        handle = service.fold_in([1, 2, 3])
        responses = service.recommend_many(
            [{"user": 4, "k": 5}, {"handle": handle, "k": 5}]
        )
        assert responses[0]["user"] == 4
        assert responses[1]["handle"] == handle
        # Fold-in exclusions: none of the observed items come back.
        assert not {1, 2, 3} & set(responses[1]["items"])
        assert responses[1] == service.recommend_one({"handle": handle, "k": 5})

    def test_handle_is_content_derived(self, index):
        """``foldin-`` + 12 hex of sha256("<seed>:<sorted unique ids>")."""
        service = RecommendService(index, FoldInConfig(seed=9))
        key = b"9:1,2,3"
        assert service.fold_in([3, 1, 2, 2]) == (
            "foldin-" + hashlib.sha256(key).hexdigest()[:12]
        )

    def test_foldin_recs_change_with_more_interactions(self, index):
        service = RecommendService(index)
        h1 = service.fold_in([1])
        h2 = service.fold_in([1, 10, 11, 12])
        assert h1 != h2
        r1 = service.recommend_one({"handle": h1, "k": 10})
        r2 = service.recommend_one({"handle": h2, "k": 10})
        assert r1["items"] != r2["items"]

    def test_k_clamped_to_catalog(self, index):
        service = RecommendService(index)
        response = service.recommend_one({"user": 0, "k": 10_000})
        assert response["k"] == index.num_items
        assert len(response["items"]) <= index.num_items
        assert all(np.isfinite(response["scores"]))

    def test_train_positives_never_returned(self, index):
        service = RecommendService(index)
        for u in range(10):
            response = service.recommend_one({"user": u, "k": index.num_items})
            seen = set(index.seen_items(u).tolist())
            assert not seen & set(response["items"])
            # Together the response and the mask cover the whole catalog.
            assert len(response["items"]) == index.num_items - len(seen)

    def test_lru_cache_counts(self, index):
        service = RecommendService(index, cache_capacity=4)
        service.recommend_many([{"user": u, "k": 3} for u in (0, 1, 2, 3)])
        assert service.user_cache.stats()["misses"] == 4
        service.recommend_one({"user": 2, "k": 3})
        assert service.user_cache.stats()["hits"] == 1
        service.recommend_many([{"user": u, "k": 3} for u in (4, 5)])  # evicts 0, 1
        assert service.user_cache.stats()["evictions"] == 2
        service.recommend_one({"user": 0, "k": 3})
        assert service.user_cache.stats()["misses"] == 7

    def test_validation_errors(self, index):
        service = RecommendService(index)
        with pytest.raises(ValueError, match="exactly one"):
            service.validate_request({"k": 5})
        with pytest.raises(ValueError, match="exactly one"):
            service.validate_request({"user": 0, "handle": "x", "k": 5})
        with pytest.raises(ValueError, match="out of range"):
            service.validate_request({"user": index.num_users, "k": 5})
        with pytest.raises(ValueError, match="out of range"):
            service.validate_request({"user": -1, "k": 5})
        with pytest.raises(ValueError, match="unknown fold-in handle"):
            service.validate_request({"handle": "foldin-nope", "k": 5})
        with pytest.raises(ValueError, match="k must be positive"):
            service.validate_request({"user": 0, "k": 0})

    def test_stats_shape(self, index):
        service = RecommendService(index)
        service.recommend_many([{"user": 0, "k": 2}, {"user": 1, "k": 3}])
        stats = service.stats()
        assert stats["requests_served"] == 2
        assert stats["batches"] == 1
        assert stats["kernel_calls"] == 2  # one per distinct k
        assert stats["max_batch"] == 2
        assert stats["index"]["num_users"] == index.num_users


# ------------------------------------------------- batched == single, property
def _random_index(rng, num_users, num_items, dim):
    """An untrained index whose training CSR includes one fully masked user."""
    n = int(rng.integers(0, 3 * num_items))
    users = np.r_[rng.integers(0, num_users, n), np.zeros(num_items, dtype=np.int64)]
    items = np.r_[rng.integers(0, num_items, n), np.arange(num_items)]
    train = InteractionDataset(users, items, num_users, num_items)
    return ScoreIndex(
        rng.standard_normal((num_users, dim)),
        rng.standard_normal((num_items, dim)),
        train.user_offsets,
        train.item_ids,
    )


def _exclusion(rng, num_items):
    """Empty, full or random item exclusions for one fold-in row."""
    kind = rng.integers(0, 3)
    if kind == 0:
        return np.zeros(0, dtype=np.int64)
    if kind == 1:
        return np.arange(num_items, dtype=np.int64)
    return rng.integers(0, num_items, rng.integers(1, num_items + 1))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_items=st.integers(1, 40),
    batch=st.integers(1, 70),
    data=st.data(),
)
def test_topk_vectors_batched_equals_single_property(seed, num_items, batch, data):
    """Every row of a batch equals that row scored alone, bit for bit.

    Rows are drawn with replacement from a small pool — known users with
    their training CSR rows, plus fold-in vectors (one all-zero, so every
    score ties) with empty, full or random exclusions — so batches repeat
    rows, and sizes up to 70 cross any fixed block size.
    """
    k = data.draw(st.integers(1, num_items), label="k")
    rng = np.random.default_rng(seed)
    index = _random_index(rng, 6, num_items, 8)
    pool = [(index.user_vecs[u], index.seen_items(u)) for u in range(index.num_users)]
    pool += [(np.zeros(index.dim), _exclusion(rng, num_items))]
    pool += [
        (rng.standard_normal(index.dim), _exclusion(rng, num_items)) for _ in range(3)
    ]
    picks = rng.integers(0, len(pool), batch)
    vecs = np.stack([pool[p][0] for p in picks])
    excludes = [pool[p][1] for p in picks]
    rows = np.repeat(np.arange(batch), [e.size for e in excludes])
    ids, scores, valid = index.topk_vectors(vecs, k, rows, np.concatenate(excludes))
    for row, p in enumerate(picks):
        vec, exclude = pool[p]
        one_ids, one_scores, one_valid = index.topk_vectors(
            vec[None], k, np.zeros(exclude.size, dtype=np.int64), exclude
        )
        np.testing.assert_array_equal(ids[row], one_ids[0], strict=True)
        assert scores[row].tobytes() == one_scores[0].tobytes()
        assert valid[row] == one_valid[0]


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_items=st.integers(1, 40),
    batch=st.integers(1, 70),
)
def test_recommend_many_batched_equals_single_property(seed, num_items, batch):
    """A micro-batch of mixed users and fold-in handles, each with its own
    ``k`` in ``[1, num_items]``, answers every request exactly as
    ``recommend_one`` does (scores compared bitwise)."""
    rng = np.random.default_rng(seed)
    index = _random_index(rng, 6, num_items, 8)
    service = RecommendService(index, FoldInConfig(steps=2))
    handles = [
        service.fold_in(rng.integers(0, num_items, rng.integers(1, num_items + 1)))
        for _ in range(2)
    ]
    handles.append(service.fold_in(np.arange(num_items)))  # nothing left to rank
    requests = []
    for _ in range(batch):
        k = int(rng.integers(1, num_items + 1))
        if rng.random() < 0.7:
            requests.append({"user": int(rng.integers(0, index.num_users)), "k": k})
        else:
            requests.append({"handle": handles[rng.integers(0, len(handles))], "k": k})
    for request, got in zip(requests, service.recommend_many(requests)):
        ref = service.recommend_one(request)
        assert got["items"] == ref["items"]
        assert np.array(got["scores"]).tobytes() == np.array(ref["scores"]).tobytes()
        assert {key: got[key] for key in got if key != "scores"} == {
            key: ref[key] for key in ref if key != "scores"
        }
