"""Fused cache-blocked kernels: dispatch, gradcheck, and parity oracles.

Every fused op in :mod:`repro.kernels.dispatch` has a per-op chain as its
parity oracle (``REPRO_KERNELS=oracle``); these tests pin the contract from
both sides — analytic gradients against finite differences, and fused
forward/backward against the oracle chain on the shapes that historically
break segment kernels (zero edges, a single relation, repeated endpoints,
empty batches).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import profiler, sanitizer
from repro.autograd import Parameter, Tensor, functional as F, gradcheck, no_grad
from repro.data.interactions import InteractionDataset
from repro.eval.evaluator import RankingEvaluator
from repro.kernels import dispatch, numpy_backend
from repro.kg.adjacency import CSRAdjacency
from repro.kg.triples import TripleStore
from repro.models import CKAT, CKATConfig
from repro.models.base import FitConfig
from repro.models.ckat.layers import compute_edge_attention
from repro.models.embeddings import TransR


def _store(num_entities, triples):
    store = TripleStore(num_entities)
    by_rel = {}
    for h, r, t in triples:
        by_rel.setdefault(r, []).append((h, t))
    for name in sorted(by_rel):
        pairs = np.asarray(by_rel[name], dtype=np.int64)
        store.add_triples(name, pairs[:, 0], pairs[:, 1])
    return store


@pytest.fixture()
def small_adj():
    """11 edges, 3 relations, repeated endpoints, one duplicated edge."""
    triples = [
        (0, "a", 1), (0, "a", 2), (0, "b", 3), (1, "a", 0), (1, "c", 4),
        (2, "b", 0), (2, "c", 1), (3, "a", 4), (3, "a", 4), (4, "b", 0),
        (4, "c", 2),
    ]
    return CSRAdjacency(_store(6, triples))


@pytest.fixture()
def small_params():
    rng = np.random.default_rng(5)
    ent = Parameter(0.5 * rng.standard_normal((6, 4)))
    rel = Parameter(0.5 * rng.standard_normal((3, 3)))
    proj = Parameter(0.5 * rng.standard_normal((3, 3, 4)))
    return ent, rel, proj


def _small_transr(small_params):
    ent, rel, proj = small_params
    transr = TransR(num_entities=6, num_relations=3, entity_dim=4, relation_dim=3)
    transr.entity_emb, transr.relation_emb, transr.proj = ent, rel, proj
    return transr


def _dense(grad):
    if grad is None:
        return None
    return grad.to_dense() if hasattr(grad, "to_dense") else np.asarray(grad)


# ---------------------------------------------------------------- dispatch
class TestBackendDispatch:
    def test_available_backends_without_numba(self):
        assert dispatch.available_backends() == ("numpy", "oracle")

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setattr(dispatch, "_backend", None)
        monkeypatch.delenv(dispatch.ENV_VAR, raising=False)
        assert dispatch.get_backend() == "numpy"
        for value in ("numpy", "oracle"):
            monkeypatch.setattr(dispatch, "_backend", None)
            monkeypatch.setenv(dispatch.ENV_VAR, value)
            assert dispatch.get_backend() == value

    @pytest.mark.parametrize("value", ["auto", "off", "numba", "bogus"])
    def test_unrecognized_env_value_raises(self, monkeypatch, value):
        monkeypatch.setattr(dispatch, "_backend", None)
        monkeypatch.setenv(dispatch.ENV_VAR, value)
        with pytest.raises(ValueError, match="unrecognized"):
            dispatch.get_backend()

    def test_kernel_backend_restores(self):
        before = dispatch.get_backend()
        with dispatch.kernel_backend("oracle"):
            assert dispatch.get_backend() == "oracle"
            assert not dispatch.fused_enabled()
        assert dispatch.get_backend() == before

    def test_numba_request_fails_loudly_when_absent(self):
        with pytest.raises(ValueError, match="numba"):
            dispatch.set_backend("numba")


# ---------------------------------------------------------------- gradcheck
class TestGradcheck:
    def test_edge_attention_scores(self, small_adj, small_params):
        ent, rel, proj = small_params
        probe = Tensor(np.linspace(0.5, 1.5, small_adj.num_edges))
        with dispatch.kernel_backend("numpy"):
            assert gradcheck(
                lambda: F.sum(
                    F.mul(
                        dispatch.edge_attention_scores(ent, rel, proj, small_adj),
                        probe,
                    )
                ),
                [ent, rel, proj],
            )

    def test_weighted_neighbor_sum_tensor_weights(self, small_adj):
        rng = np.random.default_rng(6)
        emb = Parameter(rng.standard_normal((6, 4)))
        w = Parameter(rng.standard_normal(small_adj.num_edges))
        probe = Tensor(np.linspace(-1.0, 1.0, 24).reshape(6, 4))
        with dispatch.kernel_backend("numpy"):
            assert gradcheck(
                lambda: F.sum(
                    F.mul(dispatch.weighted_neighbor_sum(emb, w, small_adj), probe)
                ),
                [emb, w],
            )

    def test_weighted_neighbor_sum_frozen_weights(self, small_adj):
        rng = np.random.default_rng(7)
        emb = Parameter(rng.standard_normal((6, 4)))
        w = rng.standard_normal(small_adj.num_edges)  # constant: frozen path
        with dispatch.kernel_backend("numpy"):
            assert gradcheck(
                lambda: F.sum(dispatch.weighted_neighbor_sum(emb, w, small_adj)),
                [emb],
            )

    def test_transr_energy(self, small_params):
        ent, rel, proj = small_params
        heads = np.array([0, 3, 1, 4, 2], dtype=np.int64)
        rels = np.array([2, 0, 1, 0, 2], dtype=np.int64)
        tails = np.array([1, 4, 0, 2, 5], dtype=np.int64)
        with dispatch.kernel_backend("numpy"):
            assert gradcheck(
                lambda: F.sum(
                    dispatch.transr_energy(ent, rel, proj, heads, rels, tails)
                ),
                [ent, rel, proj],
            )


# ------------------------------------------------------------------- parity
class TestAttentionParity:
    def _grads(self, backend, adj, params, upstream):
        ent, rel, proj = params
        for p in params:
            p.grad = None
        with dispatch.kernel_backend(backend):
            scores = compute_edge_attention(ent, rel, proj, adj)
            scores.backward(upstream)
        return scores.data.copy(), [_dense(p.grad) for p in params]

    def test_forward_and_backward_match_oracle(self, small_adj, small_params):
        upstream = np.linspace(-1.0, 1.0, small_adj.num_edges)
        s0, g0 = self._grads("oracle", small_adj, small_params, upstream)
        s1, g1 = self._grads("numpy", small_adj, small_params, upstream)
        np.testing.assert_allclose(s1, s0, rtol=1e-12, atol=1e-14)
        for a, b in zip(g0, g1):
            np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-13)

    def test_single_relation(self, small_params):
        ent, _, proj = small_params
        adj = CSRAdjacency(_store(6, [(0, "a", 1), (2, "a", 3), (2, "a", 0)]))
        rel1 = Parameter(small_params[1].data[:1].copy())
        proj1 = Parameter(proj.data[:1].copy())
        upstream = np.array([1.0, -2.0, 0.5])
        s0, g0 = self._grads("oracle", adj, (ent, rel1, proj1), upstream)
        s1, g1 = self._grads("numpy", adj, (ent, rel1, proj1), upstream)
        np.testing.assert_allclose(s1, s0, rtol=1e-12, atol=1e-14)
        for a, b in zip(g0, g1):
            np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-13)

    def test_zero_edges(self, small_params):
        ent, rel, proj = small_params
        for p in (ent, rel, proj):
            p.grad = None
        store = TripleStore(6)
        for name in ("a", "b", "c"):
            store.relations.add(name)
        adj = CSRAdjacency(store)
        assert adj.num_edges == 0
        with dispatch.kernel_backend("numpy"):
            scores = dispatch.edge_attention_scores(ent, rel, proj, adj)
            assert scores.data.shape == (0,)
            F.sum(scores).backward()
        for p in (ent, rel, proj):
            g = _dense(p.grad)
            assert g is None or not np.any(g)

    def test_pool_reuse_is_deterministic(self, small_adj, small_params):
        upstream = np.linspace(-1.0, 1.0, small_adj.num_edges)
        s1, g1 = self._grads("numpy", small_adj, small_params, upstream)
        s2, g2 = self._grads("numpy", small_adj, small_params, upstream)
        assert np.array_equal(s1, s2)
        for a, b in zip(g1, g2):
            assert np.array_equal(a, b)

    def test_inference_path_recycles_buffers(self, small_adj, small_params):
        ent, rel, proj = small_params
        with dispatch.kernel_backend("numpy"), no_grad():
            scores = dispatch.edge_attention_scores(ent, rel, proj, small_adj)
        assert scores._backward is None
        # buffers given back to the pool must not alias the returned values
        with dispatch.kernel_backend("numpy"):
            again = dispatch.edge_attention_scores(ent, rel, proj, small_adj)
        assert np.array_equal(scores.data, again.data)


class TestTransREnergyParity:
    def test_matches_oracle_chain(self, small_params):
        transr = _small_transr(small_params)
        rng = np.random.default_rng(11)
        heads = rng.integers(0, 6, 32).astype(np.int64)
        rels = rng.integers(0, 3, 32).astype(np.int64)
        tails = rng.integers(0, 6, 32).astype(np.int64)
        results = {}
        for backend in ("oracle", "numpy"):
            for p in small_params:
                p.grad = None
            with dispatch.kernel_backend(backend):
                energy = transr.energy(heads, rels, tails)
                F.sum(energy).backward()
            results[backend] = (
                energy.data.copy(),
                [_dense(p.grad) for p in small_params],
            )
        s0, g0 = results["oracle"]
        s1, g1 = results["numpy"]
        np.testing.assert_allclose(s1, s0, rtol=1e-12, atol=1e-13)
        for a, b in zip(g0, g1):
            np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-13)

    def test_touched_rows_match_oracle(self, small_params):
        """Lazy Adam decays only rows the gradient names — sets must agree."""
        transr = _small_transr(small_params)
        heads = np.array([5, 5, 1], dtype=np.int64)
        rels = np.array([0, 0, 2], dtype=np.int64)
        tails = np.array([2, 1, 5], dtype=np.int64)
        rows = {}
        for backend in ("oracle", "numpy"):
            for p in small_params:
                p.grad = None
            with dispatch.kernel_backend(backend):
                F.sum(transr.energy(heads, rels, tails)).backward()
            rows[backend] = {}
            for name, p in zip(("ent", "rel", "proj"), small_params):
                if hasattr(p.grad, "indices"):
                    touched = np.unique(p.grad.indices)
                else:
                    dense = _dense(p.grad)
                    axes = tuple(range(1, dense.ndim))
                    touched = np.flatnonzero(np.any(dense != 0, axis=axes))
                rows[backend][name] = touched
        for name in ("ent", "rel", "proj"):
            np.testing.assert_array_equal(rows["numpy"][name], rows["oracle"][name])

    def test_empty_batch(self, small_params):
        ent, rel, proj = small_params
        empty = np.zeros(0, dtype=np.int64)
        with dispatch.kernel_backend("numpy"):
            energy = dispatch.transr_energy(ent, rel, proj, empty, empty, empty)
        assert energy.data.shape == (0,)


def _oracle_neighbor_sum(emb, weights, adj):
    """The per-op chain ``PropagationLayer`` runs under ``oracle``."""
    tails = F.take_rows(emb, adj.tails)
    if isinstance(weights, Tensor):
        scale = F.reshape(weights, (adj.num_edges, 1))
    else:
        scale = F.astensor(np.asarray(weights)[:, None])
    return F.segment_sum(F.mul(tails, scale), adj.offsets)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(1, 12),
    num_edges=st.integers(1, 40),
    num_dups=st.integers(0, 8),
    tensor_weights=st.booleans(),
)
def test_weighted_neighbor_sum_matches_oracle_property(
    seed, num_entities, num_edges, num_dups, tensor_weights
):
    """Fused == oracle, forward and both gradients, on random CSR graphs.

    Heads are drawn from the lower half of the entity range, so the upper
    half has zero degree; ``num_dups`` edges are repeated verbatim.
    """
    rng = np.random.default_rng(seed)
    heads = rng.integers(0, max(1, num_entities // 2), num_edges)
    tails = rng.integers(0, num_entities, num_edges)
    dup = rng.integers(0, num_edges, num_dups)
    store = TripleStore(num_entities)
    store.add_triples("r", np.r_[heads, heads[dup]], np.r_[tails, tails[dup]])
    adj = CSRAdjacency(store)
    emb = Parameter(rng.standard_normal((num_entities, 3)))
    w_data = rng.standard_normal(adj.num_edges)
    weights = Parameter(w_data) if tensor_weights else w_data
    probe = Tensor(rng.standard_normal((num_entities, 3)))

    def run(neighbor_sum):
        emb.grad = None
        if tensor_weights:
            weights.grad = None
        out = neighbor_sum(emb, weights, adj)
        F.sum(F.mul(out, probe)).backward()
        gw = _dense(weights.grad) if tensor_weights else np.zeros(0)
        return out.data.copy(), _dense(emb.grad), gw

    oracle = run(_oracle_neighbor_sum)
    fused = run(dispatch.weighted_neighbor_sum)
    for got, ref in zip(fused, oracle):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-13)


class TestTrainingParity:
    """End-to-end: fused and oracle land on the same trained CKAT."""

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_two_epoch_fit_matches_oracle(self, ooi_split, ooi_ckg_best, dropout):
        cfg = CKATConfig(
            dim=16,
            relation_dim=16,
            layer_dims=(16, 8),
            dropout=dropout,
            attention_mode="batch",
        )
        fit_cfg = FitConfig(epochs=2, batch_size=64, seed=3)
        tables = {}
        for backend in ("oracle", "numpy"):
            model = CKAT(
                ooi_split.train.num_users,
                ooi_split.train.num_items,
                ooi_ckg_best,
                cfg,
                seed=3,
            )
            with dispatch.kernel_backend(backend):
                model.fit(ooi_split.train, fit_cfg)
            tables[backend] = {
                "entity": model.transr.entity_emb.data.copy(),
                "relation": model.transr.relation_emb.data.copy(),
                "proj": model.transr.proj.data.copy(),
            }
        for name, ref in tables["oracle"].items():
            # Dropout masks are drawn outside the kernels from the same RNG
            # stream, so the trajectories coincide to reassociation-level
            # rounding (see benchmarks/test_bench_kernels.py for the policy).
            np.testing.assert_allclose(
                tables["numpy"][name], ref, rtol=1e-9, atol=1e-11
            )


# -------------------------------------------------------------- evaluation
class TestEvaluatorParity:
    def _problem(self):
        rng = np.random.default_rng(23)
        users = np.repeat(np.arange(12), 6)
        items = rng.integers(0, 30, users.size)
        train = InteractionDataset(users, items, 12, 30)
        test = InteractionDataset(np.arange(12), rng.integers(0, 30, 12), 12, 30)
        u = rng.standard_normal((12, 8))
        v = rng.standard_normal((30, 8))
        return train, test, u, v

    def test_factors_path_matches_oracle(self):
        train, test, u, v = self._problem()
        ev = RankingEvaluator(train, test, k=5)
        with dispatch.kernel_backend("oracle"):
            ref = ev.evaluate_factors_per_user(u, v)
        with dispatch.kernel_backend("numpy"):
            got = ev.evaluate_factors_per_user(u, v)
        np.testing.assert_array_equal(got.recall, ref.recall)
        np.testing.assert_array_equal(got.ndcg, ref.ndcg)

    def test_float32_score_mode(self):
        train, test, u, v = self._problem()
        with dispatch.kernel_backend("numpy"):
            got = RankingEvaluator(
                train, test, k=5, score_dtype=np.float32
            ).evaluate_factors_per_user(u, v)
            ref = RankingEvaluator(train, test, k=5).evaluate_factors_per_user(u, v)
        # float32 scoring may only reorder exact ties; aggregates agree
        assert abs(got.reduce().recall - ref.reduce().recall) < 1e-6
        assert abs(got.reduce().ndcg - ref.reduce().ndcg) < 1e-6

    def test_empty_test_users(self):
        """Users with no test positives are skipped identically on both paths."""
        train, _, u, v = self._problem()
        rng = np.random.default_rng(29)
        test = InteractionDataset(
            np.zeros(3, dtype=np.int64), rng.integers(0, 30, 3), 12, 30
        )
        ev = RankingEvaluator(train, test, k=5)
        with dispatch.kernel_backend("oracle"):
            ref = ev.evaluate_factors_per_user(u, v)
        with dispatch.kernel_backend("numpy"):
            got = ev.evaluate_factors_per_user(u, v)
        np.testing.assert_array_equal(got.users, ref.users)
        np.testing.assert_array_equal(got.recall, ref.recall)

    def test_masked_topk_empty_batch(self):
        _, _, u, v = self._problem()
        neg = np.empty((4, 30), dtype=np.float64)
        indptr = np.zeros(13, dtype=np.int64)
        top = dispatch.masked_topk(
            u[:0], v, 5, neg, indptr, np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
        assert top.shape == (0, 5)


class TestMaskedTopkValidCounts:
    """Per-row clamping when ``k`` exceeds the unmasked candidates."""

    def _rank(self, u, v, k, indptr, indices, batch, valid=None):
        neg = np.empty((u.shape[0], v.shape[0]), dtype=np.float64)
        return dispatch.masked_topk(u, v, k, neg, indptr, indices, batch, valid_out=valid)

    def test_valid_counts_and_finite_prefix(self):
        rng = np.random.default_rng(41)
        u = rng.standard_normal((3, 4))
        v = rng.standard_normal((6, 4))
        # Row 0 masks 4 of 6 items, row 1 masks none, row 2 masks 2.
        indptr = np.array([0, 4, 4, 6], dtype=np.int64)
        indices = np.array([0, 1, 2, 3, 4, 5], dtype=np.int64)
        valid = np.empty(3, dtype=np.int64)
        k = 5
        top = self._rank(u, v, k, indptr, indices, np.arange(3), valid)
        assert valid.tolist() == [2, 5, 4]
        scores = u @ v.T
        for row in range(3):
            masked = set(indices[indptr[row] : indptr[row + 1]].tolist())
            real = top[row, : valid[row]]
            # No masked id inside the valid prefix, and the prefix is the
            # true descending top of the unmasked candidates.
            assert not masked & set(real.tolist())
            order = np.argsort(-scores[row])
            expect = [i for i in order if i not in masked][: valid[row]]
            assert real.tolist() == expect

    def test_zero_candidate_row(self):
        """A row with every item masked reports valid == 0."""
        rng = np.random.default_rng(43)
        u = rng.standard_normal((2, 4))
        v = rng.standard_normal((5, 4))
        indptr = np.array([0, 5, 5], dtype=np.int64)
        indices = np.arange(5, dtype=np.int64)
        valid = np.empty(2, dtype=np.int64)
        top = self._rank(u, v, 3, indptr, indices, np.arange(2), valid)
        assert valid.tolist() == [0, 3]
        assert top.shape == (2, 3)

    def test_k_out_of_range_raises(self):
        rng = np.random.default_rng(47)
        u = rng.standard_normal((2, 4))
        v = rng.standard_normal((5, 4))
        indptr = np.zeros(3, dtype=np.int64)
        empty = np.zeros(0, dtype=np.int64)
        for bad_k in (0, -1, 6):
            with pytest.raises(ValueError, match="k must be in"):
                self._rank(u, v, bad_k, indptr, empty, np.arange(2))

    def test_short_valid_out_raises(self):
        rng = np.random.default_rng(53)
        u = rng.standard_normal((3, 4))
        v = rng.standard_normal((5, 4))
        indptr = np.zeros(4, dtype=np.int64)
        with pytest.raises(ValueError, match="valid_out"):
            self._rank(
                u, v, 2, indptr, np.zeros(0, dtype=np.int64), np.arange(3),
                np.empty(2, dtype=np.int64),
            )


# ------------------------------------------------ frozen-attention matrix
class TestWeightedCSRFallback:
    def test_pure_csr_matches_dense(self, small_adj):
        rng = np.random.default_rng(31)
        w = rng.standard_normal(small_adj.num_edges)
        dense = np.zeros((6, 6))
        np.add.at(dense, (small_adj.heads, small_adj.tails), w)
        matrix = dispatch.build_weighted_csr(small_adj, w)
        x = rng.standard_normal((6, 4))
        np.testing.assert_allclose(matrix @ x, dense @ x, rtol=1e-12)


# -------------------------------------------------------- segment reductions
class TestSegmentKernels:
    def test_segment_sum_rows_matches_scatter_add(self):
        rng = np.random.default_rng(41)
        values = rng.standard_normal((50, 3))
        seg_of = np.sort(rng.integers(0, 8, 50))
        perm = np.argsort(seg_of, kind="stable")
        sorted_seg = seg_of[perm]
        starts = np.flatnonzero(np.r_[True, sorted_seg[1:] != sorted_seg[:-1]])
        offsets = np.r_[starts, 50].astype(np.int64)
        got = numpy_backend.segment_sum_rows(values, perm, offsets, block=7)
        expect = np.zeros((len(starts), 3))
        np.add.at(expect, np.searchsorted(sorted_seg[starts], seg_of), values)
        np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_segment_sum_rows_empty(self):
        got = numpy_backend.segment_sum_rows(
            np.zeros((0, 3)), np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
        )
        assert got.shape == (0, 3)

    def test_weighted_backward_fused_matches_parts(self, small_adj):
        rng = np.random.default_rng(43)
        emb = rng.standard_normal((6, 4))
        grad_out = rng.standard_normal((6, 4))
        w = rng.standard_normal(small_adj.num_edges)
        in_order, in_offsets, heads_in, tails_in = small_adj.incoming_edge_groups()
        g_emb, gw_sorted = numpy_backend.weighted_backward_fused(
            grad_out, emb, w[in_order], heads_in, tails_in, in_offsets, block=4
        )
        ref_emb = numpy_backend.weighted_neighbor_sum(
            grad_out, w[in_order], heads_in, in_offsets
        )
        ref_gw = numpy_backend.weighted_edge_grad(
            grad_out, emb, small_adj.heads, small_adj.tails
        )
        np.testing.assert_allclose(g_emb, ref_emb, rtol=1e-12)
        gw = np.empty_like(ref_gw)
        gw[in_order] = gw_sorted
        np.testing.assert_array_equal(gw, ref_gw)

    def test_attention_grad_groups_cover_all_edges(self, small_adj):
        groups = small_adj.attention_grad_groups()
        assert groups.head_offsets[-1] == small_adj.num_edges
        assert groups.tail_offsets[-1] == small_adj.num_edges
        # the coalesce target is exactly the touched-entity set
        np.testing.assert_array_equal(
            groups.rows, np.unique(np.r_[small_adj.heads, small_adj.tails])
        )


# ------------------------------------------------------- instrumentation
class TestInstrumentation:
    def test_profiler_times_fused_ops(self, small_adj, small_params):
        ent, rel, proj = small_params
        with dispatch.kernel_backend("numpy"), profiler.profiled() as report:
            scores = dispatch.edge_attention_scores(ent, rel, proj, small_adj)
            F.sum(scores).backward()
        stats = {s.name for s in report.sorted_stats()}
        assert "edge_attention_scores" in stats

    def test_sanitizer_flags_nonfinite_through_fused_op(self, small_adj, small_params):
        _, rel, proj = small_params
        bad = Parameter(small_params[0].data.copy())
        bad.data[0, 0] = np.nan
        with dispatch.kernel_backend("numpy"), sanitizer.sanitized():
            with pytest.raises(sanitizer.SanitizerError):
                dispatch.edge_attention_scores(bad, rel, proj, small_adj)
