"""Fused cache-blocked kernels: dispatch, gradcheck, and parity oracles.

Every fused op in :mod:`repro.kernels.dispatch` has a per-op chain as its
parity oracle, a drop-in in ``tests/kernel_oracle.py``; these tests pin the
contract from both sides — analytic gradients against finite differences,
and fused forward/backward against the oracle chain on the shapes that
historically break segment kernels (zero edges, a single relation, repeated
endpoints, empty batches).
"""

import contextlib
import inspect
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import profiler, sanitizer
from repro.autograd import Parameter, Tensor, functional as F, gradcheck, no_grad
from repro.autograd.sparse import SparseRowGrad, segment_sum_rows
from repro.data.interactions import InteractionDataset
from repro.eval.evaluator import RankingEvaluator
from repro.eval.metrics import ndcg_at_k, recall_at_k
from repro.kernels import dispatch, numpy_backend
from repro.kg.adjacency import CSRAdjacency
from repro.kg.triples import TripleStore
from repro.models import CKAT, CKATConfig
from repro.models.base import FitConfig
from repro.models.ckat.layers import PropagationLayer, compute_edge_attention
from repro.models.embeddings import TransR
from tests import kernel_oracle
from tests.ckat_reference import float64_ckat
from tests.kernel_oracle import oracle_kernels
from tests.ranking_oracle import assert_matches_oracle, oracle_rank, oracle_topk


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


def _kernels(backend):
    """The fused ops as they ship, or (``"oracle"``) their per-op drop-ins."""
    return oracle_kernels() if backend == "oracle" else contextlib.nullcontext()


def _dense(grad):
    if grad is None:
        return None
    return grad.to_dense() if hasattr(grad, "to_dense") else np.asarray(grad)


# ---------------------------------------------------------------- dispatch
def test_run_record_backend_constants():
    """The one backend, as ``perfbench/run.py`` records it in a run's conditions."""
    assert dispatch.available_backends() == ("numpy",)
    assert dispatch.get_backend() == "numpy"


@pytest.mark.parametrize("name", dispatch.TENSOR_OPS)
def test_every_fused_op_has_an_oracle_drop_in(name):
    """A fused op with no per-op oracle of the same signature fails here."""
    assert inspect.signature(getattr(kernel_oracle, name)) == inspect.signature(
        getattr(dispatch, name)
    )


class _FusedKernelCalled(Exception):
    pass


@pytest.mark.parametrize("aggregator", ["concat", "sum"])
def test_oracle_kernels_reach_every_call_site(ooi_split, ooi_ckg_best, monkeypatch, aggregator):
    """Under ``oracle_kernels()`` a CKAT fit never enters a fused kernel.

    Every entry point of the backend raises while patched, so a call site
    that bypassed the swap would fail the oracle fit; the same fit outside
    the swap must fail, or the patch proves nothing.  The fit covers both
    phases: TransR steps, then two BPR batches with batch attention and
    dropout.
    """
    train = ooi_split.train
    cfg = CKATConfig(
        dim=8, relation_dim=8, layer_dims=(8, 4), dropout=0.3,
        attention_mode="batch", aggregator=aggregator,
    )
    fit_cfg = FitConfig(epochs=1, batch_size=(len(train) + 1) // 2, seed=3)

    def fit():
        model = CKAT(train.num_users, train.num_items, ooi_ckg_best, cfg, seed=3)
        model.fit(train, fit_cfg)

    def fused_kernel(*args, **kwargs):
        raise _FusedKernelCalled

    for name in numpy_backend.__all__:
        monkeypatch.setattr(numpy_backend, name, fused_kernel)
    with oracle_kernels():
        fit()
    with pytest.raises(_FusedKernelCalled):
        fit()


# ---------------------------------------------------------------- gradcheck
class TestGradcheck:
    def test_edge_attention_scores(self, small_adj, small_params):
        ent, rel, proj = small_params
        probe = Tensor(np.linspace(0.5, 1.5, small_adj.num_edges))
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
        assert gradcheck(
            lambda: F.sum(dispatch.weighted_neighbor_sum(emb, w, small_adj)),
            [emb],
        )

    @pytest.mark.parametrize("mode", ["concat", "sum"])
    @pytest.mark.parametrize("p", [0.0, 0.4])
    def test_aggregate(self, mode, p):
        rng = np.random.default_rng(8)
        x = Parameter(rng.standard_normal((5, 3)))
        n = Parameter(rng.standard_normal((5, 3)))
        w = Parameter(rng.standard_normal((6 if mode == "concat" else 3, 4)))
        b = Parameter(rng.standard_normal(4))
        probe = Tensor(rng.standard_normal((5, 4)))
        # A fresh generator per evaluation keeps the dropout mask fixed.
        assert gradcheck(
            lambda: F.sum(
                F.mul(
                    dispatch.aggregate(x, n, w, b, mode, p, np.random.default_rng(3)),
                    probe,
                )
            ),
            [x, n, w, b],
        )

    def test_transr_energy(self, small_params):
        ent, rel, proj = small_params
        heads = np.array([0, 3, 1, 4, 2], dtype=np.int64)
        rels = np.array([2, 0, 1, 0, 2], dtype=np.int64)
        tails = np.array([1, 4, 0, 2, 5], dtype=np.int64)
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
        with _kernels(backend):
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
        scores = dispatch.edge_attention_scores(ent, rel, proj, adj)
        assert scores.data.shape == (0,)
        F.sum(scores).backward()
        for p in (ent, rel, proj):
            g = _dense(p.grad)
            assert g is None or not np.any(g)

    def test_repeat_calls_are_bitwise_deterministic(self, small_adj, small_params):
        upstream = np.linspace(-1.0, 1.0, small_adj.num_edges)
        s1, g1 = self._grads("numpy", small_adj, small_params, upstream)
        s2, g2 = self._grads("numpy", small_adj, small_params, upstream)
        assert np.array_equal(s1, s2)
        for a, b in zip(g1, g2):
            assert np.array_equal(a, b)

    def test_concurrent_calls_match_serial(self, small_params):
        """Threads sharing one adjacency get exactly the serial results.

        The kernels keep no module state, so forward + backward from several
        threads at once — switching as often as the interpreter allows — must
        reproduce a serial run bit for bit.
        """
        rng = np.random.default_rng(17)
        heads, rels, tails = (rng.integers(0, n, 400).tolist() for n in (30, 3, 30))
        adj = CSRAdjacency(
            _store(30, [(h, "abc"[r], t) for h, r, t in zip(heads, rels, tails)])
        )
        data = [
            rng.standard_normal((30, 4)),
            small_params[1].data,
            small_params[2].data,
        ]
        upstream = rng.standard_normal(adj.num_edges)

        def run(worker):
            params = [Parameter(a.copy()) for a in data]
            results = []
            for _ in range(20):
                for p in params:
                    p.grad = None
                scores = dispatch.edge_attention_scores(*params, adj)
                scores.backward(upstream)
                results.append(
                    [scores.data.copy()] + [_dense(p.grad) for p in params]
                )
            return results

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
                for a, b in zip(got, ref):
                    assert np.array_equal(a, b)


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
            with _kernels(backend):
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
            with _kernels(backend):
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

    @pytest.mark.parametrize(
        "heads, rels, tails",
        [([6], [0], [1]), ([0], [0], [-1]), ([0], [3], [1]), ([0], [-1], [1])],
    )
    def test_out_of_range_ids_raise(self, small_params, heads, rels, tails):
        """An id past its table would alias another (relation, entity) key."""
        ent, rel, proj = small_params
        ids = [np.array(a, dtype=np.int64) for a in (heads, rels, tails)]
        with pytest.raises(IndexError, match="out of range"):
            dispatch.transr_energy(ent, rel, proj, *ids)

    def test_empty_batch(self, small_params):
        ent, rel, proj = small_params
        empty = np.zeros(0, dtype=np.int64)
        energy = dispatch.transr_energy(ent, rel, proj, empty, empty, empty)
        assert energy.data.shape == (0,)


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

    oracle = run(kernel_oracle.weighted_neighbor_sum)
    fused = run(dispatch.weighted_neighbor_sum)
    for got, ref in zip(fused, oracle):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(1, 12),
    num_relations=st.integers(1, 4),
    num_edges=st.integers(1, 40),
    num_dups=st.integers(0, 8),
)
def test_edge_attention_scores_matches_oracle_property(
    seed, num_entities, num_relations, num_edges, num_dups
):
    """Fused == oracle attention: scores and entity/relation/proj grads.

    Heads come from the lower half of the entity range (the upper half has
    zero degree), edges use a random non-empty subset of the relations (the
    rest have no edges; one relation is the single-relation graph), and
    ``num_dups`` (h, r, t) edges are repeated verbatim.
    """
    rng = np.random.default_rng(seed)
    used = rng.permutation(num_relations)[: rng.integers(1, num_relations + 1)]
    heads = rng.integers(0, max(1, num_entities // 2), num_edges)
    rels = rng.choice(used, num_edges)
    tails = rng.integers(0, num_entities, num_edges)
    dup = rng.integers(0, num_edges, num_dups)
    heads, rels, tails = np.r_[heads, heads[dup]], np.r_[rels, rels[dup]], np.r_[tails, tails[dup]]
    store = TripleStore(num_entities)
    for r in range(num_relations):
        mask = rels == r
        store.add_triples(f"r{r}", heads[mask], tails[mask])
    adj = CSRAdjacency(store)
    params = (
        Parameter(0.5 * rng.standard_normal((num_entities, 4))),
        Parameter(0.5 * rng.standard_normal((num_relations, 3))),
        Parameter(0.5 * rng.standard_normal((num_relations, 3, 4))),
    )
    upstream = rng.standard_normal(adj.num_edges)

    def run(attention_scores):
        for p in params:
            p.grad = None
        scores = attention_scores(*params, adj)
        scores.backward(upstream)
        return [scores.data.copy()] + [_dense(p.grad) for p in params]

    oracle = run(kernel_oracle.edge_attention_scores)
    fused = run(dispatch.edge_attention_scores)
    for got, ref in zip(fused, oracle):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(1, 10),
    num_edges=st.integers(0, 30),
    in_dim=st.integers(1, 4),
    out_dim=st.integers(1, 4),
    aggregator=st.sampled_from(["concat", "sum"]),
    dropout=st.sampled_from([0.0, 0.3]),
    normalize=st.booleans(),
)
def test_aggregate_matches_oracle_property(
    seed, num_entities, num_edges, in_dim, out_dim, aggregator, dropout, normalize
):
    """Fused == oracle aggregator of one training-mode propagation layer.

    The neighborhood input is the layer's weighted neighbor sum over a
    random graph (``num_edges == 0``: the zero-edge graph, all-zero input).
    Checked: the output (optionally L2-normalized, as it enters Eq. 10) and
    the gradients of both inputs, ``W`` and ``b``.  The fused op performs
    the oracle chain's arithmetic, so the results are bit for bit equal,
    and both sides draw the same dropout masks, leaving the generator in
    the same state.
    """
    rng = np.random.default_rng(seed)
    store = TripleStore(num_entities)
    store.add_triples(
        "r",
        rng.integers(0, num_entities, num_edges),
        rng.integers(0, num_entities, num_edges),
    )
    adj = CSRAdjacency(store)
    layer = PropagationLayer(in_dim, out_dim, aggregator, rng, dropout=dropout)
    emb = Parameter(rng.standard_normal((num_entities, in_dim)))
    with no_grad():
        neigh_data = dispatch.weighted_neighbor_sum(
            emb, rng.standard_normal(adj.num_edges), adj
        ).data
    neigh = Parameter(neigh_data)
    probe = Tensor(rng.standard_normal((num_entities, out_dim)))

    def run(backend):
        params = [emb, neigh] + layer.parameters()
        for p in params:
            p.grad = None
        draws = np.random.default_rng(seed)
        with _kernels(backend):
            out = layer.aggregator(emb, neigh, layer.dropout, draws)
            if normalize:
                out = F.l2_normalize(out, axis=1)
            F.sum(F.mul(out, probe)).backward()
        return [out.data] + [_dense(p.grad) for p in params] + [draws.random()]

    for got, ref in zip(run("numpy"), run("oracle")):
        np.testing.assert_array_equal(got, ref)


def test_aggregate_dropout_mask_is_the_generators_draw():
    """Entry ``i`` survives iff ``rng.random(shape)[i] >= p``, scaled by
    ``1 / (1 − p)``: the draw ``F.dropout`` makes, so the stream is unchanged."""
    rng = np.random.default_rng(4)
    x = Tensor(rng.uniform(0.5, 1.0, (6, 3)))
    w, b = Parameter(rng.uniform(0.5, 1.0, (6, 2))), Parameter(np.ones(2))
    kept = dispatch.aggregate(x, x, w, b, "concat", 0.3, np.random.default_rng(9))
    full = dispatch.aggregate(x, x, w, b, "concat")
    keep = np.random.default_rng(9).random((6, 2)) >= 0.3
    np.testing.assert_array_equal(kept.data, np.where(keep, full.data * (1 / 0.7), 0.0))


@pytest.mark.parametrize("p", [-0.5, 1.0, 1.5, float("nan")])
def test_aggregate_rejects_dropout_out_of_range(p):
    """The fused op validates ``p`` exactly as ``F.dropout`` does."""
    rng = np.random.default_rng(0)
    x = Tensor(np.ones((2, 3)))
    w, b = Parameter(np.ones((6, 2))), Parameter(np.zeros(2))
    with pytest.raises(ValueError, match="dropout probability"):
        dispatch.aggregate(x, x, w, b, "concat", p, rng)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(1, 10),
    num_relations=st.integers(1, 5),
    batch=st.integers(1, 40),
    num_dups=st.integers(0, 8),
)
def test_transr_energy_matches_oracle_property(
    seed, num_entities, num_relations, batch, num_dups
):
    """Fused == oracle TransR energy: scores and entity/relation/proj grads.

    Triples use a random non-empty subset of the relations (the others form
    empty groups), few entities (repeated heads and tails), and ``num_dups``
    triples repeated verbatim.
    """
    rng = np.random.default_rng(seed)
    transr = TransR(
        num_entities=num_entities,
        num_relations=num_relations,
        entity_dim=4,
        relation_dim=3,
        seed=rng,
    )
    used = rng.permutation(num_relations)[: rng.integers(1, num_relations + 1)]
    heads = rng.integers(0, num_entities, batch)
    rels = rng.choice(used, batch)
    tails = rng.integers(0, num_entities, batch)
    dup = rng.integers(0, batch, num_dups)
    heads, rels, tails = np.r_[heads, heads[dup]], np.r_[rels, rels[dup]], np.r_[tails, tails[dup]]
    params = transr.parameters()
    upstream = rng.standard_normal(len(heads))

    def run(energy):
        for p in params:
            p.grad = None
        scores = energy(heads, rels, tails)
        scores.backward(upstream)
        return [scores.data.copy()] + [_dense(p.grad) for p in params]

    fused = run(transr.energy)
    oracle = run(partial(kernel_oracle.transr_energy, *params))
    for got, ref in zip(fused, oracle):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(1, 8),
    num_relations=st.integers(1, 5),
    batch=st.integers(1, 30),
    hinges=st.sampled_from(["mixed", "active", "inactive"]),
)
def test_margin_loss_matches_oracle_property(seed, num_entities, num_relations, batch, hinges):
    """Run-factored margin loss == ``kernel_oracle.transr_margin_loss``, two
    per-op energy chains.

    Few entities repeat (relation, entity) pairs across heads, tails and the
    corrupted half; about a fifth of the triples are self-loops (one entity
    as head and tail); some relations get no triple.  The margin makes every
    hinge active, every hinge inactive, or a mix.  The loss and all three
    grads agree at rtol 1e-12, and each grad arrives coalesced on exactly
    the oracle's row set, so lazy Adam touches the same rows.
    """
    rng = np.random.default_rng(seed)
    transr = TransR(num_entities, num_relations, entity_dim=4, relation_dim=3, seed=rng)
    # Energies here are O(1), so a margin of ±1e3 fixes every hinge's side.
    transr.margin = {"mixed": 1.0, "active": 1e3, "inactive": -1e3}[hinges]
    used = rng.permutation(num_relations)[: rng.integers(1, num_relations + 1)]
    heads = rng.integers(0, num_entities, batch)
    rels = rng.choice(used, batch)
    tails = rng.integers(0, num_entities, batch)
    loops = rng.random(batch) < 0.2
    tails[loops] = heads[loops]
    params = transr.parameters()
    results = {}
    losses = {
        "numpy": transr.margin_loss,
        "oracle": partial(kernel_oracle.transr_margin_loss, transr),
    }
    for backend, margin_loss in losses.items():
        for p in params:
            p.grad = None
        loss = margin_loss(heads, rels, tails, np.random.default_rng(seed))
        loss.backward()
        results[backend] = (loss.item(), [p.grad for p in params])
    (loss, grads), (loss_ref, grads_ref) = results["numpy"], results["oracle"]
    np.testing.assert_allclose(loss, loss_ref, rtol=1e-12)
    for g, g_ref in zip(grads, grads_ref):
        assert isinstance(g, SparseRowGrad) and g.coalesced
        np.testing.assert_array_equal(g.indices, np.unique(g_ref.indices))
        # Parameters and residuals are O(1), so where the terms cancel (one
        # entity on both sides) each side keeps residue far below atol.
        np.testing.assert_allclose(g.to_dense(), g_ref.to_dense(), rtol=1e-12, atol=1e-14)


def test_margin_loss_scores_both_halves_in_one_call(monkeypatch):
    """The positive‖corrupted batch goes through one fused energy node."""
    transr = TransR(num_entities=6, num_relations=3, entity_dim=4, relation_dim=3)
    calls = []
    fused = dispatch.transr_energy

    def counted(*args):
        calls.append(len(args[3]))
        return fused(*args)

    monkeypatch.setattr(dispatch, "transr_energy", counted)
    heads, rels, tails = np.array([0, 1, 2]), np.array([0, 2, 2]), np.array([3, 4, 5])
    transr.margin_loss(heads, rels, tails, np.random.default_rng(0))
    assert calls == [6]


#: Tolerance of a fused kernel run at float32 against its per-op oracle
#: chain run at float64, in units of float32's machine epsilon: rtol, and
#: atol relative to the output's largest entry (sums with cancellation keep
#: an absolute, not a relative, rounding error).  1600 random cases of the
#: property below came within 5.5 eps.
F32_ULPS = 16
F32_TOL = F32_ULPS * float(np.finfo(np.float32).eps)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(1, 12),
    num_relations=st.integers(1, 4),
    num_edges=st.integers(1, 40),
    num_dups=st.integers(0, 8),
    kernel=st.sampled_from(["attention", "propagation", "aggregate", "transr"]),
)
def test_fused_float32_matches_float64_oracle_property(
    seed, num_entities, num_relations, num_edges, num_dups, kernel
):
    """Each fused kernel at float32 == its per-op oracle at float64, to rounding.

    The random graph is that of the float64 parity properties above.  Both
    sides read the same float32-representable inputs, so the gap is the
    fused kernel's float32 arithmetic alone; the fused output and every
    gradient stay float32.
    """
    rng = np.random.default_rng(seed)
    used = rng.permutation(num_relations)[: rng.integers(1, num_relations + 1)]
    heads = rng.integers(0, max(1, num_entities // 2), num_edges)
    rels = rng.choice(used, num_edges)
    tails = rng.integers(0, num_entities, num_edges)
    dup = rng.integers(0, num_edges, num_dups)
    heads, rels, tails = np.r_[heads, heads[dup]], np.r_[rels, rels[dup]], np.r_[tails, tails[dup]]
    store = TripleStore(num_entities)
    for r in range(num_relations):
        mask = rels == r
        store.add_triples(f"r{r}", heads[mask], tails[mask])
    adj = CSRAdjacency(store)
    tables = (
        0.5 * rng.standard_normal((num_entities, 4)),
        0.5 * rng.standard_normal((num_relations, 3)),
        0.5 * rng.standard_normal((num_relations, 3, 4)),
    )
    if kernel == "attention":
        fused = partial(dispatch.edge_attention_scores, adj=adj)
        oracle = partial(kernel_oracle.edge_attention_scores, adj=adj)
        out_shape = (adj.num_edges,)
    elif kernel == "propagation":
        tables = (rng.standard_normal((num_entities, 3)), rng.standard_normal(adj.num_edges))
        fused = partial(dispatch.weighted_neighbor_sum, adj=adj)
        oracle = partial(kernel_oracle.weighted_neighbor_sum, adj=adj)
        out_shape = (num_entities, 3)
    elif kernel == "aggregate":
        # Both sides draw the same dropout masks from their own generator.
        mode, p = ["concat", "sum"][seed % 2], [0.0, 0.3][seed // 2 % 2]
        tables = (
            rng.standard_normal((num_entities, 3)),
            rng.standard_normal((num_entities, 3)),
            rng.standard_normal((6 if mode == "concat" else 3, 2)),
            rng.standard_normal(2),
        )
        fused = partial(dispatch.aggregate, mode=mode, p=p, rng=np.random.default_rng(seed))
        oracle = partial(kernel_oracle.aggregate, mode=mode, p=p, rng=np.random.default_rng(seed))
        out_shape = (num_entities, 2)
    else:
        triples = {"heads": heads, "rels": rels, "tails": tails}
        fused = partial(dispatch.transr_energy, **triples)
        oracle = partial(kernel_oracle.transr_energy, **triples)
        out_shape = (len(heads),)
    tables = [t.astype(np.float32) for t in tables]
    upstream = rng.standard_normal(out_shape).astype(np.float32)

    def run(fn, dtype):
        params = [Parameter(t.astype(dtype)) for t in tables]
        out = fn(*params)
        out.backward(upstream.astype(dtype))
        return [out.data] + [_dense(p.grad) for p in params]

    got = run(fused, np.float32)
    ref = run(oracle, np.float64)
    for g, r in zip(got, ref):
        assert g.dtype == np.float32
        scale = max(float(np.abs(r).max(initial=0.0)), 1.0)
        np.testing.assert_allclose(g, r, rtol=F32_TOL, atol=F32_TOL * scale)


class TestTrainingParity:
    """End-to-end: fused and oracle land on the same trained CKAT."""

    @pytest.mark.parametrize(
        "dropout, attention_mode, aggregator",
        [
            pytest.param(0.0, "batch", "concat", id="0.0"),
            pytest.param(0.3, "batch", "concat", id="0.3"),
            pytest.param(0.0, "epoch", "concat", id="epoch-0.0"),
            pytest.param(0.3, "epoch", "concat", id="epoch-0.3"),
            pytest.param(0.3, "batch", "sum", id="sum-0.3"),
        ],
    )
    def test_two_epoch_fit_matches_oracle(
        self, ooi_split, ooi_ckg_best, dropout, attention_mode, aggregator
    ):
        cfg = CKATConfig(
            dim=16,
            relation_dim=16,
            layer_dims=(16, 8),
            dropout=dropout,
            attention_mode=attention_mode,
            aggregator=aggregator,
        )
        fit_cfg = FitConfig(epochs=2, batch_size=64, seed=3)
        tables = {}
        for backend in ("oracle", "numpy"):
            model = float64_ckat(
                CKAT(
                    ooi_split.train.num_users,
                    ooi_split.train.num_items,
                    ooi_ckg_best,
                    cfg,
                    seed=3,
                )
            )
            with _kernels(backend):
                model.fit(ooi_split.train, fit_cfg)
            tables[backend] = {
                "entity": model.transr.entity_emb.data.copy(),
                "relation": model.transr.relation_emb.data.copy(),
                "proj": model.transr.proj.data.copy(),
            }
        for name, ref in tables["oracle"].items():
            # The fused aggregator draws its dropout masks as the oracle's
            # F.dropout does, so the trajectories coincide to reassociation-level
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

    @staticmethod
    def _oracle_metrics(train, test, u, v, k, users):
        """Per-user recall/ndcg of the brute-force oracle's rankings."""
        top = oracle_topk(-(u[users] @ v.T), [train.items_of_user(int(x)) for x in users], k)
        relevant = [set(test.items_of_user(int(x)).tolist()) for x in users]
        recall = [recall_at_k(t.tolist(), rel, k) for t, rel in zip(top, relevant)]
        ndcg = [ndcg_at_k(t.tolist(), rel, k) for t, rel in zip(top, relevant)]
        return np.array(recall), np.array(ndcg)

    def test_factors_path_matches_oracle(self):
        train, test, u, v = self._problem()
        ev = RankingEvaluator(train, test, k=5)
        got = ev.evaluate_factors_per_user(u, v)
        recall, ndcg = self._oracle_metrics(train, test, u, v, 5, got.users)
        np.testing.assert_allclose(got.recall, recall, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.ndcg, ndcg, rtol=0, atol=1e-12)

    def test_float32_score_mode(self):
        """float32 factors (CKAT's dtype) are multiplied at float32 and widened
        into the float64 buffer: bit-equal to a float32 ``score_fn``, and
        within float32 rounding of the float64 factors."""
        train, test, u, v = self._problem()
        u32, v32 = u.astype(np.float32), v.astype(np.float32)
        ev = RankingEvaluator(train, test, k=5)
        got = ev.evaluate_factors_per_user(u32, v32)
        via_score_fn = ev.evaluate_per_user(lambda batch: u32[batch] @ v32.T)
        np.testing.assert_array_equal(got.recall, via_score_fn.recall)
        np.testing.assert_array_equal(got.ndcg, via_score_fn.ndcg)
        ref = ev.evaluate_factors_per_user(u, v)
        assert abs(got.reduce().recall - ref.reduce().recall) < 1e-6
        assert abs(got.reduce().ndcg - ref.reduce().ndcg) < 1e-6

    def test_empty_test_users(self):
        """Only users with test positives are evaluated, and they rank as the
        oracle does."""
        train, _, u, v = self._problem()
        rng = np.random.default_rng(29)
        test = InteractionDataset(
            np.zeros(3, dtype=np.int64), rng.integers(0, 30, 3), 12, 30
        )
        got = RankingEvaluator(train, test, k=5).evaluate_factors_per_user(u, v)
        np.testing.assert_array_equal(got.users, [0])
        recall, _ = self._oracle_metrics(train, test, u, v, 5, got.users)
        np.testing.assert_allclose(got.recall, recall, rtol=0, atol=1e-12)

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


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_users=st.integers(1, 8),
    num_items=st.integers(1, 30),
    rows=st.integers(1, 12),
    data=st.data(),
)
def test_masked_select_invariants_property(seed, num_users, num_items, rows, data):
    """Selection over negated blocks with forced ties and random exclusions.

    Block values come from a five-value set, so most rows hold tied
    cohorts; one user (when drawn) masks every item.  The ids must match the
    brute-force oracle (tie cohorts as sets), the block must be masked in
    place exactly as the oracle masks it, the valid prefix must be finite,
    ascending in negated score and free of masked ids, filler must be
    masked, and ``valid == min(k, unmasked count)``.  ``masked_topk`` must equal
    ``masked_select`` over ``-(U @ Vᵀ)`` bit for bit.
    """
    k = data.draw(st.integers(1, num_items), label="k")
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, [num_users, num_items], (rng.integers(0, 3 * num_items), 2))
    full = rng.integers(0, num_users)
    if rng.random() < 0.5:  # one user has every item masked
        pairs = np.r_[pairs, np.c_[np.full(num_items, full), np.arange(num_items)]]
    train = InteractionDataset(pairs[:, 0], pairs[:, 1], num_users, num_items)
    indptr, indices = train.user_offsets, train.item_ids
    batch = rng.integers(0, num_users, rows)
    block = rng.choice([-1.5, -0.5, 0.0, 0.5, 2.0], (rows, num_items))

    neg = block.copy()
    valid = np.empty(rows, dtype=np.int64)
    ids = dispatch.masked_select(neg, k, indptr, indices, batch, valid_out=valid)
    exclusions = [train.items_of_user(int(user)) for user in batch]
    assert_matches_oracle(ids, block, exclusions)
    np.testing.assert_array_equal(neg, oracle_rank(block, exclusions)[0], strict=True)
    for r, user in enumerate(batch):
        masked = set(indices[indptr[user] : indptr[user + 1]].tolist())
        assert valid[r] == min(k, num_items - len(masked))
        prefix = neg[r, ids[r, : valid[r]]]
        assert np.isfinite(prefix).all() and (np.diff(prefix) >= 0).all()
        assert not masked & set(ids[r, : valid[r]].tolist())
        assert (neg[r, ids[r, valid[r] :]] == np.inf).all()

    # Integer-valued factors force exact ties in the products; Gaussian ones
    # exercise rounding.
    if data.draw(st.booleans(), label="tied factors"):
        u = rng.integers(-2, 3, (rows, 3)).astype(np.float64)
        v = rng.integers(-2, 3, (num_items, 3)).astype(np.float64)
    else:
        u = rng.standard_normal((rows, 5))
        v = rng.standard_normal((num_items, 5))
    fused_neg = np.empty((rows, num_items))
    fused_valid = np.empty(rows, dtype=np.int64)
    fused = dispatch.masked_topk(
        u, v, k, fused_neg, indptr, indices, batch, valid_out=fused_valid
    )
    split_neg = -(u @ v.T)
    split_valid = np.empty(rows, dtype=np.int64)
    split = dispatch.masked_select(
        split_neg, k, indptr, indices, batch, valid_out=split_valid
    )
    np.testing.assert_array_equal(fused, split, strict=True)
    np.testing.assert_array_equal(fused_neg, split_neg, strict=True)
    np.testing.assert_array_equal(fused_valid, split_valid, strict=True)


# ------------------------------------------------ constant-weight propagation
class TestConstantWeightNeighborSum:
    """Frozen attention and uniform weights run the same CSR product."""

    def _dense_adjacency(self, adj, w):
        dense = np.zeros((adj.num_entities, adj.num_entities))
        np.add.at(dense, (adj.heads, adj.tails), w)
        return dense

    def test_forward_matches_dense(self, small_adj):
        rng = np.random.default_rng(31)
        w = rng.standard_normal(small_adj.num_edges)
        x = Parameter(rng.standard_normal((6, 4)))
        out = dispatch.weighted_neighbor_sum(x, w, small_adj)
        dense = self._dense_adjacency(small_adj, w)
        np.testing.assert_allclose(out.data, dense @ x.data, rtol=1e-12)

    def test_grad_matches_dense_transpose(self, small_adj):
        rng = np.random.default_rng(37)
        w = rng.standard_normal(small_adj.num_edges)
        x = Parameter(rng.standard_normal((6, 3)))
        c = rng.standard_normal((6, 3))
        out = dispatch.weighted_neighbor_sum(x, w, small_adj)
        F.sum(F.mul(out, Tensor(c))).backward()
        dense = self._dense_adjacency(small_adj, w)
        np.testing.assert_allclose(_dense(x.grad), dense.T @ c, rtol=1e-12, atol=1e-14)


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
        got = segment_sum_rows(values, perm, offsets)
        expect = np.zeros((len(starts), 3))
        np.add.at(expect, np.searchsorted(sorted_seg[starts], seg_of), values)
        np.testing.assert_array_equal(got, expect)

    def test_segment_sum_rows_empty(self):
        got = segment_sum_rows(
            np.zeros((0, 3)), np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
        )
        assert got.shape == (0, 3)

    def test_attention_grad_groups_cover_all_edges(self, small_adj):
        groups = small_adj.attention_grad_groups()
        order, _ = small_adj.relation_edge_groups()
        assert groups.head_offsets[-1] == small_adj.num_edges
        # every edge's runs name its own head and tail entity
        np.testing.assert_array_equal(
            groups.head_rows[groups.head_run], small_adj.heads[order]
        )
        np.testing.assert_array_equal(
            groups.tail_rows[groups.tail_run], small_adj.tails[order]
        )
        # head runs are contiguous: the CSR row pointer of the score matrix
        np.testing.assert_array_equal(
            np.repeat(np.arange(len(groups.head_rows)), np.diff(groups.head_offsets)),
            groups.head_run,
        )
        # the coalesce target is exactly the touched-entity set
        np.testing.assert_array_equal(
            groups.rows, np.unique(np.r_[small_adj.heads, small_adj.tails])
        )


# ------------------------------------------------------- instrumentation
class TestInstrumentation:
    def test_profiler_times_fused_ops(self, small_adj, small_params):
        ent, rel, proj = small_params
        with profiler.profiled() as report:
            scores = dispatch.edge_attention_scores(ent, rel, proj, small_adj)
            F.sum(scores).backward()
        stats = {s.name for s in report.sorted_stats()}
        assert "edge_attention_scores" in stats

    def test_profiler_and_sanitizer_wrap_aggregate(self):
        rng = np.random.default_rng(2)
        x = Parameter(rng.standard_normal((4, 3)))
        w, b = Parameter(rng.standard_normal((6, 2))), Parameter(np.zeros(2))
        with profiler.profiled() as report:
            F.sum(dispatch.aggregate(x, x, w, b, "concat")).backward()
        assert "aggregate" in {s.name for s in report.sorted_stats()}
        values = x.data.copy()
        values[0, 0] = np.nan
        bad = Parameter(values)
        with sanitizer.sanitized():
            with pytest.raises(sanitizer.SanitizerError, match="aggregate"):
                dispatch.aggregate(bad, x, w, b, "concat")

    def test_sanitizer_flags_nonfinite_through_fused_op(self, small_adj, small_params):
        _, rel, proj = small_params
        bad = Parameter(small_params[0].data.copy())
        bad.data[0, 0] = np.nan
        with sanitizer.sanitized():
            with pytest.raises(sanitizer.SanitizerError):
                dispatch.edge_attention_scores(bad, rel, proj, small_adj)
