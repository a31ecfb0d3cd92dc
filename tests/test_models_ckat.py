"""CKAT model tests: attention, aggregators, propagation, training modes."""

import numpy as np
import pytest
from scipy.sparse import coo_matrix

from repro.autograd import Adam, Tensor, no_grad
from repro.kernels import dispatch
from repro.models import CKAT, CKATConfig
from repro.models.base import FitConfig
from repro.kg.adjacency import CSRAdjacency
from repro.kg.triples import TripleStore
from repro.models.ckat.layers import (
    ConcatAggregator,
    PropagationLayer,
    SumAggregator,
    compute_edge_attention,
    uniform_edge_weights,
)
from repro.models.embeddings import TransE, TransR, corrupt_triples
from tests.ckat_reference import float64_ckat


@pytest.fixture(scope="module")
def ckat_model(ooi_split, ooi_ckg_best):
    # Float64: the tests below assert identities at atol 1e-9/1e-10.
    return float64_ckat(
        CKAT(
            ooi_split.train.num_users,
            ooi_split.train.num_items,
            ooi_ckg_best,
            CKATConfig(dim=16, relation_dim=16, layer_dims=(16, 8)),
            seed=0,
        )
    )


class TestCKATConfig:
    def test_defaults_follow_paper(self):
        cfg = CKATConfig()
        assert cfg.dim == 64
        assert cfg.layer_dims == (64, 32, 16)
        assert cfg.aggregator == "concat"
        assert cfg.depth == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            CKATConfig(dim=0)
        with pytest.raises(ValueError):
            CKATConfig(layer_dims=())
        with pytest.raises(ValueError):
            CKATConfig(aggregator="mean")
        with pytest.raises(ValueError):
            CKATConfig(attention_mode="never")
        with pytest.raises(ValueError):
            CKATConfig(dropout=1.0)


class TestAttention:
    def test_weights_sum_to_one_per_head(self, ckat_model):
        adj = ckat_model.adj
        w = ckat_model._edge_weights
        sums = np.add.reduceat(w, adj.offsets[:-1][np.diff(adj.offsets) > 0])
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_uniform_weights_are_inverse_degree(self, ckat_model):
        adj = ckat_model.adj
        w = uniform_edge_weights(adj)
        degrees = adj.degree()
        seg = np.repeat(np.arange(adj.num_entities), degrees)
        np.testing.assert_allclose(w, 1.0 / degrees[seg])

    def test_attention_changes_after_transr_update(self, ckat_model):
        before = ckat_model._edge_weights.copy()
        ckat_model.transr.entity_emb.data += 0.05
        ckat_model.refresh_attention()
        after = ckat_model._edge_weights
        assert not np.allclose(before, after)
        ckat_model.transr.entity_emb.data -= 0.05
        ckat_model.refresh_attention()

    def test_attention_differentiable_in_batch_mode(self, ooi_split, ooi_ckg_best):
        model = CKAT(
            ooi_split.train.num_users,
            ooi_split.train.num_items,
            ooi_ckg_best,
            CKATConfig(dim=8, relation_dim=8, layer_dims=(8,), attention_mode="batch"),
            seed=0,
        )
        rng = np.random.default_rng(0)
        loss = model.batch_loss(np.array([0, 1]), np.array([0, 1]), np.array([2, 3]), rng)
        loss.backward()
        # Gradients must reach the relation projection through attention.
        assert model.transr.proj.grad is not None
        assert np.abs(model.transr.proj.grad).sum() > 0

    def test_weighted_adjacency_matches_segments(self, ckat_model):
        adj = ckat_model.adj
        w = ckat_model._edge_weights
        A = coo_matrix((w, (adj.heads, adj.tails)), shape=(adj.num_entities,) * 2)
        x = np.random.default_rng(0).normal(size=(adj.num_entities, 4))
        with dispatch.kernel_backend("numpy"), no_grad():
            fused = dispatch.weighted_neighbor_sum(Tensor(x), w, adj).data
        np.testing.assert_allclose(fused, A @ x, atol=1e-10)


class TestAggregators:
    def test_concat_output_shape(self, rng):
        agg = ConcatAggregator(6, 4, rng)
        out = agg(Tensor(np.ones((3, 6))), Tensor(np.ones((3, 6))))
        assert out.shape == (3, 4)

    def test_sum_output_shape(self, rng):
        agg = SumAggregator(6, 4, rng)
        out = agg(Tensor(np.ones((3, 6))), Tensor(np.ones((3, 6))))
        assert out.shape == (3, 4)

    def test_sum_additivity(self, rng):
        # For the sum aggregator, swapping self/neighbor roles is symmetric.
        agg = SumAggregator(4, 4, rng)
        a, b = Tensor(np.ones((2, 4))), Tensor(np.full((2, 4), 2.0))
        np.testing.assert_allclose(agg(a, b).data, agg(b, a).data)

    def test_invalid_aggregator_name(self, rng):
        with pytest.raises(ValueError):
            PropagationLayer(4, 4, aggregator="max", rng=rng)

    def test_invalid_dropout(self, rng):
        with pytest.raises(ValueError):
            PropagationLayer(4, 4, aggregator="sum", rng=rng, dropout=1.0)


class TestPropagation:
    def test_propagate_shape(self, ckat_model, ooi_ckg_best):
        out = ckat_model.propagate()
        assert out.shape == (ooi_ckg_best.num_entities, 16 + 16 + 8)

    def test_sparse_path_matches_segment_path(self, ckat_model):
        layer = ckat_model.layers[0]
        emb = ckat_model.transr.entity_emb
        adj = ckat_model.adj
        w = ckat_model._edge_weights
        A = coo_matrix((w, (adj.heads, adj.tails)), shape=(adj.num_entities,) * 2)
        with no_grad():
            via_layer = layer(emb, adj, w)
            with dispatch.kernel_backend("oracle"):
                via_segments = layer(emb, adj, w)
            via_sparse = layer.aggregator(emb, Tensor(A @ emb.data))
        np.testing.assert_allclose(via_layer.data, via_segments.data, atol=1e-9)
        np.testing.assert_allclose(via_layer.data, via_sparse.data, atol=1e-9)

    def test_isolated_entity_keeps_self_signal(self, ckat_model):
        # Entities with no edges receive zero neighborhood; their output is
        # agg(e, 0) which must be finite.
        out = ckat_model.propagate()
        assert np.isfinite(out.data).all()

    def test_entity_representations_no_tape(self, ckat_model):
        reps = ckat_model.entity_representations()
        assert isinstance(reps, np.ndarray)


class TestNormalizeAblation:
    def _build(self, ooi_split, ooi_ckg_best, normalize):
        return CKAT(
            ooi_split.train.num_users,
            ooi_split.train.num_items,
            ooi_ckg_best,
            CKATConfig(
                dim=8, relation_dim=8, layer_dims=(8, 4), dropout=0.0, normalize=normalize
            ),
            seed=0,
        )

    def test_flag_reaches_every_layer(self, ooi_split, ooi_ckg_best):
        model = self._build(ooi_split, ooi_ckg_best, normalize=False)
        assert all(not layer.normalize for layer in model.layers)
        model = self._build(ooi_split, ooi_ckg_best, normalize=True)
        assert all(layer.normalize for layer in model.layers)

    def test_ablation_changes_propagation_output(self, ooi_split, ooi_ckg_best):
        with no_grad():
            normalized = self._build(ooi_split, ooi_ckg_best, normalize=True).propagate().data
            raw = self._build(ooi_split, ooi_ckg_best, normalize=False).propagate().data
        assert normalized.shape == raw.shape
        assert not np.allclose(normalized, raw)

    def test_layer_slices_have_unit_norm_only_when_normalized(self, ooi_split, ooi_ckg_best):
        """Eq. 10 concatenates per-layer outputs; with normalize=True each
        layer's slice has unit row norms, the ablation leaves them raw."""
        with no_grad():
            normalized = self._build(ooi_split, ooi_ckg_best, normalize=True).propagate().data
            raw = self._build(ooi_split, ooi_ckg_best, normalize=False).propagate().data
        sl = slice(8, 16)  # first propagation layer's slice (after the dim=8 embedding)
        norm_rows = np.linalg.norm(normalized[:, sl], axis=1)
        np.testing.assert_allclose(norm_rows[norm_rows > 1e-8], 1.0, atol=1e-6)
        raw_rows = np.linalg.norm(raw[:, sl], axis=1)
        assert not np.allclose(raw_rows[raw_rows > 1e-8], 1.0, atol=1e-6)


class TestDegenerateGraph:
    """A CKG with zero triples (e.g. an empty facility catalog) must yield
    well-formed empty attention and self-only propagation, not crash."""

    @pytest.fixture()
    def empty_adj(self):
        return CSRAdjacency(TripleStore(num_entities=5))

    def test_zero_edge_attention_is_empty(self, empty_adj, rng):
        entity = Tensor(rng.normal(size=(5, 4)))
        relation = Tensor(rng.normal(size=(1, 3)))
        proj = Tensor(rng.normal(size=(1, 3, 4)))
        att = compute_edge_attention(entity, relation, proj, empty_adj)
        assert att.shape == (0,)
        assert att.data.dtype == np.float64

    def test_zero_edge_propagation_is_self_only(self, empty_adj, rng):
        layer = PropagationLayer(4, 3, aggregator="concat", rng=rng, dropout=0.0)
        emb = Tensor(rng.normal(size=(5, 4)))
        with no_grad():
            out = layer(emb, empty_adj, np.zeros(0))
        assert out.shape == (5, 3)
        assert np.isfinite(out.data).all()
        # Zero neighborhood: output must equal agg(e, 0) exactly.
        with no_grad():
            expected = layer.aggregator(emb, Tensor(np.zeros((5, 4))))
        np.testing.assert_array_equal(out.data, expected.data)

    def test_uniform_weights_empty_graph(self, empty_adj):
        assert uniform_edge_weights(empty_adj).shape == (0,)


class TestCKATTraining:
    def test_loss_decreases(self, ooi_split, ooi_ckg_best):
        model = CKAT(
            ooi_split.train.num_users,
            ooi_split.train.num_items,
            ooi_ckg_best,
            CKATConfig(dim=16, relation_dim=16, layer_dims=(16,), kg_steps_per_epoch=2),
            seed=0,
        )
        result = model.fit(ooi_split.train, FitConfig(epochs=4, batch_size=256, lr=0.01, seed=0))
        assert result.losses[-1] < result.losses[0]
        assert all(np.isfinite(result.losses))

    def test_transr_phase_reported(self, ooi_split, ooi_ckg_best):
        model = CKAT(
            ooi_split.train.num_users,
            ooi_split.train.num_items,
            ooi_ckg_best,
            CKATConfig(dim=8, relation_dim=8, layer_dims=(8,), kg_steps_per_epoch=2),
            seed=0,
        )
        result = model.fit(ooi_split.train, FitConfig(epochs=2, batch_size=256, seed=0))
        assert len(result.extra_losses) == 2
        assert all(l >= 0 for l in result.extra_losses)

    def test_depth_variants_build(self, ooi_split, ooi_ckg_best):
        for dims in [(16,), (16, 8), (16, 8, 4)]:
            model = CKAT(
                ooi_split.train.num_users,
                ooi_split.train.num_items,
                ooi_ckg_best,
                CKATConfig(dim=16, relation_dim=16, layer_dims=dims),
                seed=0,
            )
            expected_dim = 16 + sum(dims)
            assert model.propagate().shape[1] == expected_dim

    def test_without_attention_trains(self, ooi_split, ooi_ckg_best):
        model = CKAT(
            ooi_split.train.num_users,
            ooi_split.train.num_items,
            ooi_ckg_best,
            CKATConfig(dim=8, relation_dim=8, layer_dims=(8,), use_attention=False),
            seed=0,
        )
        result = model.fit(ooi_split.train, FitConfig(epochs=2, batch_size=256, seed=0))
        assert np.isfinite(result.losses).all()

    def test_score_users_shape(self, ckat_model, ooi_split):
        scores = ckat_model.score_users(np.array([0, 1]))
        assert scores.shape == (2, ooi_split.train.num_items)

    def test_parameters_complete(self, ckat_model):
        params = ckat_model.parameters()
        # TransR: entity + relation + proj; per layer: W + b.
        assert len(params) == 3 + 2 * len(ckat_model.layers)


def _tape(root):
    """Every tensor reachable from ``root`` through the recorded parents."""
    nodes, seen, stack = [], set(), [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes.append(t)
            stack.extend(t._parents)
    return nodes


class TestFloat32Training:
    """CKAT trains in float32: no op, kernel or optimizer slot upcasts."""

    @pytest.mark.parametrize(
        "overrides",
        [{"attention_mode": "batch"}, {"attention_mode": "epoch"}, {"use_attention": False}],
        ids=["batch-attention", "epoch-attention", "no-attention"],
    )
    def test_training_step_stays_float32(self, ooi_split, ooi_ckg_best, monkeypatch, overrides):
        model = CKAT(
            ooi_split.train.num_users,
            ooi_split.train.num_items,
            ooi_ckg_best,
            CKATConfig(dim=8, relation_dim=8, layer_dims=(8, 4), **overrides),
            seed=0,
        )
        params = model.parameters()
        f32 = np.dtype(np.float32)
        assert {p.dtype for p in params} == {f32}
        arriving = []
        accumulate = Tensor.accumulate_grad

        def recording(self, grad, owned=False):
            arriving.append(grad.dtype)
            accumulate(self, grad, owned)

        monkeypatch.setattr(Tensor, "accumulate_grad", recording)
        optimizer = Adam(params, lr=1e-3)
        rng = np.random.default_rng(0)
        users = rng.integers(0, ooi_split.train.num_users, 32)
        pos, neg = rng.integers(0, ooi_split.train.num_items, (2, 32))
        h, r, t = model.transr.sample_triples(ooi_ckg_best.propagation_store, 64, rng)
        # One step of each phase: the TransR margin step, then a BPR step.
        for loss_fn in (
            lambda: model.transr.margin_loss(h, r, t, rng),
            lambda: model.batch_loss(users, pos, neg, rng),
        ):
            optimizer.zero_grad()
            loss = loss_fn()
            assert {n.dtype for n in _tape(loss)} == {f32}
            loss.backward()
            optimizer.step()
            assert {p.grad.dtype for p in params if p.grad is not None} == {f32}
        assert set(arriving) == {f32}
        slots = list(optimizer._m.values()) + list(optimizer._v.values())
        assert len(slots) == 2 * len(params)
        assert {s.dtype for s in slots} == {f32}
        model.on_epoch_end()
        assert model.scoring_factors()[0].dtype == f32


class TestTransR:
    def test_energy_nonnegative(self, rng):
        tr = TransR(num_entities=10, num_relations=3, entity_dim=4, relation_dim=4, seed=0)
        e = tr.energy(np.array([0, 1]), np.array([0, 2]), np.array([3, 4]))
        assert (e.data >= 0).all()

    def test_project_grouped_matches_naive(self, rng):
        tr = TransR(num_entities=10, num_relations=3, entity_dim=4, relation_dim=5, seed=0)
        rels = np.array([2, 0, 1, 0, 2])
        ents = np.array([1, 3, 5, 7, 9])
        grouped = tr.project(rels, ents).data
        naive = np.stack(
            [tr.proj.data[r] @ tr.entity_emb.data[e] for r, e in zip(rels, ents)]
        )
        np.testing.assert_allclose(grouped, naive, atol=1e-12)

    def test_margin_loss_nonnegative(self, rng):
        tr = TransR(num_entities=10, num_relations=2, entity_dim=4, relation_dim=4, seed=0)
        loss = tr.margin_loss(np.array([0, 1]), np.array([0, 1]), np.array([2, 3]), rng)
        assert loss.item() >= 0

    def test_shared_entity_embedding(self, rng):
        from repro.autograd import Parameter

        shared = Parameter(np.zeros((10, 4)))
        tr = TransR(10, 2, 4, 4, seed=0, shared_entity_embedding=shared)
        assert tr.entity_emb is shared

    def test_shared_embedding_shape_checked(self):
        from repro.autograd import Parameter

        with pytest.raises(ValueError):
            TransR(10, 2, 4, 4, shared_entity_embedding=Parameter(np.zeros((5, 4))))

    def test_training_reduces_energy_of_true_triples(self, ooi_ckg_best, rng):
        from repro.autograd import Adam

        store = ooi_ckg_best.store
        tr = TransR(ooi_ckg_best.num_entities, store.num_relations, 8, 8, seed=0)
        opt = Adam(tr.parameters(), lr=0.01)
        h, r, t = store.heads[:512], store.rels[:512], store.tails[:512]
        before = tr.energy(h, r, t).data.mean()
        for _ in range(30):
            opt.zero_grad()
            loss = tr.margin_loss(h, r, t, rng)
            loss.backward()
            opt.step()
        after = tr.energy(h, r, t).data.mean()
        assert after < before


class TestTransE:
    def test_energy_zero_for_perfect_translation(self):
        te = TransE(num_entities=3, num_relations=1, dim=2, seed=0)
        te.entity_emb.data[0] = [0.0, 0.0]
        te.entity_emb.data[1] = [1.0, 1.0]
        te.relation_emb.data[0] = [1.0, 1.0]
        e = te.energy(np.array([0]), np.array([0]), np.array([1]))
        np.testing.assert_allclose(e.data, [0.0], atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            TransE(0, 1, 4)


class TestCorruptTriples:
    def test_exactly_one_side_changes_or_same_entity(self, rng):
        heads = np.arange(50)
        tails = np.arange(50, 100)
        ch, ct = corrupt_triples(heads, tails, num_entities=200, rng=rng)
        for i in range(50):
            # One side must remain intact.
            assert ch[i] == heads[i] or ct[i] == tails[i]

    def test_shapes(self, rng):
        ch, ct = corrupt_triples(np.zeros(7, dtype=int), np.ones(7, dtype=int), 10, rng)
        assert len(ch) == len(ct) == 7


class TestAttentionModes:
    def test_batch_and_epoch_agree_at_init(self, ooi_split, ooi_ckg_best):
        """Immediately after construction the frozen attention equals the
        freshly-computed one, so both modes score identically."""
        cfg_epoch = CKATConfig(
            dim=8, relation_dim=8, layer_dims=(8,), dropout=0.0, attention_mode="epoch"
        )
        cfg_batch = CKATConfig(
            dim=8, relation_dim=8, layer_dims=(8,), dropout=0.0, attention_mode="batch"
        )
        m_epoch = CKAT(
            ooi_split.train.num_users, ooi_split.train.num_items, ooi_ckg_best, cfg_epoch, seed=3
        )
        m_batch = CKAT(
            ooi_split.train.num_users, ooi_split.train.num_items, ooi_ckg_best, cfg_batch, seed=3
        )
        with no_grad():
            a = m_epoch.propagate().data
            b = m_batch.propagate().data
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_epoch_mode_uses_sparse_path(self, ooi_split, ooi_ckg_best):
        """Epoch mode propagates frozen weights: no gradient reaches W_r."""
        model = CKAT(
            ooi_split.train.num_users,
            ooi_split.train.num_items,
            ooi_ckg_best,
            CKATConfig(dim=8, relation_dim=8, layer_dims=(8,)),
            seed=0,
        )
        assert isinstance(model._edge_weights, np.ndarray)
        assert model._edge_weights.shape == (model.adj.num_edges,)
        rng = np.random.default_rng(0)
        loss = model.batch_loss(np.array([0, 1]), np.array([0, 1]), np.array([2, 3]), rng)
        loss.backward()
        assert model.transr.proj.grad is None
        assert model.transr.entity_emb.grad is not None
