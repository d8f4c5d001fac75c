import math
import re

import numpy as np
import pytest
from scipy.special import expit

from edgefl.graph_attack import (
    DIVERGENCE_LIMIT,
    LOGIT_CLAMP,
    LOGVAR_MAX,
    AttackDiagnostics,
    AttackSettings,
    EncoderState,
    GaeTrainResult,
    LatentState,
    ModelGraph,
    StackFailure,
    adversarial_reconstruct,
    build_graph,
    encode,
    estimate_ascent_direction,
    generate_malicious,
    graph_loss,
    init_encoder,
    loss_and_grads,
    resolve_threshold,
    run_attack,
    sample_links,
    surrogate_gradient,
    surrogate_objective,
    train_gae,
)
from edgefl.numerics import Projector, RngStream

SMALL = AttackSettings(
    d_feat=4, d_z=3, hidden_dims=(5, 3), gae_epochs=10, psi_hidden=4,
    d_thresh_percentile=90.0,
)


def _random_graph(n_nodes, rng, dim=6, settings=SMALL):
    models = [rng.normal(size=dim) for _ in range(n_nodes - 1)]
    prev = rng.normal(size=dim)
    proj = Projector.random(dim, settings.d_feat, RngStream(int(rng.integers(1e9)), "proj"))
    return build_graph(models, prev, proj), models, prev


def _loss_value(graph, enc, settings, links, eps=None):
    hidden, latent = encode(graph, enc, settings, eps)
    return graph_loss(graph, hidden, latent, enc, settings, links)


def _objective_of(graph, settings, rng):
    """The link targets and noise a training run on rng draws after its
    initialization, redrawn from a fresh stream of the same key."""
    init_encoder(graph, settings, rng)
    links = sample_links(graph, settings, rng)
    eps = None
    if settings.beta > 0:
        eps = rng.gen.standard_normal((graph.node_count, settings.d_z))
    return links, eps


# ---------------------------------------------------------------- build_graph

def test_build_graph_identical_models_all_ones():
    model = np.array([1.0, 2.0, -1.0, 0.5])
    graph = build_graph([model, model, model], model, Projector.identity(4))
    np.testing.assert_allclose(graph.adjacency, np.ones((4, 4)), atol=1e-12)


def test_build_graph_orthogonal_models_identity_adjacency():
    models = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
    prev = np.array([0.0, 0.0, 1.0])
    graph = build_graph(models, prev, Projector.identity(3))
    np.testing.assert_array_equal(graph.adjacency, np.eye(3))


def test_build_graph_matches_pairwise_cosine_oracle():
    rng = np.random.default_rng(50)
    graph, models, prev = _random_graph(6, rng)
    q = graph.features
    for i in range(6):
        for j in range(6):
            if i == j:
                expected = 1.0
            else:
                denom = np.linalg.norm(q[i]) * np.linalg.norm(q[j])
                expected = max(0.0, float(q[i] @ q[j]) / denom)
            assert abs(graph.adjacency[i, j] - expected) <= 1e-12


def test_build_graph_equals_the_per_pair_cosine_loop_byte_for_byte():
    rng = np.random.default_rng(51)
    for trial in range(60):
        n, dim = int(rng.integers(3, 41)), int(rng.integers(2, 12))
        scale = [1e-3, 1.0, 1e3][trial % 3]
        models = [rng.normal(size=dim) * scale for _ in range(n - 1)]
        models[int(rng.integers(n - 1))] = np.zeros(dim)  # a norm below the floor
        models[0] = -models[1]  # a cosine of exactly -1
        prev = rng.normal(size=dim)
        proj = Projector.random(dim, int(rng.integers(1, dim + 1)), RngStream(trial, "proj"))
        graph = build_graph(models, prev, proj)
        expected = np.eye(n)
        for i in range(n):
            for j in range(i + 1, n):
                a, b = graph.features[i], graph.features[j]
                na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
                value = 0.0 if min(na, nb) < 1e-12 else max(
                    0.0, float(np.clip(float(a @ b) / (na * nb), -1.0, 1.0))
                )
                expected[i, j] = expected[j, i] = value
        assert graph.adjacency.tobytes() == expected.tobytes()


def test_build_graph_attacker_node_last_and_guard():
    rng = np.random.default_rng(51)
    graph, models, prev = _random_graph(4, rng)
    np.testing.assert_array_equal(graph.raw_models[-1], prev)
    assert graph.node_count == 4
    with pytest.raises(ValueError, match="at least 2"):
        build_graph([models[0]], prev, Projector.identity(6))


# --------------------------------------------------------------------- encode

def _zero_encoder(settings, d_feat):
    dims = [d_feat, *settings.hidden_dims]
    return EncoderState(
        layer_weights=[np.zeros((dims[i], dims[i + 1])) for i in range(len(dims) - 1)],
        mu_head=np.zeros((dims[-1], settings.d_z)),
        logvar_head=np.zeros((dims[-1], settings.d_z)),
        psi_w1=np.zeros((dims[-1], settings.psi_hidden)),
        psi_b1=np.zeros(settings.psi_hidden),
        psi_w2=np.zeros(settings.psi_hidden),
        psi_b2=np.zeros(()),
    )


def test_encode_zero_weights_zero_everything():
    rng = np.random.default_rng(52)
    graph, _, _ = _random_graph(4, rng)
    enc = _zero_encoder(SMALL, SMALL.d_feat)
    hidden, latent = encode(graph, enc, SMALL, eps=None)
    np.testing.assert_array_equal(hidden, np.zeros_like(hidden))
    np.testing.assert_array_equal(latent.mu, np.zeros_like(latent.mu))
    np.testing.assert_array_equal(latent.logvar, np.zeros_like(latent.logvar))
    np.testing.assert_array_equal(latent.z, latent.mu)


def test_encode_two_node_hand_matrix_multiply():
    # A has self-loops only, so the normalized neighborhood term duplicates
    # the node features and kappa^1 = tanh(2 * Q @ W).
    settings = AttackSettings(
        d_feat=2, d_z=2, hidden_dims=(2,), psi_hidden=2, d_thresh_percentile=90.0
    )
    q = np.array([[0.3, -0.2], [0.1, 0.4]])
    graph = ModelGraph(adjacency=np.eye(2), features=q, raw_models=np.zeros((2, 3)))
    w = np.array([[0.5, -0.1], [0.2, 0.3]])
    enc = _zero_encoder(settings, 2)
    enc.layer_weights[0] = w
    hidden, _ = encode(graph, enc, settings, eps=None)
    np.testing.assert_allclose(hidden, np.tanh(2.0 * q @ w), atol=1e-15)


def test_encode_z_equals_mu_without_eps_and_reparam_with_eps():
    rng = np.random.default_rng(53)
    graph, _, _ = _random_graph(3, rng)
    enc = init_encoder(graph, SMALL, RngStream(1, "a"))
    _, latent = encode(graph, enc, SMALL, eps=None)
    np.testing.assert_array_equal(latent.z, latent.mu)
    eps = np.random.default_rng(0).normal(size=latent.mu.shape)
    _, latent_eps = encode(graph, enc, SMALL, eps=eps)
    expected = latent_eps.mu + np.exp(0.5 * latent_eps.logvar) * eps
    np.testing.assert_allclose(latent_eps.z, expected, atol=1e-15)


def test_encode_nonfinite_names_layer():
    rng = np.random.default_rng(54)
    graph, _, _ = _random_graph(3, rng)
    settings = AttackSettings(
        d_feat=4, d_z=3, hidden_dims=(5, 3), activation="relu", psi_hidden=4,
        d_thresh_percentile=90.0,
    )
    enc = init_encoder(graph, settings, RngStream(1, "a"))
    enc.layer_weights[1][0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(StackFailure, match="layer 2") as err:
        encode(graph, enc, settings, eps=None)
    assert err.value.index == 0


# ----------------------------------------------------------------- graph_loss

def test_sample_links_structure_and_determinism():
    rng = np.random.default_rng(55)
    graph, _, _ = _random_graph(6, rng)
    links_a = sample_links(graph, SMALL, RngStream(9, "atk"))
    links_b = sample_links(graph, SMALL, RngStream(9, "atk"))
    for v in range(graph.node_count):
        pos, neg = np.flatnonzero(links_a.positive[v]), np.flatnonzero(links_a.negative[v])
        assert v not in pos and v not in neg
        assert set(pos) == {
            u for u in range(graph.node_count)
            if u != v and graph.adjacency[v, u] > 0
        }
        assert set(pos).isdisjoint(set(neg))
        non = graph.node_count - 1 - len(pos)
        assert len(neg) == min(int(round(SMALL.negative_sample_ratio * len(pos))), non)
        np.testing.assert_array_equal(links_a.positive[v], links_b.positive[v])
        np.testing.assert_array_equal(links_a.negative[v], links_b.negative[v])


def _sample_links_loop(graph, settings, rng):
    """sample_links as one pass per node: the reference its whole-matrix
    form must match bit for bit, stream state included."""
    n = graph.node_count
    others = np.arange(n)
    positive, negative = np.zeros((n, n)), np.zeros((n, n))
    for v in range(n):
        row = graph.adjacency[v]
        pos = others[(row > 0) & (others != v)]
        non = others[(row == 0) & (others != v)]
        n_neg = min(int(round(settings.negative_sample_ratio * len(pos))), len(non))
        if len(pos):
            positive[v, pos] = 1.0 / len(pos)
        if n_neg > 0:
            negative[v, rng.gen.choice(non, size=n_neg, replace=False)] = 1.0 / n_neg
    return positive, negative


def test_sample_links_equals_the_per_node_loop_bit_for_bit():
    rng = np.random.default_rng(59)
    for trial in range(200):
        n = int(rng.integers(2, 12))
        weights = rng.uniform(0.05, 1.0, size=(n, n))
        # Some rows keep every edge, some none, most a random share.
        weights[rng.uniform(size=(n, n)) < rng.uniform()] = 0.0
        adjacency = np.triu(weights, 1) + np.triu(weights, 1).T + np.eye(n)
        graph = ModelGraph(adjacency, np.zeros((n, 2)), np.zeros((n, 2)))
        settings = SMALL.replace(negative_sample_ratio=float(rng.choice([0.0, 0.5, 1.0, 1.5, 3.0])))
        got_rng, want_rng = RngStream(trial, "atk"), RngStream(trial, "atk")
        got = sample_links(graph, settings, got_rng)
        want_pos, want_neg = _sample_links_loop(graph, settings, want_rng)
        np.testing.assert_array_equal(got.positive, want_pos)
        np.testing.assert_array_equal(got.negative, want_neg)
        assert got_rng.gen.integers(2**63) == want_rng.gen.integers(2**63)


def test_graph_loss_two_node_zero_dot_edge_term():
    settings = AttackSettings(
        d_feat=2, d_z=2, hidden_dims=(2,), psi_hidden=2, beta=0.0,
        d_thresh_percentile=90.0,
    )
    graph = ModelGraph(
        adjacency=np.array([[1.0, 0.7], [0.7, 1.0]]),
        features=np.zeros((2, 2)),
        raw_models=np.zeros((2, 3)),
    )
    links = sample_links(graph, settings, RngStream(0, "atk"))
    z = np.array([[1.0, 0.0], [0.0, 1.0]])  # z_0 . z_1 == 0
    latent = LatentState(mu=z, logvar=np.zeros_like(z), z=z)
    enc = _zero_encoder(settings, 2)  # psi output 0 -> -log(1/2) per node
    total = graph_loss(graph, np.zeros((2, 2)), latent, enc, settings, links)
    assert total == pytest.approx(4.0 * math.log(2.0), rel=1e-12)


def test_graph_loss_perfect_reconstruction_reduces_to_psi_terms():
    settings = AttackSettings(
        d_feat=2, d_z=2, hidden_dims=(2,), psi_hidden=2, beta=0.0,
        d_thresh_percentile=90.0,
    )
    graph = ModelGraph(
        adjacency=np.array([[1.0, 0.9], [0.9, 1.0]]),
        features=np.zeros((2, 2)),
        raw_models=np.zeros((2, 3)),
    )
    links = sample_links(graph, settings, RngStream(0, "atk"))
    big = np.array([[40.0, 0.0], [40.0, 0.0]])  # edge score saturates at 1
    latent = LatentState(mu=big, logvar=np.zeros_like(big), z=big)
    enc = init_encoder(graph, settings, RngStream(3, "atk"))
    hidden = np.random.default_rng(4).normal(size=(2, 2))
    total = graph_loss(graph, hidden, latent, enc, settings, links)
    h1 = np.tanh(hidden @ enc.psi_w1 + enc.psi_b1)
    psi_expected = float(np.sum(-np.log(expit(h1 @ enc.psi_w2 + enc.psi_b2))))
    assert total == pytest.approx(psi_expected, abs=1e-9)


def test_graph_loss_matches_term_by_term_oracle():
    rng = np.random.default_rng(56)
    settings = AttackSettings(
        d_feat=4, d_z=3, hidden_dims=(5, 3), psi_hidden=4, beta=0.37,
        negative_sample_ratio=1.0, d_thresh_percentile=90.0,
    )
    graph, _, _ = _random_graph(4, rng, settings=settings)
    enc = init_encoder(graph, settings, RngStream(11, "atk"))
    links = sample_links(graph, settings, RngStream(11, "links"))
    eps = np.random.default_rng(5).normal(size=(4, settings.d_z))
    hidden, latent = encode(graph, enc, settings, eps=eps)

    expected = 0.0
    for v in range(4):
        pos, neg = np.flatnonzero(links.positive[v]), np.flatnonzero(links.negative[v])
        if len(pos):
            terms = [-math.log(expit(float(latent.z[v] @ latent.z[u]))) for u in pos]
            expected += sum(terms) / len(terms)
        if len(neg):
            terms = [-math.log(1.0 - expit(float(latent.z[v] @ latent.z[u]))) for u in neg]
            expected += sum(terms) / len(terms)
        h1 = np.tanh(hidden[v] @ enc.psi_w1 + enc.psi_b1)
        expected += -math.log(expit(float(h1 @ enc.psi_w2 + enc.psi_b2)))
    kl = 0.0
    for v in range(4):
        for k in range(settings.d_z):
            kl += -0.5 * (
                1.0 + latent.logvar[v, k] - latent.mu[v, k] ** 2
                - math.exp(latent.logvar[v, k])
            )
    expected += settings.beta * kl

    total = graph_loss(graph, hidden, latent, enc, settings, links)
    assert total == pytest.approx(expected, abs=1e-10)


# ------------------------------------------------------------- gradient checks

def _fd_block(value_fn, array, h=1e-6):
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = array[idx]
        array[idx] = orig + h
        up = value_fn()
        array[idx] = orig - h
        down = value_fn()
        array[idx] = orig
        grad[idx] = (up - down) / (2 * h)
    return grad


def _assert_close(analytic, fd, tol):
    denom = max(np.linalg.norm(fd), np.linalg.norm(analytic), 1e-8)
    assert np.linalg.norm(analytic - fd) / denom <= tol


@pytest.mark.parametrize("activation,beta", [("tanh", 0.0), ("tanh", 0.05), ("relu", 0.02)])
def test_encoder_gradients_match_finite_differences(activation, beta):
    rng = np.random.default_rng(57)
    settings = AttackSettings(
        d_feat=4, d_z=3, hidden_dims=(5, 3), psi_hidden=4, activation=activation,
        beta=beta, d_thresh_percentile=90.0,
    )
    for trial in range(4):
        graph, _, _ = _random_graph(int(rng.integers(3, 5)), rng, settings=settings)
        enc = init_encoder(graph, settings, RngStream(100 + trial, "atk"))
        links = sample_links(graph, settings, RngStream(200 + trial, "atk"))
        eps = None
        if beta > 0:
            eps = np.random.default_rng(trial).normal(size=(graph.node_count, settings.d_z))
        loss, grads = loss_and_grads(graph, enc, settings, links, eps)
        assert loss == pytest.approx(_loss_value(graph, enc, settings, links, eps), abs=1e-12)

        value = lambda: _loss_value(graph, enc, settings, links, eps)
        for analytic, param in zip(grads.blocks(), enc.blocks()):
            assert analytic.shape == param.shape
            _assert_close(analytic, _fd_block(value, param), 1e-4)


@pytest.mark.parametrize("noisy", [True, False])
def test_encoder_gradients_hold_no_logvar_term_where_the_bound_binds(noisy):
    # A logvar head that puts every node of latent column 0 above
    # LOGVAR_MAX, column 1 above it on some nodes only, and leaves
    # column 2 below it; every entry is at least 2 from the bound, far
    # beyond what a finite-difference step moves it.
    settings = AttackSettings(
        d_feat=4, d_z=3, hidden_dims=(5, 6), psi_hidden=4, beta=0.05, d_thresh_percentile=90.0,
    )
    graph, _, _ = _random_graph(5, np.random.default_rng(60), settings=settings)
    enc = init_encoder(graph, settings, RngStream(12, "atk"))
    links = sample_links(graph, settings, RngStream(13, "atk"))
    eps = np.random.default_rng(14).normal(size=(5, settings.d_z)) * 0.01 if noisy else None
    hidden, _ = encode(graph, enc, settings)
    raw = np.column_stack([
        [14.0, 16.0, 13.0, 15.0, 12.0], [13.0, -1.0, 14.5, 0.5, -2.0], [1.0, -3.0, 0.0, 2.0, -1.0],
    ])
    enc.logvar_head[...] = np.linalg.lstsq(hidden, raw, rcond=None)[0]
    np.testing.assert_allclose(hidden @ enc.logvar_head, raw, atol=1e-9)
    _, latent = encode(graph, enc, settings, eps)
    np.testing.assert_array_equal(latent.logvar, np.minimum(hidden @ enc.logvar_head, LOGVAR_MAX))

    _, grads = loss_and_grads(graph, enc, settings, links, eps)
    value = lambda: _loss_value(graph, enc, settings, links, eps)
    # Only the bound entries reach column 0, so nothing flows into it.
    assert not grads.logvar_head[:, 0].any()
    np.testing.assert_array_equal(_fd_block(value, enc.logvar_head)[:, 0], 0.0)
    assert grads.logvar_head[:, 1:].all()
    for analytic, param in zip(grads.blocks(), enc.blocks()):
        _assert_close(analytic, _fd_block(value, param), 1e-4)


def test_surrogate_gradient_matches_finite_differences():
    rng = np.random.default_rng(58)
    for _ in range(100):
        k = int(rng.integers(2, 7))
        d_z, dim = int(rng.integers(2, 5)), int(rng.integers(2, 8))
        z_a = rng.normal(size=d_z)
        benign_z = rng.normal(size=(k, d_z))
        benign_models = rng.normal(size=(k, dim))
        ascent = rng.normal(size=dim)
        ascent /= np.linalg.norm(ascent)
        [grad] = surrogate_gradient(z_a[None], benign_z[None], benign_models @ ascent)
        fd = _fd_block(
            lambda: surrogate_objective(z_a, benign_z, benign_models, ascent), z_a
        )
        _assert_close(grad, fd, 1e-4)


def test_surrogate_of_a_row_that_underflows_mixes_no_model():
    # Every decoded weight of this latent underflows to 0: the objective
    # divides by 1 as the gradient does, and the gradient is 0.
    z_a = np.array([-500.0, -500.0])
    benign_z = np.array([[1.0, 1.0], [1.0, 0.8], [0.9, 1.0]])
    benign_models = np.array([[1.0, 0.0, 2.0], [0.0, 2.0, 1.0], [3.0, 1.0, 0.0]])
    ascent = np.array([0.6, -0.8, 0.0])
    c = benign_models @ ascent
    objective = surrogate_objective(z_a, benign_z, benign_models, ascent)
    assert math.isfinite(objective) and objective == -c.mean()
    with np.errstate(all="ignore"):
        [grad] = surrogate_gradient(z_a[None], benign_z[None], c)
    np.testing.assert_array_equal(grad, np.zeros(2))


# ------------------------------------------------------------------ train_gae

@pytest.mark.parametrize("k", [1, 2, 3])
def test_train_gae_zero_epochs_returns_initialization(k):
    rng = np.random.default_rng(59)
    settings = AttackSettings(
        d_feat=4, d_z=3, hidden_dims=(5, 3), psi_hidden=4, gae_epochs=0,
        d_thresh_percentile=90.0,
    )
    graph, _, _ = _random_graph(4, rng, settings=settings)
    results = train_gae(graph, settings, [RngStream(77, f"atk-{j}") for j in range(k)])
    assert len(results) == k
    for j, result in enumerate(results):
        reference = init_encoder(graph, settings, RngStream(77, f"atk-{j}"))
        assert len(result.encoder.blocks()) == len(reference.blocks())
        for got, want in zip(result.encoder.blocks(), reference.blocks()):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)
        assert len(result.loss_trace) == 1


@pytest.mark.parametrize("hidden_dims", [(5,), (5, 3), (7, 4, 2)])
def test_init_encoder_draws_each_weight_uniform_within_its_fan_bound(hidden_dims):
    """The draws of per-block rng.uniform(-b, b) calls in blocks() order,
    psi_w2 as a (psi_hidden, 1) matrix, with zero biases."""
    settings = AttackSettings(
        d_feat=4, d_z=3, hidden_dims=hidden_dims, psi_hidden=6, d_thresh_percentile=90.0,
    )
    graph, _, _ = _random_graph(5, np.random.default_rng(61), settings=settings)
    enc = init_encoder(graph, settings, RngStream(78, "atk"))
    gen = RngStream(78, "atk").gen

    def uniform(fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return gen.uniform(-bound, bound, size=(fan_in, fan_out))

    dims = [4, *hidden_dims]
    want_layers = [uniform(a, b) for a, b in zip(dims, dims[1:])]
    want = [
        *want_layers, uniform(dims[-1], 3), uniform(dims[-1], 3), uniform(dims[-1], 6),
        np.zeros(6), uniform(6, 1)[:, 0], np.zeros(()),
    ]
    assert len(enc.layer_weights) == len(hidden_dims)
    for got, expected in zip(enc.blocks(), want, strict=True):
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_train_gae_descends_and_is_deterministic():
    rng = np.random.default_rng(60)
    graph, _, _ = _random_graph(6, rng)
    settings = AttackSettings(
        d_feat=4, d_z=3, hidden_dims=(5, 3), psi_hidden=4, gae_epochs=40,
        d_thresh_percentile=90.0,
    )
    [a] = train_gae(graph, settings, [RngStream(5, "atk")])
    [b] = train_gae(graph, settings, [RngStream(5, "atk")])
    assert a.loss_trace[-1] <= a.loss_trace[0]
    assert a.loss_trace == b.loss_trace
    for wa, wb in zip(a.encoder.blocks(), b.encoder.blocks()):
        np.testing.assert_array_equal(wa, wb)
    # The returned latent and final loss are those of the trained weights.
    links, eps = _objective_of(graph, settings, RngStream(5, "atk"))
    _, latent = encode(graph, a.encoder, settings, eps=eps)
    np.testing.assert_array_equal(a.latent.z, latent.z)
    assert a.loss_trace[-1] == _loss_value(graph, a.encoder, settings, links, eps)


def test_train_gae_one_epoch_steps_every_block():
    rng = np.random.default_rng(75)
    settings = AttackSettings(
        d_feat=4, d_z=3, hidden_dims=(5, 3), psi_hidden=4, gae_epochs=1,
        d_thresh_percentile=90.0,
    )
    graph, _, _ = _random_graph(5, rng, settings=settings)
    [trained] = train_gae(graph, settings, [RngStream(14, "atk")])
    start = init_encoder(graph, settings, RngStream(14, "atk"))
    links, eps = _objective_of(graph, settings, RngStream(14, "atk"))
    _, grads = loss_and_grads(graph, start, settings, links, eps)
    # blocks() lists each layer weight plus every other field once.
    assert len(start.blocks()) == len(start.layer_weights) + len(vars(start)) - 1
    for after, before, g in zip(trained.encoder.blocks(), start.blocks(), grads.blocks()):
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(after, before - settings.gae_learning_rate * g)


def test_train_gae_divergence_suggests_smaller_lr():
    rng = np.random.default_rng(61)
    graph, _, _ = _random_graph(5, rng)
    settings = AttackSettings(
        d_feat=4, d_z=3, hidden_dims=(5, 3), psi_hidden=4, gae_epochs=200,
        gae_learning_rate=1e6, d_thresh_percentile=90.0,
    )
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        StackFailure, match="reduce gae_learning_rate"
    ):
        train_gae(graph, settings, [RngStream(6, "atk")])


def test_train_gae_checks_the_loss_at_the_trained_weights():
    # This training first diverges at the loss after its 22nd step: with
    # 22 epochs that is the loss at the trained weights, which no step
    # follows, and it must fail the same way as it does inside a longer run.
    rng = np.random.default_rng(17)
    models = [rng.normal(size=6) for _ in range(4)]
    graph = build_graph(models, rng.normal(size=6), Projector.random(6, 4, RngStream(1, "proj")))
    settings = AttackSettings(
        d_feat=4, d_z=3, hidden_dims=(5, 3), psi_hidden=4, gae_learning_rate=64.0,
    )
    for epochs in (200, 22):
        with pytest.raises(StackFailure, match=r"loss 7\.446e\+06 at epoch 22\)"):
            train_gae(graph, settings.replace(gae_epochs=epochs), [RngStream(5, "attacker")])
    [result] = train_gae(graph, settings.replace(gae_epochs=21), [RngStream(5, "attacker")])
    assert max(result.loss_trace) <= DIVERGENCE_LIMIT


# ---------------------------------------------------------- train_gae stacked

def _reference_train(graph, settings, rng):
    """One attacker's training as plain 2-D numpy, one operation at a time:
    the per-attacker loop the stacked trainer must match bit for bit.
    Returns the weights, the loss trace and the final latent z."""
    enc = init_encoder(graph, settings, rng)
    links = sample_links(graph, settings, rng)
    eps = None
    if settings.beta > 0:
        eps = rng.gen.standard_normal((graph.node_count, settings.d_z))
    ahat = graph.adjacency / graph.adjacency.sum(axis=1, keepdims=True)
    tanh = settings.activation == "tanh"

    def sig(x):
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-x))

    def neglog_sig(x):
        return np.logaddexp(0.0, -np.clip(x, -LOGIT_CLAMP, LOGIT_CLAMP))

    def forward():
        hiddens, mids, pres = [graph.features], [], []
        for w in enc.layer_weights:
            mids.append(hiddens[-1] + ahat @ hiddens[-1])
            pres.append(mids[-1] @ w)
            hiddens.append(np.tanh(pres[-1]) if tanh else np.maximum(pres[-1], 0.0))
        mu, logvar_raw = hiddens[-1] @ enc.mu_head, hiddens[-1] @ enc.logvar_head
        logvar = np.minimum(logvar_raw, LOGVAR_MAX)
        std = None if eps is None else np.exp(0.5 * logvar)
        z = mu if eps is None else mu + std * eps
        return hiddens, mids, pres, mu, logvar, std, z, logvar_raw < LOGVAR_MAX

    def loss(hidden, mu, logvar, z):
        s = z @ z.T
        total = float(np.sum(links.positive * neglog_sig(s) + links.negative * neglog_sig(-s)))
        h1 = np.tanh(hidden @ enc.psi_w1 + enc.psi_b1)
        total += float(neglog_sig(h1 @ enc.psi_w2 + enc.psi_b2).sum())
        if settings.beta > 0:
            kl = float(-0.5 * np.sum(1.0 + logvar - mu * mu - np.exp(logvar)))
            total += settings.beta * kl
        return total

    trace = []
    for _ in range(settings.gae_epochs):
        hiddens, mids, pres, mu, logvar, std, z, logvar_free = forward()
        hidden = hiddens[-1]
        trace.append(loss(hidden, mu, logvar, z))
        s = z @ z.T
        active = np.abs(s) < LOGIT_CLAMP
        coeff = np.where(active, links.negative * sig(s) - links.positive * sig(-s), 0.0)
        gz = coeff @ z + coeff.T @ z
        h1 = np.tanh(hidden @ enc.psi_w1 + enc.psi_b1)
        t = h1 @ enc.psi_w2 + enc.psi_b2
        gt = np.where(np.abs(t) < LOGIT_CLAMP, -sig(-t), 0.0)
        g_psi_w2 = h1.T @ gt
        g_psi_b2 = np.array(gt.sum())
        gs1 = (gt[:, None] * enc.psi_w2[None, :]) * (1.0 - h1 * h1)
        g_psi_w1 = hidden.T @ gs1
        g_psi_b1 = gs1.sum(axis=0)
        g_hidden_psi = gs1 @ enc.psi_w1.T
        gmu = gz.copy()
        glogvar = np.zeros_like(logvar)
        if eps is not None:
            glogvar += gz * eps * 0.5 * std
        if settings.beta > 0:
            gmu += settings.beta * mu
            glogvar += settings.beta * 0.5 * (np.exp(logvar) - 1.0)
        glogvar = np.where(logvar_free, glogvar, 0.0)
        g_heads = [hidden.T @ gmu, hidden.T @ glogvar]
        g = gmu @ enc.mu_head.T + glogvar @ enc.logvar_head.T + g_hidden_psi
        g_layers = [None] * len(enc.layer_weights)
        for l in range(len(enc.layer_weights) - 1, -1, -1):
            act_grad = 1.0 - hiddens[l + 1] ** 2 if tanh else (pres[l] > 0).astype(float)
            gs = g * act_grad
            g_layers[l] = mids[l].T @ gs
            gmid = gs @ enc.layer_weights[l].T
            g = gmid + ahat.T @ gmid
        grads = [*g_layers, *g_heads, g_psi_w1, g_psi_b1, g_psi_w2, g_psi_b2]
        for p, gp in zip(enc.blocks(), grads):
            p -= settings.gae_learning_rate * gp
    hiddens, _, _, mu, logvar, _, z, _ = forward()
    trace.append(loss(hiddens[-1], mu, logvar, z))
    return enc, trace, z


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("beta", [0.0, 0.001])
def test_train_gae_stack_matches_per_attacker_loop_bit_for_bit(k, activation, beta):
    settings = AttackSettings(
        d_feat=5, d_z=4, hidden_dims=(9, 6), psi_hidden=3, activation=activation,
        beta=beta, gae_epochs=25, gae_learning_rate=0.02, d_thresh_percentile=90.0,
    )
    graph, _, _ = _random_graph(7, np.random.default_rng(90 + k), settings=settings)
    streams = [RngStream(k, f"attacker-{j}") for j in range(k)]
    stacked = train_gae(graph, settings, streams)
    assert len(stacked) == k
    for j, got in enumerate(stacked):
        assert isinstance(got, GaeTrainResult)
        enc, trace, z = _reference_train(graph, settings, RngStream(k, f"attacker-{j}"))
        for got_block, want_block in zip(got.encoder.blocks(), enc.blocks()):
            np.testing.assert_array_equal(got_block, want_block)
        np.testing.assert_array_equal(got.loss_trace[0], trace[0])
        np.testing.assert_array_equal(got.loss_trace[-1], trace[-1])
        np.testing.assert_array_equal(got.latent.z, z)


def _outcome_of(fn):
    """fn's result, or the failure it raised."""
    try:
        return fn()
    except (FloatingPointError, StackFailure) as exc:
        return exc


def test_train_gae_stack_stops_at_the_first_divergence():
    # At this learning rate two of the four encoders, each trained alone,
    # diverge, at epochs 4 and 9, and two train through; the stack stops
    # at the earliest epoch and names the lowest encoder that diverges there.
    rng = np.random.default_rng(5)
    settings = AttackSettings(
        d_feat=4, d_z=3, hidden_dims=(5, 3), psi_hidden=4, gae_epochs=30,
        gae_learning_rate=48.0, d_thresh_percentile=90.0,
    )
    graph, _, _ = _random_graph(6, rng, settings=settings)
    streams = lambda: [RngStream(5, f"a{j}") for j in range(4)]
    with np.errstate(over="ignore", invalid="ignore"):
        alone = [_outcome_of(lambda r=r: train_gae(graph, settings, [r])[0]) for r in streams()]
        with pytest.raises(StackFailure) as stacked:
            train_gae(graph, settings, streams())
    epochs = {
        j: int(re.search(r" at epoch (\d+)\)", str(o)).group(1))
        for j, o in enumerate(alone) if isinstance(o, Exception)
    }
    assert len(set(epochs.values())) >= 2 and len(epochs) < len(alone)
    first = min(epochs, key=lambda j: (epochs[j], j))
    assert stacked.value.index == first
    assert str(stacked.value) == str(alone[first])


def test_train_gae_stack_nonfinite_hidden_names_the_first_layer_and_encoder():
    # Features near the float64 limit overflow the relu layers of some
    # encoders only, at layer 1 or 2 depending on their weights, in the
    # first forward pass; the stack names the lowest layer, then the
    # lowest encoder.
    features = np.abs(np.random.default_rng(5).normal(size=(4, 4))) * 5e307
    graph = ModelGraph(adjacency=np.eye(4), features=features, raw_models=np.zeros((4, 6)))
    settings = AttackSettings(
        d_feat=4, d_z=3, hidden_dims=(5, 3), psi_hidden=4, gae_epochs=5,
        activation="relu", beta=0.0, d_thresh_percentile=90.0,
    )
    streams = lambda: [RngStream(5, f"a{j}") for j in range(4)]

    def alone(settings):
        return [_outcome_of(lambda r=r: train_gae(graph, settings, [r])[0]) for r in streams()]

    with np.errstate(over="ignore", invalid="ignore"):
        trained, untrained = alone(settings), alone(settings.replace(gae_epochs=0))
        with pytest.raises(StackFailure) as stacked:
            train_gae(graph, settings, streams())
    failures = {j: str(o) for j, o in enumerate(trained) if isinstance(o, Exception)}
    assert set(failures.values()) == {
        "non-finite hidden state at layer 1", "non-finite hidden state at layer 2"
    }
    assert len(failures) < len(trained)
    # Every failure is at epoch 0: with gae_epochs=0 the same encoders fail the same way.
    assert failures == {j: str(o) for j, o in enumerate(untrained) if isinstance(o, Exception)}
    first = min(failures, key=lambda j: (int(failures[j].split()[-1]), j))
    assert stacked.value.index == first
    assert str(stacked.value) == failures[first]


# ------------------------------------------------- ascent direction & readout

def test_ascent_direction_zero_when_stationary():
    g = np.array([1.0, 2.0])
    np.testing.assert_array_equal(
        estimate_ascent_direction(g, [g.copy(), g.copy()]), np.zeros(2)
    )


def test_ascent_direction_unit_opposite_motion():
    prev = np.zeros(2)
    overheard = [np.array([0.0, 2.0])]
    np.testing.assert_allclose(
        estimate_ascent_direction(prev, overheard), np.array([0.0, -1.0]), atol=1e-15
    )


def test_ascent_direction_mean_subtract_oracle():
    rng = np.random.default_rng(62)
    overheard = [rng.normal(size=5) for _ in range(5)]
    prev = rng.normal(size=5)
    moved = sum(overheard) / 5 - prev
    expected = -moved / np.linalg.norm(moved)
    np.testing.assert_allclose(
        estimate_ascent_direction(prev, overheard), expected, atol=1e-12
    )
    with pytest.raises(ValueError, match="1-D"):
        estimate_ascent_direction(np.stack([prev, prev]), overheard)
    with pytest.raises(ValueError):
        estimate_ascent_direction(prev, [])


def test_adversarial_reconstruct_zero_ascent_is_unperturbed_decode():
    rng = np.random.default_rng(63)
    graph, _, _ = _random_graph(5, rng)
    enc = train_gae(graph, SMALL, [RngStream(8, "atk")])[0].encoder
    _, latent = encode(graph, enc, SMALL, eps=None)
    expected = expit(latent.z[:-1] @ latent.z[-1])
    [row] = adversarial_reconstruct(graph, [latent], np.zeros(6), SMALL)
    np.testing.assert_allclose(row, expected, atol=1e-15)
    assert ((row > 0) & (row < 1)).all()


def test_adversarial_reconstruct_zero_step_size_is_unperturbed():
    rng = np.random.default_rng(64)
    graph, _, _ = _random_graph(4, rng)
    settings = AttackSettings(
        d_feat=4, d_z=3, hidden_dims=(5, 3), psi_hidden=4, ascent_steps=1,
        ascent_step_size=0.0, d_thresh_percentile=90.0,
    )
    enc = train_gae(graph, settings, [RngStream(10, "atk")])[0].encoder
    _, latent = encode(graph, enc, settings, eps=None)
    ascent = rng.normal(size=6)
    ascent /= np.linalg.norm(ascent)
    [row] = adversarial_reconstruct(graph, [latent], ascent, settings)
    np.testing.assert_allclose(row, expit(latent.z[:-1] @ latent.z[-1]), atol=1e-15)


def _reference_ascent(graph, z, ascent, settings):
    """One attacker's latent ascent as plain 1-D numpy: the loop the
    stacked ascent must match bit for bit. A decoded row that sums to
    zero takes no step."""

    def sig(x):
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-x))

    benign_z, benign_models, z_a = z[:-1], graph.raw_models[:-1], z[-1].copy()
    for step in range(settings.ascent_steps):
        a = sig(benign_z @ z_a)
        asum = a.sum()
        if asum == 0:
            continue
        c = benign_models @ ascent
        mix = (a @ c) / asum
        z_a = z_a + settings.ascent_step_size * (((c - mix) / asum * a * (1.0 - a)) @ benign_z)
        if not np.isfinite(z_a).all():
            raise FloatingPointError(f"non-finite ascent state at step {step}")
    return sig(benign_z @ z_a)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_adversarial_reconstruct_stack_matches_per_attacker_loop_bit_for_bit(k):
    rng = np.random.default_rng(70 + k)
    settings = AttackSettings(
        d_feat=4, d_z=3, hidden_dims=(5, 3), psi_hidden=4, gae_epochs=20,
        gae_learning_rate=0.01, ascent_steps=30, ascent_step_size=0.5,
        d_thresh_percentile=90.0,
    )
    graph, _, _ = _random_graph([6, 23, 40][k - 1], rng, settings=settings)
    latents = [t.latent for t in train_gae(
        graph, settings, [RngStream(k, f"attacker-{j}") for j in range(k)]
    )]
    ascent = rng.normal(size=6)
    ascent /= np.linalg.norm(ascent)
    rows = adversarial_reconstruct(graph, latents, ascent, settings)
    assert len(rows) == k
    for row, latent in zip(rows, latents):
        np.testing.assert_array_equal(row, _reference_ascent(graph, latent.z, ascent, settings))
        [alone] = adversarial_reconstruct(graph, [latent], ascent, settings)
        np.testing.assert_array_equal(row, alone)


@pytest.mark.parametrize("seed,scale,step_size,message", [
    (35, 1e305, 0.1, "non-finite ascent state at step 0"),
    (5, 1e150, 1e140, None),
])
def test_adversarial_reconstruct_stack_failure_stays_with_its_attacker(
    seed, scale, step_size, message
):
    # Huge benign models make one of three ascents overflow, and the stack
    # stops at that step and names that latent; or they underflow every
    # decoded weight of one to zero by step 1 (message None), and that
    # latent stays put while the stack completes. Either way every other
    # latent, run alone, ascends through.
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(6, 5)) * scale
    graph = ModelGraph(adjacency=np.eye(6), features=np.zeros((6, 2)), raw_models=raw)
    latents = [LatentState(mu=None, logvar=None, z=rng.normal(size=(6, 3)) * 3) for _ in range(3)]
    ascent = rng.normal(size=5)
    ascent /= np.linalg.norm(ascent)
    settings = AttackSettings(
        ascent_steps=30, ascent_step_size=step_size, d_thresh_percentile=90.0
    )
    with np.errstate(all="ignore"):
        reference = [
            _outcome_of(lambda l=l: _reference_ascent(graph, l.z, ascent, settings))
            for l in latents
        ]
        alone = [
            _outcome_of(lambda l=l: adversarial_reconstruct(graph, [l], ascent, settings)[0])
            for l in latents
        ]
        if message is None:
            rows = adversarial_reconstruct(graph, latents, ascent, settings)
            after_one = adversarial_reconstruct(
                graph, latents, ascent, settings.replace(ascent_steps=1)
            )
        else:
            with pytest.raises(StackFailure) as stacked:
                adversarial_reconstruct(graph, latents, ascent, settings)
    if message is None:
        [stuck] = [j for j, row in enumerate(rows) if not row.any()]
        assert not after_one[stuck].any()
        for row, one, want in zip(rows, alone, reference):
            np.testing.assert_array_equal(row, want)
            np.testing.assert_array_equal(one, want)
        return
    [failing] = [j for j, o in enumerate(reference) if isinstance(o, Exception)]
    assert str(reference[failing]) == message
    assert stacked.value.index == failing and str(stacked.value) == message
    for j, (one, want) in enumerate(zip(alone, reference)):
        if j == failing:
            assert isinstance(one, StackFailure) and str(one) == message
        else:
            np.testing.assert_array_equal(one, want)


def test_ascent_steps_monotone_objective():
    rng = np.random.default_rng(65)
    graph, _, _ = _random_graph(3, rng)
    enc = train_gae(graph, SMALL, [RngStream(12, "atk")])[0].encoder
    _, latent = encode(graph, enc, SMALL, eps=None)
    ascent = rng.normal(size=6)
    ascent /= np.linalg.norm(ascent)
    z = latent.z[-1].copy()
    benign_z, benign_models = latent.z[:-1], graph.raw_models[:-1]
    previous = surrogate_objective(z, benign_z, benign_models, ascent)
    for _ in range(25):
        z = z + 0.01 * surrogate_gradient(z[None], benign_z[None], benign_models @ ascent)[0]
        current = surrogate_objective(z, benign_z, benign_models, ascent)
        assert current >= previous - 1e-12
        previous = current


def test_decoded_adjacency_from_symmetric_latents_is_symmetric():
    rng = np.random.default_rng(66)
    graph, _, _ = _random_graph(5, rng)
    enc = train_gae(graph, SMALL, [RngStream(13, "atk")])[0].encoder
    _, latent = encode(graph, enc, SMALL, eps=None)
    decoded = expit(latent.z @ latent.z.T)
    np.testing.assert_allclose(decoded, decoded.T, atol=1e-12)
    assert ((decoded > 0) & (decoded < 1)).all()


# ---------------------------------------------------------- generate_malicious

def test_generate_malicious_uniform_row_zero_ascent_is_centroid():
    rng = np.random.default_rng(67)
    models = [rng.normal(size=5) for _ in range(5)]
    settings = AttackSettings(d_thresh_percentile=100.0, d_thresh_value=None)
    omega = generate_malicious(
        np.full(5, 0.3), models, np.zeros(5), resolve_threshold(settings, models),
        AttackDiagnostics(),
    )
    centroid = np.mean(np.stack(models), axis=0)
    np.testing.assert_allclose(omega, centroid, atol=1e-12)
    pairwise_max = max(
        np.linalg.norm(a - b) for a in models for b in models
    )
    assert max(np.linalg.norm(omega - m) for m in models) <= pairwise_max + 1e-12


def test_generate_malicious_single_model_mixture_degenerates():
    model = np.array([1.0, -2.0, 3.0])
    settings = AttackSettings(d_thresh_mode="absolute", d_thresh_value=0.5)
    omega = generate_malicious(
        np.array([0.42]), [model], np.zeros(3), resolve_threshold(settings, [model]),
        AttackDiagnostics(),
    )
    np.testing.assert_allclose(omega, model, atol=1e-12)


def test_generate_malicious_hull_containment_of_mixture():
    rng = np.random.default_rng(68)
    for _ in range(50):
        models = [rng.normal(size=4) for _ in range(5)]
        row = rng.uniform(0.01, 1.0, size=5)
        thresh = resolve_threshold(AttackSettings(d_thresh_percentile=100.0), models)
        omega = generate_malicious(row, models, np.zeros(4), thresh, AttackDiagnostics())
        stacked = np.stack(models)
        assert (omega >= stacked.min(axis=0) - 1e-12).all()
        assert (omega <= stacked.max(axis=0) + 1e-12).all()


def test_generate_malicious_constraint_on_1000_random_trials():
    rng = np.random.default_rng(69)
    settings = AttackSettings(d_thresh_percentile=90.0)
    for _ in range(1000):
        models = [rng.normal(size=6) for _ in range(5)]
        row = rng.uniform(0.0, 1.0, size=5)
        ascent = rng.normal(size=6)
        ascent /= np.linalg.norm(ascent)
        diag = AttackDiagnostics()
        omega = generate_malicious(
            row, models, ascent, resolve_threshold(settings, models), diag=diag
        )
        worst = max(np.linalg.norm(omega - m) for m in models)
        assert worst <= diag.d_thresh + 1e-9
        assert diag.constraint_ok


def test_generate_malicious_zero_rowsum_falls_back_to_uniform():
    rng = np.random.default_rng(70)
    models = [rng.normal(size=3) for _ in range(4)]
    diag = AttackDiagnostics()
    omega = generate_malicious(
        np.zeros(4), models, np.zeros(3),
        resolve_threshold(AttackSettings(d_thresh_percentile=100.0), models), diag=diag,
    )
    np.testing.assert_allclose(omega, np.mean(np.stack(models), axis=0), atol=1e-12)
    assert diag.uniform_fallback


def test_generate_malicious_centroid_pull_when_mixture_violates():
    # Collinear models at -1, 0, 1; the row concentrates on the outlier so
    # the raw mixture sits at 1.0 with worst-case distance 2 > 1.2; pulling
    # toward the centroid stops as soon as the constraint holds (at 0.2).
    models = [np.array([-1.0]), np.array([0.0]), np.array([1.0])]
    settings = AttackSettings(d_thresh_mode="absolute", d_thresh_value=1.2)
    diag = AttackDiagnostics()
    omega = generate_malicious(
        np.array([0.0, 0.0, 1.0]), models, np.zeros(1), resolve_threshold(settings, models),
        diag=diag,
    )
    assert omega[0] == pytest.approx(0.2, abs=1e-6)
    assert diag.gamma_model == 0.0
    assert diag.centroid_pull == pytest.approx(0.8, abs=1e-6)
    assert diag.constraint_ok


def test_resolve_threshold_modes():
    models = [np.array([0.0, 0.0]), np.array([3.0, 4.0]), np.array([0.0, 1.0])]
    absolute = AttackSettings(d_thresh_mode="absolute", d_thresh_value=2.5)
    assert resolve_threshold(absolute, models) == 2.5
    percentile = AttackSettings(d_thresh_percentile=100.0)
    assert resolve_threshold(percentile, models) == pytest.approx(5.0)


def _percentile_cases(rng):
    """Model sets: random ones of 2-11 models at scales 1e-3 to 1e3, two
    models (one distance), sets whose distances tie (repeated models,
    unit-square corners), and one with a NaN model."""
    for trial in range(150):
        n, scale = int(rng.integers(2, 12)), 10.0 ** rng.uniform(-3, 3)
        yield list(rng.normal(size=(n, int(rng.integers(1, 8)))) * scale)
        yield list(rng.normal(size=(2, 3)) * scale)
        base = rng.normal(size=(int(rng.integers(1, 4)), 3)) * scale
        yield list(base[rng.integers(len(base), size=int(rng.integers(2, 9)))])
    yield [np.array(c, dtype=float) for c in ((0, 0), (0, 1), (1, 0), (1, 1))]
    # NaN distances sort last and make every percentile NaN.
    yield [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 2.0]), np.full(2, np.nan)]


def test_resolve_threshold_is_np_percentile_bit_for_bit():
    rng = np.random.default_rng(71)
    for models in _percentile_cases(rng):
        stacked = np.stack(models)
        pairwise = np.linalg.norm(stacked[:, None, :] - stacked[None, :, :], axis=-1)
        upper = pairwise[np.triu_indices(len(models), k=1)]
        for q in (1e-3, 50.0, 90.0, 100.0, float(rng.uniform(0.0, 100.0))):
            got = resolve_threshold(AttackSettings(d_thresh_percentile=q), models)
            assert got.hex() == float(np.percentile(upper, q)).hex(), (len(models), q)


def _bisect(ok, good, bad, tol=1e-10):
    while abs(bad - good) > tol:
        mid = 0.5 * (good + bad)
        good, bad = (mid, bad) if ok(mid) else (good, mid)
    return good


def _farthest(v, models):
    return float(np.sqrt(((models - v) ** 2).sum(axis=1)).max())


def _mixture(row, models):
    if row.sum() > 0:
        return row / row.sum() @ models
    return models.mean(axis=0)


def _bisected_projection(row, models, ascent, thresh):
    """Reference (gamma, pull_t, constraint_ok) of generate_malicious by
    bisection to 1e-10 along the push and along the pull."""
    raw = _mixture(row, models)

    def ok(v):
        return _farthest(v, models) <= thresh

    gamma = pull = 0.0
    if ok(raw):
        if np.linalg.norm(ascent) > 0:
            if ok(raw + thresh * ascent):
                gamma = thresh
            else:
                gamma = _bisect(lambda g: ok(raw + g * ascent), 0.0, thresh)
        omega = raw + gamma * ascent
    else:
        centroid = models.mean(axis=0)
        pull = 1.0
        if ok(centroid):
            pull = _bisect(lambda t: ok((1.0 - t) * raw + t * centroid), 1.0, 0.0)
        omega = (1.0 - pull) * raw + pull * centroid
    return gamma, pull, _farthest(omega, models) <= thresh + 1e-9 * max(1.0, thresh)


def _projection_trials(rng, count):
    """Rows, models, ascents and radii that reach every branch: pushes
    that stop at a root, zero ascents, models on a line with the ascent
    along it, zero rows, and mixtures outside the ball whose centroid is
    inside or outside."""
    for trial in range(count):
        n, dim = int(rng.integers(2, 9)), int(rng.integers(1, 7))
        scale = [0.1, 1.0, 10.0][trial % 3]
        models = rng.normal(size=(n, dim)) * scale
        ascent = rng.normal(size=dim)
        kind = trial % 6
        if kind == 1:
            ascent = np.zeros(dim)
        elif kind == 2:
            models = rng.normal(size=n)[:, None] * ascent * scale
            ascent = ascent * rng.choice([-1.0, 1.0])
        ascent = ascent / (np.linalg.norm(ascent) or 1.0)
        row = rng.dirichlet(np.full(n, [0.1, 1.0][trial % 2]))
        if kind == 3:
            row = np.zeros(n)
        q = float(rng.choice([1e-3, 10.0, 50.0, 90.0, 100.0]))
        thresh = resolve_threshold(AttackSettings(d_thresh_percentile=q), list(models))
        if kind == 4:
            thresh *= float(rng.uniform(0.2, 0.6))
        yield row, models, ascent, thresh


def test_closed_form_projection_matches_bisection_and_is_maximal():
    rng = np.random.default_rng(72)
    pushes = pulls = 0
    for row, models, ascent, thresh in _projection_trials(rng, 1200):
        diag = AttackDiagnostics()
        generate_malicious(row, list(models), ascent, thresh, diag=diag)
        gamma, pull, constraint_ok = _bisected_projection(row, models, ascent, thresh)
        assert abs(diag.gamma_model - gamma) <= 2e-9
        assert abs(diag.centroid_pull - pull) <= 2e-9
        assert diag.constraint_ok == constraint_ok
        raw = _mixture(row, models)
        if 0 < diag.gamma_model < thresh:
            pushes += 1
            assert _farthest(raw + (diag.gamma_model + 1e-8 * thresh) * ascent, models) > thresh
        if 0 < diag.centroid_pull < 1:
            pulls += 1
            t = diag.centroid_pull - 1e-8
            assert _farthest((1.0 - t) * raw + t * models.mean(axis=0), models) > thresh
    assert pushes > 300 and pulls > 60


def test_constraint_ok_slack_scales_with_the_radius():
    # At model scale 1e8 the radius is about 1e9, where one ulp of a
    # distance (1.2e-7) is far above an absolute slack of 1e-9: a push
    # that stops at its root can sit an ulp outside and still holds.
    rng = np.random.default_rng(72)
    beyond_absolute = 0
    for row, models, ascent, thresh in _projection_trials(rng, 1200):
        models, thresh = models * 1e8, thresh * 1e8
        diag = AttackDiagnostics()
        omega = generate_malicious(row, models, ascent, thresh, diag=diag)
        if 0 < diag.gamma_model < thresh:
            assert diag.constraint_ok
            beyond_absolute += _farthest(omega, models) > thresh + 1e-9
    assert beyond_absolute >= 1


def test_push_that_fits_whole_is_exactly_the_radius():
    # From (0, 0) a push of 3 along y lands 3 from one model and 1 from
    # the other, exactly on the ball's edge: gamma is the radius itself.
    models = [np.array([0.0, 0.0]), np.array([0.0, 2.0])]
    diag = AttackDiagnostics()
    omega = generate_malicious(np.array([1.0, 0.0]), models, np.array([0.0, 1.0]), 3.0, diag=diag)
    assert diag.gamma_model == 3.0 and diag.constraint_ok
    np.testing.assert_array_equal(omega, [0.0, 3.0])


# ------------------------------------------------------------------ run_attack

def _attack_inputs(rng, n_benign=5, dim=6):
    overheard = [rng.normal(size=dim) for _ in range(n_benign)]
    prev_global = rng.normal(size=dim)
    proj = Projector.random(dim, 4, RngStream(3, "proj"))
    return overheard, prev_global, proj



def test_run_attack_skips_below_two_overheard():
    rng = np.random.default_rng(71)
    overheard, prev, proj = _attack_inputs(rng, n_benign=1)
    [(params, diag)] = run_attack(overheard, prev, SMALL, [RngStream(4, "atk")], proj, [9])
    assert diag.skipped and diag.attacker_id == 9
    assert "1 overheard" in diag.skip_reason
    np.testing.assert_array_equal(params, prev)


def test_run_attack_deterministic_given_seed():
    rng = np.random.default_rng(72)
    overheard, prev, proj = _attack_inputs(rng)
    [(a, diag_a)] = run_attack(overheard, prev, SMALL, [RngStream(5, "atk")], proj, [6])
    [(b, diag_b)] = run_attack(overheard, prev, SMALL, [RngStream(5, "atk")], proj, [6])
    np.testing.assert_array_equal(a, b)
    assert diag_a.delta_g_final == diag_b.delta_g_final


def test_run_attack_beta_zero_fully_deterministic():
    rng = np.random.default_rng(73)
    overheard, prev, proj = _attack_inputs(rng)
    settings = AttackSettings(
        d_feat=4, d_z=3, hidden_dims=(5, 3), psi_hidden=4, gae_epochs=10,
        beta=0.0, d_thresh_percentile=90.0,
    )
    [(a, _)] = run_attack(overheard, prev, settings, [RngStream(6, "atk")], proj, [6])
    [(b, _)] = run_attack(overheard, prev, settings, [RngStream(6, "atk")], proj, [6])
    np.testing.assert_array_equal(a, b)


def test_run_attack_end_to_end_constraint_and_nontriviality():
    rng = np.random.default_rng(74)
    overheard, prev, proj = _attack_inputs(rng)
    [(omega, diag)] = run_attack(overheard, prev, SMALL, [RngStream(7, "atk")], proj, [6])
    worst = max(np.linalg.norm(omega - m) for m in overheard)
    assert worst <= diag.d_thresh + 1e-9
    assert diag.constraint_ok
    benign_mean = np.mean(np.stack(overheard), axis=0)
    assert np.linalg.norm(omega - benign_mean) > 1e-6
    assert diag.delta_g_final <= diag.delta_g_initial


def test_attack_settings_validation():
    with pytest.raises(ValueError, match="only read in absolute mode"):
        AttackSettings(d_thresh_value=1.0, d_thresh_percentile=90.0)
    with pytest.raises(ValueError, match="d_thresh_percentile must be in"):
        AttackSettings(d_thresh_value=None, d_thresh_percentile=None)
    with pytest.raises(ValueError, match="d_thresh_value is required in absolute mode"):
        AttackSettings(d_thresh_mode="absolute")
    with pytest.raises(ValueError, match="d_thresh_mode"):
        AttackSettings(d_thresh_mode="sideways")
    with pytest.raises(ValueError, match="ascent_steps"):
        AttackSettings(ascent_steps=0)
    with pytest.raises(ValueError, match="activation"):
        AttackSettings(activation="gelu")
    with pytest.raises(ValueError, match="hidden_dims"):
        AttackSettings(hidden_dims=())
    with pytest.raises(ValueError, match="d_thresh_value must be positive"):
        AttackSettings(d_thresh_mode="absolute", d_thresh_value=-1.0)
    assert AttackSettings(
        d_thresh_mode="absolute", d_thresh_value=0.5, d_thresh_percentile=500.0
    ).d_thresh_percentile is None


def test_model_graph_invariants_enforced():
    with pytest.raises(ValueError, match="symmetric"):
        ModelGraph(
            adjacency=np.array([[1.0, 0.5], [0.2, 1.0]]),
            features=np.zeros((2, 2)), raw_models=np.zeros((2, 2)),
        )
    with pytest.raises(ValueError, match="self-loops"):
        ModelGraph(
            adjacency=np.array([[0.5, 0.1], [0.1, 0.5]]),
            features=np.zeros((2, 2)), raw_models=np.zeros((2, 2)),
        )
    # The tolerances are absolute: numpy.allclose's default rtol of 1e-5
    # would pass the first two.
    for adjacency, message in (
        ([[1.0, 0.5], [0.500004, 1.0]], "symmetric"),
        ([[0.999995, 0.5], [0.5, 1.0]], "self-loops"),
        ([[1.0, math.nan], [math.nan, 1.0]], r"lie in \[0, 1\]"),
        ([[1.0, math.inf], [math.inf, 1.0]], r"lie in \[0, 1\]"),
        ([[1.0, -0.1], [-0.1, 1.0]], r"lie in \[0, 1\]"),
        ([[1.0, 1 + 2e-12], [1 + 2e-12, 1.0]], r"lie in \[0, 1\]"),
    ):
        with pytest.raises(ValueError, match=message):
            ModelGraph(
                adjacency=np.array(adjacency),
                features=np.zeros((2, 2)), raw_models=np.zeros((2, 2)),
            )
    # Within the tolerance passes.
    ModelGraph(
        adjacency=np.array([[1.0 - 5e-13, 0.5], [0.5 + 5e-13, 1.0 + 5e-13]]),
        features=np.zeros((2, 2)), raw_models=np.zeros((2, 2)),
    )
