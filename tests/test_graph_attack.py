import math
from dataclasses import fields

import numpy as np
import pytest
from scipy.special import expit

from edgefl.graph_attack import (
    AttackDiagnostics,
    AttackSettings,
    EncoderState,
    LatentState,
    ModelGraph,
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


def test_build_graph_attacker_node_last_and_guard():
    rng = np.random.default_rng(51)
    graph, models, prev = _random_graph(4, rng)
    np.testing.assert_array_equal(graph.raw_models[-1], prev)
    assert graph.attacker_index == 3
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
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="layer 2"):
        encode(graph, enc, settings, eps=None)


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
        grad = surrogate_gradient(z_a, benign_z, benign_models, ascent)
        fd = _fd_block(
            lambda: surrogate_objective(z_a, benign_z, benign_models, ascent), z_a
        )
        _assert_close(grad, fd, 1e-4)


# ------------------------------------------------------------------ train_gae

def test_train_gae_zero_epochs_returns_initialization():
    rng = np.random.default_rng(59)
    settings = AttackSettings(
        d_feat=4, d_z=3, hidden_dims=(5, 3), psi_hidden=4, gae_epochs=0,
        d_thresh_percentile=90.0,
    )
    graph, _, _ = _random_graph(4, rng, settings=settings)
    result = train_gae(graph, settings, RngStream(77, "atk"))
    reference = init_encoder(graph, settings, RngStream(77, "atk"))
    for got, want in zip(result.encoder.layer_weights, reference.layer_weights):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(result.encoder.mu_head, reference.mu_head)
    assert len(result.loss_trace) == 1


def test_train_gae_descends_and_is_deterministic():
    rng = np.random.default_rng(60)
    graph, _, _ = _random_graph(6, rng)
    settings = AttackSettings(
        d_feat=4, d_z=3, hidden_dims=(5, 3), psi_hidden=4, gae_epochs=40,
        d_thresh_percentile=90.0,
    )
    a = train_gae(graph, settings, RngStream(5, "atk"))
    b = train_gae(graph, settings, RngStream(5, "atk"))
    assert a.loss_trace[-1] <= a.loss_trace[0]
    assert a.loss_trace == b.loss_trace
    for wa, wb in zip(a.encoder.blocks(), b.encoder.blocks()):
        np.testing.assert_array_equal(wa, wb)
    # The returned latent and final loss are those of the trained weights.
    _, latent = encode(graph, a.encoder, settings, eps=a.eps)
    np.testing.assert_array_equal(a.latent.z, latent.z)
    assert a.loss_trace[-1] == _loss_value(graph, a.encoder, settings, a.links, a.eps)


def test_train_gae_one_epoch_steps_every_block():
    rng = np.random.default_rng(75)
    settings = AttackSettings(
        d_feat=4, d_z=3, hidden_dims=(5, 3), psi_hidden=4, gae_epochs=1,
        d_thresh_percentile=90.0,
    )
    graph, _, _ = _random_graph(5, rng, settings=settings)
    trained = train_gae(graph, settings, RngStream(14, "atk"))
    start = init_encoder(graph, settings, RngStream(14, "atk"))
    _, grads = loss_and_grads(graph, start, settings, trained.links, trained.eps)
    # blocks() lists each layer weight plus every other field once.
    assert len(start.blocks()) == len(start.layer_weights) + len(fields(EncoderState)) - 1
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
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(RuntimeError, match="gae_learning_rate"):
        train_gae(graph, settings, RngStream(6, "atk"))


# ------------------------------------------------- ascent direction & readout

def test_ascent_direction_zero_when_stationary():
    g = np.array([1.0, 2.0])
    np.testing.assert_array_equal(
        estimate_ascent_direction([g], [g.copy(), g.copy()]), np.zeros(2)
    )


def test_ascent_direction_unit_opposite_motion():
    prev = np.zeros(2)
    overheard = [np.array([0.0, 2.0])]
    np.testing.assert_allclose(
        estimate_ascent_direction([prev], overheard), np.array([0.0, -1.0]), atol=1e-15
    )


def test_ascent_direction_mean_subtract_oracle():
    rng = np.random.default_rng(62)
    overheard = [rng.normal(size=5) for _ in range(5)]
    prev = rng.normal(size=5)
    moved = sum(overheard) / 5 - prev
    expected = -moved / np.linalg.norm(moved)
    np.testing.assert_allclose(
        estimate_ascent_direction([prev, prev], overheard), expected, atol=1e-12
    )
    with pytest.raises(ValueError):
        estimate_ascent_direction([], overheard)
    with pytest.raises(ValueError):
        estimate_ascent_direction([prev], [])


def test_adversarial_reconstruct_zero_ascent_is_unperturbed_decode():
    rng = np.random.default_rng(63)
    graph, _, _ = _random_graph(5, rng)
    enc = train_gae(graph, SMALL, RngStream(8, "atk")).encoder
    _, latent = encode(graph, enc, SMALL, eps=None)
    expected = expit(latent.z[:-1] @ latent.z[-1])
    row = adversarial_reconstruct(graph, latent, np.zeros(6), SMALL)
    np.testing.assert_allclose(row, expected, atol=1e-15)
    assert ((row > 0) & (row < 1)).all()


def test_adversarial_reconstruct_zero_step_size_is_unperturbed():
    rng = np.random.default_rng(64)
    graph, _, _ = _random_graph(4, rng)
    settings = AttackSettings(
        d_feat=4, d_z=3, hidden_dims=(5, 3), psi_hidden=4, ascent_steps=1,
        ascent_step_size=0.0, d_thresh_percentile=90.0,
    )
    enc = train_gae(graph, settings, RngStream(10, "atk")).encoder
    _, latent = encode(graph, enc, settings, eps=None)
    ascent = rng.normal(size=6)
    ascent /= np.linalg.norm(ascent)
    row = adversarial_reconstruct(graph, latent, ascent, settings)
    np.testing.assert_allclose(row, expit(latent.z[:-1] @ latent.z[-1]), atol=1e-15)


def test_ascent_steps_monotone_objective():
    rng = np.random.default_rng(65)
    graph, _, _ = _random_graph(3, rng)
    enc = train_gae(graph, SMALL, RngStream(12, "atk")).encoder
    _, latent = encode(graph, enc, SMALL, eps=None)
    ascent = rng.normal(size=6)
    ascent /= np.linalg.norm(ascent)
    z = latent.z[-1].copy()
    benign_z, benign_models = latent.z[:-1], graph.raw_models[:-1]
    previous = surrogate_objective(z, benign_z, benign_models, ascent)
    for _ in range(25):
        z = z + 0.01 * surrogate_gradient(z, benign_z, benign_models, ascent)
        current = surrogate_objective(z, benign_z, benign_models, ascent)
        assert current >= previous - 1e-12
        previous = current


def test_decoded_adjacency_from_symmetric_latents_is_symmetric():
    rng = np.random.default_rng(66)
    graph, _, _ = _random_graph(5, rng)
    enc = train_gae(graph, SMALL, RngStream(13, "atk")).encoder
    _, latent = encode(graph, enc, SMALL, eps=None)
    decoded = expit(latent.z @ latent.z.T)
    np.testing.assert_allclose(decoded, decoded.T, atol=1e-12)
    assert ((decoded > 0) & (decoded < 1)).all()


# ---------------------------------------------------------- generate_malicious

def test_generate_malicious_uniform_row_zero_ascent_is_centroid():
    rng = np.random.default_rng(67)
    models = [rng.normal(size=5) for _ in range(5)]
    settings = AttackSettings(d_thresh_percentile=100.0, d_thresh_value=None)
    omega = generate_malicious(np.full(5, 0.3), models, np.zeros(5), settings)
    centroid = np.mean(np.stack(models), axis=0)
    np.testing.assert_allclose(omega, centroid, atol=1e-12)
    pairwise_max = max(
        np.linalg.norm(a - b) for a in models for b in models
    )
    assert max(np.linalg.norm(omega - m) for m in models) <= pairwise_max + 1e-12


def test_generate_malicious_single_model_mixture_degenerates():
    model = np.array([1.0, -2.0, 3.0])
    settings = AttackSettings(d_thresh_value=0.5, d_thresh_percentile=None)
    omega = generate_malicious(np.array([0.42]), [model], np.zeros(3), settings)
    np.testing.assert_allclose(omega, model, atol=1e-12)


def test_generate_malicious_hull_containment_of_mixture():
    rng = np.random.default_rng(68)
    for _ in range(50):
        models = [rng.normal(size=4) for _ in range(5)]
        row = rng.uniform(0.01, 1.0, size=5)
        omega = generate_malicious(row, models, np.zeros(4),
                                   AttackSettings(d_thresh_percentile=100.0))
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
        omega = generate_malicious(row, models, ascent, settings, diag=diag)
        worst = max(np.linalg.norm(omega - m) for m in models)
        assert worst <= diag.d_thresh + 1e-9
        assert diag.constraint_ok


def test_generate_malicious_zero_rowsum_falls_back_to_uniform():
    rng = np.random.default_rng(70)
    models = [rng.normal(size=3) for _ in range(4)]
    diag = AttackDiagnostics()
    omega = generate_malicious(
        np.zeros(4), models, np.zeros(3),
        AttackSettings(d_thresh_percentile=100.0), diag=diag,
    )
    np.testing.assert_allclose(omega, np.mean(np.stack(models), axis=0), atol=1e-12)
    assert diag.uniform_fallback


def test_generate_malicious_centroid_pull_when_mixture_violates():
    # Collinear models at -1, 0, 1; the row concentrates on the outlier so
    # the raw mixture sits at 1.0 with worst-case distance 2 > 1.2; pulling
    # toward the centroid stops as soon as the constraint holds (at 0.2).
    models = [np.array([-1.0]), np.array([0.0]), np.array([1.0])]
    settings = AttackSettings(d_thresh_value=1.2, d_thresh_percentile=None)
    diag = AttackDiagnostics()
    omega = generate_malicious(
        np.array([0.0, 0.0, 1.0]), models, np.zeros(1), settings, diag=diag
    )
    assert omega[0] == pytest.approx(0.2, abs=1e-6)
    assert diag.gamma_model == 0.0
    assert diag.centroid_pull == pytest.approx(0.8, abs=1e-6)
    assert diag.constraint_ok


def test_resolve_threshold_modes():
    models = [np.array([0.0, 0.0]), np.array([3.0, 4.0]), np.array([0.0, 1.0])]
    absolute = AttackSettings(d_thresh_value=2.5, d_thresh_percentile=None)
    assert resolve_threshold(absolute, models) == 2.5
    percentile = AttackSettings(d_thresh_percentile=100.0)
    assert resolve_threshold(percentile, models) == pytest.approx(5.0)


# ------------------------------------------------------------------ run_attack

def _attack_inputs(rng, n_benign=5, dim=6):
    overheard = [rng.normal(size=dim) for _ in range(n_benign)]
    prev_global = rng.normal(size=dim)
    attacker_prev = prev_global.copy()
    proj = Projector.random(dim, 4, RngStream(3, "proj"))
    return overheard, attacker_prev, [prev_global], proj


def test_run_attack_skips_below_two_overheard():
    rng = np.random.default_rng(71)
    overheard, prev, history, proj = _attack_inputs(rng, n_benign=1)
    result = run_attack(overheard, prev, history, SMALL, RngStream(4, "atk"), proj, 200, 9)
    assert result.diagnostics.skipped
    assert "1 overheard" in result.diagnostics.skip_reason
    np.testing.assert_array_equal(result.update.params, prev)
    assert result.update.device_id == 9
    assert result.update.reported_samples == 200
    assert result.update.is_malicious


def test_run_attack_deterministic_given_seed():
    rng = np.random.default_rng(72)
    overheard, prev, history, proj = _attack_inputs(rng)
    a = run_attack(overheard, prev, history, SMALL, RngStream(5, "atk"), proj, 100, 6)
    b = run_attack(overheard, prev, history, SMALL, RngStream(5, "atk"), proj, 100, 6)
    np.testing.assert_array_equal(a.update.params, b.update.params)
    assert a.diagnostics.delta_g_final == b.diagnostics.delta_g_final


def test_run_attack_beta_zero_fully_deterministic():
    rng = np.random.default_rng(73)
    overheard, prev, history, proj = _attack_inputs(rng)
    settings = AttackSettings(
        d_feat=4, d_z=3, hidden_dims=(5, 3), psi_hidden=4, gae_epochs=10,
        beta=0.0, d_thresh_percentile=90.0,
    )
    a = run_attack(overheard, prev, history, settings, RngStream(6, "atk"), proj, 100, 6)
    b = run_attack(overheard, prev, history, settings, RngStream(6, "atk"), proj, 100, 6)
    np.testing.assert_array_equal(a.update.params, b.update.params)


def test_run_attack_end_to_end_constraint_and_nontriviality():
    rng = np.random.default_rng(74)
    overheard, prev, history, proj = _attack_inputs(rng)
    result = run_attack(overheard, prev, history, SMALL, RngStream(7, "atk"), proj, 100, 6)
    omega = result.update.params
    worst = max(np.linalg.norm(omega - m) for m in overheard)
    assert worst <= result.diagnostics.d_thresh + 1e-9
    assert result.diagnostics.constraint_ok
    benign_mean = np.mean(np.stack(overheard), axis=0)
    assert np.linalg.norm(omega - benign_mean) > 1e-6
    assert result.diagnostics.delta_g_final <= result.diagnostics.delta_g_initial


def test_attack_settings_validation():
    with pytest.raises(ValueError, match="exactly one"):
        AttackSettings(d_thresh_value=1.0, d_thresh_percentile=90.0)
    with pytest.raises(ValueError, match="exactly one"):
        AttackSettings(d_thresh_value=None, d_thresh_percentile=None)
    with pytest.raises(ValueError, match="ascent_steps"):
        AttackSettings(ascent_steps=0)
    with pytest.raises(ValueError, match="activation"):
        AttackSettings(activation="gelu")
    with pytest.raises(ValueError, match="hidden_dims"):
        AttackSettings(hidden_dims=())
    with pytest.raises(ValueError, match="d_thresh_value"):
        AttackSettings(d_thresh_value=-1.0, d_thresh_percentile=None)


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
