"""Graph-autoencoder attack engine.

Builds a correlation graph over overheard model updates, encodes it with
a small graph network (variational heads optional), trains against a
link-reconstruction loss, adversarially perturbs the attacker node's
latent, and synthesizes a malicious model update that stays inside a
stealth radius of every overheard benign model.

All gradients are derived analytically and checked against finite
differences in the test suite; graphs are tiny (one node per overheard
device) so dense numpy math is used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .aggregation import ReportedUpdate
from .numerics import Projector, RngStream, as_params, cosine_similarity, ensure_finite, sigmoid

PROB_CLAMP_LO = 1e-12
PROB_CLAMP_HI = 1.0 - 1e-12
DIVERGENCE_LIMIT = 1e6
BISECT_TOL = 1e-9


@dataclass(frozen=True)
class AttackSettings:
    """Hyperparameters of the attack pipeline.

    The stealth radius is given either as an absolute value
    (d_thresh_value) or as a percentile of the current round's pairwise
    benign model distances (d_thresh_percentile); exactly one must be
    set.
    """

    d_feat: int = 16
    d_z: int = 8
    hidden_dims: tuple[int, ...] = (32, 16)
    activation: str = "tanh"
    gae_epochs: int = 80
    gae_learning_rate: float = 0.05
    beta: float = 0.001
    ascent_steps: int = 30
    ascent_step_size: float = 0.1
    d_thresh_value: float | None = None
    d_thresh_percentile: float | None = 90.0
    negative_sample_ratio: float = 1.0
    psi_hidden: int = 8
    identity_projection: bool = False

    def __post_init__(self):
        if self.d_feat < 1 or self.d_z < 1 or self.psi_hidden < 1:
            raise ValueError("d_feat, d_z, and psi_hidden must all be >= 1")
        if not self.hidden_dims or any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden_dims must be nonempty positive, got {self.hidden_dims}")
        if self.activation not in ("tanh", "relu"):
            raise ValueError(f"activation must be 'tanh' or 'relu', got {self.activation!r}")
        if self.gae_epochs < 0:
            raise ValueError(f"gae_epochs must be >= 0, got {self.gae_epochs}")
        if not self.gae_learning_rate > 0:
            raise ValueError(f"gae_learning_rate must be positive, got {self.gae_learning_rate}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.ascent_steps < 1:
            raise ValueError(f"ascent_steps must be >= 1, got {self.ascent_steps}")
        if self.ascent_step_size < 0:
            raise ValueError(f"ascent_step_size must be >= 0, got {self.ascent_step_size}")
        if self.negative_sample_ratio < 0:
            raise ValueError(
                f"negative_sample_ratio must be >= 0, got {self.negative_sample_ratio}"
            )
        if (self.d_thresh_value is None) == (self.d_thresh_percentile is None):
            raise ValueError("set exactly one of d_thresh_value and d_thresh_percentile")
        if self.d_thresh_value is not None and not self.d_thresh_value > 0:
            raise ValueError(f"d_thresh_value must be positive, got {self.d_thresh_value}")
        if self.d_thresh_percentile is not None and not 0 < self.d_thresh_percentile <= 100:
            raise ValueError(
                f"d_thresh_percentile must be in (0, 100], got {self.d_thresh_percentile}"
            )

    @property
    def n_layers(self) -> int:
        return len(self.hidden_dims)


@dataclass(frozen=True)
class ModelGraph:
    """Correlation graph over overheard models, attacker node last.

    adjacency: (n, n) symmetric, unit diagonal, entries in [0, 1];
    features: (n, d_feat) projected models; raw_models: (n, dim) the
    unprojected vectors backing each node.
    """

    adjacency: np.ndarray
    features: np.ndarray
    raw_models: np.ndarray

    def __post_init__(self):
        n = self.adjacency.shape[0]
        if self.adjacency.shape != (n, n):
            raise ValueError(f"adjacency must be square, got {self.adjacency.shape}")
        if self.features.shape[0] != n or self.raw_models.shape[0] != n:
            raise ValueError("features/raw_models row count must match adjacency")
        if not np.allclose(self.adjacency, self.adjacency.T, atol=1e-12):
            raise ValueError("adjacency must be symmetric")
        if not np.allclose(np.diag(self.adjacency), 1.0, atol=1e-12):
            raise ValueError("adjacency must carry unit self-loops")
        if self.adjacency.min() < 0 or self.adjacency.max() > 1 + 1e-12:
            raise ValueError("adjacency entries must lie in [0, 1]")

    @property
    def node_count(self) -> int:
        return self.adjacency.shape[0]

    @property
    def attacker_index(self) -> int:
        return self.node_count - 1


@dataclass
class EncoderState:
    """Learnable weights: graph layers, latent heads, and the scoring MLP.

    The gradients of the loss come back in the same type. psi_b2 is a 0-d
    array so that every block can be updated in place.
    """

    layer_weights: list[np.ndarray]
    mu_head: np.ndarray
    logvar_head: np.ndarray
    psi_w1: np.ndarray
    psi_b1: np.ndarray
    psi_w2: np.ndarray
    psi_b2: np.ndarray

    def blocks(self) -> list[np.ndarray]:
        """Every parameter array, in a fixed order."""
        return [
            *self.layer_weights, self.mu_head, self.logvar_head,
            self.psi_w1, self.psi_b1, self.psi_w2, self.psi_b2,
        ]


@dataclass(frozen=True)
class LatentState:
    """Per-node latent Gaussians and the sample used downstream."""

    mu: np.ndarray
    logvar: np.ndarray
    z: np.ndarray


@dataclass(frozen=True)
class LinkSample:
    """Link-reconstruction weights, both (n, n).

    positive[v, u] = 1/|pos_v| for each observed neighbor u of v and
    negative[v, u] = 1/|neg_v| for each sampled non-neighbor, zero
    elsewhere, so each node's link terms are means over its sample.
    """

    positive: np.ndarray
    negative: np.ndarray


@dataclass
class AttackDiagnostics:
    """Per-round trace of one attacker's pipeline."""

    attacker_id: int = -1
    skipped: bool = False
    skip_reason: str = ""
    delta_g_initial: float = float("nan")
    delta_g_final: float = float("nan")
    gamma_model: float = float("nan")
    d_thresh: float = float("nan")
    uniform_fallback: bool = False
    centroid_pull: float = 0.0
    constraint_ok: bool = True


@dataclass(frozen=True)
class AttackResult:
    update: ReportedUpdate
    diagnostics: AttackDiagnostics


@dataclass(frozen=True)
class GaeTrainResult:
    encoder: EncoderState
    loss_trace: list[float]
    links: LinkSample
    eps: np.ndarray | None
    latent: LatentState  # of the trained encoder under eps


def build_graph(
    overheard: Sequence[np.ndarray], attacker_prev, projector: Projector
) -> ModelGraph:
    """Assemble the correlation graph from overheard models.

    Node features are the projected models (attacker's previous model
    appended last); edge weights are nonnegative pairwise cosines with
    unit self-loops.
    """
    if len(overheard) < 2:
        raise ValueError(
            f"need at least 2 overheard models to form a graph, got {len(overheard)}"
        )
    raw = np.stack([as_params(m) for m in list(overheard) + [attacker_prev]])
    features = np.stack([projector.project(row) for row in raw])
    n = raw.shape[0]
    adjacency = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            adjacency[i, j] = adjacency[j, i] = max(
                0.0, cosine_similarity(features[i], features[j])
            )
    return ModelGraph(adjacency=adjacency, features=features, raw_models=raw)


def _activation_pair(name: str):
    if name == "tanh":
        return np.tanh, lambda s, h: 1.0 - h * h
    return (
        lambda s: np.maximum(s, 0.0),
        lambda s, h: (s > 0).astype(np.float64),
    )


def _normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    # Row sums are >= 1 thanks to the unit self-loops.
    return adjacency / adjacency.sum(axis=1, keepdims=True)


@dataclass
class _Forward:
    hiddens: list[np.ndarray]  # H[0] = features, ..., H[L]
    mids: list[np.ndarray]     # M[l] = H[l-1] + Ahat @ H[l-1]
    preacts: list[np.ndarray]  # S[l] = M[l] @ W[l]
    latent: LatentState
    std: np.ndarray | None


def _forward(
    graph: ModelGraph,
    enc: EncoderState,
    settings: AttackSettings,
    eps: np.ndarray | None,
) -> _Forward:
    act, _ = _activation_pair(settings.activation)
    ahat = _normalized_adjacency(graph.adjacency)
    hiddens = [graph.features]
    mids, preacts = [], []
    for l, w in enumerate(enc.layer_weights, start=1):
        mid = hiddens[-1] + ahat @ hiddens[-1]
        pre = mid @ w
        hidden = act(pre)
        if not np.isfinite(hidden).all():
            raise FloatingPointError(f"non-finite hidden state at layer {l}")
        mids.append(mid)
        preacts.append(pre)
        hiddens.append(hidden)
    mu = hiddens[-1] @ enc.mu_head
    logvar = hiddens[-1] @ enc.logvar_head
    if eps is None:
        std = None
        z = mu
    else:
        std = np.exp(0.5 * logvar)
        z = mu + std * eps
    return _Forward(hiddens, mids, preacts, LatentState(mu=mu, logvar=logvar, z=z), std)


def encode(
    graph: ModelGraph,
    enc: EncoderState,
    settings: AttackSettings,
    eps: np.ndarray | None = None,
) -> tuple[np.ndarray, LatentState]:
    """Run the encoder; returns final hidden states and the latent state.

    eps is the pre-drawn standard-normal noise for the variational
    sample; pass None to take z = mu (the beta == 0 behavior).
    """
    fw = _forward(graph, enc, settings, eps)
    return fw.hiddens[-1], fw.latent


def sample_links(
    graph: ModelGraph, settings: AttackSettings, rng: RngStream
) -> LinkSample:
    """Fix the link-reconstruction targets for one training run.

    Positives are observed neighbors (positive edge weight, self
    excluded); negatives are negative_sample_ratio times as many
    non-neighbors, drawn without replacement from rng. Sampling once per
    run keeps the loss a fixed deterministic objective.
    """
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
    return LinkSample(positive=positive, negative=negative)


# Clamping the probability into [1e-12, 1 - 1e-12] equals clamping the logit
# into +-logit(1 - 1e-12); the logit-space softplus form computes the same
# value without the catastrophic 1 - sigmoid(s) cancellation.
LOGIT_CLAMP = float(np.log1p(-PROB_CLAMP_LO) - np.log(PROB_CLAMP_LO))


def _clamped_neglog_sigmoid(s: np.ndarray) -> np.ndarray:
    """-log(clip(sigmoid(s))); pass -s for -log(1 - clip(sigmoid(s)))."""
    return np.logaddexp(0.0, -np.clip(s, -LOGIT_CLAMP, LOGIT_CLAMP))


def _clamp_active(s: np.ndarray) -> np.ndarray:
    return np.abs(s) < LOGIT_CLAMP


def _link_loss(z: np.ndarray, links: LinkSample) -> float:
    s = z @ z.T
    return float(np.sum(
        links.positive * _clamped_neglog_sigmoid(s)
        + links.negative * _clamped_neglog_sigmoid(-s)
    ))


def _psi_scores(hidden: np.ndarray, enc: EncoderState):
    h1 = np.tanh(hidden @ enc.psi_w1 + enc.psi_b1)
    t = h1 @ enc.psi_w2 + enc.psi_b2
    return h1, t


def _psi_loss(hidden: np.ndarray, enc: EncoderState) -> float:
    _, t = _psi_scores(hidden, enc)
    return float(_clamped_neglog_sigmoid(t).sum())


def _kl_divergence(mu: np.ndarray, logvar: np.ndarray) -> float:
    return float(-0.5 * np.sum(1.0 + logvar - mu * mu - np.exp(logvar)))


def graph_loss(
    graph: ModelGraph,
    hidden: np.ndarray,
    latent: LatentState,
    enc: EncoderState,
    settings: AttackSettings,
    links: LinkSample,
) -> float:
    """Total generation loss: per-node link reconstruction cross-entropy
    plus the per-node MLP score term plus beta-weighted KL."""
    if hidden.shape[0] != graph.node_count:
        raise ValueError(
            f"hidden rows {hidden.shape[0]} != node count {graph.node_count}"
        )
    total = _link_loss(latent.z, links) + _psi_loss(hidden, enc)
    if settings.beta > 0:
        total += settings.beta * _kl_divergence(latent.mu, latent.logvar)
    return total


def loss_and_grads(
    graph: ModelGraph,
    enc: EncoderState,
    settings: AttackSettings,
    links: LinkSample,
    eps: np.ndarray | None = None,
) -> tuple[float, EncoderState]:
    """Evaluate the generation loss and its analytic gradients."""
    fw = _forward(graph, enc, settings, eps)
    latent, hidden = fw.latent, fw.hiddens[-1]
    z = latent.z
    loss = graph_loss(graph, hidden, latent, enc, settings, links)

    # Backward through the link terms into z; s[v, u] = z_v . z_u, and
    # sigmoid(s) - 1 is written as -sigmoid(-s) to keep precision when saturated.
    s = z @ z.T
    coeff = np.where(
        _clamp_active(s), links.negative * sigmoid(s) - links.positive * sigmoid(-s), 0.0
    )
    gz = coeff @ z + coeff.T @ z

    # Backward through the scoring MLP into its weights and the hidden state.
    h1, t = _psi_scores(hidden, enc)
    gt = np.where(_clamp_active(t), -sigmoid(-t), 0.0)
    g_psi_w2 = h1.T @ gt
    g_psi_b2 = np.array(gt.sum())
    gs1 = (gt[:, None] * enc.psi_w2[None, :]) * (1.0 - h1 * h1)
    g_psi_w1 = hidden.T @ gs1
    g_psi_b1 = gs1.sum(axis=0)
    g_hidden_psi = gs1 @ enc.psi_w1.T

    # Latent heads (z = mu + std * eps, with the KL term when beta > 0).
    gmu = gz.copy()
    glogvar = np.zeros_like(latent.logvar)
    if eps is not None:
        glogvar += gz * eps * 0.5 * fw.std
    if settings.beta > 0:
        gmu += settings.beta * latent.mu
        glogvar += settings.beta * 0.5 * (np.exp(latent.logvar) - 1.0)
    g_mu_head = hidden.T @ gmu
    g_logvar_head = hidden.T @ glogvar
    g_hidden = gmu @ enc.mu_head.T + glogvar @ enc.logvar_head.T + g_hidden_psi

    # Graph layers, last to first.
    _, act_grad = _activation_pair(settings.activation)
    ahat = _normalized_adjacency(graph.adjacency)
    g_layers: list[np.ndarray] = [None] * len(enc.layer_weights)  # type: ignore[list-item]
    g = g_hidden
    for l in range(len(enc.layer_weights) - 1, -1, -1):
        gs = g * act_grad(fw.preacts[l], fw.hiddens[l + 1])
        g_layers[l] = fw.mids[l].T @ gs
        gmid = gs @ enc.layer_weights[l].T
        g = gmid + ahat.T @ gmid

    grads = EncoderState(
        layer_weights=g_layers,
        mu_head=g_mu_head,
        logvar_head=g_logvar_head,
        psi_w1=g_psi_w1,
        psi_b1=g_psi_b1,
        psi_w2=g_psi_w2,
        psi_b2=g_psi_b2,
    )
    return loss, grads


def init_encoder(
    graph: ModelGraph, settings: AttackSettings, rng: RngStream
) -> EncoderState:
    """Symmetric uniform fan-in/fan-out initialization, biases zero."""

    def uniform(fan_in: int, fan_out: int) -> np.ndarray:
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.gen.uniform(-bound, bound, size=(fan_in, fan_out))

    dims = [graph.features.shape[1], *settings.hidden_dims]
    layer_weights = [uniform(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
    d_last = dims[-1]
    return EncoderState(
        layer_weights=layer_weights,
        mu_head=uniform(d_last, settings.d_z),
        logvar_head=uniform(d_last, settings.d_z),
        psi_w1=uniform(d_last, settings.psi_hidden),
        psi_b1=np.zeros(settings.psi_hidden),
        psi_w2=uniform(settings.psi_hidden, 1)[:, 0],
        psi_b2=np.zeros(()),
    )


def train_gae(
    graph: ModelGraph, settings: AttackSettings, rng: RngStream
) -> GaeTrainResult:
    """Train the encoder by full-graph gradient descent on the loss.

    Negative link targets and the variational noise are drawn once so
    the objective is fixed; the loss trace holds the value before every
    step plus the value at the trained weights, whose latent state is
    returned with them.
    """
    enc = init_encoder(graph, settings, rng)
    links = sample_links(graph, settings, rng)
    eps = None
    if settings.beta > 0:
        eps = rng.gen.standard_normal((graph.node_count, settings.d_z))

    trace: list[float] = []
    lr = settings.gae_learning_rate
    for epoch in range(settings.gae_epochs):
        loss, grads = loss_and_grads(graph, enc, settings, links, eps)
        if not np.isfinite(loss) or loss > DIVERGENCE_LIMIT:
            raise RuntimeError(
                f"graph training diverged (loss {loss:.4g} at epoch {epoch}); "
                "reduce gae_learning_rate"
            )
        trace.append(loss)
        for p, g in zip(enc.blocks(), grads.blocks()):
            p -= lr * g
    hidden, latent = encode(graph, enc, settings, eps)
    trace.append(graph_loss(graph, hidden, latent, enc, settings, links))
    return GaeTrainResult(encoder=enc, loss_trace=trace, links=links, eps=eps, latent=latent)


def estimate_ascent_direction(global_history, overheard) -> np.ndarray:
    """Unit vector opposing the consensus descent direction.

    The consensus direction is the mean overheard model minus the
    previous global model; its negation, normalized, is the data-free
    proxy for increasing the training loss. Returns the zero vector when
    the consensus motion is below 1e-12.
    """
    if len(overheard) < 1:
        raise ValueError("need at least one overheard model")
    if len(global_history) < 1:
        raise ValueError("need at least one previous global model")
    prev = as_params(global_history[-1])
    consensus = np.mean(np.stack([as_params(m) for m in overheard]), axis=0) - prev
    norm = float(np.linalg.norm(consensus))
    if norm < 1e-12:
        return np.zeros_like(prev)
    return -consensus / norm


def surrogate_objective(
    z_a: np.ndarray,
    benign_latents: np.ndarray,
    benign_models: np.ndarray,
    ascent: np.ndarray,
) -> float:
    """Alignment of the decoded mixture with the ascent direction.

    The decoded adjacency row a_j = sigmoid(z_a . z_j) induces the
    mixture sum_j (a_j / sum a) model_j; the objective is the dot
    product of (mixture - mean benign model) with the ascent vector.
    """
    a = sigmoid(benign_latents @ z_a)
    c = benign_models @ ascent
    mix = float(a @ c) / float(a.sum())
    return mix - float(c.mean())


def surrogate_gradient(
    z_a: np.ndarray,
    benign_latents: np.ndarray,
    benign_models: np.ndarray,
    ascent: np.ndarray,
) -> np.ndarray:
    """Analytic gradient of :func:`surrogate_objective` w.r.t. z_a."""
    a = sigmoid(benign_latents @ z_a)
    asum = float(a.sum())
    c = benign_models @ ascent
    mix = float(a @ c) / asum
    coeff = (c - mix) / asum * a * (1.0 - a)
    return coeff @ benign_latents


def adversarial_reconstruct(
    graph: ModelGraph,
    latent: LatentState,
    ascent: np.ndarray,
    settings: AttackSettings,
) -> np.ndarray:
    """Gradient-ascend the attacker node's latent, then decode its row.

    latent is the trained encoder's deterministic latent state for the
    graph (z = mu). Returns the decoded adjacency row over the benign
    nodes, entries in (0, 1). With a zero ascent vector the row is the
    unperturbed decode.
    """
    benign_z = latent.z[:-1]
    benign_models = graph.raw_models[:-1]
    z_a = latent.z[-1].copy()
    for step in range(settings.ascent_steps):
        grad = surrogate_gradient(z_a, benign_z, benign_models, ascent)
        z_a = z_a + settings.ascent_step_size * grad
        if not np.isfinite(z_a).all():
            raise FloatingPointError(f"non-finite ascent state at step {step}")
    return sigmoid(benign_z @ z_a)


def resolve_threshold(settings: AttackSettings, overheard) -> float:
    """Stealth radius for this round: absolute, or the configured
    percentile of pairwise distances between overheard models."""
    if settings.d_thresh_value is not None:
        return float(settings.d_thresh_value)
    models = np.stack([as_params(m) for m in overheard])
    pairwise = np.linalg.norm(models[:, None, :] - models[None, :, :], axis=-1)
    upper = pairwise[np.triu_indices(len(models), k=1)]
    return float(np.percentile(upper, settings.d_thresh_percentile))


def _max_distance(v: np.ndarray, models: np.ndarray) -> float:
    return float(np.sqrt(((models - v) ** 2).sum(axis=1)).max())


def generate_malicious(
    a_adv,
    overheard,
    ascent,
    settings: AttackSettings,
    diag: AttackDiagnostics | None = None,
) -> np.ndarray:
    """Mix the original overheard models by the adversarial row, push
    along the ascent direction as far as the stealth radius allows.

    The push coefficient is the largest gamma in [0, d_thresh] keeping
    the result within d_thresh of every overheard model (bisection to
    1e-9). If the unpushed mixture already violates the constraint it is
    pulled toward the benign centroid until it holds.
    """
    a_adv = np.asarray(a_adv, dtype=np.float64)
    models = np.stack([as_params(m) for m in overheard])
    if a_adv.shape[0] != models.shape[0]:
        raise ValueError(
            f"adjacency row length {a_adv.shape[0]} != overheard count {models.shape[0]}"
        )
    ascent = as_params(ascent)
    if ascent.shape[0] != models.shape[1]:
        raise ValueError(
            f"dimension mismatch: ascent has {ascent.shape[0]}, models have {models.shape[1]}"
        )

    weight_sum = float(a_adv.sum())
    uniform_fallback = weight_sum <= 0
    if uniform_fallback:
        weights = np.full(models.shape[0], 1.0 / models.shape[0])
    else:
        weights = a_adv / weight_sum
    omega_raw = weights @ models

    thresh = resolve_threshold(settings, overheard)

    def feasible(v: np.ndarray) -> bool:
        return _max_distance(v, models) <= thresh

    gamma = 0.0
    pull_t = 0.0
    if feasible(omega_raw):
        if float(np.linalg.norm(ascent)) > 0:
            if feasible(omega_raw + thresh * ascent):
                gamma = thresh
            else:
                lo, hi = 0.0, thresh
                while hi - lo > BISECT_TOL:
                    mid = 0.5 * (lo + hi)
                    if feasible(omega_raw + mid * ascent):
                        lo = mid
                    else:
                        hi = mid
                gamma = lo
        omega = omega_raw + gamma * ascent
    else:
        centroid = models.mean(axis=0)
        if feasible(centroid):
            lo, hi = 0.0, 1.0  # lo infeasible, hi feasible
            while hi - lo > BISECT_TOL:
                mid = 0.5 * (lo + hi)
                if feasible((1.0 - mid) * omega_raw + mid * centroid):
                    hi = mid
                else:
                    lo = mid
            pull_t = hi
        else:
            pull_t = 1.0  # best effort; flagged through constraint_ok
        omega = (1.0 - pull_t) * omega_raw + pull_t * centroid

    if diag is not None:
        diag.gamma_model = gamma
        diag.d_thresh = thresh
        diag.uniform_fallback = uniform_fallback
        diag.centroid_pull = pull_t
        diag.constraint_ok = _max_distance(omega, models) <= thresh + 1e-9
    return ensure_finite("malicious model", omega)


def run_attack(
    overheard: Sequence[np.ndarray],
    attacker_prev,
    global_history: Sequence[np.ndarray],
    settings: AttackSettings,
    rng: RngStream,
    projector: Projector,
    reported_samples: int,
    device_id: int,
) -> AttackResult:
    """Full per-round pipeline for one attacker.

    Composes graph construction, encoder training, adversarial
    reconstruction, and constrained generation. With fewer than two
    overheard models the attack is skipped and the attacker resubmits
    its previous model.
    """
    diag = AttackDiagnostics(attacker_id=device_id)
    attacker_prev = as_params(attacker_prev)
    if len(overheard) < 2:
        diag.skipped = True
        diag.skip_reason = f"only {len(overheard)} overheard models"
        update = ReportedUpdate(
            device_id=device_id,
            params=attacker_prev.copy(),
            reported_samples=reported_samples,
            is_malicious=True,
        )
        return AttackResult(update=update, diagnostics=diag)

    graph = build_graph(overheard, attacker_prev, projector)
    trained = train_gae(graph, settings, rng)
    diag.delta_g_initial = trained.loss_trace[0]
    diag.delta_g_final = trained.loss_trace[-1]
    ascent = estimate_ascent_direction(global_history, overheard)
    a_adv = adversarial_reconstruct(graph, trained.latent, ascent, settings)
    omega = generate_malicious(a_adv, overheard, ascent, settings, diag=diag)
    update = ReportedUpdate(
        device_id=device_id,
        params=omega,
        reported_samples=reported_samples,
        is_malicious=True,
    )
    return AttackResult(update=update, diagnostics=diag)
