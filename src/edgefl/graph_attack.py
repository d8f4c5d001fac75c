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

import math
from dataclasses import dataclass
from typing import Callable, Literal, NamedTuple, Sequence

import numpy as np

from .numerics import (
    NORM_FLOOR, Projector, RngStream, as_params, ensure_finite, sigmoid, timed,
)

PROB_CLAMP_LO = 1e-12
DIVERGENCE_LIMIT = 1e6
# Upper bound on the variational log-variance (PyG VGAE's MAX_LOGSTD idea):
# the logvar gradient carries gz * eps * 0.5 * std, a positive feedback
# that runs the head away on wide graphs. One-sided, so small variances
# keep their bits.
LOGVAR_MAX = 10.0


@dataclass(frozen=True)
class AttackSettings:
    """Hyperparameters of the attack pipeline; each field is a key of the
    attack.avgae config section, and every check here names its key.

    d_thresh_mode selects the stealth radius: "absolute" uses
    d_thresh_value, which it requires, and stores d_thresh_percentile as
    None whatever was given; "percentile" takes that percentile of the
    current round's pairwise benign model distances and rejects a
    d_thresh_value.
    """

    d_feat: int = 16
    d_z: int = 8
    hidden_dims: tuple[int, ...] = (32, 16)
    activation: str = "tanh"
    gae_epochs: int = 5
    gae_learning_rate: float = 0.05
    beta: float = 0.001
    ascent_steps: int = 30
    ascent_step_size: float = 0.1
    d_thresh_mode: Literal["percentile", "absolute"] = "percentile"
    d_thresh_value: float | None = None
    d_thresh_percentile: float | None = 90.0
    negative_sample_ratio: float = 1.0
    psi_hidden: int = 8
    identity_projection: bool = False

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        for key, ok, rule in (
            ("d_feat", self.d_feat >= 1, ">= 1"),
            ("d_z", self.d_z >= 1, ">= 1"),
            ("psi_hidden", self.psi_hidden >= 1, ">= 1"),
            ("hidden_dims", self.hidden_dims and min(self.hidden_dims) >= 1, "nonempty positive"),
            ("activation", self.activation in ("tanh", "relu"), "'tanh' or 'relu'"),
            ("gae_epochs", self.gae_epochs >= 0, ">= 0"),
            ("gae_learning_rate", self.gae_learning_rate > 0, "positive"),
            ("beta", self.beta >= 0, ">= 0"),
            ("ascent_steps", self.ascent_steps >= 1, ">= 1"),
            ("ascent_step_size", self.ascent_step_size >= 0, ">= 0"),
            ("negative_sample_ratio", self.negative_sample_ratio >= 0, ">= 0"),
            ("d_thresh_mode", self.d_thresh_mode in ("percentile", "absolute"),
             "'percentile' or 'absolute'"),
        ):
            if not ok:
                raise ValueError(f"attack.avgae.{key} must be {rule}, got {getattr(self, key)!r}")
        if self.d_thresh_mode == "absolute":
            if self.d_thresh_value is None:
                raise ValueError("attack.avgae.d_thresh_value is required in absolute mode")
            if not self.d_thresh_value > 0:
                raise ValueError(
                    f"attack.avgae.d_thresh_value must be positive, got {self.d_thresh_value!r}"
                )
            object.__setattr__(self, "d_thresh_percentile", None)
        elif self.d_thresh_value is not None:
            raise ValueError(
                "attack.avgae.d_thresh_value is only read in absolute mode; set "
                "attack.avgae.d_thresh_mode: absolute to use it"
            )
        elif self.d_thresh_percentile is None or not 0 < self.d_thresh_percentile <= 100:
            raise ValueError(
                "attack.avgae.d_thresh_percentile must be in (0, 100], got "
                f"{self.d_thresh_percentile!r}"
            )


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


@dataclass
class EncoderState:
    """Learnable weights: graph layers, latent heads, and the scoring MLP.

    The gradients of the loss come back in the same type. One encoder's
    psi_b2 is a 0-d array so that every block can be updated in place. A
    stack of k encoders puts a leading axis of length k on every array.
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

    @staticmethod
    def view(buffer: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> EncoderState:
        """The encoder(s) whose blocks(), of the given one-encoder shapes,
        view consecutive spans of buffer's last axis (any leading axis of
        buffer is the stack axis)."""
        lead, blocks, start = buffer.shape[:-1], [], 0
        for shape in shapes:
            size = math.prod(shape)
            blocks.append(buffer[..., start:start + size].reshape(lead + shape))
            start += size
        return EncoderState(blocks[:-6], *blocks[-6:])


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


class StackFailure(RuntimeError):
    """A failure of entry index of a stack: of encoders in train_gae, of
    latents in adversarial_reconstruct, of attackers in run_attack. When
    several entries fail at the same step, index is the lowest of them."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class GaeTrainResult:
    encoder: EncoderState
    loss_trace: list[float]
    latent: LatentState  # of the trained encoder under its noise


def _model_block(models) -> np.ndarray:
    """Models as one (n, dim) float64 block, one model per row; a
    sequence of 1-D parameter vectors stacks into one."""
    block = np.asarray(models, dtype=np.float64)
    if block.ndim != 2:
        raise ValueError(f"models must form a 2-D block, got shape {block.shape}")
    return block


def build_graph(overheard, attacker_prev, projector: Projector) -> ModelGraph:
    """Assemble the correlation graph from the overheard block.

    Node features are the projected models (attacker's previous model
    appended last); edge weights are nonnegative pairwise cosines with
    unit self-loops.
    """
    if len(overheard) < 2:
        raise ValueError(
            f"need at least 2 overheard models to form a graph, got {len(overheard)}"
        )
    raw = np.vstack([_model_block(overheard), as_params(attacker_prev)])
    features = projector.project(raw)
    # Every pairwise cosine at once: one stacked dot per pair (a gemm would
    # give other bits), norms from the diagonal, 0 when either norm is
    # below NORM_FLOOR, otherwise the ratio clipped to [-1, 1]; then
    # max(0, .), which maps -0.0 to 0.0.
    dots = np.matmul(features[:, None, None, :], features[None, :, :, None])[..., 0, 0]
    norms = np.sqrt(dots.diagonal())
    small = norms < NORM_FLOOR
    safe = np.where(small, 1.0, norms)
    cosine = np.clip(dots / (safe[:, None] * safe), -1.0, 1.0)
    adjacency = np.where((cosine > 0.0) & ~(small[:, None] | small), cosine, 0.0)
    np.fill_diagonal(adjacency, 1.0)
    return ModelGraph(adjacency=adjacency, features=features, raw_models=raw)


class _Prepared(NamedTuple):
    """What every pass over one graph shares: the row-normalized
    adjacency, the first layer's propagated features, the transposed
    views of both, and the activation with its derivative."""

    ahat: np.ndarray
    mid0: np.ndarray  # features + ahat @ features
    ahat_t: np.ndarray
    mid0_t: np.ndarray
    act: Callable
    act_grad: Callable


def _prepare(graph: ModelGraph, settings: AttackSettings) -> _Prepared:
    # Row sums are >= 1 thanks to the unit self-loops.
    ahat = graph.adjacency / graph.adjacency.sum(axis=1, keepdims=True)
    mid0 = graph.features + ahat @ graph.features
    if settings.activation == "tanh":
        return _Prepared(ahat, mid0, ahat.T, mid0.T, np.tanh, lambda s, h: 1.0 - h * h)
    return _Prepared(
        ahat, mid0, ahat.T, mid0.T,
        lambda s: np.maximum(s, 0.0), lambda s, h: (s > 0).astype(np.float64),
    )


# The passes below take one encoder, or a stack of encoders with a leading
# axis on every weight, link weight and noise array; the graph is shared.
# Leading-axis np.matmul makes one BLAS call per encoder on the same
# operands as the call for that encoder alone, and every other operation
# is elementwise or reduces within one encoder, so each encoder of a stack
# gets the same bits as on its own.

def _mT(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


@dataclass
class _Forward:
    hiddens: list[np.ndarray]  # H[1], ..., H[L]
    mids: list[np.ndarray]     # M[l] = H[l-1] + Ahat @ H[l-1], H[0] = features
    preacts: list[np.ndarray]  # S[l] = M[l] @ W[l]
    latent: LatentState
    std: np.ndarray | None
    logvar_free: np.ndarray  # logvar_raw < LOGVAR_MAX: where the bound does not bind


def _forward(prep: _Prepared, enc: EncoderState, eps: np.ndarray | None) -> _Forward:
    mids, preacts, hiddens = [prep.mid0], [], []
    for l, w in enumerate(enc.layer_weights, start=1):
        if l > 1:
            mids.append(hiddens[-1] + prep.ahat @ hiddens[-1])
        pre = mids[-1] @ w
        hidden = prep.act(pre)
        if not np.isfinite(hidden).all():
            # argmin of the per-encoder flags is the lowest False.
            raise StackFailure(
                f"non-finite hidden state at layer {l}",
                int(np.argmin(np.isfinite(hidden).all(axis=(-2, -1)))),
            )
        preacts.append(pre)
        hiddens.append(hidden)
    mu = hiddens[-1] @ enc.mu_head
    logvar_raw = hiddens[-1] @ enc.logvar_head
    logvar = np.minimum(logvar_raw, LOGVAR_MAX)
    if eps is None:
        std = None
        z = mu
    else:
        std = np.exp(0.5 * logvar)
        z = mu + std * eps
    return _Forward(
        hiddens, mids, preacts, LatentState(mu=mu, logvar=logvar, z=z), std,
        logvar_raw < LOGVAR_MAX,
    )


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
    fw = _forward(_prepare(graph, settings), enc, eps)
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
    off = ~np.eye(graph.node_count, dtype=bool)
    pos = (graph.adjacency > 0) & off
    non = (graph.adjacency == 0) & off
    n_pos = pos.sum(axis=1)
    positive = pos / np.maximum(n_pos, 1)[:, None]
    # np.round, like round(), takes halves to even.
    n_neg = np.minimum(np.round(settings.negative_sample_ratio * n_pos), non.sum(axis=1))
    negative = np.zeros_like(positive)
    # One draw per row that samples negatives, in row order.
    for v in np.flatnonzero(n_neg > 0):
        drawn = rng.gen.choice(np.flatnonzero(non[v]), size=int(n_neg[v]), replace=False)
        negative[v, drawn] = 1.0 / n_neg[v]
    return LinkSample(positive=positive, negative=negative)


# Clamping the probability into [1e-12, 1 - 1e-12] equals clamping the logit
# into +-logit(1 - 1e-12); the logit-space softplus form computes the same
# value without the catastrophic 1 - sigmoid(s) cancellation.
LOGIT_CLAMP = float(np.log1p(-PROB_CLAMP_LO) - np.log(PROB_CLAMP_LO))


def _clamp(x: np.ndarray) -> np.ndarray:
    """x clipped to +-LOGIT_CLAMP (np.clip's result, without its
    dispatch cost)."""
    return np.minimum(np.maximum(x, -LOGIT_CLAMP), LOGIT_CLAMP)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """numerics.sigmoid without its np.errstate: for clamped x, whose exp
    cannot overflow, or inside the caller's own np.errstate."""
    return 1.0 / (1.0 + np.exp(-x))


class _Signed(NamedTuple):
    """A LinkSample in signed form. positive and negative never overlap,
    so weight * softplus(sign * c) and signed * sigmoid(sign * c) give the
    link terms and their gradient with the bits of both summed."""

    sign: np.ndarray    # -1 on positive links, +1 elsewhere
    weight: np.ndarray  # positive + negative
    signed: np.ndarray  # negative - positive


def _signed(links: LinkSample) -> _Signed:
    pos, neg = links.positive, links.negative
    return _Signed(np.where(pos > 0, -1.0, 1.0), pos + neg, neg - pos)


class _Scores(NamedTuple):
    """The loss of each encoder and the scores its gradient reuses."""

    loss: np.ndarray
    s: np.ndarray      # link logits z_v . z_u
    sc: np.ndarray     # sign * (s clamped to +-LOGIT_CLAMP)
    h1: np.ndarray     # scoring-MLP hidden layer
    t: np.ndarray      # scoring-MLP logits
    nct: np.ndarray    # -(t clamped to +-LOGIT_CLAMP)
    exp_logvar: np.ndarray | None


def _scores(
    hidden: np.ndarray, latent: LatentState, enc: EncoderState, links: _Signed, beta: float
) -> _Scores:
    """Per-node link reconstruction cross-entropy, plus the per-node MLP
    score term, plus beta-weighted KL; -log(clip(sigmoid(x))) is
    softplus(-clamped x)."""
    z = latent.z
    s = z @ _mT(z)
    sc = links.sign * _clamp(s)
    loss = (links.weight * np.logaddexp(0.0, sc)).sum(axis=(-2, -1))
    h1 = np.tanh(hidden @ enc.psi_w1 + enc.psi_b1[..., None, :])
    t = np.matmul(h1, enc.psi_w2[..., None])[..., 0] + enc.psi_b2[..., None]
    nct = -_clamp(t)
    loss = loss + np.logaddexp(0.0, nct).sum(axis=-1)
    exp_logvar = None
    if beta > 0:
        exp_logvar = np.exp(latent.logvar)
        kl = -0.5 * (1.0 + latent.logvar - latent.mu * latent.mu - exp_logvar).sum(axis=(-2, -1))
        loss = loss + beta * kl
    return _Scores(loss, s, sc, h1, t, nct, exp_logvar)


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
    return float(_scores(hidden, latent, enc, _signed(links), settings.beta).loss)


def _gradients(
    prep: _Prepared,
    fw: _Forward,
    sc: _Scores,
    enc: EncoderState,
    signed: np.ndarray,
    eps: np.ndarray | None,
    beta: float,
    out: EncoderState,
) -> None:
    """Analytic gradients of the loss, reusing the pass's own scores,
    written into out's blocks."""
    hidden, latent = fw.hiddens[-1], fw.latent
    z = latent.z

    # Backward through the link terms into z; s[v, u] = z_v . z_u, and
    # sigmoid(s) - 1 is written as -sigmoid(-s) to keep precision when
    # saturated. The gradient is zero outside the clamp and the clamped
    # s equals s inside it.
    coeff = np.where(np.abs(sc.s) < LOGIT_CLAMP, signed * _sigmoid(sc.sc), 0.0)
    gz = coeff @ z + _mT(coeff) @ z

    # Backward through the scoring MLP into its weights and the hidden state.
    h1 = sc.h1
    gt = np.where(np.abs(sc.t) < LOGIT_CLAMP, -_sigmoid(sc.nct), 0.0)
    np.matmul(_mT(h1), gt[..., None], out=out.psi_w2[..., None])
    gt.sum(axis=-1, out=out.psi_b2)
    gs1 = (gt[..., None] * enc.psi_w2[..., None, :]) * (1.0 - h1 * h1)
    hidden_t = _mT(hidden)
    np.matmul(hidden_t, gs1, out=out.psi_w1)
    gs1.sum(axis=-2, out=out.psi_b1)
    g_hidden_psi = gs1 @ _mT(enc.psi_w1)

    # Latent heads (z = mu + std * eps, with the KL term when beta > 0); a
    # scalar 0.0 stands for the zero glogvar that a term is added to. No
    # gradient flows through a log-variance held at LOGVAR_MAX.
    gmu, glogvar = gz, 0.0
    if eps is not None:
        glogvar = glogvar + gz * eps * 0.5 * fw.std
    if beta > 0:
        gmu = gmu + beta * latent.mu
        glogvar = glogvar + beta * 0.5 * (sc.exp_logvar - 1.0)
    glogvar = np.where(fw.logvar_free, glogvar, 0.0)
    np.matmul(hidden_t, gmu, out=out.mu_head)
    np.matmul(hidden_t, glogvar, out=out.logvar_head)
    g = gmu @ _mT(enc.mu_head) + glogvar @ _mT(enc.logvar_head) + g_hidden_psi

    # Graph layers, last to first; nothing flows into the fixed features.
    for l in range(len(enc.layer_weights) - 1, -1, -1):
        gs = g * prep.act_grad(fw.preacts[l], fw.hiddens[l])
        np.matmul(_mT(fw.mids[l]) if l else prep.mid0_t, gs, out=out.layer_weights[l])
        if l:
            gmid = gs @ _mT(enc.layer_weights[l])
            g = gmid + prep.ahat_t @ gmid


def loss_and_grads(
    graph: ModelGraph,
    enc: EncoderState,
    settings: AttackSettings,
    links: LinkSample,
    eps: np.ndarray | None = None,
) -> tuple[float, EncoderState]:
    """Evaluate the generation loss and its analytic gradients."""
    prep = _prepare(graph, settings)
    fw = _forward(prep, enc, eps)
    signed = _signed(links)
    sc = _scores(fw.hiddens[-1], fw.latent, enc, signed, settings.beta)
    shapes = [b.shape for b in enc.blocks()]
    grads = EncoderState.view(np.empty(sum(b.size for b in enc.blocks())), shapes)
    _gradients(prep, fw, sc, enc, signed.signed, eps, settings.beta, grads)
    return float(sc.loss), grads


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
    graph: ModelGraph, settings: AttackSettings, rngs: Sequence[RngStream]
) -> list[GaeTrainResult]:
    """Train one encoder per stream on the same graph by full-graph
    gradient descent on the loss, all as one stack.

    Each stream draws its encoder's initialization, link targets and
    variational noise, in that order, once, so each objective is fixed.
    Row j of one parameter buffer holds every block of encoder j, and
    each epoch is one forward and one backward pass over the whole stack
    and one gradient step on that buffer. Entry j holds the loss before
    every step plus the loss at the trained weights, whose latent state
    comes with them; it is bit for bit what stream j gets in a stack of
    one. The stack stops at the first epoch where a hidden state goes
    non-finite or a loss diverges, with a StackFailure naming the lowest
    encoder that it happened to. The trained weights are checked the same
    way, as epoch gae_epochs, so a diverged loss never reaches the
    returned trace or latent.
    """
    encs, links, noise = [], [], []
    for rng in rngs:
        encs.append(init_encoder(graph, settings, rng))
        links.append(sample_links(graph, settings, rng))
        if settings.beta > 0:
            noise.append(rng.gen.standard_normal((graph.node_count, settings.d_z)))
    shapes = [b.shape for b in encs[0].blocks()]
    params = np.stack([np.concatenate([b.ravel() for b in e.blocks()]) for e in encs])
    grads = np.empty_like(params)
    enc, genc = EncoderState.view(params, shapes), EncoderState.view(grads, shapes)
    signed = _signed(LinkSample(
        np.stack([l.positive for l in links]), np.stack([l.negative for l in links])
    ))
    eps = np.stack(noise) if noise else None

    prep = _prepare(graph, settings)
    trace = np.empty((settings.gae_epochs + 1, len(rngs)))
    lr, beta = settings.gae_learning_rate, settings.beta
    # Epoch gae_epochs evaluates the trained weights and takes no step.
    for epoch in range(settings.gae_epochs + 1):
        fw = _forward(prep, enc, eps)
        sc = _scores(fw.hiddens[-1], fw.latent, enc, signed, beta)
        for j, value in enumerate(sc.loss.tolist()):
            if not (math.isfinite(value) and value <= DIVERGENCE_LIMIT):
                raise StackFailure(
                    f"graph training diverged (loss {value:.4g} at epoch {epoch}); "
                    "reduce gae_learning_rate",
                    j,
                )
        trace[epoch] = sc.loss
        if epoch < settings.gae_epochs:
            _gradients(prep, fw, sc, enc, signed.signed, eps, beta, genc)
            params -= lr * grads

    mu, logvar, z = fw.latent.mu, fw.latent.logvar, fw.latent.z
    return [
        GaeTrainResult(
            encoder=EncoderState.view(params[j], shapes),
            loss_trace=trace[:, j].tolist(),
            latent=LatentState(mu[j], logvar[j], z[j]),
        )
        for j in range(len(rngs))
    ]


def estimate_ascent_direction(prev_global, overheard) -> np.ndarray:
    """Unit vector opposing the consensus descent direction.

    The consensus direction is the mean overheard row minus the
    previous global model; its negation, normalized, is the data-free
    proxy for increasing the training loss. Returns the zero vector when
    the consensus motion is below 1e-12.
    """
    if len(overheard) < 1:
        raise ValueError("need at least one overheard model")
    prev = as_params(prev_global)
    consensus = np.mean(_model_block(overheard), axis=0) - prev
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


def surrogate_gradient(z_a: np.ndarray, benign_z: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Analytic gradient of :func:`surrogate_objective` w.r.t. z_a, for k
    attackers at once: z_a (k, d_z), benign_z (k, m, d_z), c (m,) the
    benign models dotted with the ascent. Each product is the
    one-attacker BLAS call (matrix-vector, dot, vector-matrix) on the
    same operands, so each row gets its own bits; a decoded row that sums
    to zero gives a non-finite gradient."""
    a = _sigmoid(np.matmul(benign_z, z_a[..., None])[..., 0])
    asum = a.sum(axis=-1, keepdims=True)
    mix = np.matmul(a[..., None, :], c[:, None])[..., 0] / asum
    coeff = (c - mix) / asum * a * (1.0 - a)
    return np.matmul(coeff[..., None, :], benign_z)[..., 0, :]


def adversarial_reconstruct(
    graph: ModelGraph, latents: Sequence[LatentState], ascent: np.ndarray, settings: AttackSettings
) -> list[np.ndarray]:
    """Gradient-ascend the attacker node's latent of every state, as one
    stack, then decode its row.

    Each ascent starts from latent.z. The attack passes
    GaeTrainResult.latent, whose z is mu + std * eps when beta > 0 (one
    noisy sample, not mu); whether it should start from mu is open.
    Entry j is the decoded adjacency row of latents[j] over the benign
    nodes, entries in (0, 1); with a zero ascent vector it is the
    unperturbed decode. The stack stops at the first step where an
    ascent state goes non-finite, with a StackFailure naming the step
    and the lowest latent that it happened to.
    """
    z = np.stack([latent.z for latent in latents])
    benign_z, z_a = z[:, :-1], z[:, -1]
    c = graph.raw_models[:-1] @ ascent
    with np.errstate(all="ignore"):
        for step in range(settings.ascent_steps):
            z_a = z_a + settings.ascent_step_size * surrogate_gradient(z_a, benign_z, c)
            finite = np.isfinite(z_a).all(axis=-1)
            if not finite.all():
                raise StackFailure(
                    f"non-finite ascent state at step {step}", int(np.argmin(finite))
                )
        return list(_sigmoid(np.matmul(benign_z, z_a[..., None])[..., 0]))


def resolve_threshold(settings: AttackSettings, overheard) -> float:
    """Stealth radius for this round: absolute, or the configured
    percentile of pairwise distances between overheard rows."""
    if settings.d_thresh_mode == "absolute":
        return float(settings.d_thresh_value)
    models = _model_block(overheard)
    pairwise = np.linalg.norm(models[:, None, :] - models[None, :, :], axis=-1)
    upper = np.sort(pairwise[np.triu_indices(len(models), k=1)])
    return _linear_percentile(upper, settings.d_thresh_percentile)


def _linear_percentile(ordered: np.ndarray, q: float) -> float:
    """np.percentile(ordered, q) of an ascending array, with its bits for
    finite values: the operations of its "linear" method without its
    set-up, whose first call imports numpy.ma. A NaN sorts last."""
    last = len(ordered) - 1
    index = last * (q / 100)
    if index >= last or math.isnan(ordered[-1]):
        return float(ordered[-1])
    below = math.floor(index)
    gamma = index - below
    a, b = float(ordered[below]), float(ordered[below + 1])
    if gamma >= 0.5:
        return b - (b - a) * (1 - gamma)
    return a + (b - a) * gamma


def _offsets(v: np.ndarray, models: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v minus each model, and the length of each difference."""
    offsets = v - models
    return offsets, np.sqrt((offsets * offsets).sum(axis=1))


def _max_distance(v: np.ndarray, models: np.ndarray) -> float:
    return float(_offsets(v, models)[1].max())


# A step that a root bounds is shortened by this fraction of itself, so
# that the root's rounding error points into the ball.
STEP_BACK = 1e-12


def _max_step(
    offsets: np.ndarray, dist: np.ndarray, direction: np.ndarray, thresh: float, limit: float
) -> float:
    """The largest s in [0, limit] keeping v + s * direction within
    thresh of every model, for a v inside (offsets, dist from
    :func:`_offsets`); 0 for a zero direction. Per model this is
    A s^2 + 2 b_i s + c_i <= 0 with c_i <= 0, so s is the smallest upper
    root, taken in the form that does not cancel."""
    aa = float(direction @ direction)
    if not aa > 0:
        return 0.0
    b = offsets @ direction
    c = (dist - thresh) * (dist + thresh)
    sqrt_disc = np.sqrt(b * b - aa * c)
    roots = np.divide(-c, b + sqrt_disc, out=(sqrt_disc - b) / aa, where=b > 0)
    step = float(roots.min())
    return limit if step >= limit else step * (1.0 - STEP_BACK)


def generate_malicious(
    a_adv,
    overheard,
    ascent,
    thresh: float,
    diag: AttackDiagnostics | None = None,
) -> np.ndarray:
    """Mix the rows of the overheard block by the adversarial row, push
    along the ascent direction as far as the stealth radius thresh (see
    :func:`resolve_threshold`) allows.

    The push coefficient gamma is the largest value in [0, thresh] that
    keeps the result within thresh of every overheard model, in closed
    form (:func:`_max_step`). A mixture that is already outside is
    pulled to the feasible point of its segment to the benign centroid
    nearest to it, or to the centroid when that is outside too.
    """
    a_adv = np.asarray(a_adv, dtype=np.float64)
    models = _model_block(overheard)
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

    gamma = pull_t = 0.0
    offsets, dist = _offsets(omega_raw, models)
    if dist.max() <= thresh:
        gamma = _max_step(offsets, dist, ascent, thresh, thresh)
        omega = omega_raw + gamma * ascent
    else:
        centroid = models.mean(axis=0)
        offsets, dist = _offsets(centroid, models)
        pull_t = 1.0  # best effort; flagged through constraint_ok
        if dist.max() <= thresh:
            pull_t = 1.0 - _max_step(offsets, dist, omega_raw - centroid, thresh, 1.0)
        omega = (1.0 - pull_t) * omega_raw + pull_t * centroid

    if diag is not None:
        diag.gamma_model = gamma
        diag.d_thresh = thresh
        diag.uniform_fallback = uniform_fallback
        diag.centroid_pull = pull_t
        # The slack scales with the radius: one ulp at 1e9 is above 1e-9.
        diag.constraint_ok = _max_distance(omega, models) <= thresh + 1e-9 * max(1.0, thresh)
    return ensure_finite("malicious model", omega)


def run_attack(
    overheard,
    prev_global,
    settings: AttackSettings,
    rngs: Sequence[RngStream],
    projector: Projector,
    device_ids: Sequence[int],
    stage_seconds: dict[str, float] | None = None,
) -> list[tuple[np.ndarray, AttackDiagnostics]]:
    """The per-round pipeline of every attacker that overhears the same
    models (the rows of the overheard block), attacker device_ids[j]
    drawing from rngs[j]: graph construction, encoder training, adversarial
    reconstruction and constrained generation. prev_global is the model
    the server broadcast this round.

    The graph, the ascent direction and the stealth radius depend only
    on what the attackers share, so each is computed once; the encoders
    train as one stack (:func:`train_gae`) and the latents ascend as one
    (:func:`adversarial_reconstruct`). Entry j is attacker j's malicious
    model and its diagnostics, the same as in a group of one. The first
    failure stops the group with a StackFailure whose index is into
    device_ids: the failing entry of a stack, the attacker whose
    generation failed, or 0 (the group's lowest id, ids being ascending)
    for a failure of what the group shares. With fewer than two
    overheard models every attack is skipped and each attacker resubmits
    prev_global. When stage_seconds is given, wall time is added into it
    under "graph build", "gae training", "reconstruction" and
    "generation".
    """
    prev_global = as_params(prev_global)
    if len(overheard) < 2:
        reason = f"only {len(overheard)} overheard models"
        return [
            (prev_global.copy(), AttackDiagnostics(i, skipped=True, skip_reason=reason))
            for i in device_ids
        ]

    failing = 0  # what the group shares fails as its lowest id
    try:
        with timed("graph build", stage_seconds):
            graph = build_graph(overheard, prev_global, projector)
        with timed("gae training", stage_seconds):
            trainings = train_gae(graph, settings, rngs)
        with timed("reconstruction", stage_seconds):
            ascent = estimate_ascent_direction(prev_global, overheard)
            rows = adversarial_reconstruct(graph, [t.latent for t in trainings], ascent, settings)
        with timed("generation", stage_seconds):
            thresh = resolve_threshold(settings, overheard)
            results = []
            for failing, (training, a_adv) in enumerate(zip(trainings, rows)):
                trace = training.loss_trace
                diag = AttackDiagnostics(
                    device_ids[failing], delta_g_initial=trace[0], delta_g_final=trace[-1]
                )
                results.append(
                    (generate_malicious(a_adv, overheard, ascent, thresh, diag=diag), diag)
                )
    except StackFailure:
        raise
    except Exception as exc:
        raise StackFailure(str(exc), failing) from exc
    return results
