"""The communication-round loop: batched local training, attack
execution, aggregation, metrics, and result persistence."""

import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .aggregation import aggregate
from .baselines import gaussian_noise_attack, sign_flip_attack
from .channel import DevicePosition, eavesdrop_set
from .config import SimConfig, config_echo
from .data import Dataset, ShardStack, binarize, load_idx, partition_iid, synth_shards
from .graph_attack import AttackDiagnostics, StackFailure, run_attack
from .metrics import RoundRecord, test_accuracy, trace_summary
from .numerics import Projector, RngStream, ensure_finite, euclidean_distance, timed
from .training import LossKind, require_binary_labels, stack_loss, train_stack

ROUNDS_CSV_COLUMNS = [
    "round", "device_id", "is_malicious", "distance_to_global",
    "local_loss", "test_accuracy_global",
]
ATTACK_DIAG_COLUMNS = [
    "round", "attacker_id", "delta_g_initial", "delta_g_final",
    "gamma_model", "skipped", "d_thresh", "centroid_pull", "uniform_fallback",
    "constraint_ok", "skip_reason",
]


class _Setup(NamedTuple):
    shards: ShardStack
    test_set: Dataset
    # Per attacker, into the shard order, ascending; only for the attacks
    # that read overheard models (avgae, signflip).
    overheard_rows: dict[int, np.ndarray]
    attack_groups: list[list[int]]  # avgae attacker ids by eavesdrop set, ascending
    projector: Projector | None
    device_streams: list[RngStream]  # in shard order
    attacker_streams: dict[int, RngStream]  # ascending id
    global_init: np.ndarray


def _build_shards(cfg: SimConfig) -> tuple[ShardStack, Dataset]:
    """The benign devices' shards and the test set."""
    sizes = cfg.devices.samples_per_device
    partitioner = RngStream(cfg.seed, "partitioner")
    if cfg.dataset.kind == "synthetic":
        d = cfg.dataset.dim
        w_rng = RngStream(cfg.dataset.w_true_seed, "w-true")
        w_true = w_rng.gen.standard_normal(d) * (cfg.dataset.w_scale / math.sqrt(d))
        return synth_shards(
            sizes, cfg.dataset.n_test, d, w_true, RngStream(cfg.seed, "data"), partitioner
        )
    train = binarize(
        load_idx(cfg.dataset.train_images, cfg.dataset.train_labels),
        cfg.dataset.class_a, cfg.dataset.class_b,
    )
    test = binarize(
        load_idx(cfg.dataset.test_images, cfg.dataset.test_labels),
        cfg.dataset.class_a, cfg.dataset.class_b,
    )
    return partition_iid(train, sizes, partitioner), test


def _build_datasets(cfg: SimConfig) -> tuple[Dataset, Dataset]:
    """The pooled training set, device by device, and the test set."""
    shards, test = _build_shards(cfg)
    held = np.arange(shards.x.shape[1]) < shards.counts[:, None]
    return Dataset(shards.x[held], shards.y[held]), test


def _draw_positions(
    cfg: SimConfig, attacker_ids: list[int]
) -> tuple[dict[int, DevicePosition], dict[int, DevicePosition]]:
    benign_ids = list(range(1, cfg.devices.n_benign + 1))
    if cfg.positions.mode == "explicit":
        benign = {
            i: DevicePosition(*cfg.positions.benign[k]) for k, i in enumerate(benign_ids)
        }
        attackers = {
            i: DevicePosition(*cfg.positions.attackers[k])
            for k, i in enumerate(attacker_ids)
        }
        return benign, attackers
    rng = RngStream(cfg.seed, "positions")

    def draw() -> DevicePosition:
        x = rng.gen.uniform(*cfg.positions.x_range)
        y = rng.gen.uniform(*cfg.positions.y_range)
        z = rng.gen.uniform(*cfg.positions.z_range)
        return DevicePosition(x, y, z)

    benign = {i: draw() for i in benign_ids}
    attackers = {i: draw() for i in attacker_ids}
    return benign, attackers


def _setup(cfg: SimConfig) -> _Setup:
    shards, test = _build_shards(cfg)
    if cfg.loss == LossKind.LOGISTIC:
        # Checked once per run; the per-round stack_loss does not. The
        # stack's padding is 0, a valid label.
        for split, y in (("training", shards.y), ("test", test.y)):
            require_binary_labels(y, f"{cfg.dataset.kind} {split} set")
    n_benign = cfg.devices.n_benign
    attacker_ids = list(range(n_benign + 1, n_benign + cfg.devices.n_malicious + 1))

    dim = shards.x.shape[2]
    projector = None
    avgae = cfg.attack.avgae
    if cfg.attack.kind == "avgae" and cfg.devices.n_malicious > 0:
        if avgae.identity_projection:
            projector = Projector.identity(dim)
        else:
            projector = Projector.random(dim, avgae.d_feat, RngStream(cfg.seed, "projector"))

    if cfg.global_init.kind == "zeros":
        init = np.zeros(dim)
    else:
        init = RngStream(cfg.seed, "global-init").gen.standard_normal(dim) * cfg.global_init.std

    # Positions are fixed for the whole run, so each attacker's
    # eavesdrop set is too: the same rows of every round's local models.
    # Only the graph and sign-flip attacks read them; "positions" is its
    # own stream, so skipping the draw moves no other one.
    overheard_rows: dict[int, np.ndarray] = {}
    if cfg.attack.kind in ("avgae", "signflip"):
        benign_pos, attacker_pos = _draw_positions(cfg, attacker_ids)
        overheard_rows = {
            i: np.searchsorted(
                shards.device_ids,
                sorted(eavesdrop_set(benign_pos, pos, cfg.channel)),
            )
            for i, pos in attacker_pos.items()
        }
    # Attackers that overhear the same devices build the same graph every
    # round, so the graph attack runs each such group as one.
    groups: dict[tuple[int, ...], list[int]] = {}
    if cfg.attack.kind == "avgae":
        for i in attacker_ids:
            groups.setdefault(tuple(overheard_rows[i].tolist()), []).append(i)
    device_streams = [RngStream(cfg.seed, f"device-{i}") for i in shards.device_ids]
    attacker_streams = {i: RngStream(cfg.seed, f"attacker-{i}") for i in attacker_ids}
    return _Setup(
        shards=shards, test_set=test, overheard_rows=overheard_rows,
        attack_groups=list(groups.values()), projector=projector,
        device_streams=device_streams, attacker_streams=attacker_streams, global_init=init,
    )


@contextmanager
def _stage(name: str, seconds: dict[str, float] | None, round_index: int | None = None,
           detail: str = ""):
    """Prefix any failure with the round and stage, and add the stage's
    wall time into seconds[name] when a dict is given."""
    with timed(name, seconds):
        try:
            yield
        except Exception as exc:
            at = "" if round_index is None else f"round {round_index}, "
            raise RuntimeError(f"{at}stage {name}{detail}: {exc}") from exc


def run_simulation(
    cfg: SimConfig, stage_seconds: dict[str, float] | None = None
) -> list[RoundRecord]:
    """Execute the full round loop and return the per-round trace.

    Every benign device trains in one batched step per iteration, split
    into cfg.workers contiguous chunks on threads; all reductions use
    ascending device id so the trace is identical at any worker count.
    Graph-autoencoder attackers run one group per eavesdrop set, in
    order of the group's lowest id, their encoders trained as one stack.
    A failure in any stage aborts with the round index and stage name; a
    graph attack failure names the attacker that run_attack reports, and
    the later groups of that round do not run. When stage_seconds is
    given, each stage's wall time is added into it under the stage name,
    with the graph attack split into its own stages.
    """
    with _stage("setup", stage_seconds):
        setup = _setup(cfg)
    shards = setup.shards
    attacker_ids = list(setup.attacker_streams)
    # Row k of every round's model block is device device_ids[k]: benign
    # devices, then attackers, each in ascending id.
    device_ids = np.array([*shards.device_ids, *attacker_ids])
    is_malicious = np.arange(len(device_ids)) >= len(shards)
    b_a = cfg.devices.attacker_reported_samples
    counts = np.concatenate([shards.counts, np.full(len(attacker_ids), b_a)])
    global_params = setup.global_init.copy()
    records: list[RoundRecord] = []

    for round_index in range(1, cfg.rounds + 1):
        with _stage("local training", stage_seconds, round_index):
            local_models = train_stack(
                cfg.loss, global_params, shards, cfg.training,
                setup.device_streams, cfg.workers,
            )

        diagnostics: list[AttackDiagnostics] = []
        attacker_models: list[np.ndarray] = []  # in attacker_ids order
        attack = cfg.attack
        graph_results: dict[int, tuple[np.ndarray, AttackDiagnostics]] = {}
        if attack.kind == "avgae":
            for ids in setup.attack_groups:
                try:
                    graph_results.update(zip(ids, run_attack(
                        local_models[setup.overheard_rows[ids[0]]], global_params, attack.avgae,
                        [setup.attacker_streams[i] for i in ids], setup.projector, ids,
                        stage_seconds,
                    )))
                except StackFailure as exc:
                    # Raised again in the attack stage of the attacker it names.
                    with _stage("attack", None, round_index, f" (device {ids[exc.index]})"):
                        raise
        # The graph attack timed its own stages above.
        attack_seconds = None if attack.kind == "avgae" else stage_seconds
        for attacker_id in attacker_ids:
            with _stage("attack", attack_seconds, round_index, f" (device {attacker_id})"):
                diag = None
                if attack.kind == "avgae":
                    params, diag = graph_results[attacker_id]
                elif attack.kind == "gaussian":
                    params = gaussian_noise_attack(
                        global_params, attack.gaussian.sigma, setup.attacker_streams[attacker_id]
                    )
                else:  # signflip; attackers never run under kind "none"
                    diag = AttackDiagnostics(attacker_id=attacker_id)
                    overheard = local_models[setup.overheard_rows[attacker_id]]
                    if len(overheard):
                        params = sign_flip_attack(overheard.mean(axis=0), attack.signflip.scale)
                    else:
                        diag.skipped = True
                        diag.skip_reason = "no overheard models"
                        params = global_params.copy()
                attacker_models.append(params)
                if diag is not None:
                    diagnostics.append(diag)

        with _stage("aggregation", stage_seconds, round_index):
            models = np.vstack([local_models, *attacker_models])
            new_global = aggregate(models, counts)

        with _stage("metrics", stage_seconds, round_index):
            losses = np.full(len(device_ids), np.nan)  # attackers hold no data
            losses[: len(shards)] = ensure_finite(
                "local loss", stack_loss(cfg.loss, local_models, shards, cfg.training.alpha)
            )
            distances = euclidean_distance(models, new_global)
            accuracy = test_accuracy(cfg.loss, new_global, setup.test_set)

        records.append(RoundRecord(
            round_index=round_index,
            global_params=new_global,
            device_ids=device_ids,
            is_malicious=is_malicious,
            models=models,
            distance_to_global=distances,
            local_loss=losses,
            test_accuracy=accuracy,
            attack_diagnostics=diagnostics,
        ))
        global_params = new_global

    return records


@contextmanager
def _writing(path: Path, newline: str | None = None):
    """Write path through a temporary file beside it that replaces path
    when the block completes and is removed if it fails."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def emit_outputs(
    records: list[RoundRecord],
    cfg: SimConfig,
    elapsed_seconds: float | None = None,
    stage_seconds: dict[str, float] | None = None,
) -> dict[str, Path]:
    """Write rounds.csv, summary.json, attack_diag.csv (when the graph
    attack ran; otherwise any earlier one is removed), and run_meta.json
    into cfg.output_dir, each through a temporary file that replaces it
    whole.

    Everything except run_meta.json is a deterministic function of
    (config, seed); timing lives only in run_meta.json so the other
    files are byte-reproducible. When stage_seconds is given, the time
    spent writing the other files is added into it under "emit" before
    run_meta.json records it.
    """
    if not records:
        raise ValueError("emit_outputs needs at least one round")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    with timed("emit", stage_seconds):
        rounds_path = out / "rounds.csv"
        # The rows csv.writer would write: no field here ever needs quoting.
        with _writing(rounds_path, newline="") as fh:
            fh.write(",".join(ROUNDS_CSV_COLUMNS) + "\r\n")
            for record in records:
                accuracy = repr(float(record.test_accuracy))
                fh.writelines(
                    f"{record.round_index},{device},{int(bad)},{dist!r},{loss!r},{accuracy}\r\n"
                    for device, bad, dist, loss in zip(
                        record.device_ids.tolist(), record.is_malicious.tolist(),
                        record.distance_to_global.tolist(), record.local_loss.tolist(),
                    )
                )
        written["rounds"] = rounds_path

        summary = {
            "config": config_echo(cfg),
            "rounds_completed": len(records),
            **trace_summary(records, last_k=20),
        }
        summary_path = out / "summary.json"
        with _writing(summary_path) as fh:
            json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        written["summary"] = summary_path

        diag_path = out / "attack_diag.csv"
        if cfg.attack.kind == "avgae" and cfg.devices.n_malicious > 0:
            # The rows csv.writer would write: floats are written as repr,
            # flags as 0/1, and no skip reason holds a comma or a quote, so
            # no field ever needs quoting.
            with _writing(diag_path, newline="") as fh:
                fh.write(",".join(ATTACK_DIAG_COLUMNS) + "\r\n")
                for record in records:
                    fh.writelines(
                        f"{record.round_index},{d.attacker_id},{float(d.delta_g_initial)!r},"
                        f"{float(d.delta_g_final)!r},{float(d.gamma_model)!r},{int(d.skipped)},"
                        f"{float(d.d_thresh)!r},{float(d.centroid_pull)!r},"
                        f"{int(d.uniform_fallback)},{int(d.constraint_ok)},{d.skip_reason}\r\n"
                        for d in record.attack_diagnostics
                    )
            written["attack_diag"] = diag_path
        else:
            # An earlier run's file would read as this run's.
            diag_path.unlink(missing_ok=True)

    meta_path = out / "run_meta.json"
    with _writing(meta_path) as fh:
        json.dump(
            {
                "wall_clock_seconds": elapsed_seconds,
                "stage_seconds": stage_seconds,
                "workers": cfg.workers,
                "output_dir": str(out),
            },
            fh, indent=2, allow_nan=False,
        )
        fh.write("\n")
    written["run_meta"] = meta_path
    return written
