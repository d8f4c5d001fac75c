"""The communication-round loop: batched local training, attack
execution, aggregation, metrics, and result persistence."""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aggregation import ReportedUpdate, aggregate
from .baselines import gaussian_noise_attack, sign_flip_attack
from .channel import DevicePosition, eavesdrop_set
from .config import SimConfig, config_echo
from .data import Dataset, ShardStack, binarize, load_idx, partition_iid, synth_logistic
from .graph_attack import AttackDiagnostics, AttackResult, run_attack
from .metrics import DeviceRecord, RoundRecord, test_accuracy, trace_summary
from .numerics import Projector, RngStream, ensure_finite, euclidean_distance, timed
from .training import LossKind, require_binary_labels, stack_loss, train_stack

ROUNDS_CSV_COLUMNS = [
    "round", "device_id", "is_malicious", "distance_to_global",
    "local_loss", "test_accuracy_global",
]
ATTACK_DIAG_COLUMNS = [
    "round", "attacker_id", "delta_g_initial", "delta_g_final",
    "gamma_model", "skipped",
]


@dataclass
class _Setup:
    shards: ShardStack
    test_set: Dataset
    overheard_ids: dict[int, list[int]]  # per attacker, ascending
    attack_groups: list[list[int]]  # attacker ids by eavesdrop set, ascending
    projector: Projector | None
    device_streams: list[RngStream]  # in shard order
    attacker_streams: dict[int, RngStream]
    global_init: np.ndarray


def _build_datasets(cfg: SimConfig) -> tuple[Dataset, Dataset]:
    total_train = sum(cfg.devices.samples_per_device)
    if cfg.dataset.kind == "synthetic":
        d = cfg.dataset.dim
        w_rng = RngStream(cfg.dataset.w_true_seed, "w-true")
        w_true = w_rng.gen.standard_normal(d) * (cfg.dataset.w_scale / math.sqrt(d))
        pool = synth_logistic(
            total_train + cfg.dataset.n_test, d, w_true, RngStream(cfg.seed, "data")
        )
        train = pool.subset(np.arange(total_train))
        test = pool.subset(np.arange(total_train, len(pool)))
        return train, test
    train = binarize(
        load_idx(cfg.dataset.train_images, cfg.dataset.train_labels),
        cfg.dataset.class_a, cfg.dataset.class_b,
    )
    test = binarize(
        load_idx(cfg.dataset.test_images, cfg.dataset.test_labels),
        cfg.dataset.class_a, cfg.dataset.class_b,
    )
    return train, test


def _draw_positions(cfg: SimConfig) -> tuple[dict[int, DevicePosition], dict[int, DevicePosition]]:
    n_benign, n_malicious = cfg.devices.n_benign, cfg.devices.n_malicious
    benign_ids = list(range(1, n_benign + 1))
    attacker_ids = list(range(n_benign + 1, n_benign + n_malicious + 1))
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
    train, test = _build_datasets(cfg)
    if cfg.loss == LossKind.LOGISTIC:
        # Checked once per run; the per-round stack_loss does not.
        for split, ds in (("training", train), ("test", test)):
            require_binary_labels(ds.y, f"{cfg.dataset.kind} {split} set")
    shards = partition_iid(
        train, cfg.devices.n_benign, cfg.devices.samples_per_device,
        RngStream(cfg.seed, "partitioner"),
    )
    benign_pos, attacker_pos = _draw_positions(cfg)

    dim = train.dim
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
    # eavesdrop set is too.
    overheard_ids = {
        i: sorted(eavesdrop_set(benign_pos, pos, cfg.channel, cfg.channel.snr_min))
        for i, pos in attacker_pos.items()
    }
    # Attackers that overhear the same devices build the same graph every
    # round, so the graph attack runs each such group as one.
    groups: dict[tuple[int, ...], list[int]] = {}
    for i in sorted(overheard_ids):
        groups.setdefault(tuple(overheard_ids[i]), []).append(i)
    device_streams = [RngStream(cfg.seed, f"device-{i}") for i in shards.device_ids]
    attacker_streams = {i: RngStream(cfg.seed, f"attacker-{i}") for i in attacker_pos}
    return _Setup(
        shards=shards, test_set=test, overheard_ids=overheard_ids,
        attack_groups=list(groups.values()),
        projector=projector, device_streams=device_streams,
        attacker_streams=attacker_streams, global_init=init,
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
    Graph-autoencoder attackers run one group per eavesdrop set, their
    encoders trained as one stack. A failure in any stage aborts with
    the round index and stage name; among attackers, the lowest id that
    fails is named. When stage_seconds is given, each stage's wall time
    is added into it under the stage name, with the graph attack split
    into its own stages.
    """
    with _stage("setup", stage_seconds):
        setup = _setup(cfg)
    shards = setup.shards
    benign_ids = shards.device_ids
    attacker_ids = sorted(setup.overheard_ids)
    global_params = setup.global_init.copy()
    global_history = [setup.global_init.copy()]
    records: list[RoundRecord] = []

    for round_index in range(1, cfg.rounds + 1):
        with _stage("local training", stage_seconds, round_index):
            local_models = train_stack(
                cfg.loss, global_params, shards, cfg.training,
                setup.device_streams, cfg.workers,
            )
        locals_by_id = dict(zip(benign_ids, local_models))

        updates = [
            ReportedUpdate(
                device_id=i, params=local_models[k],
                reported_samples=int(shards.counts[k]), is_malicious=False,
            )
            for k, i in enumerate(benign_ids)
        ]

        diagnostics: list[AttackDiagnostics] = []
        attacker_models: dict[int, np.ndarray] = {}
        attack, b_a = cfg.attack, cfg.devices.attacker_reported_samples
        # Per graph attacker: its result, or the exception its pipeline raised.
        graph_results: dict[int, AttackResult | Exception] = {}
        if attack.kind == "avgae":
            for ids in setup.attack_groups:
                graph_results.update(zip(ids, run_attack(
                    [locals_by_id[i] for i in setup.overheard_ids[ids[0]]],
                    global_params, global_history, attack.avgae,
                    [setup.attacker_streams[i] for i in ids], setup.projector, b_a, ids,
                    stage_seconds,
                )))
        # The graph attack timed its own stages above.
        attack_seconds = None if attack.kind == "avgae" else stage_seconds
        for attacker_id in attacker_ids:
          with _stage("attack", attack_seconds, round_index, f" (device {attacker_id})"):
            overheard = [locals_by_id[i] for i in setup.overheard_ids[attacker_id]]
            rng = setup.attacker_streams[attacker_id]
            diag = None
            if attack.kind == "avgae":
                result = graph_results[attacker_id]
                if isinstance(result, Exception):
                    raise result
                params, diag = result.update.params, result.diagnostics
            elif attack.kind == "gaussian":
                params = gaussian_noise_attack(global_params, attack.gaussian.sigma, rng)
            else:  # signflip; attackers never run under kind "none"
                diag = AttackDiagnostics(attacker_id=attacker_id)
                if overheard:
                    params = sign_flip_attack(
                        np.mean(np.stack(overheard), axis=0), attack.signflip.scale
                    )
                else:
                    diag.skipped = True
                    diag.skip_reason = "no overheard models"
                    params = global_params.copy()
            updates.append(ReportedUpdate(attacker_id, params, b_a, is_malicious=True))
            attacker_models[attacker_id] = params
            if diag is not None:
                diagnostics.append(diag)

        with _stage("aggregation", stage_seconds, round_index):
            new_global = aggregate(updates)

        with _stage("metrics", stage_seconds, round_index):
            losses = ensure_finite(
                "local loss", stack_loss(cfg.loss, local_models, shards, cfg.training.alpha)
            ).tolist()
            losses += [float("nan")] * len(attacker_ids)  # attackers hold no data
            models = np.vstack([local_models, *(attacker_models[i] for i in attacker_ids)])
            distances = euclidean_distance(models, new_global).tolist()
            per_device = [
                DeviceRecord(
                    device_id=i, is_malicious=k >= len(benign_ids), local=models[k],
                    distance_to_global=distances[k], local_loss=losses[k],
                )
                for k, i in enumerate([*benign_ids, *attacker_ids])
            ]
            accuracy = test_accuracy(cfg.loss, new_global, setup.test_set)

        records.append(RoundRecord(
            round_index=round_index,
            global_params=new_global,
            per_device=per_device,
            test_accuracy=accuracy,
            attack_diagnostics=diagnostics,
        ))
        global_params = new_global
        global_history.append(new_global.copy())

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
    out_dir: str | None = None,
    elapsed_seconds: float | None = None,
    stage_seconds: dict[str, float] | None = None,
) -> dict[str, Path]:
    """Write rounds.csv, summary.json, attack_diag.csv (when the graph
    attack ran), and run_meta.json, each through a temporary file that
    replaces it whole.

    Everything except run_meta.json is a deterministic function of
    (config, seed); timing lives only in run_meta.json so the other
    files are byte-reproducible. When stage_seconds is given, the time
    spent writing the other files is added into it under "emit" before
    run_meta.json records it.
    """
    if not records:
        raise ValueError("emit_outputs needs at least one round")
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
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
                    f"{record.round_index},{d.device_id},{int(d.is_malicious)},"
                    f"{float(d.distance_to_global)!r},{float(d.local_loss)!r},{accuracy}\r\n"
                    for d in record.per_device
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

        if cfg.attack.kind == "avgae" and cfg.devices.n_malicious > 0:
            diag_path = out / "attack_diag.csv"
            with _writing(diag_path, newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(ATTACK_DIAG_COLUMNS)
                for record in records:
                    for diag in record.attack_diagnostics:
                        writer.writerow([
                            record.round_index,
                            diag.attacker_id,
                            repr(float(diag.delta_g_initial)),
                            repr(float(diag.delta_g_final)),
                            repr(float(diag.gamma_model)),
                            int(diag.skipped),
                        ])
            written["attack_diag"] = diag_path

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
