"""The communication-round loop: batched local training, attack
execution, aggregation, metrics, and result persistence."""

from __future__ import annotations

import csv
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aggregation import ReportedUpdate, aggregate
from .baselines import gaussian_noise_attack, sign_flip_attack
from .channel import DevicePosition, eavesdrop_set
from .config import SimConfig, config_echo
from .data import Dataset, ShardStack, binarize, load_idx, partition_iid, synth_logistic
from .graph_attack import AttackDiagnostics, run_attack
from .metrics import DeviceRecord, RoundRecord, test_accuracy, trace_summary
from .numerics import Projector, RngStream, ensure_finite, euclidean_distance
from .training import stack_loss, train_stack

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
    projector: Projector | None
    device_streams: list[RngStream]  # in shard order
    attacker_streams: dict[int, RngStream]
    global_init: np.ndarray


def _build_datasets(cfg: SimConfig) -> tuple[Dataset, Dataset]:
    total_train = sum(cfg.samples_per_device)
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
    benign_ids = list(range(1, cfg.n_benign + 1))
    attacker_ids = list(range(cfg.n_benign + 1, cfg.n_benign + cfg.n_malicious + 1))
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
    shards = partition_iid(
        train, cfg.n_benign, cfg.samples_per_device, RngStream(cfg.seed, "partitioner")
    )
    benign_pos, attacker_pos = _draw_positions(cfg)

    dim = train.dim
    projector = None
    if cfg.attack_kind == "avgae" and cfg.n_malicious > 0:
        if cfg.avgae.identity_projection:
            projector = Projector.identity(dim)
        else:
            projector = Projector.random(dim, cfg.avgae.d_feat, RngStream(cfg.seed, "projector"))

    if cfg.global_init_kind == "zeros":
        init = np.zeros(dim)
    else:
        init = RngStream(cfg.seed, "global-init").gen.standard_normal(dim) * cfg.global_init_std

    # Positions are fixed for the whole run, so each attacker's
    # eavesdrop set is too.
    overheard_ids = {
        i: sorted(eavesdrop_set(benign_pos, pos, cfg.channel, cfg.snr_min))
        for i, pos in attacker_pos.items()
    }
    device_streams = [RngStream(cfg.seed, f"device-{i}") for i in shards.device_ids]
    attacker_streams = {i: RngStream(cfg.seed, f"attacker-{i}") for i in attacker_pos}
    return _Setup(
        shards=shards, test_set=test, overheard_ids=overheard_ids,
        projector=projector, device_streams=device_streams,
        attacker_streams=attacker_streams, global_init=init,
    )


@contextmanager
def _stage(name: str, seconds: dict[str, float] | None, round_index: int | None = None,
           detail: str = ""):
    """Prefix any failure with the round and stage, and add the stage's
    wall time into seconds[name] when a dict is given."""
    start = time.perf_counter()
    try:
        yield
    except Exception as exc:
        at = "" if round_index is None else f"round {round_index}, "
        raise RuntimeError(f"{at}stage {name}{detail}: {exc}") from exc
    finally:
        if seconds is not None:
            seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - start


def run_simulation(
    cfg: SimConfig, stage_seconds: dict[str, float] | None = None
) -> list[RoundRecord]:
    """Execute the full round loop and return the per-round trace.

    Every benign device trains in one batched step per iteration, split
    into cfg.workers contiguous chunks on threads; all reductions use
    ascending device id so the trace is identical at any worker count.
    A failure in any stage aborts with the round index and stage name.
    When stage_seconds is given, each stage's wall time is added into it
    under the stage name.
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
        for attacker_id in attacker_ids:
          with _stage("attack", stage_seconds, round_index, f" (device {attacker_id})"):
            overheard = [locals_by_id[i] for i in setup.overheard_ids[attacker_id]]
            b_a = cfg.attacker_reported_samples
            if cfg.attack_kind == "avgae":
                result = run_attack(
                    overheard, global_params, global_history,
                    cfg.avgae, setup.attacker_streams[attacker_id],
                    setup.projector, b_a, attacker_id,
                )
                updates.append(result.update)
                attacker_models[attacker_id] = result.update.params
                diagnostics.append(result.diagnostics)
            elif cfg.attack_kind == "gaussian":
                params = gaussian_noise_attack(
                    global_params, cfg.gaussian_sigma, setup.attacker_streams[attacker_id]
                )
                updates.append(ReportedUpdate(attacker_id, params, b_a, is_malicious=True))
                attacker_models[attacker_id] = params
            elif cfg.attack_kind == "signflip":
                diag = AttackDiagnostics(attacker_id=attacker_id)
                if overheard:
                    params = sign_flip_attack(
                        np.mean(np.stack(overheard), axis=0), cfg.signflip_scale
                    )
                else:
                    diag.skipped = True
                    diag.skip_reason = "no overheard models"
                    params = global_params.copy()
                updates.append(ReportedUpdate(attacker_id, params, b_a, is_malicious=True))
                attacker_models[attacker_id] = params
                diagnostics.append(diag)

        with _stage("aggregation", stage_seconds, round_index):
            new_global = aggregate(updates)

        with _stage("metrics", stage_seconds, round_index):
            losses = ensure_finite(
                "local loss", stack_loss(cfg.loss, local_models, shards, cfg.training.alpha)
            )
            per_device = [
                DeviceRecord(
                    device_id=i, is_malicious=False, local=local_models[k],
                    distance_to_global=euclidean_distance(local_models[k], new_global),
                    local_loss=float(losses[k]),
                )
                for k, i in enumerate(benign_ids)
            ]
            for attacker_id in attacker_ids:
                params = attacker_models[attacker_id]
                per_device.append(DeviceRecord(
                    device_id=attacker_id, is_malicious=True, local=params,
                    distance_to_global=euclidean_distance(params, new_global),
                    local_loss=float("nan"),  # the attacker holds no data
                ))
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


def emit_outputs(
    records: list[RoundRecord],
    cfg: SimConfig,
    out_dir: str | None = None,
    elapsed_seconds: float | None = None,
    stage_seconds: dict[str, float] | None = None,
) -> dict[str, Path]:
    """Write rounds.csv, summary.json, attack_diag.csv (when the graph
    attack ran), and run_meta.json.

    Everything except run_meta.json is a deterministic function of
    (config, seed); timing lives only in run_meta.json so the other
    files are byte-reproducible.
    """
    if not records:
        raise ValueError("emit_outputs needs at least one round")
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}

    rounds_path = out / "rounds.csv"
    with open(rounds_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROUNDS_CSV_COLUMNS)
        for record in records:
            for device in record.per_device:
                writer.writerow([
                    record.round_index,
                    device.device_id,
                    int(device.is_malicious),
                    repr(float(device.distance_to_global)),
                    repr(float(device.local_loss)),
                    repr(float(record.test_accuracy)),
                ])
    written["rounds"] = rounds_path

    summary = {
        "config": config_echo(cfg),
        "rounds_completed": len(records),
        **trace_summary(records, last_k=20),
    }
    summary_path = out / "summary.json"
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    written["summary"] = summary_path

    if cfg.attack_kind == "avgae" and cfg.n_malicious > 0:
        diag_path = out / "attack_diag.csv"
        with open(diag_path, "w", newline="") as fh:
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
    with open(meta_path, "w") as fh:
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
