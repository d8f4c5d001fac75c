"""The communication-round loop: local training, eavesdropping, attack
execution, aggregation, broadcast, and result persistence."""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aggregation import ReportedUpdate, aggregate, broadcast
from .baselines import gaussian_noise_attack, sign_flip_attack
from .channel import DevicePosition, eavesdrop_set
from .config import SimConfig, config_echo
from .data import Dataset, LocalDataset, binarize, load_idx, partition_iid, synth_logistic
from .graph_attack import AttackDiagnostics, run_attack
from .metrics import DeviceRecord, RoundRecord, test_accuracy, trace_summary
from .numerics import Projector, RngStream, euclidean_distance
from .training import local_loss, train_local

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
    shards: list[LocalDataset]
    test_set: Dataset
    benign_positions: dict[int, DevicePosition]
    attacker_positions: dict[int, DevicePosition]
    projector: Projector | None
    device_streams: dict[int, RngStream]
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

    device_streams = {i: RngStream(cfg.seed, f"device-{i}") for i in benign_pos}
    attacker_streams = {i: RngStream(cfg.seed, f"attacker-{i}") for i in attacker_pos}
    return _Setup(
        shards=shards, test_set=test,
        benign_positions=benign_pos, attacker_positions=attacker_pos,
        projector=projector, device_streams=device_streams,
        attacker_streams=attacker_streams, global_init=init,
    )


@contextmanager
def _stage(round_index: int, name: str):
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"round {round_index}, stage {name}: {exc}") from exc


def run_simulation(cfg: SimConfig) -> list[RoundRecord]:
    """Execute the full round loop and return the per-round trace.

    Within a round, device training may run on cfg.workers threads; all
    reductions use ascending device id so the trace is identical at any
    worker count. A failure in any stage aborts with the round index and
    stage name.
    """
    setup = _setup(cfg)
    n, h = cfg.n_benign, cfg.n_malicious
    attacker_ids = sorted(setup.attacker_positions)
    shard_by_id = {s.device_id: s for s in setup.shards}

    received = broadcast(setup.global_init, n + h)
    start_models = {i: received[k] for k, i in enumerate(range(1, n + h + 1))}
    global_params = setup.global_init.copy()
    global_history = [setup.global_init.copy()]
    records: list[RoundRecord] = []

    for round_index in range(1, cfg.rounds + 1):
        def train_device(device_id: int) -> tuple[int, np.ndarray]:
            local = train_local(
                cfg.loss, start_models[device_id], shard_by_id[device_id],
                cfg.training, setup.device_streams[device_id],
            )
            return device_id, local

        benign_ids = sorted(shard_by_id)
        with _stage(round_index, "local training"):
            if cfg.workers > 1:
                with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
                    results = list(pool.map(train_device, benign_ids))
            else:
                results = [train_device(i) for i in benign_ids]
        locals_by_id = dict(results)

        updates = [
            ReportedUpdate(
                device_id=i, params=locals_by_id[i],
                reported_samples=shard_by_id[i].size, is_malicious=False,
            )
            for i in benign_ids
        ]

        diagnostics: list[AttackDiagnostics] = []
        attacker_models: dict[int, np.ndarray] = {}
        for attacker_id in attacker_ids:
          with _stage(round_index, f"attack (device {attacker_id})"):
            overheard_ids = sorted(
                eavesdrop_set(
                    setup.benign_positions, setup.attacker_positions[attacker_id],
                    cfg.channel, cfg.snr_min,
                )
            )
            overheard = [locals_by_id[i] for i in overheard_ids]
            b_a = cfg.attacker_reported_samples
            if cfg.attack_kind == "avgae":
                result = run_attack(
                    overheard, start_models[attacker_id], global_history,
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
                    params = start_models[attacker_id].copy()
                updates.append(ReportedUpdate(attacker_id, params, b_a, is_malicious=True))
                attacker_models[attacker_id] = params
                diagnostics.append(diag)

        new_global = aggregate(updates)

        per_device = []
        for i in benign_ids:
            per_device.append(DeviceRecord(
                device_id=i, is_malicious=False, local=locals_by_id[i],
                distance_to_global=euclidean_distance(locals_by_id[i], new_global),
                local_loss=local_loss(cfg.loss, locals_by_id[i], shard_by_id[i], cfg.training.alpha),
            ))
        for attacker_id in attacker_ids:
            params = attacker_models[attacker_id]
            per_device.append(DeviceRecord(
                device_id=attacker_id, is_malicious=True, local=params,
                distance_to_global=euclidean_distance(params, new_global),
                local_loss=float("nan"),  # the attacker holds no data
            ))

        records.append(RoundRecord(
            round_index=round_index,
            global_params=new_global,
            per_device=per_device,
            test_accuracy=test_accuracy(cfg.loss, new_global, setup.test_set),
            attack_diagnostics=diagnostics,
        ))

        received = broadcast(new_global, n + h)
        start_models = {i: received[k] for k, i in enumerate(range(1, n + h + 1))}
        global_params = new_global
        global_history.append(new_global.copy())

    return records


def emit_outputs(
    records: list[RoundRecord],
    cfg: SimConfig,
    out_dir: str | None = None,
    elapsed_seconds: float | None = None,
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
                "workers": cfg.workers,
                "output_dir": str(out),
            },
            fh, indent=2, allow_nan=False,
        )
        fh.write("\n")
    written["run_meta"] = meta_path
    return written
