"""The sha256 of every deterministic output file, per run.

Pins rounds.csv, summary.json and, where written, attack_diag.csv of
the shipped synthetic configs at seeds 0-2, two 784-dim graph-attack
runs and a FashionMNIST run on generated IDX files. Different numpy or
BLAS builds can move low bits, so the table holds for one build and the
test skips on any other. A change that moves outputs re-records the
table by copying the digests that the failure message prints.
"""

import gzip
import hashlib
from pathlib import Path

import numpy as np
import pytest

from edgefl.config import validate_config
from edgefl.simulation import emit_outputs, run_simulation

from test_data import write_idx_images, write_idx_labels

ROOT = Path(__file__).resolve().parents[1]
FILES = ("rounds.csv", "summary.json", "attack_diag.csv")


def _build():
    """numpy's version and its BLAS's name, version and configuration,
    which names the core that a DYNAMIC_ARCH OpenBLAS runs on."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (
        np.__version__, blas.get("name"), blas.get("version"),
        blas.get("openblas configuration"),
    )


BUILD = (
    "2.4.6", "scipy-openblas", "0.3.31.188.0",
    "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64",
)

CASES = {
    **{
        f"{name} seed {seed}": (name, [f"seed={seed}"])
        for name in ("synthetic_avgae", "synthetic_control", "synthetic_gaussian")
        for seed in (0, 1, 2)
    },
    # The run of test_shipped_attack_completes_when_every_decoded_weight_underflows.
    "synthetic_avgae 784 underflow": ("synthetic_avgae", [
        "dataset.dim=784", "devices.n_malicious=8", "devices.samples_per_device=20",
        "seed=0", "rounds=50", "attack.avgae.d_thresh_percentile=90",
    ]),
    "synthetic_avgae 50 x 784": ("synthetic_avgae", [
        "dataset.dim=784", "devices.n_benign=50", "rounds=3",
    ]),
    "fashion_avgae generated": ("fashion_avgae", [
        "rounds=3", "devices.samples_per_device=50",
    ]),
}

DIGESTS = {
    "synthetic_avgae seed 0": {
        "rounds.csv": "d32ad425d766229d5512a53f0c199752876544ee391fe25ee343bd56d03ec0e2",
        "summary.json": "05c8b0a9ae5a18b7b70bc5d39529ee1e916127e0b8cfd9bb8728b80f3e982f75",
        "attack_diag.csv": "8d30b5352d1c3e54f86714f0b768c9404cdd92bc4ab098f33079c28134e975ea",
    },
    "synthetic_avgae seed 1": {
        "rounds.csv": "daf23273772f911ad6ec91bd61bce6d74f07572b717e933b422578831dd5d7ea",
        "summary.json": "adfa94c84ef34cf44b5ebe69681acbe642e0c670318fd397daa60034df4bf381",
        "attack_diag.csv": "0898ea14f49d08fe5e2dcceabdb933feb49222413391aa6f49836e9ec6151a7b",
    },
    "synthetic_avgae seed 2": {
        "rounds.csv": "679bc0c2b0502f1da1166f3e3bf1c56379cd2485fa8d3fe0596493ccafe1a3d0",
        "summary.json": "c95194da59d602160d13672500c9624423536e987c55bf1d39907207ad614114",
        "attack_diag.csv": "8c04cfc81530faf86925d35032e2e79a0cc6dd3a542da67ed607c07b26287fbe",
    },
    "synthetic_control seed 0": {
        "rounds.csv": "d58aeeb2f16ea29b212e006b04d9b30dc422679b2225dc50c845785933c52ef1",
        "summary.json": "04198478e84cca0e37527bb853b362a4e585d7c436c562c8a1b22aa9e1ff5ed7",
    },
    "synthetic_control seed 1": {
        "rounds.csv": "31bb7f21b8f429bae28d9be6bfb69a16d4de7f2835f548bade0ccbb5e02b932a",
        "summary.json": "2522e4791ddb12438ea4c172c0377196cf449227b525b81b8cc6a91da5625fa2",
    },
    "synthetic_control seed 2": {
        "rounds.csv": "59610ffaf6f003e6defb8ea990d84552df4a9020ca8ad94f6cca4ccbaa0a85b3",
        "summary.json": "c0c4c512132eb333b7ebe0d4cd6c762a68ed54366a08e812161e699b7e4130e3",
    },
    "synthetic_gaussian seed 0": {
        "rounds.csv": "575e97d636d0f3fe79c337c05b055e1359cf4000cb3cdc1cad87746ee550ce82",
        "summary.json": "01c5b423ba7f34a6962bb003b08eb3bf2f8a9df0af3504df36340a59edd919d0",
    },
    "synthetic_gaussian seed 1": {
        "rounds.csv": "d542b14b9addbc5233835e171374f217366f15294e642eb8deb0e1bc15f55cd4",
        "summary.json": "532bebbac933c6950a25f5e38bac94406dc64b30e9e9054ababf707afd681584",
    },
    "synthetic_gaussian seed 2": {
        "rounds.csv": "ef8e44f9592276f781e66c4847bf0671e396c87d1898db7d189a7cb0531a0ba8",
        "summary.json": "8dee45ba5a3b8305311216cfa07d5673b9ac1e1d5c5b6494e62c941ed42c771f",
    },
    "synthetic_avgae 784 underflow": {
        "rounds.csv": "f1293c92fff657e261b7a7d45a6a1c0b481329a5cdcc1261e524cca6ffea6f6f",
        "summary.json": "d5a98061e6e1280e38aea22934da1ddf47ad8c52c4c8b2e0e594d2cd0f31ad29",
        "attack_diag.csv": "119415824c05b58be73f1b8509f2d1492594dbefc2b25390cbb321b51c25f6c7",
    },
    "synthetic_avgae 50 x 784": {
        "rounds.csv": "f4a3ca218a2a0c841593e0e1766e80f2139d60138922c4005d317237517d996d",
        "summary.json": "5ca1bd1d9773010900b508015142d743ed018ceb97cc48d5e05bc60bf23d504c",
        "attack_diag.csv": "c313c3ef1c7bb9ddf10c26e304f8aff0401e4e46ef41be7fee2367ed5e1fe620",
    },
    "fashion_avgae generated": {
        "rounds.csv": "dd6ce0aef7b8971aad53f5ffd3190cbc8c2ba0e8812049af27c00f13323a4adc",
        "summary.json": "98225e2bc2dec1dc381e67a8888dd4ff1a43035727f54d3bee3cfbb4b933b990",
        "attack_diag.csv": "53437d3ef07e117c741775727f7c8d82415ce4f286bfcf6aeb19721b8055cf5e",
    },
}


def _write_fashion_files():
    """Generated 28x28 IDX files, gzipped, at the paths that
    configs/fashion_avgae.yaml names, relative to the working directory:
    classes 0 and 9 are kept, class 3 is dropped."""
    rng = np.random.default_rng(0)
    root = Path("data", "fashion-mnist")
    root.mkdir(parents=True)
    for prefix, n in (("train", 400), ("t10k", 60)):
        raw = {
            "images-idx3-ubyte": (write_idx_images, rng.integers(0, 256, size=(n, 28, 28))),
            "labels-idx1-ubyte": (write_idx_labels, np.resize([0, 3, 9], n)),
        }
        for name, (write, array) in raw.items():
            plain = root / f"{prefix}-{name}"
            write(plain, array)
            (root / f"{plain.name}.gz").write_bytes(gzip.compress(plain.read_bytes(), mtime=0))


@pytest.mark.skipif(
    _build() != BUILD, reason=f"digests are recorded on numpy/BLAS {BUILD}, not {_build()}"
)
@pytest.mark.parametrize("case", list(CASES))
def test_outputs_match_their_recorded_digests(case, tmp_path, monkeypatch):
    config, overrides = CASES[case]
    monkeypatch.chdir(tmp_path)
    if config == "fashion_avgae":
        _write_fashion_files()
    text = (ROOT / "configs" / f"{config}.yaml").read_text()
    cfg = validate_config(text, [*overrides, "output_dir=out"])
    emit_outputs(run_simulation(cfg), cfg)
    got = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in FILES if (tmp_path / "out" / name).exists()
    }
    entry = "".join(f'        "{name}": "{digest}",\n' for name, digest in got.items())
    assert got == DIGESTS.get(case), (
        f"outputs of {case!r} moved; if that is intended, record them in DIGESTS:\n"
        f'    "{case}": {{\n{entry}    }},'
    )
