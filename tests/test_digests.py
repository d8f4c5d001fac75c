"""The sha256 of every deterministic output file, per run.

Pins rounds.csv, summary.json and, where written, attack_diag.csv of
the shipped synthetic configs at seeds 0-2, two 784-dim graph-attack
runs and a FashionMNIST run on generated IDX files, and the pooled
training set and test set that the acceptance criteria train on. Different numpy or
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
from edgefl.simulation import _build_datasets, emit_outputs, run_simulation

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
        "rounds.csv": "39084ce74b3c7296753a0ef28f3e80fbe5b5d4604986cdb9380f3c5ddcf5034c",
        "summary.json": "05c8b0a9ae5a18b7b70bc5d39529ee1e916127e0b8cfd9bb8728b80f3e982f75",
        "attack_diag.csv": "5261617f6ad1f06017a20074821a4012b8006b4ac67fc4f0e98015aad6c7a2c2",
    },
    "synthetic_avgae seed 1": {
        "rounds.csv": "2d03e7c245ad8d6a6fc5aaa51dbcbda6bf9a20d8e6bc0f349f9b2161a0265302",
        "summary.json": "adfa94c84ef34cf44b5ebe69681acbe642e0c670318fd397daa60034df4bf381",
        "attack_diag.csv": "d54c21c52f2b6861cb20fe9f0d655b68c0b7b275d65d17ab17cb3d1ae5fa6f7e",
    },
    "synthetic_avgae seed 2": {
        "rounds.csv": "36c580a823b2a64697db1ded7271d8aefeff3525ba799ed05c264b35ebecf147",
        "summary.json": "c95194da59d602160d13672500c9624423536e987c55bf1d39907207ad614114",
        "attack_diag.csv": "887a58f2e62d8dd4b5b582a3062454900bab69d5aa407dfe26aae4e65d3a89f8",
    },
    "synthetic_control seed 0": {
        "rounds.csv": "7bca8bcbf8bd3364e0dba6a45d39ae0d7a382fba80959c6ccef46e58735a9290",
        "summary.json": "04198478e84cca0e37527bb853b362a4e585d7c436c562c8a1b22aa9e1ff5ed7",
    },
    "synthetic_control seed 1": {
        "rounds.csv": "8fdba02b85f2afece82521200045ca4fc0e7242271945ca6f96ae6f83dde2e9e",
        "summary.json": "2522e4791ddb12438ea4c172c0377196cf449227b525b81b8cc6a91da5625fa2",
    },
    "synthetic_control seed 2": {
        "rounds.csv": "fa509d2c3e977b5e2f20bf0e073c0ace0e00fe7b518704e0a51e254e3d4b223e",
        "summary.json": "c0c4c512132eb333b7ebe0d4cd6c762a68ed54366a08e812161e699b7e4130e3",
    },
    "synthetic_gaussian seed 0": {
        "rounds.csv": "f7923b139cefaca68929a62a3a9b4207347f895e14070ad905526d0076342647",
        "summary.json": "01c5b423ba7f34a6962bb003b08eb3bf2f8a9df0af3504df36340a59edd919d0",
    },
    "synthetic_gaussian seed 1": {
        "rounds.csv": "4201c5ba4508a53f8d110ade09f7a2a4ce7d35b1754223fc459661f30b989af5",
        "summary.json": "532bebbac933c6950a25f5e38bac94406dc64b30e9e9054ababf707afd681584",
    },
    "synthetic_gaussian seed 2": {
        "rounds.csv": "526e58e1d62f3db1833d0d2889f747e6651c9dd148b12928cee7f3bfeb5ea497",
        "summary.json": "415d7bf9bd9500d716c80567a6137c2f24e33860d33c38c589d2a26ef417b853",
    },
    "synthetic_avgae 784 underflow": {
        "rounds.csv": "10039cc899c29f23449fa9c4a2ad23862610b3c50d21045e5427021de18c48f3",
        "summary.json": "d217b91ce9b31191d94aff4a2a0c12a6c22e32bd0b555bd8a4567d730071d412",
        "attack_diag.csv": "0e3abfaad37f169480de14b415dd111f8c6b1375af131d58b2066cb1ac2559de",
    },
    "synthetic_avgae 50 x 784": {
        "rounds.csv": "2a6b1092010ecec3980bbde2a95cf75c3ae6fc2e6d0ac614e264aa92030ab4cc",
        "summary.json": "5ca1bd1d9773010900b508015142d743ed018ceb97cc48d5e05bc60bf23d504c",
        "attack_diag.csv": "ecdab949447ea4a7fe0466a6a35fc60276b7470f94efc0fe9973d09e46c94120",
    },
    "fashion_avgae generated": {
        "rounds.csv": "7ce6997478ec2a04984b72bd94ad0e3bc0893067b1027517dd5ab45ef1eb00a7",
        "summary.json": "98225e2bc2dec1dc381e67a8888dd4ff1a43035727f54d3bee3cfbb4b933b990",
        "attack_diag.csv": "4724cc5daa9ae8cbfe788777148b464dc0d299355d92159c235a750ecc014fb4",
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


# The arrays of _build_datasets for configs/synthetic_avgae.yaml at seed 0:
# the pooled training set, device by device, and the test set, each
# sample-major and C-contiguous. C3, C4 and C7 train their references on
# these, so they must not move with the shard stack's layout.
DATASET_DIGESTS = {
    "train x": "df8940c7b0e5909849b9ed08961f3daa4a44e293a03f6304b8f9bc2e5669a385",
    "train y": "9bfa51f17b110fb8cae1fbe3adae7e821d45fc43095d4533c45a817872743b3d",
    "test x": "3c968f8d6de25e5aad1f97d4d2abeebfdb69e9d9a07584821353c8a2ad00c771",
    "test y": "c1a479ce973ef7b92f2abf70ecb25a89857a60ee75f175ad9b7bc9f0f097aa66",
}


@pytest.mark.skipif(
    _build() != BUILD, reason=f"digests are recorded on numpy/BLAS {BUILD}, not {_build()}"
)
def test_pooled_training_and_test_sets_match_their_recorded_digests():
    text = (ROOT / "configs" / "synthetic_avgae.yaml").read_text()
    pooled, test = _build_datasets(validate_config(text, ["seed=0"]))
    arrays = {"train x": pooled.x, "train y": pooled.y, "test x": test.x, "test y": test.y}
    assert pooled.x.shape == test.x.shape == (1000, 10)
    assert all(a.flags.c_contiguous for a in arrays.values())
    got = {name: hashlib.sha256(a.tobytes()).hexdigest() for name, a in arrays.items()}
    assert got == DATASET_DIGESTS
