"""Shipped configs keep their exact output bytes.

Each entry pins the sha256 of the CSV and the SVG that `lexsim <model>
--config configs/<name>.json --out ... --svg ...` writes (the model is the
name's first word). A rerun matching itself (acceptance criterion 10) cannot
see a byte that changed between versions; these digests can. Update one only
for a change that is meant to alter that output.

The sweep digests do the same for a two-point, two-replicate sweep of each
model, built from that model's block in a shipped config. The frivolous sweep
pins its CSV only; its chart, which plots boolean cells as 1 or 0, is checked
in tests/test_runner.py.
"""

import hashlib
import json
from pathlib import Path

import pytest

from lexsim.cli import main

CONFIG_DIR = "configs"

# name -> (csv sha256, svg sha256)
DIGESTS = {
    "composition_docket": (
        "2ff46e3d9f23dcff7e95d204b2f1c85eb62183d3d966b99c395dd3352a297f0d",
        "d17d1c08562dc8f11bb7d7a57d978908d7c6c1ba7ef4e41f6e1a7ecb631848ef",
    ),
    "equilibrium_golden": (
        "a4c7fc76ac3d7731a6a0d6a675ed14a4035a2ea60bc9e9220f094e5120163c7a",
        "90294969e7993ac0f1a1bfdb37e2c1b7f48f9516264751411b18620920fe5ef0",
    ),
    "equilibrium_shock": (
        "50fbec0c8e1510b5bc37baf9888f30a2e425b7b1dc190289d623cebf72320e0b",
        "46afa96c0922b7d2576174793012c03f908a6dfc7e81e709124f6fb42790f7df",
    ),
    "evolve_tort": (
        "33f852184e106290358fc4d60ee8d8a7b3506d3b9c22c838fc653dd53aeeaf7e",
        "8c4a40b3bd9643510d85889a3b172b7c44b0e335e377b1d7c6ab492a0860da7b",
    ),
    "frivolous_nuisance": (
        "4f3d0745cd92c56a34e77de590ad7d283dfd8405e772607c32cbee96cbb44d80",
        "6859bcea3a73cf510e5b908256d24f8ea738c8b2a899bf2ef363fe6328b2ba9e",
    ),
    "settle_fixture": (
        "8e2754b874cf0a52370a6eebbaae1b531ddfb5087e1c0bc3a01fc9688612fede",
        "b658e863e1f3a6eea0d00c4b3be24ed24d28c3b5df65056d53218534780b750a",
    ),
    "sweep_litigation_delta": (
        "fcd9ee0c7de0a82afedb5ee4eed5dbc1880323bc47708a0fd72179558fbdc1cc",
        "433e227c7750db431b5b1e82c64a47edb912139ffd4fecbef3ad0e6b6f5cae92",
    ),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_shipped_config_output_bytes(name, tmp_path, capsys):
    out, svg = tmp_path / f"{name}.csv", tmp_path / f"{name}.svg"
    model = name.split("_")[0]
    code = main([model, "--config", f"{CONFIG_DIR}/{name}.json", "--out", str(out),
                 "--svg", str(svg)])
    assert code == 0, capsys.readouterr().err
    assert (sha256(out), sha256(svg)) == DIGESTS[name]


# model -> (shipped config, swept path, its two values)
SWEEPS = {
    "composition": ("composition_docket", "composition.flat_reduction", [2.0, 5.0]),
    "equilibrium": ("equilibrium_shock", "equilibrium.shock.delta_litigation", [0.0, 0.2]),
    "evolve": ("evolve_tort", "evolve.cost_delta", [0.0, 6.0]),
    "frivolous": ("frivolous_nuisance", "frivolous.game.s", [1.0, 2.0]),
    "settle": ("settle_fixture", "settle.cost_reduction", [0.0, 5.0]),
}

# model -> (csv sha256, svg sha256 or None where it is not pinned)
SWEEP_DIGESTS = {
    "composition": (
        "12e4e76d19a2d23a42be0dba54ce808cc43882b9e124b42566f88b9d93ec20e6",
        "42570fbddb58be44c67d936d2e6867e3f1a598de9ecf1c1856cb48888f608cd5",
    ),
    "equilibrium": (
        "e11ce58caa477904def5ec9315757dc2df36bc9ce208758d40666983f939d0e7",
        "de8e9e18a3303367b02ca139f966df2ac9d8480337543ce57a66a3e4e69330f6",
    ),
    "evolve": (
        "bb5036e4f97efea8ee45d7219dad0b9d159c7b5628257d79831564ddcf2c133a",
        "eddc5f3c7f0e9b1e150a82bc32ec52dfa7fb4c2547b429c22984187f39231575",
    ),
    "frivolous": (
        "ee7e7614702dd8b28f0b8016799080fc903a22413373bff63d6717b6f411c56b",
        None,
    ),
    "settle": (
        "7e8c44ef24796001f1039df955fb85d4d26bd759943215e3a9619c7e70b0b844",
        "db66e0014325da1ebcdd455e7e92fb4fc93e9327d5c1152c43c4c147579e3b79",
    ),
}


@pytest.mark.parametrize("model", sorted(SWEEPS))
def test_sweep_output_bytes(model, tmp_path, capsys):
    name, path, values = SWEEPS[model]
    shipped = json.loads((Path(CONFIG_DIR) / f"{name}.json").read_text())
    payload = {model: shipped[model],
               "sweep": {"model": model, "axes": [{"path": path, "values": values}],
                         "replicates": 2}}
    if "seed" in shipped:
        payload["seed"] = shipped["seed"]
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(payload))
    out, svg = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
    csv_digest, svg_digest = SWEEP_DIGESTS[model]
    argv = ["sweep", "--config", str(config), "--out", str(out)]
    if svg_digest is not None:
        argv += ["--svg", str(svg)]
    code = main(argv)
    assert code == 0, capsys.readouterr().err
    assert sha256(out) == csv_digest
    if svg_digest is not None:
        assert sha256(svg) == svg_digest
