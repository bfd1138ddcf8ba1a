"""Shipped configs keep their exact output bytes.

Each entry pins the sha256 of the CSV and the SVG that `lexsim <model>
--config configs/<name>.json --out ... --svg ...` writes (the model is the
name's first word). A rerun matching itself (acceptance criterion 10) cannot
see a byte that changed between versions; these digests can. Update one only
for a change that is meant to alter that output.
"""

import hashlib

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
