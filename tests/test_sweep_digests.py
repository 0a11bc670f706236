"""Byte-level digests of the grid-refinement sweep members.

`fiberflow run` on each `configs/sweep/*.cfg` member must emit CSVs and a
`report.json` whose SHA-256 digests match the ones below.  The members
run the fixed-dt regime (dt = 0.35 drho^2) at 96 to 384 nodes, which
`tests/test_golden_outputs.py` pins only at 1024.  Recorded with Python
3.11.7, numpy 2.4.6 and scipy 1.17.1 on x86-64, before the TR-BDF2
Newton test summed its l1 norms over all of u in one reduction; that
change had to leave every byte unchanged.  A digest that moves means the
program's results moved: re-record only when that is the intended
change, and say so where the change is described.
"""

import hashlib
from pathlib import Path

import pytest

from fiberflow.harness_cli import main

SWEEP = Path(__file__).resolve().parent.parent / "configs" / "sweep"

DIGESTS = {
    "hz_grid_096": {
        "diagnostics.csv":
            "78fabc9b7d4cf89add5630274673ce26a6bb338ddc3909b8ff5fac4ba49845b2",
        "flow.csv":
            "ac346686c2e07ef27b025eebe106bd799b05e4d81bb08265b2c77ecedfbed959",
        "rescaled_0.csv":
            "a4bce9de43e5948916d31a881bde4c14cc42b7cf0b58fe6a60009d5c3b7fdb38",
        "rescaled_1.csv":
            "4a1094e8796221c24393b2fd0e7ef9e8583fe7ed759831968e1e6634a414d5c2",
        "rescaled_2.csv":
            "dad11855b7d167b600b337f548265daa5b5e9abf2eb44554fc7dcc4ad25a7a1b",
        "rescaled_3.csv":
            "781446cd17c42272f090d673ea99f4b072a21fb91678029453d9680c38769c67",
        "report.json":
            "6ec920f499fd9fddc97f469e714654b9d0851b0136432c3ee51c55aa326f58e0",
    },
    "hz_grid_128": {
        "diagnostics.csv":
            "b899151409dfe020bf3a602ae9c796f2a98d23c29a36d9a3557a525127261450",
        "flow.csv":
            "8816b699e77ff26c2c760f0b31272cf94a247e44797f31bbf855374c6f35810c",
        "rescaled_0.csv":
            "0334950f1753db9a483412d4141d7723cef8028a52f8e3dee8cfc032f18960ec",
        "rescaled_1.csv":
            "d94670236b6345e9d3407e33614bbc0b76a3698186b0a6e4912ca6a060e7a4d5",
        "rescaled_2.csv":
            "0d9857933506af4a4f45b06e58e7115a9f961d968f576e07a6d94c8e5d00da47",
        "rescaled_3.csv":
            "f7440ecfbbe15eb0ceb0d3803fb472b9da162039638d84dfa8283db061d2ee11",
        "report.json":
            "3e4232bf0d4f978cabdc8b55e30d6d653f21186f8d01133e6aeb8ea3d4b5b233",
    },
    "hz_grid_192": {
        "diagnostics.csv":
            "6b9b341010771d6c97b6126e208883e1d8b1cfad81820769a4fd3067be41bdd2",
        "flow.csv":
            "c6cb986e94d3ecb7040a5836f31b408fd6d0532b94233667d094ee18ff621b9a",
        "rescaled_0.csv":
            "a7d7b660706bb6fdb891adf2cd277cdb8564399aa7038dd3274a16996e5fb9d5",
        "rescaled_1.csv":
            "01b76a17bd8813375195b452eef8a2cb54541eb4d462bbdc41463ee677dac5ed",
        "rescaled_2.csv":
            "7db447a15fa30684990daac15cfb8d977039c3346d2bffa95bdc3f390fdc7af8",
        "rescaled_3.csv":
            "3bf9fd585a71bd2e2db1843aa29326973c95779e55aafb0c8d5ddfb6031761ee",
        "report.json":
            "95dc3cb3d3dc6e208b313d73d70609b368cba7e07ecb535aa1ba979736b23e3d",
    },
    "hz_grid_256": {
        "diagnostics.csv":
            "12496e22b5f60e6e999b693957c70aba177fc4453e06388ec87fd6a8b9e4615d",
        "flow.csv":
            "c576091a00c82453403e3cac47232ac6e8b0fe2b3218612986e31c7f14ffb1cd",
        "rescaled_0.csv":
            "a5e9e6a276a424400f58dec33717436902b538b1e891184e422082dfc9e6e4cd",
        "rescaled_1.csv":
            "67c8788fc41e2ff88b113eec69578f2b679042ada1fb056fa08e83ec7bb18260",
        "rescaled_2.csv":
            "d113c12f0e553ff6649102d7665edbe62994703ca220da4e2bab4c3f4bd801d2",
        "rescaled_3.csv":
            "0bef86e8364d66d937d1c94a20453fd9bcb6f78cf16a91f604c238c57f339b31",
        "report.json":
            "ae247dc04f6aa72403990cce9ad5d0cc2805205984de5d6d21eef0790a5e8a57",
    },
    "hz_grid_384": {
        "diagnostics.csv":
            "aa64922bcc44f7df567a01a6e49b07e7ea801da651e6e53cc84f17f3ce04ae59",
        "flow.csv":
            "d1501741ccdda484ecbc96216f5ff59c523a839c525dcec38716fe2448d6ea17",
        "rescaled_0.csv":
            "5b3f1b43e884c2f680d5308e57352578c32112a37227a7599411717dc7acd0be",
        "rescaled_1.csv":
            "cb2cc58f58b77d3ec3b241bd99c3e30d8e4d130b9b1c9028de79cb569709b9bb",
        "rescaled_2.csv":
            "1e1930f0c0d239f1c9f54675847a360f0c5729ccabfc187dd15917f546105772",
        "rescaled_3.csv":
            "3f024a29cdcbe0def1e7cffdf1f9c69e7f7ddfdf6a5366f8008394b21f01e78d",
        "report.json":
            "52d68d7b2b8706bb98d19dd7684716a4b3d7d8129ccbf35cc8da3ae9b9eec28b",
    },
}


def test_every_sweep_member_is_pinned():
    assert sorted(p.stem for p in SWEEP.glob("*.cfg")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_sweep_member_outputs_match_recorded_digests(tmp_path, name):
    out = tmp_path / name
    assert main(["run", str(SWEEP / f"{name}.cfg"),
                 "--output", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.glob("*.csv")) + [out / "report.json"]}
    assert digests == DIGESTS[name]
