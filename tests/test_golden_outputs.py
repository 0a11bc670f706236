"""Byte-level golden outputs of the bundled configs and of one long run.

`fiberflow run` on `configs/hirzebruch.cfg` and `configs/product.cfg`
must emit CSVs and a `report.json` whose SHA-256 digests match the ones
below.  The bundled runs record at most 140 states; the 1024-node
grid-refinement member (`grid_member(1024)`, 469 recorded states) is
pinned too, so that a run filling its diagnostics over many buffered
blocks of states is covered end to end.  Its digests were recorded
before the diagnostics were computed while stepping.  The CSV digests were recorded before the TR-BDF2 Newton kernel
was rewritten for speed, the `report.json` digests before the analyzer
was moved onto the diagnostics table, with Python 3.11.7, numpy 2.4.6
and scipy 1.17.1 on x86-64; both rewrites had to leave every byte
unchanged.  A digest that moves means the program's
results moved: re-record only when that is the intended change, and say
so where the change is described.
"""

import hashlib
from pathlib import Path

import pytest

from conftest import grid_member
from fiberflow.harness_cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

DIGESTS = {
    "hirzebruch": {
        "diagnostics.csv":
            "e16696c9978a0a5d1d562ffdb42fe54f7a79fc21a26bd90b14e59c122e59b282",
        "flow.csv":
            "c2f9688979bedc62cd0d385daa85fc4c530649a09a2e979c7b1914ec87efd547",
        "rescaled_0.csv":
            "9816c5a41c12363134a00692f864727057872dd6ed40a4aedcc5c026915c6e25",
        "rescaled_1.csv":
            "894812993e5d8c202d731884594fc754184ab12c85b42f16fd74176a0df8d575",
        "rescaled_2.csv":
            "8b50d22fa5d66aacc38a42f26472cdbce631059484020d230f08793a3b92a40e",
        "rescaled_3.csv":
            "e7c03f8c1bd584cdc00af6a94d9081a1681b3ae5fafaa577fbb8afc7f83f9ccd",
        "rescaled_4.csv":
            "9237427723cf9c24f078961f74c82bdb7ef00c26ca1ed2b3d28931481b0466d8",
        "rescaled_5.csv":
            "1f3aa4f037f9b2cb4e61a2b05cb38b750825c5eb7cdd0f5dd673080bccac5f5e",
        "rescaled_6.csv":
            "f45fa090953af761e9a8a2b493d593e4aa088ca83712bc29c0b59f70cc6d75f0",
        "rescaled_7.csv":
            "1086034853e8ffcf3236501a9f688243b20fe6967d88cb135a90e9eab303c8ac",
        "report.json":
            "e7c65c65d5804424199a5418a9284e38975df60c1aea94eab800772a7e0275dd",
    },
    "product": {
        "diagnostics.csv":
            "54c06707857c2ed29af57e9cb75bf3bc9a028ca9a04aa6873f2fb6642900aecc",
        "flow.csv":
            "432f6dfbd7e506a64cf7292bbac723cc3d2dcd659639042f17cc84164aa60d0f",
        "rescaled_0.csv":
            "d812645c7a949c5ff127d445b261c29f5f29b914cdfb1a33785b34d3767f5c3c",
        "rescaled_1.csv":
            "d554f274a679c989588f1f6c889c9a15b23008c30ba8b854483ba1c01640b450",
        "rescaled_2.csv":
            "3c9e431665c43414b016b5a386c683a77950d4d037e6a60fc3b21df736e5fe49",
        "rescaled_3.csv":
            "33addbbc83160efed1c4352f24ab8a47b3c882b47ae6ec1fdcde0dea864739d5",
        "rescaled_4.csv":
            "983942c42df49ce75825eced000c476ecf5cc0bc0e12a7efafa6aa334f6ca2f5",
        "rescaled_5.csv":
            "3cf2b9f3beb2325e20ed2f91930f191a763e77ff0f8462a75b55dff45e523c33",
        "rescaled_6.csv":
            "caf132d36ec26e8f7acee4fdeb724c6275386b120b1c7301df55f1aa2fee2416",
        "rescaled_7.csv":
            "6c656fd70347d355629ccf59e5a2445103448e01568f5b3569b14942d6545e91",
        "report.json":
            "9b2f07f1318575b689b80d373061f16e6b7178559ae41cc6cafabd635239aac8",
    },
    "grid_1024": {
        "diagnostics.csv":
            "38d044c434f96558cef8efcfa006688d06c1c3094ca8ef3f4efd97f833c32feb",
        "flow.csv":
            "04cdf5300da9ab759daf7f6709fcfcfd77120b7137f4fa89bca1d5e4b444ec6d",
        "rescaled_0.csv":
            "8c23d6af1fc4a302db7d7a81f1217b41f61be4c5271e9e6fe091b99cf2c984ca",
        "rescaled_1.csv":
            "07ba18e9fbf80b8e799a2c137bb3fd71b0dcc21e212a8eedc94d1fdba6599f62",
        "rescaled_2.csv":
            "98acbfa267d6880171e7e0146ecd1b517516f758ba969d599aeb4ac8dfce4e5d",
        "rescaled_3.csv":
            "4987f159fda2e29da394d58cc7c2e14e5effa2c5cd045fcf5df4cdf709292843",
        "report.json":
            "0896c1d2fb58c76b0eff97f4d3ce7ac998a2ebc3bcc4d00d349e8d0f243448ab",
    },
}

# `configs/hirzebruch.cfg` off the k = 1 tanh path: its twist and shape
# replaced and its grid_points line dropped, so the grid is the default
# scaled by sqrt(k) (724 nodes at k = 2, 887 at k = 3).  Recorded with the
# versions above, before the per-state stepping and diagnostics were
# rewritten to make fewer array passes.
TWIST_DIGESTS = {
    (2, "skew"): {
        "diagnostics.csv":
            "b7cab1f76966b7ad5113f9d6fe364022361b0fa05bbc9ad1c0fb496f5c103e82",
        "flow.csv":
            "14bc91b45523cb4307e651c4b506cb8332a1005fb6b459d2aac5ec77b628440a",
        "report.json":
            "736ef088db3778f497c6c5d6b395eb2fd03d8ef5f5e6b5418f5d63468851bacf",
    },
    (3, "tanh"): {
        "diagnostics.csv":
            "59a8b298e359ce0a6142eadd39084f99a8babb4b959bfeefac0468e0aaf7275c",
        "flow.csv":
            "0cee08129f31eb6f727e542d074a8bf7488dd41db350606dfeabb91b8e1deb9a",
        "report.json":
            "5b6e5cf77287f66ebbdc1599b7359a2531a277bb5aedf980aacb8746925ceb1c",
    },
}


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv")) + [out / "report.json"]}


@pytest.mark.parametrize("name", ["hirzebruch", "product"])
def test_bundled_config_csvs_match_recorded_digests(tmp_path, name):
    out = tmp_path / name
    assert main(["run", str(CONFIGS / f"{name}.cfg"),
                 "--output", str(out)]) == 0
    assert _digests(out) == DIGESTS[name]


def test_long_grid_member_csvs_match_recorded_digests(tmp_path):
    config = tmp_path / "grid_1024.cfg"
    config.write_text(grid_member(1024))
    out = tmp_path / "grid_1024"
    assert main(["run", str(config), "--output", str(out)]) == 0
    assert _digests(out) == DIGESTS["grid_1024"]


@pytest.mark.parametrize("k, shape", sorted(TWIST_DIGESTS))
def test_twisted_runs_match_recorded_digests(tmp_path, k, shape):
    text = (CONFIGS / "hirzebruch.cfg").read_text()
    for old, new in (("k = 1\n", f"k = {k}\n"), ("grid_points = 512\n", ""),
                     ("shape = tanh\n", f"shape = {shape}\n")):
        assert old in text
        text = text.replace(old, new)
    config = tmp_path / f"k{k}.cfg"
    config.write_text(text)
    out = tmp_path / f"k{k}"
    assert main(["run", str(config), "--output", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in TWIST_DIGESTS[k, shape]}
    assert digests == TWIST_DIGESTS[k, shape]
