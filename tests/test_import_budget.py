"""Import budget: scipy and the process pool load only where they are used.

No module of the package imports scipy.interpolate (about 0.8 s): the
chart of `sampler_from_state`, which the finite-difference oracles, the
tests and the default `chart_residuals` check all use, is a numpy-only
C^4 blend of local quintics.  The flow's Newton updates take LAPACK
`dgtsv` from the extension module scipy.linalg._flapack, loaded on its
own, so no stage loads the scipy package or scipy.linalg (about 0.3 s):
not `import fiberflow`, not `fiberflow check`, not `execute` or
`fiberflow run` of a config, not `sampler_from_state` and one oracle
point on its chart.  `concurrent.futures.process` (about 20 ms) is for
parallel sweeps only: `import fiberflow` and a one-worker `run_sweep`
must not load it.  The stages run in one fresh interpreter, in order,
and each looks at `sys.modules`, so the test does not depend on
timings.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import fiberflow
from fiberflow.harness_cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(fiberflow.__file__).resolve().parent.parent

STAGES = """
import json, sys
from pathlib import Path


def loaded():
    return [name for name in ("scipy", "scipy.linalg", "scipy.interpolate",
                              "concurrent.futures.process")
            if name in sys.modules]


stages = {}
import fiberflow
stages["import fiberflow"] = loaded()

from fiberflow import harness_cli
code = harness_cli.main(["check", sys.argv[1]])
stages["check"] = loaded()

codes = [code]
sweep_cfg, bundled_cfg, out = sys.argv[2], sys.argv[3], Path(sys.argv[4])
for cfg in (sweep_cfg, bundled_cfg):
    config = harness_cli.load_config(cfg)
    codes.append(harness_cli.execute(config, out / Path(cfg).stem)[1])
    stages["execute " + ",".join(config.analysis.checks)] = loaded()

codes.append(harness_cli.main(["run", bundled_cfg,
                               "--output", str(out / "cli")]))
stages["main run"] = loaded()

members = [(cfg, harness_cli.load_config(cfg)) for cfg in sys.argv[5:]]
codes.append(harness_cli.run_sweep(members, out / "sweep", workers=1)[1])
stages["run_sweep workers=1"] = loaded()

from fiberflow.calabi_flow import (HirzebruchParams, init_hirzebruch_profile,
                                   sampler_from_state)
from fiberflow.chart_geometry import fd_ricci_oracle
from fiberflow.oneill_curvature import frame_point, mixed_curvature_residuals
import numpy as np
params = HirzebruchParams(grid_points=64)
sampler = sampler_from_state(init_hirzebruch_profile(params), params)
stages["sampler_from_state"] = loaded()
point = sampler.random_points(np.random.default_rng(0), 1)[0]
fd_ricci_oracle(sampler, point, richardson=True)
mixed_curvature_residuals(frame_point(sampler, point))
stages["oracle point"] = loaded()
print(json.dumps({"stages": stages, "codes": codes}))
"""


def test_no_stage_loads_scipy_or_the_process_pool(tmp_path):
    run_dir = tmp_path / "hirzebruch"
    assert main(["run", str(CONFIGS / "hirzebruch.cfg"),
                 "--output", str(run_dir)]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", STAGES, str(run_dir),
         str(CONFIGS / "sweep" / "hz_grid_096.cfg"),
         str(CONFIGS / "hirzebruch.cfg"), str(tmp_path / "stages"),
         str(CONFIGS / "sweep" / "hz_grid_096.cfg"),
         str(CONFIGS / "sweep" / "hz_grid_128.cfg")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert result["stages"] == {
        "import fiberflow": [],
        "check": [],
        "execute monitors,time_ratio": [],
        "execute monitors,time_ratio,classification,splitting,"
        "chart_residuals": [],
        "main run": [],
        "run_sweep workers=1": [],
        "sampler_from_state": [],
        "oracle point": [],
    }
