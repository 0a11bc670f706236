"""Import budget: scipy loads only where it is used.

`sampler_from_state` is the one user of scipy.interpolate, whose import
costs about 0.35 s; `import fiberflow`, `fiberflow check` and runs whose
checks never build a chart must not load it.  `FlowProblem` is the one
user of scipy.linalg (about 0.3 s), for the LAPACK tridiagonal solver:
`import fiberflow` and `fiberflow check` never step the flow and must
not load it.  The stages run in one fresh interpreter, in order, and
each looks at `sys.modules`, so the test does not depend on timings.
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
    return [name for name in ("scipy.linalg", "scipy.interpolate")
            if name in sys.modules]


stages = {}
import fiberflow
stages["import fiberflow"] = loaded()

from fiberflow import harness_cli
code = harness_cli.main(["check", sys.argv[1]])
stages["check"] = loaded()

config = harness_cli.load_config(sys.argv[2])
_, run_code = harness_cli.execute(config, Path(sys.argv[3]))
stages["execute " + ",".join(config.analysis.checks)] = loaded()

from fiberflow.calabi_flow import (HirzebruchParams, init_hirzebruch_profile,
                                   sampler_from_state)
params = HirzebruchParams(grid_points=64)
sampler_from_state(init_hirzebruch_profile(params), params)
stages["sampler_from_state"] = loaded()
print(json.dumps({"stages": stages, "codes": [code, run_code]}))
"""


def test_scipy_interpolate_loads_only_for_chart_reconstruction(tmp_path):
    run_dir = tmp_path / "hirzebruch"
    assert main(["run", str(CONFIGS / "hirzebruch.cfg"),
                 "--output", str(run_dir)]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", STAGES, str(run_dir),
         str(CONFIGS / "sweep" / "hz_grid_096.cfg"), str(tmp_path / "sweep")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    assert result["stages"] == {
        "import fiberflow": [],
        "check": [],
        "execute monitors,time_ratio": ["scipy.linalg"],
        "sampler_from_state": ["scipy.linalg", "scipy.interpolate"],
    }
