"""A fresh ``ascankit`` process loads scipy only for the FIR reference and
for synthetic pulses.

scipy.signal takes far longer to import than the rest of the package, so
the commands that never build a low-pass filter or a Gaussian pulse must
run without it.  The check runs in a new interpreter, since the test run
itself has already imported scipy.
"""

import json
import os
import subprocess
import sys

import ascankit

_CHILD = r"""
import json, sys
import numpy as np
import ascankit, ascankit.cli
from ascankit.cli import main
from ascankit.io import write_volume
from ascankit.model import Volume

out = sys.argv[1]
rng = np.random.default_rng(0)
for name in ("scan", "background"):
    grid = rng.standard_normal((3, 2, 256))
    write_volume(Volume.from_grid(grid, 1e-8), f"{out}/{name}.pavol")
scan, background = f"{out}/scan.pavol", f"{out}/background.pavol"
config = ["--roi", "100:200", "--q-grid", "1e-4,1e-3,1e-2", "--n-sample", "4"]

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

result = {"after_import": scipy_modules()}
result["without_scipy"] = [
    main(["denoise", "--input", scan, "--output", f"{out}/d.pavol", "--q", "auto",
          "--background", background, *config]),
    main(["qselect", "--input", scan, "--output", f"{out}/q.csv", *config]),
    main(["metrics", "--input", scan, "--output", f"{out}/m.csv", *config]),
    main(["reconstruct", "--input", scan, "--output", f"{out}/r.pgm"]),
]
result["after_commands"] = scipy_modules()
result["with_scipy"] = [
    main(["baseline", "--input", scan, "--output", f"{out}/b.pavol",
          "--lp-cutoff-hz", "1e7", "--background", background]),
    main(["compare", "--input", scan, "--output", f"{out}/cmp", "--q", "1e-3",
          "--lp-cutoff-hz", "1e7", *config]),
    main(["synth", "default", "--output", f"{out}/synth"]),
]
print(json.dumps(result))
"""


def test_commands_without_a_filter_or_pulse_never_load_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(ascankit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["after_import"] == []
    assert result["without_scipy"] == [0, 0, 0, 0]
    assert result["after_commands"] == []
    assert result["with_scipy"] == [0, 0, 0]
