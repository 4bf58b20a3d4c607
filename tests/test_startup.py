"""A fresh ``ascankit`` process loads scipy only to low-pass traces of no
more than ``LOWPASS_TAPS - 1`` samples, and the corpus and the generator
only for the command that uses them; no command loads ``concurrent.futures``.

scipy.signal takes far longer to import, and holds far more memory, than
the rest of the package, so every command on longer traces, the FIR
reference and synthetic pulses included, must run without it.  The checks
run in a new interpreter, since the test run itself has already imported
all of these.
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
for name, nt in (("scan", 256), ("background", 256), ("short", 100)):
    grid = rng.standard_normal((3, 2, nt))
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
    main(["baseline", "--input", scan, "--output", f"{out}/b.pavol",
          "--lp-cutoff-hz", "1e7", "--background", background]),
    main(["compare", "--input", scan, "--output", f"{out}/cmp", "--q", "1e-3",
          "--lp-cutoff-hz", "1e7", *config]),
    main(["synth", "default", "--output", f"{out}/synth"]),
]
result["after_commands"] = scipy_modules()
result["short_compare"] = main(["compare", "--input", f"{out}/short.pavol", "--output",
                                f"{out}/short", "--q", "1e-3", "--lp-cutoff-hz", "1e7",
                                "--roi", "20:80", "--n-sample", "4"])
result["short_loaded_signal"] = "scipy.signal" in sys.modules
print(json.dumps(result))
"""


def test_only_a_lowpass_of_short_traces_loads_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(ascankit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["after_import"] == []
    assert result["without_scipy"] == [0] * 7
    assert result["after_commands"] == []
    assert result["short_compare"] == 0
    assert result["short_loaded_signal"]


_IMPORT_CHILD = r"""
import json, sys
import numpy as np
import ascankit.cli
from ascankit.cli import main
from ascankit.io import write_volume
from ascankit.model import Volume

def loaded(names):
    return [m for m in names if m in sys.modules]

result = {"loaded": loaded(("ascankit.bench", "ascankit.synth", "concurrent.futures"))}
out = sys.argv[1]
grid = np.random.default_rng(0).standard_normal((3, 2, 256))
write_volume(Volume.from_grid(grid, 1e-8), f"{out}/scan.pavol")
result["compare"] = main(["compare", "--input", f"{out}/scan.pavol", "--output", f"{out}/cmp",
                          "--q", "1e-3", "--lp-cutoff-hz", "1e7", "--roi", "100:200"])
result["after_compare"] = loaded(("concurrent.futures", "logging"))
from ascankit import corpus_entry, default_spec
result.update(entry=corpus_entry("phantom-L").name, nt=default_spec().nt)
print(json.dumps(result))
"""


def test_importing_the_cli_loads_neither_bench_synth_nor_the_thread_pool(tmp_path):
    # Only synth needs bench and synth; compare runs its worker as a plain
    # thread, so not even it loads concurrent.futures, or logging with it.
    # The package still serves bench's and synth's names.
    src = os.path.dirname(os.path.dirname(ascankit.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_CHILD, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["loaded"] == []
    assert (result["compare"], result["after_compare"]) == (0, [])
    assert result["entry"] == "phantom-L"
    assert result["nt"] > 0
