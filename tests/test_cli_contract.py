"""The command-line failure contract, fuzzed in process through main().

Each example starts from a small valid scan, background and config, spoils
one input (a flag, a config value, a volume header field, or the payload's
length or values) and runs one subcommand.  Whatever happens, the command
exits with 0, 1, 2 or 3; a failure prints exactly one ``error: `` line on
stderr, after any warnings, and never a traceback or a Python warning.
"""

import contextlib
import io
import os
import shutil
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ascankit.cli import main
from ascankit.io import format_kv, parse_kv, write_volume
from ascankit.model import Volume

NX, NY, NT = 2, 2, 64

CONFIG = {
    "q": "auto",
    "noise_window": "16",
    "roi": "24:40",
    "q_grid": "0.0001,0.001,0.01",
    "n_sample": "2",
    "seed": "0",
    "lp_cutoff_hz": "10000000.0",
    "background_path": "bg.pavol",
}

HEADER_KEYS = ("magic", "nx", "ny", "nt", "dt", "dtype", "byte_order", "layout", "data")

FLAGS = ("--q", "--q-grid", "--n-sample", "--seed", "--noise-window", "--roi",
         "--lp-cutoff-hz", "--background", "--config", "--dtype", "--frob")

SUBCOMMANDS = ("qselect", "denoise", "baseline", "reconstruct", "metrics", "compare")

# Values near the edges of what each field accepts, mixed with arbitrary text.
EDGES = (
    "", " ", "0", "-1", "1", "2", "3", "4", "15", "16", "63", "64", "65", "2.5",
    "1e-3", "1e308", "-1e308", "1e-320", "5e-324", "nan", "inf", "-inf",
    "99999999999999999999999", "auto", "0:64", "0:1", "63:64", "24:40", "40:24",
    "-1:10", "1:2:3", "1e-3,", ",", "1e-3,nan", "1e-3,-1", "true", "f32le", "f64le",
    "PAVOL1", "little-endian", "x-major, y, t-fastest", "scan.pavol.bin", "bg.pavol.bin",
    "missing.bin", "bg.pavol", "scan.pavol", "a\x00b", "../", "é",
)
VALUES = st.one_of(st.sampled_from(EDGES), st.text(max_size=12))


def _scan_grid(rng):
    t = np.arange(NT)
    pulse = np.exp(-0.5 * ((t - 32) / 3.0) ** 2) * np.cos(0.8 * t)
    return rng.normal(0.0, 0.05, (NX, NY, NT)) + pulse


@pytest.fixture(scope="module")
def scan_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    rng = np.random.default_rng(5)
    write_volume(Volume.from_grid(_scan_grid(rng), 1e-8), str(root / "scan.pavol"))
    write_volume(Volume.from_grid(rng.normal(0.0, 0.05, (NX, NY, NT)), 1e-8),
                 str(root / "bg.pavol"))
    (root / "run.config").write_text(format_kv(CONFIG))
    return root


mutations = st.one_of(
    st.tuples(st.just("flag"), st.sampled_from(FLAGS), VALUES),
    st.tuples(st.just("config"), st.sampled_from(sorted(CONFIG) + ["speed"]), VALUES),
    st.tuples(st.just("config-drop"), st.sampled_from(sorted(CONFIG))),
    st.tuples(st.just("header"), st.sampled_from(("scan", "bg")),
              st.sampled_from(HEADER_KEYS + ("extra",)), VALUES),
    st.tuples(st.just("header-drop"), st.sampled_from(("scan", "bg")),
              st.sampled_from(HEADER_KEYS)),
    st.tuples(st.just("header-bytes"), st.sampled_from(("scan", "bg")),
              st.binary(max_size=40)),
    st.tuples(st.just("resize"), st.sampled_from(("scan", "bg")),
              st.integers(-NX * NY * NT * 8, 24)),
    st.tuples(st.just("nonfinite"), st.sampled_from(("scan", "bg")),
              st.integers(0, NX * NY * NT - 1), st.sampled_from((np.nan, np.inf, -np.inf))),
)


def _apply(work, mutation):
    """Spoil one input in ``work``; return the extra command-line arguments."""
    kind = mutation[0]
    if kind == "flag":
        _, flag, value = mutation
        path_flag = flag in ("--background", "--config")
        return [f"{flag}={work}/{value}" if path_flag else f"{flag}={value}"]
    if kind in ("config", "config-drop"):
        pairs = dict(CONFIG)
        if kind == "config":
            pairs[mutation[1]] = mutation[2]
        else:
            del pairs[mutation[1]]
        lines = [f"{key}: {value}" for key, value in pairs.items()]
        with open(os.path.join(work, "run.config"), "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        return []
    header = os.path.join(work, f"{mutation[1]}.pavol")
    if kind in ("header", "header-drop"):
        with open(header, encoding="utf-8") as handle:
            pairs = parse_kv(handle.read())
        if kind == "header":
            pairs[mutation[2]] = mutation[3]
        else:
            del pairs[mutation[2]]
        lines = [f"{key}: {value}" for key, value in pairs.items()]
        with open(header, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    elif kind == "header-bytes":
        with open(header, "wb") as handle:
            handle.write(mutation[2])
    elif kind == "resize":
        with open(header + ".bin", "r+b") as handle:
            size = handle.seek(0, os.SEEK_END)
            handle.truncate(size + mutation[2])
    else:
        payload = np.fromfile(header + ".bin", dtype="<f8")
        payload[mutation[2]] = mutation[3]
        payload.tofile(header + ".bin")
    return []


def _run(argv):
    """Exit code, stderr and the messages of the warnings a user would see."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for hidden in (DeprecationWarning, PendingDeprecationWarning):  # hidden by default
            warnings.simplefilter("ignore", hidden)
        rc = main(argv)
    return rc, err.getvalue(), [str(w.message) for w in caught]


class TestEveryBadInputIsOneLine:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(subcommand=st.sampled_from(SUBCOMMANDS), mutation=mutations)
    # Each of these once ended in a traceback, a Python warning or a broken line.
    @example("qselect", ("header-bytes", "scan", b"\x80"))
    @example("denoise", ("header", "bg", "data", "a\x00b"))
    @example("qselect", ("flag", "--config", "\x0c"))
    @example("qselect", ("config", "q_grid", "1e308"))
    @example("baseline", ("config", "lp_cutoff_hz", "1e-320"))
    def test_exit_code_and_one_error_line(self, scan_dir, subcommand, mutation):
        work = tempfile.mkdtemp(dir=scan_dir)
        try:
            for name in ("scan.pavol", "scan.pavol.bin", "bg.pavol", "bg.pavol.bin",
                         "run.config"):
                shutil.copy(scan_dir / name, work)
            argv = [subcommand, "--input", os.path.join(work, "scan.pavol"),
                    "--output", os.path.join(work, "out")]
            if subcommand != "reconstruct":
                argv += ["--config", os.path.join(work, "run.config")]
            argv += _apply(work, mutation)
            rc, err, caught = _run(argv)
        finally:
            shutil.rmtree(work)
        assert rc in (0, 1, 2, 3)
        assert caught == []
        lines = err.splitlines()
        assert "Traceback" not in err
        if rc == 0:
            assert all(line.startswith("warning: ") for line in lines), err
        else:
            assert len(lines) >= 1 and lines[-1].startswith("error: "), err
            assert all(line.startswith("warning: ") for line in lines[:-1]), err
