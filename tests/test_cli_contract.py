"""The command-line failure contract, fuzzed in process through main().

Each example starts from a small valid scan, background, config and synth
manifest, spoils one input (a flag, a config value, a volume header field,
the payload's length or values, a manifest field, or the ``--output`` path)
and runs one subcommand.  Whatever happens, the command exits with 0, 1, 2
or 3; a failure prints exactly one ``error: `` line on stderr, after any
warnings, never a traceback or a Python warning, and leaves no new file or
directory behind.  Every command runs in a fresh directory inside the test's
own, which is also its working directory, so that even a relative or empty
output path stays inside it.
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

from ascankit.bench import ZERO_STATS, CorpusEntry, format_manifest, parse_manifest
from ascankit.cli import main
from ascankit.io import format_kv, parse_kv, read_volume, write_volume
from ascankit.model import RoiSpec, Volume
from ascankit.synth import SynthSpec

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

#: A valid synth manifest for an NX x NY x NT scan with a pulse and an echo.
MANIFEST = parse_kv(format_manifest(CorpusEntry(
    name="tiny",
    spec=SynthSpec(nt=NT, dt=1e-8, pulse_center_hz=5e6, pulse_time_s=3.2e-7, pulse_amp=1.0,
                   noise_sigma=0.05, impulse_rate=0.5, impulse_amp=0.3,
                   reflections=((4.8e-7, 0.5),), seed=0),
    nx=NX, ny=NY, mask=frozenset({(0, 0), (1, 1)}), roi=RoiSpec(24, 40), lp_cutoff_hz=1e7,
    noise_window=16, q_grid=(1e-4, 1e-3, 1e-2), n_sample=2, expected=ZERO_STATS,
)))

#: The grid sizes and the impulse rate size what synth allocates, so they
#: take only values that are small, malformed, or beyond any address space.
SIZE_VALUES = ("", "0", "-1", "1", "2", "3", "63", "64", "65", "1.5", "1e3", "nan", "x",
               "99999999999999999999999")
RATE_VALUES = ("", "0", "-1", "0.5", "64", "64.5", "1e20", "1e308", "nan", "inf", "x",
               "99999999999999999999999")

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

#: Entry names about as long as a file name can be: synth's longest output,
#: ``<entry>-background.pavol.bin``, is 21 characters longer.
LONG_NAMES = tuple("e" * n for n in (200, 234, 235, 240, 254, 255, 256, 300))

#: Values that make the finite samples after a trace's quiet head sum, or
#: reach in the analytic signal, past the largest float: the trace's envelope
#: overflows, or comes close to it.
LOUD_VALUES = (1e306, -1e306, 1e307, -1e307, 1.7e308)


#: Sample spacings at the edges of the float range, for both volumes: from
#: about 2.8e-309 to 5.56e-309 the sampling rate 1 / dt overflows though
#: 0.5 / dt does not.
DT_VALUES = ("3e-309", "5.5e-309", "5.6e-309", "1e-310", "5e-324", "2.2250738585072014e-308",
             "1e300", "1.7e308")


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
    (root / "tiny.manifest").write_text(format_kv(MANIFEST))
    return root


@contextlib.contextmanager
def _workdir(scan_dir):
    """A fresh copy of the inputs in a directory inside ``scan_dir``, which is
    the working directory while the block runs and is removed after it."""
    work = tempfile.mkdtemp(dir=scan_dir)
    cwd = os.getcwd()
    try:
        os.mkdir(os.path.join(work, "run"))
        for name in ("scan.pavol", "scan.pavol.bin", "bg.pavol", "bg.pavol.bin", "run.config",
                     "tiny.manifest"):
            shutil.copy(scan_dir / name, os.path.join(work, "run"))
        os.chdir(os.path.join(work, "run"))
        yield os.path.join(work, "run")
    finally:
        os.chdir(cwd)
        shutil.rmtree(work)


def _tree(root):
    """Every file and directory under ``root``, as paths relative to it."""
    return sorted(
        os.path.relpath(os.path.join(top, name), root)
        for top, dirs, files in os.walk(root)
        for name in dirs + files
    )


mutations = st.one_of(
    st.tuples(st.just("flag"), st.sampled_from(FLAGS), VALUES),
    st.tuples(st.just("config"), st.sampled_from(sorted(CONFIG) + ["speed"]), VALUES),
    st.tuples(st.just("config-drop"), st.sampled_from(sorted(CONFIG))),
    st.tuples(st.just("header"), st.sampled_from(("scan", "bg")),
              st.sampled_from(HEADER_KEYS + ("extra",)), VALUES),
    st.tuples(st.just("dt"), st.sampled_from(DT_VALUES)),
    st.tuples(st.just("header-drop"), st.sampled_from(("scan", "bg")),
              st.sampled_from(HEADER_KEYS)),
    st.tuples(st.just("header-bytes"), st.sampled_from(("scan", "bg")),
              st.binary(max_size=40)),
    st.tuples(st.just("resize"), st.sampled_from(("scan", "bg")),
              st.integers(-NX * NY * NT * 8, 24)),
    st.tuples(st.just("nonfinite"), st.sampled_from(("scan", "bg")),
              st.integers(0, NX * NY * NT - 1), st.sampled_from((np.nan, np.inf, -np.inf))),
    st.tuples(st.just("loud"), st.sampled_from(("scan", "bg")),
              st.integers(0, NX * NY - 1), st.sampled_from(LOUD_VALUES), st.booleans()),
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
    if kind == "dt":
        for name in ("scan", "bg"):
            _apply(work, ("header", name, "dt", mutation[1]))
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
    elif kind == "loud":  # a finite trace, quiet for 16 samples, then loud
        _, _, trace, value, alternating = mutation
        payload = np.fromfile(header + ".bin", dtype="<f8").reshape(NX * NY, NT)
        payload[trace, 16:] = value
        if alternating:
            payload[trace, 17::2] = -value
        payload.tofile(header + ".bin")
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
    # 1 / dt overflows: scipy's firwin raised ValueError on an infinite rate.
    @example("baseline", ("dt", "3e-309"))
    @example("compare", ("dt", "3e-309"))
    # A finite trace whose envelope overflows: numpy warnings, and an error
    # naming neither the file nor the trace.
    @example("reconstruct", ("loud", "scan", 1, 1e307, False))
    @example("metrics", ("loud", "scan", 2, 1e307, False))
    def test_exit_code_and_one_error_line(self, scan_dir, subcommand, mutation):
        with _workdir(scan_dir) as work:
            argv = [subcommand, "--input", os.path.join(work, "scan.pavol"),
                    "--output", os.path.join(work, "out")]
            if subcommand != "reconstruct":
                argv += ["--config", os.path.join(work, "run.config")]
            argv += _apply(work, mutation)
            _run_checked(work, argv)


def _run_checked(work, argv):
    """The exit code of ``argv`` run in ``work``, checked against the contract;
    a failed run must leave ``work`` and its parent as it found them."""
    before = _tree(os.path.dirname(work))
    rc, err, caught = _run(argv)
    _check_contract(rc, err, caught)
    if rc != 0:
        assert _tree(os.path.dirname(work)) == before
    return rc


def _check_contract(rc, err, caught):
    assert rc in (0, 1, 2, 3)
    assert caught == []
    lines = err.splitlines()
    assert "Traceback" not in err
    if rc == 0:
        assert all(line.startswith("warning: ") for line in lines), err
    else:
        assert len(lines) >= 1 and lines[-1].startswith("error: "), err
        assert all(line.startswith("warning: ") for line in lines[:-1]), err


synth_mutations = st.one_of(
    st.tuples(st.just("field"), st.sampled_from(("nx", "ny", "synth_nt")),
              st.sampled_from(SIZE_VALUES)),
    st.tuples(st.just("field"), st.just("synth_impulse_rate"), st.sampled_from(RATE_VALUES)),
    st.tuples(st.just("field"), st.sampled_from(sorted(
        set(MANIFEST) - {"nx", "ny", "synth_nt", "synth_impulse_rate"}) + ["speed"]), VALUES),
    st.tuples(st.just("drop"), st.sampled_from(sorted(MANIFEST))),
    st.tuples(st.just("flag"), st.sampled_from(("--seed", "--dtype", "--frob")), VALUES),
    st.tuples(st.just("source"), st.sampled_from(("missing.manifest", ".", "", "default",
                                                  "noise-only", "scan.pavol"))),
    st.tuples(st.just("field"), st.just("entry"), st.sampled_from(LONG_NAMES)),
)


class TestSynthIsOneLine:
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(mutation=synth_mutations)
    # Each of these once ended in a traceback or a Python warning.
    @example(("field", "synth_pulse_center_hz", "1e160"))
    @example(("field", "synth_impulse_rate", "1e20"))
    @example(("field", "synth_dt", "1e300"))
    @example(("field", "synth_noise_sigma", "1e308"))
    @example(("field", "nx", "99999999999999999999999"))
    @example(("field", "synth_nt", "99999999999999999999999"))
    @example(("field", "entry", "e" * 240))  # once wrote two files, then failed
    def test_exit_code_and_one_error_line(self, scan_dir, mutation):
        with _workdir(scan_dir) as work:
            source, extra = "tiny.manifest", []
            if mutation[0] in ("field", "drop"):
                pairs = dict(MANIFEST)
                if mutation[0] == "field":
                    pairs[mutation[1]] = mutation[2]
                else:
                    del pairs[mutation[1]]
                lines = [f"{key}: {value}" for key, value in pairs.items()]
                with open(source, "w", encoding="utf-8") as handle:
                    handle.write("\n".join(lines) + "\n")
            elif mutation[0] == "flag":
                extra = [f"{mutation[1]}={mutation[2]}"]
            else:
                source = mutation[1]
            rc = _run_checked(work, ["synth", source, "--output", "out"] + extra)
            if rc == 0:  # what synth writes, the readers read back
                written = sorted(os.listdir("out"))
                for name in written:
                    if name.endswith(".pavol"):
                        read_volume(os.path.join("out", name))
                    elif name.endswith(".manifest"):
                        with open(os.path.join("out", name), encoding="utf-8") as handle:
                            parse_manifest(handle.read())
                assert len([name for name in written if name.endswith(".pavol")]) == 3

    @pytest.mark.parametrize("value", ["1e160", "1e300"])
    def test_pulse_beyond_the_float_range_names_the_manifest(self, scan_dir, value):
        key = "synth_pulse_center_hz" if value == "1e160" else "synth_dt"
        with _workdir(scan_dir):
            with open("tiny.manifest", "w", encoding="utf-8") as handle:
                handle.write(format_kv({**MANIFEST, key: value}))
            rc, err, caught = _run(["synth", "tiny.manifest", "--output", "out"])
            assert not os.path.exists("out")
        assert (rc, caught) == (2, [])
        assert err.startswith("error: tiny.manifest: ") and err.count("\n") == 1, err

    def test_sample_beyond_the_dtype_leaves_no_directory(self, scan_dir):
        with _workdir(scan_dir) as work:
            with open("tiny.manifest", "w", encoding="utf-8") as handle:
                handle.write(format_kv({**MANIFEST, "synth_pulse_amp": "1e308"}))
            argv = ["synth", "tiny.manifest", "--output", "new/out", "--dtype", "f32le"]
            assert _run_checked(work, argv) == 2


#: Output paths a user might pass: relative, empty, parent, missing, taken by
#: a file or a directory, one of the inputs, too long (or too long only once
#: a sidecar's suffix is added), or not a path at all.
OUTPUTS = ("", ".", "..", " ", "out", "no/such/out", "adir", "adir/", "afile", "afile/out",
           "scan.pavol", "scan.pavol.bin", "run.config", "a\nb", "a:b", "é", "x" * 252,
           "x" * 300, "a\x00b")


class TestOutputPaths:
    @pytest.mark.parametrize("output", OUTPUTS)
    @pytest.mark.parametrize("subcommand", SUBCOMMANDS + ("synth",))
    def test_exit_code_and_one_error_line(self, scan_dir, subcommand, output):
        with _workdir(scan_dir) as work:
            os.mkdir("adir")
            open("afile", "w").close()
            if subcommand == "synth":
                argv = ["synth", "tiny.manifest", "--output", output]
            else:
                argv = [subcommand, "--input", "scan.pavol", "--output", output]
                if subcommand != "reconstruct":
                    argv += ["--config", "run.config"]
            rc = _run_checked(work, argv)
            if rc == 0 and subcommand in ("denoise", "baseline"):
                read_volume(output)
