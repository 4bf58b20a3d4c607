"""End-to-end command-line behavior, exercised in process through main().

A module-scoped miniature scan (3x2 traces, 256 samples) keeps the
subcommand tests fast while still flowing through the real file formats:
synth writes it once, and qselect/denoise/baseline/metrics/compare all
read those artifacts back.
"""

import os
import shutil
import sys
import threading
import time
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.signal
from scipy.signal import _signaltools

from ascankit import cli, metrics, model
from ascankit.baseline import baseline_denoise, pipeline_denoise
from ascankit.bench import CorpusEntry, ExpectedStats, corpus_entry, format_manifest, parse_manifest
from ascankit.cli import main
from ascankit.io import parse_kv, read_volume, write_volume
from ascankit.model import DataError, NumericsError, RoiSpec, Volume
from ascankit.synth import clean_samples, default_spec

ZERO_STATS = ExpectedStats(0.0, None, 0, 0, 0, None)


def _tiny_entry(name="tiny"):
    return CorpusEntry(
        name=name,
        spec=default_spec(seed=9, nt=256, pulse_time_s=1.25e-6),
        nx=3,
        ny=2,
        mask=frozenset({(0, 0), (2, 1)}),
        roi=RoiSpec(100, 200),
        lp_cutoff_hz=2.0e7,
        noise_window=32,
        q_grid=(1e-4, 1e-3, 1e-2),
        n_sample=4,
        expected=ZERO_STATS,
    )


@pytest.fixture(scope="module")
def tiny_scan(tmp_path_factory):
    """Synthesize the miniature scan once and hand out its file paths."""
    root = tmp_path_factory.mktemp("tiny-scan")
    manifest = root / "tiny.manifest.in"
    manifest.write_text(format_manifest(_tiny_entry()))
    out = root / "out"
    assert main(["synth", str(manifest), "--output", str(out)]) == 0
    return {
        "dir": out,
        "scan": str(out / "tiny.pavol"),
        "background": str(out / "tiny-background.pavol"),
        "clean": str(out / "tiny-clean.pavol"),
        "manifest": str(out / "tiny.manifest"),
        "config": str(out / "tiny.config"),
    }


class TestParsing:
    def test_version_flag_reports_and_exits(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("ascankit ")

    def test_no_subcommand_is_a_usage_error(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_flag_is_a_usage_error(self, capsys):
        assert main(["reconstruct", "--input", "a", "--output", "b", "--frob"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag_is_a_usage_error(self, capsys):
        assert main(["synth", "default"]) == 1
        assert "--output" in capsys.readouterr().err

    # Per subcommand: its help, a missing required flag, and a bad choice
    # (where it has none, a flag it lacks, a flag without its value or an
    # extra argument); then invocations whose first token is no subcommand,
    # which get the full parser.
    @pytest.mark.parametrize(
        "argv",
        [
            argv
            for name, missing, bad in [
                ("synth", ["default"], ["default", "--output", "o", "--dtype", "f16"]),
                ("qselect", ["--output", "o"], ["--input", "i", "--output", "o", "--frob"]),
                ("denoise", ["--output", "o"], ["--input", "i", "--output", "o", "--dtype", "x"]),
                ("baseline", ["--input", "i"], ["--input", "i", "--output", "o", "--dtype", "x"]),
                ("reconstruct", ["--input", "i"], ["--input", "i", "--output", "o", "--q", "1"]),
                ("metrics", [], ["--input", "i", "--output", "o", "--seed"]),
                ("compare", ["--input", "i"], ["--input", "i", "--output", "o", "synth"]),
            ]
            for argv in ([name, "--help"], [name, *missing], [name, *bad])
        ]
        + [[], ["--help"], ["--version"], ["scan"], ["--", "denoise"]],
    )
    def test_the_subcommand_parser_answers_as_the_full_parser(self, capsys, argv):
        def run():
            try:
                return main(list(argv))
            except SystemExit as exc:
                return "exit", exc.code

        lazy = run(), capsys.readouterr()
        with mock.patch.object(cli, "_parser_for", lambda argv: cli._build_parser()):
            full = run(), capsys.readouterr()
        assert lazy == full
        assert lazy[0] in (1, ("exit", 0))
        subparsers = [a for a in cli._parser_for(argv)._actions if a.dest == "subcommand"]
        assert list(subparsers[0].choices) == (
            argv[:1] if argv[:1] and argv[0] in cli._SUBCOMMANDS else list(cli._SUBCOMMANDS)
        )

    @pytest.mark.parametrize(
        "flag,value",
        [("--q", "0"), ("--q", "fast"), ("--roi", "abc"), ("--q-grid", "1e-3,banana"),
         ("--noise-window", "0"), ("--n-sample", "-3"), ("--seed", "-1")],
    )
    def test_malformed_config_values_are_usage_errors(self, capsys, tmp_path, flag, value):
        rc = main(["denoise", "--input", "in.pavol", "--output", str(tmp_path / "o.pavol"),
                   flag, value])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_in_a_config_file_is_a_data_error(self, capsys, tmp_path):
        config = tmp_path / "run.config"
        config.write_text("seed: -1\n")
        rc = main(["qselect", "--input", "in.pavol", "--output", str(tmp_path / "q.csv"),
                   "--config", str(config)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("line", ["roi: a:5", "n_sample: 0"])
    def test_config_file_errors_name_the_file(self, capsys, tmp_path, line):
        config = tmp_path / "bad.config"
        config.write_text(line + "\n")
        rc = main(["qselect", "--input", "in.pavol", "--output", str(tmp_path / "q.csv"),
                   "--config", str(config)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: ")
        assert err.count("\n") == 1


class TestSynth:
    def test_default_scan_writes_the_five_outputs(self, tmp_path, capsys):
        assert main(["synth", "default", "--output", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("wrote ") == 5
        for name in ("default.pavol", "default-background.pavol", "default-clean.pavol",
                     "default.manifest", "default.config"):
            assert (tmp_path / name).exists(), name
        clean = read_volume(str(tmp_path / "default-clean.pavol"))
        want = clean_samples(default_spec())
        assert np.array_equal(clean.trace(0, 0).samples, want)
        assert np.array_equal(clean.trace(3, 3).samples, want)

    def test_corpus_entry_by_name_round_trips_its_manifest(self, tmp_path):
        assert main(["synth", "noise-only", "--output", str(tmp_path)]) == 0
        with open(tmp_path / "noise-only.manifest", "r", encoding="utf-8") as handle:
            assert parse_manifest(handle.read()) is corpus_entry("noise-only")
        volume = read_volume(str(tmp_path / "noise-only.pavol"))
        assert (volume.nx, volume.ny, volume.nt) == (8, 6, 512)
        # Empty mask: the ground-truth volume is all zeros.
        clean = read_volume(str(tmp_path / "noise-only-clean.pavol"))
        assert not clean.data.any()

    def test_manifest_config_lines_equal_the_config_file(self, tiny_scan):
        manifest = parse_kv((tiny_scan["dir"] / "tiny.manifest").read_text())
        config = parse_kv((tiny_scan["dir"] / "tiny.config").read_text())
        assert config.pop("background_path") == "tiny-background.pavol"
        assert manifest.pop("background_path") == ""
        assert {key: manifest[key] for key in config} == config

    def test_seed_override_changes_the_noise_not_the_name(self, tmp_path, capsys):
        manifest = tmp_path / "m.in"
        manifest.write_text(format_manifest(_tiny_entry()))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", str(manifest), "--output", str(a)]) == 0
        assert main(["synth", str(manifest), "--output", str(b), "--seed", "10"]) == 0
        va = read_volume(str(a / "tiny.pavol"))
        vb = read_volume(str(b / "tiny.pavol"))
        assert not np.array_equal(va.data, vb.data)
        with open(b / "tiny.manifest", "r", encoding="utf-8") as handle:
            assert parse_manifest(handle.read()).spec.seed == 10

    def test_f32_dtype_is_recorded_in_the_header(self, tmp_path):
        manifest = tmp_path / "m.in"
        manifest.write_text(format_manifest(_tiny_entry()))
        assert main(["synth", str(manifest), "--output", str(tmp_path), "--dtype", "f32le"]) == 0
        with open(tmp_path / "tiny.pavol", "r", encoding="utf-8") as handle:
            assert "dtype: f32le" in handle.read()
        volume = read_volume(str(tmp_path / "tiny.pavol"))
        assert np.array_equal(volume.data, volume.data.astype(np.float32))

    def test_unusable_entry_name_is_rejected(self, tmp_path, capsys):
        manifest = tmp_path / "m.in"
        manifest.write_text(format_manifest(_tiny_entry(name="../evil")))
        assert main(["synth", str(manifest), "--output", str(tmp_path / "out")]) == 2
        assert "not usable as a file name" in capsys.readouterr().err

    def test_manifest_that_is_not_utf8_exits_two_naming_it(self, tmp_path, capsys):
        manifest = tmp_path / "m.in"
        manifest.write_bytes(b"name: \xff\n")
        assert main(["synth", str(manifest), "--output", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}: manifest is not UTF-8: invalid start byte at byte 6\n"
        )

    def test_entry_name_too_long_for_a_file_is_one_line_and_writes_nothing(
        self, tmp_path, capsys
    ):
        # <name>.pavol fits, <name>-background.pavol.bin does not.
        manifest = tmp_path / "m.in"
        manifest.write_text(format_manifest(_tiny_entry(name="e" * 240)))
        out = tmp_path / "out"
        assert main(["synth", str(manifest), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 36] File name too long: ") and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["m.in"]

    def test_unknown_source_names_both_interpretations(self, tmp_path, capsys):
        rc = main(["synth", "phantom-l", "--output", str(tmp_path)])
        assert rc == 2
        assert "neither a corpus entry nor a manifest file" in capsys.readouterr().err


class TestQselect:
    def test_writes_the_sweep_table_and_logs_q(self, tiny_scan, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["qselect", "--input", tiny_scan["scan"],
                   "--config", tiny_scan["config"], "--output", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "q_final: " in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,r,best_q,best_psnr,q_final"
        assert len(lines) == 1 + 4  # n_sample rows
        grid = {1e-4, 1e-3, 1e-2}
        finals = set()
        for line in lines[1:]:
            x, y, r, best_q, best_psnr, q_final = line.split(",")
            assert 0 <= int(x) < 3 and 0 <= int(y) < 2
            assert float(r) > 0
            assert float(best_q) in grid
            finals.add(q_final)
        assert len(finals) == 1


class TestDenoise:
    def test_matches_the_library_call_bit_for_bit(self, tiny_scan, tmp_path):
        out = tmp_path / "out.pavol"
        rc = main(["denoise", "--input", tiny_scan["scan"],
                   "--config", tiny_scan["config"], "--q", "0.001",
                   "--output", str(out)])
        assert rc == 0
        got = read_volume(str(out))
        want = pipeline_denoise(
            read_volume(tiny_scan["scan"]),
            read_volume(tiny_scan["background"]),
            0.001,
            noise_window=32,
        )
        assert np.array_equal(got.data, want.data)
        assert (got.nx, got.ny, got.nt, got.dt) == (want.nx, want.ny, want.nt, want.dt)

    def test_auto_q_logs_the_selected_value(self, tiny_scan, tmp_path, capsys):
        out = tmp_path / "out.pavol"
        rc = main(["denoise", "--input", tiny_scan["scan"],
                   "--config", tiny_scan["config"], "--output", str(out)])
        assert rc == 0
        assert "q_final: " in capsys.readouterr().out
        assert out.exists()

    def test_background_path_resolves_relative_to_the_config(self, tiny_scan, tmp_path):
        # Run from a different working directory than the config's: the
        # relative background_path inside the file must still resolve.
        out = tmp_path / "out.pavol"
        old = os.getcwd()
        os.chdir(tmp_path)
        try:
            rc = main(["denoise", "--input", tiny_scan["scan"],
                       "--config", tiny_scan["config"], "--q", "0.001",
                       "--output", str(out)])
        finally:
            os.chdir(old)
        assert rc == 0

    def test_flags_override_the_config_file(self, tiny_scan, tmp_path):
        config2 = tiny_scan["dir"] / "pinned.config"
        text = (tiny_scan["dir"] / "tiny.config").read_text()
        config2.write_text(text.replace("q: auto", "q: 0.001"))
        out = tmp_path / "out.pavol"
        rc = main(["denoise", "--input", tiny_scan["scan"],
                   "--config", str(config2), "--q", "0.002",
                   "--output", str(out)])
        assert rc == 0
        want = pipeline_denoise(
            read_volume(tiny_scan["scan"]),
            read_volume(tiny_scan["background"]),
            0.002,
            noise_window=32,
        )
        assert np.array_equal(read_volume(str(out)).data, want.data)

    def test_without_config_or_background_runs_bare(self, tiny_scan, tmp_path):
        out = tmp_path / "bare.pavol"
        rc = main(["denoise", "--input", tiny_scan["scan"], "--q", "0.001",
                   "--noise-window", "32", "--output", str(out)])
        assert rc == 0
        want = pipeline_denoise(read_volume(tiny_scan["scan"]), None, 0.001, noise_window=32)
        assert np.array_equal(read_volume(str(out)).data, want.data)


class TestBaseline:
    def test_matches_the_library_call_bit_for_bit(self, tiny_scan, tmp_path):
        out = tmp_path / "ref.pavol"
        rc = main(["baseline", "--input", tiny_scan["scan"],
                   "--config", tiny_scan["config"], "--output", str(out)])
        assert rc == 0
        want = baseline_denoise(
            read_volume(tiny_scan["scan"]),
            read_volume(tiny_scan["background"]),
            2.0e7,
        )
        assert np.array_equal(read_volume(str(out)).data, want.data)


class TestReconstruct:
    def test_writes_pgm_with_meta(self, tiny_scan, tmp_path, capsys):
        out = tmp_path / "image.pgm"
        rc = main(["reconstruct", "--input", tiny_scan["scan"], "--output", str(out)])
        assert rc == 0
        raw = out.read_bytes()
        assert raw.startswith(b"P5\n3 2\n65535\n")
        assert len(raw) == len(b"P5\n3 2\n65535\n") + 3 * 2 * 2
        meta = (tmp_path / "image.pgm.meta").read_text()
        assert "rows: 2" in meta and "cols: 3" in meta


class TestMetrics:
    def test_writes_one_row_per_trace(self, tiny_scan, tmp_path):
        out = tmp_path / "m.csv"
        rc = main(["metrics", "--input", tiny_scan["scan"],
                   "--config", tiny_scan["config"], "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,psnr"
        assert len(lines) == 1 + 3 * 2
        for line in lines[1:]:
            x, y, value = line.split(",")
            float(value)  # parses

    def test_requires_an_roi(self, tiny_scan, tmp_path, capsys):
        rc = main(["metrics", "--input", tiny_scan["scan"],
                   "--output", str(tmp_path / "m.csv")])
        assert rc == 1
        assert "metrics needs an roi" in capsys.readouterr().err

    def test_edge_roi_prints_a_warning_but_still_runs(self, tiny_scan, tmp_path, capsys):
        out = tmp_path / "m.csv"
        rc = main(["metrics", "--input", tiny_scan["scan"], "--roi", "0:200",
                   "--output", str(out)])
        assert rc == 0
        assert "outer 10%" in capsys.readouterr().err
        assert out.exists()


class TestCompare:
    def test_writes_the_report_bundle(self, tiny_scan, tmp_path, capsys):
        out = tmp_path / "cmp"
        rc = main(["compare", "--input", tiny_scan["scan"],
                   "--config", tiny_scan["config"], "--output", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "q_final: " in stdout  # config asks for q='auto'
        assert "mean_psnr_gain_db: " in stdout
        for name in ("report.csv", "summary.txt", "input.pgm", "input.pgm.meta",
                     "pipeline.pgm", "pipeline.pgm.meta", "baseline.pgm",
                     "baseline.pgm.meta"):
            assert (out / name).exists(), name
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "x,y,psnr_pipeline,psnr_baseline,gain_db"
        assert len(lines) == 1 + 6
        summary = dict(
            line.split(": ", 1) for line in (out / "summary.txt").read_text().splitlines()
        )
        assert summary["n_traces"] == "6"
        assert summary["roi"] == "100:200"
        assert summary["noise_window"] == "32"
        assert 0 <= int(summary["n_gain_positive"]) <= 6
        mean = float(summary["mean_psnr_gain_db"])
        assert float(summary["min_psnr_gain_db"]) <= mean <= float(summary["max_psnr_gain_db"])

    def test_auto_q_warns_once_about_an_edge_roi(self, tiny_scan, tmp_path, capsys):
        rc = main(["compare", "--input", tiny_scan["scan"], "--config", tiny_scan["config"],
                   "--q", "auto", "--roi", "10:200", "--output", str(tmp_path / "cmp")])
        assert rc == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert "warning: roi [10:200) reaches into the outer 10%" in err

    def test_two_runs_are_byte_identical(self, tiny_scan, tmp_path):
        outs = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            rc = main(["compare", "--input", tiny_scan["scan"],
                       "--config", tiny_scan["config"], "--output", str(out)])
            assert rc == 0
            outs.append(out)
        for name in ("report.csv", "summary.txt", "input.pgm", "pipeline.pgm",
                     "baseline.pgm"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestCompareReferenceThread:
    """compare runs the FIR reference, its scores and the input's image on a
    worker thread while q is chosen and the pipeline runs and is scored.  The
    errors keep their sequential precedence: q's and the pipeline's come
    first, the reference's only after ``q_final:``, then the earlier trace's
    scoring error (the pipeline's at a tie), then the input image's.  The
    worker has finished when main returns, on every path."""

    @pytest.mark.parametrize(
        "faults, code, error",
        [
            ((), 0, ""),
            (("select",), 3, "error: {scan}: select failed\n"),
            (("pipeline",), 3, "error: pipeline failed\n"),
            (("reference",), 2, "error: reference failed\n"),
            (("select", "reference"), 3, "error: {scan}: select failed\n"),
            (("pipeline", "reference"), 3, "error: pipeline failed\n"),
        ],
        ids=["none", "select", "pipeline", "reference", "select+reference",
             "pipeline+reference"],
    )
    def test_errors_keep_their_order_and_the_worker_is_joined(
        self, tiny_scan, tmp_path, monkeypatch, capsys, faults, code, error
    ):
        finished = []

        def fail(exc):
            def raising(*args, **kwargs):
                raise exc
            return raising

        def slow_reference(*args, **kwargs):
            time.sleep(0.3)  # still running when q and the pipeline are done
            finished.append(True)
            if "reference" in faults:
                raise DataError("reference failed")
            return baseline_denoise(*args, **kwargs)

        monkeypatch.setattr(cli, "baseline_denoise", slow_reference)
        if "select" in faults:
            monkeypatch.setattr(cli, "select_q", fail(NumericsError("select failed")))
        if "pipeline" in faults:
            monkeypatch.setattr(cli, "pipeline_denoise", fail(NumericsError("pipeline failed")))
        threads = threading.active_count()
        out = tmp_path / "cmp"
        rc = main(["compare", "--input", tiny_scan["scan"], "--config", tiny_scan["config"],
                   "--output", str(out)])
        assert (rc, threading.active_count(), finished) == (code, threads, [True])
        captured = capsys.readouterr()
        assert captured.err == error.format(scan=tiny_scan["scan"])
        assert ("q_final: " in captured.out) == ("select" not in faults)
        assert out.exists() == (code == 0)

    def test_pipeline_error_wins_over_a_reference_error(self, tmp_path, capsys):
        # The difference of scan and background overflows in the pipeline, and
        # the cutoff lies beyond Nyquist for the reference.
        data, back = np.full(64, 1e-3), np.full(64, 1e-3)
        data[16:], back[16:] = 1e308, -1e308
        for name, samples in (("scan", data), ("bg", back)):
            write_volume(Volume(nx=1, ny=1, nt=64, dt=1e-8, data=samples),
                         str(tmp_path / f"{name}.pavol"))
        rc = main(["compare", "--input", str(tmp_path / "scan.pavol"),
                   "--background", str(tmp_path / "bg.pavol"), "--q", "1e-3",
                   "--noise-window", "16", "--roi", "20:40", "--lp-cutoff-hz", "6e7",
                   "--output", str(tmp_path / "cmp")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: trace (x=0, y=0): trace sample 16 is not finite\n"
        )

    def test_reference_error_after_a_good_pipeline_is_one_line(self, tiny_scan, tmp_path, capsys):
        threads = threading.active_count()
        out = tmp_path / "cmp"
        rc = main(["compare", "--input", tiny_scan["scan"], "--config", tiny_scan["config"],
                   "--lp-cutoff-hz", "1e12", "--output", str(out)])
        assert (rc, threading.active_count()) == (2, threads)
        captured = capsys.readouterr()
        assert captured.out.startswith("q_final: ")
        assert captured.err.startswith("error: cutoff 1000000000000.0 Hz outside (0, ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @staticmethod
    def _spied_compare(tiny_scan, tmp_path, monkeypatch, fail=(), hold=None, tag="cmp"):
        """Run compare with ``cli._scores`` and ``cli._reconstruct`` wrapped:
        an arm named in ``fail`` (``"pipeline"`` or ``"baseline"``, with a flat
        trace index) raises at that trace, ``"image"`` fails the input's image
        and ``"fir"`` the reference's filter.  ``hold="worker"`` holds the
        worker before its FIR, and ``hold="main"`` the main thread in the
        pipeline, until the other thread has begun the input's image or its
        scores have raised.  Checks that the worker has ended, that a held
        thread was released, and that only a success leaves an output
        directory, and returns the exit code, the thread that scored each arm
        and the threads that began the input's image."""
        fail, threads, imaged = dict(fail), {}, []
        released = threading.Event()
        scores, reconstruct = cli._scores, cli._reconstruct
        fir, pipeline = cli.baseline_denoise, cli.pipeline_denoise

        def failing_scores(volume, roi, source, pixels=None):
            arm = source.split()[0]
            threads[arm] = threading.current_thread()
            for i, (x, y, score) in enumerate(scores(volume, roi, source, pixels)):
                if fail.get(arm) == i:
                    released.set()
                    raise NumericsError(f"{source}: trace (x={x}, y={y}): {arm} failed")
                yield x, y, score

        def failing_reconstruct(volume, source):
            imaged.append(threading.current_thread())
            released.set()
            if "image" in fail:
                raise DataError(f"{source}: image failed")
            return reconstruct(volume, source)

        def failing_fir(*args):
            if hold == "worker":
                assert released.wait(10)
            if "fir" in fail:
                raise DataError("fir failed")
            return fir(*args)

        def held_pipeline(*args, **kwargs):
            if hold == "main":
                assert released.wait(10)
            return pipeline(*args, **kwargs)

        monkeypatch.setattr(cli, "_scores", failing_scores)
        monkeypatch.setattr(cli, "_reconstruct", failing_reconstruct)
        monkeypatch.setattr(cli, "baseline_denoise", failing_fir)
        monkeypatch.setattr(cli, "pipeline_denoise", held_pipeline)
        count = threading.active_count()
        out = tmp_path / tag
        rc = main(["compare", "--input", tiny_scan["scan"], "--config", tiny_scan["config"],
                   "--output", str(out)])
        assert threading.active_count() == count
        assert out.exists() == (rc == 0)
        return rc, threads, imaged

    @pytest.mark.parametrize(
        "fail, code, error",
        [
            ({"pipeline": 1, "baseline": 3}, 3, "pipeline output: trace (x=0, y=1): pipeline"),
            ({"pipeline": 2, "baseline": 2}, 3, "pipeline output: trace (x=1, y=0): pipeline"),
            ({"pipeline": 4, "baseline": 1}, 3, "baseline output: trace (x=0, y=1): baseline"),
            ({"pipeline": 5}, 3, "pipeline output: trace (x=2, y=1): pipeline"),
            ({"baseline": 0}, 3, "baseline output: trace (x=0, y=0): baseline"),
            ({"fir": 0, "pipeline": 0}, 2, "fir"),
            ({"image": 0, "pipeline": 5}, 3, "pipeline output: trace (x=2, y=1): pipeline"),
            ({"image": 0, "baseline": 5}, 3, "baseline output: trace (x=2, y=1): baseline"),
            ({"image": 0}, 2, "{scan}: image"),
        ],
        ids=["pipeline-earlier", "tie", "baseline-earlier", "pipeline-last", "baseline-first",
             "fir+pipeline", "image+pipeline", "image+baseline", "image"],
    )
    def test_scoring_errors_surface_in_trace_order(
        self, tiny_scan, tmp_path, monkeypatch, capsys, fail, code, error
    ):
        rc, _, _ = self._spied_compare(tiny_scan, tmp_path, monkeypatch, fail)
        captured = capsys.readouterr()
        assert rc == code
        assert captured.err == f"error: {error.format(scan=tiny_scan['scan'])} failed\n"
        assert captured.out.startswith("q_final: ")

    @pytest.mark.parametrize(
        "fail, code, error",
        [
            ({"image": 0, "pipeline": 5}, 3, "pipeline output: trace (x=2, y=1): pipeline"),
            ({"image": 0, "baseline": 5}, 3, "baseline output: trace (x=2, y=1): baseline"),
            ({"image": 0}, 2, "{scan}: image"),
        ],
        ids=["image+pipeline", "image+baseline", "image"],
    )
    @pytest.mark.parametrize("hold", ["worker", "main"])
    def test_an_image_error_comes_last_whichever_thread_made_the_image(
        self, tiny_scan, tmp_path, monkeypatch, capsys, hold, fail, code, error
    ):
        # The held thread makes the image only where the other one's scores
        # raised, as a thread whose own scores raised does not claim it.
        rc, threads, imaged = self._spied_compare(tiny_scan, tmp_path, monkeypatch, fail, hold)
        captured = capsys.readouterr()
        assert rc == code
        assert captured.err == f"error: {error.format(scan=tiny_scan['scan'])} failed\n"
        arms = {"worker": "pipeline", "main": "baseline"}
        failed = arms[hold] in fail
        assert (imaged == [threading.main_thread()]) == ((hold == "worker") != failed)
        assert (imaged == [threads["baseline"]]) == ((hold == "main") != failed)

    def test_the_reference_is_scored_off_the_main_thread_and_the_input_imaged_once(
        self, tiny_scan, tmp_path, monkeypatch
    ):
        rc, threads, imaged = self._spied_compare(tiny_scan, tmp_path, monkeypatch)
        assert rc == 0
        assert threads["pipeline"] is threading.main_thread()
        assert threads["baseline"] is not threading.main_thread()
        assert len(imaged) == 1
        assert imaged[0] in (threading.main_thread(), threads["baseline"])

    def test_either_thread_makes_the_input_image_with_the_same_bytes(
        self, tiny_scan, tmp_path, monkeypatch
    ):
        # Held in its FIR until the main thread has scored and begun the
        # image, the worker finds it taken; with the main thread held in the
        # pipeline until the worker has begun it, the main thread does.
        outs = {}
        for hold, maker in (("worker", "pipeline"), ("main", "baseline")):
            rc, threads, imaged = self._spied_compare(
                tiny_scan, tmp_path, monkeypatch, hold=hold, tag=hold
            )
            assert rc == 0
            assert imaged == [threads[maker]]
            outs[hold] = tmp_path / hold
            monkeypatch.undo()  # the next run wraps the real functions
        for name in ("report.csv", "summary.txt", "input.pgm", "input.pgm.meta",
                     "pipeline.pgm", "baseline.pgm"):
            assert (outs["worker"] / name).read_bytes() == (outs["main"] / name).read_bytes()

    @pytest.mark.parametrize("fault", ["select", "pipeline"])
    @pytest.mark.parametrize("waits", ["fir", "line"])
    def test_the_worker_stops_once_q_or_the_pipeline_has_failed(
        self, tiny_scan, tmp_path, monkeypatch, capsys, fault, waits
    ):
        # The worker waits, in its FIR or before it hands over the last trace
        # of its first scan line, until the main thread has failed (once the
        # worker is scoring, in the second case); from there it scores no
        # further line and makes no image.
        stops, waited, lines, images = [], [], [], []
        scoring = threading.Event()
        arm, scores, fir = cli._reference_arm, cli._scores, cli.baseline_denoise

        def spied_arm(*args):
            stops.append(args[-1])
            return arm(*args)

        def waiting_fir(*args):
            if waits == "fir":
                waited.append(stops[0].wait(10))
            return fir(*args)

        def spied_scores(volume, roi, source, pixels=None):
            for x, y, score in scores(volume, roi, source, pixels):
                if source.startswith("baseline"):
                    scoring.set()
                    if y == 0:
                        lines.append(x)
                    if waits == "line" and (x, y) == (0, volume.ny - 1):
                        waited.append(stops[0].wait(10))
                yield x, y, score

        def refused(*args, **kwargs):
            if waits == "line":
                waited.append(scoring.wait(10))
            raise NumericsError(f"{fault} failed")

        monkeypatch.setattr(cli, "_reference_arm", spied_arm)
        monkeypatch.setattr(cli, "baseline_denoise", waiting_fir)
        monkeypatch.setattr(cli, "_scores", spied_scores)
        monkeypatch.setattr(cli, "_reconstruct", lambda *args: images.append(args))
        monkeypatch.setattr(cli, {"select": "select_q", "pipeline": "pipeline_denoise"}[fault],
                            refused)
        threads = threading.active_count()
        out = tmp_path / "cmp"
        rc = main(["compare", "--input", tiny_scan["scan"], "--config", tiny_scan["config"],
                   "--output", str(out)])
        assert (rc, threading.active_count()) == (3, threads)
        assert waited == [True] * (2 if waits == "line" else 1)
        assert (lines, images) == ([] if waits == "fir" else [0], [])
        captured = capsys.readouterr()
        scan = f"{tiny_scan['scan']}: " if fault == "select" else ""
        assert captured.err == f"error: {scan}{fault} failed\n"
        assert ("q_final: " in captured.out) == (fault == "pipeline")
        assert not out.exists()

    @pytest.mark.parametrize("where", ["pipeline", "scores"])
    def test_an_interrupt_stops_and_joins_the_worker(
        self, tiny_scan, tmp_path, monkeypatch, where
    ):
        # The worker waits in its FIR until the main thread, interrupted in
        # the pipeline or in its scores, has told it to stop; it then scores
        # nothing and makes no image, and has ended when the interrupt leaves
        # main.
        stops, waited, scored, images = [], [], [], []
        arm, scores, fir = cli._reference_arm, cli._scores, cli.baseline_denoise

        def spied_arm(*args):
            stops.append(args[-1])
            return arm(*args)

        def waiting_fir(*args):
            waited.append(stops[0].wait(10))
            return fir(*args)

        def interrupted_scores(volume, roi, source, pixels=None):
            scored.append(source)
            if where == "scores":
                raise KeyboardInterrupt
            yield from scores(volume, roi, source, pixels)

        def interrupted_pipeline(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_reference_arm", spied_arm)
        monkeypatch.setattr(cli, "baseline_denoise", waiting_fir)
        monkeypatch.setattr(cli, "_scores", interrupted_scores)
        monkeypatch.setattr(cli, "_reconstruct", lambda *args: images.append(args))
        if where == "pipeline":
            monkeypatch.setattr(cli, "pipeline_denoise", interrupted_pipeline)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            main(["compare", "--input", tiny_scan["scan"], "--config", tiny_scan["config"],
                  "--output", str(tmp_path / "cmp")])
        assert threading.active_count() == threads
        assert (waited, images) == ([True], [])
        assert scored == ([] if where == "pipeline" else ["pipeline output"])
        assert not (tmp_path / "cmp").exists()

class TestVolumesAreCheckedOnce:
    """Every Volume is checked when it is built, and nowhere after."""

    def _checks(self, monkeypatch, argv):
        checked = []
        check = model.validate_volume

        def spy(volume):
            checked.append(volume)
            return check(volume)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("ascankit") and (
                getattr(module, "validate_volume", None) is check
            ):
                monkeypatch.setattr(module, "validate_volume", spy)
        assert main(argv) == 0
        return len(checked)

    def test_denoise_with_a_background_checks_three_volumes(
        self, tiny_scan, tmp_path, monkeypatch
    ):
        # The scan, its background and the denoised result.
        argv = ["denoise", "--input", tiny_scan["scan"], "--config", tiny_scan["config"],
                "--output", str(tmp_path / "out.pavol")]
        assert self._checks(monkeypatch, argv) == 3

    def test_compare_with_a_background_checks_four_volumes(
        self, tiny_scan, tmp_path, monkeypatch
    ):
        # The scan, its background and the two methods' results.
        argv = ["compare", "--input", tiny_scan["scan"], "--config", tiny_scan["config"],
                "--output", str(tmp_path / "cmp")]
        assert self._checks(monkeypatch, argv) == 4


class TestEnvelopesAreTakenOnce:
    @pytest.mark.parametrize("budget", [None, 4 * 256])
    def test_compare_envelopes_each_trace_once_per_pass(
        self, tiny_scan, tmp_path, monkeypatch, budget
    ):
        # Each trace of the scan, for its image, and each of either method's
        # result, for its scores and its image too: three passes of nx * ny
        # traces, in blocks of whole traces under the budget (4 of the 6
        # traces in the second case).
        passes, blocks = [], []
        envelope_blocks = metrics._envelope_blocks

        def spy(traces, *args, **kwargs):  # called on both threads
            count = 0
            for envs in envelope_blocks(traces, *args, **kwargs):
                count += len(envs)
                blocks.append(envs.shape)
                yield envs
            passes.append(count)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("ascankit") and (
                getattr(module, "_envelope_blocks", None) is envelope_blocks
            ):
                monkeypatch.setattr(module, "_envelope_blocks", spy)
        if budget is not None:
            monkeypatch.setattr(metrics, "_ENVELOPE_SAMPLES", budget)
        volume = read_volume(tiny_scan["scan"])
        argv = ["compare", "--input", tiny_scan["scan"], "--config", tiny_scan["config"],
                "--q", "1e-3", "--output", str(tmp_path / "cmp")]
        assert main(argv) == 0
        assert passes == [volume.nx * volume.ny] * 3
        assert all(nt == volume.nt for _, nt in blocks)
        assert max(rows for rows, _ in blocks) * volume.nt <= metrics._ENVELOPE_SAMPLES
        assert len(blocks) == 3 * (1 if budget is None else 2)


class TestFirReferenceSkipsFiltfilt:
    """On traces longer than its taps, the FIR reference computes only the
    samples that scipy's ``filtfilt`` keeps, without calling it or solving
    for its initial conditions (``lfilter_zi``)."""

    def _calls(self, monkeypatch, tmp_path, nt):
        calls = {"filtfilt": 0, "lfilter_zi": 0}

        def counted(name, fn):
            def spy(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return spy

        monkeypatch.setattr(scipy.signal, "filtfilt", counted("filtfilt", scipy.signal.filtfilt))
        zi = counted("lfilter_zi", _signaltools.lfilter_zi)
        monkeypatch.setattr(scipy.signal, "lfilter_zi", zi)
        monkeypatch.setattr(_signaltools, "lfilter_zi", zi)  # the one filtfilt calls
        rng = np.random.default_rng(nt)
        for name in ("scan", "bg"):
            write_volume(Volume.from_grid(rng.normal(0.0, 0.05, (2, 2, nt)), 1e-8),
                         str(tmp_path / f"{name}.pavol"))
        argv = ["compare", "--input", str(tmp_path / "scan.pavol"),
                "--background", str(tmp_path / "bg.pavol"), "--q", "1e-3",
                "--noise-window", "16", "--roi", f"{nt // 4}:{nt // 2}",
                "--lp-cutoff-hz", "5e6", "--output", str(tmp_path / "cmp")]
        assert main(argv) == 0
        return calls

    def test_long_traces_call_no_filtfilt(self, monkeypatch, tmp_path):
        assert self._calls(monkeypatch, tmp_path, 256) == {"filtfilt": 0, "lfilter_zi": 0}

    def test_short_traces_call_filtfilt_once_per_block_and_arm(self, monkeypatch, tmp_path):
        # One block of the scan's four traces and one of its background's.
        assert self._calls(monkeypatch, tmp_path, 64) == {"filtfilt": 2, "lfilter_zi": 2}


class TestFailureModes:
    @pytest.fixture
    def loud_outside_roi(self, tmp_path):
        """A trace whose envelope energy outside the roi 30:90 overflows."""
        samples = np.full(256, 1e-3)
        samples[100:200] = 1e200
        path = tmp_path / "loud.pavol"
        write_volume(Volume(nx=1, ny=1, nt=256, dt=1e-8, data=samples), str(path))
        return str(path)

    @pytest.mark.parametrize(
        "argv,where",
        [
            (["metrics"], "{input}: trace (x=0, y=0): "),
            (["compare", "--q", "1e-3", "--lp-cutoff-hz", "1e7"], "pipeline output: trace (x=0, y=0): "),
            (["qselect", "--q-grid", "1e-4,1e-2", "--n-sample", "1"],
             "{input}: trace (x=0, y=0): "),
        ],
        ids=["metrics", "compare", "qselect"],
    )
    def test_overflowing_noise_power_is_one_line_exit_three(
        self, loud_outside_roi, tmp_path, capsys, argv, where
    ):
        out = tmp_path / "out"
        rc = main([*argv, "--input", loud_outside_roi, "--roi", "30:90",
                   "--noise-window", "16", "--output", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: {where.format(input=loud_outside_roi)}noise power outside the roi overflows\n"
        )
        assert not out.exists()

    def test_overflowing_background_difference_exits_two(self, tmp_path, capsys):
        data, back = np.full(64, 1e-3), np.full(64, 1e-3)
        data[16:], back[16:] = 1e308, -1e308
        for name, samples in (("scan", data), ("bg", back)):
            write_volume(Volume(nx=1, ny=1, nt=64, dt=1e-8, data=samples),
                         str(tmp_path / f"{name}.pavol"))
        out = tmp_path / "o.pavol"
        rc = main(["denoise", "--input", str(tmp_path / "scan.pavol"), "--q", "1e-3",
                   "--background", str(tmp_path / "bg.pavol"), "--noise-window", "16",
                   "--output", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: trace (x=0, y=0): trace sample 16 is not finite\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("nt", [64, 256])  # filtered by filtfilt, and without it
    @pytest.mark.parametrize("argv", [
        ["baseline"],
        # A q this small keeps the pipeline's output finite, so the FIR runs.
        ["compare", "--q", "1e-12", "--noise-window", "16"],
    ], ids=["baseline", "compare"])
    def test_overflowing_low_pass_is_one_line_naming_the_trace(
        self, tmp_path, capsys, argv, nt
    ):
        data = np.random.default_rng(3).normal(0.0, 0.05, (2, 2, nt))
        data[1, 0, nt // 2 :] = -1e308  # 2*x[-1] - x[-k] of the odd extension overflows
        data[1, 0, -1] = 1e308
        path = tmp_path / "loud.pavol"
        write_volume(Volume.from_grid(data, 1e-8), str(path))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([*argv, "--input", str(path), "--lp-cutoff-hz", "5e6",
                       "--roi", f"{nt // 4}:{nt // 2}", "--output", str(out)])
        assert (rc, [str(w.message) for w in caught]) == (2, [])
        err = capsys.readouterr().err
        assert err.startswith("error: trace (x=1, y=0): trace sample "), err
        assert err.endswith(" is not finite\n") and err.count("\n") == 1, err
        assert not out.exists()

    def test_overflowing_low_pass_difference_is_one_line(self, tmp_path, capsys):
        data, back = np.full(256, 1e-3), np.full(256, 1e-3)
        data[40:60], back[40:60] = 1e308, -1e308  # finite low-passes, not their difference
        for name, samples in (("scan", data), ("bg", back)):
            write_volume(Volume(nx=1, ny=1, nt=256, dt=1e-8, data=samples),
                         str(tmp_path / f"{name}.pavol"))
        out = tmp_path / "o.pavol"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["baseline", "--input", str(tmp_path / "scan.pavol"),
                       "--background", str(tmp_path / "bg.pavol"), "--lp-cutoff-hz", "5e6",
                       "--output", str(out)])
        assert (rc, [str(w.message) for w in caught]) == (2, [])
        assert capsys.readouterr().err == (
            "error: trace (x=0, y=0): trace sample 44 is not finite\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["reconstruct"], ["metrics", "--roi", "100:200"]])
    def test_overflowing_envelope_is_one_line_naming_the_file_and_trace(
        self, tmp_path, capsys, argv
    ):
        # Finite samples whose sum, the spectrum's DC bin, overflows.
        data = np.full((2, 3, 256), 1e-3)
        data[1, 2, 16:] = 1e306
        data[1, 2, 17::2] = -1e306
        data[1, 2, 16:200] = 1e306
        path = tmp_path / "loud.pavol"
        write_volume(Volume.from_grid(data, 1e-8), str(path))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([*argv, "--input", str(path), "--output", str(out)])
        assert (rc, [str(w.message) for w in caught]) == (2, [])
        assert capsys.readouterr().err == (
            f"error: {path}: trace (x=1, y=2): trace sample 0 is not finite\n"
        )
        assert not out.exists()

    def test_missing_input_volume_exits_two(self, tmp_path, capsys):
        rc = main(["denoise", "--input", str(tmp_path / "nope.pavol"), "--q", "0.001",
                   "--output", str(tmp_path / "o.pavol")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_truncated_payload_exits_two(self, tiny_scan, tmp_path, capsys):
        scan = tmp_path / "tiny.pavol"
        shutil.copy(tiny_scan["scan"], scan)
        data = tmp_path / "tiny.pavol.bin"
        shutil.copy(tiny_scan["scan"] + ".bin", data)
        with open(data, "r+b") as handle:
            handle.truncate(100)
        rc = main(["reconstruct", "--input", str(scan), "--output", str(tmp_path / "i.pgm")])
        assert rc == 2
        assert "bytes" in capsys.readouterr().err

    def test_zero_volume_metrics_exits_three_naming_the_trace(self, tmp_path, capsys):
        volume = Volume(nx=1, ny=1, nt=256, dt=1e-8, data=np.zeros(256))
        path = tmp_path / "silent.pavol"
        write_volume(volume, str(path))
        rc = main(["metrics", "--input", str(path), "--roi", "100:200",
                   "--output", str(tmp_path / "m.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "trace (x=0, y=0)" in err
        assert "noise power" in err

    def test_overflowing_noise_estimate_is_one_line_naming_the_trace(self, tmp_path, capsys):
        data = np.full((2, 2, 64), 0.5)
        data[0, 1, :16] = 1e200  # finite samples whose mean square overflows: r = inf
        path = tmp_path / "loud.pavol"
        write_volume(Volume.from_grid(data, 1e-8), str(path))
        rc = main(["denoise", "--input", str(path), "--q", "0.001", "--noise-window", "16",
                   "--output", str(tmp_path / "o.pavol")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: trace (x=0, y=1): measurement-noise variance r must be finite and >= 0\n"
        )

    def test_output_into_a_missing_directory_exits_two(self, tiny_scan, tmp_path, capsys):
        rc = main(["denoise", "--input", tiny_scan["scan"], "--q", "0.001",
                   "--noise-window", "32",
                   "--output", str(tmp_path / "missing" / "o.pavol")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
