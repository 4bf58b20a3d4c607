"""On-disk formats: volume pairs, PGM images, CSV tables, and config files."""

import csv
import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ascankit.io import (
    PipelineConfig,
    VOLUME_MAGIC,
    _encoded,
    atomic_write_bytes,
    atomic_write_text,
    config_from_strings,
    config_to_strings,
    format_csv,
    format_kv,
    parse_kv,
    parse_roi,
    read_config,
    read_volume,
    write_csv,
    write_image,
    write_volume,
)
from ascankit.model import DataError, EnvelopeImage, RoiSpec, Volume


def _volume224():
    data = np.arange(16.0) / 7.0
    return Volume(nx=2, ny=2, nt=4, dt=2.5e-9, data=data)


class TestAtomicWrites:
    def test_writes_and_overwrites(self, tmp_path):
        path = str(tmp_path / "file.txt")
        atomic_write_text(path, "first\n")
        atomic_write_text(path, "second\n")
        assert (tmp_path / "file.txt").read_text() == "second\n"

    def test_leaves_no_temp_files(self, tmp_path):
        atomic_write_bytes(str(tmp_path / "blob"), b"\x00\x01")
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"blob"}


class TestKvFormat:
    def test_round_trip(self):
        pairs = {"alpha": "1", "beta": "two words", "empty": ""}
        assert parse_kv(format_kv(pairs)) == pairs

    def test_skips_comments_and_blank_lines(self):
        text = "# note\n\nkey: value\n   # indented comment\n"
        assert parse_kv(text) == {"key": "value"}

    def test_value_may_contain_colons(self):
        assert parse_kv("roi: 10:20") == {"roi": "10:20"}

    def test_trims_whitespace(self):
        assert parse_kv("  key :  value  ") == {"key": "value"}

    def test_missing_separator_names_source_and_line(self):
        with pytest.raises(DataError, match=r"cfg:2"):
            parse_kv("a: 1\nbroken line\n", source="cfg")

    def test_empty_key_rejected(self):
        with pytest.raises(DataError, match="empty key"):
            parse_kv(": value")

    def test_duplicate_key_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            parse_kv("k: 1\nk: 2")

    def test_unrepresentable_pairs_rejected(self):
        with pytest.raises(DataError):
            format_kv({"a:b": "1"})
        with pytest.raises(DataError):
            format_kv({"a": "line\nbreak"})

    @pytest.mark.parametrize("value", ["a\rb", "a\vb", "a\fb", "a\x85b", "a b"])
    def test_every_reader_line_break_is_unrepresentable(self, value):
        # str.splitlines() breaks on more than plain newlines; the writer
        # must refuse all of them or a written value would parse as two lines.
        with pytest.raises(DataError, match="not representable"):
            format_kv({"a": value})
        with pytest.raises(DataError, match="not representable"):
            format_kv({value: "1"})


class TestVolumeRoundTrip:
    def test_f64_round_trip_is_bit_identical(self, tmp_path):
        volume = _volume224()
        path = str(tmp_path / "vol.pavol")
        write_volume(volume, path)
        back = read_volume(path)
        assert (back.nx, back.ny, back.nt) == (2, 2, 4)
        assert back.dt == volume.dt
        assert np.array_equal(back.data, volume.data)
        assert back.data.dtype == np.float64

    def test_f32_promotes_to_f64_on_read(self, tmp_path):
        volume = _volume224()
        path = str(tmp_path / "vol.pavol")
        write_volume(volume, path, dtype="f32le")
        back = read_volume(path)
        assert back.data.dtype == np.float64
        assert np.array_equal(
            back.data, volume.data.astype(np.float32).astype(np.float64)
        )

    def test_f32_read_holds_one_cast_copy(self, tmp_path):
        # The raw bytes plus one f64 copy is 3x the payload; the finiteness
        # check adds a quarter.  A second f64 cast would add 2x more.
        volume = Volume.from_grid(np.random.default_rng(0).standard_normal((8, 8, 4096)), 1e-8)
        path = str(tmp_path / "vol.pavol")
        write_volume(volume, path, dtype="f32le")
        payload = (tmp_path / "vol.pavol.bin").stat().st_size
        tracemalloc.start()
        try:
            read_volume(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * payload

    def test_rewrite_defaults_to_f64_header(self, tmp_path):
        volume = _volume224()
        first = str(tmp_path / "a.pavol")
        write_volume(volume, first, dtype="f32le")
        again = str(tmp_path / "b.pavol")
        write_volume(read_volume(first), again)
        assert parse_kv((tmp_path / "b.pavol").read_text())["dtype"] == "f64le"

    def test_explicit_dtype_is_preserved_on_rewrite(self, tmp_path):
        volume = _volume224()
        first = str(tmp_path / "a.pavol")
        write_volume(volume, first, dtype="f32le")
        again = str(tmp_path / "b.pavol")
        write_volume(read_volume(first), again, dtype="f32le")
        assert parse_kv((tmp_path / "b.pavol").read_text())["dtype"] == "f32le"

    def test_header_references_data_by_basename(self, tmp_path):
        volume = _volume224()
        src = tmp_path / "src"
        dst = tmp_path / "dst"
        src.mkdir()
        dst.mkdir()
        write_volume(volume, str(src / "vol.pavol"))
        (src / "vol.pavol").rename(dst / "vol.pavol")
        (src / "vol.pavol.bin").rename(dst / "vol.pavol.bin")
        back = read_volume(str(dst / "vol.pavol"))
        assert np.array_equal(back.data, volume.data)

    def test_provenance_field_round_trips_harmlessly(self, tmp_path):
        path = str(tmp_path / "vol.pavol")
        write_volume(_volume224(), path, provenance="generated for a unit test")
        assert "provenance" in parse_kv((tmp_path / "vol.pavol").read_text())
        read_volume(path)


class TestVolumeErrors:
    def test_missing_header_names_path(self, tmp_path):
        missing = str(tmp_path / "nope.pavol")
        with pytest.raises(FileNotFoundError, match="volume header not found"):
            read_volume(missing)

    def test_missing_data_names_path(self, tmp_path):
        path = str(tmp_path / "vol.pavol")
        write_volume(_volume224(), path)
        (tmp_path / "vol.pavol.bin").unlink()
        with pytest.raises(FileNotFoundError, match="volume data not found"):
            read_volume(path)

    def test_truncated_data_reports_byte_arithmetic(self, tmp_path):
        path = str(tmp_path / "vol.pavol")
        write_volume(_volume224(), path)
        blob = (tmp_path / "vol.pavol.bin").read_bytes()
        (tmp_path / "vol.pavol.bin").write_bytes(blob[:60])
        with pytest.raises(DataError, match=r"60 bytes .* 2\*2\*4\*8 = 128"):
            read_volume(path)

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "vol.pavol")
        write_volume(_volume224(), path)
        text = (tmp_path / "vol.pavol").read_text().replace(VOLUME_MAGIC, "BOGUS1")
        (tmp_path / "vol.pavol").write_text(text)
        with pytest.raises(DataError, match="bad magic"):
            read_volume(path)

    def test_unknown_dtype(self, tmp_path):
        path = str(tmp_path / "vol.pavol")
        write_volume(_volume224(), path)
        text = (tmp_path / "vol.pavol").read_text().replace("f64le", "f16be")
        (tmp_path / "vol.pavol").write_text(text)
        with pytest.raises(DataError, match="unknown dtype"):
            read_volume(path)

    def test_unsupported_byte_order(self, tmp_path):
        path = str(tmp_path / "vol.pavol")
        write_volume(_volume224(), path)
        text = (tmp_path / "vol.pavol").read_text().replace("little-endian", "big-endian")
        (tmp_path / "vol.pavol").write_text(text)
        with pytest.raises(DataError, match="byte_order"):
            read_volume(path)

    def test_unsupported_layout(self, tmp_path):
        path = str(tmp_path / "vol.pavol")
        write_volume(_volume224(), path)
        text = (tmp_path / "vol.pavol").read_text().replace("x-major", "t-major")
        (tmp_path / "vol.pavol").write_text(text)
        with pytest.raises(DataError, match="layout"):
            read_volume(path)

    def test_missing_required_field(self, tmp_path):
        path = str(tmp_path / "vol.pavol")
        write_volume(_volume224(), path)
        lines = [
            line
            for line in (tmp_path / "vol.pavol").read_text().splitlines()
            if not line.startswith("nx:")
        ]
        (tmp_path / "vol.pavol").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="missing required field 'nx'"):
            read_volume(path)

    def test_nonfinite_payload_rejected_on_read(self, tmp_path):
        path = str(tmp_path / "vol.pavol")
        write_volume(_volume224(), path)
        raw = bytearray((tmp_path / "vol.pavol.bin").read_bytes())
        raw[0:8] = np.float64("nan").tobytes()
        (tmp_path / "vol.pavol.bin").write_bytes(bytes(raw))
        with pytest.raises(DataError, match="finite"):
            read_volume(path)

    def test_write_rejects_unknown_dtype(self, tmp_path):
        with pytest.raises(DataError, match="unknown dtype"):
            write_volume(_volume224(), str(tmp_path / "vol.pavol"), dtype="f16le")

    def test_f32_overflow_names_the_first_sample_and_writes_nothing(self, tmp_path):
        data = np.arange(16.0)
        data[[6, 13]] = [-1e39, 1e300]
        volume = Volume(nx=2, ny=2, nt=4, dt=2.5e-9, data=data)
        with pytest.raises(DataError, match=r"\(x=0, y=1, t=2\) = -1e\+39 overflows f32le"):
            write_volume(volume, str(tmp_path / "vol.pavol"), dtype="f32le")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dtype, itemsize", [("f32le", 4), ("f64le", 8)])
    def test_encoding_makes_no_temporary_but_its_output(self, dtype, itemsize):
        # A boolean mask of 64**3 samples would take 256 KiB.
        volume = Volume.from_grid(np.ones((64, 64, 64)), 1e-6)
        tracemalloc.start()
        try:
            samples = _encoded(volume, dtype)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert samples.itemsize == itemsize
        assert peak < (samples.nbytes if dtype == "f32le" else 0) + 4096

    def test_f32_max_is_written_and_read_back(self, tmp_path):
        top = float(np.finfo(np.float32).max)
        volume = Volume(nx=1, ny=1, nt=2, dt=1e-9, data=[top, -top])
        path = str(tmp_path / "vol.pavol")
        write_volume(volume, path, dtype="f32le")
        assert np.array_equal(read_volume(path).data, volume.data)


class TestWriteImage:
    def test_pgm_bytes_and_sidecar(self, tmp_path):
        pixels = np.array([[0.0, 1.0 / 3.0], [2.0 / 3.0, 1.0]])
        image = EnvelopeImage(nx=2, ny=2, pixels=pixels)
        path = str(tmp_path / "img.pgm")
        write_image(image, path)
        blob = (tmp_path / "img.pgm").read_bytes()
        header = b"P5\n2 2\n65535\n"
        assert blob.startswith(header)
        body = np.frombuffer(blob[len(header) :], dtype=">u2")
        # Rows follow the transposed grid: row y holds pixels (0..nx-1, y).
        assert body.tolist() == [0, 43690, 21845, 65535]
        meta = parse_kv((tmp_path / "img.pgm.meta").read_text())
        assert meta["min"] == "0.0"
        assert meta["max"] == "1.0"
        assert meta["maxval"] == "65535"
        assert meta["rows"] == "2"
        assert meta["cols"] == "2"
        assert meta["degenerate"] == "false"

    def test_constant_image_is_flagged_degenerate(self, tmp_path):
        image = EnvelopeImage(nx=3, ny=1, pixels=np.full((3, 1), 7.5))
        path = str(tmp_path / "flat.pgm")
        write_image(image, path)
        blob = (tmp_path / "flat.pgm").read_bytes()
        body = np.frombuffer(blob.split(b"\n65535\n", 1)[1], dtype=">u2")
        assert set(body.tolist()) == {32768}
        meta = parse_kv((tmp_path / "flat.pgm.meta").read_text())
        assert meta["degenerate"] == "true"


class TestCsv:
    def test_cells_use_repr_for_floats_and_words_for_bools(self):
        text = format_csv(
            ["x", "value", "flag"],
            [[1, 0.1, True], [2, 1e-9, False]],
        )
        assert text == "x,value,flag\n1,0.1,true\n2,1e-09,false\n"

    def test_numpy_scalars_are_unwrapped(self):
        text = format_csv(["a", "b"], [[np.float64(0.5), np.int64(3)]])
        assert text == "a,b\n0.5,3\n"

    @given(
        st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=8),
        st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_python_and_numpy_cells_give_the_same_text(self, floats, ints):
        floats += [0.0, -0.0, 5e-324, 1e-300, 1.5e308, 0.1, 1 / 3]
        singles = [np.float32(v) for v in floats if abs(v) < 3e38 or not np.isfinite(v)]
        cases = [
            ([float(v) for v in floats], [np.float64(v) for v in floats]),
            ([float(v) for v in singles], singles),
            (ints, [np.int64(v) for v in ints]),
            ([True, False], [np.bool_(True), np.bool_(False)]),
        ]
        for python_cells, numpy_cells in cases:
            header = [f"c{i}" for i in range(len(python_cells))]
            assert format_csv(header, [python_cells]) == format_csv(header, [numpy_cells])
        assert format_csv(["a", "b"], [[True, np.bool_(False)]]) == "a,b\ntrue,false\n"

    def test_plain_rows_are_the_bytes_csv_writer_writes(self):
        # Rows of exact ints and floats are joined directly, every other row
        # goes through csv.writer; both must give csv.writer's bytes.
        header = ["a", "b", "c"]
        rows = [
            [float("nan"), float("inf"), float("-inf")],
            [-0.0, 5e-324, 1 << 70],
            [0, -7, 0.1],
            [True, 1, 2.5],
            [np.float64(0.5), 1, 2.5],
            ["needs, \"quoting\"", 1, 2.5],
            [3, 4.0, 1e16],
        ]
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                ["true" if cell is True else repr(float(cell))
                 if isinstance(cell, float) else str(cell) for cell in row]
            )
        got = format_csv(header, rows)
        assert got.encode() == want.getvalue().encode()
        assert got.splitlines()[1:4] == ["nan,inf,-inf", "-0.0,5e-324,1180591620717411303424",
                                         "0,-7,0.1"]
        assert got.splitlines()[6] == '"needs, ""quoting""",1,2.5'

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(DataError, match="cells"):
            format_csv(["a", "b"], [[1]])

    def test_write_csv(self, tmp_path):
        write_csv(str(tmp_path / "t.csv"), ["a"], [[1], [2]])
        assert (tmp_path / "t.csv").read_text() == "a\n1\n2\n"


class TestParseRoi:
    def test_parses_half_open_window(self):
        roi = parse_roi("10:20")
        assert (roi.t_lo, roi.t_hi) == (10, 20)

    def test_missing_colon(self):
        with pytest.raises(DataError, match="t_lo:t_hi"):
            parse_roi("1020")

    def test_non_integer_bounds(self):
        with pytest.raises(DataError, match="integers"):
            parse_roi("a:20")

    def test_invalid_window_propagates(self):
        with pytest.raises(DataError):
            parse_roi("20:10")


class TestPipelineConfig:
    def test_defaults(self):
        config = PipelineConfig()
        assert config.q == "auto"
        assert config.noise_window == "auto"
        assert config.roi is None
        assert config.q_grid is None
        assert config.n_sample == 32
        assert config.seed == 0
        assert config.lp_cutoff_hz == 5e6
        assert config.background_path is None

    def test_numeric_q_is_coerced_to_float(self):
        assert PipelineConfig(q=1).q == 1.0

    @pytest.mark.parametrize("q", [0, -1.0, float("nan"), "fast"])
    def test_rejects_bad_q(self, q):
        with pytest.raises(DataError, match="q must be"):
            PipelineConfig(q=q)

    @pytest.mark.parametrize("window", [0, -4, 2.5, "half"])
    def test_rejects_bad_noise_window(self, window):
        with pytest.raises(DataError, match="noise_window"):
            PipelineConfig(noise_window=window)

    def test_rejects_empty_or_nonpositive_grid(self):
        with pytest.raises(DataError, match="q_grid"):
            PipelineConfig(q_grid=())
        with pytest.raises(DataError, match="q_grid"):
            PipelineConfig(q_grid=(1e-3, 0.0))

    @pytest.mark.parametrize("n", [0, -1, 1.5])
    def test_rejects_bad_n_sample(self, n):
        with pytest.raises(DataError, match="n_sample"):
            PipelineConfig(n_sample=n)

    @pytest.mark.parametrize("cutoff", [0.0, -5e6, float("inf")])
    def test_rejects_bad_cutoff(self, cutoff):
        with pytest.raises(DataError, match="lp_cutoff_hz"):
            PipelineConfig(lp_cutoff_hz=cutoff)

    @pytest.mark.parametrize("seed", [-1, 2.0])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(DataError, match="seed"):
            PipelineConfig(seed=seed)


class TestReadConfig:
    def test_full_file(self, tmp_path):
        text = (
            "q: 2.5e-4\n"
            "noise_window: 64\n"
            "roi: 100:200\n"
            "q_grid: 1e-6, 1e-5, 1e-4\n"
            "n_sample: 8\n"
            "seed: 3\n"
            "lp_cutoff_hz: 1e7\n"
            "background_path: bg.pavol\n"
        )
        path = tmp_path / "run.config"
        path.write_text(text)
        config = read_config(str(path))
        assert config.q == 2.5e-4
        assert config.noise_window == 64
        assert config.roi == RoiSpec(100, 200)
        assert config.q_grid == (1e-6, 1e-5, 1e-4)
        assert config.n_sample == 8
        assert config.seed == 3
        assert config.lp_cutoff_hz == 1e7
        assert config.background_path == "bg.pavol"

    def test_partial_file_keeps_defaults(self, tmp_path):
        path = tmp_path / "run.config"
        path.write_text("q: auto\nroi: 10:20\n")
        config = read_config(str(path))
        assert config.q == "auto"
        assert config.roi == RoiSpec(10, 20)
        assert config.n_sample == 32

    def test_empty_background_means_none(self, tmp_path):
        path = tmp_path / "run.config"
        path.write_text("background_path: \n")
        assert read_config(str(path)).background_path is None

    def test_empty_grid_means_derive_from_data(self, tmp_path):
        # The writer records an auto grid as an empty field, so the reader
        # must map it back to None rather than an (invalid) empty tuple.
        path = tmp_path / "run.config"
        path.write_text("q_grid: \n")
        assert read_config(str(path)).q_grid is None

    def test_unknown_keys_are_rejected(self, tmp_path):
        path = tmp_path / "run.config"
        path.write_text("qq: 1\n")
        with pytest.raises(DataError, match="unknown config keys"):
            read_config(str(path))

    @pytest.mark.parametrize(
        "line,message",
        [
            ("roi: a:5", "roi 'a:5' has a non-integer bound"),
            ("roi: 5", "roi '5' is not 't_lo:t_hi'"),
            ("roi: 5:3", r"roi \[5, 3\) is empty or negative"),
            ("n_sample: 0", "n_sample must be a positive integer, got 0"),
            ("seed: -1", "seed must be a non-negative integer"),
            ("lp_cutoff_hz: -5", "lp_cutoff_hz must be finite and positive"),
        ],
    )
    def test_range_and_roi_errors_name_the_file(self, tmp_path, line, message):
        path = tmp_path / "bad.config"
        path.write_text(line + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {message}"):
            read_config(str(path))

    def test_command_line_errors_name_the_command_line(self):
        with pytest.raises(DataError, match="^command line: n_sample must be"):
            config_from_strings({"n_sample": "0"}, source="command line")
        with pytest.raises(DataError, match="^command line: roi 'a:5' has"):
            config_from_strings({"roi": "a:5"}, source="command line", base=PipelineConfig())

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="config file not found"):
            read_config(str(tmp_path / "absent.config"))

    def test_bad_number_names_source(self, tmp_path):
        path = tmp_path / "run.config"
        path.write_text("q: plenty\n")
        with pytest.raises(DataError, match="not a number"):
            read_config(str(path))

    def test_overrides_apply_on_top_of_base(self):
        base = PipelineConfig(q=1.0, n_sample=4)
        merged = config_from_strings({"q": "auto", "seed": "9"}, base=base)
        assert merged.q == "auto"
        assert merged.seed == 9
        assert merged.n_sample == 4


POSITIVE = st.floats(min_value=1e-300, max_value=1e300)


@st.composite
def _configs(draw):
    t_lo = draw(st.integers(min_value=0, max_value=10**6))
    return PipelineConfig(
        q=draw(st.one_of(st.just("auto"), POSITIVE)),
        noise_window=draw(st.one_of(st.just("auto"), st.integers(min_value=1, max_value=10**6))),
        roi=RoiSpec(t_lo, t_lo + draw(st.integers(min_value=1, max_value=10**6))),
        q_grid=draw(st.one_of(st.none(), st.lists(POSITIVE, min_size=1, max_size=8))),
        n_sample=draw(st.integers(min_value=1, max_value=1000)),
        seed=draw(st.integers(min_value=0, max_value=2**63)),
        lp_cutoff_hz=draw(POSITIVE),
        background_path=draw(st.one_of(st.none(), st.sampled_from(["bg.pavol", "a b/c.pavol"]))),
    )


class TestConfigCodec:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(config=_configs())
    def test_strings_round_trip_through_a_file(self, config):
        pairs = config_to_strings(config)
        assert config_from_strings(parse_kv(format_kv(pairs))) == config

    def test_unset_roi_is_left_out(self):
        pairs = config_to_strings(PipelineConfig())
        assert "roi" not in pairs
        assert config_from_strings(pairs) == PipelineConfig()
