"""Self-tests of the benchmark's own arithmetic and checks.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(0, _HERE)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from ascankit.cli import main as cli_main  # noqa: E402
from ascankit.model import Trace  # noqa: E402
from ascankit.rts import denoise_trace  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 3.0, 0, "r"),
        Span("b", 2.0, 5.0, 0, "r"),  # overlaps a: [1, 5] counts once
        Span("c", 9.0, 12.0, 0, "r"),  # runs past the parent: only [9, 10] counts
        Span("a.inner", 1.5, 2.5, 1, "r"),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])


def test_summarize_adds_calls_times_and_sizes_per_name():
    spans = [
        Span("root", 0.0, 4.0, None, "r"),
        Span("leaf", 0.0, 1.0, 0, "r", size=10),
        Span("leaf", 2.0, 3.0, 0, "r", size=5),
    ]
    table = tracing.summarize(spans)
    assert table["leaf"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0, "size": 15}
    assert table["root"]["self_s"] == pytest.approx(2.0)


def test_wrapped_calls_nest_under_the_open_span_and_are_restored():
    class Owner:
        @staticmethod
        def work(values):
            return sum(values)

    tracer = tracing.Tracer("t#0")
    original = Owner.work
    wrapped = staticmethod(tracer.wrap(original, "work", size=len))
    with tracing.patched([(Owner, "work", wrapped)]):
        with tracer.span("outer"):
            assert Owner.work([1, 2, 3]) == 6
    assert Owner.work is original
    outer, inner = tracer.spans
    assert (inner.name, inner.parent, inner.size, inner.run_id) == ("work", 0, 3, "t#0")
    assert outer.start <= inner.start <= inner.end <= outer.end


def _fake_outputs(directory):
    for rel in checks.OUTPUTS:
        path = os.path.join(directory, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(rel.encode() * 3)


def test_a_flipped_byte_trips_the_golden_check(tmp_path):
    _fake_outputs(tmp_path)
    found = checks.digests(tmp_path)
    golden = {"seed": 0, "q_final": "1e-09",
              "sha256": {rel: found[rel] for rel in checks.GOLDEN_FILES}}
    assert checks.golden_problems(golden, found, "1e-09") == []

    path = os.path.join(tmp_path, "compare", "report.csv")
    with open(path, "r+b") as handle:
        first = handle.read(1)
        handle.seek(0)
        handle.write(bytes([first[0] ^ 0x01]))
    problems = checks.golden_problems(golden, checks.digests(tmp_path), "1e-09")
    assert problems == ["compare/report.csv differs from its golden sha256"]
    assert checks.golden_problems(golden, found, "1.0000000000000002e-09")


def test_goldens_cover_every_workload_and_pinned_file():
    goldens = checks.load_goldens()
    assert sorted(goldens) == sorted(w.name for w in workloads.WORKLOADS)
    for golden in goldens.values():
        assert sorted(golden["sha256"]) == sorted(checks.GOLDEN_FILES)


def _small(workload):
    return dataclasses.replace(workload, nx=3, ny=2)


def _generate(workload, seed, directory):
    with contextlib.redirect_stdout(io.StringIO()):
        inputs = workloads.make_inputs(workload, seed, str(directory), cli_main)
    paths = [inputs.volume, inputs.volume + ".bin", inputs.config]
    if inputs.background:
        paths.append(inputs.background + ".bin")
    contents = []
    for path in paths:
        with open(path, "rb") as handle:
            contents.append(handle.read())
    return contents


@pytest.mark.parametrize("workload", workloads.WORKLOADS, ids=lambda w: w.name)
def test_generated_inputs_depend_only_on_the_seed(workload, tmp_path):
    small = _small(workload)
    first = _generate(small, 7, tmp_path / "a")
    assert _generate(small, 7, tmp_path / "b") == first
    other = _generate(small, 8, tmp_path / "c")
    assert other[1] != first[1]


def test_independent_smoother_matches_the_library():
    rng = np.random.default_rng(3)
    samples = np.cumsum(rng.standard_normal(300)) + 0.5 * rng.standard_normal(300)
    q, r = 0.7, 0.25
    expect = denoise_trace(Trace(samples, 1e-9), q, r).samples
    got = np.asarray(checks.smooth(samples.tolist(), q, r))
    assert np.max(np.abs(got - expect)) <= checks.SMOOTH_RTOL * np.max(np.abs(expect))
    assert checks.smooth([1.0, 2.0], q, 0.0) == [1.0, 2.0]


def test_sampled_ids_are_distinct_and_inside_the_grid():
    workload = workloads.by_name("volume-wide")
    ids = checks.sampled_ids(workload, 5)
    assert len(set(ids)) == workload.n_sample
    assert all(0 <= x < workload.nx and 0 <= y < workload.ny for x, y in ids)


def test_normalised_time_is_the_median_ratio_to_the_calibration():
    times = [2.0, 4.0, 3.0]
    calibrations = [0.1, 0.2, 0.1]  # ratios 20, 20, 30
    assert calibration.normalised(times, calibrations) == pytest.approx(
        20 * calibration.REFERENCE_S)
    assert calibration.normalised([], []) == 0.0
