"""One benchmark run of one workload.

Untraced, a run times ``ascankit denoise`` and ``ascankit compare`` called
in-process through ``cli.main``, the start-up of fresh interpreters that
import ``ascankit.cli``, and the peak RSS of a fresh process that runs both
commands.  Traced, it also replays both commands with spans (see
``replay.py``) after each untraced pair and reports per-layer figures.
Every timed figure is the median over the repetitions of the run.

Each end-to-end time is normalised by the calibration kernel timed around
it (see ``calibration.py``); the raw wall-clock medians are reported next
to it (``*_wall_s``).
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy

import ascankit
import ascankit.io as aio
from ascankit import adapt, kalman, rts
from ascankit.cli import main as cli_main

import checks
import replay
from calibration import calibrate, normalised
import tracing
from workloads import Inputs, Workload, make_inputs

__all__ = ["WORK_DIR", "run_workload"]

#: Generated inputs, outputs, spans and the run record, under the checkout.
WORK_DIR = ".perfbench_work"
#: Fresh interpreters started per run for setup_s / baseline.import_s.
SETUP_REPEATS = 3
#: Leading repetitions that warm caches and lazy imports and are not timed.
WARMUP_REPS = 1
#: Timed repetitions made even when --seconds has already run out ...
MIN_REPS = 3
#: ... unless the run has already taken this long, so that it ends in time.
DEADLINE_S = 120
#: Seconds any one child process may take.
CHILD_TIMEOUT_S = 60

# Seconds from spawn until numpy and then ``ascankit.cli`` are imported,
# less the time the child spends on the calibration kernel, and the child's
# mean calibration time.  The calibration runs in the child, on its CPU and
# next to its import.
_SETUP_CHILD = (
    "import time\n"
    "ready = time.monotonic()\n"
    "import numpy\n"
    "numpy_done = time.monotonic()\n"
    "import sys\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from calibration import calibrate\n"
    "before = calibrate()\n"
    "begun = time.monotonic()\n"
    "import ascankit.cli\n"
    "done = time.monotonic()\n"
    "print(numpy_done - float(sys.argv[1]) + done - begun, (before + calibrate()) / 2)\n"
)

# VmHWM, not ru_maxrss: Linux carries ru_maxrss over from the parent's
# memory across fork and exec, so it would report the benchmark's own RSS.
_RSS_CHILD = (
    "import json, sys\n"
    "from ascankit.cli import main\n"
    "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
    "with open('/proc/self/status') as status:\n"
    "    rss = [int(line.split()[1]) for line in status if line.startswith('VmHWM:')][0]\n"
    "print(json.dumps({'codes': codes, 'maxrss_kb': rss}))\n"
)


@dataclass
class Ops:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, problems: List[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems


def _cli(argv: List[str]) -> Tuple[float, List[str], str]:
    """(seconds, problems, captured stdout) of one in-process command."""
    out, err = _stdio.StringIO(), _stdio.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    except Exception as exc:  # a traceback is a failed operation, not a crash
        return time.perf_counter() - start, [f"{argv[0]} raised {exc!r}"], out.getvalue()
    elapsed = time.perf_counter() - start
    problems = [] if code == 0 else [f"{argv[0]} exited {code}: {err.getvalue().strip()}"]
    return elapsed, problems, out.getvalue()


def _printed_q(stdout: str) -> Optional[str]:
    for line in stdout.splitlines():
        if line.startswith("q_final: "):
            return line[len("q_final: "):]
    return None


def _child(args: List[str], root: str, ops: Ops) -> Optional[subprocess.CompletedProcess]:
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=root, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        ops.record([f"child {args[:2]} timed out"])
        return None
    if not ops.record([] if proc.returncode == 0 else [
        f"child {args[:2]} exited {proc.returncode}: {proc.stderr.strip()[-200:]}"
    ]):
        return None
    return proc


def _setup_sample(root: str, ops: Ops) -> Optional[Tuple[float, float]]:
    """One fresh interpreter importing ``ascankit.cli``: its start-up time
    and the calibration time measured inside it."""
    here = os.path.dirname(os.path.abspath(__file__))
    proc = _child(["-c", _SETUP_CHILD, repr(time.monotonic()), here], root, ops)
    if proc is None:
        return None
    seconds, calibrated = (float(v) for v in proc.stdout.split())
    return seconds, calibrated


def _import_sample(root: str, ops: Ops) -> Optional[float]:
    """The cumulative import time of ``scipy.signal`` in a fresh interpreter
    importing ``ascankit.cli`` under ``-X importtime``."""
    proc = _child(["-X", "importtime", "-c", "import ascankit.cli"], root, ops)
    if proc is None:
        return None
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.signal":
            return int(parts[1]) / 1e6
    return None


def _peak_rss_mb(argvs: List[List[str]], root: str, ops: Ops) -> Optional[float]:
    proc = _child(["-c", _RSS_CHILD, json.dumps(argvs)], root, ops)
    if proc is None:
        return None
    result = json.loads(proc.stdout.splitlines()[-1])
    if any(result["codes"]):
        ops.record([f"peak-RSS child commands exited {result['codes']}"])
        return None
    return result["maxrss_kb"] / 1024.0


def _kernel_rates(inputs: Inputs, workload: Workload, seed: int, q: float) -> Dict[str, float]:
    """Samples per second of kf_filter, rts_smooth and denoise_trace on the
    traces q selection samples, at the q the commands used."""
    volume = aio.read_volume(inputs.volume)
    spent = {"kf": 0.0, "rts": 0.0, "denoise": 0.0}
    n = 0
    for x, y in checks.sampled_ids(workload, seed):
        trace = volume.trace(x, y)
        r = adapt.estimate_r(trace, workload.noise_window)
        params = kalman.random_walk_params(trace, q, r)
        t0 = time.perf_counter()
        trajectory = kalman.kf_filter(trace, params)
        t1 = time.perf_counter()
        rts.rts_smooth(trajectory, params)
        t2 = time.perf_counter()
        rts.denoise_trace(trace, q, r)
        t3 = time.perf_counter()
        spent["kf"] += t1 - t0
        spent["rts"] += t2 - t1
        spent["denoise"] += t3 - t2
        n += len(trace)
    return {
        "kalman.kf_filter_msamples_s": n / spent["kf"] / 1e6,
        "rts.rts_smooth_msamples_s": n / spent["rts"] / 1e6,
        "rts.denoise_trace_msamples_s": n / spent["denoise"] / 1e6,
    }


def _read_alloc_ratio(inputs: Inputs) -> float:
    payload = os.path.getsize(inputs.volume + ".bin")
    tracemalloc.start()
    try:
        aio.read_volume(inputs.volume)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / payload


def _layer_figures(workload: Workload, denoise: Dict[str, dict], compare: Dict[str, dict],
                   report) -> Dict[str, float]:
    def total(table: Dict[str, dict], name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0)

    select_s = total(denoise, "adapt.select_q")
    candidates = len(report.grid) * len(report.sampled_trace_ids) if report else 0
    pipeline_s = total(denoise, "baseline.pipeline_denoise")
    n_filtered = workload.n_samples * (2 if workload.background else 1)
    lowpass = compare.get("baseline.lowpass", {"calls": 0, "total_s": 0.0})
    envelope = compare.get("metrics.envelope", {"size": 0, "total_s": 0.0})
    return {
        "io.read_volume_s": total(denoise, "io.read_volume"),
        "io.write_volume_s": total(denoise, "io.write_volume"),
        "io.write_image_s": total(compare, "io.write_image"),
        "io.write_csv_s": total(compare, "io.write_csv"),
        "model.trace_extract_s": total(compare, "model.trace"),
        "model.validate_volume_s": total(compare, "model.validate_volume"),
        "adapt.select_q_s": select_s,
        "adapt.sweep_msamples_s": candidates * workload.nt / select_s / 1e6 if candidates else 0.0,
        "adapt.candidates_scored": float(candidates),
        "baseline.pipeline_denoise_s": pipeline_s,
        "baseline.pipeline_msamples_s": n_filtered / pipeline_s / 1e6,
        "baseline.baseline_denoise_s": total(compare, "baseline.baseline_denoise"),
        "baseline.lowpass_us_per_trace": (
            lowpass["total_s"] / lowpass["calls"] * 1e6 if lowpass["calls"] else 0.0
        ),
        "metrics.reconstruct_s": total(compare, "metrics.reconstruct"),
        "metrics.psnr_s": total(compare, "metrics.psnr"),
        "metrics.envelope_msamples_s": (
            envelope["size"] / envelope["total_s"] / 1e6 if envelope["total_s"] else 0.0
        ),
    }


def _covered(table: Dict[str, dict], root: str) -> float:
    """Time the replay's top span spends inside its layer calls."""
    return table[root]["total_s"] - table[root]["self_s"]


def _settings(root: str, workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ascankit": ascankit.__version__,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "git_commit": commit,
        "platform": platform.platform(),
    }


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _argvs(inputs: Inputs, directory: str) -> Dict[str, List[str]]:
    common = ["--input", inputs.volume, "--config", inputs.config]
    return {
        "denoise": ["denoise", *common, "--output", os.path.join(directory, "denoised.pavol")],
        "compare": ["compare", *common, "--output", os.path.join(directory, "compare")],
    }


def run_workload(workload: Workload, seed: int, seconds: int, trace: bool,
                 root: str) -> Tuple[Ops, Dict[str, float], dict]:
    """Run one workload; returns (operations, metrics, run record)."""
    begun = time.perf_counter()
    work = os.path.join(root, WORK_DIR, workload.name)
    shutil.rmtree(work, ignore_errors=True)
    cli_dir, replay_dir, rss_dir = (os.path.join(work, d) for d in ("cli", "replay", "rss"))
    for directory in (cli_dir, replay_dir, rss_dir):
        os.makedirs(directory)
    ops = Ops()
    try:
        with contextlib.redirect_stdout(_stdio.StringIO()):
            inputs = make_inputs(workload, seed, os.path.join(work, "scan"), cli_main)
    except Exception as exc:  # without inputs nothing else can run
        ops.record([f"making the inputs failed: {exc!r}"])
        return ops, {}, {"settings": _settings(root, workload, seed, seconds, trace),
                         "repetitions": 0}

    times: Dict[str, List[float]] = {"denoise": [], "compare": []}
    # The mean calibration time around each timed call, in the same order.
    speeds: Dict[str, List[float]] = {"denoise": [], "compare": [], "setup": []}
    layer_reps: List[Dict[str, float]] = []
    tracers: List[tracing.Tracer] = []
    reference: Optional[Dict[str, str]] = None
    q_used: Optional[float] = None
    startups: List[float] = []

    def startup() -> None:
        if trace:
            imported = _import_sample(root, ops)
            startups.extend([] if imported is None else [imported])
            return
        sample = _setup_sample(root, ops)
        if sample is not None:
            startups.append(sample[0])
            speeds["setup"].append(sample[1])

    started = 0
    measured = 0.0
    rep = 0
    # The last calibration, while nothing but a digest check has run since.
    calibrated: Optional[float] = None
    while rep == 0 or (
        (rep < WARMUP_REPS + MIN_REPS or measured < seconds)
        and time.perf_counter() - begun < DEADLINE_S
    ):
        # Fresh-interpreter samples are spread over the run, so that they see
        # the same swings in machine speed as the repetitions.
        if started < SETUP_REPEATS and measured >= started * seconds / SETUP_REPEATS:
            started += 1
            startup()
            calibrated = None
        start = time.perf_counter()
        problems: Dict[str, List[str]] = {}
        stdout: Dict[str, str] = {}
        if calibrated is None:
            calibrated = calibrate()
        for command, argv in _argvs(inputs, cli_dir).items():
            elapsed, problems[command], stdout[command] = _cli(argv)
            before, calibrated = calibrated, calibrate()
            if rep >= WARMUP_REPS:
                times[command].append(elapsed)
                speeds[command].append((before + calibrated) / 2)
        found = checks.digests(cli_dir)
        if reference is None:
            reference = found
            checked, q_used = _check_outputs(workload, inputs, cli_dir, seed,
                                             _printed_q(stdout["denoise"]))
            problems["compare"] += checked
            calibrated = None
        elif found != reference:
            problems["compare"].append(f"repetition {rep} wrote different bytes than the first")
        ok = all([ops.record(problems[c]) for c in ("denoise", "compare")])
        if trace and ok and q_used is not None:
            traced = _traced_rep(rep, workload, inputs, replay_dir, reference, seed, q_used, ops)
            if traced is not None:
                tracers += traced[0]
                layer_reps.append(traced[1])
            calibrated = None
        if rep >= WARMUP_REPS:
            measured += time.perf_counter() - start
        rep += 1
    for _ in range(started, SETUP_REPEATS):
        startup()

    denoise_s = _median(times["denoise"])
    compare_s = _median(times["compare"])
    metrics: Dict[str, float] = {}
    if trace:
        for name in layer_reps[0] if layer_reps else ():
            metrics[name] = _median([figures[name] for figures in layer_reps])
        untraced = _median([d + c for d, c in zip(times["denoise"], times["compare"])])
        if layer_reps:
            metrics["cli.denoise_self_s"] = denoise_s - metrics["replay.denoise_covered_s"]
            metrics["cli.compare_self_s"] = compare_s - metrics["replay.compare_covered_s"]
            metrics["tracing.overhead_frac"] = (metrics["replay.total_s"] - untraced) / untraced
        metrics["io.read_alloc_ratio"] = _read_alloc_ratio(inputs)
        metrics["baseline.import_s"] = _median(startups)
        tracing.write_spans(tracers, os.path.join(work, "spans.json"))
    else:
        peak = _peak_rss_mb(list(_argvs(inputs, rss_dir).values()), root, ops)
        if peak is not None and checks.digests(rss_dir) != reference:
            ops.record(["the peak-RSS process wrote different bytes than in-process runs"])
        metrics["setup_s"] = normalised(startups, speeds["setup"])
        metrics["denoise_s"] = normalised(times["denoise"], speeds["denoise"])
        metrics["compare_s"] = normalised(times["compare"], speeds["compare"])
        metrics["denoise_msamples_s"] = (
            workload.n_samples / metrics["denoise_s"] / 1e6 if metrics["denoise_s"] else 0.0
        )
        metrics["setup_wall_s"] = _median(startups)
        metrics["denoise_wall_s"] = denoise_s
        metrics["compare_wall_s"] = compare_s
        metrics["calibration_s"] = _median(speeds["denoise"] + speeds["compare"])
        metrics["peak_rss_mb"] = peak or 0.0

    record = {
        "settings": _settings(root, workload, seed, seconds, trace),
        "repetitions": rep,
        "measured_s": measured,
        "samples": {"denoise_s": times["denoise"], "compare_s": times["compare"],
                    "baseline.import_s" if trace else "setup_s": startups},
        "calibration_s": speeds,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "problems": ops.problems,
        "metrics": metrics,
    }
    with open(os.path.join(work, "record.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return ops, metrics, record


def _traced_rep(rep: int, workload: Workload, inputs: Inputs, directory: str,
                reference: Dict[str, str], seed: int, q: float,
                ops: Ops) -> Optional[Tuple[List[tracing.Tracer], Dict[str, float]]]:
    """Replay both commands with spans and derive this repetition's layer
    figures; None when a replay fails or writes other bytes than the CLI."""
    tracers = {c: tracing.Tracer(f"{c}#{rep}") for c in ("denoise", "compare")}
    try:
        with replay.instrumented(tracers["denoise"]):
            report = replay.replay_denoise(tracers["denoise"], inputs,
                                           os.path.join(directory, "denoised.pavol"))
        with replay.instrumented(tracers["compare"]):
            replay.replay_compare(tracers["compare"], inputs, os.path.join(directory, "compare"))
    except Exception as exc:  # a failed replay is a failed operation
        ops.record([f"replay {rep} raised {exc!r}"])
        return None
    if not ops.record([] if checks.digests(directory) == reference else [
        f"replay {rep} wrote different bytes than the CLI"
    ]):
        return None
    tables = {c: tracing.summarize(t.spans) for c, t in tracers.items()}
    figures = _layer_figures(workload, tables["denoise"], tables["compare"], report)
    figures.update(_kernel_rates(inputs, workload, seed, q))
    for c, table in tables.items():
        figures[f"replay.{c}_covered_s"] = _covered(table, f"cli.{c}")
    figures["replay.total_s"] = sum(tables[c][f"cli.{c}"]["total_s"] for c in tables)
    return list(tracers.values()), figures


def _check_outputs(workload: Workload, inputs: Inputs, out_dir: str, seed: int,
                   printed_q: Optional[str]) -> Tuple[List[str], Optional[float]]:
    """Invariants on every seed, goldens on the seed they were recorded with."""
    try:
        problems, q_final = checks.invariant_problems(workload, inputs, out_dir, seed, printed_q)
    except Exception as exc:  # outputs a check cannot even parse fail the check
        return [f"outputs unreadable: {exc!r}"], None
    golden = checks.load_goldens().get(workload.name)
    if golden is not None and golden["seed"] == seed:
        problems += checks.golden_problems(golden, checks.digests(out_dir), q_final)
    return problems, float(q_final)
