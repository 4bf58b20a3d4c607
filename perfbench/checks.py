"""Output checks: goldens for each workload's recorded seed, invariants for
every seed, and an independent smoother that the denoised traces must match.

Each check returns a list of problems; an empty list means the outputs pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.signal import hilbert

import ascankit.io as aio

from workloads import Inputs, Workload

__all__ = [
    "OUTPUTS",
    "GOLDEN_FILES",
    "digests",
    "load_goldens",
    "golden_problems",
    "sampled_ids",
    "smooth",
    "invariant_problems",
]

#: Files one denoise plus one compare write, relative to the output directory.
OUTPUTS = (
    "denoised.pavol",
    "denoised.pavol.bin",
    "compare/report.csv",
    "compare/summary.txt",
    "compare/input.pgm",
    "compare/input.pgm.meta",
    "compare/pipeline.pgm",
    "compare/pipeline.pgm.meta",
    "compare/baseline.pgm",
    "compare/baseline.pgm.meta",
)

#: The subset pinned by the goldens, which must stay bit-identical.
GOLDEN_FILES = (
    "denoised.pavol.bin",
    "compare/report.csv",
    "compare/summary.txt",
    "compare/input.pgm",
    "compare/pipeline.pgm",
    "compare/baseline.pgm",
)

_GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")

#: Relative tolerance of the independent smoother, against the trace's peak.
SMOOTH_RTOL = 1e-9
#: Absolute tolerance on PSNR recomputed with scipy's analytic signal, in dB.
PSNR_ATOL_DB = 1e-6
#: Traces per run checked against the independent smoother.
ORACLE_TRACES = 4


def digests(directory: str) -> Dict[str, str]:
    out = {}
    for rel in OUTPUTS:
        path = os.path.join(directory, rel)
        try:
            with open(path, "rb") as handle:
                out[rel] = hashlib.sha256(handle.read()).hexdigest()
        except FileNotFoundError:
            out[rel] = "missing"
    return out


def load_goldens() -> Dict[str, dict]:
    with open(_GOLDENS, "r", encoding="utf-8") as handle:
        return json.load(handle)


def golden_problems(golden: dict, found: Dict[str, str], q_final: str) -> List[str]:
    problems = []
    if q_final != golden["q_final"]:
        problems.append(f"q_final {q_final} differs from golden {golden['q_final']}")
    for rel in GOLDEN_FILES:
        if found.get(rel) != golden["sha256"][rel]:
            problems.append(f"{rel} differs from its golden sha256")
    return problems


def sampled_ids(workload: Workload, seed: int) -> List[Tuple[int, int]]:
    """The traces q selection samples: the same draw as ``adapt.select_q``."""
    rng = np.random.default_rng(seed)
    flat = rng.choice(workload.nx * workload.ny, size=workload.n_sample, replace=False)
    return [(int(i) // workload.ny, int(i) % workload.ny) for i in flat]


def smooth(y: Sequence[float], q: float, r: float) -> List[float]:
    """Random-walk Kalman filter plus RTS smoother, written out independently."""
    if r == 0.0:
        return list(y)
    n = len(y)
    x_pri, p_pri, x_post, p_post = [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n
    x, p = y[0], r
    for k, v in enumerate(y):
        a = p + q
        d = a + r
        x_pri[k], p_pri[k] = x, a
        x = x + (a / d) * (v - x)
        p = r * a / d
        x_post[k], p_post[k] = x, p
    out = [0.0] * n
    out[-1] = x_post[-1]
    for k in range(n - 2, -1, -1):
        out[k] = x_post[k] + (p_post[k] / p_pri[k + 1]) * (out[k + 1] - x_pri[k + 1])
    return out


def _raw(path: str, dtype: str, shape: Tuple[int, int, int]) -> np.ndarray:
    fmt = {"f64le": "<f8", "f32le": "<f4"}[dtype]
    return np.fromfile(path + ".bin", dtype=fmt).astype(np.float64).reshape(shape)


def _noise_r(trace: np.ndarray, window: int) -> float:
    head = trace[:window]
    return float(head @ head / window)


def _psnr(samples: np.ndarray, roi: Tuple[int, int]) -> float:
    env = np.abs(hilbert(samples))
    inside = env[roi[0]:roi[1]]
    outside = np.concatenate((env[: roi[0]], env[roi[1]:]))
    return 10.0 * math.log10(float(inside.max()) ** 2 / float(outside @ outside / outside.size))


def _check_image(path: str, nx: int, ny: int) -> List[str]:
    with open(path, "rb") as handle:
        data = handle.read()
    header = f"P5\n{nx} {ny}\n65535\n".encode("ascii")
    if not data.startswith(header) or len(data) != len(header) + 2 * nx * ny:
        return [f"{os.path.basename(path)}: not a {nx}x{ny} 16-bit PGM"]
    with open(path + ".meta", "r", encoding="utf-8") as handle:
        meta = aio.parse_kv(handle.read(), source=path + ".meta")
    if (meta.get("rows"), meta.get("cols")) != (str(ny), str(nx)):
        return [f"{os.path.basename(path)}.meta: rows/cols do not match the image"]
    return []


def _check_report(path: str, workload: Workload) -> Tuple[List[str], Dict[Tuple[int, int], float]]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if rows[0] != ["x", "y", "psnr_pipeline", "psnr_baseline", "gain_db"]:
        return [f"report.csv: unexpected header {rows[0]}"], {}
    body = rows[1:]
    expected = [(x, y) for x in range(workload.nx) for y in range(workload.ny)]
    if [(int(r[0]), int(r[1])) for r in body] != expected:
        return ["report.csv: rows are not one per trace in scan order"], {}
    not_finite = bad_gain = 0
    pipeline = {}
    for x, y, scored, ref, gain in body:
        scored, ref, gain = float(scored), float(ref), float(gain)
        if not all(math.isfinite(v) for v in (scored, ref, gain)):
            not_finite += 1
        elif gain != scored - ref:
            bad_gain += 1
        pipeline[(int(x), int(y))] = scored
    problems = []
    if not_finite:
        problems.append(f"report.csv: {not_finite} rows hold a non-finite score")
    if bad_gain:
        problems.append(
            f"report.csv: {bad_gain} rows have gain_db != psnr_pipeline - psnr_baseline"
        )
    return problems, pipeline


def _q_bounds(workload: Workload, volume: np.ndarray, seed: int) -> Tuple[float, float]:
    if workload.q_grid:
        return min(workload.q_grid), max(workload.q_grid)
    rs = [_noise_r(volume[x, y], workload.noise_window) for x, y in sampled_ids(workload, seed)]
    anchor = float(np.median(rs))
    return 1e-6 * anchor, 1e-1 * anchor


def invariant_problems(workload: Workload, inputs: Inputs, out_dir: str, seed: int,
                       printed_q: Optional[str]) -> Tuple[List[str], str]:
    """Check one denoise/compare pair's outputs; returns (problems, q_final repr)."""
    problems: List[str] = []
    shape = (workload.nx, workload.ny, workload.nt)
    denoised_path = os.path.join(out_dir, "denoised.pavol")
    compare_dir = os.path.join(out_dir, "compare")

    denoised = aio.read_volume(denoised_path)
    if (denoised.nx, denoised.ny, denoised.nt) != shape:
        problems.append("denoised.pavol: shape differs from the input")
    with open(os.path.join(compare_dir, "summary.txt"), "r", encoding="utf-8") as handle:
        summary = aio.parse_kv(handle.read())
    q_final = summary.get("q", "")
    if summary.get("n_traces") != str(workload.nx * workload.ny):
        problems.append("summary.txt: n_traces is not nx*ny")
    for key in ("mean_psnr_gain_db", "min_psnr_gain_db", "max_psnr_gain_db"):
        if not math.isfinite(float(summary.get(key, "nan"))):
            problems.append(f"summary.txt: {key} is not finite")
    for tag in ("input", "pipeline", "baseline"):
        problems += _check_image(os.path.join(compare_dir, f"{tag}.pgm"), workload.nx, workload.ny)
    report_problems, psnr_pipeline = _check_report(
        os.path.join(compare_dir, "report.csv"), workload
    )
    problems += report_problems

    scan = _raw(inputs.volume, workload.dtype, shape)
    q = float(q_final)
    if workload.q == "auto":
        lo, hi = _q_bounds(workload, scan, seed)
        if not lo * (1 - 1e-9) <= q <= hi * (1 + 1e-9):
            problems.append(f"q_final {q_final} outside the grid bounds [{lo!r}, {hi!r}]")
        if printed_q != q_final:
            problems.append(f"denoise printed q_final {printed_q}, compare used {q_final}")
    elif q != float(workload.q):
        problems.append(f"compare used q {q_final}, config says {workload.q}")

    background = _raw(inputs.background, workload.dtype, shape) if inputs.background else None
    out = denoised.grid()
    for x, y in sampled_ids(workload, seed)[:ORACLE_TRACES]:
        window = workload.noise_window
        expect = np.asarray(smooth(scan[x, y].tolist(), q, _noise_r(scan[x, y], window)))
        if background is not None:
            bg = background[x, y]
            expect = expect - np.asarray(smooth(bg.tolist(), q, _noise_r(bg, window)))
        scale = float(np.max(np.abs(expect))) or 1.0
        if np.max(np.abs(out[x, y] - expect)) > SMOOTH_RTOL * scale:
            problems.append(f"denoised trace ({x}, {y}) differs from the independent smoother")
        if (x, y) in psnr_pipeline:
            if abs(_psnr(out[x, y], workload.roi) - psnr_pipeline[(x, y)]) > PSNR_ATOL_DB:
                problems.append(f"psnr_pipeline at ({x}, {y}) differs from scipy's analytic signal")
    return problems, q_final
