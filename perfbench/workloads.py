"""The benchmark's workloads and how their inputs are made.

Each workload is a synthetic scan that ``ascankit synth`` writes from a
manifest this module produces, plus a pipeline config that this module
writes next to it.  All randomness comes from the seed the benchmark is
given: it is the generator seed and, through the config, the q-selection
sampling seed.  The program sees only the ``.pavol`` and ``.config`` files.

Sizes are scaled down from the corpus entries whose generators they borrow,
so that one run repeats each command several times; the layer shares that
justify each workload are stated next to its definition and checked in the
benchmark's README.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

__all__ = ["Workload", "Inputs", "WORKLOADS", "by_name", "make_inputs"]

_DT_1G = 9.765625e-10  # 1.024 GHz sampling
_DT_256M = 3.90625e-9  # 256 MHz sampling
_DT_128M = 7.8125e-9  # 128 MHz sampling

# impulse-heavy's frozen 15-point candidate grid (ascankit.bench._GRID_IMPULSE).
_GRID_IMPULSE_8G = (
    1.723459230953961e-19,
    1.9994356996786814e-19,
    2.319604110934947e-19,
    2.6910408933535536e-19,
    3.1219556197381323e-19,
    3.621872456746075e-19,
    4.2018406699952294e-19,
    4.874678837224378e-19,
    5.655258167157061e-19,
    6.560831186041177e-19,
    7.611413056562412e-19,
    8.830223957121138e-19,
    1.0244202299031722e-18,
    1.1884600124876215e-18,
    1.3787673847631687e-18,
)
# sweep-long samples impulse-heavy's pulse 8x more coarsely; a random walk's
# per-sample variance grows with dt**2, so the grid moves up by 64 (exact in
# binary floating point).  Unscaled, every trace picks the top candidate.
_GRID_SWEEP = tuple(64.0 * g for g in _GRID_IMPULSE_8G)


def _everywhere(nx: int, ny: int) -> FrozenSet[Tuple[int, int]]:
    return frozenset((x, y) for x in range(nx) for y in range(ny))


def _inner(nx: int, ny: int) -> FrozenSet[Tuple[int, int]]:
    return frozenset((x, y) for x in range(1, nx - 1) for y in range(1, ny - 1))


def _l_shape(nx: int, ny: int) -> FrozenSet[Tuple[int, int]]:
    # phantom-L's mask scaled to the grid: a left bar and a foot along y = 0.
    return frozenset(
        (x, y) for x in range(nx) for y in range(ny)
        if x < 5 * nx // 16 or y < 3 * ny // 8
    )


@dataclass(frozen=True)
class Workload:
    """One benchmark input family.

    ``synth`` holds the manifest's generator fields (without ``synth_seed``);
    ``q`` is ``"auto"`` or a fixed process-noise value; an empty ``q_grid``
    makes ``select_q`` derive the grid from the sampled traces.
    """

    name: str
    nx: int
    ny: int
    synth: Dict[str, str]
    mask: Callable[[int, int], FrozenSet[Tuple[int, int]]]
    roi: Tuple[int, int]
    q: str
    q_grid: Tuple[float, ...]
    n_sample: int
    noise_window: int
    lp_cutoff_hz: float
    background: bool
    dtype: str

    @property
    def nt(self) -> int:
        return int(self.synth["synth_nt"])

    @property
    def n_samples(self) -> int:
        """Scan samples nx * ny * nt (the background is not counted)."""
        return self.nx * self.ny * self.nt

    def manifest_text(self, seed: int) -> str:
        # The fields ascankit.bench.parse_manifest reads; synth writes its
        # own config, which the benchmark does not use.
        pairs: Dict[str, str] = {
            "entry": self.name,
            "nx": str(self.nx),
            "ny": str(self.ny),
            **self.synth,
            "synth_seed": str(seed),
            "noise_window": str(self.noise_window),
            "roi": f"{self.roi[0]}:{self.roi[1]}",
            "q_grid": ",".join(repr(g) for g in self.q_grid),
            "n_sample": str(self.n_sample),
            "lp_cutoff_hz": repr(self.lp_cutoff_hz),
            "mask": " ".join(f"{x},{y}" for x, y in sorted(self.mask(self.nx, self.ny))),
        }
        return "".join(f"{k}: {v}\n" for k, v in pairs.items())

    def config_text(self, seed: int) -> str:
        pairs = {
            "q": self.q,
            "q_grid": ",".join(repr(g) for g in self.q_grid),
            "n_sample": str(self.n_sample),
            "seed": str(seed),
            "noise_window": str(self.noise_window),
            "roi": f"{self.roi[0]}:{self.roi[1]}",
            "lp_cutoff_hz": repr(self.lp_cutoff_hz),
        }
        if self.background:
            pairs["background_path"] = f"{self.name}-background.pavol"
        return "".join(f"{k}: {v}\n" for k, v in pairs.items())


def _synth(nt: int, dt: float, center_hz: float, time_s: float, amp: float, sigma: float,
           rate: float, impulse_amp: float, reflections: str = "") -> Dict[str, str]:
    return {
        "synth_nt": str(nt),
        "synth_dt": repr(dt),
        "synth_pulse_center_hz": repr(center_hz),
        "synth_pulse_time_s": repr(time_s),
        "synth_pulse_amp": repr(amp),
        "synth_noise_sigma": repr(sigma),
        "synth_impulse_rate": repr(rate),
        "synth_impulse_amp": repr(impulse_amp),
        "synth_reflections": reflections,
    }


WORKLOADS: List[Workload] = [
    # impulse-heavy's pulse, noise and impulses, sampled at 1.024 GHz so that
    # 4096 samples hold the whole 4 us record.  8 sampled traces x 15
    # candidates is 7.5x the 2 x 8 traces the pipeline filters, so the
    # sweep is ~85% of denoise time.
    Workload(
        name="sweep-long",
        nx=4,
        ny=2,
        synth=_synth(4096, _DT_1G, 2.5e6, 2e-6, 0.001, 2.5e-7, 0.15, 0.005),
        mask=_everywhere,
        roi=(410, 3616),
        q="auto",
        q_grid=_GRID_SWEEP,
        n_sample=8,
        noise_window=64,
        lp_cutoff_hz=5e6,
        background=True,
        dtype="f64le",
    ),
    # skew-dense's pulse, echo, noise and impulses at 256 MHz.  256 traces
    # plus their background against 4 x 15 sweep lanes puts the volume
    # pipeline at ~85% of denoise time; the grid is derived from the data.
    Workload(
        name="volume-wide",
        nx=16,
        ny=16,
        synth=_synth(1024, _DT_256M, 2.5e6, 1.81640625e-6, 0.02, 4e-6, 0.06, 0.04,
                     "2.20703125e-06,0.3"),
        mask=_inner,
        roi=(103, 916),
        q="auto",
        q_grid=(),
        n_sample=4,
        noise_window=52,
        lp_cutoff_hz=5e6,
        background=True,
        dtype="f64le",
    ),
    # phantom-L's pulse, noise and impulses at 128 MHz, q fixed at
    # phantom-L's frozen q_final.  Short traces make per-trace overhead
    # (FIR reference, envelopes, trace extraction) most of compare, and no
    # sweep runs; the scan is stored as f32.
    Workload(
        name="imaging-short",
        nx=32,
        ny=24,
        synth=_synth(256, _DT_128M, 5e6, 1e-6, 1.0, 2.5e-4, 0.1, 0.3),
        mask=_l_shape,
        roi=(59, 230),
        q="3.6764216111763207e-09",
        q_grid=(),
        n_sample=8,
        noise_window=16,
        lp_cutoff_hz=1e7,
        background=False,
        dtype="f32le",
    ),
]


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(name)


@dataclass(frozen=True)
class Inputs:
    """Paths of one workload's generated inputs."""

    volume: str
    config: str
    background: Optional[str] = None


def make_inputs(workload: Workload, seed: int, directory: str,
                cli_main: Callable[[List[str]], int]) -> Inputs:
    """Write the workload's manifest, run ``ascankit synth`` on it through
    ``cli_main`` and write the pipeline config.  Same seed, same bytes."""
    os.makedirs(directory, exist_ok=True)
    manifest = os.path.join(directory, f"{workload.name}.manifest.in")
    with open(manifest, "w", encoding="utf-8") as handle:
        handle.write(workload.manifest_text(seed))
    code = cli_main(["synth", manifest, "--output", directory, "--seed", str(seed),
                     "--dtype", workload.dtype])
    if code != 0:
        raise RuntimeError(f"ascankit synth exited with {code} for {workload.name}")
    config = os.path.join(directory, "bench.config")
    with open(config, "w", encoding="utf-8") as handle:
        handle.write(workload.config_text(seed))
    background = None
    if workload.background:
        background = os.path.join(directory, f"{workload.name}-background.pavol")
    return Inputs(
        volume=os.path.join(directory, f"{workload.name}.pavol"),
        config=config,
        background=background,
    )
