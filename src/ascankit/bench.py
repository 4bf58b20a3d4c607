"""Frozen benchmark corpus.

Five named synthetic scans, each pinned down to the last bit: generator
spec, scan grid, truth mask, scoring ROI, reference-filter cutoff, noise
window, and the process-noise candidate grid.  Alongside each definition
lives the statistics bundle recorded on the corpus's first scoring run;
re-runs must reproduce the deterministic fields exactly and the gain
statistics within ``GAIN_TOLERANCE_DB``.

The definitions are immutable: any change to an entry requires bumping
``CORPUS_VERSION`` and re-freezing the statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from .adapt import _checked_window, _noise_powers, default_noise_window, select_q
from .baseline import baseline_denoise, pipeline_denoise
from .io import (
    PipelineConfig,
    config_from_strings,
    config_to_strings,
    float_field,
    format_kv,
    int_field,
    parse_kv,
    require_field,
)
from .metrics import _envelope_blocks, _psnrs
from .model import DataError, QSelectionReport, RoiSpec, Volume
from .rts import _smooth_lanes
from .synth import _BACKGROUND_ARM, _SIGNAL_ARM, SynthSpec, _synth_arm, clean_samples, synth_volume

__all__ = [
    "CORPUS_VERSION",
    "GAIN_TOLERANCE_DB",
    "ExpectedStats",
    "ZERO_STATS",
    "CorpusEntry",
    "bench_corpus",
    "corpus_entry",
    "measure_entry",
    "format_manifest",
    "parse_manifest",
]

#: Bump whenever any entry definition changes; frozen statistics follow suit.
CORPUS_VERSION = "ascankit-bench-1"

#: Re-verification tolerance on the frozen mean PSNR gains, in dB.
GAIN_TOLERANCE_DB = 0.5


@dataclass(frozen=True)
class ExpectedStats:
    """Statistics bundle frozen from the corpus's first scoring run.

    ``q_final`` comes from the entry's canonical q-selection run and must
    reproduce bit-identically.  ``clean_peak`` is the envelope-peak index of
    the noiseless pulse trace (``None`` when the mask is empty).  Of the
    ``n_pulse_traces`` masked traces, ``fwd_peak_late`` counts those whose
    forward-filter envelope peak lands >= 1 sample after the clean peak, and
    ``smoothed_peak_aligned`` counts those whose smoothed envelope peak lands
    within +/-1 sample of it.  ``mean_gain_db`` is the mean PSNR gain of the
    adaptive pipeline over the low-pass reference across the masked traces,
    honored within ``GAIN_TOLERANCE_DB`` on re-runs.
    """

    q_final: float
    clean_peak: Optional[int]
    n_pulse_traces: int
    fwd_peak_late: int
    smoothed_peak_aligned: int
    mean_gain_db: Optional[float]


#: The bundle carried by a scan that has never been scored.
ZERO_STATS = ExpectedStats(0.0, None, 0, 0, 0, None)


@dataclass(frozen=True)
class CorpusEntry:
    """One benchmark scan: generator inputs, scoring setup, frozen results.

    ``noise_window = None`` means the length-derived default;
    ``q_grid = None`` means the grid is derived from the sampled traces at
    selection time.  The q-selection sampling seed equals ``spec.seed``.
    """

    name: str
    spec: SynthSpec
    nx: int
    ny: int
    mask: FrozenSet[Tuple[int, int]]
    roi: RoiSpec
    lp_cutoff_hz: float
    noise_window: Optional[int]
    q_grid: Optional[Tuple[float, ...]]
    n_sample: int
    expected: ExpectedStats

    def generate(self) -> Tuple[Volume, Volume, FrozenSet[Tuple[int, int]]]:
        """Regenerate the scan volume, background volume, and truth mask."""
        return synth_volume(self.spec, self.nx, self.ny, set(self.mask))

    def window(self) -> int:
        """The noise window actually used: explicit or length-derived."""
        if self.noise_window is not None:
            return self.noise_window
        return default_noise_window(self.spec.nt)

    def config(self) -> PipelineConfig:
        """The pipeline configuration equivalent to this entry's scoring setup."""
        return PipelineConfig(
            q="auto",
            noise_window="auto" if self.noise_window is None else self.noise_window,
            roi=self.roi,
            q_grid=self.q_grid,
            n_sample=self.n_sample,
            seed=self.spec.seed,
            lp_cutoff_hz=self.lp_cutoff_hz,
            background_path=None,
        )

    def select(self, volume: Volume) -> QSelectionReport:
        """Run the entry's canonical q-selection on a (re)generated volume."""
        return select_q(
            volume,
            grid=self.q_grid,
            n_sample=self.n_sample,
            seed=self.spec.seed,
            noise_window=self.window(),
            roi=self.roi,
        )


# ---------------------------------------------------------------------------
# corpus definitions

_DT_256M = 3.90625e-9  # 256 MHz sampling
_DT_2G = 4.8828125e-10  # 2.048 GHz sampling
_DT_8G = 1.220703125e-10  # 8.192 GHz sampling

# Candidate grids are frozen literals (15-point geometric sweeps around the
# critical process noise of each generator's noise floor), not recomputed,
# so the corpus never drifts with library internals.
_GRID_PHANTOM = (
    1.410087262741881e-09,
    1.55686256015832e-09,
    1.718915626902165e-09,
    1.8978367185527268e-09,
    2.0953816196191913e-09,
    2.3134888733663966e-09,
    2.5542988050848796e-09,
    2.820174525483763e-09,
    3.1137251203166405e-09,
    3.4378312538043305e-09,
    3.7956734371054535e-09,
    4.190763239238383e-09,
    4.626977746732794e-09,
    5.10859761016976e-09,
    5.640349050967524e-09,
)

_GRID_STICKS = (
    1.4118513132412857e-15,
    1.5588102298163007e-15,
    1.721066028547642e-15,
    1.9002109544596847e-15,
    2.0980029885870515e-15,
    2.316383099355281e-15,
    2.557494289649409e-15,
    2.8237026264825667e-15,
    3.1176204596326017e-15,
    3.4421320570952846e-15,
    3.80042190891937e-15,
    4.196005977174104e-15,
    4.632766198710563e-15,
    5.114988579298819e-15,
    5.647405252965143e-15,
)

_GRID_IMPULSE = (
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


def _l_mask() -> FrozenSet[Tuple[int, int]]:
    left = {(x, y) for x in range(5) for y in range(8)}
    foot = {(x, y) for x in range(5, 16) for y in range(3)}
    return frozenset(left | foot)


_ENTRIES: Tuple[CorpusEntry, ...] = (
    CorpusEntry(
        name="phantom-L",
        spec=SynthSpec(
            nt=512,
            dt=_DT_256M,
            pulse_center_hz=5e6,
            pulse_time_s=1e-6,
            pulse_amp=1.0,
            noise_sigma=2.5e-4,
            impulse_rate=0.1,
            impulse_amp=0.3,
            reflections=(),
            seed=3,
        ),
        nx=16,
        ny=8,
        mask=_l_mask(),
        roi=RoiSpec(117, 510),
        lp_cutoff_hz=1.0e7,
        noise_window=None,
        q_grid=_GRID_PHANTOM,
        n_sample=32,
        expected=ExpectedStats(
            q_final=3.6764216111763207e-09,
            clean_peak=256,
            n_pulse_traces=73,
            fwd_peak_late=73,
            smoothed_peak_aligned=72,
            mean_gain_db=0.22015370801068837,
        ),
    ),
    CorpusEntry(
        name="two-stick",
        spec=SynthSpec(
            nt=8192,
            dt=_DT_2G,
            pulse_center_hz=2.5e6,
            pulse_time_s=2e-6,
            pulse_amp=0.02,
            noise_sigma=4e-6,
            impulse_rate=0.15,
            impulse_amp=0.04,
            reflections=(),
            seed=17,
        ),
        nx=12,
        ny=10,
        mask=frozenset((x, y) for x in (2, 3, 7, 8) for y in range(1, 9)),
        roi=RoiSpec(819, 7026),
        lp_cutoff_hz=5.0e6,
        noise_window=256,
        q_grid=_GRID_STICKS,
        n_sample=32,
        expected=ExpectedStats(
            q_final=4.104138027105015e-15,
            clean_peak=4096,
            n_pulse_traces=32,
            fwd_peak_late=32,
            smoothed_peak_aligned=31,
            mean_gain_db=4.962864673211641,
        ),
    ),
    CorpusEntry(
        name="skew-dense",
        spec=SynthSpec(
            nt=8192,
            dt=_DT_2G,
            pulse_center_hz=2.5e6,
            pulse_time_s=1.81640625e-6,
            pulse_amp=0.02,
            noise_sigma=4e-6,
            impulse_rate=0.06,
            impulse_amp=0.04,
            reflections=((2.20703125e-6, 0.3),),
            seed=24,
        ),
        nx=16,
        ny=12,
        mask=frozenset((x, y) for x in range(1, 15) for y in range(1, 11)),
        roi=RoiSpec(819, 7330),
        lp_cutoff_hz=5.0e6,
        noise_window=256,
        q_grid=_GRID_STICKS,
        n_sample=32,
        expected=ExpectedStats(
            q_final=4.621014222547501e-15,
            clean_peak=3800,
            n_pulse_traces=140,
            fwd_peak_late=140,
            smoothed_peak_aligned=137,
            mean_gain_db=5.331254254635726,
        ),
    ),
    CorpusEntry(
        name="impulse-heavy",
        spec=SynthSpec(
            nt=32768,
            dt=_DT_8G,
            pulse_center_hz=2.5e6,
            pulse_time_s=2e-6,
            pulse_amp=0.001,
            noise_sigma=2.5e-7,
            impulse_rate=0.15,
            impulse_amp=0.005,
            reflections=(),
            seed=33,
        ),
        nx=8,
        ny=4,
        mask=frozenset((x, y) for x in range(8) for y in range(4)),
        roi=RoiSpec(3277, 28934),
        lp_cutoff_hz=5.0e6,
        noise_window=128,
        q_grid=_GRID_IMPULSE,
        n_sample=32,
        expected=ExpectedStats(
            q_final=1.1230633503711584e-18,
            clean_peak=16384,
            n_pulse_traces=32,
            fwd_peak_late=32,
            smoothed_peak_aligned=31,
            mean_gain_db=7.816407861300862,
        ),
    ),
    CorpusEntry(
        name="noise-only",
        spec=SynthSpec(
            nt=512,
            dt=_DT_256M,
            pulse_center_hz=5e6,
            pulse_time_s=1e-6,
            pulse_amp=1.0,
            noise_sigma=0.05,
            impulse_rate=0.3,
            impulse_amp=0.25,
            reflections=(),
            seed=5,
        ),
        nx=8,
        ny=6,
        mask=frozenset(),
        roi=RoiSpec(117, 395),
        lp_cutoff_hz=1.0e7,
        noise_window=None,
        q_grid=None,
        n_sample=32,
        expected=ExpectedStats(
            q_final=0.00016225748224012074,
            clean_peak=None,
            n_pulse_traces=0,
            fwd_peak_late=0,
            smoothed_peak_aligned=0,
            mean_gain_db=None,
        ),
    ),
)


def bench_corpus() -> List[CorpusEntry]:
    """The fixed, versioned benchmark corpus."""
    return list(_ENTRIES)


def corpus_entry(name: str) -> CorpusEntry:
    """Look one entry up by name."""
    for entry in _ENTRIES:
        if entry.name == name:
            return entry
    known = ", ".join(e.name for e in _ENTRIES)
    raise DataError(f"unknown corpus entry {name!r} (known: {known})")


# ---------------------------------------------------------------------------
# measurement (the computations whose first run froze the statistics, with
# the batched kernel's bits of the scalar ``kf_filter`` and ``denoise_trace``)


def _envelope_peaks(lanes: np.ndarray) -> List[int]:
    """The envelope-peak sample of each column of the time-major ``lanes``."""
    blocks = _envelope_blocks(lanes, axis=0)
    return [peak for envs in blocks for peak in envs.argmax(axis=1).tolist()]


def measure_entry(
    entry: CorpusEntry,
    volume: Optional[Volume] = None,
    background: Optional[Volume] = None,
    report: Optional[QSelectionReport] = None,
) -> ExpectedStats:
    """Re-run the scoring that produced the entry's frozen statistics.

    Pass pre-generated volumes (and optionally the entry's selection report)
    to skip recomputation; a volume that is not passed is generated.
    Deterministic fields of the result must equal ``entry.expected``
    exactly; ``mean_gain_db`` must agree within ``GAIN_TOLERANCE_DB``.
    """
    if volume is None:
        volume = _synth_arm(entry.spec, entry.nx, entry.ny, entry.mask, _SIGNAL_ARM)
    if report is None:
        report = entry.select(volume)
    q = report.q_final
    if not entry.mask:
        return replace(ZERO_STATS, q_final=q)
    if background is None:
        background = _synth_arm(entry.spec, entry.nx, entry.ny, entry.mask, _BACKGROUND_ARM)
    nt = volume.nt
    rows = volume.data.reshape(-1, nt)
    ids = np.ravel_multi_index(tuple(zip(*sorted(entry.mask))), (volume.nx, volume.ny))

    # The forward-filter peaks are read between the kernel's two passes.
    rs = _noise_powers(rows[ids, : _checked_window(entry.window(), nt)])
    fwd_peaks, sm_peaks = [], []
    for _, smoothed in _smooth_lanes(
        [rows[i : i + 1] for i in ids], np.full(len(ids), q), rs,
        forward=lambda _, means: fwd_peaks.extend(_envelope_peaks(means)),
    ):
        sm_peaks += _envelope_peaks(smoothed)
    (clean_peak,) = _envelope_peaks(clean_samples(entry.spec)[:, np.newaxis])

    # The pipeline's PSNR gains over the reference, a block of traces at a time.
    pipeline = pipeline_denoise(volume, background, q, noise_window=entry.window())
    reference = baseline_denoise(volume, background, entry.lp_cutoff_hz)
    blocks = (_envelope_blocks(v.data.reshape(-1, nt)[ids]) for v in (pipeline, reference))
    gains: List[float] = []
    for scored, ref in zip(*blocks):
        gains += [a - b for a, b in zip(_psnrs(scored, entry.roi), _psnrs(ref, entry.roi))]
    return ExpectedStats(
        q_final=q,
        clean_peak=clean_peak,
        n_pulse_traces=len(ids),
        fwd_peak_late=sum(peak - clean_peak >= 1 for peak in fwd_peaks),
        smoothed_peak_aligned=sum(abs(peak - clean_peak) <= 1 for peak in sm_peaks),
        mean_gain_db=float(np.mean(gains)),
    )


# ---------------------------------------------------------------------------
# manifest serialization


def _format_reflections(reflections: Tuple[Tuple[float, float], ...]) -> str:
    return ";".join(f"{t!r},{a!r}" for t, a in reflections)


def _parse_reflections(text: str, source: str) -> Tuple[Tuple[float, float], ...]:
    if not text:
        return ()
    out = []
    for part in text.split(";"):
        pieces = part.split(",")
        if len(pieces) != 2:
            raise DataError(
                f"{source}: reflection {part!r} is not 'time,rel_amp'"
            )
        try:
            out.append((float(pieces[0]), float(pieces[1])))
        except ValueError:
            raise DataError(
                f"{source}: reflection {part!r} has a non-numeric field"
            ) from None
    return tuple(out)


def _format_mask(mask: FrozenSet[Tuple[int, int]]) -> str:
    return " ".join(f"{x},{y}" for x, y in sorted(mask))


def _parse_mask(text: str, source: str) -> FrozenSet[Tuple[int, int]]:
    mask = set()
    for token in text.split():
        pieces = token.split(",")
        if len(pieces) != 2:
            raise DataError(f"{source}: mask coordinate {token!r} is not 'x,y'")
        try:
            mask.add((int(pieces[0]), int(pieces[1])))
        except ValueError:
            raise DataError(
                f"{source}: mask coordinate {token!r} has a non-integer field"
            ) from None
    return frozenset(mask)


#: Config keys a manifest must carry.  ``q``, ``seed`` and ``background_path``
#: may be left out of a hand-written manifest; they are checked when present
#: but do not enter the entry.
_MANIFEST_CONFIG_KEYS = ("noise_window", "roi", "q_grid", "n_sample", "lp_cutoff_hz")
_OPTIONAL_CONFIG_KEYS = ("q", "seed", "background_path")


def format_manifest(entry: CorpusEntry) -> str:
    """Serialize an entry to the manifest text format.

    The file is the flat key-value pipeline-config format extended with the
    generator fields (prefixed ``synth_``), the scan grid, the corpus
    version, and the truth-mask coordinate list.
    """
    spec = entry.spec
    pairs: Dict[str, str] = {
        "corpus_version": CORPUS_VERSION,
        "entry": entry.name,
        "nx": str(entry.nx),
        "ny": str(entry.ny),
        "synth_nt": str(spec.nt),
        "synth_dt": repr(spec.dt),
        "synth_pulse_center_hz": repr(spec.pulse_center_hz),
        "synth_pulse_time_s": repr(spec.pulse_time_s),
        "synth_pulse_amp": repr(spec.pulse_amp),
        "synth_noise_sigma": repr(spec.noise_sigma),
        "synth_impulse_rate": repr(spec.impulse_rate),
        "synth_impulse_amp": repr(spec.impulse_amp),
        "synth_reflections": _format_reflections(spec.reflections),
        "synth_seed": str(spec.seed),
        **config_to_strings(entry.config()),
        "mask": _format_mask(entry.mask),
    }
    return format_kv(pairs)


def parse_manifest(text: str, source: str = "<manifest>") -> CorpusEntry:
    """Rebuild an entry from manifest text.

    When the manifest names a corpus entry of the current version, the result
    carries that entry's frozen statistics; otherwise the statistics of a
    matching built-in entry are attached only if every definition field
    agrees, and an ad-hoc manifest gets a zeroed bundle.
    """
    pairs = parse_kv(text, source=source)
    spec = SynthSpec(
        nt=int_field(pairs, "synth_nt", source),
        dt=float_field(pairs, "synth_dt", source),
        pulse_center_hz=float_field(pairs, "synth_pulse_center_hz", source),
        pulse_time_s=float_field(pairs, "synth_pulse_time_s", source),
        pulse_amp=float_field(pairs, "synth_pulse_amp", source),
        noise_sigma=float_field(pairs, "synth_noise_sigma", source),
        impulse_rate=float_field(pairs, "synth_impulse_rate", source),
        impulse_amp=float_field(pairs, "synth_impulse_amp", source),
        reflections=_parse_reflections(require_field(pairs, "synth_reflections", source), source),
        seed=int_field(pairs, "synth_seed", source),
    )
    config_pairs = {key: require_field(pairs, key, source) for key in _MANIFEST_CONFIG_KEYS}
    config_pairs.update((key, pairs[key]) for key in _OPTIONAL_CONFIG_KEYS if key in pairs)
    config = config_from_strings(config_pairs, source=source)
    candidate = CorpusEntry(
        name=require_field(pairs, "entry", source),
        spec=spec,
        nx=int_field(pairs, "nx", source),
        ny=int_field(pairs, "ny", source),
        mask=_parse_mask(require_field(pairs, "mask", source), source),
        roi=config.roi,
        lp_cutoff_hz=config.lp_cutoff_hz,
        noise_window=None if config.noise_window == "auto" else config.noise_window,
        q_grid=config.q_grid,
        n_sample=config.n_sample,
        expected=ZERO_STATS,
    )
    if pairs.get("corpus_version") == CORPUS_VERSION:
        for entry in _ENTRIES:
            if replace(entry, expected=ZERO_STATS) == candidate:
                return entry
    return candidate
