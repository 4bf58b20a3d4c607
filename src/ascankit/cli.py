"""Command-line driver for the denoising pipeline.

Seven subcommands cover the full workflow: ``synth`` writes a benchmark or
ad-hoc synthetic scan, ``qselect`` sweeps the process-noise grid, ``denoise``
runs the adaptive pipeline, ``baseline`` runs the zero-phase low-pass
reference, ``reconstruct`` projects a volume to a 16-bit image, ``metrics``
tabulates per-trace PSNR, and ``compare`` scores both methods on identical
data in one invocation.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numerical or
degenerate-model error; every failure prints a one-line diagnostic naming
the offending file or trace.  All outputs are written atomically and no
subcommand mutates its inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import re
import sys
import threading
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from . import __version__
from .adapt import default_noise_window, select_q
from .baseline import baseline_denoise, pipeline_denoise
from .io import (
    PipelineConfig,
    _encoded,
    _read,
    atomic_write_text,
    config_from_strings,
    config_to_strings,
    format_kv,
    read_config,
    read_volume,
    write_csv,
    write_image,
    write_volume,
)
from .metrics import _envelope_blocks, _psnrs, reconstruct
from .model import (
    DataError, EnvelopeImage, NumericsError, QSelectionReport, RoiSpec, Volume, _call_into,
)

if TYPE_CHECKING:
    from .bench import CorpusEntry

__all__ = ["main", "UsageError"]


class UsageError(Exception):
    """Bad invocation: unknown flags, missing arguments, malformed values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise UsageError(f"{self.prog}: {message}")


_SAFE_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*\Z")


# ---------------------------------------------------------------------------
# configuration plumbing


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="key-value config file")
    parser.add_argument("--q", help="process noise, a positive number or 'auto'")
    parser.add_argument(
        "--q-grid", dest="q_grid", metavar="Q1,Q2,...",
        help="comma-separated candidate grid for q='auto'",
    )
    parser.add_argument("--n-sample", dest="n_sample", help="traces sampled by q selection")
    parser.add_argument("--seed", help="sampling seed for q selection")
    parser.add_argument(
        "--noise-window", dest="noise_window",
        help="leading samples used for the per-trace noise estimate, or 'auto'",
    )
    parser.add_argument("--roi", metavar="T_LO:T_HI", help="scoring window, half-open")
    parser.add_argument("--lp-cutoff-hz", dest="lp_cutoff_hz", help="reference low-pass cutoff")
    parser.add_argument("--background", metavar="FILE", help="background volume to subtract")


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    """File config first, then command-line overrides on top."""
    config = PipelineConfig()
    if args.config is not None:
        config = read_config(args.config)
        if config.background_path is not None and not os.path.isabs(config.background_path):
            resolved = os.path.join(os.path.dirname(args.config), config.background_path)
            config = dataclasses.replace(config, background_path=resolved)
    overrides: Dict[str, str] = {}
    for key in ("q", "q_grid", "n_sample", "seed", "noise_window", "roi", "lp_cutoff_hz"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    if args.background is not None:
        overrides["background_path"] = args.background
    if not overrides:
        return config
    try:
        return config_from_strings(overrides, source="command line", base=config)
    except DataError as exc:
        raise UsageError(str(exc)) from exc


def _window(config: PipelineConfig, volume: Volume) -> int:
    if config.noise_window == "auto":
        return default_noise_window(volume.nt)
    return config.noise_window


def _roi(config: PipelineConfig, what: str, volume: Volume, source: str) -> RoiSpec:
    """The configured roi, checked against ``volume``'s traces before any warning."""
    roi, nt = config.roi, volume.nt
    if roi is None:
        raise UsageError(f"{what} needs an roi; pass --roi T_LO:T_HI or set it in the config")
    try:
        roi.checked_for(nt)
    except DataError as exc:
        raise DataError(f"{source}: {exc}") from exc
    # Envelope edge transients make scores near the trace boundaries
    # untrustworthy; flag windows that reach into the outer 10%.
    if roi.t_lo < 0.1 * nt or roi.t_hi > 0.9 * nt:
        print(
            f"warning: roi [{roi.t_lo}:{roi.t_hi}) reaches into the outer 10% "
            f"of the time axis (nt={nt}); envelope edge transients may skew scores",
            file=sys.stderr,
        )
    return roi


def _read_background(config: PipelineConfig) -> Optional[Volume]:
    if config.background_path is None:
        return None
    return read_volume(config.background_path)


def _select(
    config: PipelineConfig, volume: Volume, roi: RoiSpec, source: str
) -> QSelectionReport:
    try:
        return select_q(
            volume,
            grid=config.q_grid,
            n_sample=config.n_sample,
            seed=config.seed,
            noise_window=_window(config, volume),
            roi=roi,
        )
    except (DataError, NumericsError) as exc:
        raise type(exc)(f"{source}: {exc}") from exc


def _resolve_q(
    config: PipelineConfig, volume: Volume, source: str, roi: Optional[RoiSpec] = None
) -> float:
    """The configured q, or the selected one for q='auto'; ``roi``, when
    given, is the one ``_roi`` has already checked and warned about."""
    if config.q != "auto":
        return config.q
    if roi is None:
        roi = _roi(config, "q='auto'", volume, source)
    report = _select(config, volume, roi, source)
    print(f"q_final: {report.q_final!r}")
    return report.q_final


# ---------------------------------------------------------------------------
# synth


# ``bench`` and ``synth`` are imported where they are used: only ``synth``
# needs them, and loading them is a noticeable share of every start-up.


def _default_entry() -> CorpusEntry:
    """Ad-hoc 4x4 scan around the stock synthetic spec, for quick trials."""
    from .bench import ZERO_STATS, CorpusEntry
    from .synth import default_spec

    spec = default_spec()
    return CorpusEntry(
        name="default",
        spec=spec,
        nx=4,
        ny=4,
        mask=frozenset((x, y) for x in range(4) for y in range(4)),
        roi=RoiSpec(1408, 1664),
        lp_cutoff_hz=5e6,
        noise_window=None,
        q_grid=None,
        n_sample=16,
        expected=ZERO_STATS,
    )


def _resolve_synth_source(source: str) -> CorpusEntry:
    from .bench import corpus_entry, parse_manifest

    if source == "default":
        return _default_entry()
    try:
        return corpus_entry(source)
    except DataError:
        pass
    if not os.path.exists(source):
        raise FileNotFoundError(
            f"synth source {source!r} is neither a corpus entry nor a manifest file"
        )
    return parse_manifest(_read(source, "manifest"), source=source)


def _clean_volume(entry: CorpusEntry) -> Volume:
    from .synth import clean_samples

    clean = clean_samples(entry.spec)
    grid = np.zeros((entry.nx, entry.ny, entry.spec.nt))
    for x, y in entry.mask:
        grid[x, y] = clean
    return Volume.from_grid(grid, entry.spec.dt)


def _check_name_lengths(directory: str, paths: List[str]) -> None:
    """Refuse a path in ``directory`` whose name is too long for the file
    system that holds it, or will hold it once ``directory`` is made."""
    existing = os.path.abspath(directory)
    while not os.path.isdir(existing):
        existing = os.path.dirname(existing)
    limit = os.pathconf(existing, "PC_NAME_MAX")
    for path in paths:
        if len(os.fsencode(os.path.basename(path))) > limit:
            raise OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG), path)


def _cmd_synth(args: argparse.Namespace) -> int:
    from .bench import format_manifest

    entry = _resolve_synth_source(args.source)
    if args.seed is not None:
        entry = dataclasses.replace(
            entry, spec=dataclasses.replace(entry.spec, seed=args.seed)
        )
    if not _SAFE_NAME.match(entry.name):
        raise DataError(f"entry name {entry.name!r} is not usable as a file name")
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the Volumes refuse overflows
            (volume, background, _), clean = entry.generate(), _clean_volume(entry)
    except (DataError, OverflowError) as exc:  # the pulse's float arithmetic can overflow
        raise DataError(f"{args.source}: {exc}") from exc
    name = entry.name
    paths = {
        "scan": os.path.join(args.output, f"{name}.pavol"),
        "background": os.path.join(args.output, f"{name}-background.pavol"),
        "clean": os.path.join(args.output, f"{name}-clean.pavol"),
        "manifest": os.path.join(args.output, f"{name}.manifest"),
        "config": os.path.join(args.output, f"{name}.config"),
    }
    # A refused dtype or name leaves no directory and no file.
    for checked in (volume, background, clean):
        _encoded(checked, args.dtype)
    volumes = [paths[label] + ".bin" for label in ("scan", "background", "clean")]
    _check_name_lengths(args.output, [*paths.values(), *volumes])
    os.makedirs(args.output, exist_ok=True)
    note = f"synthetic scan {name!r}, generator seed {entry.spec.seed}"
    write_volume(volume, paths["scan"], dtype=args.dtype, provenance=note)
    write_volume(
        background, paths["background"], dtype=args.dtype,
        provenance=note + ", signal-free background arm",
    )
    write_volume(
        clean, paths["clean"], dtype=args.dtype,
        provenance=note + ", noiseless ground truth",
    )
    atomic_write_text(paths["manifest"], format_manifest(entry))
    config = dataclasses.replace(entry.config(), background_path=f"{name}-background.pavol")
    atomic_write_text(paths["config"], format_kv(config_to_strings(config)))
    for label in ("scan", "background", "clean", "manifest", "config"):
        print(f"wrote {paths[label]}")
    return 0


# ---------------------------------------------------------------------------
# qselect / denoise / baseline


def _cmd_qselect(args: argparse.Namespace) -> int:
    config = _load_config(args)
    volume = read_volume(args.input)
    report = _select(config, volume, _roi(config, "qselect", volume, args.input), args.input)
    rows: List[Tuple[object, ...]] = [
        (x, y, r, best_q, best_psnr, report.q_final)
        for (x, y), r, best_q, best_psnr in zip(
            report.sampled_trace_ids,
            report.r_per_trace,
            report.best_q_per_trace,
            report.best_psnr_per_trace,
        )
    ]
    write_csv(args.output, ("x", "y", "r", "best_q", "best_psnr", "q_final"), rows)
    print(f"q_final: {report.q_final!r}")
    print(f"wrote {args.output}")
    return 0


def _cmd_denoise(args: argparse.Namespace) -> int:
    config = _load_config(args)
    volume = read_volume(args.input)
    background = _read_background(config)
    q = _resolve_q(config, volume, args.input)
    result = pipeline_denoise(volume, background, q, noise_window=_window(config, volume))
    write_volume(result, args.output, dtype=args.dtype)
    print(f"wrote {args.output}")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    config = _load_config(args)
    volume = read_volume(args.input)
    background = _read_background(config)
    result = baseline_denoise(volume, background, config.lp_cutoff_hz)
    write_volume(result, args.output, dtype=args.dtype)
    print(f"wrote {args.output}")
    return 0


# ---------------------------------------------------------------------------
# reconstruct / metrics / compare


def _reconstruct(volume: Volume, source: str) -> EnvelopeImage:
    try:
        return reconstruct(volume)
    except DataError as exc:
        raise DataError(f"{source}: {exc}") from exc


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    volume = read_volume(args.input)
    write_image(_reconstruct(volume, args.input), args.output)
    print(f"wrote {args.output}")
    return 0


def _scores(
    volume: Volume, roi: RoiSpec, source: str, pixels: Optional[np.ndarray] = None
) -> Iterator[Tuple[int, int, float]]:
    """``(x, y, psnr)`` of each trace of ``volume``, in trace order, a block of
    whole traces' envelopes at a time; an error names the trace it arose on.
    ``pixels``, if given, gets the envelope maxima: ``reconstruct``'s pixels."""
    flat, lo = None if pixels is None else pixels.reshape(-1), 0
    for envs in _envelope_blocks(volume.data.reshape(-1, volume.nt)):
        if flat is not None:
            np.max(envs, axis=-1, out=flat[lo : lo + len(envs)])
        scores = _psnrs(envs, roi)
        for i in range(lo, lo + len(envs)):
            x, y = divmod(i, volume.ny)
            try:
                score = next(scores)
            except (DataError, NumericsError) as exc:
                raise type(exc)(f"{source}: trace (x={x}, y={y}): {exc}") from exc
            yield x, y, score
        lo += len(envs)


def _cmd_metrics(args: argparse.Namespace) -> int:
    config = _load_config(args)
    volume = read_volume(args.input)
    roi = _roi(config, "metrics", volume, args.input)
    write_csv(args.output, ("x", "y", "psnr"), list(_scores(volume, roi, args.input)))
    print(f"wrote {args.output}")
    return 0


def _reference_arm(
    volume: Volume, background: Optional[Volume], cutoff_hz: float, roi: RoiSpec,
    stop: threading.Event,
) -> Tuple[List[Tuple[int, int, float]], Optional[EnvelopeImage], Optional[Exception]]:
    """``compare``'s second thread: the FIR reference's scores up to its first
    failing trace, its image (None if a trace failed or it stopped) and the
    scoring error.  The FIR's error raises; a scoring error is returned, for
    the caller to order.  Once ``stop`` is set, it returns before its next
    scan line."""
    reference = baseline_denoise(volume, background, cutoff_hz)
    scores: List[Tuple[int, int, float]] = []
    if stop.is_set():
        return scores, None, None
    pixels = np.empty((volume.nx, volume.ny))
    try:
        for score in _scores(reference, roi, "baseline output", pixels):
            scores.append(score)  # kept up to an error
            if score[1] == volume.ny - 1 and stop.is_set():
                return scores, None, None
    except (DataError, NumericsError) as exc:
        return scores, None, exc
    return scores, EnvelopeImage(volume.nx, volume.ny, pixels), None


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _load_config(args)
    volume = read_volume(args.input)
    background = _read_background(config)
    roi = _roi(config, "compare", volume, args.input)
    # The reference needs no q, and its FIR passes and envelope FFTs release
    # the GIL, so a second thread filters, scores and images it while q is
    # chosen and the pipeline runs and is scored.  The input's image depends
    # on neither filter: the main thread makes it once its own scores raised
    # nothing.  The main thread joins the worker on every path.  Errors keep a
    # sequential run's order: q's, the pipeline's, the FIR's, the earlier
    # trace's scoring error (the pipeline's at a tie), then the input image's.
    # As q's and the pipeline's errors come first, the worker stops early
    # after one of them.
    stop, outcome = threading.Event(), []
    worker = threading.Thread(
        target=_call_into,
        args=(outcome, _reference_arm, volume, background, config.lp_cutoff_hz, roi, stop),
    )
    worker.start()
    try:
        q = _resolve_q(config, volume, args.input, roi)
        window = _window(config, volume)
        pipeline = pipeline_denoise(volume, background, q, noise_window=window)
        # Each arm makes its pixel rows only once filtered: made before q
        # selection, they sat among the pipeline's temporaries in the heap.
        pixels = np.empty((volume.nx, volume.ny))
        scored: List[Tuple[int, int, float]] = []
        error: Optional[Exception] = None
        try:
            scored.extend(_scores(pipeline, roi, "pipeline output", pixels))
            input_image = _reconstruct(volume, args.input)
        except (DataError, NumericsError) as exc:
            error = exc
    except BaseException:
        stop.set()
        raise
    finally:
        worker.join()
    (result,) = outcome
    if isinstance(result, BaseException):
        raise result
    reference, reference_image, reference_error = result
    # An input image's error has every trace scored before it, so it comes
    # after any scoring error of the other arm.
    if error is None or (reference_error is not None and len(reference) < len(scored)):
        error = reference_error
    if error is not None:
        raise error
    rows = [
        (x, y, score, ref, score - ref)
        for (x, y, score), (_, _, ref) in zip(scored, reference)
    ]

    os.makedirs(args.output, exist_ok=True)
    report_path = os.path.join(args.output, "report.csv")
    summary_path = os.path.join(args.output, "summary.txt")
    write_csv(
        report_path,
        ("x", "y", "psnr_pipeline", "psnr_baseline", "gain_db"),
        rows,
    )
    gain_arr = np.array([row[-1] for row in rows])
    summary = {
        "n_traces": str(len(rows)),
        "q": repr(q),
        "noise_window": str(window),
        "lp_cutoff_hz": repr(config.lp_cutoff_hz),
        "roi": f"{roi.t_lo}:{roi.t_hi}",
        "mean_psnr_gain_db": repr(float(gain_arr.mean())),
        "min_psnr_gain_db": repr(float(gain_arr.min())),
        "max_psnr_gain_db": repr(float(gain_arr.max())),
        "n_gain_positive": str(int((gain_arr > 0).sum())),
    }
    atomic_write_text(summary_path, format_kv(summary))
    for tag, image in (("input", input_image),
                       ("pipeline", EnvelopeImage(volume.nx, volume.ny, pixels)),
                       ("baseline", reference_image)):
        write_image(image, os.path.join(args.output, f"{tag}.pgm"))
    print(f"mean_psnr_gain_db: {float(gain_arr.mean())!r}")
    print(f"wrote {report_path}")
    print(f"wrote {summary_path}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring


#: Each subcommand's help, its ``--output``'s metavar and its handler, in the
#: order ``--help`` lists them.
_SUBCOMMANDS = {
    "synth": ("write a synthetic scan with ground truth", "DIR", _cmd_synth),
    "qselect": ("sweep the process-noise grid on sampled traces", "CSV", _cmd_qselect),
    "denoise": ("adaptive per-trace denoising", "VOLUME", _cmd_denoise),
    "baseline": ("zero-phase low-pass reference filtering", "VOLUME", _cmd_baseline),
    "reconstruct": ("project a volume to a 16-bit envelope image", "PGM", _cmd_reconstruct),
    "metrics": ("per-trace PSNR table", "CSV", _cmd_metrics),
    "compare": ("score the pipeline against the reference", "DIR", _cmd_compare),
}


def _build_parser(names: Iterable[str] = _SUBCOMMANDS) -> _Parser:
    """The parser, with the subparsers of ``names`` only: building all seven
    takes about 1.5 ms, four times as long as building one and parsing."""
    parser = _Parser(prog="ascankit", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"ascankit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")
    for name in names:
        help_text, output, handler = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        if name == "synth":
            p.add_argument("source", help="corpus entry name, 'default', or a manifest file")
            p.add_argument("--output", required=True, metavar=output)
            p.add_argument("--seed", type=int, help="override the generator/sampling seed")
        else:
            p.add_argument("--input", required=True, metavar="VOLUME")
            p.add_argument("--output", required=True, metavar=output)
        if name in ("synth", "denoise", "baseline"):
            p.add_argument("--dtype", choices=("f64le", "f32le"), default="f64le")
        if name not in ("synth", "reconstruct"):
            _add_config_flags(p)
        p.set_defaults(func=handler)
    return parser


def _parser_for(argv: List[str]) -> _Parser:
    """The parser for ``argv``: only its subcommand's when its first token
    names one, and the full parser otherwise (no arguments, ``--help``,
    ``--version`` or an unknown name), which lists or refuses them all."""
    return _build_parser(argv[:1] if argv[:1] and argv[0] in _SUBCOMMANDS else _SUBCOMMANDS)


#: Every character str.splitlines() breaks at, mapped to its escaped form, so
#: that a file name or a value quoted in a diagnostic cannot break its line.
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"}


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {str(exc).translate(_LINE_BREAKS)}", file=sys.stderr)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _parser_for(argv).parse_args(argv)
        if "\0" in args.output:
            raise UsageError(f"ascankit {args.subcommand}: --output cannot contain a NUL")
        return args.func(args)
    except UsageError as exc:
        return _fail(exc, 1)
    except (OSError, DataError, MemoryError) as exc:
        return _fail(exc, 2)
    except NumericsError as exc:
        return _fail(exc, 3)


if __name__ == "__main__":
    sys.exit(main())
