"""The lane-batched Kalman/RTS kernel and the callers built on it.

The kernel must reproduce ``denoise_trace`` bit for bit on every lane, and
``select_q`` and ``pipeline_denoise`` must reproduce their per-trace loops
(kept in ``oracles``) exactly: the same report, the same bytes, the same
first error naming the same trace.  Each caller is checked with the default
workspace (one chunk here) and with a cap small enough to force many chunks.
"""

import contextlib
import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ascankit import metrics, rts
from ascankit.adapt import select_q
from ascankit.baseline import pipeline_denoise
from ascankit.kalman import kf_filter, random_walk_params
from ascankit.model import DataError, NumericsError, RoiSpec, Trace, Volume
from ascankit.rts import _leave, _settled, _smooth_lanes, denoise_trace
from ascankit.synth import default_spec, synth_volume
from oracles import scalar_denoised_volume, scalar_select_q

NT = 256
ROI = RoiSpec(100, 180)
GRID = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2)

LOG_VARIANCE = st.floats(min_value=-12.0, max_value=12.0).map(lambda e: 10.0**e)
SAMPLE = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def _lane_bytes(n):
    """What a lane of ``n`` samples costs the kernel's workspace by its sizing
    rule: its means, a variance checkpoint per block of ``_CHECK_EVERY``
    steps, one block of recomputed variances, and two sub-blocks of
    ``_GAIN_STEPS`` gains and a step of scratch."""
    block = min(rts._CHECK_EVERY, n)
    return 8 * (n + math.ceil(n / block) + block + 2 * min(rts._GAIN_STEPS, block) + 1)


def _stored_lane_bytes(n):
    """What a lane of ``n`` samples costs the kernel's workspace when it
    stores its variances: them, its means and the same scratch."""
    return 8 * (2 * n + 2 * min(rts._GAIN_STEPS, n) + 1)


def _cap(nbytes):
    return mock.patch.object(rts, "_LANE_BYTES", nbytes)


def _lanes_per_chunk(lanes):
    """Cap the kernel's workspace at ``lanes`` lanes of length ``NT``; with
    ``None``, keep the default cap, which holds every lane used here."""
    if lanes is None:
        return contextlib.nullcontext()
    return _cap(lanes * _lane_bytes(NT))


def _chunks(rows, qs, rs):
    """Run the kernel on ``rows`` as three blocks (some may be empty), and
    check that its chunks are the fewest that fit the cap in either layout,
    all as wide as the first but the last; return copies of them."""
    count, n = len(rows), len(rows[0])
    width, _ = rts._chunking(count, n)
    fewest = min(
        math.ceil(count / max(1, rts._LANE_BYTES // lane))
        for lane in (_stored_lane_bytes(n), _lane_bytes(n))
    )
    chunks, views = [], []
    for lo, smoothed in _smooth_lanes(np.array_split(np.asarray(rows), 3), qs, rs):
        chunks.append((lo, smoothed.copy()))
        views.append(smoothed)
    assert [lo for lo, _ in chunks] == list(range(0, count, width))
    assert len(chunks) == fewest and width == math.ceil(count / fewest)
    assert all(smoothed.shape == (n, min(width, count - lo)) for lo, smoothed in chunks)
    assert all(np.shares_memory(views[0], later) for later in views)  # one workspace
    return chunks


def _assert_denoised(rows, qs, rs, chunks):
    for lo, smoothed in chunks:
        for j, got in enumerate(smoothed.T):
            want = denoise_trace(Trace(rows[lo + j], 1e-6), qs[lo + j], rs[lo + j])
            assert np.array_equal(_bits(got), _bits(want.samples)), lo + j


def _scan(seed: int, nx: int = 3, ny: int = 3) -> Volume:
    spec = default_spec(seed=seed, nt=NT, pulse_time_s=1.25e-6, noise_sigma=0.05)
    mask = {(x, y) for x in range(nx) for y in range(ny) if (x + y) % 2 == 0}
    volume, _, _ = synth_volume(spec, nx, ny, mask)
    return volume


def _with_traces(volume: Volume, traces) -> Volume:
    """``volume`` with the traces at the given (x, y) replaced."""
    grid = volume.grid().copy()
    for (x, y), samples in traces.items():
        grid[x, y] = samples
    return Volume.from_grid(grid, volume.dt)


def _silent(volume: Volume) -> Volume:
    """A scan whose trace (1, 1) is all zeros, so its r is 0."""
    return _with_traces(volume, {(1, 1): np.zeros(NT)})


def _loud_head() -> np.ndarray:
    """A finite trace whose noise-window mean square overflows: r = inf."""
    samples = np.full(NT, 0.5)
    samples[:16] = 1e200
    return samples


def _overflowing() -> np.ndarray:
    """A finite trace with a quiet head whose filtered values overflow."""
    samples = np.full(NT, 1e-3)
    samples[32::2] = 1.7e308
    samples[33::2] = -1.7e308
    return samples


def _report_fields(report):
    return repr(dataclasses.astuple(report))


def _error(fn, *args, **kwargs):
    with pytest.raises((DataError, ArithmeticError)) as info:
        fn(*args, **kwargs)
    return type(info.value), str(info.value)


class TestKernel:
    @st.composite
    def lane_sets(draw):
        n = draw(st.integers(min_value=1, max_value=24))
        count = draw(st.integers(min_value=1, max_value=7))
        rows = np.array(
            [draw(st.lists(SAMPLE, min_size=n, max_size=n)) for _ in range(count)]
        )
        qs = np.array([draw(LOG_VARIANCE) for _ in range(count)])
        rs = np.array([draw(st.one_of(st.just(0.0), LOG_VARIANCE)) for _ in range(count)])
        width = draw(st.integers(min_value=1, max_value=count))
        return rows, qs, rs, width

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(lane_sets())
    def test_every_lane_matches_denoise_trace_bit_for_bit(self, lanes):
        rows, qs, rs, width = lanes
        with _cap(width * _lane_bytes(rows.shape[1])):
            chunks = _chunks(rows, qs, rs)
        _assert_denoised(rows, qs, rs, chunks)

    def test_negative_zero_first_sample_comes_out_positive(self):
        rows = [np.array([[-0.0, -0.0, -0.0]]), np.array([[-0.0]])]
        (lo, smoothed), = _smooth_lanes(rows[:1], np.array([1.0]), np.array([1.0]))
        want = denoise_trace(Trace(rows[0][0], 1e-6), 1.0, 1.0).samples
        assert np.array_equal(_bits(smoothed[:, 0]), _bits(want))
        assert not np.signbit(smoothed[:, 0]).any()
        (lo, smoothed), = _smooth_lanes(rows[1:], np.array([1.0]), np.array([0.0]))
        assert np.signbit(smoothed[0, 0])  # r = 0 copies the sample through

    def test_a_lane_smoothed_to_all_positive_infinity_is_refused(self):
        # Overflow at the last step makes every smoothed sample of lane 1
        # +inf, and leaves the chunk's minimum finite.
        tail = np.zeros(64)
        tail[-2:] = [-1.7e308, 1.7e308]
        rows = np.array([np.linspace(0.0, 1.0, 64), tail, np.ones(64)])
        qs, rs = np.array([1.0, 1e6, 1.0]), np.ones(3)
        chunks = []

        def run():
            for lo, smoothed in _smooth_lanes([rows], qs, rs):
                chunks.append((lo, smoothed.copy()))

        assert _error(run) == _error(denoise_trace, Trace(tail, 1e-6), 1e6, 1.0)
        assert [(lo, smoothed.shape) for lo, smoothed in chunks] == [(0, (64, 1))]
        _assert_denoised(rows, qs, rs, chunks)

    def test_no_lanes_yields_nothing(self):
        assert list(_smooth_lanes([], np.array([]), np.array([]))) == []
        assert list(_smooth_lanes([np.ones((0, 3))] * 2, np.array([]), np.array([]))) == []

    @pytest.mark.parametrize(
        "q", [float("nan"), float("inf"), -1.0, -0.0, 0.0, 5e-324, 1.0, 1e308]
    )
    @pytest.mark.parametrize(
        "r", [float("nan"), float("inf"), -1.0, -0.0, 0.0, 5e-324, 1.0, 1e308]
    )
    def test_takes_exactly_the_variances_denoise_trace_accepts(self, q, r):
        # Accepted variances can still overflow into a non-finite result,
        # which both paths refuse with the same error.
        rows = [np.array([[1.0, -2.0, 0.5]])]
        try:
            want = denoise_trace(Trace(rows[0][0], 1e-6), q, r).samples
        except DataError as exc:
            assert _error(list, _smooth_lanes(rows, np.array([q]), np.array([r]))) == (
                DataError, str(exc)
            )
        else:
            (lo, smoothed), = _smooth_lanes(rows, np.array([q]), np.array([r]))
            assert np.array_equal(_bits(smoothed[:, 0]), _bits(want))


#: (q, r) of lanes whose variances settle, in the scalar recursion, to a fixed
#: point (at steps 177 and 20), to a 2-cycle (at steps 167 and 101; in the
#: second both gains alternate too), at once (r = 0), or not within thousands
#: of steps (r/q = 1e12).
PERIOD_1 = [(1e-2, 1.0), (1.0, 1.0)]
PERIOD_2 = [(0.012, 1.0), (0.034, 1.0)]
SILENT = [(1e-3, 0.0)]
UNSETTLED = [(1e-12, 1.0)]


class _SettleSpy:
    """Stands in for ``rts._settled`` and ``rts._leave``, and records in the
    run's lane numbers: each check as ``(k, lanes found settled)``, each
    leaving as ``(k, lanes)``, and at ``variances[lane, k]`` the bits of the
    variances of steps ``k - 1`` and ``k`` of each lane checked.  A check at
    a step no later than the last one starts a chunk."""

    def __init__(self):
        self.checks, self.leaves, self.variances = [], [], {}
        self._k, self._lo, self._width = math.inf, 0, 0

    def settled(self, ps, k):
        if k <= self._k:
            self._lo, self._width = self._lo + self._width, ps.shape[1]
            self._live = np.arange(ps.shape[1])
        self._k = k
        done = _settled(ps, k)
        self.checks.append((k, (self._lo + self._live[done]).tolist()))
        for lane, before, last in zip(self._lo + self._live, ps[-2], ps[-1]):
            self.variances[int(lane), k] = tuple(_bits([before, last]).tolist())
        return done

    def leave(self, cycle, lanes, k, post, q, r):
        left = np.arange(cycle.shape[-1])[lanes]
        self.leaves.append((k, (self._lo + left).tolist()))
        self._live = np.setdiff1d(self._live, left)
        return _leave(cycle, lanes, k, post, q, r)


def _long_lanes(pairs, n, seed=0):
    rows = np.random.default_rng(seed).standard_normal((len(pairs), n)).cumsum(axis=1)
    qs, rs = (np.array(values) for values in zip(*pairs))
    return rows, qs, rs


def _settle_step(q, r, n):
    """The first step k >= 2 at which the scalar filter's posterior variance
    repeats the one of step k - 2 bit for bit, or None within ``n`` steps."""
    trace = Trace(np.zeros(n), 1e-6)
    p_post = _bits(kf_filter(trace, random_walk_params(trace, q, r)).p_post)
    hits = np.flatnonzero(p_post[2:] == p_post[:-2])
    return int(hits[0]) + 2 if len(hits) else None


def _leaves_by_rule(qs, rs, n, checkpointed):
    """The ``(k, lanes)`` that leave one chunk of lanes of ``n`` samples by
    the per-lane rule: at a check, the live lanes whose variance has settled
    leave when all of them have, or, in a chunk of at least
    ``_COMPACT_LANES`` lanes with stored variances, when at most half of its
    lanes stay live and at least 8 steps follow."""
    settle = [_settle_step(q, r, n) or math.inf for q, r in zip(qs, rs)]
    live, leaves = list(range(len(qs))), []
    wide = not checkpointed and len(qs) >= rts._COMPACT_LANES
    for k in range(rts._CHECK_EVERY - 1, n - 1, rts._CHECK_EVERY):
        done = [i for i in live if settle[i] <= k]
        narrows = wide and 2 * (len(live) - len(done)) <= len(qs) and n - k - 1 >= 8
        if done == live or done and narrows:
            leaves.append((k, done))
            live = [i for i in live if i not in done]
        if not live:
            break
    return leaves


def _spied(rows, qs, rs, cap):
    """The settle spy and the chunks of a kernel run capped at ``cap`` bytes."""
    spy = _SettleSpy()
    with mock.patch.multiple(rts, _settled=spy.settled, _leave=spy.leave), _cap(cap):
        chunks = _chunks(rows, qs, rs)
    return spy, chunks


def _smooth_checked(rows, qs, rs, width=None, cap=None):
    """Run the kernel with a cap of ``width`` lanes (default: all) or ``cap``
    bytes, check every lane against ``denoise_trace`` bit for bit, and
    return the settle spy."""
    spy, chunks = _spied(rows, qs, rs, cap or (width or len(rows)) * _lane_bytes(rows.shape[1]))
    _assert_denoised(rows, qs, rs, chunks)
    return spy


class TestSettledLanes:
    """Lanes long enough for the kernel's settle checks, which the short
    lanes of ``TestKernel`` never reach.  These chunks are narrower than
    ``_COMPACT_LANES``: their lanes leave the recursion all at once."""

    def test_a_lane_that_never_settles_keeps_its_chunk_on_the_full_recursion(self):
        rows, qs, rs = _long_lanes(PERIOD_1 + PERIOD_2 + SILENT + UNSETTLED, 1024)
        spy = _smooth_checked(rows, qs, rs)
        assert spy.checks == (
            [(127, [1, 3, 4])] + [(k, [0, 1, 2, 3, 4]) for k in range(255, 1023, 128)]
        )
        assert spy.leaves == []

    def test_settled_lanes_of_both_periods_take_the_steady_path(self):
        rows, qs, rs = _long_lanes(PERIOD_1 + PERIOD_2 + SILENT, 1024)
        spy = _smooth_checked(rows, qs, rs)
        assert spy.checks == [(127, [1, 3, 4]), (255, [0, 1, 2, 3, 4])]
        assert spy.leaves == [(255, [0, 1, 2, 3, 4])]
        periods = [spy.variances[lane, 255] for lane in range(5)]
        assert [before != last for before, last in periods] == [False, False, True, True, False]

    # The last block has no check, as no step follows it: lanes that settle
    # in it, or at its first steps, run the full recursion to the end.
    @pytest.mark.parametrize(
        "pairs, n, leaves",
        [
            ([(1.0, 1.0)] * 3, 128, []),
            ([(1.0, 1.0)] * 3, 129, [(127, [0, 1, 2])]),
            ([(1.0, 1.0)] * 3, 130, [(127, [0, 1, 2])]),
            (PERIOD_1 + PERIOD_2, 256, []),
            (PERIOD_1 + PERIOD_2, 257, [(255, [0, 1, 2, 3])]),
            (PERIOD_1 + PERIOD_2, 258, [(255, [0, 1, 2, 3])]),
        ],
    )
    def test_settling_at_the_last_steps_leaves_few_or_no_steady_steps(self, pairs, n, leaves):
        rows, qs, rs = _long_lanes(pairs, n, seed=n)
        spy = _smooth_checked(rows, qs, rs)
        assert [k for k, _ in spy.checks] == list(range(127, n - 1, 128))
        assert spy.leaves == leaves

    def test_each_chunk_settles_on_its_own(self):
        # Chunks of two: [P1, P1], [unsettled, P2], [P2, r = 0], [q = r].
        pairs = PERIOD_1 + UNSETTLED + PERIOD_2 + SILENT + [(1.0, 1.0)]
        rows, qs, rs = _long_lanes(pairs, 640, seed=3)
        spy = _smooth_checked(rows, qs, rs, width=2)
        assert spy.checks == (
            [(127, [1]), (255, [0, 1])]
            + [(127, [])] + [(k, [3]) for k in (255, 383, 511)]
            + [(127, [4, 5])]
            + [(127, [6])]
        )
        assert spy.leaves == [(255, [0, 1]), (127, [4, 5]), (127, [6])]

    @st.composite
    def settling_lane_sets(draw, n=st.integers(min_value=100, max_value=1500)):
        n = draw(n)
        count = draw(st.integers(min_value=1, max_value=6))
        ratio = st.one_of(st.floats(min_value=-4.0, max_value=4.0).map(lambda e: 10.0**e),
                          st.just(1e-12))
        scale = st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0**e)
        rs = np.array([draw(scale) for _ in range(count)])
        qs = np.array([draw(ratio) for _ in range(count)]) * rs
        rs[[draw(st.booleans()) for _ in range(count)]] = 0.0
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        rows = rng.standard_normal((count, n)) * draw(scale)
        return rows, qs, rs, draw(st.integers(min_value=1, max_value=count))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(settling_lane_sets())
    def test_long_lanes_match_denoise_trace_bit_for_bit(self, lanes):
        rows, qs, rs, width = lanes
        _smooth_checked(rows, qs, rs, width)

    @st.composite
    def phased_lanes(draw):
        """Up to four lanes whose slowest settles at step 230 to 547; a
        length that ends one or two steps after that step, or runs past the
        check that finds it, or any from 200 up (some never settle); stored
        or checkpointed variances; and sub-blocks of gains that rarely
        divide the length."""
        exponents = [draw(st.floats(min_value=-3.0, max_value=-2.25))] + draw(
            st.lists(st.floats(min_value=-3.0, max_value=0.0), max_size=2)
        )
        rs = np.array([draw(st.sampled_from([1e-6, 1.0, 1e6])) for _ in exponents])
        qs = 10.0 ** np.array(exponents) * rs
        for i in range(1, len(rs)):
            rs[i] = draw(st.sampled_from([0.0, rs[i]]))
        # Most drawn lanes settle to a fixed point; a 2-cycle alternates gains.
        if draw(st.booleans()):
            q, r = draw(st.sampled_from(PERIOD_2))
            qs, rs = np.append(qs, q), np.append(rs, r)
        settle = max(_settle_step(q, r, 600) for q, r in zip(qs, rs))
        check = settle + (127 - settle) % 128  # the first regular check after it
        n = draw(st.one_of(
            st.integers(min_value=settle + 1, max_value=settle + 2),
            st.integers(min_value=check + 2, max_value=check + 300),
            st.integers(min_value=200, max_value=settle + 300),
        ))
        steps = draw(st.sampled_from([1, 3, 8, rts._GAIN_STEPS]))
        return qs, rs, n, settle, draw(st.booleans()), steps

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(phased_lanes())
    def test_the_settled_phase_is_denoise_trace_at_any_length(self, lanes):
        # The settled passes cycle two gains from the check that finds the
        # lanes settled, at an odd step (127, 255, ...) before the last block.
        qs, rs, n, settle, checkpointed, steps = lanes
        rows = np.random.default_rng(n).standard_normal((len(qs), n)).cumsum(axis=1)
        with mock.patch.object(rts, "_GAIN_STEPS", steps):
            cap = len(qs) * (_lane_bytes(n) if checkpointed else _stored_lane_bytes(n))
            with _cap(cap):
                assert rts._chunking(len(qs), n) == (len(qs), checkpointed)
            spy = _smooth_checked(rows, qs, rs, cap=cap)
        found = [k for k in range(127, n - 1, 128) if k >= settle][:1]
        assert spy.leaves == [(k, list(range(len(qs)))) for k in found]

    def test_settled_prior_variance_is_the_closed_form(self):
        # The steady-state prior variance P solves P = P*r/(P + r) + q.
        r = 2.5e-3
        qs = np.logspace(-4.0, 6.0, 41) * r
        rs = np.full_like(qs, r)
        rows = np.random.default_rng(5).standard_normal((len(qs), 2048)) * math.sqrt(r)
        spy = _smooth_checked(rows, qs, rs)
        assert spy.leaves == [(1663, list(range(41)))]  # the slowest lane settles at step 1632
        before, last = np.array([spy.variances[lane, 1663] for lane in range(41)]).T
        assert np.flatnonzero(before != last).tolist() == [16, 17]  # period 2; the rest, 1
        closed = (qs + np.sqrt(qs * qs + 4.0 * qs * rs)) / 2.0
        for p_post in (before, last):
            np.testing.assert_allclose(p_post.view(np.float64) + qs, closed, rtol=1e-12, atol=0.0)


def _three_ways(rows, qs, rs):
    """The settle spies of one chunk of ``rows`` at a compaction width of its
    own, run with its later variances packed, stored in full and
    checkpointed (so that the backward pass recomputes them).  Each run's
    lanes are checked against ``denoise_trace`` bit for bit."""
    count, n = rows.shape
    full = count * _stored_lane_bytes(n)
    spies = []
    for cap, compact, checkpointed in [
        (full, count, False), (full, count + 1, False), (count * _lane_bytes(n), count, True)
    ]:
        with mock.patch.object(rts, "_COMPACT_LANES", compact), _cap(cap):
            assert rts._chunking(count, n) == (count, checkpointed)
            spies.append(_smooth_checked(rows, qs, rs, cap=cap))
    return spies


class TestCheckpointedLanes:
    """Chunks too wide to store their variances in full, which the backward
    pass recomputes block by block from per-block checkpoints; and chunks
    whose settled lanes leave and whose live lanes' variances are packed."""

    @pytest.mark.parametrize(
        "pairs, n, packed, settled",
        [
            ([(1.0, 1.0)] * 3, 1024, [(127, [0, 1, 2])], 127),  # in block 0: nothing recomputed
            # Some within block 0: the packed run narrows there.
            (PERIOD_1 + PERIOD_2 + SILENT, 1024, [(127, [1, 3, 4]), (255, [0, 2])], 255),
            (PERIOD_1 + PERIOD_2 + SILENT, 300, [(127, [1, 3, 4]), (255, [0, 2])], 255),
            (PERIOD_2, 257, [(127, [1]), (255, [0])], 255),
            # Every block recomputed, and packed after step 127; last blocks
            # of 128 steps, of one and of two.
            *[(PERIOD_1 + SILENT + UNSETTLED, n, [(127, [1, 2]), (255, [0])], None)
              for n in (1024, 1025, 1026)],
            # A chunk narrows only where 8 or more steps follow the check, so
            # that its packed rows leave room for the settled lanes' gains.
            ([(1e-2, 1.0)] * 3 + UNSETTLED, 263, [], None),
            ([(1e-2, 1.0)] * 3 + UNSETTLED, 264, [(255, [0, 1, 2])], None),
            # Lanes that settle at steps 256 and 257, in a last block of one
            # or two steps, which has no check.
            ([(0.004883376234556759, 1.0)] * 2, 257, [], None),
            ([(0.004647425240565497, 1.0)] * 2, 258, [], None),
        ],
    )
    def test_recomputed_variances_are_the_stored_ones(self, pairs, n, packed, settled):
        rows, qs, rs = _long_lanes(pairs, n, seed=n)
        narrowed, stored, checkpointed = _three_ways(rows, qs, rs)
        assert narrowed.leaves == packed
        assert stored.leaves == ([] if settled is None else [(settled, list(range(len(qs))))])
        assert checkpointed.checks == stored.checks and checkpointed.leaves == stored.leaves
        assert checkpointed.variances == stored.variances
        assert narrowed.variances == {key: stored.variances[key] for key in narrowed.variances}
        with mock.patch.object(rts, "_COMPACT_LANES", len(qs)):
            assert narrowed.leaves == _leaves_by_rule(qs, rs, n, False)

    @st.composite
    def narrowing_chunks(draw):
        """A chunk of 4 to 12 lanes at a compaction width of its own: lanes
        with a fixed point, a 2-cycle, r = 0, or none within thousands of
        steps, and lanes of any drawn ratio; lengths of 128k + 1 and
        128k + 2 among others, from 200 up, where a chunk can checkpoint its
        variances; sub-blocks of gains that rarely divide the length."""
        count = draw(st.integers(min_value=4, max_value=12))
        known = st.sampled_from(PERIOD_1 + PERIOD_2 + SILENT + UNSETTLED)
        drawn = st.tuples(
            st.floats(min_value=-3.0, max_value=1.0).map(lambda e: 10.0**e), st.just(1.0)
        )
        pairs = [draw(st.one_of(known, drawn)) for _ in range(count)]
        scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
        n = draw(st.one_of(
            st.sampled_from([128 * k + j for k in range(2, 6) for j in (1, 2)]),
            st.integers(min_value=200, max_value=800),
        ))
        rows, qs, rs = _long_lanes(pairs, n, seed=draw(st.integers(0, 2**16)))
        steps = draw(st.sampled_from([1, 3, 8, rts._GAIN_STEPS]))
        return rows * scale, qs * scale, rs * scale, steps

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(narrowing_chunks())
    def test_lanes_leave_by_the_per_lane_rule_at_the_compaction_width(self, chunk):
        rows, qs, rs, steps = chunk
        with mock.patch.object(rts, "_GAIN_STEPS", steps):
            narrowed, stored, checkpointed = _three_ways(rows, qs, rs)
        n = rows.shape[1]
        with mock.patch.object(rts, "_COMPACT_LANES", len(qs)):
            assert narrowed.leaves == _leaves_by_rule(qs, rs, n, False)
            assert stored.leaves == checkpointed.leaves == _leaves_by_rule(qs, rs, n, True)
        assert checkpointed.variances == stored.variances
        assert narrowed.variances == {key: stored.variances[key] for key in narrowed.variances}

    @pytest.mark.parametrize("cap", [None, 1])
    def test_no_accepted_lane_raises_the_first_lanes_error(self, cap):
        rows = [np.ones((2, 300))]
        qs, rs = np.array([1.0, 1.0]), np.array([-1.0, 1.0])
        want = _error(denoise_trace, Trace(rows[0][0], 1e-6), qs[0], rs[0])
        with _cap(cap or rts._LANE_BYTES):
            assert rts._chunking(0, 300) == (1, cap is not None)
            assert _error(list, _smooth_lanes(rows, qs, rs)) == want

    @pytest.mark.parametrize("n", [1, 2, 3, 100, 128, 300])
    def test_lanes_over_the_cap_are_checkpointed_one_a_chunk(self, n):
        rows, qs, rs = _long_lanes(PERIOD_1 + SILENT, n, seed=n)
        with _cap(1):
            assert rts._chunking(len(rows), n) == (1, True)
            chunks = _chunks(rows, qs, rs)
        _assert_denoised(rows, qs, rs, chunks)

    @pytest.mark.parametrize("n", [2, 100, 128, 129])
    def test_lanes_whose_variances_fit_the_cap_are_one_stored_chunk(self, n):
        # Below 130 samples a checkpointed lane costs more than one that
        # stores its variances, so sizing the chunks by it split these lanes.
        rows, qs, rs = _long_lanes(PERIOD_1 + PERIOD_2 + SILENT, n, seed=n)
        assert _lane_bytes(n) > _stored_lane_bytes(n)
        with _cap(len(rows) * _stored_lane_bytes(n)):
            assert rts._chunking(len(rows), n) == (len(rows), False)
            chunks = _chunks(rows, qs, rs)
        assert len(chunks) == 1
        _assert_denoised(rows, qs, rs, chunks)

    @st.composite
    def capped_lane_sets(draw):
        rows, qs, rs, _ = draw(TestSettledLanes.settling_lane_sets(
            n=st.one_of(st.integers(1, 130), st.integers(131, 700))
        ))
        full = len(rows) * _stored_lane_bytes(rows.shape[1])
        return rows, qs, rs, draw(st.integers(min_value=1, max_value=full + full // 2))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(capped_lane_sets())
    def test_any_cap_gives_the_fewest_chunks_and_the_same_bits(self, lanes):
        rows, qs, rs, cap = lanes
        with _cap(cap):
            chunks = _chunks(rows, qs, rs)
        _assert_denoised(rows, qs, rs, chunks)

    # None: as many lanes as one chunk holds, too many to store their variances.
    @pytest.mark.parametrize("count, n, checkpointed", [(None, 4096, True), (512, 1024, False)])
    def test_peak_allocation_stays_under_the_cap(self, count, n, checkpointed):
        count = count or rts._LANE_BYTES // _lane_bytes(n)
        rows, qs, rs = _long_lanes([(1e-2, 1.0)] * count, n)
        assert rts._chunking(count, n)[1] == checkpointed
        tracemalloc.start()
        try:
            for _ in _smooth_lanes([rows], qs, rs):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rts._LANE_BYTES + (64 << 10)


class TestForwardHook:
    """The means the kernel hands its ``forward`` hook between its passes."""

    @staticmethod
    def _assert_forward(rows, qs, rs):
        """Check that the hook sees each chunk's ``kf_filter`` means, read-only,
        and that the kernel's output is the same bits with and without it."""
        seen = []

        def forward(lo, means):
            assert not means.flags.writeable
            seen.append((lo, means.copy()))

        plain = [(lo, smoothed.copy()) for lo, smoothed in _smooth_lanes([rows], qs, rs)]
        hooked = [(lo, sm.copy()) for lo, sm in _smooth_lanes([rows], qs, rs, forward=forward)]
        assert [lo for lo, _ in seen] == [lo for lo, _ in plain] == [lo for lo, _ in hooked]
        for (_, got), (_, want) in zip(hooked, plain):
            assert _bits(got).tolist() == _bits(want).tolist()
        for (lo, means), (_, smoothed) in zip(seen, plain):
            assert means.shape == smoothed.shape
            for j, got in enumerate(means.T):
                trace = Trace(rows[lo + j], 1e-6)
                params = random_walk_params(trace, qs[lo + j], rs[lo + j])
                assert np.array_equal(_bits(got), _bits(kf_filter(trace, params).x_post)), lo + j

    # Lanes that settle with either period, at once (r = 0) or never: one
    # chunk that never settles, or chunks [P1, P1, P2] (settles at step 255)
    # and [P2, r = 0, unsettled], or [P1, P1], [P2, P2] and [r = 0, unsettled].
    @pytest.mark.parametrize(
        "cap, width, checkpointed",
        [
            (None, 6, False),
            (6 * _lane_bytes(1024), 6, True),
            (3 * _stored_lane_bytes(1024), 3, False),
            (2 * _lane_bytes(1024), 2, True),
        ],
    )
    def test_the_hook_sees_the_kf_filter_means_and_changes_no_bit(self, cap, width, checkpointed):
        rows, qs, rs = _long_lanes(PERIOD_1 + PERIOD_2 + SILENT + UNSETTLED, 1024, seed=7)
        with _cap(cap or rts._LANE_BYTES):
            assert rts._chunking(len(rows), 1024) == (width, checkpointed)
            self._assert_forward(rows, qs, rs)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(TestCheckpointedLanes.capped_lane_sets())
    def test_the_hook_sees_the_kf_filter_means_at_any_cap(self, lanes):
        rows, qs, rs, cap = lanes
        with _cap(cap):
            self._assert_forward(rows, qs, rs)


class TestSelectQMatchesScalarLoop:
    @pytest.mark.parametrize("lanes", [None, 3])
    @pytest.mark.parametrize("grid", [GRID, None])
    def test_report_is_identical(self, lanes, grid):
        volume = _silent(_scan(seed=31))
        kwargs = dict(grid=grid, n_sample=9, seed=5, noise_window=16, roi=ROI)
        want = scalar_select_q(volume, **kwargs)
        assert math.inf in want.best_psnr_per_trace  # the silent trace, r = 0
        with _lanes_per_chunk(lanes):
            got = select_q(volume, **kwargs)
        assert _report_fields(got) == _report_fields(want)

    @pytest.mark.parametrize("lanes", [None, 4])
    def test_infinite_r_raises_the_scalar_error(self, lanes):
        volume = _with_traces(_scan(seed=32), {(0, 2): _loud_head(), (2, 1): _loud_head()})
        kwargs = dict(grid=GRID, n_sample=9, seed=1, noise_window=16, roi=ROI)
        want = _error(scalar_select_q, volume, **kwargs)
        assert want[0] is DataError and "measurement-noise variance r" in want[1]
        with _lanes_per_chunk(lanes):
            assert _error(select_q, volume, **kwargs) == want

    def test_overflowing_trace_raises_the_scalar_error(self):
        volume = _with_traces(_scan(seed=33), {(1, 0): _overflowing(), (2, 2): _loud_head()})
        kwargs = dict(grid=GRID, n_sample=9, seed=4, noise_window=16, roi=ROI)
        want = _error(scalar_select_q, volume, **kwargs)
        with _lanes_per_chunk(4):
            assert _error(select_q, volume, **kwargs) == want

    @pytest.mark.parametrize("lanes", [None, 4])
    def test_overflowing_envelope_raises_the_scalar_error(self, lanes):
        # The smoothed lanes are finite, but their envelopes are not.
        huge = np.full(NT, 1e306)
        huge[:16] = 1e-3
        volume = _with_traces(_scan(seed=34), {(2, 1): huge})
        kwargs = dict(grid=GRID, n_sample=9, seed=2, noise_window=16, roi=ROI)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _error(scalar_select_q, volume, **kwargs)
            with _lanes_per_chunk(lanes):
                assert _error(select_q, volume, **kwargs) == want
        assert want == (DataError, "trace (x=2, y=1): trace sample 0 is not finite")

    def test_infinite_median_r_is_the_scalar_numerics_error(self):
        volume = Volume.from_grid(np.tile(_loud_head(), (2, 2, 1)), 1e-8)
        kwargs = dict(n_sample=4, seed=0, noise_window=16, roi=ROI)
        want = _error(scalar_select_q, volume, **kwargs)
        assert issubclass(want[0], NumericsError)
        assert _error(select_q, volume, **kwargs) == want


class TestPipelineMatchesScalarLoop:
    @pytest.mark.parametrize("lanes", [None, 4])
    @pytest.mark.parametrize("with_background", [False, True])
    def test_data_is_byte_equal(self, lanes, with_background):
        volume = _silent(_scan(seed=41))
        background = _scan(seed=42) if with_background else None
        want = scalar_denoised_volume(volume, background, 3e-4, 16)
        with _lanes_per_chunk(lanes):
            got = pipeline_denoise(volume, background, 3e-4, noise_window=16)
        assert got.data.tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("q", [-1.0, 0.0, float("nan"), float("inf")])
    def test_bad_q_raises_the_scalar_error_at_the_first_trace(self, q):
        volume = _scan(seed=43)
        want = _error(scalar_denoised_volume, volume, None, q, 16)
        assert want[1].startswith("trace (x=0, y=0): process-noise variance q")
        assert _error(pipeline_denoise, volume, None, q, noise_window=16) == want

    @pytest.mark.parametrize("lanes", [None, 4])
    def test_infinite_r_raises_the_scalar_error(self, lanes):
        volume = _with_traces(_scan(seed=44), {(1, 2): _loud_head(), (2, 0): _loud_head()})
        want = _error(scalar_denoised_volume, volume, None, 3e-4, 16)
        assert want == (
            DataError,
            "trace (x=1, y=2): measurement-noise variance r must be finite and >= 0",
        )
        with _lanes_per_chunk(lanes):
            assert _error(pipeline_denoise, volume, None, 3e-4, noise_window=16) == want

    def test_infinite_background_r_names_the_background_trace(self):
        volume = _scan(seed=45)
        background = _with_traces(_scan(seed=46), {(0, 1): _loud_head()})
        want = _error(scalar_denoised_volume, volume, background, 3e-4, 16)
        assert want[1].startswith("trace (x=0, y=1): measurement-noise")
        with _lanes_per_chunk(4):
            assert _error(pipeline_denoise, volume, background, 3e-4, noise_window=16) == want

    @pytest.mark.parametrize("lanes", [None, 2])
    def test_overflow_before_an_infinite_r_is_the_first_error(self, lanes):
        volume = _with_traces(_scan(seed=47), {(0, 2): _overflowing(), (1, 0): _loud_head()})
        want = _error(scalar_denoised_volume, volume, None, 3e-4, 16)
        assert want[1].startswith("trace (x=0, y=2): trace sample")
        assert want[1].endswith("is not finite")
        with _lanes_per_chunk(lanes):
            assert _error(pipeline_denoise, volume, None, 3e-4, noise_window=16) == want


class TestDefaultCap:
    def test_the_benchmark_shapes_run_as_one_chunk_with_stored_variances(self):
        # The volume pipeline of a 16 x 16 x 1024 scan and its background, and
        # the q sweep of 8 traces of 4096 samples on a 15-point grid.
        assert rts._chunking(512, 1024) == (512, False)
        assert rts._chunking(8 * 15, 4096) == (120, False)

    # The volume pipelines of a 16 x 16 x 1024 scan with its background and of
    # a 32 x 24 x 256 scan narrow their recursion; the q sweeps of 8 traces of
    # 4096 samples and of 4 traces of 1024 samples on a 15-point grid do not.
    @pytest.mark.parametrize(
        "count, n, narrows",
        [(512, 1024, True), (768, 256, True), (120, 4096, False), (60, 1024, False)],
    )
    def test_only_wide_chunks_narrow_their_recursion(self, count, n, narrows):
        # Lanes that settle at step 20, and three that never do.
        unsettled = [5, count // 2, count - 1]
        pairs = [UNSETTLED[0] if i in unsettled else (1.0, 1.0) for i in range(count)]
        rows, qs, rs = _long_lanes(pairs, n)
        assert rts._chunking(count, n) == (count, False)
        spy, (chunk,) = _spied(rows, qs, rs, rts._LANE_BYTES)
        settled = [i for i in range(count) if i not in unsettled]
        assert spy.leaves == ([(127, settled)] if narrows else [])
        with mock.patch.object(rts, "_COMPACT_LANES", count + 1):
            _, (full,) = _spied(rows, qs, rs, rts._LANE_BYTES)
        assert _bits(chunk[1]).tolist() == _bits(full[1]).tolist()
        picked = unsettled + [0, 1]
        _assert_denoised(rows[picked], qs[picked], rs[picked], [(0, chunk[1][:, picked])])


#: (q, r) pairs that lanes cycle through: both settle periods, r = 0 and a
#: lane that never settles.
MIXED = PERIOD_1 + PERIOD_2 + SILENT + UNSETTLED


def _mixed_lanes(count, n, seed=0):
    return _long_lanes((MIXED * count)[:count], n, seed=seed)


class TestTiles:
    """The kernel copies its lanes in, and ``pipeline_denoise`` and
    ``select_q`` copy them out, in tiles of ``rts._TILE`` lanes by
    ``rts._TILE`` steps: lane counts and lengths on both sides of a tile's
    edge, chunks that mix the volume's and the background's lanes, and a
    lane that fails in the middle of a tile."""

    @pytest.mark.parametrize(
        "count, n",
        [(1, 65), (63, 65), (64, 65), (65, 65), (513, 65),
         (65, 1), (65, 2), (65, 63), (65, 1024), (513, 1024)],
    )
    def test_every_lane_matches_denoise_trace_bit_for_bit(self, count, n):
        assert rts._TILE == 64
        rows, qs, rs = _mixed_lanes(count, n, seed=count + n)
        _assert_denoised(rows, qs, rs, _chunks(rows, qs, rs))

    @pytest.mark.parametrize("count, n", [(15, 4096), (7, 65), (70, 130), (1, 1)])
    def test_a_repeated_row_is_copied_as_the_tiles_copy_it(self, count, n):
        # select_q's lanes: one row broadcast over the grid, a first stride of 0.
        row = np.random.default_rng(n).standard_normal(n)
        src = np.broadcast_to(row, (count, n))
        assert src.strides[0] == 0
        got, want = np.empty((n, count)), np.empty((n, count))
        rts._transposed(got, src)
        rts._transposed(want, np.ascontiguousarray(src))
        assert got.tobytes() == want.tobytes() == np.repeat(row[:, None], count, axis=1).tobytes()

    def test_a_lane_that_overflows_mid_tile_raises_its_error_after_the_lanes_before_it(self):
        rows, qs, rs = _mixed_lanes(130, 64)
        rows[70], qs[70], rs[70] = _overflowing()[:64], 3e-4, 1e-6
        chunks = []

        def run():
            for lo, smoothed in _smooth_lanes(np.array_split(rows, 3), qs, rs):
                chunks.append((lo, smoothed.copy()))

        assert _error(run) == _error(denoise_trace, Trace(rows[70], 1e-6), qs[70], rs[70])
        assert [(lo, smoothed.shape) for lo, smoothed in chunks] == [(0, (64, 70))]
        _assert_denoised(rows, qs, rs, chunks)

    @pytest.mark.parametrize("lanes", [None, 70, 130])
    def test_chunks_that_mix_volume_and_background_lanes_are_byte_equal(self, lanes):
        # 100 traces and 100 background traces: one chunk, chunks of 67 (the
        # second holds both kinds, split mid-tile), or chunks of 100.
        volume = _silent(_scan(seed=51, nx=10, ny=10))
        background = _scan(seed=52, nx=10, ny=10)
        want = scalar_denoised_volume(volume, background, 3e-4, 16)
        with _lanes_per_chunk(lanes):
            got = pipeline_denoise(volume, background, 3e-4, noise_window=16)
        assert got.data.tobytes() == np.asarray(want).tobytes()

    def test_background_lines_past_a_subtraction_strip_are_byte_equal(self):
        # pipeline_denoise subtracts the background in strips of _TILE lines
        # by 16 * _TILE steps: 70 traces of 1,100 samples cross both edges.
        rng = np.random.default_rng(58)
        volume = Volume.from_grid(rng.standard_normal((1, 70, 1100)), 1e-6)
        background = Volume.from_grid(rng.standard_normal((1, 70, 1100)) * 0.5, 1e-6)
        want = scalar_denoised_volume(volume, background, 3e-4, 16)
        got = pipeline_denoise(volume, background, 3e-4, noise_window=16)
        assert got.data.tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("lanes", [None, 67])
    @pytest.mark.parametrize(
        "volume_traces, background_traces",
        [
            ({(7, 0): _overflowing(), (9, 5): _loud_head()}, {}),  # lane 70
            ({}, {(2, 0): _overflowing(), (5, 1): _loud_head()}),  # lane 120
            ({(0, 3): _loud_head()}, {(0, 1): _overflowing()}),  # a volume lane first
        ],
    )
    def test_a_pipeline_lane_that_fails_mid_tile_is_the_scalar_error(
        self, lanes, volume_traces, background_traces
    ):
        volume = _with_traces(_scan(seed=53, nx=10, ny=10), volume_traces)
        background = _with_traces(_scan(seed=54, nx=10, ny=10), background_traces)
        want = _error(scalar_denoised_volume, volume, background, 3e-4, 16)
        x, y = min(volume_traces or background_traces)
        assert want[1].startswith(f"trace (x={x}, y={y}): ")
        with _lanes_per_chunk(lanes):
            assert _error(pipeline_denoise, volume, background, 3e-4, noise_window=16) == want

    @pytest.mark.parametrize("lanes", [None, 67])
    @pytest.mark.parametrize(
        "differences, overflowing, named",
        [
            ([(3, 7)], (5, 0), (3, 7)),  # lanes 137 and 150
            ([(3, 7)], (2, 0), (2, 0)),  # lanes 137 and 120
            ([(6, 1), (3, 7)], None, (3, 7)),
        ],
    )
    def test_a_difference_that_overflows_mid_tile_is_checked_in_lane_order(
        self, lanes, differences, overflowing, named
    ):
        # Finite smoothed traces of opposite sign whose difference overflows,
        # and a background lane that the kernel refuses.
        loud = np.full(NT, 1e-3)
        loud[16:] = 1e308
        volume = _with_traces(_scan(seed=55, nx=10, ny=10), {xy: loud for xy in differences})
        backs = {xy: -loud for xy in differences}
        if overflowing is not None:
            backs[overflowing] = _overflowing()
        background = _with_traces(_scan(seed=56, nx=10, ny=10), backs)
        got = _error(pipeline_denoise, volume, background, 3e-4, noise_window=16)
        with _lanes_per_chunk(lanes):
            assert _error(pipeline_denoise, volume, background, 3e-4, noise_window=16) == got
        if named == overflowing:
            assert got == _error(scalar_denoised_volume, volume, background, 3e-4, 16)
        else:
            assert got == (DataError, f"trace (x={named[0]}, y={named[1]}): "
                                      "trace sample 16 is not finite")

    @pytest.mark.parametrize("block", [None, 7, 64])
    @pytest.mark.parametrize("kind", ["silent", "loud head", "overflowing", "huge envelope"])
    def test_a_sweep_lane_that_fails_mid_tile_is_the_scalar_error(self, block, kind):
        # 9 sampled traces on the 15-point derived grid: the fifth trace's
        # lanes are 60 to 74, across the first tile's edge.
        volume = _scan(seed=57, nx=4, ny=4)
        kwargs = dict(n_sample=9, seed=6, noise_window=16, roi=ROI)
        fifth = np.random.default_rng(6).choice(16, size=9, replace=False)[4]
        huge = np.full(NT, 1e306)
        huge[:16] = 1e-3
        samples = {"silent": np.zeros(NT), "loud head": _loud_head(),
                   "overflowing": _overflowing(), "huge envelope": huge}[kind]
        volume = _with_traces(volume, {divmod(int(fifth), 4): samples})
        scoring = contextlib.nullcontext()
        if block is not None:
            scoring = mock.patch.object(metrics, "_ENVELOPE_SAMPLES", block * NT)
        with np.errstate(over="ignore", invalid="ignore"):  # the oracle's huge envelope
            want = _outcome(scalar_select_q, volume, **kwargs)
        with scoring:
            assert _outcome(select_q, volume, **kwargs) == want
        if kind == "silent":
            assert want[0] == "report" and "inf" in want[1]
        else:
            x, y = divmod(int(fifth), 4)
            assert want[0] == "DataError" and want[1].startswith(f"trace (x={x}, y={y}): ")


def _outcome(fn, *args, **kwargs):
    """The fields of ``fn``'s report, or the name and message of its error."""
    try:
        return "report", _report_fields(fn(*args, **kwargs))
    except (DataError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


class TestMemory:
    def test_pipeline_peak_is_the_output_and_the_kernel_workspace(self):
        # A cap that holds the volume's and the background's lanes with their
        # variances exactly: one chunk, whose workspace fills the cap.  The
        # bound is the output, the lanes' means and variances and a slack, a
        # quarter of the output, that covers the kernel's scratch and per-lane
        # vectors and numpy's buffers for the subtraction.
        volume, background = _scan(seed=58, nx=32, ny=32), _scan(seed=59, nx=32, ny=32)
        lanes = 2 * 32 * 32
        with _cap(lanes * _stored_lane_bytes(NT)):
            assert rts._chunking(lanes, NT) == (lanes, False)
            tracemalloc.start()
            try:
                pipeline_denoise(volume, background, 3e-4, noise_window=16)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            slack = volume.data.nbytes // 4
            assert peak <= volume.data.nbytes + lanes * 2 * 8 * NT + slack
