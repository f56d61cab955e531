import io
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csv_reference import reference_read_stream_csv
from dense_reference import dense_g2_zero, dense_window_scan, peak_shifts
from ionphoton import photonstats
from ionphoton.errors import InsufficientDataError, StreamFormatError, ValidationError
from ionphoton.photonstats import (
    _READ_CHUNK,
    _RECORD_DTYPE,
    _GateClicks,
    ClickStream,
    ExperimentTiming,
    SourceModel,
    coincidence_histogram,
    expected_g2,
    g2_from_counts,
    g2_window_scan,
    g2_zero,
    read_stream,
    read_stream_binary,
    read_stream_csv,
    simulate_stream,
    write_stream_binary,
    write_stream_csv,
)

TIMING = ExperimentTiming()  # 26 us period, 200 ns gate


def quiet_model(**kw):
    defaults = dict(p_emit=1.0, p_double=0.0, tau_e=10_000.0, eta=1.0)
    defaults.update(kw)
    return SourceModel(**defaults)


class TestSimulateStream:
    def test_deterministic_for_fixed_seed(self):
        model = quiet_model(p_emit=0.5, p_double=0.1, eta=0.8, dark_rate=100.0, leakage_rate=50.0)
        a = simulate_stream(model, TIMING, 20_000, seed=42)
        b = simulate_stream(model, TIMING, 20_000, seed=42)
        assert a == b
        c = simulate_stream(model, TIMING, 20_000, seed=43)
        assert a != c

    def test_dead_source_gives_empty_stream(self):
        stream = simulate_stream(quiet_model(eta=0.0), TIMING, 5_000, seed=1)
        assert len(stream) == 0

    def test_unit_efficiency_single_photon_gives_one_click_per_gate(self):
        stream = simulate_stream(quiet_model(), TIMING, 3_000, seed=7)
        assert len(stream) == 3_000
        trial = stream.times // TIMING.rep_period
        assert np.array_equal(np.unique(trial), np.arange(3_000))
        pos = stream.times - trial * TIMING.rep_period
        assert pos.min() >= 0 and pos.max() < TIMING.gate_width

    def test_emission_delay_is_exponential(self):
        stream = simulate_stream(quiet_model(), TIMING, 50_000, seed=11)
        pos = (stream.times % TIMING.rep_period).astype(float)
        # mean of a gate-truncated exponential, tau << gate so truncation is negligible
        se = stream.times.size ** -0.5 * 10_000.0
        assert abs(pos.mean() - 10_000.0) < 3 * se

    def test_validates_model(self):
        with pytest.raises(ValidationError):
            SourceModel(p_emit=0.1, p_double=0.2)
        with pytest.raises(ValidationError):
            SourceModel(eta=1.5)
        with pytest.raises(ValidationError):
            simulate_stream(quiet_model(), TIMING, 0, seed=1)

    def test_dead_time_hook_prunes_same_channel_clicks(self):
        model = quiet_model(p_emit=1.0, p_double=1.0, dead_time=TIMING.gate_width)
        stream = simulate_stream(model, TIMING, 2_000, seed=3)
        trial = stream.times // TIMING.rep_period
        for t in (0, 1, 2):
            ch = stream.channels[trial == t]
            assert np.unique(ch).size == ch.size  # at most one click per channel per gate


class TestTimingValidation:
    def test_gate_must_fit_in_period(self):
        with pytest.raises(ValidationError):
            ExperimentTiming(rep_period=1000, gate_width=1000)
        with pytest.raises(ValidationError):
            ExperimentTiming(gate_offset=-5)


class TestCoincidenceHistogram:
    def test_single_photon_stream_has_empty_zero_peak(self):
        stream = simulate_stream(quiet_model(), TIMING, 20_000, seed=5)
        hist = coincidence_histogram(stream, TIMING, bin_width=1_000, max_delay=5 * TIMING.rep_period)
        near_zero = np.abs(hist.tau) <= TIMING.gate_width
        assert hist.counts[near_zero].sum() == 0

    def test_side_peaks_present_and_balanced(self):
        # only peaks fully inside the +-max_delay span; the outermost pair is
        # truncated by construction
        stream = simulate_stream(quiet_model(), TIMING, 20_000, seed=5)
        hist = coincidence_histogram(stream, TIMING, bin_width=1_000, max_delay=5 * TIMING.rep_period)
        peak_sums = []
        for k in (-4, -3, -2, -1, 1, 2, 3, 4):
            sel = np.abs(hist.tau - k * TIMING.rep_period) <= TIMING.gate_width
            peak_sums.append(hist.counts[sel].sum())
        peak_sums = np.array(peak_sums, dtype=float)
        assert np.all(peak_sums > 0)
        spread = np.abs(peak_sums - peak_sums.mean())
        assert np.all(spread <= 3 * np.sqrt(peak_sums.mean()) + 3)

    def test_total_counts_equal_qualifying_pairs(self):
        model = quiet_model(p_emit=0.8, p_double=0.3, eta=0.9)
        stream = simulate_stream(model, TIMING, 5_000, seed=9)
        max_delay = 5 * TIMING.rep_period
        hist = coincidence_histogram(stream, TIMING, bin_width=500, max_delay=max_delay)
        t0 = stream.times[stream.channels == 0].astype(np.int64)
        t1 = stream.times[stream.channels == 1].astype(np.int64)
        brute = sum(int(np.sum(np.abs(t1 - t) <= max_delay)) for t in t0)
        assert hist.n_pairs == brute

    def test_rejects_bad_delay_spans(self):
        stream = simulate_stream(quiet_model(), TIMING, 100, seed=2)
        with pytest.raises(ValidationError):
            coincidence_histogram(stream, TIMING, 1_000, 3 * TIMING.rep_period)
        with pytest.raises(ValidationError):
            coincidence_histogram(stream, TIMING, 1_000, 5 * TIMING.rep_period + 1)
        with pytest.raises(ValidationError):
            coincidence_histogram(stream, TIMING, 999, 5 * TIMING.rep_period)

    def test_rejects_unsorted_stream(self):
        with pytest.raises(StreamFormatError):
            ClickStream(np.array([100, 50]), np.array([0, 1]))


class TestG2Arithmetic:
    def test_replicates_published_counting(self):
        res = g2_from_counts(12, 149_145.0, window=30_000)
        assert res.g2 == pytest.approx(8.05e-5, rel=0.01)
        assert abs(res.g2 - 8.1e-5) / 8.1e-5 < 0.05
        assert res.sigma == pytest.approx(2.3e-5, rel=0.2)

    def test_zero_counts_take_one_count_bound(self):
        res = g2_from_counts(0, 1000.0)
        assert res.g2 == 0.0
        assert res.sigma == pytest.approx(1 / 1000.0, rel=1e-9)

    def test_empty_normalization_is_an_error(self):
        with pytest.raises(InsufficientDataError):
            g2_from_counts(3, 0.0)


class TestG2Zero:
    def test_matches_closed_form_expectation(self):
        model = quiet_model(p_emit=0.5, p_double=0.05, eta=0.8)
        n_trials = 200_000
        stream = simulate_stream(model, TIMING, n_trials, seed=31)
        res = g2_zero(stream, TIMING, window=30_000)
        exp = expected_g2(model, TIMING, 30_000, n_trials)
        assert abs(res.g2 - exp.g2) <= 2 * res.sigma

    def test_seed_ensemble_covers_expectation(self):
        model = quiet_model(p_emit=0.5, p_double=0.05, eta=0.8)
        n_trials = 60_000
        exp = expected_g2(model, TIMING, 30_000, n_trials)
        hits = 0
        for seed in range(20):
            stream = simulate_stream(model, TIMING, n_trials, seed=100 + seed)
            res = g2_zero(stream, TIMING, window=30_000)
            if abs(res.g2 - exp.g2) <= 2 * res.sigma:
                hits += 1
        assert hits >= 17

    def test_dark_count_floor_reproduced(self):
        # dark rate solved so the closed-form floor sits at 3e-5
        floor = 3e-5
        s = 0.5 * 0.8 * (1 - math.exp(-3.0))
        d = s * (math.sqrt(1.0 / (1.0 - floor)) - 1.0) / 2.0
        dark_rate = d / (30_000e-12)
        model = quiet_model(p_emit=0.5, p_double=0.0, eta=0.8, dark_rate=dark_rate)
        n_trials = 1_000_000
        exp = expected_g2(model, TIMING, 30_000, n_trials)
        assert exp.g2 == pytest.approx(floor, rel=1e-3)
        stream = simulate_stream(model, TIMING, n_trials, seed=77)
        res = g2_zero(stream, TIMING, window=30_000)
        assert abs(res.g2 - floor) <= 2 * res.sigma

    def test_perfect_source_has_zero_coincidences(self):
        stream = simulate_stream(quiet_model(), TIMING, 30_000, seed=13)
        res = g2_zero(stream, TIMING, window=200_000)
        assert res.n_zero == 0
        assert res.g2 == 0.0

    def test_insufficient_data(self):
        stream = ClickStream(np.array([10, 20]), np.array([0, 0]))
        with pytest.raises(InsufficientDataError):
            g2_zero(stream, TIMING, window=200_000)

    def test_window_validation(self):
        stream = simulate_stream(quiet_model(), TIMING, 100, seed=1)
        with pytest.raises(ValidationError):
            g2_zero(stream, TIMING, window=TIMING.gate_width + 1)
        with pytest.raises(ValidationError):
            g2_zero(stream, TIMING, window=30_000, n_norm_peaks=1)


class TestWindowScan:
    def test_full_gate_collects_everything(self):
        stream = simulate_stream(quiet_model(p_emit=0.9), TIMING, 20_000, seed=19)
        points = g2_window_scan(stream, TIMING, [30_000, 100_000, TIMING.gate_width])
        assert points[-1].collected_fraction == pytest.approx(1.0, abs=1e-12)

    def test_collected_fraction_tracks_exponential(self):
        stream = simulate_stream(quiet_model(), TIMING, 40_000, seed=23)
        windows = [5_000, 10_000, 30_000]
        points = g2_window_scan(stream, TIMING, windows)
        n = len(stream)
        for w, p in zip(windows, points):
            expect = 1.0 - math.exp(-w / 10_000.0)
            se = math.sqrt(expect * (1 - expect) / n)
            assert abs(p.collected_fraction - expect) <= 3 * se + 1e-9

    def test_background_dominated_g2_grows_with_window(self):
        model = quiet_model(p_emit=0.5, eta=0.8, dark_rate=30_000.0)
        n_trials = 300_000
        assert (
            expected_g2(model, TIMING, 100_000, n_trials).g2
            > expected_g2(model, TIMING, 10_000, n_trials).g2
        )
        stream = simulate_stream(model, TIMING, n_trials, seed=29)
        points = g2_window_scan(stream, TIMING, [10_000, 100_000])
        assert points[1].result.g2 > points[0].result.g2

    def test_rejects_non_increasing_grid(self):
        stream = simulate_stream(quiet_model(), TIMING, 100, seed=1)
        with pytest.raises(ValidationError):
            g2_window_scan(stream, TIMING, [30_000, 30_000])


def _sorted_stream(times, channels) -> ClickStream:
    times = np.asarray(times, np.int64)
    channels = np.asarray(channels, np.int64)
    order = np.lexsort((channels, times))
    return ClickStream(times[order], channels[order])


def _outcome(fn, *args, **kwargs):
    """A function's result, or the type and message of the InsufficientDataError it raised."""
    try:
        return fn(*args, **kwargs)
    except InsufficientDataError as exc:
        return ("InsufficientDataError", str(exc))


@st.composite
def gated_streams(draw):
    """Small sorted streams with a late gate; clicks also fall before and after it."""
    rep_period = 1_000
    gate_offset = draw(st.integers(1, 400))
    gate_width = draw(st.integers(1, rep_period - gate_offset))
    timing = ExperimentTiming(
        rep_period=rep_period, gate_offset=gate_offset, gate_width=gate_width, pulse_duration=1
    )
    n_trials = draw(st.integers(1, 12))
    in_gate = st.integers(gate_offset, gate_offset + gate_width - 1)
    anywhere = st.integers(0, rep_period - 1)
    records = draw(
        st.lists(
            st.tuples(st.integers(0, n_trials - 1), st.one_of(in_gate, anywhere), st.integers(0, 1)),
            max_size=40,
        )
    )
    stream = _sorted_stream(
        [t * rep_period + pos for t, pos, _ in records], [c for _, _, c in records]
    )
    windows = sorted(draw(st.sets(st.integers(1, gate_width), min_size=1, max_size=5)))
    n_norm_peaks = draw(st.integers(2, 7))
    return stream, timing, windows, n_norm_peaks


class TestSparseCountingAgainstDenseReference:
    @given(gated_streams())
    @settings(max_examples=300, deadline=None)
    def test_g2_zero_and_scan_equal_dense_reference(self, case):
        stream, timing, windows, n_peaks = case
        for w in windows:
            assert _outcome(g2_zero, stream, timing, w, n_norm_peaks=n_peaks) == _outcome(
                dense_g2_zero, stream, timing, w, n_norm_peaks=n_peaks
            )
        assert _outcome(g2_window_scan, stream, timing, windows, n_norm_peaks=n_peaks) == _outcome(
            dense_window_scan, stream, timing, windows, n_norm_peaks=n_peaks
        )

    @given(gated_streams())
    @settings(max_examples=100, deadline=None)
    def test_channel_swap_maps_peak_plus_k_to_minus_k(self, case):
        stream, timing, windows, n_peaks = case
        swapped = _sorted_stream(stream.times, 1 - stream.channels.astype(np.int64))
        max_shift = (n_peaks + 1) // 2
        clicks, swapped_clicks = _GateClicks(stream, timing, max_shift), _GateClicks(swapped, timing, max_shift)
        by_k = dict(zip(peak_shifts(n_peaks), clicks.peaks(*clicks.counts(windows[-1]), n_peaks)))
        swapped_by_k = dict(
            zip(peak_shifts(n_peaks), swapped_clicks.peaks(*swapped_clicks.counts(windows[-1]), n_peaks))
        )
        for k in by_k:
            if -k in by_k:
                assert swapped_by_k[k] == by_k[-k]

    def test_clicks_outside_the_gate_leave_both_sides_without_data(self):
        timing = ExperimentTiming(rep_period=1_000, gate_offset=300, gate_width=200, pulse_duration=1)
        # every click lands before the gate offset or at or after the gate end
        stream = _sorted_stream([0, 299, 1_000 + 500, 1_000 + 999, 2_100, 2_700], [0, 1, 0, 1, 1, 0])
        for fn in (g2_zero, dense_g2_zero):
            with pytest.raises(InsufficientDataError, match="nearest 4 peaks"):
                fn(stream, timing, 200)

    def test_memory_stays_flat_for_late_trial_indices(self):
        # ten clicks in clusters of adjacent trials, the last at trial 1e11: a
        # per-trial array over all trials would need about 800 GB
        trials = [0, 1, 2, 10**9, 10**9 + 1, 5 * 10**10, 5 * 10**10 + 1, 10**11 - 2, 10**11 - 1, 10**11]
        channels = [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
        stream = _sorted_stream([t * TIMING.rep_period + 1_000 for t in trials], channels)
        # the same clusters moved close together, gaps still wider than every peak shift
        compact_trials = [0, 1, 2, 10, 11, 20, 21, 30, 31, 32]
        compact = _sorted_stream([t * TIMING.rep_period + 1_000 for t in compact_trials], channels)
        windows = [30_000, TIMING.gate_width]
        tracemalloc.start()
        try:
            result = g2_zero(stream, TIMING, 30_000)
            scan = g2_window_scan(stream, TIMING, windows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert result == dense_g2_zero(compact, TIMING, 30_000)
        assert scan == dense_window_scan(compact, TIMING, windows)

    def test_gate_positions_beyond_int32_equal_dense_reference(self):
        # gate positions are kept as int32 only while the gate is shorter than 2**31 ps
        timing = ExperimentTiming(rep_period=2**33, gate_offset=2**20, gate_width=2**32, pulse_duration=1)
        trials = [0, 0, 1, 1, 2, 3, 3, 4, 5, 6]
        offsets = [5, 2**31 + 7, 3, 2**32 - 1, 2**31, 1, 2**31 + 1, 9, 2**31 - 2, 2**32 - 5]
        channels = [0, 1, 1, 0, 0, 0, 1, 1, 0, 1]
        stream = _sorted_stream(
            [t * timing.rep_period + timing.gate_offset + o for t, o in zip(trials, offsets)], channels
        )
        windows = [2**31 - 1, 2**31 + 2, 2**31 + 8, 2**32]
        for w in windows:
            assert g2_zero(stream, timing, w, n_norm_peaks=2) == dense_g2_zero(stream, timing, w, n_norm_peaks=2)
        assert g2_window_scan(stream, timing, windows, 2) == dense_window_scan(stream, timing, windows, 2)


stream_records = st.lists(
    st.tuples(st.integers(0, 10_000_000), st.integers(0, 1)), min_size=0, max_size=200
)


class TestStreamFiles:
    @given(stream_records)
    @settings(max_examples=50, deadline=None)
    def test_binary_roundtrip_bit_exact(self, records):
        records.sort()
        times = np.array([t for t, _ in records], dtype=np.int64)
        channels = np.array([c for _, c in records], dtype=np.int64)
        stream = ClickStream(times, channels)
        import tempfile, os

        fd, path = tempfile.mkstemp()
        os.close(fd)
        try:
            write_stream_binary(stream, path)
            assert read_stream_binary(path) == stream
            assert read_stream(path) == stream
        finally:
            os.unlink(path)

    def test_csv_writers_match_per_row_formatting(self, tmp_path):
        # more clicks than one block of rows per write
        stream = simulate_stream(quiet_model(p_emit=0.9, p_double=0.3), TIMING, 70_000, seed=4)
        assert len(stream) > 65_536
        path = tmp_path / "clicks.csv"
        write_stream_csv(stream, path)
        rows = "".join(f"{c},{t}\n" for c, t in zip(stream.channels, stream.times))
        assert path.read_text() == "channel,time_ps\n" + rows
        hist = coincidence_histogram(stream, TIMING, bin_width=1_000, max_delay=5 * TIMING.rep_period)
        out = io.StringIO()
        hist.write_csv(out)
        rows = "".join(f"{t},{c}\n" for t, c in zip(hist.tau, hist.counts))
        assert out.getvalue() == "tau_ps,count\n" + rows

    def test_csv_roundtrip(self, tmp_path):
        stream = simulate_stream(quiet_model(p_emit=0.7), TIMING, 500, seed=3)
        path = tmp_path / "clicks.csv"
        write_stream_csv(stream, path)
        assert read_stream_csv(path) == stream
        assert read_stream(path) == stream

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "clicks.ipw"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 8)
        with pytest.raises(StreamFormatError, match="bad magic"):
            read_stream_binary(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "clicks.ipw"
        path.write_bytes(b"IPW")
        with pytest.raises(StreamFormatError, match="truncated"):
            read_stream_binary(path)

    def test_record_count_mismatch_rejected(self, tmp_path):
        stream = ClickStream(np.array([1, 2]), np.array([0, 1]))
        path = tmp_path / "clicks.ipw"
        write_stream_binary(stream, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])  # drop one record
        with pytest.raises(StreamFormatError, match="promises"):
            read_stream_binary(path)

    def test_unsorted_file_rejected_with_position(self, tmp_path):
        path = tmp_path / "clicks.csv"
        path.write_text("channel,time_ps\n0,100\n1,50\n")
        with pytest.raises(StreamFormatError, match="record 1"):
            read_stream_csv(path)

    def test_bad_channel_rejected(self, tmp_path):
        path = tmp_path / "clicks.csv"
        path.write_text("channel,time_ps\n3,100\n")
        with pytest.raises(StreamFormatError, match="channel 3"):
            read_stream_csv(path)

    def test_nonzero_reserved_rejected(self, tmp_path):
        stream = ClickStream(np.array([1]), np.array([0]))
        path = tmp_path / "clicks.ipw"
        write_stream_binary(stream, path)
        data = bytearray(path.read_bytes())
        data[-1] = 7  # poke the reserved field of the last record
        path.write_bytes(bytes(data))
        with pytest.raises(StreamFormatError, match="reserved"):
            read_stream_binary(path)

    def test_binary_reader_holds_the_final_arrays_plus_one_chunk(self, tmp_path):
        stream = simulate_stream(quiet_model(p_emit=0.9, p_double=0.3), TIMING, 200_000, seed=8)
        path = tmp_path / "clicks.ipw"
        write_stream_binary(stream, path)
        assert len(stream) > 3 * _READ_CHUNK
        tracemalloc.start()
        try:
            loaded = read_stream_binary(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded == stream
        final = loaded.times.nbytes + loaded.channels.nbytes
        assert peak <= 2 * final + _READ_CHUNK * _RECORD_DTYPE.itemsize

    def test_reserved_field_reported_at_its_record_past_the_first_chunk(self, tmp_path):
        n = _READ_CHUNK + 10
        stream = ClickStream(np.arange(n), np.zeros(n))
        path = tmp_path / "clicks.ipw"
        write_stream_binary(stream, path)
        data = bytearray(path.read_bytes())
        data[16 + (n - 3) * _RECORD_DTYPE.itemsize + 12] = 1  # reserved field of record n - 3
        path.write_bytes(bytes(data))
        with pytest.raises(StreamFormatError, match=f"record {n - 3}: reserved field nonzero"):
            read_stream_binary(path)

    def test_time_outside_int64_names_path_and_line(self, tmp_path):
        path = tmp_path / "clicks.csv"
        path.write_text("channel,time_ps\n0,5\n1,99999999999999999999\n")
        with pytest.raises(StreamFormatError) as info:
            read_stream_csv(path)
        assert str(info.value) == (
            f"{path}: line 3: value outside int64 in record '1,99999999999999999999'"
        )

    def test_negative_channel_reported_as_written(self, tmp_path):
        path = tmp_path / "clicks.csv"
        path.write_text("channel,time_ps\n-1,100\n")
        with pytest.raises(StreamFormatError) as info:
            read_stream_csv(path)
        assert str(info.value) == f"{path}: record 0: channel -1 not in {{0, 1}}"

    def test_writer_format_parses_without_the_per_line_reader(self, tmp_path, monkeypatch):
        stream = simulate_stream(quiet_model(p_emit=0.7), TIMING, 500, seed=3)
        path = tmp_path / "clicks.csv"
        write_stream_csv(stream, path)
        # padded fields, "+" signs, CRLF and blank lines are plain integer rows too
        padded = tmp_path / "padded.csv"
        padded.write_bytes(b"channel,time_ps\r\n +0 , 7\r\n\r\n1,\t+9\r\n")

        def per_line_reader(path):
            raise AssertionError(f"{path} took the per-line reader")

        monkeypatch.setattr(photonstats, "_read_csv_lines", per_line_reader)
        assert read_stream_csv(path) == stream
        assert read_stream_csv(padded) == ClickStream([7, 9], [0, 1])


@st.composite
def csv_stream_files(draw) -> bytes:
    """CSV streams in every layout the per-line reader accepts, a third of them with one bad row.

    Fields may be padded and signed; blank, "#" and header lines may sit
    anywhere; the header may be missing or misplaced; lines end in LF or CRLF.
    """
    records = draw(
        st.lists(
            st.tuples(st.one_of(st.integers(0, 10**6), st.integers(-5, 2**63 - 1)), st.sampled_from([0, 1])),
            max_size=25,
        )
    )
    if draw(st.integers(0, 4)):
        records.sort()
    if records and draw(st.integers(0, 5)) == 0:
        records[draw(st.integers(0, len(records) - 1))] = (records[-1][0], draw(st.sampled_from([2, -1])))
    pad = st.sampled_from(["", "", "", " ", "\t"])
    sign = st.sampled_from(["", "", "+"])
    lines = [
        f"{draw(pad)}{draw(sign)}{c}{draw(pad)},{draw(pad)}{draw(sign)}{t}{draw(pad)}".replace("+-", "-")
        for t, c in records
    ]
    if lines and draw(st.integers(0, 2)) == 0:
        i = draw(st.integers(0, len(lines) - 1))
        t, c = records[i]
        bad_rows = [f"{c},{t}.0", f"{c}.5,{t}", f"{c},{hex(t)}", f"{c},{t:e}", f"{c},", f",{t}",
                    f"{c},{t},0", f"{c}", ",", f"{c};{t}", f"{c},{t} # note"]
        lines[i] = draw(st.sampled_from(bad_rows))
    if draw(st.integers(0, 3)) == 0:
        for _ in range(draw(st.integers(1, 3))):
            extra = ["", "  ", "# comment", "  #x,1", "channel,time_ps", " channel,time_ps "]
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(extra)))
    header = draw(st.sampled_from(["first"] * 4 + ["none", "padded", "misplaced"]))
    if header == "first":
        lines.insert(0, "channel,time_ps")
    elif header == "padded":
        lines.insert(0, "  channel,time_ps\t")
    elif header == "misplaced":
        lines.insert(draw(st.integers(0, len(lines))), "channel,time_ps")
        lines.insert(0, "# stream")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return (eol.join(lines) + draw(st.sampled_from([eol, ""]))).encode()


def _read_outcome(reader, path):
    try:
        stream = reader(path)
    except StreamFormatError as exc:
        return "error", str(exc)
    return "stream", stream.times.tolist(), stream.channels.tolist()


class TestCsvReaderOracle:
    @given(csv_stream_files())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_line_reference(self, content):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "clicks.csv")
            with open(path, "wb") as fh:
                fh.write(content)
            assert _read_outcome(read_stream_csv, path) == _read_outcome(reference_read_stream_csv, path)
