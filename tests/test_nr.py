import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from uavloc.channel import RngStream
from uavloc.errors import DelayOutOfWindow, EmptyCir, InvalidParam
from uavloc.model import ToaNoiseModel
from uavloc.nrtiming import (CIR_LEN, TC, NrConfig, coarse_rtt,
                             drift_offset, estimate_toa_nr, srs_refine, synth_cir,
                             ta_from_rtt, ta_unit)

F_S = 61.44e6


def rational_ta_unit(mu):
    """Exact TA unit via rational arithmetic: 16*64 / (480e3*4096*2^mu)."""
    return Fraction(16 * 64, 480_000 * 4096 * 2 ** mu)


# --- coarse_rtt / ta_from_rtt ---

def test_tc_value():
    assert TC == pytest.approx(1 / 1.96608e9, rel=1e-15)


def test_coarse_rtt_zero():
    for mu in range(6):
        assert coarse_rtt(0, mu) == 0.0
    with pytest.raises(ValueError):
        coarse_rtt(-1, 1)


def test_coarse_rtt_exact_rational():
    for mu in range(6):
        for ta in (1, 4, 100, 3846):
            expected = float(ta * rational_ta_unit(mu))
            assert coarse_rtt(ta, mu) == pytest.approx(expected, rel=1e-15)
    assert coarse_rtt(1, 1) == pytest.approx(2.60417e-7, rel=1e-5)
    assert coarse_rtt(4, 1) == pytest.approx(1.04167e-6, rel=1e-5)


def test_coarse_rtt_linear_and_mu_halving():
    for mu in range(5):
        assert coarse_rtt(6, mu) == pytest.approx(6 * coarse_rtt(1, mu), rel=1e-15)
        assert coarse_rtt(1, mu + 1) == pytest.approx(coarse_rtt(1, mu) / 2, rel=1e-15)


def test_invalid_numerology():
    # a numerology is an input, refused as one (exit 2), not a numeric failure
    with pytest.raises(InvalidParam) as exc:
        coarse_rtt(1, 6)
    assert exc.value.field == "numerology"
    with pytest.raises(InvalidParam) as exc:
        ta_from_rtt(1e-7, -1)
    assert exc.value.field == "numerology"


def test_ta_from_rtt_examples():
    assert ta_from_rtt(0.0, 3) == 0
    assert ta_from_rtt(2.60417e-7, 1) == 1
    # 3.9e-7 / unit = 1.4976 -> rounds to 1
    assert 3.9e-7 / float(rational_ta_unit(1)) == pytest.approx(1.4976, rel=1e-4)
    assert ta_from_rtt(3.9e-7, 1) == 1


def test_ta_roundtrip_within_half_unit():
    rng = np.random.default_rng(0)
    for mu in range(6):
        unit = ta_unit(mu)
        for rtt in rng.uniform(0, 5e-6, 50):
            back = coarse_rtt(ta_from_rtt(rtt, mu), mu)
            assert abs(back - rtt) <= unit / 2 * (1 + 1e-12)


def test_ta_from_rtt_over_an_array_equals_python_round():
    for mu in (0, 3):
        unit = ta_unit(mu)
        # exact half units, where rounding goes to even, and random round trips
        rtts = np.concatenate([(np.arange(20) + 0.5) * unit,
                               np.random.default_rng(mu).uniform(0, 5e-6, 50)])
        assert ((rtts[:20] / unit) % 1 == 0.5).all()
        got = ta_from_rtt(rtts, mu)
        np.testing.assert_array_equal(got, [round(r / unit) for r in rtts])
        np.testing.assert_array_equal(got, [ta_from_rtt(float(r), mu) for r in rtts])
    assert isinstance(ta_from_rtt(2.5 * ta_unit(1), 1), int)
    assert ta_from_rtt(2.5 * ta_unit(1), 1) == 2
    assert ta_from_rtt(np.array([]), 1).shape == (0,)
    with pytest.raises(ValueError):
        ta_from_rtt(np.array([1e-7, -1e-9]), 1)


@pytest.mark.parametrize("form", ["scalar", "array"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_ta_from_rtt_refuses_a_non_finite_rtt(bad, form):
    rtt = bad if form == "scalar" else np.array([1e-7, bad, 2e-7])
    with pytest.raises(ValueError, match="^rtt must be finite and >= 0$"):
        ta_from_rtt(rtt, 1)


# --- synth_cir / srs_refine ---

def test_cir_peak_at_zero():
    cir = synth_cir(0.0, NrConfig(f_s=F_S), RngStream(0))
    assert int(np.argmax(cir)) == 0


def test_cir_peak_index_arithmetic():
    # 100 ns * 61.44 MHz = 6.144 -> index 6
    cir = synth_cir(100e-9, NrConfig(f_s=F_S), RngStream(0))
    assert int(np.argmax(cir)) == 6
    # 97.65625 ns is exactly 6 samples
    assert 97.65625e-9 * F_S == 6.0
    cir = synth_cir(97.65625e-9, NrConfig(f_s=F_S), RngStream(1))
    assert int(np.argmax(cir)) == 6


def test_cir_noise_floor_below_peak():
    for seed in range(10):
        cir = synth_cir(50e-9, NrConfig(f_s=F_S), RngStream(seed))
        peak = int(np.argmax(cir))
        rest = np.delete(cir, peak)
        assert cir[peak] > rest.max()


def test_cir_out_of_window():
    cfg = NrConfig(f_s=F_S)
    with pytest.raises(DelayOutOfWindow):
        synth_cir(CIR_LEN / F_S, cfg, RngStream(0))
    with pytest.raises(DelayOutOfWindow):
        synth_cir(-1e-9, cfg, RngStream(0))


def test_srs_refine_single_sample():
    assert srs_refine([1.0], F_S) == 0.0


def test_srs_refine_peak_index_six():
    cir = np.zeros(32)
    cir[6] = 1.0
    assert srs_refine(cir, F_S) == pytest.approx(9.765625e-8, rel=1e-15)


def test_srs_refine_tie_to_smallest_index():
    assert srs_refine(np.ones(16), F_S) == 0.0


def test_srs_refine_empty():
    with pytest.raises(EmptyCir):
        srs_refine([], F_S)


# --- drift_offset ---

def ramp(rate, period):
    """A noise model that carries only a drift ramp."""
    return ToaNoiseModel(drift_rate=rate, drift_reset_period=period)


def test_drift_fresh_correction():
    assert drift_offset(1, ramp(1e-9, 5)) == 0.0
    with pytest.raises(ValueError):
        drift_offset(0, ramp(1e-9, 5))


def test_drift_ramp_and_reset():
    d = ramp(1e-9, 5)
    assert drift_offset(4, d) == pytest.approx(3e-9, rel=1e-15)
    assert drift_offset(6, d) == 0.0


def test_drift_periodic_nonnegative():
    d = ramp(2e-9, 7)
    vals = [drift_offset(n, d) for n in range(1, 50)]
    assert all(v >= 0 for v in vals)
    for n in range(1, 40):
        assert drift_offset(n, d) == drift_offset(n + 7, d)


@pytest.mark.parametrize("field, kwargs", [
    ("reset_period", {"drift_reset_period": 0}),     # divided by zero in drift_offset
    ("reset_period", {"drift_reset_period": -3}),    # a silent 0 offset
    ("reset_period", {"drift_reset_period": 2.5}),
    ("reset_period", {"drift_reset_period": True}),
    ("rate", {"drift_rate": float("nan")}),          # NaN offsets
    ("rate", {"drift_rate": float("inf")}),
    ("rate", {"drift_rate": -1e-9}),
    ("rate", {"drift_rate": "1e-9"}),
    ("rate", {"drift_rate": 1e300}),                 # a range C offset / 2 beyond LENGTH_MAX
])
def test_sawtooth_drift_refuses_settings_that_break_its_offset(field, kwargs):
    # the noise model is not validated on construction; drift_offset refuses
    # what validate_scenario refuses, under the same field names, and warns
    # of nothing
    noise = ToaNoiseModel(**{"drift_rate": 1e-9, "drift_reset_period": 5, **kwargs})
    with pytest.raises(InvalidParam) as exc, warnings.catch_warnings():
        warnings.simplefilter("error")
        drift_offset(np.arange(1, 4), noise)
    assert exc.value.field == f"toa_noise.drift_{field}"


def test_drift_offset_of_steps_is_each_steps_offset():
    d = ramp(2.5e-9, 7)
    steps = np.arange(1, 60, dtype=np.int64)
    got = drift_offset(steps, d)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, [drift_offset(int(n), d) for n in steps])
    with pytest.raises(ValueError, match="^step must be >= 1$"):
        drift_offset(np.array([3, 0, 5]), d)


# --- estimate_toa_nr ---

def test_estimate_zero_delay():
    cfg = NrConfig(mu=1, f_s=F_S)
    assert estimate_toa_nr(0.0, cfg, 0.0) == 0.0


def test_estimate_50m_quantization_bound():
    cfg = NrConfig(mu=1, f_s=F_S)
    true = 166.782e-9
    est = estimate_toa_nr(true, cfg, 0.0)
    assert abs(est - true) <= (1 / F_S) / 4 + 1e-15  # = 4.07 ns


def test_estimate_drift_shift():
    cfg = NrConfig(mu=1, f_s=F_S)
    true = 300e-9
    base = estimate_toa_nr(true, cfg, 0.0)
    shifted = estimate_toa_nr(true, cfg, 100e-9)
    assert shifted - base == pytest.approx(50e-9, abs=(1 / F_S) / 2)


def test_quantization_bound_dense_grid():
    for mu in (0, 1):
        cfg = NrConfig(mu=mu, f_s=F_S)
        grid = np.linspace(0.0, 2e-6, 2000)
        errs = [abs(estimate_toa_nr(t, cfg, 0.0) - t) for t in grid]
        assert max(errs) <= 1 / (2 * F_S)


def test_estimate_with_drift_matches_plus_half_drift():
    cfg = NrConfig(mu=1, f_s=F_S)
    for true in np.linspace(10e-9, 1.5e-6, 60):
        for drift in (0.0, 40e-9, 130e-9):
            est = estimate_toa_nr(true, cfg, drift)
            assert est == pytest.approx(true + drift / 2, abs=1 / (2 * F_S))


def test_estimate_error_bound_up_to_the_sample_rate_limit():
    # 490.5 MHz is just below the mu = 0 limit of 491.52 MHz, where the
    # residual reaches +-127.7 samples of the 256-sample window: a peak past
    # +127.5 must not be read as a negative delay
    f_s = 490.5e6
    cfg = NrConfig(mu=0, f_s=f_s)
    assert f_s * ta_unit(0) < CIR_LEN
    delays = np.random.default_rng(303).uniform(0.0, 2e-5, 20000)
    errs = [abs(estimate_toa_nr(float(t), cfg, 0.0) - t) for t in delays]
    assert max(errs) <= 1 / (2 * f_s)


@settings(max_examples=300, deadline=None)
@given(mu=st.integers(0, 5), fill=st.floats(0.01, 1.0, exclude_max=True),
       delay=st.floats(0.0, 2e-5), drift=st.floats(0.0, 1e-6),
       seed=st.integers(0, 2**32 - 1))
# a residual of -86.5 samples to within 1e-14: exactly -86.49999999999998,
# read as -86; rtt - coarse and the wrap into the window put it at -87
@example(mu=5, fill=0.9999999999999998, delay=0.0, drift=5.960464477539063e-08, seed=0)
def test_closed_form_peak_is_the_cir_argmax(mu, fill, delay, drift, seed):
    """Below the sample-rate limit the estimate never leaves the window, and
    where the residual is over half a sample inside it, the estimate's peak
    is the signed argmax of the synthesized CIR. A residual within rounding
    error of a half sample can round either way, so there the estimate's peak
    need only be one of the two samples next to it."""
    f_s = fill * CIR_LEN / ta_unit(mu)
    assume(f_s * ta_unit(mu) < CIR_LEN)
    cfg = NrConfig(mu=mu, f_s=f_s)
    est = estimate_toa_nr(delay, cfg, drift)

    rtt = 2.0 * delay + drift
    coarse = coarse_rtt(ta_from_rtt(rtt, mu), mu)
    residual = rtt - coarse
    assume(abs(residual * cfg.f_s) < CIR_LEN / 2 - 0.5)
    window = CIR_LEN / cfg.f_s
    wrapped = residual % window
    if wrapped >= window:  # a tiny negative residual can round up to window
        wrapped = 0.0
    peak = int(np.argmax(synth_cir(wrapped, cfg, RngStream(seed))))
    signed = peak - CIR_LEN if peak >= CIR_LEN / 2 else peak
    read = (2.0 * est - coarse) * cfg.f_s
    assert read == pytest.approx(round(read), abs=1e-6)  # a whole sample
    if abs(abs(residual * cfg.f_s) % 1.0 - 0.5) < 1e-9:
        assert abs(read - residual * cfg.f_s) <= 0.5 + 1e-9
        assert abs(round(read) - signed) <= 1
        return
    assert round(read) == signed
    assert 2.0 * est - coarse == pytest.approx(signed / cfg.f_s, rel=1e-9, abs=1e-9 / cfg.f_s)


def test_nr_config_refuses_sample_rate_beyond_cir_window():
    # 520.8 samples per TA unit > 256; a rate of 0 would make every estimate NaN
    for f_s in (1e9, 0.0, -F_S, float("nan")):
        with pytest.raises(InvalidParam) as exc:
            NrConfig(mu=0, f_s=f_s)
        assert exc.value.field == "sample_rate"


# the numerologies True and 1.0 used to be accepted; 6 raised a numeric error
@pytest.mark.parametrize("mu", [6, True, 1.0], ids=["mu=6", "mu=True", "mu=1.0"])
def test_nr_config_refuses_bad_numerology_and_cir_len(mu):
    with pytest.raises(InvalidParam) as exc:
        NrConfig(mu=mu)
    assert exc.value.field == "numerology"


def scalar_estimate(true_delay, cfg, drift):
    """The one-delay form estimate_toa_nr replaced: Python round, half to even."""
    unit = ta_unit(cfg.mu)
    rtt = 2.0 * true_delay + drift
    ta = round(rtt / unit)
    return (ta * unit + round((rtt / unit - ta) * unit * cfg.f_s) / cfg.f_s) / 2.0


@pytest.mark.parametrize("mu", [0, 1, 3])
def test_estimate_over_an_array_equals_the_scalar_form(mu):
    cfg = NrConfig(mu=mu, f_s=F_S)
    unit = ta_unit(mu)
    delays = np.random.default_rng(mu).uniform(0.0, 2e-6, 500)
    # round trips that land on a half unit, where rounding goes to even
    halves = (np.arange(40) + 0.5) * unit / 2
    halves = halves[2.0 * halves / unit % 1 == 0.5]
    assert len(halves) > 30
    delays = np.concatenate([delays, halves, [0.0]])
    for drift in (0.0, 37e-9):
        got = estimate_toa_nr(delays, cfg, drift)
        assert got.shape == delays.shape
        np.testing.assert_array_equal(got, [scalar_estimate(float(t), cfg, drift)
                                            for t in delays])


def test_estimate_of_a_scalar_is_a_scalar():
    est = estimate_toa_nr(166.782e-9, NrConfig(mu=1, f_s=F_S), 0.0)
    assert np.ndim(est) == 0 and isinstance(est, float)


@pytest.mark.parametrize("delays, drift", [
    ([1e-7, -1e-9], 0.0), ([1e-7, 1e-9], -1e-8), ([1e-7, np.nan], 0.0),
    ([np.inf, 1e-7], 0.0), ([1e-7, 1e-9], np.nan), (np.nan, 0.0), (np.inf, 0.0)])
def test_estimate_refuses_bad_delays(delays, drift):
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        estimate_toa_nr(np.array(delays), NrConfig(mu=1, f_s=F_S), drift)


def test_estimate_refuses_a_negative_delay_whose_round_trip_is_positive():
    # ta_from_rtt would take rtt = 2 * -1e-9 + 1e-8 > 0; the delay itself is refused
    for delays in (-1e-9, np.array([1e-7, -1e-9])):
        with pytest.raises(ValueError, match="^true_delay must be finite and >= 0$"):
            estimate_toa_nr(delays, NrConfig(mu=1, f_s=F_S), 1e-8)


bad_rows = st.sampled_from([(-1e-9, 0.0), (np.nan, 0.0), (np.inf, 0.0), (1e-7, np.nan),
                            (1e-7, -np.inf), (1e-9, -1e-8), (-1e-9, 1e-8)])


@settings(max_examples=200, deadline=None)
@given(mu=st.integers(0, 5), seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 60),
       period=st.integers(1, 9), rate=st.sampled_from([0.0, 3e-9, 37e-9]),
       bad=st.none() | st.tuples(st.integers(0, 59), bad_rows))
def test_batched_estimate_equals_one_call_per_row(mu, seed, rows, period, rate, bad):
    # the rows of many mission steps, each with its step's drift offset, in
    # one call: bit for bit the estimates of one call per row, and one bad
    # row refuses the batch with the error a call of its own gives
    cfg = NrConfig(mu=mu, f_s=F_S)
    rng = np.random.default_rng(seed)
    delays = rng.uniform(0.0, 1e-6, rows)
    steps = rng.integers(1, 50, rows)
    drifts = drift_offset(steps, ramp(rate, period))
    if bad is not None:
        i = bad[0] % rows
        delays[i], drifts[i] = bad[1]
        with pytest.raises(ValueError) as one:
            estimate_toa_nr(float(delays[i]), cfg, float(drifts[i]))
        with pytest.raises(ValueError, match=f"^{one.value}$"):
            estimate_toa_nr(delays, cfg, drifts)
        return
    got = estimate_toa_nr(delays, cfg, drifts)
    assert got.shape == (rows,)
    np.testing.assert_array_equal(got, [estimate_toa_nr(float(t), cfg, float(f))
                                        for t, f in zip(delays, drifts)])
