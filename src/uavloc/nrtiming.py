"""5G NR ToA estimation model.

Coarse RTT from the timing-advance command, SRS-based refinement at the CIR
magnitude argmax, RTT composition, and the sawtooth clock-drift ramp. Only
the arithmetic of the signaling procedure is modeled. `synth_cir` and
`srs_refine` are the documented CIR model; `estimate_toa_nr` reads its argmax,
always the planted tap, in closed form, so it draws no CIR and takes no rng.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DelayOutOfWindow, EmptyCir, InvalidParam
from .model import Scenario, ToaNoiseModel, require_number, require_numerology

DF_MAX = 480e3      # Hz, maximum subcarrier spacing
K_MAX = 4096        # maximum FFT size
TC = 1.0 / (DF_MAX * K_MAX)  # basic time unit, 1/1.96608e9 s
CIR_LEN = 256       # CIR window length in samples


@dataclass(frozen=True)
class NrConfig:
    """NR timing settings, by default the scenario's. InvalidParam refuses a bad mu, and
    as "sample_rate" an f_s that is not finite and > 0 or at which a timing-advance residual
    can overflow the CIR window: f_s * ta_unit(mu) >= CIR_LEN, or f_s >= 491.52 * 2^mu MHz."""
    mu: int = Scenario.numerology        # numerology, 0..5
    f_s: float = Scenario.sample_rate    # sample rate, Hz

    def __post_init__(self):
        unit = ta_unit(self.mu)  # refuses a bad numerology
        if require_number("sample_rate", self.f_s, 0, strict=True) * unit >= CIR_LEN:
            raise InvalidParam("sample_rate", f"must be below {CIR_LEN / unit:.6g} Hz for "
                               f"NR ToA at numerology {self.mu}, or a timing-advance residual "
                               f"can overflow the {CIR_LEN}-sample CIR window")


@dataclass(frozen=True)
class SawtoothDrift:
    """Clock-drift ramp: `rate` seconds of offset per step, resetting to
    zero every `reset_period` steps."""
    rate: float = ToaNoiseModel.drift_rate
    reset_period: int = ToaNoiseModel.drift_reset_period


def ta_unit(mu: int) -> float:
    """Seconds of RTT per timing-advance increment; InvalidParam unless mu is a numerology."""
    return 16 * 64 * TC / 2 ** require_numerology(mu)


def coarse_rtt(ta: int, mu: int) -> float:
    """Coarse RTT implied by a timing-advance value: ta * 16 * 64 * Tc / 2^mu."""
    unit = ta_unit(mu)
    if ta < 0:
        raise ValueError("ta must be a nonnegative integer")
    return ta * unit


def ta_from_rtt(rtt, mu: int):
    """Nearest timing-advance value, half to even: an int, or floats for an RTT array.
    ValueError unless every RTT is finite and >= 0 (NaN is neither)."""
    unit = ta_unit(mu)
    rtt = np.asarray(rtt)
    if rtt.size and not (rtt.min() >= 0 and rtt.max() < np.inf):
        raise ValueError("rtt must be finite and >= 0")
    ta = np.rint(rtt / unit)
    return ta if ta.ndim else int(ta)


def synth_cir(residual_delay: float, cfg: NrConfig, rng: np.random.Generator) -> np.ndarray:
    """Synthesize a CIR magnitude sequence with a single dominant tap.

    The peak sits at index round(residual_delay * f_s); the noise floor is
    uniform in [0, 0.5) and therefore strictly below the unit peak.
    """
    window = CIR_LEN / cfg.f_s
    if not (0.0 <= residual_delay < window):
        raise DelayOutOfWindow(
            f"residual {residual_delay:.3e} s outside CIR window [0, {window:.3e})")
    idx = int(round(residual_delay * cfg.f_s)) % CIR_LEN
    cir = 0.5 * rng.uniform(0.0, 1.0, CIR_LEN)
    cir[idx] = 1.0
    return cir


def srs_refine(cir, f_s: float) -> float:
    """Refined delay estimate (argmax index)/f_s; ties go to the smallest index."""
    cir = np.asarray(cir)
    if cir.size == 0:
        raise EmptyCir("CIR is empty")
    return int(np.argmax(cir)) / f_s


def drift_offset(step: int, d: SawtoothDrift) -> float:
    """Sawtooth clock-drift offset at 1-based mission step: rate * ((n-1) mod P)."""
    if step < 1:
        raise ValueError("step must be >= 1")
    return d.rate * ((step - 1) % d.reset_period)


def estimate_toa_nr(true_delay, cfg: NrConfig, drift: float):
    """One-way delay estimates through the two-stage NR procedure: RTT/2.

    true_delay is a delay in seconds or an array of them. The round trip
    (2 * true_delay + drift) is quantized to the nearest timing-advance unit,
    half to even, by ta_from_rtt; the signed residual is read at the CIR peak,
    round(residual * f_s) / f_s. The residual is within half a unit, so
    within half the CIR window (CIR_LEN / f_s) either way: NrConfig admits no
    sample rate at which a residual could leave it. ValueError unless
    true_delay >= 0 and, by ta_from_rtt's rule, the round trip is finite and >= 0.
    """
    true_delay = np.asarray(true_delay)
    if not true_delay.min() >= 0:  # NaN fails too
        raise ValueError("true_delay must be finite and >= 0")
    rtt = 2.0 * true_delay + drift
    ta = ta_from_rtt(rtt, cfg.mu)
    unit = ta_unit(cfg.mu)
    # ta rounds this very ratio, so |ratio - ta| <= 1/2 exactly and
    # |peak| <= f_s * unit / 2 in floating point too
    ratio = rtt / unit
    peak = (ratio - ta) * unit * cfg.f_s
    return (ta * unit + np.rint(peak) / cfg.f_s) / 2.0
