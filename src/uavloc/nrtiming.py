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
from .model import require_int, require_number, require_numerology

DF_MAX = 480e3      # Hz, maximum subcarrier spacing
K_MAX = 4096        # maximum FFT size
TC = 1.0 / (DF_MAX * K_MAX)  # basic time unit, 1/1.96608e9 s


@dataclass(frozen=True)
class NrConfig:
    """NR timing settings. InvalidParam refuses a bad mu or a cir_len that is
    not an integer >= 1, and as "sample_rate" an f_s that is not finite and > 0
    or at which a timing-advance residual can overflow the CIR window,
    f_s * ta_unit(mu) >= cir_len (at 256 taps: f_s >= 491.52 * 2^mu MHz)."""
    mu: int = 1              # numerology, 0..5
    f_s: float = 61.44e6     # sample rate, Hz (40 MHz-class default)
    cir_len: int = 256       # CIR window length in samples

    def __post_init__(self):
        require_int("cir_len", self.cir_len, 1)
        unit = ta_unit(self.mu)  # refuses a bad numerology
        if require_number("sample_rate", self.f_s, 0, strict=True) * unit >= self.cir_len:
            raise InvalidParam("sample_rate", f"must be below {self.cir_len / unit:.6g} Hz for "
                               f"NR ToA at numerology {self.mu}, or a timing-advance residual "
                               f"can overflow the {self.cir_len}-sample CIR window")


@dataclass(frozen=True)
class SawtoothDrift:
    """Clock-drift ramp: `rate` seconds of offset per step, resetting to
    zero every `reset_period` steps."""
    rate: float = 0.0
    reset_period: int = 1


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
    """Nearest timing-advance value, half to even: an int, or floats for an RTT array."""
    unit = ta_unit(mu)
    if (np.asarray(rtt) < 0).any():
        raise ValueError("rtt must be >= 0")
    ta = np.rint(rtt / unit)
    return ta if np.ndim(ta) else int(ta)


def synth_cir(residual_delay: float, cfg: NrConfig, rng: np.random.Generator) -> np.ndarray:
    """Synthesize a CIR magnitude sequence with a single dominant tap.

    The peak sits at index round(residual_delay * f_s); the noise floor is
    uniform in [0, 0.5) and therefore strictly below the unit peak.
    """
    window = cfg.cir_len / cfg.f_s
    if not (0.0 <= residual_delay < window):
        raise DelayOutOfWindow(
            f"residual {residual_delay:.3e} s outside CIR window [0, {window:.3e})")
    idx = int(round(residual_delay * cfg.f_s)) % cfg.cir_len
    cir = 0.5 * rng.uniform(0.0, 1.0, cfg.cir_len)
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
    half to even; the signed residual is read at the CIR peak,
    round(residual * f_s) / f_s. The residual is within half a unit, so
    within half the CIR window (cir_len / f_s) either way: NrConfig admits no
    sample rate at which a residual could leave it.
    """
    true_delay = np.asarray(true_delay)
    rtt = 2.0 * true_delay + drift
    if not (true_delay.min() >= 0 and 0 <= rtt.min() <= rtt.max() < np.inf):
        raise ValueError("true_delay and rtt = 2 * true_delay + drift must be finite and >= 0")
    unit = ta_unit(cfg.mu)
    ratio = rtt / unit
    ta = np.rint(ratio)  # as ta_from_rtt rounds; cfg and rtt are checked above
    # |ratio - ta| <= 1/2 exactly, so |peak| <= f_s * unit / 2 in floating
    # point too
    peak = (ratio - ta) * unit * cfg.f_s
    return (ta * unit + np.rint(peak) / cfg.f_s) / 2.0
