"""Independent oracles shared across test modules.

These deliberately avoid the library's code paths: explicit summation loops
for the transform, exactly reduced phases for the tones, integer Newton
iteration and corrected float sqrt for the roots.
"""

import cmath
import decimal

import numpy as np


def brute_force_initial_dft(values, positions, n):
    """Direct double-loop partial-sample DFT."""
    out = np.zeros(n, dtype=complex)
    for f in range(n):
        acc = 0j
        for v, p in zip(values, positions):
            acc += complex(v) * cmath.exp(-2j * cmath.pi * f * int(p) / n)
        out[f] = acc
    return out


def one_shot_initial_dft(values, positions, n):
    """The initial DFT as one out-of-place expression: the int64 outer product,
    then ``-2j*pi*`` it, ``/ n``, ``exp`` and the matvec, each a new array. The
    in-place kernel replaced this form and must match it bit for bit."""
    return np.exp(-2j * np.pi * np.outer(np.arange(n), positions) / n) @ values


def exact_tail_probability(p, n):
    """``1 - p**(1/n)`` in 60-digit decimal arithmetic, from the exact value of
    the double ``p``, as a ``Decimal``."""
    with decimal.localcontext(prec=60):
        return -((decimal.Decimal(p).ln() / n).exp() - 1)


def brute_force_idft(spectrum):
    """Direct double-loop inverse DFT."""
    n = len(spectrum)
    out = np.zeros(n, dtype=complex)
    for t in range(n):
        acc = 0j
        for f in range(n):
            acc += complex(spectrum[f]) * cmath.exp(2j * cmath.pi * f * t / n)
        out[t] = acc / n
    return out


def reduced_phase_tones(n, bins, amps):
    """Sum of the tones ``amps[i] * exp(2j*pi*bins[i]*t/n)``, each phase index
    ``bins[i]*t`` reduced mod n in int64 before the exponential; no FFT."""
    t = np.arange(n, dtype=np.int64)
    out = np.zeros(n, dtype=complex)
    for k, a in zip(bins, amps):
        out += a * np.exp(1j * (2 * np.pi * ((int(k) * t) % n) / n))
    return out


def newton_isqrt(b):
    """Integer Newton floor square root."""
    b = int(b)
    if b < 0:
        raise ValueError("negative input")
    if b == 0:
        return 0
    x = 1 << ((b.bit_length() + 1) // 2)  # initial guess >= sqrt(b)
    while True:
        y = (x + b // x) // 2
        if y >= x:
            return x
        x = y


def floor_sqrt_array(values):
    """Vectorized floor sqrt: float sqrt with a one-step integer correction."""
    b = np.asarray(values, dtype=np.int64)
    r = np.floor(np.sqrt(b.astype(np.float64))).astype(np.int64)
    r = np.where(r * r > b, r - 1, r)
    r = np.where((r + 1) ** 2 <= b, r + 1, r)
    return r
