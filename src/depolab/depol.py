"""Global depolarization of output distributions, sampling, certificates.

Global depolarizing noise at fidelity F turns an ideal n-qubit output
distribution p into

    p'_z = F * p_z + (1 - F) / 2**n

i.e. with probability F the ideal sampler runs, otherwise a uniform string
comes out.  The uniform distribution is the fixed point of the map, and
every deviation from uniform shrinks affinely:

    p'_z - 2**-n = F * (p_z - 2**-n)

Two certificates quantify how close p' is to uniform:

* additive: sum_z |p'_z - 2**-n| <= 2F, so plain uniform sampling achieves
  total-variation error at most F.
* multiplicative (needs F <= 1/2): |p'_z - 2**-n| < eps * p'_z for every
  outcome z with eps = F * 2**(n+2), so uniform sampling even meets a
  per-outcome relative-error target.

Sampling uses inverse-CDF lookup driven by a counter-based Philox stream
keyed by a 64-bit seed: identical (seed, distribution, count) gives
identical tallies on every platform, and distinct keys give independent
streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded
from .statevector import Distribution
from .tolerances import EXACT_TOL

# Each draw holds a float64 uniform and an int64 outcome at once, so 10**8
# draws already need 1.6 GB.
SAMPLE_CAP = 10**8


def check_fidelity(value: float) -> float:
    """Validate a fidelity: a real number in [0, 1]."""
    f = float(value)
    if not 0.0 <= f <= 1.0:  # also rejects NaN
        raise ValueError(f"fidelity must lie in [0, 1], got {value!r}")
    return f


def check_seed(seed: int) -> int:
    """Validate a seed: an integer representable in 64 bits."""
    s = int(seed)
    if s != seed or not 0 <= s < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return s


def check_positive_int(name: str, value: int) -> int:
    """Validate a count or width: an integer >= 1 (an integral float counts)."""
    if not (value >= 1 and value % 1 == 0):  # also rejects NaN and infinity
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of checking one closeness-to-uniform bound, its fields in
    the order the CLI report prints them.

    theorem names the certificate ("additive" or "multiplicative");
    bound/achieved are the two sides of the inequality; witness is the
    outcome index with the largest deviation (the arg-max term); for the
    additive certificate scaled_ideal_l1 carries F * sum_z |p_z - 2**-n|,
    which must equal `achieved` identically.
    """

    theorem: str
    bound: float
    achieved: float
    witness: int
    passed: bool
    scaled_ideal_l1: float | None = None


def depolarize(dist: Distribution, fidelity: float) -> Distribution:
    """Apply global depolarization at the given fidelity."""
    f = check_fidelity(fidelity)
    uniform = (1.0 - f) / (1 << dist.width)
    # The map scales the input's drift from unit sum by F, so allow that drift.
    drift = abs(float(dist.probs.sum()) - 1.0)
    return Distribution(dist.width, f * dist.probs + uniform, tol=EXACT_TOL + drift)


def sample(dist: Distribution, seed: int, count: int) -> dict[int, int]:
    """Draw `count` outcomes by inverse CDF; returns {outcome: tally}.

    Only outcomes that occurred appear as keys.  Deterministic in
    (seed, dist, count).
    """
    check_seed(seed)
    count = check_positive_int("count", count)
    if count > SAMPLE_CAP:
        raise CapExceeded(
            f"{count} draws need {16 * count} bytes; the cap is {SAMPLE_CAP} draws"
        )
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random(count)
    cdf = np.cumsum(dist.probs)
    drawn = np.searchsorted(cdf, u, side="right")
    # cdf[-1] can round to slightly below 1; fold the sliver into the last
    # outcome that has probability, never into a trailing zero.
    drawn = np.minimum(drawn, np.flatnonzero(dist.probs)[-1])
    tallies = np.bincount(drawn, minlength=1 << dist.width)
    outcomes = np.flatnonzero(tallies)
    return dict(zip(outcomes.tolist(), tallies[outcomes].tolist()))


def additive_certificate(dist: Distribution, fidelity: float) -> CertificateReport:
    """Check sum_z |p'_z - 2**-n| <= 2F for the depolarized distribution.

    Also evaluates the identity sum_z |p'_z - u| = F * sum_z |p_z - u|
    (reported as scaled_ideal_l1) so tests can confirm both routes agree.
    """
    f = check_fidelity(fidelity)
    uniform = 1.0 / (1 << dist.width)
    noisy = depolarize(dist, f)
    deviations = np.abs(noisy.probs - uniform)
    achieved = float(deviations.sum())
    bound = 2.0 * f
    scaled = f * float(np.abs(dist.probs - uniform).sum())
    return CertificateReport(
        theorem="additive",
        bound=bound,
        achieved=achieved,
        witness=int(deviations.argmax()),
        passed=achieved <= bound,
        scaled_ideal_l1=scaled,
    )


def multiplicative_certificate(dist: Distribution, fidelity: float) -> CertificateReport:
    """Check |p'_z - 2**-n| < F * 2**(n+2) * p'_z at every outcome z.

    Valid only for F <= 1/2 (the per-outcome bound is proved in that
    regime); larger fidelities are a precondition violation.  F = 0 makes
    p' exactly uniform, so the relative error is 0 and the certificate
    passes without any division.
    """
    f = check_fidelity(fidelity)
    if f > 0.5:
        raise ValueError(
            f"the multiplicative certificate requires fidelity <= 1/2, got {f}; "
            "the per-outcome bound does not hold above that"
        )
    n = dist.width
    bound = f * float(2 ** (n + 2))
    if f == 0.0:
        return CertificateReport("multiplicative", bound, 0.0, 0, True)
    uniform = 1.0 / (1 << n)
    noisy = depolarize(dist, f)
    # noisy.probs >= (1 - F) * 2**-n > 0 for F <= 1/2, so dividing is safe.
    ratios = np.abs(noisy.probs - uniform) / noisy.probs
    achieved = float(ratios.max())
    return CertificateReport(
        theorem="multiplicative",
        bound=bound,
        achieved=achieved,
        witness=int(ratios.argmax()),
        passed=achieved < bound,
    )


def empirical_tv(counts: dict[int, int], dist: Distribution) -> float:
    """Total-variation distance between a tally's frequencies and dist."""
    total = sum(counts.values())
    if total < 1:
        raise ValueError("counts must contain at least one draw")
    size = 1 << dist.width
    freq = np.zeros(size)
    for z, c in counts.items():
        if not 0 <= z < size:
            raise ValueError(f"outcome {z} out of range for width {dist.width}")
        if c < 0:
            raise ValueError(f"negative tally for outcome {z}")
        freq[z] = c / total
    return 0.5 * float(np.abs(freq - dist.probs).sum())
