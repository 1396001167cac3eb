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

from .errors import SAMPLE_CAP, check_cap
from .statevector import Distribution
from .tolerances import EXACT_TOL

# Round-off of the additive certificate's `achieved`, with r = eps/2:
# rounding 1 - F, F*p_z and their sum moves p'_z by at most r times
# (1 - F)/2**n, F*p_z and p'_z, 2r = eps over all outcomes.  Subtracting
# 2**-n is exact (Sterbenz) for p'_z within a factor 2 of it; elsewhere it
# and numpy's pairwise sum err by at most (n + 12)*r relative, far below
# the F*2**(1-n) the exact side leaves under 2F up to WIDTH_CAP, as
# sum_z |p_z - 2**-n| <= 2 - 2**(1-n) + |sum_z p_z - 1|.  Doubled for r**2.
ADDITIVE_ROUNDOFF = 2.0 * float(np.finfo(np.float64).eps)


def check_fidelity(value: float) -> float:
    """Validate a fidelity: a real number in [0, 1]."""
    f = float(value)
    if not 0.0 <= f <= 1.0:  # also rejects NaN
        raise ValueError(f"fidelity must lie in [0, 1], got {value!r}")
    return f


def check_seed(seed: int) -> int:
    """Validate a seed: an integer representable in 64 bits, not a bool."""
    if isinstance(seed, (bool, np.bool_)) or not (0 <= seed < 2**64 and seed % 1 == 0):  # NaN and inf fail too
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def check_positive_int(name: str, value: int) -> int:
    """Validate a count or width: an integer >= 1 (an integral float, not a bool)."""
    if not (value >= 1 and value % 1 == 0) or isinstance(value, (bool, np.bool_)):  # NaN and inf fail too
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


def sorted_draws(seed: int, count: int) -> np.ndarray:
    """`count` sorted uniforms of the Philox stream keyed by `seed`; the seed,
    the count and SAMPLE_CAP are checked before anything is drawn."""
    check_seed(seed)
    count = check_positive_int("count", count)
    check_cap("draw count", count, SAMPLE_CAP, "draws", str(8 * count))
    u = np.random.Generator(np.random.Philox(key=seed)).random(count)
    u.sort()
    return u


def tally(dist: Distribution, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(outcomes drawn, ascending; their tallies) of sorted draws u, a nonempty
    1-D float array in [0, 1), such as sorted_draws returns: one binary search
    per entry of the shorter of u and the CDF, into the other."""
    u = np.asarray(u)
    if not (u.ndim == 1 and u.size and u.dtype.kind == "f"  # NaN fails a comparison below
            and 0.0 <= u[0] and u[-1] < 1.0 and (u[:-1] <= u[1:]).all()):
        raise ValueError("draws must be a nonempty 1-D float array, sorted ascending, in [0, 1)")
    cdf = np.cumsum(dist.probs)
    # cdf[-1] can round to just below 1; fold the sliver into the last
    # outcome that has probability.
    last = np.flatnonzero(dist.probs)[-1]
    if len(u) < len(cdf):
        drawn = np.searchsorted(cdf, u, side="right")
        tallies = np.bincount(np.minimum(drawn, last, out=drawn))
    else:
        # below[z] counts the draws on outcomes 0..z.
        below = np.searchsorted(u, cdf)
        below[last:] = len(u)
        tallies = np.diff(below, prepend=0)
    outcomes = np.flatnonzero(tallies)
    return outcomes, tallies[outcomes]


def additive_certificate(dist: Distribution, fidelity: float) -> CertificateReport:
    """Check sum_z |p'_z - 2**-n| <= 2F for the depolarized distribution.

    Also evaluates the identity sum_z |p'_z - u| = F * sum_z |p_z - u|
    (reported as scaled_ideal_l1) so tests can confirm both routes agree.
    passed allows ADDITIVE_ROUNDOFF and F times the input's drift from
    unit sum.
    """
    f = check_fidelity(fidelity)
    uniform = 1.0 / (1 << dist.width)
    deviations = np.subtract(depolarize(dist, f).probs, uniform)  # reused for both sums
    achieved = float(np.abs(deviations, out=deviations).sum())
    witness = int(deviations.argmax())
    bound = 2.0 * f
    np.subtract(dist.probs, uniform, out=deviations)
    scaled = f * float(np.abs(deviations, out=deviations).sum())
    return CertificateReport(
        theorem="additive",
        bound=bound,
        achieved=achieved,
        witness=witness,
        passed=achieved <= bound + ADDITIVE_ROUNDOFF + f * abs(float(dist.probs.sum()) - 1.0),
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
    noisy = depolarize(dist, f).probs
    # noisy >= (1 - F) * 2**-n > 0 for F <= 1/2, so dividing is safe.
    ratios = np.subtract(noisy, uniform)  # one buffer, folded and divided in place
    np.divide(np.abs(ratios, out=ratios), noisy, out=ratios)
    achieved = float(ratios.max())
    return CertificateReport(
        theorem="multiplicative",
        bound=bound,
        achieved=achieved,
        witness=int(ratios.argmax()),
        passed=achieved < bound,
    )


def empirical_tv(outcomes: np.ndarray, tallies: np.ndarray, dist: Distribution) -> float:
    """Total-variation distance between a tally's frequencies and dist:
    tallies[i] draws of outcomes[i], each outcome at most once (as `tally`
    returns them)."""
    outcomes, tallies = np.asarray(outcomes), np.asarray(tallies)
    # A Python int past int64 makes a uint64, float or object array: refused here.
    if not (outcomes.ndim == 1 and outcomes.shape == tallies.shape
            and outcomes.dtype.kind == tallies.dtype.kind == "i"):
        raise ValueError("outcomes and tallies must be 1-D signed integer arrays (within int64) "
                         f"of one length, got {outcomes.dtype}{outcomes.shape}, {tallies.dtype}{tallies.shape}")
    total = tallies.sum(dtype=np.float64)  # exact below 2**53: c / total rounds once
    if total < 1:
        raise ValueError("counts must contain at least one draw")
    size = 1 << dist.width
    bad = (outcomes < 0) | (outcomes >= size) | (tallies < 0)
    if bad.any():  # name the first bad item, as a loop over the tally would
        z = int(outcomes[bad.argmax()])
        if not 0 <= z < size:
            raise ValueError(f"outcome {z} out of range for width {dist.width}")
        raise ValueError(f"negative tally for outcome {z}")
    if np.bincount(outcomes).max() > 1:  # not kept: a refusal counts again to name it
        raise ValueError(f"outcome {np.bincount(outcomes).argmax()} is tallied more than once")
    freq = np.zeros(size)
    freq[outcomes] = tallies / total
    return 0.5 * float(np.abs(freq - dist.probs).sum())
