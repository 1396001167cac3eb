"""Randomized ancilla-flagged circuits and their acceptance thresholds.

Start from a w-qubit circuit V = g_m ... g_1 whose acceptance amplitude is
<0^w|V|0^w>.  Append m ancilla qubits, one per step.  Step j flips a fair
coin: on heads it applies the intended gate g_j, on tails it applies an
alternate single-step gate and flags the swap by flipping ancilla j.  The
ancilla register therefore records exactly which branch ran, and the final
state is an equal mixture over all 2**m branch strings alpha:

    P(y, alpha) = 2**-m * |<y| xi_m^(alpha_m) ... xi_1^(alpha_1) |0^w>|^2

where xi_j^0 = g_j and xi_j^1, the alternate, is X on g_j's first target.
RandomizedCircuit is built from V alone: a Circuit is legal by
construction, so its alternates are too.  Reading the full outcome
(y, alpha), the all-zeros string keeps mass q / 2**m with
q = |<0^w|V|0^w>|^2: sampling this mixture concentrates a detectable spike
on 0^n exactly when V accepts.

Under global depolarization at fidelity F the spike becomes

    p'_acc = F * q / 2**m + (1 - F) / 2**n,      n = w + m.

With a sampler whose per-outcome relative error is eps, circuits promised
to accept with amplitude >= 1 - 2**-r keep

    yes_lower = (1 - eps) * F * 2**-m * (1 - 2**-r)**2

while circuits accepting with amplitude <= 2**-r stay below

    no_upper = 2**-m * (1 + eps) * F * (2**-2r + (1 - F) / (F * 2**w)).

A factor-2 separation (yes_lower >= 2 * no_upper) is the gap a
bounded-probability verifier needs, and it sets in once r and w are large
enough; sbp_thresholds reports both sides so the crossover is measurable
rather than asserted.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .circuits import Circuit, Gate
from .depol import check_fidelity, check_positive_int
from .errors import BRANCH_CAP, WIDTH_CAP, check_cap
from .statevector import Distribution, _advance, _check_unit, _rows, _squared_abs
from .tolerances import EXACT_TOL


@dataclass(frozen=True)
class RandomizedCircuit:
    """The randomized construction over a circuit V.

    steps pairs each gate g_j of V with its alternate, X on g_j's first
    target, which a tails-coin step applies instead.  Ancilla j mirrors
    step j and lives at full-register qubit main_width + j.
    """

    circuit: Circuit
    steps: tuple[tuple[Gate, Gate], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        steps = tuple((g, Gate("X", g.targets[:1])) for g in self.circuit.gates)
        object.__setattr__(self, "steps", steps)

    @property
    def main_width(self) -> int:
        return self.circuit.width

    @property
    def ancilla_width(self) -> int:
        return self.circuit.m

    @property
    def total_width(self) -> int:
        return self.main_width + self.ancilla_width


def _mixture_rows(rc: RandomizedCircuit) -> Iterator[np.ndarray]:
    """The mixture's float64 probabilities in index order, a block at a time.

    Main-register bits are low and ancilla j is bit main_width + j, so row
    alpha of the (2**m, 2**w) mixture is the state of branch string alpha.
    Steps j < m-1 double a buffer of 2**(m-1) rows: rows [0, 2**j) are
    copied into [2**j, 2**(j+1)), then the intended gate goes to the first
    half and the alternate to the copy.  Ancilla m-1 is the top bit, so the
    output is the last intended gate on the held rows, then its alternate:
    each block of _rows(held, w) is copied, advanced and squared, and the
    held rows are not written.  Gates go through statevector's _advance,
    whose _rows alone sizes the blocks (2**w amplitudes or more, so all of
    them equal), and one workspace of half a block, allocated once, serves
    every gate and holds each block's probabilities: a yielded block is a
    view into it, valid until the next block is requested: its readers,
    mixture_distribution and mixture_checksum, copy or hash it first.
    The caps are checked before anything is allocated, and the sum within
    EXACT_TOL after the last block.
    """
    w, m = rc.main_width, rc.ancilla_width
    need = f"2**{w + m + 4}"  # the mixture's amplitudes
    check_cap("ancilla width", m, BRANCH_CAP, "qubits", need)
    check_cap("total width", w + m, WIDTH_CAP, "qubits", need)
    held = np.zeros(1 << max(m - 1, 0) + w, dtype=np.complex128)  # flat: row alpha at alpha << w
    held[0] = 1.0
    block = np.empty_like(_rows(held, w)[0])
    scratch = np.empty(block.size // 2, dtype=np.complex128)  # also a block's float64 probs
    for j, (primary, alternate) in enumerate(rc.steps[:-1]):
        half = 1 << j + w  # the amplitudes of rows [0, 2**j)
        held[half : 2 * half] = held[:half]
        _advance(held[:half], [(primary, 0)], scratch)
        _advance(held[half : 2 * half], [(alternate, 0)], scratch)
    # With m = 0 there is no last step: the one held row is the mixture.
    total = 0.0
    for gate in rc.steps[-1] if m else (Gate("I1", (0,)),):
        for row in _rows(held, w):
            np.copyto(block, row)
            _advance(block, [(gate, 0)], scratch)
            probs = _squared_abs(block, scratch.view(np.float64))
            probs /= 1 << m
            total += float(probs.sum())
            yield probs
    _check_unit("probability sum", total, EXACT_TOL)


def mixture_distribution(rc: RandomizedCircuit) -> Distribution:
    """Exact outcome distribution of the randomized circuit, joined from
    copies of _mixture_rows' blocks: one gate application per (step, branch
    prefix) rather than a fresh simulation per branch.  At its peak it holds
    two copies of the 2**(w+m) probabilities, or the first m-1 steps'
    2**(w+m-1) amplitudes and one copy.
    """
    return Distribution(rc.total_width, np.concatenate([p.copy() for p in _mixture_rows(rc)]))


def mixture_checksum(rc: RandomizedCircuit) -> str:
    """sha256 of the mixture's little-endian float64 bytes, fed a block at a
    time: exact on every platform, and -0 hashes apart from 0 (the stream's
    sum check refuses NaN)."""
    digest = hashlib.sha256()
    for block in _mixture_rows(rc):
        digest.update(block.astype("<f8", copy=False))
    return digest.hexdigest()


def depolarized_acceptance(rc: RandomizedCircuit, q: float, fidelity: float) -> float:
    """Mass on the all-zeros outcome after depolarization at fidelity F:

        F * q / 2**m + (1 - F) / 2**n,   q = |<0^w|V|0^w>|^2,

    with q from one simulation of V (statevector.zero_overlap), so a grid
    of fidelities shares it.  No 2**n-sized object is built.
    """
    f = check_fidelity(fidelity)
    m, n = rc.ancilla_width, rc.total_width
    # Exact scaling by 2**-m, like a division, but 0 where 2**m overflows.
    return math.ldexp(f * q, -m) + math.ldexp(1.0 - f, -n)


@dataclass(frozen=True)
class ThresholdReport:
    """Both sides of the acceptance gap for given construction parameters."""

    r: int
    w: int
    m: int
    fidelity: float
    epsilon: float
    yes_lower: float
    no_upper: float
    ratio: float
    sbp_ok: bool


def sbp_thresholds(
    r: int, w: int, m: int, fidelity: float, epsilon: float
) -> ThresholdReport:
    """Evaluate the yes/no acceptance thresholds and whether they separate.

    r: promise-gap exponent (yes instances accept with amplitude
    >= 1 - 2**-r, no instances with amplitude <= 2**-r).  w, m: main and
    ancilla widths.  epsilon: the sampler's per-outcome relative error,
    in [0, 1).  fidelity must be positive: at F = 0 every signal is gone
    and no threshold statement is possible.
    """
    r, w, m = check_positive_int("r", r), check_positive_int("w", w), check_positive_int("m", m)
    f = check_fidelity(fidelity)
    if f == 0.0:
        raise ValueError("fidelity must be positive; F = 0 erases the gap entirely")
    eps = float(epsilon)
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon!r}")
    # (1 - F) / (F * 2**w), split so that no factor leaves the float range
    # once w passes 1023.
    head = min(w, 1023)
    noise = math.ldexp((1.0 - f) / math.ldexp(f, head), head - w)
    promise = math.ldexp(1.0, -2 * r) + noise
    # Both sides carry 2**-m, so ratio and sbp_ok come from the m-free
    # factors; scaling by a power of two is exact while both sides are
    # normal floats, and math.ldexp gives 0 rather than an error past that.
    yes_acc = (1.0 - math.ldexp(1.0, -r)) ** 2
    yes_core = (1.0 - eps) * f * yes_acc
    no_core = (1.0 + eps) * f * promise
    ratio = yes_core / no_core if no_core else math.inf
    if not (math.isfinite(ratio) and math.isfinite(no_core)):
        raise ValueError(f"r={r}, w={w}, F={f!r} put the thresholds outside the float range")
    yes_lower = math.ldexp((1.0 - eps) * f, -m) * yes_acc
    no_upper = math.ldexp(1.0 + eps, -m) * f * promise
    return ThresholdReport(
        r=r,
        w=w,
        m=m,
        fidelity=f,
        epsilon=eps,
        yes_lower=yes_lower,
        no_upper=no_upper,
        ratio=ratio,
        sbp_ok=yes_core >= 2.0 * no_core,
    )


class HardnessGap(NamedTuple):
    """Depolarized acceptance rates for a promise pair and their gap."""

    yes_rate: float
    no_rate: float
    gap: float


def hardness_gap(
    yes_acceptance: float, no_acceptance: float, fidelity: float, width: int
) -> HardnessGap:
    """Depolarize a promise pair of acceptance probabilities a > b.

    Both rates shift the same way, so the gap is exactly F * (a - b);
    it is computed in that form (not as a difference of the two rounded
    rates) so the result is exact whenever F and a - b are.
    """
    a, b = float(yes_acceptance), float(no_acceptance)
    if not 0.0 <= b < a <= 1.0:
        raise ValueError(
            f"need 0 <= no_acceptance < yes_acceptance <= 1, got a={a!r} b={b!r}"
        )
    f = check_fidelity(fidelity)
    floor = math.ldexp(1.0 - f, -check_positive_int("width", width))
    return HardnessGap(f * a + floor, f * b + floor, f * (a - b))
