"""How well k copies distinguish a depolarized state from pure noise.

The discrimination game: a referee hands over k copies of either
rho0 = I/2**n (pure noise) or rho1 = F*rho + (1-F)*I/2**n (the depolarized
state), each with probability 1/2.  The best possible guessing strategy is
a two-outcome measurement, and its success probability has the closed form

    p_correct = 1/2 + (1/4) * || rho0^(x)k - rho1^(x)k ||_1

achieved by guessing rho1 exactly on the positive eigenspace of the
difference.  Chaining three facts bounds this away from any useful value:

    || rho0^(x)k - rho1^(x)k ||_1  <=  k * || rho0 - rho1 ||_1
    || rho0 - rho1 ||_1            =   F * || rho - I/2**n ||_1
    || rho - I/2**n ||_1           <=  2

so p_correct <= 1/2 + k*F/2: with fidelity F, even k copies and the best
measurement only beat coin flipping by k*F/2.  bound_chain evaluates every
line of that chain numerically and reports both sides of each.

Because rho0 = I/2**n commutes with everything, every norm in the chain
is a sum over mu = F*spec(rho) + (1-F)/2**n: rho1 - rho0 has eigenvalues
mu - 2**-n, and rho1^(x)k - rho0^(x)k has the k-fold products of mu, less
2**(-n*k).  So bound_chain reads only spec(rho), all a DensityMatrix
keeps; a circuit's pure state is never densified.  POWER_CAP bounds the
2**(k*n) products, and the 2**(2*n) entries of a drawn density (n <= 11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .depol import check_fidelity, check_positive_int, check_seed
from .errors import POWER_CAP, check_cap
from .statevector import StateVector, _check_unit, _freeze
from .tolerances import EIG_FLOOR, EXACT_TOL, ORACLE_TOL


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A density matrix as its spectrum, all bound_chain reads: 2**width
    eigenvalues in any order, each finite and at least EIG_FLOOR, summing
    to 1 within tol (EXACT_TOL unless the caller knows a round-off bound).
    Pass a Hermitian matrix as np.linalg.eigvalsh(mat).  Equality and
    hashing are by identity."""

    width: int
    spectrum: np.ndarray
    tol: float = field(default=EXACT_TOL, kw_only=True, repr=False)

    def __post_init__(self):
        spectrum = _freeze(self, "spectrum", np.float64, "eigenvalues")
        below = spectrum[~(spectrum >= EIG_FLOOR)]  # NaN too; +inf fails the trace
        if below.size:
            raise ValueError(f"eigenvalue {float(below[0])!r} is not >= {EIG_FLOOR}")
        _check_unit("trace", spectrum, self.tol)


def random_density_matrix(width: int, seed: int, rank: int | None = None) -> DensityMatrix:
    """Seeded random density: spec(G G^dag / tr) for a complex Gaussian G.

    rank=None draws full rank; rank=1 gives a Haar-random pure state.
    """
    check_seed(seed)
    width = check_positive_int("width", width)
    # Its 2**(2*width) entries share POWER_CAP; refuse them before allocating.
    check_cap(f"{width}-qubit density matrix's entry width", 2 * width, POWER_CAP, "qubits",
              f"2**{2 * width + 4}")
    d = 1 << width
    r = d if rank is None else check_positive_int("rank", rank)
    if r > d:
        raise ValueError(f"rank must lie in [1, {d}], got {rank!r}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    mat = g @ g.conj().T
    del g
    mat /= np.trace(mat).real
    # Symmetrize away the matmul's last-ulp Hermiticity loss, in place and exactly.
    mat += mat.conj().T
    mat *= 0.5
    return DensityMatrix(width, np.linalg.eigvalsh(mat))


def check_copies(width: int, k: int) -> None:
    """Refuse k copies of a width-qubit state past POWER_CAP, before any
    state is built: their spectrum holds 2**(k*width) float64 eigenvalues."""
    k = check_positive_int("k", k)
    check_cap(f"{k}-copy width", k * width, POWER_CAP, "qubits", f"2**{k * width + 3}")


@dataclass(frozen=True)
class ChainLink:
    """One line of the bound chain: lhs (= or <=) rhs."""

    name: str
    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class ChainReport:
    width: int
    k: int
    fidelity: float
    p_correct: float
    links: tuple[ChainLink, ...]

    @property
    def all_passed(self) -> bool:
        return all(link.passed for link in self.links)


def bound_chain(rho: DensityMatrix | StateVector, fidelity: float, k: int) -> ChainReport:
    """Evaluate the whole discrimination bound chain for (rho, F, k).

    rho is a DensityMatrix or a pure StateVector; only its width and
    spectrum are read, so a circuit's state needs no density matrix.

    Links, in order (equalities checked within ORACLE_TOL, inequalities
    allowed the same slack, link 1 also the input's drift):

    1. helstrom_value: success of the optimal projective measurement,
       1/2 + (1/2) * (positive part of the spectrum), equals
       1/2 + (1/4) * ||rho0^k - rho1^k||_1.
    2. tensor_subadditivity: ||rho0^k - rho1^k||_1 <= k * ||rho0 - rho1||_1.
    3. noise_scaling: ||rho0 - rho1||_1 = F * ||rho - I/2**n||_1.
    4. distance_cap: ||rho - I/2**n||_1 <= 2.
    5. correctness_cap: p_correct <= 1/2 + k*F/2.
    """
    f = check_fidelity(fidelity)
    check_copies(rho.width, k)
    d = 1 << rho.width
    spectrum = rho.spectrum
    # rho1 = F*rho + (1-F)*I/d has the noisy spectrum mu in rho's eigenbasis.
    mu = f * spectrum + (1.0 - f) / d
    base_norm = float(np.abs(spectrum - 1.0 / d).sum())
    single_norm = float(np.abs(mu - 1.0 / d).sum())

    # Eigenvalues of rho1^(x)k - rho0^(x)k: every k-fold product of mu,
    # less the d**-k that I/d**k adds on the diagonal.
    delta = reduce(np.multiply.outer, [mu] * int(k)).ravel() - float(d) ** -k
    # Link 1's measured side: guessing rho1 on the positive eigenspace
    # succeeds with 1/2 + (1/2) * (sum of positive eigenvalues), which
    # equals the Helstrom value only if the spectrum sums to 0.
    measured = 0.5 + 0.5 * float(delta.sum(where=delta > 0))
    k_norm = float(np.abs(delta, out=delta).sum())
    p_correct = 0.5 + 0.25 * k_norm

    # Link 1's sides differ by (1/4) * ((sum mu)**k - 1), and sum mu - 1 is
    # F * (sum spec - 1): allow the drift from 1 the input was accepted with.
    drift = abs(float(spectrum.sum()) - 1.0)
    helstrom_slack = ORACLE_TOL + 0.25 * math.expm1(k * math.log1p(f * drift))

    links = (
        ChainLink("helstrom_value", measured, p_correct, abs(measured - p_correct) <= helstrom_slack),
        ChainLink("tensor_subadditivity", k_norm, k * single_norm, k_norm <= k * single_norm + ORACLE_TOL),
        ChainLink("noise_scaling", single_norm, f * base_norm, abs(single_norm - f * base_norm) <= ORACLE_TOL),
        ChainLink("distance_cap", base_norm, 2.0, base_norm <= 2.0 + ORACLE_TOL),
        ChainLink("correctness_cap", p_correct, 0.5 + k * f / 2.0, p_correct <= 0.5 + k * f / 2.0 + ORACLE_TOL),
    )
    return ChainReport(rho.width, int(k), f, p_correct, links)
