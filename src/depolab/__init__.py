"""depolab: exact sampling, certification, and discrimination bounds for
globally depolarized quantum circuits.

The package simulates small circuits exactly, applies the global
depolarizing map to their output distributions, certifies how close the
result is to uniform (additively and per-outcome), builds the randomized
ancilla-flagged construction whose acceptance spike survives
depolarization, and evaluates how little k copies help in distinguishing
the depolarized state from pure noise.
"""

import os

# One OpenBLAS thread unless the user set it, before numpy loads: a threaded
# eigensolve rounds with the core count, so report bytes would vary by host.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.12.0"

from .circuits import (
    Circuit,
    Gate,
    outcome_string,
    parse_circuit,
    random_circuit,
    serialize_circuit,
)
from .construction import (
    HardnessGap,
    RandomizedCircuit,
    ThresholdReport,
    depolarized_acceptance,
    hardness_gap,
    mixture_distribution,
    sbp_thresholds,
)
from .depol import (
    CertificateReport,
    additive_certificate,
    check_fidelity,
    check_positive_int,
    check_seed,
    depolarize,
    empirical_tv,
    multiplicative_certificate,
    sorted_draws,
    tally,
)
from .discrimination import (
    ChainLink,
    ChainReport,
    DensityMatrix,
    bound_chain,
    random_density_matrix,
)
from .errors import WIDTH_CAP, CapExceeded, CircuitParseError
from .statevector import (
    Distribution,
    StateVector,
    output_distribution,
    run,
    zero_overlap,
)

__all__ = [
    "__version__",
    "CapExceeded",
    "CertificateReport",
    "ChainLink",
    "ChainReport",
    "Circuit",
    "CircuitParseError",
    "DensityMatrix",
    "Distribution",
    "Gate",
    "HardnessGap",
    "RandomizedCircuit",
    "StateVector",
    "ThresholdReport",
    "WIDTH_CAP",
    "additive_certificate",
    "bound_chain",
    "check_fidelity",
    "check_positive_int",
    "check_seed",
    "depolarize",
    "depolarized_acceptance",
    "empirical_tv",
    "hardness_gap",
    "mixture_distribution",
    "multiplicative_certificate",
    "outcome_string",
    "output_distribution",
    "parse_circuit",
    "random_circuit",
    "random_density_matrix",
    "run",
    "sbp_thresholds",
    "serialize_circuit",
    "sorted_draws",
    "tally",
    "zero_overlap",
]
