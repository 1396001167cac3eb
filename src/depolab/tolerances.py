"""Central numeric tolerances.

Two regimes, kept deliberately apart:

* EXACT_TOL guards identities that hold by construction (norms, trace,
  probability sums, algebraic rearrangements of the same computation).
  Violations at this level mean a bug, not numerical noise.  Simulated
  states add statevector.GATE_ROUNDOFF per gate, a round-off bound.
* ORACLE_TOL compares two independent computation routes (gate-kernel
  simulation vs dense matrix products, eigenvalue-based norms vs closed
  forms); the looser value absorbs honest round-off divergence.

EIG_FLOOR is the slack below zero an eigenvalue of a density matrix may
show after a finite-precision eigendecomposition.
"""

EXACT_TOL = 1e-12
ORACLE_TOL = 1e-10
EIG_FLOOR = -1e-10
