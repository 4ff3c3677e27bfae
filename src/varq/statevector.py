"""Dense complex statevector.

Conventions used everywhere in this package:

* Qubit 0 is the MOST significant bit of the basis index. A q-qubit
  amplitude array reshaped to [2]*q therefore has qubit j on axis j.
* Amplitudes are complex128; callers may treat states as immutable.
* Circuits run on stacks of amplitude arrays, one circuit matrix per
  angle vector (`ansatz`). The gate-by-gate form of the same circuit
  lives only in the test oracles, as the reference the matrix path is
  checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of `num_qubits` qubits as a length-2^n array of finite
    amplitudes."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.num_qubits < 0:
            raise ConfigurationError(f"negative qubit count {self.num_qubits}")
        if amps.ndim != 1 or amps.shape[0] != 1 << self.num_qubits:
            raise ConfigurationError(
                f"amplitude array of length {amps.shape} does not match "
                f"{self.num_qubits} qubits (expected {1 << self.num_qubits})"
            )
        if not np.isfinite(amps).all():
            raise ConfigurationError("amplitude array contains non-finite values")
        object.__setattr__(self, "amplitudes", amps)
