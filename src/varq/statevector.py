"""Dense complex statevector.

Conventions used everywhere in this package:

* Qubit 0 is the MOST significant bit of the basis index. A q-qubit
  amplitude array reshaped to [2]*q therefore has qubit j on axis j.
* Amplitudes are complex128; callers may treat states as immutable.
* A state's qubit count q is read from its length 2^q, never passed in.
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
    """Pure state as a 1-D array of finite amplitudes. Its length 2^q
    fixes the qubit count q."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or not amps.size or amps.size & (amps.size - 1):
            raise ConfigurationError(
                f"amplitude array of shape {amps.shape} is not 1-D with a power-of-two length"
            )
        if not np.isfinite(amps).all():
            raise ConfigurationError("amplitude array contains non-finite values")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1
