"""Dense complex statevector and the gate record type.

Conventions used everywhere in this package:

* Qubit 0 is the MOST significant bit of the basis index. A q-qubit
  amplitude array reshaped to [2]*q therefore has qubit j on axis j.
* Amplitudes are complex128; callers may treat states as immutable.
* Circuits run on stacks of amplitude arrays as one circuit matrix per
  angle vector (`ansatz`). A GateOp list (`AnsatzSpec.operations`)
  names the same circuit gate by gate; only the test oracles execute
  such lists, as the reference the stacked path is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

_GATE_ARITY = {
    # kind: (n_targets, n_controls, takes_angle)
    "H": (1, 0, False),
    "X": (1, 0, False),
    "RY": (1, 0, True),
    "RZ": (1, 0, True),
    "CNOT": (1, 1, False),
    "CZ": (1, 1, False),
    "CSWAP": (2, 1, False),
}


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of `num_qubits` qubits as a length-2^n amplitude array."""

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
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        """|0...0> on `num_qubits` qubits."""
        amps = np.zeros(1 << num_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return cls(num_qubits, amps)

    @classmethod
    def basis(cls, num_qubits: int, index: int) -> "StateVector":
        """Computational basis state |index>."""
        if not 0 <= index < (1 << num_qubits):
            raise ConfigurationError(f"basis index {index} out of range for {num_qubits} qubits")
        amps = np.zeros(1 << num_qubits, dtype=np.complex128)
        amps[index] = 1.0
        return cls(num_qubits, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class GateOp:
    """A single primitive gate: kind, targets, optional controls, optional angle."""

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in _GATE_ARITY:
            raise ConfigurationError(f"unknown gate kind {self.kind!r}")
        n_t, n_c, takes_angle = _GATE_ARITY[self.kind]
        if len(self.targets) != n_t or len(self.controls) != n_c:
            raise ConfigurationError(
                f"{self.kind} expects {n_t} target(s) and {n_c} control(s), "
                f"got {self.targets} / {self.controls}"
            )
        if takes_angle != (self.angle is not None):
            raise ConfigurationError(f"{self.kind}: angle mismatch ({self.angle})")
        qubits = self.targets + self.controls
        if len(set(qubits)) != len(qubits):
            raise ConfigurationError(f"{self.kind}: repeated qubit index in {qubits}")

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.controls + self.targets

    # Constructors, named after the circuit-diagram reading of each gate.
    @staticmethod
    def h(q: int) -> "GateOp":
        return GateOp("H", (q,))

    @staticmethod
    def x(q: int) -> "GateOp":
        return GateOp("X", (q,))

    @staticmethod
    def ry(q: int, angle: float) -> "GateOp":
        return GateOp("RY", (q,), angle=float(angle))

    @staticmethod
    def cnot(control: int, target: int) -> "GateOp":
        return GateOp("CNOT", (target,), (control,))

    @staticmethod
    def cz(a: int, b: int) -> "GateOp":
        return GateOp("CZ", (b,), (a,))

    @staticmethod
    def cswap(control: int, a: int, b: int) -> "GateOp":
        return GateOp("CSWAP", (a, b), (control,))
