"""Independent reference implementations used to verify the package.

Everything here is written the slow, obvious way on purpose: gate
records applied one gate at a time, dense matrices assembled with
Kronecker products, explicit double-sum partial traces, and direct
index arithmetic. Nothing shares code or a circuit definition with the
package under test; agreement between the two is the point of the
tests that import this module.

Convention (same as the package): qubit 0 is the most significant bit
of the basis index, so in a Kronecker product it is the leftmost factor.
"""

from dataclasses import dataclass

import numpy as np

from varq import IrisTable

I2 = np.eye(2, dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
KET0_BRA1 = np.array([[0, 1], [0, 0]], dtype=complex)
KET1_BRA0 = np.array([[0, 0], [1, 0]], dtype=complex)
H1 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
X1 = np.array([[0, 1], [1, 0]], dtype=complex)
Z1 = np.array([[1, 0], [0, -1]], dtype=complex)


def ry_matrix(angle):
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(angle):
    return np.array(
        [[np.exp(-0.5j * angle), 0], [0, np.exp(0.5j * angle)]], dtype=complex
    )


def kron_place(n, factors):
    """Kronecker product over qubits 0..n-1 with qubit 0 leftmost.

    `factors` maps qubit index to its 2x2 factor; unmentioned qubits get
    the identity.
    """
    out = np.array([[1.0 + 0j]])
    for q in range(n):
        out = np.kron(out, factors.get(q, I2))
    return out


def dense_gate_matrix(n, kind, targets, controls=(), angle=None):
    """Full 2^n x 2^n unitary for one primitive gate."""
    kind = kind.upper()
    if kind == "H":
        return kron_place(n, {targets[0]: H1})
    if kind == "X":
        return kron_place(n, {targets[0]: X1})
    if kind == "RY":
        return kron_place(n, {targets[0]: ry_matrix(angle)})
    if kind == "RZ":
        return kron_place(n, {targets[0]: rz_matrix(angle)})
    if kind == "CNOT":
        c, t = controls[0], targets[0]
        return kron_place(n, {c: P0}) + kron_place(n, {c: P1, t: X1})
    if kind == "CZ":
        c, t = controls[0], targets[0]
        return kron_place(n, {c: P0}) + kron_place(n, {c: P1, t: Z1})
    if kind == "CSWAP":
        c = controls[0]
        a, b = targets
        return (
            kron_place(n, {c: P0})
            + kron_place(n, {c: P1, a: P0, b: P0})
            + kron_place(n, {c: P1, a: P1, b: P1})
            + kron_place(n, {c: P1, a: KET0_BRA1, b: KET1_BRA0})
            + kron_place(n, {c: P1, a: KET1_BRA0, b: KET0_BRA1})
        )
    raise ValueError(f"no dense oracle for gate kind {kind!r}")


# kind: (n_targets, n_controls, takes_angle)
GATE_ARITY = {
    "H": (1, 0, False),
    "X": (1, 0, False),
    "RY": (1, 0, True),
    "RZ": (1, 0, True),
    "CNOT": (1, 1, False),
    "CZ": (1, 1, False),
    "CSWAP": (2, 1, False),
}


@dataclass(frozen=True)
class GateOp:
    """A single primitive gate: kind, targets, optional controls, optional angle."""

    kind: str
    targets: tuple
    controls: tuple = ()
    angle: float = None

    def __post_init__(self):
        if self.kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        n_t, n_c, takes_angle = GATE_ARITY[self.kind]
        if len(self.targets) != n_t or len(self.controls) != n_c:
            raise ValueError(
                f"{self.kind} expects {n_t} target(s) and {n_c} control(s), "
                f"got {self.targets} / {self.controls}"
            )
        if takes_angle != (self.angle is not None):
            raise ValueError(f"{self.kind}: angle mismatch ({self.angle})")
        qubits = self.targets + self.controls
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"{self.kind}: repeated qubit index in {qubits}")

    # Constructors, named after the circuit-diagram reading of each gate.
    @staticmethod
    def h(q):
        return GateOp("H", (q,))

    @staticmethod
    def x(q):
        return GateOp("X", (q,))

    @staticmethod
    def ry(q, angle):
        return GateOp("RY", (q,), angle=float(angle))

    @staticmethod
    def cnot(control, target):
        return GateOp("CNOT", (target,), (control,))

    @staticmethod
    def cz(a, b):
        return GateOp("CZ", (b,), (a,))

    @staticmethod
    def cswap(control, a, b):
        return GateOp("CSWAP", (a, b), (control,))


def ansatz_gates(spec, theta, data_qubits):
    """The ansatz as GateOp records on `data_qubits`, written out from
    spec.k and spec.layers alone: per layer, RY(theta[layer*k + q]) on
    each qubit q, then CZ on each ring pair (none at k = 1, the single
    pair (0, 1) at k = 2, (q, q+1 mod k) for every q from k = 3)."""
    k, layers = spec.k, spec.layers
    theta = np.asarray(getattr(theta, "values", theta), dtype=float)
    data_qubits = list(data_qubits)
    if len(data_qubits) != k:
        raise ValueError(f"ansatz spans {k} qubits, got {len(data_qubits)} data qubits")
    if theta.shape != (k * layers,):
        raise ValueError(f"theta has shape {theta.shape}, ansatz needs ({k * layers},)")
    if k == 1:
        ring = []
    elif k == 2:
        ring = [(0, 1)]
    else:
        ring = [(q, (q + 1) % k) for q in range(k)]
    gates = []
    for layer in range(layers):
        for q in range(k):
            gates.append(GateOp.ry(data_qubits[q], theta[layer * k + q]))
        for a, b in ring:
            gates.append(GateOp.cz(data_qubits[a], data_qubits[b]))
    return gates


def basis_state(n, index):
    """The computational basis state |index> on n qubits."""
    if not 0 <= index < (1 << n):
        raise ValueError(f"basis index {index} out of range for {n} qubits")
    amps = np.zeros(1 << n, dtype=complex)
    amps[index] = 1.0
    return amps


def gate_matrix(n, gate):
    """Adapter from a GateOp value to the dense oracle."""
    return dense_gate_matrix(n, gate.kind, gate.targets, gate.controls, gate.angle)


def circuit_matrix(n, gates):
    mat = np.eye(1 << n, dtype=complex)
    for g in gates:
        mat = gate_matrix(n, g) @ mat
    return mat


def brute_force_partial_trace(amps, n, keep):
    """rho[a, b] = sum_e psi[j(a, e)] conj(psi[j(b, e)]).

    j(a, e) splices the bits of the kept index a (first kept qubit most
    significant) and the traced-out index e back into their original
    positions, one bit at a time.
    """
    keep = list(keep)
    if not keep or len(set(keep)) != len(keep) or not all(0 <= q < n for q in keep):
        raise ValueError(f"keep must list distinct qubits in 0..{n - 1}, got {keep}")
    rest = [q for q in range(n) if q not in keep]
    dim_keep, dim_rest = 1 << len(keep), 1 << len(rest)

    def assemble(kept_index, rest_index):
        j = 0
        for pos, q in enumerate(keep):
            bit = (kept_index >> (len(keep) - 1 - pos)) & 1
            j |= bit << (n - 1 - q)
        for pos, q in enumerate(rest):
            bit = (rest_index >> (len(rest) - 1 - pos)) & 1
            j |= bit << (n - 1 - q)
        return j

    rho = np.zeros((dim_keep, dim_keep), dtype=complex)
    for a in range(dim_keep):
        for b in range(dim_keep):
            acc = 0j
            for e in range(dim_rest):
                acc += amps[assemble(a, e)] * np.conj(amps[assemble(b, e)])
            rho[a, b] = acc
    return rho


def amplitude_placement(cells, n):
    """Data-state amplitudes by direct index arithmetic:
    out[x * 2^n + i] = cells[i][x] / sqrt(2^n)."""
    dim_data = len(cells[0])
    out = np.zeros(dim_data * (1 << n), dtype=complex)
    scale = 1.0 / np.sqrt(1 << n)
    for i, cell in enumerate(cells):
        for x in range(dim_data):
            out[x * (1 << n) + i] = cell[x] * scale
    return out


def project_controls(amps, k, n, address):
    """Data-register amplitudes conditioned on the control register
    reading `address`, renormalized."""
    sub = np.array([amps[x * (1 << n) + address] for x in range(1 << k)])
    return sub / np.linalg.norm(sub)


def label_state_vector(n):
    """The label state as an explicit basis-vector sum: data bit 0 over
    the lower address half, 1 over the upper half, uniform weights."""
    out = np.zeros(2 << n, dtype=complex)
    for i in range(1 << n):
        bit = 0 if i < (1 << (n - 1)) else 1
        out[bit * (1 << n) + i] = 1.0
    return out / np.linalg.norm(out)


def swap_test_p_zero(data_amps, data_qubits, readout, controls, label_amps):
    """Ancilla-zero probability from the reduced-state formula
    (1 + Tr(rho_sub |phi><phi|)) / 2."""
    rho = brute_force_partial_trace(data_amps, data_qubits, [readout] + list(controls))
    fidelity = np.real(np.conj(label_amps) @ rho @ label_amps)
    return 0.5 * (1.0 + fidelity)


def probability(amps, qubit, outcome):
    """Probability that a Z measurement of `qubit` reads `outcome`: the
    squared norm of the amplitudes whose index has that bit value."""
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")
    amps = np.asarray(amps)
    n = len(amps).bit_length() - 1
    bits = (np.arange(len(amps)) >> (n - 1 - qubit)) & 1
    return float(np.sum(np.abs(amps[bits == outcome]) ** 2))


def random_state(rng, n):
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return v / np.linalg.norm(v)


def random_real_state(rng, n):
    v = rng.standard_normal(1 << n)
    return (v / np.linalg.norm(v)).astype(complex)


def swap_test_circuit_p_zero(data_amps, data_qubits, readout, controls, label_amps):
    """Ancilla-zero probability of the gate-level swap test.

    The joint register is the ancilla (qubit 0), the data state, then the
    label state, built as a Kronecker product. H on the ancilla, one CSWAP
    per compared pair (the readout with label qubit 0, control j with
    label qubit 1 + j), H again, then read the ancilla. A CSWAP controlled
    by the ancilla exchanges the two qubit axes in its |1> branch.
    """
    label_qubits = len(label_amps).bit_length() - 1
    total = 1 + data_qubits + label_qubits
    joint = np.kron(np.kron([1.0, 0.0], data_amps), label_amps).reshape([2] * total)

    def hadamard_on_ancilla(t):
        return np.stack([t[0] + t[1], t[0] - t[1]]) / np.sqrt(2.0)

    joint = hadamard_on_ancilla(joint)
    pairs = [(readout, data_qubits)] + [
        (c, data_qubits + 1 + j) for j, c in enumerate(controls)
    ]
    for a, b in pairs:
        # Axes of joint[1] are the joint qubits shifted down by the ancilla.
        joint[1] = np.swapaxes(joint[1], a, b).copy()
    joint = hadamard_on_ancilla(joint)
    return float(np.sum(np.abs(joint[0]) ** 2))


def apply_gates_local(amps, n, gates):
    """Apply GateOp values one at a time to an n-qubit state.

    Each gate's matrix is built over its own qubits only (controls first)
    and contracted with those axes, so no 2^n x 2^n matrix is formed.
    """
    psi = np.asarray(amps, dtype=complex).reshape([2] * n)
    for g in gates:
        qubits = list(g.controls) + list(g.targets)
        if not all(0 <= q < n for q in qubits):
            raise ValueError(f"gate {g} acts outside qubits 0..{n - 1}")
        m = len(qubits)
        local = dense_gate_matrix(
            m, g.kind, tuple(range(len(g.controls), m)), tuple(range(len(g.controls))), g.angle
        ).reshape([2] * (2 * m))
        psi = np.tensordot(local, psi, axes=(list(range(m, 2 * m)), qubits))
        psi = np.moveaxis(psi, list(range(m)), qubits)
    return psi.reshape(-1)


def gate_level_loss(cells, n, gates, readout):
    """1 - overlap of one batch, gate by gate: place the 2^n cells by index
    arithmetic, apply the ansatz gates, run the CSWAP swap-test circuit
    against the label state."""
    k = len(cells[0]).bit_length() - 1
    state = apply_gates_local(amplitude_placement(cells, n), k + n, gates)
    controls = list(range(k, k + n))
    p_zero = swap_test_circuit_p_zero(state, k + n, readout, controls, label_state_vector(n))
    return 2.0 - 2.0 * p_zero


def probe_angles(theta, epsilon):
    """The 2P+1 angle vectors of one central-difference gradient, as rows:
    theta, then theta + eps*e_j and theta - eps*e_j for j = 0..P-1."""
    theta = np.asarray(theta, dtype=float)
    probes = np.repeat(theta[None, :], 2 * len(theta) + 1, axis=0)
    for j in range(len(theta)):
        probes[1 + 2 * j, j] += epsilon
        probes[2 + 2 * j, j] -= epsilon
    return probes


def probe_row_losses(matrix_of, means, spec, theta, epsilon):
    """1 - overlap of one batch at each of the 2P+1 probe angles
    (probe_angles), each from its own circuit matrix matrix_of(spec,
    angles), the package's circuit matrix that the tests check against the
    gate list. The swap test compares class 0 at readout bit 0 with class
    1 at readout bit 1, the readout being data qubit 0:
    overlap = 1/4 * sum_e |out_0[0, e] + out_1[1, e]|^2 over the other
    data qubits e, for the class means (2, 2^k)."""
    losses = []
    for angles in probe_angles(theta, epsilon):
        out = means @ matrix_of(spec, angles).T
        grouped = out.reshape(2, 2, -1)
        amps = grouped[0, 0] + grouped[1, 1]
        losses.append(1.0 - 0.25 * np.sum(np.abs(amps) ** 2))
    return np.array(losses)


def probe_row_training(matrix_of, train_set, test_set, spec, theta0, config):
    """Exact-mode gradient descent as a plain loop over probe rows.

    Each epoch permutes the row indices of each class with one
    default_rng(config.seed + epoch), class 0 first, and batch b takes the
    b-th 2^(n-1) rows of each class. A batch's gradient is the parameter
    shift (rows[1::2] - rows[2::2]) / 2 of probe_row_losses(matrix_of,
    means, spec, theta, pi/2), one circuit matrix per probe angle, the one
    package function used here. Theta steps after every batch. Accuracy
    applies the circuit matrix of the gate list to each sample and calls
    it class 1 when p(data qubit 0 = 1) >= 1/2. Returns the final angles
    and one (loss, train accuracy, test accuracy) per epoch.
    """
    half = 1 << (config.n - 1)
    theta = np.array(theta0, dtype=float)
    classes = [np.flatnonzero(train_set.labels == c) for c in (0, 1)]
    history = []
    for epoch in range(1, config.epochs + 1):
        rng = np.random.default_rng(config.seed + epoch)
        orders = [rows[rng.permutation(len(rows))] for rows in classes]
        losses = []
        for b in range(min(len(rows) for rows in classes) // half):
            means = np.array(
                [train_set.amplitudes[order[b * half : (b + 1) * half]].mean(axis=0)
                 for order in orders]
            )
            rows = probe_row_losses(matrix_of, means, spec, theta, np.pi / 2)
            grad = (rows[1::2] - rows[2::2]) / 2.0
            losses.append(rows[0])
            theta = theta - config.learning_rate * grad
        matrix = circuit_matrix(spec.k, ansatz_gates(spec, theta, range(spec.k)))

        def accuracy(samples):
            if not len(samples):
                return None
            hits = 0
            for amps, label in zip(samples.amplitudes, samples.labels):
                p_one = probability(matrix @ amps, 0, 1)
                hits += int(p_one >= 0.5) == label
            return hits / len(samples)

        history.append((float(np.mean(losses)), accuracy(train_set), accuracy(test_set)))
    return theta, history


def expected_batch_loss(amplitudes, labels, spec, theta, n):
    """The batched loss in expectation over batches of h = 2^(n-1) rows per
    class, each class's rows drawn uniformly without replacement:

        E_n[loss] = L_centroid(theta) - 1/4 tr(A C_n)

    With U the circuit matrix of the gate list, B = [P_0 U, P_1 U] keeps
    the rows of U whose readout bit is 0, then those whose bit is 1, so a
    batch's overlap is 1/4 m^H A m with A = B^H B and m = (mu_0; mu_1),
    its two class means. E[m] is the pair of class centroids, whose loss
    is L_centroid. Cov[m] = C_n is block-diagonal, one block per class of
    M_c rows: Sigma_c / h * (M_c - h) / (M_c - 1), with Sigma_c the
    class's population covariance of amplitudes.
    """
    amplitudes, labels = np.asarray(amplitudes), np.asarray(labels)
    u = circuit_matrix(spec.k, ansatz_gates(spec, theta, range(spec.k)))
    half = 1 << (spec.k - 1)
    b = np.hstack([u[:half], u[half:]])
    a = b.conj().T @ b
    h = 1 << (n - 1)
    dim = 1 << spec.k
    centroid = np.zeros(2 * dim, dtype=complex)
    cov = np.zeros((2 * dim, 2 * dim), dtype=complex)
    for c in (0, 1):
        rows = amplitudes[labels == c]
        count = len(rows)
        if not 1 <= h <= count:
            raise ValueError(f"class {c} has {count} rows, a batch takes {h}")
        block = slice(c * dim, (c + 1) * dim)
        centroid[block] = rows.mean(axis=0)
        if h < count:
            dev = rows - centroid[block]
            sigma = dev.T @ dev.conj() / count
            cov[block, block] = sigma / h * (count - h) / (count - 1)
    centroid_loss = 1.0 - 0.25 * np.vdot(centroid, a @ centroid).real
    return float(centroid_loss - 0.25 * np.trace(a @ cov).real)


SPECIES_MEANS = {
    "setosa": (5.0, 3.4, 1.5, 0.25),
    "versicolor": (5.9, 2.8, 4.3, 1.3),
    "virginica": (6.6, 3.0, 5.6, 2.0),
}


def synthetic_iris(rows_per_species, seed):
    """Iris-like rows with no file: for each species in SPECIES_MEANS order,
    rows_per_species draws of four Gaussian features around its means with
    sigma 0.35, clipped at 0.05, all from one default_rng(seed), then
    rounded to the two decimals an Iris CSV holds. The recipe is that of
    the benchmark's `perfbench/run.py::write_iris_csv`."""
    rng = np.random.default_rng(seed)
    features = []
    for mean in SPECIES_MEANS.values():
        draws = np.maximum(rng.normal(mean, 0.35, size=(rows_per_species, 4)), 0.05)
        features += [[float(f"{v:.2f}") for v in row] for row in draws]
    species = np.repeat(list(SPECIES_MEANS), rows_per_species)
    return IrisTable(np.array(features).reshape(-1, 4), species)
