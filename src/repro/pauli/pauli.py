"""Concrete n-qubit Pauli operators in symplectic representation.

A Pauli operator is stored as a pair of bit vectors ``x`` and ``z`` together
with a phase exponent ``t`` so that the operator equals

    i^t * X^{x_1} Z^{z_1}  tensor ... tensor  X^{x_n} Z^{z_n}.

With this convention ``Y = i X Z`` is represented by ``x=1, z=1, t=1``.  The
symplectic representation makes products, commutation checks and conjugation
by Clifford gates cheap bit operations, which is what the stabilizer tableau
simulator and the stabilizer-group machinery build on.

Each operator also carries its ``x``/``z`` vectors packed into two ints
(``x_mask``/``z_mask``, bit ``j`` = qubit ``j``), computed once at
construction.  Commutation, product phases, weights and Y counts are popcounts
over these masks, so they cost a few word operations at any qubit count.  The
tuples stay the public representation every other module reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.bitmatrix import gf2_pack, gf2_unpack

__all__ = ["PauliOperator", "pauli_from_label", "single_qubit_pauli"]

_LABEL_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_XZ_TO_LABEL = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
# Phase exponent of i contributed by writing the single-qubit operator in
# X^x Z^z form: Y = i * X Z, so the label "Y" carries an extra factor i.
_LABEL_PHASE = {"I": 0, "X": 0, "Y": 1, "Z": 0}


@dataclass(frozen=True)
class PauliOperator:
    """An n-qubit Pauli operator ``i^phase * prod_j X_j^{x_j} Z_j^{z_j}``."""

    x: tuple[int, ...]
    z: tuple[int, ...]
    phase: int = 0  # exponent of i, modulo 4
    x_mask: int = field(init=False, repr=False, compare=False)
    z_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.x) != len(self.z):
            raise ValueError("x and z bit vectors must have equal length")
        x_bits, z_bits = _bit_bytes(self.x), _bit_bytes(self.z)
        object.__setattr__(self, "x", tuple(x_bits))
        object.__setattr__(self, "z", tuple(z_bits))
        object.__setattr__(self, "phase", int(self.phase) % 4)
        object.__setattr__(self, "x_mask", gf2_pack(x_bits))
        object.__setattr__(self, "z_mask", gf2_pack(z_bits))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def identity(num_qubits: int) -> "PauliOperator":
        """The identity operator on ``num_qubits`` qubits."""
        return PauliOperator((0,) * num_qubits, (0,) * num_qubits, 0)

    @staticmethod
    def from_label(label: str, phase: int = 0) -> "PauliOperator":
        """Build an operator from a string such as ``"XIZZY"``."""
        x_bits = []
        z_bits = []
        extra_phase = 0
        for char in label:
            if char not in _LABEL_TO_XZ:
                raise ValueError(f"invalid Pauli label character {char!r}")
            xb, zb = _LABEL_TO_XZ[char]
            x_bits.append(xb)
            z_bits.append(zb)
            extra_phase += _LABEL_PHASE[char]
        return PauliOperator(tuple(x_bits), tuple(z_bits), phase + extra_phase)

    @staticmethod
    def from_sparse(num_qubits: int, terms: dict[int, str], phase: int = 0) -> "PauliOperator":
        """Build an operator from ``{qubit_index: "X"|"Y"|"Z"}`` (0-based)."""
        labels = ["I"] * num_qubits
        for qubit, pauli in terms.items():
            if not 0 <= qubit < num_qubits:
                raise ValueError(f"qubit index {qubit} out of range for {num_qubits} qubits")
            labels[qubit] = pauli
        return PauliOperator.from_label("".join(labels), phase)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return len(self.x)

    @property
    def weight(self) -> int:
        """Number of qubits on which the operator acts non-trivially."""
        return (self.x_mask | self.z_mask).bit_count()

    @property
    def _y_count(self) -> int:
        return (self.x_mask & self.z_mask).bit_count()

    @property
    def sign(self) -> complex:
        """The global phase as a complex number (one of 1, i, -1, -i)."""
        return 1j ** self.phase

    def is_hermitian(self) -> bool:
        """Hermitian Paulis have phase +1 or -1 once the Y factors are absorbed."""
        return (self.phase - self._y_count) % 2 == 0

    def label(self) -> str:
        """Human-readable label, e.g. ``"-XZY"``; the phase prefix is one of '', '-', 'i', '-i'."""
        display_phase = (self.phase - self._y_count) % 4
        prefix = {0: "", 1: "i", 2: "-", 3: "-i"}[display_phase]
        body = "".join(_XZ_TO_LABEL[(xb, zb)] for xb, zb in zip(self.x, self.z))
        return prefix + body

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PauliOperator({self.label()!r})"

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        if len(self.x) != len(other.x):
            raise ValueError("cannot multiply Pauli operators on different qubit counts")
        # (X^a Z^b)(X^c Z^d) = (-1)^{b·c} X^{a+c} Z^{b+d}; (-1) = i^2.
        anticommutations = (self.z_mask & other.x_mask).bit_count()
        new_x = gf2_unpack(self.x_mask ^ other.x_mask, len(self.x))
        new_z = gf2_unpack(self.z_mask ^ other.z_mask, len(self.z))
        new_phase = self.phase + other.phase + 2 * anticommutations
        return PauliOperator(new_x, new_z, new_phase)

    def __neg__(self) -> "PauliOperator":
        return PauliOperator(self.x, self.z, self.phase + 2)

    def adjoint(self) -> "PauliOperator":
        """Hermitian adjoint (conjugate transpose)."""
        # The bare X^x Z^z part transposes to Z^z X^x = (-1)^{x·z} X^x Z^z.
        return PauliOperator(self.x, self.z, -self.phase + 2 * self._y_count)

    def commutes_with(self, other: "PauliOperator") -> bool:
        """Whether the two operators commute (symplectic inner product is 0)."""
        if len(self.x) != len(other.x):
            raise ValueError("cannot compare Pauli operators on different qubit counts")
        inner = (self.x_mask & other.z_mask) ^ (self.z_mask & other.x_mask)
        return inner.bit_count() & 1 == 0

    @property
    def symplectic_mask(self) -> int:
        """:meth:`symplectic_vector` packed into an int (bit ``c`` = entry ``c``)."""
        return self.x_mask | (self.z_mask << len(self.x))

    def symplectic_vector(self) -> np.ndarray:
        """The length-2n vector ``[x | z]`` over GF(2)."""
        return np.array(list(self.x) + list(self.z), dtype=np.uint8)

    @staticmethod
    def from_symplectic(vector, phase: int = 0) -> "PauliOperator":
        """Inverse of :meth:`symplectic_vector`."""
        arr = np.asarray(vector, dtype=np.int64).reshape(-1) % 2
        if arr.size % 2 != 0:
            raise ValueError("symplectic vector must have even length")
        half = arr.size // 2
        return PauliOperator(tuple(arr[:half]), tuple(arr[half:]), phase)

    # ------------------------------------------------------------------
    # Dense matrix (small systems only, for ground-truth tests)
    # ------------------------------------------------------------------
    def to_matrix(self) -> np.ndarray:
        """Dense matrix of the operator; exponential in qubit count."""
        single = {
            "I": np.eye(2, dtype=complex),
            "X": np.array([[0, 1], [1, 0]], dtype=complex),
            "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
            "Z": np.array([[1, 0], [0, -1]], dtype=complex),
        }
        result = np.array([[1.0 + 0j]])
        y_count = 0
        for xb, zb in zip(self.x, self.z):
            label = _XZ_TO_LABEL[(xb, zb)]
            if label == "Y":
                y_count += 1
            result = np.kron(result, single[label])
        return (1j ** ((self.phase - y_count) % 4)) * result


def _bit_bytes(values) -> bytes:
    """``values`` reduced modulo 2, one byte per entry.

    Tuples, lists and bytes of 0/1 ints (the common case) convert in C; any
    other input falls back to ``int(v) % 2`` per entry.
    """
    if isinstance(values, (tuple, list, bytes)):
        try:
            raw = bytes(values)
        except (TypeError, ValueError):  # floats, strings, negative or wide ints
            pass
        else:
            if not raw.translate(None, b"\x00\x01"):  # every entry is 0 or 1
                return raw
    return bytes(int(v) % 2 for v in values)


def single_qubit_pauli(num_qubits: int, qubit: int, pauli: str) -> PauliOperator:
    """Convenience constructor for an elementary ``X_r``, ``Y_r`` or ``Z_r``."""
    return PauliOperator.from_sparse(num_qubits, {qubit: pauli})


def pauli_from_label(label: str) -> PauliOperator:
    """Parse labels like ``"XXIZ"``, ``"-YZ"``, ``"iX"`` or ``"+ZZ"``."""
    phase = 0
    body = label
    if body.startswith("+"):
        body = body[1:]
    if body.startswith("-i"):
        phase, body = 3, body[2:]
    elif body.startswith("i"):
        phase, body = 1, body[1:]
    elif body.startswith("-"):
        phase, body = 2, body[1:]
    return PauliOperator.from_label(body, phase)
