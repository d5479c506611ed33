"""Finite-field scalars and dense linear algebra on mixed-radix qudit registers.

Everything here is exact-at-double-precision: dense complex arrays, no
sparsity, no approximation.  Wire 0 is the most significant digit in all
index arithmetic, matching `numpy.reshape` with C ordering.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

# Tolerance hierarchy: exact algebra, eigenvalue positivity.
ATOL = 1e-9
EIG_ATOL = 1e-7

# Refuse registers larger than this many amplitudes unless overridden.
DEFAULT_DIM_CAP = 2 ** 24


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, int(math.isqrt(n)) + 1):
        if n % p == 0:
            return False
    return True


class FieldElement:
    """An element of the prime field F_q."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        if not is_prime(modulus):
            raise ValueError(f"modulus {modulus} is not prime")
        self.value = int(value) % modulus
        self.modulus = modulus

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.modulus != self.modulus:
                raise ValueError("mixed moduli")
            return other
        return FieldElement(int(other), self.modulus)

    def __add__(self, other):
        o = self._coerce(other)
        return FieldElement(self.value + o.value, self.modulus)

    def __sub__(self, other):
        o = self._coerce(other)
        return FieldElement(self.value - o.value, self.modulus)

    def __mul__(self, other):
        o = self._coerce(other)
        return FieldElement(self.value * o.value, self.modulus)

    def __neg__(self):
        return FieldElement(-self.value, self.modulus)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.value == other.value and self.modulus == other.modulus
        if isinstance(other, int):
            return self.value == other % self.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"FieldElement({self.value}, mod {self.modulus})"


def field_inv(a: FieldElement) -> FieldElement:
    """Multiplicative inverse in F_q."""
    if a.value == 0:
        raise ValueError("zero has no inverse")
    return FieldElement(pow(a.value, -1, a.modulus), a.modulus)


def inv_mod(a: int, q: int) -> int:
    """Inverse of a nonzero residue, plain-int convenience form."""
    if a % q == 0:
        raise ValueError("zero has no inverse")
    return pow(a, -1, q)


class RegisterShape:
    """Ordered list of per-wire dimensions; wire 0 is most significant."""

    __slots__ = ("dims", "dim")

    def __init__(self, dims: Iterable[int], dim_cap: int | None = None):
        dims = tuple(int(d) for d in dims)
        if not dims:
            raise ValueError("empty register")
        for d in dims:
            if not is_prime(d):
                raise ValueError(f"wire dimension {d} is not prime")
        dim = 1
        for d in dims:
            dim *= d
        cap = DEFAULT_DIM_CAP if dim_cap is None else dim_cap
        if dim > cap:
            raise ValueError(f"total dimension {dim} exceeds cap {cap}")
        self.dims = dims
        self.dim = dim

    @property
    def num_wires(self) -> int:
        return len(self.dims)

    def index_to_digits(self, index: int) -> tuple[int, ...]:
        digits = []
        for d in reversed(self.dims):
            digits.append(index % d)
            index //= d
        return tuple(reversed(digits))

    def digits_to_index(self, digits: Sequence[int]) -> int:
        if len(digits) != len(self.dims):
            raise ValueError("digit count mismatch")
        index = 0
        for g, d in zip(digits, self.dims):
            if not 0 <= g < d:
                raise ValueError(f"digit {g} out of range for dim {d}")
            index = index * d + g
        return index

    def concat(self, other: "RegisterShape") -> "RegisterShape":
        return RegisterShape(self.dims + other.dims)

    def subshape(self, wires: Sequence[int]) -> "RegisterShape":
        return RegisterShape(tuple(self.dims[w] for w in wires))

    def __eq__(self, other):
        return isinstance(other, RegisterShape) and self.dims == other.dims

    def __hash__(self):
        return hash(self.dims)

    def __repr__(self):
        return f"RegisterShape{self.dims}"


def _check_wires(shape: RegisterShape, wires: Sequence[int]) -> tuple[int, ...]:
    wires = tuple(int(w) for w in wires)
    if len(set(wires)) != len(wires):
        raise ValueError("repeated wire")
    for w in wires:
        if not 0 <= w < shape.num_wires:
            raise ValueError(f"wire {w} out of range")
    return wires


class StateVector:
    """Pure state over a register, dense complex amplitudes."""

    __slots__ = ("shape", "amplitudes")

    def __init__(self, shape: RegisterShape, amplitudes: np.ndarray,
                 check_norm: bool = True):
        amplitudes = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        if amplitudes.size != shape.dim:
            raise ValueError("amplitude count does not match shape")
        if check_norm:
            nrm2 = float(np.vdot(amplitudes, amplitudes).real)
            if abs(nrm2 - 1.0) > 1e-9:
                raise ValueError(f"state not normalized: |psi|^2 = {nrm2}")
        self.shape = shape
        self.amplitudes = amplitudes

    def to_density(self) -> "DensityMatrix":
        a = self.amplitudes
        return DensityMatrix(self.shape, np.outer(a, a.conj()), check_psd=False)

    def __repr__(self):
        return f"StateVector(dims={self.shape.dims})"


class DensityMatrix:
    """Mixed state over a register."""

    __slots__ = ("shape", "entries")

    def __init__(self, shape: RegisterShape, entries: np.ndarray,
                 check_psd: bool = True):
        entries = np.asarray(entries, dtype=np.complex128)
        if entries.shape != (shape.dim, shape.dim):
            raise ValueError("entry matrix does not match shape")
        if not np.allclose(entries, entries.conj().T, atol=ATOL):
            raise ValueError("density matrix not Hermitian")
        tr = complex(np.trace(entries))
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"density matrix trace {tr} != 1")
        if check_psd:
            lo = float(np.linalg.eigvalsh(entries)[0])
            if lo < -EIG_ATOL:
                raise ValueError(f"negative eigenvalue {lo}")
        self.shape = shape
        self.entries = entries

    def __repr__(self):
        return f"DensityMatrix(dims={self.shape.dims})"


class UnitaryMatrix:
    """Unitary operator over a register."""

    __slots__ = ("shape", "entries")

    def __init__(self, shape: RegisterShape, entries: np.ndarray,
                 check_unitary: bool = True):
        entries = np.asarray(entries, dtype=np.complex128)
        if entries.shape != (shape.dim, shape.dim):
            raise ValueError("entry matrix does not match shape")
        if check_unitary:
            gram = entries.conj().T @ entries
            if not np.allclose(gram, np.eye(shape.dim), atol=1e-9):
                raise ValueError("matrix is not unitary")
        self.shape = shape
        self.entries = entries

    def dagger(self) -> "UnitaryMatrix":
        return UnitaryMatrix(self.shape, self.entries.conj().T,
                             check_unitary=False)

    def __repr__(self):
        return f"UnitaryMatrix(dims={self.shape.dims})"


def basis_state(shape: RegisterShape, digits: Sequence[int]) -> StateVector:
    """Computational basis state |digits>."""
    amps = np.zeros(shape.dim, dtype=np.complex128)
    amps[shape.digits_to_index(digits)] = 1.0
    return StateVector(shape, amps, check_norm=False)


def tensor(a, b):
    """Kronecker product of two states, density matrices, or unitaries."""
    if type(a) is not type(b):
        raise ValueError("tensor arguments must be the same kind")
    shape = a.shape.concat(b.shape)
    if isinstance(a, StateVector):
        return StateVector(shape, np.kron(a.amplitudes, b.amplitudes),
                           check_norm=False)
    if isinstance(a, DensityMatrix):
        return DensityMatrix(shape, np.kron(a.entries, b.entries),
                             check_psd=False)
    if isinstance(a, UnitaryMatrix):
        return UnitaryMatrix(shape, np.kron(a.entries, b.entries),
                             check_unitary=False)
    raise ValueError(f"cannot tensor {type(a).__name__}")


def _apply_raw(amps: np.ndarray, dims: tuple[int, ...], u: np.ndarray,
               wires: tuple[int, ...]) -> np.ndarray:
    """U acting on the listed wires of a flat amplitude vector."""
    n = len(dims)
    block = 1
    for w in wires:
        block *= dims[w]
    psi = amps.reshape(dims)
    rest = [i for i in range(n) if i not in wires]
    psi = np.transpose(psi, wires + tuple(rest))
    psi = psi.reshape(block, -1)
    psi = u @ psi
    psi = psi.reshape([dims[w] for w in wires] + [dims[i] for i in rest])
    inv = np.argsort(wires + tuple(rest))
    return np.transpose(psi, inv).reshape(-1)


def apply_on_wires(state, u: UnitaryMatrix, wires: Sequence[int]):
    """Apply a unitary on a subset of wires (identity elsewhere).

    States map as U|psi>, density matrices as U rho U^dag.
    """
    wires = _check_wires(state.shape, wires)
    sub = state.shape.subshape(wires)
    if u.shape.dim != sub.dim:
        raise ValueError("unitary dimension does not match listed wires")
    if isinstance(state, StateVector):
        out = _apply_raw(state.amplitudes, state.shape.dims, u.entries, wires)
        return StateVector(state.shape, out, check_norm=False)
    if isinstance(state, DensityMatrix):
        full = embed_unitary(u, wires, state.shape).entries
        return DensityMatrix(state.shape, full @ state.entries @ full.conj().T,
                             check_psd=False)
    raise ValueError(f"cannot apply unitary to {type(state).__name__}")


def embed_unitary(u: UnitaryMatrix, wires: Sequence[int],
                  shape: RegisterShape) -> UnitaryMatrix:
    """Extend u by identity to the full register."""
    wires = _check_wires(shape, wires)
    n = shape.num_wires
    rest = [i for i in range(n) if i not in wires]
    rest_dim = 1
    for i in rest:
        rest_dim *= shape.dims[i]
    big = np.kron(u.entries, np.eye(rest_dim))
    # big acts on order (wires..., rest...); permute rows and columns back
    order = wires + tuple(rest)
    perm_shape = [shape.dims[i] for i in order]
    inv = np.argsort(order)
    idx = np.arange(shape.dim).reshape(perm_shape)
    idx = np.transpose(idx, inv).reshape(-1)
    # idx[j] = row of `big` corresponding to register index j
    out = big[np.ix_(idx, idx)]
    return UnitaryMatrix(shape, out, check_unitary=False)


def measurement_probabilities(state: StateVector,
                              wires: Sequence[int]) -> np.ndarray:
    """Born distribution over outcomes of the listed wires (flattened)."""
    wires = _check_wires(state.shape, wires)
    dims = state.shape.dims
    psi = state.amplitudes.reshape(dims)
    rest = tuple(i for i in range(len(dims)) if i not in wires)
    probs = np.abs(psi) ** 2
    if rest:
        probs = probs.sum(axis=rest)
    # axes of probs are now in wire order sorted ascending; permute to `wires`
    kept_sorted = tuple(sorted(wires))
    perm = [kept_sorted.index(w) for w in wires]
    probs = np.transpose(probs, perm)
    return probs.reshape(-1)


def project_wires(state: StateVector, wires: Sequence[int],
                  outcome: Sequence[int]) -> tuple[float, StateVector]:
    """Project the listed wires onto |outcome> and renormalize.

    Returns (probability, post_state).  Zero-probability branches raise.
    """
    wires = _check_wires(state.shape, wires)
    dims = state.shape.dims
    psi = state.amplitudes.reshape(dims)
    sl = [slice(None)] * len(dims)
    for w, o in zip(wires, outcome):
        if not 0 <= o < dims[w]:
            raise ValueError("outcome digit out of range")
        sl[w] = o
    branch = np.zeros_like(psi)
    branch[tuple(sl)] = psi[tuple(sl)]
    prob = float(np.vdot(branch, branch).real)
    if prob < 1e-12:
        raise ValueError("projection onto a numerically zero branch")
    post = branch.reshape(-1) / math.sqrt(prob)
    return prob, StateVector(state.shape, post, check_norm=False)


def measure_wires(state: StateVector, wires: Sequence[int],
                  rng: np.random.Generator
                  ) -> tuple[tuple[int, ...], StateVector]:
    """Standard-basis measurement of the listed wires.

    Samples from the Born distribution using rng; the same seed replays
    the same outcome.  Returns (outcome digits, renormalized post-state).
    """
    wires = _check_wires(state.shape, wires)
    probs = measurement_probabilities(state, wires)
    total = probs.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"probabilities sum to {total}")
    flat = int(rng.choice(len(probs), p=probs / total))
    sub = state.shape.subshape(wires)
    outcome = sub.index_to_digits(flat)
    _, post = project_wires(state, wires, outcome)
    return outcome, post


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out every wire not in `keep`; kept wires stay in listed order."""
    keep = _check_wires(rho.shape, keep)
    dims = rho.shape.dims
    n = len(dims)
    rest = tuple(i for i in range(n) if i not in keep)
    t = rho.entries.reshape(dims + dims)
    # pair up bra/ket axes of each traced wire
    for k, w in enumerate(rest):
        t = np.trace(t, axis1=w - k, axis2=w - k + n - k)
    # remaining axes follow ascending wire order; permute to `keep`
    kept_sorted = tuple(sorted(keep))
    perm = [kept_sorted.index(w) for w in keep]
    m = len(keep)
    t = np.transpose(t, perm + [m + p for p in perm])
    d = 1
    for w in keep:
        d *= dims[w]
    out = t.reshape(d, d)
    return DensityMatrix(rho.shape.subshape(keep), out, check_psd=False)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of (a - b)."""
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    diff = a.entries - b.entries
    eig = np.linalg.eigvalsh(diff)
    return float(0.5 * np.abs(eig).sum())


def state_fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, the phase-blind comparison for pure states."""
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def make_rng(seed: int | None = None) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

