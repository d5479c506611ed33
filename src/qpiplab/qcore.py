"""Modular arithmetic and dense linear algebra on mixed-radix qudit registers.

Everything here is exact-at-double-precision: dense complex arrays, no
sparsity, no approximation.  Wire 0 is the most significant digit in all
index arithmetic, matching `numpy.reshape` with C ordering.

The public functions validate their input: register shapes, wire lists,
dimensions and outcome digits, raising `ValueError` on anything wrong.
The `_`-prefixed kernels, `_apply_raw` (one matrix-vector product when
the wires are the whole register), `_gather_raw` (a permutation gate as one
read through a memoised index) and `_measure_raw`, act on a flat amplitude
array and its dims and trust their callers: the engines validate once at
entry.  Both layers share one memoised wire plan per (dims, wires), so a
repeated call costs no list building, no `argsort` and no primality test.
A measurement also reads a memoised outcome plan per (dims, wires): each
outcome's digits and the flat indices its post-state keeps.
"""

from __future__ import annotations

import ctypes
import itertools
import math
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

# Tolerance hierarchy: exact algebra, eigenvalue positivity.
ATOL = 1e-9
EIG_ATOL = 1e-7

# Refuse registers larger than this many amplitudes unless overridden.
DEFAULT_DIM_CAP = 2 ** 24
# Refuse Haar draws above this dimension; a draw's memory grows as dim^2.
_HAAR_DIM_CAP = 4096


def _pad_the_heap_top() -> None:
    """Keep 16 MiB of freed heap for reuse (glibc's M_TOP_PAD).

    The engines free register-sized temporaries at every gate; under
    glibc's defaults those of a few hundred KB are refaulted from fresh
    pages whenever the heap top was just trimmed, which turns on where
    unrelated small allocations landed.  On a 2-core x86-64 Linux host
    the frame engine's 2-Toffoli instance (250 KB registers) so ran at
    4.4 to 6.8 ms a trial with up to 660 minor faults; padded, none.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc
        return
    mallopt(-2, 16 << 20)  # -2 is M_TOP_PAD


_pad_the_heap_top()


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, int(math.isqrt(n)) + 1):
        if n % p == 0:
            return False
    return True


def inv_mod(a: int, q: int) -> int:
    """Inverse of a nonzero residue modulo q."""
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


class _WirePlan(NamedTuple):
    """How to bring the listed wires of a register to the front and back."""

    wires: tuple[int, ...]
    rest: tuple[int, ...]       # the other wires, ascending
    order: tuple[int, ...]      # wires + rest: the forward transpose
    inverse: tuple[int, ...]    # argsort(order): the transpose back
    moved_dims: tuple[int, ...]  # dims in `order`
    block: int                  # product of the listed wires' dims
    leading: bool               # wires are 0..k-1: no transpose needed
    sort_perm: tuple[int, ...]  # ascending wire axes -> listed order
    ascending: bool             # sort_perm is the identity
    sum_axes: int | tuple[int, ...]  # rest, as numpy reduces it fastest


@lru_cache(maxsize=None)
def _wire_plan(dims: tuple[int, ...], wires: tuple[int, ...]) -> _WirePlan:
    """Validated plan for `wires` of a register with `dims`.

    A repeated or out-of-range wire raises; lru_cache does not store
    exceptions, so a bad wire list raises on every call.
    """
    if len(set(wires)) != len(wires):
        raise ValueError("repeated wire")
    for w in wires:
        if not 0 <= w < len(dims):
            raise ValueError(f"wire {w} out of range")
    rest = tuple(i for i in range(len(dims)) if i not in wires)
    order = wires + rest
    block = 1
    for w in wires:
        block *= dims[w]
    inverse = tuple(int(i) for i in np.argsort(order))
    ascending = sorted(wires)
    return _WirePlan(wires, rest, order, inverse,
                     tuple(dims[i] for i in order), block,
                     wires == tuple(range(len(wires))),
                     tuple(ascending.index(w) for w in wires),
                     list(wires) == ascending,
                     rest[0] if len(rest) == 1 else rest)


def _check_wires(shape: RegisterShape, wires: Sequence[int]) -> _WirePlan:
    """The validated plan for a public call's wires (any integer type)."""
    return _wire_plan(shape.dims, tuple(map(int, wires)))


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
    """U acting on the listed wires of a flat amplitude vector (unchecked)."""
    plan = _wire_plan(dims, wires)
    if plan.leading:
        if not plan.rest:  # the whole register: one matrix-vector product
            return u @ amps
        return (u @ amps.reshape(plan.block, -1)).reshape(-1)
    psi = amps.reshape(dims).transpose(plan.order).reshape(plan.block, -1)
    psi = (u @ psi).reshape(plan.moved_dims)
    return psi.transpose(plan.inverse).reshape(-1)


@lru_cache(maxsize=None)
def _gather_index(dims: tuple[int, ...], wires: tuple[int, ...],
                  perm: tuple[int, ...]) -> np.ndarray:
    """The read-only flat index of `_gather_raw`, from `_apply_raw`'s plan."""
    plan = _wire_plan(dims, wires)
    idx = np.arange(math.prod(dims)).reshape(dims).transpose(plan.order)
    idx = idx.reshape(plan.block, -1)[np.array(perm)]
    idx = idx.reshape(plan.moved_dims).transpose(plan.inverse).reshape(-1)
    idx.setflags(write=False)
    return idx


def _gather_raw(amps: np.ndarray, dims: tuple[int, ...],
                perm: tuple[int, ...], wires: tuple[int, ...]) -> np.ndarray:
    """The gate with u[i, perm[i]] = 1 as one exact gather (unchecked)."""
    return amps[_gather_index(dims, wires, perm)]


def apply_on_wires(state, u: UnitaryMatrix, wires: Sequence[int]):
    """Apply a unitary on a subset of wires (identity elsewhere).

    States map as U|psi>, density matrices as U rho U^dag.
    """
    plan = _check_wires(state.shape, wires)
    if u.shape.dim != plan.block:
        raise ValueError("unitary dimension does not match listed wires")
    if isinstance(state, StateVector):
        out = _apply_raw(state.amplitudes, state.shape.dims, u.entries,
                         plan.wires)
        return StateVector(state.shape, out, check_norm=False)
    if isinstance(state, DensityMatrix):
        full = embed_unitary(u, plan.wires, state.shape).entries
        return DensityMatrix(state.shape, full @ state.entries @ full.conj().T,
                             check_psd=False)
    raise ValueError(f"cannot apply unitary to {type(state).__name__}")


def embed_unitary(u: UnitaryMatrix, wires: Sequence[int],
                  shape: RegisterShape) -> UnitaryMatrix:
    """Extend u by identity to the full register."""
    plan = _check_wires(shape, wires)
    big = np.kron(u.entries, np.eye(shape.dim // plan.block))
    # big acts on order (wires..., rest...); permute rows and columns back
    idx = np.arange(shape.dim).reshape(plan.moved_dims)
    idx = np.transpose(idx, plan.inverse).reshape(-1)
    # idx[j] = row of `big` corresponding to register index j
    out = big[np.ix_(idx, idx)]
    return UnitaryMatrix(shape, out, check_unitary=False)


def _probabilities_raw(amps: np.ndarray, dims: tuple[int, ...],
                       plan: _WirePlan) -> np.ndarray:
    probs = np.abs(amps.reshape(dims)) ** 2
    if plan.rest:
        probs = np.add.reduce(probs, axis=plan.sum_axes)
    if plan.ascending:
        return probs.reshape(-1)
    # axes of probs are now in wire order sorted ascending; permute to `wires`
    return np.transpose(probs, plan.sort_perm).reshape(-1)


class _OutcomePlan(NamedTuple):
    """Each outcome of measuring the listed wires, in the Born order."""

    rows: tuple[np.ndarray, ...]  # outcome o's flat indices, read-only
    digits: tuple[tuple[int, ...], ...]  # outcome o's digits, listed order


@lru_cache(maxsize=None)
def _outcome_plan(dims: tuple[int, ...],
                  wires: tuple[int, ...]) -> _OutcomePlan:
    """The memoised outcome plan of `wires`, beside their `_wire_plan`.

    Like `_gather_index`, it holds one int64 index per amplitude for the
    life of the process: 125 KB at 5^6 amplitudes.
    """
    plan = _wire_plan(dims, wires)
    rows = np.arange(math.prod(dims)).reshape(dims).transpose(plan.order)
    rows = np.ascontiguousarray(rows.reshape(plan.block, -1))
    rows.setflags(write=False)
    digits = itertools.product(*(range(dims[w]) for w in wires))
    return _OutcomePlan(tuple(rows), tuple(digits))


def _project_raw(amps: np.ndarray, row: np.ndarray
                 ) -> tuple[float, np.ndarray]:
    """Keep the amplitudes at the flat indices `row`, renormalised.

    The norm is taken over the whole zero-padded vector: BLAS pairs terms
    by position, so a shorter vector need not round the same.
    """
    kept = amps[row]
    branch = np.zeros(amps.size, dtype=np.complex128)
    branch[row] = kept
    prob = float(np.vdot(branch, branch).real)
    if prob < 1e-12:
        raise ValueError("projection onto a numerically zero branch")
    branch[row] = kept / math.sqrt(prob)
    return prob, branch


def _measure_raw(amps: np.ndarray, dims: tuple[int, ...],
                 wires: tuple[int, ...], rng: np.random.Generator
                 ) -> tuple[tuple[int, ...], np.ndarray]:
    """Born-rule measurement of the listed wires of a flat amplitude vector.

    The one measurement kernel (unchecked wires): the draw that
    `rng.choice(len(probs), p=probs / total)` makes, one `rng.random()`
    against the normalised cumulative sum, without choice's argument
    checks; then the renormalised post-measurement amplitudes, kept
    through the memoised outcome plan's row of the drawn outcome.
    """
    probs = _probabilities_raw(amps, dims, _wire_plan(dims, wires))
    total = float(np.add.reduce(probs))
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"probabilities sum to {total}")
    cdf = np.add.accumulate(probs / total)
    cdf /= cdf[-1]
    flat = int(cdf.searchsorted(rng.random(), side="right"))
    outcomes = _outcome_plan(dims, wires)
    return outcomes.digits[flat], _project_raw(amps, outcomes.rows[flat])[1]


def measurement_probabilities(state: StateVector,
                              wires: Sequence[int]) -> np.ndarray:
    """Born distribution over outcomes of the listed wires (flattened)."""
    plan = _check_wires(state.shape, wires)
    return _probabilities_raw(state.amplitudes, state.shape.dims, plan)


def project_wires(state: StateVector, wires: Sequence[int],
                  outcome: Sequence[int]) -> tuple[float, StateVector]:
    """Project the listed wires onto |outcome> and renormalize.

    Returns (probability, post_state).  Zero-probability branches raise.
    """
    wires = _check_wires(state.shape, wires).wires
    dims = state.shape.dims
    if len(outcome) != len(wires):
        raise ValueError(f"{len(outcome)} outcome digits for "
                         f"{len(wires)} wires")
    flat = 0
    for w, o in zip(wires, outcome):
        if not 0 <= o < dims[w]:
            raise ValueError("outcome digit out of range")
        flat = flat * dims[w] + o
    prob, post = _project_raw(state.amplitudes,
                              _outcome_plan(dims, wires).rows[flat])
    return prob, StateVector(state.shape, post, check_norm=False)


def measure_wires(state: StateVector, wires: Sequence[int],
                  rng: np.random.Generator
                  ) -> tuple[tuple[int, ...], StateVector]:
    """Standard-basis measurement of the listed wires.

    Samples from the Born distribution using rng; the same seed replays
    the same outcome.  Returns (outcome digits, renormalized post-state).
    """
    wires = _check_wires(state.shape, wires).wires
    outcome, post = _measure_raw(state.amplitudes, state.shape.dims, wires,
                                 rng)
    return outcome, StateVector(state.shape, post, check_norm=False)


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out every wire not in `keep`; kept wires stay in listed order."""
    plan = _check_wires(rho.shape, keep)
    keep = plan.wires
    dims = rho.shape.dims
    n = len(dims)
    t = rho.entries.reshape(dims + dims)
    # pair up bra/ket axes of each traced wire
    for k, w in enumerate(plan.rest):
        t = np.trace(t, axis1=w - k, axis2=w - k + n - k)
    # remaining axes follow ascending wire order; permute to `keep`
    perm = list(plan.sort_perm)
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


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random dim x dim unitary: QR of a complex Ginibre matrix with
    the phases of R's diagonal moved into Q (Mezzadri, math-ph/0609050).

    The same draws and operations, in the same order, as
    `scipy.stats.unitary_group.rvs(dim, random_state=rng)`, so both give
    bit-identical matrices and leave `rng` in the same state.  A dim above
    _HAAR_DIM_CAP is refused before anything is drawn.
    """
    if dim > _HAAR_DIM_CAP:
        raise ValueError(f"Haar unitary of dimension {dim} exceeds the "
                         f"cap {_HAAR_DIM_CAP}")
    z = 1 / math.sqrt(2) * (rng.normal(size=(dim, dim))
                            + 1j * rng.normal(size=(dim, dim)))
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    q *= (d / abs(d))[np.newaxis, :]
    return q
