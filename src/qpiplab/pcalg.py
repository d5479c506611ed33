"""Pauli and Clifford algebra over prime-dimension wires.

Symbolic Paulis carry exponent vectors only (phases dropped); they serve
as pad keys, attack frames and attacks alike, and `pauli_matrix` gives
their dense form.  The conjugation rules that move them through the
transversal logical gates live in one table, `qpip.pauli_key_update`.  A
qubit Clifford element is keyed by its tableau, the Pauli images of the
2n generators with their phases, and keys compose by Pauli-image table
lookup.  C_1 and C_2 are enumerated exactly by closure over generator
words; three-qubit elements come from the random symplectic transvection
construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .qcore import RegisterShape, UnitaryMatrix

# Guard for exact group averaging: elements * dim^3 budget.
_AVERAGE_FLOP_CAP = 2e10


class SymbolicPauli:
    """Z^z X^x per wire over F_q, phases untracked."""

    __slots__ = ("q", "x", "z")

    def __init__(self, q: int, x: Sequence[int], z: Sequence[int]):
        x = np.asarray(x, dtype=np.int64) % q
        z = np.asarray(z, dtype=np.int64) % q
        if x.shape != z.shape or x.ndim != 1:
            raise ValueError("x and z must be equal-length vectors")
        self.q = q
        self.x = x
        self.z = z

    @classmethod
    def _trusted(cls, q: int, x: np.ndarray, z: np.ndarray) -> "SymbolicPauli":
        """Wrap int64 vectors already reduced mod q, with no checks."""
        out = cls.__new__(cls)
        out.q, out.x, out.z = q, x, z
        return out

    @property
    def num_wires(self) -> int:
        return len(self.x)

    def is_identity(self) -> bool:
        return not self.x.any() and not self.z.any()

    def compose(self, other: "SymbolicPauli") -> "SymbolicPauli":
        if other.q != self.q or other.num_wires != self.num_wires:
            raise ValueError("mismatched Paulis")
        return SymbolicPauli(self.q, self.x + other.x, self.z + other.z)

    def inverse(self) -> "SymbolicPauli":
        return SymbolicPauli(self.q, -self.x, -self.z)

    def __eq__(self, other):
        return (isinstance(other, SymbolicPauli) and self.q == other.q
                and np.array_equal(self.x, other.x)
                and np.array_equal(self.z, other.z))

    def __hash__(self):
        return hash((self.q, self.x.tobytes(), self.z.tobytes()))

    def __repr__(self):
        return f"SymbolicPauli(q={self.q}, x={self.x.tolist()}, z={self.z.tolist()})"

    @classmethod
    def identity(cls, q: int, n: int) -> "SymbolicPauli":
        return cls(q, np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))


@dataclass(frozen=True)
class GateTag:
    """One gate from the library: F, F_r, SUM, T, M_r, CPG, H, K, CNOT."""

    name: str
    r: int = 0

    _ARITY = {"F": 1, "F_r": 1, "SUM": 2, "T": 3, "M_r": 1, "CPG": 2,
              "H": 1, "K": 1, "CNOT": 2}

    def __post_init__(self):
        if self.name not in self._ARITY:
            raise ValueError(f"unknown gate {self.name!r}")
        if self.name in ("F_r", "M_r") and self.r == 0:
            raise ValueError(f"{self.name} requires r != 0")

    @property
    def arity(self) -> int:
        return self._ARITY[self.name]


def _omega(q: int) -> complex:
    return np.exp(2j * np.pi / q)


def pauli_matrix_1(q: int, x: int, z: int) -> np.ndarray:
    """Single-wire Z^z X^x: |a> -> w^{z(a+x)} |a+x>."""
    a = np.arange(q)
    m = np.zeros((q, q), dtype=np.complex128)
    m[(a + x) % q, a] = _omega(q) ** (z * ((a + x) % q))
    return m


def pauli_matrix(p: SymbolicPauli) -> UnitaryMatrix:
    """Dense matrix of a symbolic Pauli (wire 0 most significant)."""
    m = np.array([[1.0 + 0j]])
    for x, z in zip(p.x, p.z):
        m = np.kron(m, pauli_matrix_1(p.q, int(x), int(z)))
    return UnitaryMatrix(RegisterShape((p.q,) * p.num_wires), m,
                         check_unitary=False)


def gate_matrix(g: GateTag, q: int) -> UnitaryMatrix:
    """Defining dense matrix of a library gate over F_q."""
    w = _omega(q)
    if g.name in ("H", "K", "CNOT") and q != 2:
        raise ValueError(f"{g.name} is a qubit gate")
    if g.name in ("F", "F_r"):
        r = 1 if g.name == "F" else g.r % q
        a = np.arange(q)
        m = w ** (r * np.outer(a, a)) / np.sqrt(q)
    elif g.name == "H":
        m = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    elif g.name == "K":
        m = np.diag([1.0, 1.0j])
    elif g.name in ("SUM", "CNOT"):
        m = np.zeros((q * q, q * q))
        for a in range(q):
            for b in range(q):
                m[a * q + (a + b) % q, a * q + b] = 1.0
    elif g.name == "T":
        m = np.zeros((q ** 3,) * 2)
        for a in range(q):
            for b in range(q):
                for c in range(q):
                    m[(a * q + b) * q + (c + a * b) % q, (a * q + b) * q + c] = 1.0
    elif g.name == "M_r":
        r = g.r % q
        if r == 0:
            raise ValueError("M_r requires r nonzero mod q")
        m = np.zeros((q, q))
        a = np.arange(q)
        m[(r * a) % q, a] = 1.0
    elif g.name == "CPG":
        a = np.arange(q)
        m = np.diag((w ** np.outer(a, a)).reshape(-1))
    else:
        raise ValueError(f"unknown gate {g.name!r}")
    n = g.arity
    return UnitaryMatrix(RegisterShape((q,) * n), np.asarray(m, dtype=np.complex128),
                         check_unitary=False)


# ------------------------------------------------------------------ qubits

def _pauli_basis(n: int) -> np.ndarray:
    """All 4^n qubit Paulis Z^z X^x, stacked; index = interleaved (x,z) bits."""
    out = np.zeros((4 ** n, 2 ** n, 2 ** n), dtype=np.complex128)
    for idx in range(4 ** n):
        bits = [(idx >> (2 * (n - 1 - w))) & 3 for w in range(n)]
        m = np.array([[1.0 + 0j]])
        for b in bits:
            m = np.kron(m, pauli_matrix_1(2, b & 1, b >> 1))
        out[idx] = m
    return out


_BASIS_CACHE: dict[int, np.ndarray] = {}


def qubit_pauli_basis(n: int) -> np.ndarray:
    if n not in _BASIS_CACHE:
        _BASIS_CACHE[n] = _pauli_basis(n)
    return _BASIS_CACHE[n]


class CliffordElement:
    """A Clifford unitary on n qubits plus the word that produced it.

    `key` is the element's tableau: for each of the 2n generators X_0, Z_0,
    X_1, ... the image (j, phase) with u P u^dag = i^phase B_j, B_j the
    Pauli basis element of index j.  Equal keys iff the unitaries agree
    modulo global phase.  It is the key passed in (the enumeration's, by
    table lookup), else `conjugation_key(matrix)`, computed on first read.

    An enumerated element holds the matrix it was built with.  A sampled
    three-qubit element holds only its draw (the levels of
    `_symplectic_draws` and the Pauli's basis index): `matrix` builds the
    dense unitary on first read.  The Clifford engine reads it only to
    seal a block, in a round where the prover acts, so a key drawn for an
    honest round never costs its 8x8 products.
    """

    __slots__ = ("n", "_matrix", "_draw", "generator_word", "_key",
                 "_dagger")

    def __init__(self, n: int, matrix: UnitaryMatrix | None,
                 generator_word: tuple[str, ...] | None,
                 key: tuple | None = None,
                 draw: tuple[tuple[tuple[int, ...], ...], int] | None = None):
        self.n = n
        self._matrix = matrix
        self._draw = draw
        self.generator_word = generator_word
        self._key = key
        self._dagger: np.ndarray | None = None

    @property
    def matrix(self) -> UnitaryMatrix:
        if self._matrix is None:
            levels, p = self._draw
            m = _symplectic_matrix(levels) @ qubit_pauli_basis(self.n)[p]
            self._matrix = UnitaryMatrix(_THREE_QUBITS, m,
                                         check_unitary=False)
        return self._matrix

    @property
    def key(self) -> tuple:
        if self._key is None:
            self._key = conjugation_key(self.matrix.entries, self.n)
        return self._key

    def dagger_matrix(self) -> np.ndarray:
        """u^dag, computed on first use and shared (read-only) after."""
        if self._dagger is None:
            dag = self.matrix.entries.conj().T
            dag.setflags(write=False)
            self._dagger = dag
        return self._dagger

    def __repr__(self):
        word = "*".join(self.generator_word) if self.generator_word else "<built>"
        return f"CliffordElement(n={self.n}, word={word})"


def _as_paulis(mats: np.ndarray, n: int) -> list[tuple[int, int]]:
    """(j, phase) with M = i^phase B_j for each M in the stack."""
    basis = qubit_pauli_basis(n)
    coeffs = np.einsum("kij,mij->mk", basis.conj(), mats) / 2 ** n
    j = np.argmax(np.abs(coeffs), axis=1)
    c = coeffs[np.arange(len(j)), j]
    if np.any(np.abs(np.abs(c) - 1.0) > 1e-6):
        raise ValueError("not a Clifford: Pauli image not a Pauli")
    phase = np.round(np.angle(c) / (np.pi / 2)).astype(np.int64) % 4
    return list(zip(j.tolist(), phase.tolist()))


def _generator_indices(n: int) -> list[int]:
    """Pauli basis indices of the generators X_0, Z_0, X_1, Z_1, ..."""
    return [kind << (2 * (n - 1 - w)) for w in range(n) for kind in (1, 2)]


def conjugation_key(u: np.ndarray, n: int) -> tuple:
    """Dense key: images of the 2n Pauli generators incl. phase.

    The reference the table-composed keys are checked against, and the
    key of a sampled element; it costs one dense conjugation per generator.
    """
    gens = qubit_pauli_basis(n)[_generator_indices(n)]
    return tuple(_as_paulis(u @ gens @ u.conj().T, n))


def _identity_key(n: int) -> tuple:
    """Key of the identity: every generator maps to itself."""
    return tuple((j, 0) for j in _generator_indices(n))


def _image_table(u: np.ndarray, n: int) -> tuple[tuple[int, ...], ...]:
    """Pauli-image table of a Clifford: u B_j u^dag = i^pt[j] B_jt[j]."""
    jt, pt = zip(*_as_paulis(u @ qubit_pauli_basis(n) @ u.conj().T, n))
    return jt, pt


def _compose_key(table: tuple[tuple[int, ...], ...], key: tuple) -> tuple:
    """Key of g @ u from the image table of g and the key of u."""
    jt, pt = table
    return tuple((jt[j], (ph + pt[j]) & 3) for j, ph in key)


def _pauli_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of stacked signed Paulis, each (j, phase) for i^phase B_j.

    B_j is Z^z X^x per wire with the x bit below the z bit, so
    B_j B_k = (-1)^(x_j . z_k) B_(j xor k).  The last axis of a, b and
    the result holds (j, phase); indices of up to 8 qubits.
    """
    xz = a[..., 0] & (b[..., 0] >> 1)  # even bits: x of a against z of b
    sign = sum((xz >> bit) & 1 for bit in range(0, 16, 2))
    return np.stack([a[..., 0] ^ b[..., 0],
                     (a[..., 1] + b[..., 1] + 2 * sign) & 3], axis=-1)


def _generators(n: int) -> dict[str, np.ndarray]:
    h = gate_matrix(GateTag("H"), 2).entries
    k = gate_matrix(GateTag("K"), 2).entries
    if n == 1:
        return {"H": h, "K": k}
    cnot = gate_matrix(GateTag("CNOT"), 2).entries
    eye = np.eye(2)
    gens = {
        "H0": np.kron(h, eye), "H1": np.kron(eye, h),
        "K0": np.kron(k, eye), "K1": np.kron(eye, k),
        "CNOT01": cnot,
    }
    # control on wire 1, target wire 0
    swapped = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            swapped[((a + b) % 2) * 2 + b, a * 2 + b] = 1.0
    gens["CNOT10"] = swapped
    return gens


_ENUM_CACHE: dict[int, list[CliffordElement]] = {}


def enumerate_clifford(n: int) -> list[CliffordElement]:
    """All Clifford elements on n qubits, distinct modulo global phase.

    Breadth-first closure over generator words; 24 elements at n=1 and
    11520 at n=2.  Keys are composed through the generators' Pauli-image
    tables.  Results are memoized.
    """
    if n not in (1, 2):
        raise ValueError("exact enumeration supports n in {1, 2}")
    if n in _ENUM_CACHE:
        return _ENUM_CACHE[n]

    gens = [(name, g, _image_table(g, n))
            for name, g in _generators(n).items()]
    shape = RegisterShape((2,) * n)
    eye = np.eye(2 ** n, dtype=np.complex128)
    start = CliffordElement(n, UnitaryMatrix(shape, eye, check_unitary=False),
                            (), _identity_key(n))
    seen = {start.key: start}
    frontier = deque([start])
    while frontier:
        cur = frontier.popleft()
        for name, g, table in gens:
            key = _compose_key(table, cur.key)
            if key in seen:
                continue
            elem = CliffordElement(
                n, UnitaryMatrix(shape, g @ cur.matrix.entries,
                                 check_unitary=False),
                cur.generator_word + (name,), key)
            seen[key] = elem
            frontier.append(elem)
    elems = list(seen.values())
    _ENUM_CACHE[n] = elems
    return elems


# ------------------------------------------------------- random sampling
#
# Symplectic vectors are ints: bit 2i is x_i and bit 2i+1 is z_i, with
# wire 0 in the lowest bits.  A Pauli basis index also keeps x below z
# within each wire (only the wire order is reversed), so the same
# symplectic form serves both.

_EVEN_BITS = 0x5555555555555555


def _symp(u: int, v: int) -> int:
    """Symplectic inner product on F_2^{2n}."""
    return (((u & (v >> 1)) ^ ((u >> 1) & v)) & _EVEN_BITS).bit_count() & 1


def _pauli_index(v: int, n: int) -> int:
    """Pauli basis index (wire 0 most significant) of a symplectic vector."""
    return sum(((v >> (2 * i)) & 3) << (2 * (n - 1 - i)) for i in range(n))


@lru_cache(maxsize=None)
def _midpoint(u: int, w: int, width: int) -> int:
    """First vector (in integer order) anticommuting with both u and w."""
    for v in range(1, 2 ** width):
        if _symp(u, v) and _symp(v, w):
            return v
    raise RuntimeError("no midpoint found")


def _find_transvections(u: int, w: int, width: int,
                        fix: int | None = None) -> list[int]:
    """Transvections mapping u to w, listed in application order.

    When `fix` is supplied it must anticommute with both u and w; the
    returned transvections then leave `fix` unchanged.
    """
    if u == w:
        return []
    if _symp(u, w):
        return [u ^ w]
    if fix is None:
        v = _midpoint(u, w, width)
        return [u ^ v, v ^ w]
    # fix itself is a valid midpoint, and both steps leave it invariant
    return [fix, u ^ fix ^ w]


# Register of every sampled three-qubit element, built once.
_THREE_QUBITS = RegisterShape((2, 2, 2))


@lru_cache(maxsize=None)
def _level_table(width: int) -> tuple[tuple[int, ...] | None, ...]:
    """One level's transvections for each candidate pair (f1, h), at index
    f1 << width | h, and None where h commutes with f1 (a rejected h).

    They map e1 = x_0 to f1, then e2 = z_0, carried through those, to h
    while fixing f1.  f1 = 0 is rejected before h is read, so its row is
    never read.
    """
    table = [None] * (1 << 2 * width)
    for f1 in range(1, 1 << width):
        tv = _find_transvections(1, f1, width)
        u = 2
        for v in tv:
            if _symp(u, v):
                u ^= v
        for h in range(1 << width):
            if _symp(f1, h):
                table[f1 << width | h] = tuple(
                    tv + _find_transvections(u, h, width, fix=f1))
    return tuple(table)


@lru_cache(maxsize=None)
def _read_plan(n: int) -> tuple[tuple[tuple[int, int, tuple], ...], int]:
    """Per level of one key's draw, outermost first: its width, the bits
    of the first candidate of its h and of every later read of the key,
    and its table; then the bits of a key's first candidates."""
    widths = range(2 * n, 0, -2)
    levels = tuple((w, w * w // 2 + 2 * n, _level_table(w)) for w in widths)
    return levels, 2 * sum(widths) + 2 * n


def _top_up(rng: np.random.Generator, pool: int, left: int, need: int
            ) -> tuple[int, int]:
    """A pool of `left` bits, first lowest, grown to `need` bits by one
    `rng.integers(0, 2, size=need - left)` call."""
    bits = np.packbits(rng.integers(0, 2, size=need - left),
                       bitorder="little")
    return pool | int.from_bytes(bits.tobytes(), "little") << left, need


def _symplectic_draws(n: int, count: int, rng: np.random.Generator
                      ) -> list[tuple[tuple[tuple[int, ...], ...], int]]:
    """`count` draws of the transvections of a uniform symplectic action,
    one tuple per level, and the symplectic vector of the uniform Pauli
    that follows it.

    Level n comes first: it picks uniform images (f1, h) for the first
    hyperbolic pair, realizes them by at most four transvections, and
    the next level recurses on the orthogonal complement (the remaining
    qubits).  f1 is redrawn while zero and h while it commutes with f1.

    All `count` keys read one pool of bits in stream order.  When a read
    runs past its end, one call draws the shortfall and the first
    candidate of every later read, of this key and of every later one,
    all certain to be read.  So the pool never holds a bit that is not
    read, and since for PCG64 one `size=a+b` call gives the same bits as
    `size=a` then `size=b` and leaves the generator in the same state,
    every draw, and every draw after the run, is that of one
    `rng.integers(0, 2, size=width)` call per candidate.
    """
    plan, per_key = _read_plan(n)
    pool = left = 0
    draws = []
    # rest: the bits of the first candidates of the keys after this one
    for rest in range((count - 1) * per_key, -1, -per_key):
        levels = []
        for w, after, table in plan:
            mask = (1 << w) - 1
            f1 = 0
            while not f1:
                if left < w:
                    pool, left = _top_up(rng, pool, left, w + after + rest)
                f1 = pool & mask
                pool >>= w
                left -= w
            row, tv = f1 << w, None
            while tv is None:
                if left < w:
                    pool, left = _top_up(rng, pool, left, after + rest)
                tv = table[row | pool & mask]
                pool >>= w
                left -= w
            levels.append(tv)
        if left < 2 * n:
            pool, left = _top_up(rng, pool, left, 2 * n + rest)
        draws.append((tuple(levels), pool & ((1 << 2 * n) - 1)))
        pool >>= 2 * n
        left -= 2 * n
    return draws


@lru_cache(maxsize=None)
def _transvection_unitary(v: int, n: int) -> np.ndarray:
    """exp-style unitary (I + i P_v)/sqrt(2) for the Hermitian Pauli P_v."""
    m = np.array([[1.0 + 0j]])
    for i in range(n):
        x, z = (v >> (2 * i)) & 1, (v >> (2 * i + 1)) & 1
        p = pauli_matrix_1(2, x, z)
        if x and z:
            p = 1j * p  # Hermitian Y
        m = np.kron(m, p)
    out = (np.eye(2 ** n) + 1j * m) / np.sqrt(2)
    out.setflags(write=False)  # cached: shared by every caller
    return out


def _wrap_level(mat: np.ndarray, tv: Sequence[int], level: int) -> np.ndarray:
    """prod_level @ (I (x) mat), prod_level the level's transvections."""
    half = len(mat)
    lifted = np.zeros((2 * half, 2 * half), dtype=np.complex128)
    lifted[:half, :half] = lifted[half:, half:] = mat  # I (x) mat
    if not tv:
        return lifted
    # a product with I is exact, so starting from the first transvection
    # gives the same entries without an np.eye per key
    prod = _transvection_unitary(tv[0], level)
    for v in tv[1:]:
        prod = _transvection_unitary(v, level) @ prod
    return prod @ lifted


@lru_cache(maxsize=None)
def _inner_levels(levels: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Product of the levels below the outermost, memoised read-only by
    their transvections: at n = 3 at most 6 * 120 = 720 4x4 matrices."""
    mat = np.ones((1, 1), dtype=np.complex128)
    for level, tv in enumerate(reversed(levels), start=1):
        mat = _wrap_level(mat, tv, level)
    mat.setflags(write=False)  # cached: shared by every caller
    return mat


def _symplectic_matrix(levels: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Dense unitary prod_n @ (I (x) (prod_{n-1} @ (I (x) ...)))."""
    return _wrap_level(_inner_levels(levels[1:]), levels[0], len(levels))


@lru_cache(maxsize=None)
def _pauli_indices(n: int) -> tuple[int, ...]:
    """Pauli basis index of each symplectic vector on n qubits."""
    return tuple(_pauli_index(v, n) for v in range(4 ** n))


def sample_cliffords(n: int, count: int, rng: np.random.Generator
                     ) -> list[CliffordElement]:
    """`count` uniform random Clifford elements modulo phase: the elements,
    and the generator state after, of `count` `sample_clifford` calls.

    n <= 2 draws from the exact enumeration, in one
    `rng.integers(len(table), size=count)` call.  n = 3 uses the
    symplectic transvection construction followed by a uniform Pauli,
    from one pool of bits (`_symplectic_draws`).  Neither the matrix nor
    the key is built at n = 3: the element keeps its draw, and `matrix`
    and `key` are computed from it only if read.
    """
    if n in (1, 2):
        table = enumerate_clifford(n)
        return [table[i]
                for i in rng.integers(len(table), size=count).tolist()]
    if n != 3:
        raise ValueError("sampling supports n <= 3")
    index = _pauli_indices(n)
    return [CliffordElement(n, None, None, draw=(levels, index[pauli]))
            for levels, pauli in _symplectic_draws(n, count, rng)]


def sample_clifford(n: int, rng: np.random.Generator) -> CliffordElement:
    """One uniform random Clifford element modulo phase: `sample_cliffords`
    with count 1."""
    return sample_cliffords(n, 1, rng)[0]


# ------------------------------------------------------- group averaging

def _embed_stack(mats: np.ndarray, wires: Sequence[int],
                 shape: RegisterShape) -> np.ndarray:
    """Embed a stack of operators on `wires` into the full register."""
    n = shape.num_wires
    wires = tuple(wires)
    rest = [i for i in range(n) if i not in wires]
    rest_dim = 1
    for i in rest:
        rest_dim *= shape.dims[i]
    count = mats.shape[0]
    big = np.einsum("nij,pq->nipjq", mats,
                    np.eye(rest_dim)).reshape(count, shape.dim, shape.dim)
    order = wires + tuple(rest)
    idx = np.arange(shape.dim).reshape([shape.dims[i] for i in order])
    idx = np.transpose(idx, np.argsort(order)).reshape(-1)
    return big[:, idx[:, None], idx[None, :]]


@lru_cache(maxsize=None)
def clifford_stack(n: int) -> np.ndarray:
    """The matrices of C_n stacked in `enumerate_clifford` order."""
    stack = np.stack([el.matrix.entries for el in enumerate_clifford(n)])
    stack.setflags(write=False)  # cached: shared by every caller
    return stack


_STACK_CACHE: dict[tuple, np.ndarray] = {}


def _embedded_clifford_stack(wires: tuple[int, ...],
                             shape: RegisterShape) -> np.ndarray:
    if wires == tuple(range(shape.num_wires)):
        return clifford_stack(len(wires))  # the whole register, in order
    key = (wires, shape.dims)
    if key not in _STACK_CACHE:
        _STACK_CACHE[key] = np.ascontiguousarray(
            _embed_stack(clifford_stack(len(wires)), wires, shape))
    return _STACK_CACHE[key]


def group_conjugate_average(rho, wires: Sequence[int]):
    """(1/|C_n|) sum_g (g (x) I) rho (g (x) I)^dag over the Clifford group
    on the listed qubit wires, n = 1 or 2.

    The mixing channel: it erases the block, leaving I/2^n (x) (reduced
    rest).  Returns a DensityMatrix.
    """
    from .qcore import DensityMatrix  # local import avoids cycle confusion

    shape = rho.shape
    if any(shape.dims[w] != 2 for w in wires):
        raise ValueError("clifford averaging needs qubit wires")
    if len(wires) not in (1, 2):
        raise ValueError("clifford averaging supports 1 or 2 wires")
    count = 24 if len(wires) == 1 else 11520
    if count * shape.dim ** 3 > _AVERAGE_FLOP_CAP:
        raise ValueError("group too large for exact averaging")

    g = _embedded_clifford_stack(tuple(wires), shape)
    r = rho.entries
    out = np.zeros_like(r)
    chunk = max(1, int(2 ** 24 / (shape.dim ** 2)))
    for lo in range(0, count, chunk):
        a = g[lo:lo + chunk]
        b = np.matmul(np.matmul(a, r), a.conj().transpose(0, 2, 1))
        out += b.sum(axis=0)
    return DensityMatrix(shape, out / count, check_psd=False)


def pauli_decompose(u: np.ndarray, q: int, m: int, env_dim: int) -> np.ndarray:
    """Write U on (block of m q-dim wires) (x) (env) as sum_P P (x) U_P.

    Returns an array W of shape (q^m, q^m, env_dim, env_dim) where
    W[x_index, z_index] is the environment block paired with Z^z X^x.
    """
    db = q ** m
    if u.shape != (db * env_dim, db * env_dim):
        raise ValueError("attack dimension mismatch")
    v = u.reshape(db, env_dim, db, env_dim)
    grid = np.indices((q,) * m).reshape(m, -1)  # digit rows for 0..db-1
    rows = np.arange(db)
    # G[x, gamma] = env block at rows gamma, columns gamma - x of U
    gm = np.zeros((db, db, env_dim, env_dim), dtype=np.complex128)
    for xi in range(db):
        xdig = grid[:, xi][:, None]
        src = np.ravel_multi_index(tuple((grid - xdig) % q), (q,) * m)
        gm[xi] = v[rows, :, src, :]
    # DFT over gamma digits: U_{z,x} = (1/db) sum_gamma w^{-z.gamma} G[x,gamma]
    gshaped = gm.reshape((db,) + (q,) * m + (env_dim, env_dim))
    w = np.fft.fftn(gshaped, axes=tuple(range(1, m + 1)))
    return w.reshape(db, db, env_dim, env_dim) / db
