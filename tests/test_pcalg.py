"""Pauli/Clifford algebra: gates, enumeration, averaging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qpiplab import audit
from qpiplab import pcalg as pa
from qpiplab import qcore as qc
from qpiplab import qpip

import oracles


def phase_free_equal(a: np.ndarray, b: np.ndarray, atol=1e-9) -> bool:
    """True when a = phase * b with |phase| = 1."""
    i, j = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[i, j]) < atol:
        return np.allclose(a, 0, atol=atol)
    ph = a[i, j] / b[i, j]
    return abs(abs(ph) - 1.0) < 1e-7 and np.allclose(a, ph * b, atol=atol)


def random_density(dim: int, rng) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = z @ z.conj().T
    return m / np.trace(m)


def haar(dim: int, rng) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u, r = np.linalg.qr(z)
    return u * (np.diag(r) / np.abs(np.diag(r)))


# ------------------------------------------------------------- matrices

def test_pauli_matrix_identity():
    p = pa.SymbolicPauli.identity(5, 2)
    assert np.allclose(pa.pauli_matrix(p).entries, np.eye(25))


def test_pauli_matrix_shift():
    p = pa.SymbolicPauli(5, [1], [0])
    out = pa.pauli_matrix(p).entries @ qc.basis_state(
        qc.RegisterShape((5,)), (4,)).amplitudes
    assert np.isclose(out[0], 1.0)


def test_pauli_matrix_clock():
    p = pa.SymbolicPauli(5, [0], [1])
    out = pa.pauli_matrix(p).entries @ qc.basis_state(
        qc.RegisterShape((5,)), (2,)).amplitudes
    assert np.isclose(out[2], np.exp(2j * np.pi * 2 / 5))


def test_gate_matrix_sum():
    m = pa.gate_matrix(pa.GateTag("SUM"), 5).entries
    shape = qc.RegisterShape((5, 5))
    vec = m @ qc.basis_state(shape, (1, 1)).amplitudes
    assert np.isclose(vec[shape.digits_to_index((1, 2))], 1.0)


def test_gate_matrix_triple_product():
    m = pa.gate_matrix(pa.GateTag("T"), 5).entries
    shape = qc.RegisterShape((5, 5, 5))
    vec = m @ qc.basis_state(shape, (2, 3, 0)).amplitudes
    assert np.isclose(vec[shape.digits_to_index((2, 3, 1))], 1.0)


def test_gate_matrix_scalar_multiply():
    m = pa.gate_matrix(pa.GateTag("M_r", 3), 5).entries
    vec = m @ qc.basis_state(qc.RegisterShape((5,)), (2,)).amplitudes
    assert np.isclose(vec[1], 1.0)


def test_gate_matrix_fourier_unitary():
    for name, r in [("F", 0), ("F_r", 2), ("F_r", 3)]:
        u = pa.gate_matrix(pa.GateTag(name, r), 5).entries
        assert np.allclose(u.conj().T @ u, np.eye(5), atol=1e-12)


def test_gate_tag_validation():
    with pytest.raises(ValueError):
        pa.GateTag("F_r", 0)
    with pytest.raises(ValueError):
        pa.GateTag("M_r", 0)
    with pytest.raises(ValueError):
        pa.GateTag("BOGUS")
    with pytest.raises(ValueError):
        pa.gate_matrix(pa.GateTag("H"), 5)


def test_k_gate_phase_identity():
    # K X K^dag = i X.Z
    k = pa.gate_matrix(pa.GateTag("K"), 2).entries
    x = pa.pauli_matrix_1(2, 1, 0)
    z = pa.pauli_matrix_1(2, 0, 1)
    assert np.allclose(k @ x @ k.conj().T, 1j * (x @ z))
    # and Z.X = -X.Z, so the stored Z^z X^x form differs only in phase
    assert np.allclose(pa.pauli_matrix_1(2, 1, 1), z @ x)


# ------------------------------------------------------------ enumeration

def test_enumerate_counts():
    assert len(pa.enumerate_clifford(1)) == 24
    assert len(pa.enumerate_clifford(2)) == 11520
    with pytest.raises(ValueError):
        pa.enumerate_clifford(3)


def test_enumeration_contains_identity():
    for n in (1, 2):
        eye_key = pa.conjugation_key(np.eye(2 ** n, dtype=complex), n)
        assert any(e.key == eye_key for e in pa.enumerate_clifford(n))


def test_enumeration_distinct_keys():
    elems = pa.enumerate_clifford(1)
    assert len({e.key for e in elems}) == 24


def test_generator_words_reproduce_matrices():
    gens = pa._generators(2)
    for e in pa.enumerate_clifford(2)[:200]:
        m = np.eye(4, dtype=complex)
        for name in e.generator_word:
            m = gens[name] @ m
        assert np.allclose(m, e.matrix.entries, atol=1e-9)


@pytest.mark.parametrize("n", [1, 2])
def test_pauli_product_matches_the_dense_product(n):
    basis = pa.qubit_pauli_basis(n)
    j, k = np.meshgrid(np.arange(4 ** n), np.arange(4 ** n), indexing="ij")
    # (i B_j) (-B_k) for every pair
    prod = pa._pauli_product(np.stack([j, np.ones_like(j)], axis=-1),
                             np.stack([k, np.full_like(k, 2)], axis=-1))
    for a, b, (img, phase) in zip(j.ravel(), k.ravel(),
                                  prod.reshape(-1, 2)):
        assert np.allclose(1j ** phase * basis[img],
                           1j * basis[a] @ -basis[b], atol=1e-12)


def test_enumeration_closed_under_composition():
    elems = pa.enumerate_clifford(1)
    keys = {e.key for e in elems}
    rng = qc.make_rng(0)
    for _ in range(50):
        a = elems[rng.integers(24)]
        b = elems[rng.integers(24)]
        prod = a.matrix.entries @ b.matrix.entries
        assert pa.conjugation_key(prod, 1) in keys


# --------------------------------------------------------------- sampling

def test_sample_uniform_n1():
    rng = qc.make_rng(100)
    table = pa.enumerate_clifford(1)
    pos = {e.key: i for i, e in enumerate(table)}
    n_samples = 24_000
    counts = np.zeros(24)
    for _ in range(n_samples):
        counts[pos[pa.sample_clifford(1, rng).key]] += 1
    p = 1 / 24
    sigma = np.sqrt(n_samples * p * (1 - p))
    assert np.all(np.abs(counts - n_samples * p) <= 4 * sigma)
    chi2 = ((counts - n_samples * p) ** 2 / (n_samples * p)).sum()
    assert 1 - stats.chi2.cdf(chi2, 23) > 0.01


def test_sample_uniform_n2_chi2():
    rng = qc.make_rng(101)
    table = pa.enumerate_clifford(2)
    pos = {e.key: i for i, e in enumerate(table)}
    n_samples = 8 * 11520
    counts = np.zeros(11520)
    for _ in range(n_samples):
        counts[pos[pa.sample_clifford(2, rng).key]] += 1
    expected = n_samples / 11520
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert 1 - stats.chi2.cdf(chi2, 11519) > 0.01


def test_sample_conjugation_covers_paulis():
    rng = qc.make_rng(102)
    x = pa.pauli_matrix_1(2, 1, 0)
    seen = set()
    basis = pa.qubit_pauli_basis(1)
    dag = basis.conj().transpose(0, 2, 1)
    for _ in range(1000):
        u = pa.sample_clifford(1, rng).matrix.entries
        m = u @ x @ u.conj().T
        coeffs = np.einsum("kij,ji->k", dag, m) / 2
        seen.add(int(np.argmax(np.abs(coeffs))))
    assert seen == {1, 2, 3}


def test_sample_deterministic():
    a = pa.sample_clifford(2, qc.make_rng(7)).key
    b = pa.sample_clifford(2, qc.make_rng(7)).key
    assert a == b
    rng = qc.make_rng(0)
    with pytest.raises(ValueError):
        pa.sample_clifford(4, rng)
    assert rng.random() == qc.make_rng(0).random()  # refused before a draw


def test_symplectic_construction_uniform_n1():
    # the n=3 code path, validated where enumeration gives ground truth
    rng = qc.make_rng(103)
    table = pa.enumerate_clifford(1)
    pos = {e.key: i for i, e in enumerate(table)}
    counts = np.zeros(24)
    n_samples = 24 * 150
    for levels, xz in pa._symplectic_draws(1, n_samples, rng):
        u = pa._symplectic_matrix(levels)
        m = u @ pa.pauli_matrix_1(2, xz & 1, xz >> 1)
        counts[pos[pa.conjugation_key(m, 1)]] += 1
    expected = n_samples / 24
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert 1 - stats.chi2.cdf(chi2, 23) > 0.01


def test_symplectic_construction_lands_in_c2():
    rng = qc.make_rng(104)
    keys = {e.key for e in pa.enumerate_clifford(2)}
    for levels, bits in pa._symplectic_draws(2, 300, rng):
        u = pa._symplectic_matrix(levels)
        xz = [(bits >> i) & 1 for i in range(4)]
        m = u @ pa.pauli_matrix(pa.SymbolicPauli(2, xz[0::2], xz[1::2])).entries
        assert pa.conjugation_key(m, 2) in keys


def _symplectic_matrix_from_key(key, n):
    cols = []
    for j, _phase in key:
        vec = np.zeros(2 * n, dtype=np.int64)
        for w in range(n):
            b = (j >> (2 * (n - 1 - w))) & 3
            vec[2 * w] = b & 1
            vec[2 * w + 1] = b >> 1
        cols.append(vec)
    return np.array(cols).T % 2


def test_three_qubit_sampler_preserves_form():
    rng = qc.make_rng(105)
    jmat = np.zeros((6, 6), dtype=np.int64)
    for i in range(3):
        jmat[2 * i, 2 * i + 1] = jmat[2 * i + 1, 2 * i] = 1
    for _ in range(60):
        e = pa.sample_clifford(3, rng)
        u = e.matrix.entries
        assert np.allclose(u.conj().T @ u, np.eye(8), atol=1e-9)
        s = _symplectic_matrix_from_key(e.key, 3)
        assert np.array_equal((s.T @ jmat @ s) % 2, jmat)


def test_three_qubit_inner_level_memo_stays_bounded():
    # the levels below the outermost take 6 * 120 = 720 transvection
    # tuples at n = 3, so the memo can never hold more
    pa._inner_levels.cache_clear()
    rng = qc.make_rng(106)
    for _ in range(5000):
        pa.sample_clifford(3, rng)
    assert pa._inner_levels.cache_info().currsize <= 720


# ------------------------------------------- table-composed keys vs dense

def test_enumerated_keys_match_dense_key():
    for n in (1, 2):
        for e in pa.enumerate_clifford(n):
            assert e.key == pa.conjugation_key(e.matrix.entries, n)


# Oracle: the dense transvection construction on numpy bit-vectors, with a
# full midpoint scan and dense keys.  The sampler must reproduce it draw
# for draw.

def _oracle_symp(u, v):
    return int(sum(u[0::2] & v[1::2]) + sum(u[1::2] & v[0::2])) % 2


def _oracle_transvection(v):
    m = np.array([[1.0 + 0j]])
    for x, z in zip(v[0::2], v[1::2]):
        p = pa.pauli_matrix_1(2, int(x), int(z))
        m = np.kron(m, 1j * p if x and z else p)
    return (np.eye(len(m)) + 1j * m) / np.sqrt(2)


def _oracle_find(u, w, fix=None):
    if np.array_equal(u, w):
        return []
    if _oracle_symp(u, w):
        return [u ^ w]
    if fix is not None:
        return [fix.copy(), u ^ fix ^ w]
    for idx in range(1, 2 ** len(u)):
        v = np.array([(idx >> b) & 1 for b in range(len(u))])
        if _oracle_symp(u, v) and _oracle_symp(v, w):
            return [u ^ v, v ^ w]
    raise RuntimeError("no midpoint found")


def _oracle_symplectic(n, rng):
    if n == 0:
        return np.array([[1.0 + 0j]])
    e1, e2 = np.eye(2 * n, dtype=np.int64)[:2]
    f1 = rng.integers(0, 2, size=2 * n)
    while not f1.any():
        f1 = rng.integers(0, 2, size=2 * n)
    tv = _oracle_find(e1, f1)
    h = rng.integers(0, 2, size=2 * n)
    while not _oracle_symp(f1, h):
        h = rng.integers(0, 2, size=2 * n)
    u = e2.copy()
    for v in tv:
        if _oracle_symp(u, v):
            u = u ^ v
    prod = np.eye(2 ** n, dtype=np.complex128)
    for v in tv + _oracle_find(u, h, fix=f1):
        prod = _oracle_transvection(v) @ prod
    return prod @ np.kron(np.eye(2), _oracle_symplectic(n - 1, rng))


def _oracle_sample_three_qubits(rng):
    u = _oracle_symplectic(3, rng)
    xz = rng.integers(0, 2, size=6)
    m = u @ pa.pauli_matrix(pa.SymbolicPauli(2, xz[0::2], xz[1::2])).entries
    return m, pa.conjugation_key(m, 3)


@pytest.mark.parametrize("seed", range(12))
def test_three_qubit_sampler_matches_dense_oracle(seed):
    rng, ref_rng = qc.make_rng(seed), qc.make_rng(seed)
    for _ in range(10):
        e = pa.sample_clifford(3, rng)
        m, key = _oracle_sample_three_qubits(ref_rng)
        assert np.abs(e.matrix.entries - m).max() < 1e-12
        assert e.key == key
    assert rng.integers(2 ** 62) == ref_rng.integers(2 ** 62)


@pytest.mark.parametrize("n", [1, 2])
def test_symplectic_construction_matches_dense_oracle(n):
    rng, ref_rng = qc.make_rng(107), qc.make_rng(107)
    for levels, _pauli in pa._symplectic_draws(n, 50, rng):
        u = pa._symplectic_matrix(levels)
        assert np.abs(u - _oracle_symplectic(n, ref_rng)).max() < 1e-12
        ref_rng.integers(0, 2, size=2 * n)  # the Pauli bits


# ------------------------------------- pooled draws vs one call per candidate

def _next_draws(rng):
    """The next `random()` and the next 32-bit draws: a generator that drew
    one bit fewer can still agree on the first."""
    return rng.random(), rng.integers(0, 2, size=8).tolist()


def test_pooled_draw_matches_one_call_per_candidate():
    """Runs of 0..20 symplectic draws, a `random()` after each run, against
    one call per candidate."""
    for n in (1, 2, 3):
        rng, ref_rng = qc.make_rng(n), qc.make_rng(n)
        for count in range(21):
            draws = pa._symplectic_draws(n, count, rng)
            assert draws == [oracles.symplectic_draw_per_candidate(n, ref_rng)
                             for _ in range(count)]
            assert rng.random() == ref_rng.random()
        assert _next_draws(rng) == _next_draws(ref_rng)


def _per_key_draw(n, rng):
    """One key's (levels, Pauli index), or its tableau at n <= 2, drawn on
    its own: one table index, or one call per candidate."""
    if n < 3:
        table = pa.enumerate_clifford(n)
        return table[int(rng.integers(len(table)))].key
    levels, pauli = oracles.symplectic_draw_per_candidate(n, rng)
    return levels, pa._pauli_index(pauli, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pooled_draw_levels_match_per_candidate(n):
    for count in range(21):
        for seed in range(10):
            rng, ref_rng = qc.make_rng(seed), qc.make_rng(seed)
            keys = pa.sample_cliffords(n, count, rng)
            assert [k._draw if n == 3 else k.key for k in keys] == \
                [_per_key_draw(n, ref_rng) for _ in range(count)]
            assert _next_draws(rng) == _next_draws(ref_rng)
    rng = qc.make_rng(0)
    assert pa.sample_cliffords(n, 0, rng) == []
    with pytest.raises(ValueError):
        pa.sample_cliffords(4, 3, rng)
    assert _next_draws(rng) == _next_draws(qc.make_rng(0))  # nothing drawn


# ---------------------------------------------- lazily built three-qubit keys

def _eager_sample_three_qubits(rng):
    """A three-qubit key's matrix built at once from its draw, as
    `sample_clifford` did before the element kept only the draw."""
    (levels, pauli), = pa._symplectic_draws(3, 1, rng)
    return pa._symplectic_matrix(levels) @ \
        pa.qubit_pauli_basis(3)[pa._pauli_index(pauli, 3)]


def test_lazy_key_matrix_is_byte_identical_to_the_eager_build():
    for seed in range(300):
        rng, ref_rng = qc.make_rng(seed), qc.make_rng(seed)
        keys = [pa.sample_clifford(3, rng) for _ in range(4)]
        refs = [_eager_sample_three_qubits(ref_rng) for _ in range(4)]
        # read after every draw, last key first: a build draws nothing
        for key, ref in reversed(list(zip(keys, refs))):
            assert key.matrix.entries.tobytes() == ref.tobytes()
        assert rng.integers(2 ** 62) == ref_rng.integers(2 ** 62)


def test_sampled_key_builds_its_matrix_only_when_read(monkeypatch):
    built = []
    real = pa._symplectic_matrix
    monkeypatch.setattr(pa, "_symplectic_matrix",
                        lambda levels: built.append(levels) or real(levels))
    rng = qc.make_rng(111)
    a, b = pa.sample_clifford(3, rng), pa.sample_clifford(3, rng)
    assert built == []
    mat = a.matrix
    assert len(built) == 1 and a.matrix is mat
    a.dagger_matrix(), a.key
    assert len(built) == 1
    b.key  # the key is read off the matrix
    assert len(built) == 2


class _CountingRng:
    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)

    def __getattr__(self, name):  # every other draw passes through uncounted
        return getattr(self.rng, name)


def test_three_qubit_key_draws_in_under_three_calls():
    # one call per candidate makes about 10.4 per key
    rng = _CountingRng(qc.make_rng(109))
    for _ in range(2000):
        pa.sample_clifford(3, rng)
    assert rng.calls / 2000 < 3


def test_honest_three_qubit_trial_draws_its_keys_in_few_calls():
    # each run of keys is one pooled draw: an honest clifford-demo trial
    # at e = 2 draws its 16 keys in one run, about 40 calls if drawn key
    # by key
    calls = 0
    for seed in range(200):
        rng = _CountingRng(qc.make_rng(seed))
        rec = qpip.run_clifford_qpip(audit.clifford_demo_circuit(), (1, 0), 2,
                                     qpip.honest_prover(), rng)
        assert rec.verdict == "accept"
        calls += rng.calls
    assert calls / 200 <= 8


# --------------------------------------------------------------- averaging

def test_average_fixed_pauli_attack():
    """The C_1 twirl of a fixed Pauli attack is the uniform mixture of
    the three non-identity Paulis."""
    rng = qc.make_rng(21)
    rm = random_density(2, rng)
    stack = pa.clifford_stack(1)
    p = pa.pauli_matrix_1(2, 0, 1)
    a = stack.conj().transpose(0, 2, 1) @ p @ stack
    out = np.mean(a @ rm @ a.conj().transpose(0, 2, 1), axis=0)
    expect = sum(pa.pauli_matrix_1(2, x, z) @ rm @ pa.pauli_matrix_1(2, x, z).conj().T
                 for x, z in [(1, 0), (0, 1), (1, 1)]) / 3
    assert np.allclose(out, expect, atol=1e-10)


def test_pauli_average_matches_decomposition_oracle():
    """The pad average of an attack entangling the block with an
    environment keeps the attack's diagonal Pauli components, as
    `pauli_decompose` splits them."""
    rng = qc.make_rng(22)
    u4 = haar(4, rng)
    rho = random_density(4, rng)
    pads = np.kron(oracles.all_pauli_matrices(2, 1), np.eye(2))
    a = pads.conj().transpose(0, 2, 1) @ u4 @ pads
    out = np.mean(a @ rho @ a.conj().transpose(0, 2, 1), axis=0)
    w = pa.pauli_decompose(u4, 2, 1, 2)
    expect = np.zeros((4, 4), dtype=complex)
    for xi in range(2):
        for zi in range(2):
            op = np.kron(pa.pauli_matrix_1(2, xi, zi), w[xi, zi])
            expect += op @ rho @ op.conj().T
    assert np.abs(out - expect).max() < 1e-8


def test_average_size_guard():
    # 11520 elements * 128^3 exceeds the budget: refused before any work
    shape = qc.RegisterShape((2,) * 7)
    rho = qc.basis_state(shape, (0,) * 7).to_density()
    with pytest.raises(ValueError, match="too large"):
        pa.group_conjugate_average(rho, (0, 1))


@pytest.mark.parametrize("dims, wires, message", [
    ((3, 2), (0,), "needs qubit wires"),
    ((2, 2, 2), (0, 1, 2), "supports 1 or 2 wires"),
])
def test_conjugate_average_rejects_bad_groups(dims, wires, message):
    rho = qc.basis_state(qc.RegisterShape(dims), (0,) * len(dims)).to_density()
    with pytest.raises(ValueError, match=message):
        pa.group_conjugate_average(rho, wires)


# ------------------------------------------------------------- invariants

def test_decomposition_trace_identity():
    # sum_P Tr(U_P tau U_P^dag) = Tr(tau) for any unitary, any tau
    rng = qc.make_rng(30)
    for m in (1, 2):
        db = 2 ** m
        de = 2
        u = haar(db * de, rng)
        w = pa.pauli_decompose(u, 2, m, de)
        tau = random_density(de, rng)
        total = sum(np.trace(w[xi, zi] @ tau @ w[xi, zi].conj().T)
                    for xi in range(db) for zi in range(db))
        assert abs(total - np.trace(tau)) < 1e-8


def _pauli_mats(q, n):
    shape = qc.RegisterShape((q,) * (2 * n), dim_cap=2 ** 62)
    for idx in range(q ** (2 * n)):
        digits = shape.index_to_digits(idx)
        yield pa.pauli_matrix(pa.SymbolicPauli(q, digits[:n], digits[n:])).entries


@pytest.mark.parametrize("q", [2, 5])
def test_pauli_twirl(q):
    # cross terms with P != P' vanish under the Pauli-key average
    rng = qc.make_rng(31)
    rho = random_density(q * q, rng)
    p1 = pa.pauli_matrix_1(q, 1, 0)
    p2 = pa.pauli_matrix_1(q, 0, 1)
    eye = np.eye(q)
    acc = np.zeros((q * q, q * q), dtype=complex)
    for qm in _pauli_mats(q, 1):
        left = np.kron(qm.conj().T @ p1 @ qm, eye)
        right = np.kron(qm.conj().T @ p2 @ qm, eye)
        acc += left @ rho @ right.conj().T
    assert np.abs(acc / q ** 2).max() < 1e-8


def test_clifford_twirl():
    rng = qc.make_rng(32)
    rho = random_density(4, rng)
    eye = np.eye(2)
    pairs = [((1, 0), (0, 1)), ((1, 1), (1, 0)), ((0, 0), (1, 1))]
    for (x1, z1), (x2, z2) in pairs:
        p1 = pa.pauli_matrix_1(2, x1, z1)
        p2 = pa.pauli_matrix_1(2, x2, z2)
        acc = np.zeros((4, 4), dtype=complex)
        for e in pa.enumerate_clifford(1):
            c = e.matrix.entries
            left = np.kron(c.conj().T @ p1 @ c, eye)
            right = np.kron(c.conj().T @ p2 @ c, eye)
            acc += left @ rho @ right.conj().T
        assert np.abs(acc / 24).max() < 1e-8


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (5, 1), (5, 2)])
def test_pauli_mixing(q, n):
    """The lab's Pauli-pad average erases the block next to an
    environment: it is linear, so it acts on each environment entry."""
    rng = qc.make_rng(33)
    env = 2
    db = q ** n
    rho = random_density(db * env, rng).reshape(db, env, db, env)
    out = np.stack([np.stack([audit._pad_average(rho[:, i, :, j], q, n)
                              for j in range(env)], axis=-1)
                    for i in range(env)], axis=1)
    reduced = np.einsum("aiaj->ij", rho)
    expect = np.kron(np.eye(db) / db, reduced).reshape(db, env, db, env)
    assert np.abs(out - expect).max() < 1e-9


@pytest.mark.parametrize("n", [1, 2])
def test_clifford_mixing(n):
    rng = qc.make_rng(34)
    env = 2
    dim = 2 ** n * env
    shape = qc.RegisterShape((2,) * n + (env,))
    rho = qc.DensityMatrix(shape, random_density(dim, rng))
    out = pa.group_conjugate_average(rho, tuple(range(n)))
    reduced = qc.partial_trace(rho, (n,)).entries
    expect = np.kron(np.eye(2 ** n) / 2 ** n, reduced)
    assert np.abs(out.entries - expect).max() < 1e-9


def test_pauli_partitioning():
    # every non-identity Pauli maps to every non-identity Pauli under
    # exactly |C_1| / 3 = 8 group elements
    elems = pa.enumerate_clifford(1)
    basis = pa.qubit_pauli_basis(1)
    dag = basis.conj().transpose(0, 2, 1)
    for src in (1, 2, 3):
        counts = {1: 0, 2: 0, 3: 0}
        for e in elems:
            u = e.matrix.entries
            m = u.conj().T @ basis[src] @ u
            coeffs = np.einsum("kij,ji->k", dag, m) / 2
            counts[int(np.argmax(np.abs(coeffs)))] += 1
        assert counts == {1: 8, 2: 8, 3: 8}


def test_unitary_commutation():
    rng = qc.make_rng(35)
    u = haar(2, rng)
    rho = random_density(4, rng)
    eye = np.eye(2)
    lhs = np.zeros((4, 4), dtype=complex)
    rhs = np.zeros((4, 4), dtype=complex)
    for x in range(2):
        for z in range(2):
            if x == 0 and z == 0:
                continue
            qm = pa.pauli_matrix_1(2, x, z)
            a = np.kron(u @ qm, eye)
            b = np.kron(qm @ u, eye)
            lhs += a @ rho @ a.conj().T
            rhs += b @ rho @ b.conj().T
    assert np.abs(lhs - rhs).max() < 1e-8


# ------------------------------------------------------------- properties

@given(st.data())
@settings(max_examples=30, deadline=None)
def test_symbolic_compose_inverse(data):
    q = data.draw(st.sampled_from([2, 5]))
    n = data.draw(st.integers(min_value=1, max_value=4))
    x = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    z = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    p = pa.SymbolicPauli(q, x, z)
    assert p.compose(p.inverse()).is_identity()


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_pauli_matrix_homomorphism(data):
    q = data.draw(st.sampled_from([2, 5]))
    x1 = data.draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=2))
    z1 = data.draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=2))
    x2 = data.draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=2))
    z2 = data.draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=2))
    p1 = pa.SymbolicPauli(q, x1, z1)
    p2 = pa.SymbolicPauli(q, x2, z2)
    prod = pa.pauli_matrix(p1).entries @ pa.pauli_matrix(p2).entries
    sym = pa.pauli_matrix(p1.compose(p2)).entries
    assert phase_free_equal(prod, sym)
