"""Register core: modular inverses, state algebra, measurement, distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from qpiplab import qcore as qc


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def sum_gate(q: int) -> qc.UnitaryMatrix:
    # |a,b> -> |a, a+b mod q>
    m = np.zeros((q * q, q * q))
    for a in range(q):
        for b in range(q):
            m[a * q + (a + b) % q, a * q + b] = 1.0
    return qc.UnitaryMatrix(qc.RegisterShape((q, q)), m)


# ---------------------------------------------------------------- field

def test_field_inv_matches_brute_force():
    # oracle: scan all residues for the one whose product is 1
    for q in (5, 7):
        for a in range(1, q):
            expect = next(b for b in range(q) if (a * b) % q == 1)
            assert qc.inv_mod(a, q) == expect
            assert qc.inv_mod(a + q, q) == expect


def test_field_inv_zero_raises():
    with pytest.raises(ValueError):
        qc.inv_mod(0, 5)
    with pytest.raises(ValueError):
        qc.inv_mod(7, 7)


# ---------------------------------------------------------------- shapes

def test_mixed_radix_round_trip_exhaustive():
    for dims in [(2,), (5, 5), (2, 3, 5), (5, 5, 5), (2, 2, 2, 2)]:
        shape = qc.RegisterShape(dims)
        for i in range(shape.dim):
            assert shape.digits_to_index(shape.index_to_digits(i)) == i


def test_shape_validation():
    with pytest.raises(ValueError):
        qc.RegisterShape((4,))
    with pytest.raises(ValueError):
        qc.RegisterShape(())
    with pytest.raises(ValueError):
        qc.RegisterShape((2,) * 30)
    # cap is adjustable
    qc.RegisterShape((2,) * 25, dim_cap=2 ** 26)


# ---------------------------------------------------------------- tensor

def test_tensor_basis_states():
    q2 = qc.RegisterShape((2,))
    zero = qc.basis_state(q2, (0,))
    both = qc.tensor(zero, zero)
    assert both.shape.dims == (2, 2)
    assert both.amplitudes[0] == 1.0
    assert np.allclose(np.abs(both.amplitudes[1:]), 0)


def test_tensor_identity_unitaries():
    q2 = qc.RegisterShape((2,))
    eye = qc.UnitaryMatrix(q2, np.eye(2))
    big = qc.tensor(eye, eye)
    assert np.allclose(big.entries, np.eye(4))


def test_tensor_flip_on_first_wire():
    q2 = qc.RegisterShape((2,))
    flip = qc.UnitaryMatrix(q2, np.array([[0.0, 1.0], [1.0, 0.0]]))
    eye = qc.UnitaryMatrix(q2, np.eye(2))
    st00 = qc.tensor(qc.basis_state(q2, (0,)), qc.basis_state(q2, (0,)))
    out = qc.StateVector(st00.shape, qc.tensor(flip, eye).entries @ st00.amplitudes)
    assert out.amplitudes[st00.shape.digits_to_index((1, 0))] == 1.0


def test_tensor_kind_mismatch():
    q2 = qc.RegisterShape((2,))
    with pytest.raises(ValueError):
        qc.tensor(qc.basis_state(q2, (0,)), qc.UnitaryMatrix(q2, np.eye(2)))


# ---------------------------------------------------------------- apply

def test_apply_identity_unchanged():
    shape = qc.RegisterShape((5, 5))
    state = qc.basis_state(shape, (2, 3))
    eye = qc.UnitaryMatrix(qc.RegisterShape((5,)), np.eye(5))
    out = qc.apply_on_wires(state, eye, (1,))
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_apply_sum_q5():
    shape = qc.RegisterShape((5, 5))
    state = qc.basis_state(shape, (2, 3))
    out = qc.apply_on_wires(state, sum_gate(5), (0, 1))
    assert np.isclose(out.amplitudes[shape.digits_to_index((2, 0))], 1.0)


def test_bell_state_matches_hand_product():
    # H on wire 1, then CNOT with control wire 1 / target wire 0
    shape = qc.RegisterShape((2, 2))
    h = qc.UnitaryMatrix(qc.RegisterShape((2,)),
                         np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    cnot = qc.UnitaryMatrix(shape, np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                                             [0, 0, 0, 1], [0, 0, 1, 0]],
                                            dtype=float))
    state = qc.basis_state(shape, (0, 0))
    state = qc.apply_on_wires(state, h, (1,))
    state = qc.apply_on_wires(state, cnot, (1, 0))

    h_on_1 = np.kron(np.eye(2), h.entries)
    cnot_1_to_0 = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            cnot_1_to_0[((a + b) % 2) * 2 + b, a * 2 + b] = 1.0
    direct = cnot_1_to_0 @ h_on_1 @ np.array([1.0, 0, 0, 0])
    assert np.allclose(state.amplitudes, direct)


def test_apply_validation():
    shape = qc.RegisterShape((2, 2))
    state = qc.basis_state(shape, (0, 0))
    h = qc.UnitaryMatrix(qc.RegisterShape((2,)),
                         np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    with pytest.raises(ValueError):
        qc.apply_on_wires(state, h, (0, 0))
    with pytest.raises(ValueError):
        qc.apply_on_wires(state, sum_gate(5), (0, 1))


# ---------------------------------------------------------------- measure

def bell_state() -> qc.StateVector:
    shape = qc.RegisterShape((2, 2))
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1 / np.sqrt(2)
    return qc.StateVector(shape, amps)


def test_measure_deterministic():
    state = qc.basis_state(qc.RegisterShape((5,)), (3,))
    outcome, post = qc.measure_wires(state, (0,), qc.make_rng(0))
    assert outcome == (3,)
    assert np.isclose(qc.state_fidelity(post, state), 1.0)


def test_measure_bell_frequencies():
    state = bell_state()
    rng = qc.make_rng(42)
    ones = 0
    for _ in range(10_000):
        outcome, _ = qc.measure_wires(state, (0,), rng)
        ones += outcome[0]
    assert abs(ones / 10_000 - 0.5) < 0.02


def test_measure_replays_with_same_seed():
    state = bell_state()
    a = [qc.measure_wires(state, (0, 1), qc.make_rng(9))[0] for _ in range(5)]
    b = [qc.measure_wires(state, (0, 1), qc.make_rng(9))[0] for _ in range(5)]
    assert a == b


def codeword_pattern_state() -> qc.StateVector:
    # (1/sqrt 5) sum_b |b, 2b, 3b> over F_5, built by direct enumeration
    shape = qc.RegisterShape((5, 5, 5))
    amps = np.zeros(shape.dim, dtype=complex)
    for b in range(5):
        amps[shape.digits_to_index((b, (2 * b) % 5, (3 * b) % 5))] = 1 / np.sqrt(5)
    return qc.StateVector(shape, amps)


def test_measure_codeword_pattern():
    state = codeword_pattern_state()
    rng = qc.make_rng(3)
    for _ in range(200):
        outcome, _ = qc.measure_wires(state, (0, 1, 2), rng)
        b = outcome[0]
        assert outcome == (b, (2 * b) % 5, (3 * b) % 5)


def test_project_zero_branch_raises():
    state = qc.basis_state(qc.RegisterShape((5,)), (3,))
    with pytest.raises(ValueError):
        qc.project_wires(state, (0,), (1,))


# ---------------------------------------------------------------- trace

def test_partial_trace_noop():
    rho = bell_state().to_density()
    out = qc.partial_trace(rho, (0, 1))
    assert np.allclose(out.entries, rho.entries)


def test_partial_trace_bell_is_maximally_mixed():
    rho = bell_state().to_density()
    out = qc.partial_trace(rho, (0,))
    assert np.allclose(out.entries, np.eye(2) / 2)


def test_partial_trace_codeword():
    rho = codeword_pattern_state().to_density()
    out = qc.partial_trace(rho, (0,))
    assert out.shape.dims == (5,)
    assert np.isclose(np.trace(out.entries).real, 1.0)
    assert np.allclose(out.entries, out.entries.conj().T)


def test_trace_distance_examples():
    q2 = qc.RegisterShape((2,))
    zero = qc.basis_state(q2, (0,)).to_density()
    one = qc.basis_state(q2, (1,)).to_density()
    mixed = qc.DensityMatrix(q2, np.eye(2) / 2)
    assert np.isclose(qc.trace_distance(zero, zero), 0.0)
    assert np.isclose(qc.trace_distance(zero, one), 1.0)
    # eigenvalues of diag(1/2, -1/2) give distance 1/2
    assert np.isclose(qc.trace_distance(zero, mixed), 0.5)
    with pytest.raises(ValueError):
        qc.trace_distance(zero, bell_state().to_density())


# ---------------------------------------------------------------- checks

def test_density_matrix_validation():
    q2 = qc.RegisterShape((2,))
    with pytest.raises(ValueError):
        qc.DensityMatrix(q2, np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        qc.DensityMatrix(q2, np.eye(2))
    with pytest.raises(ValueError):
        qc.DensityMatrix(q2, np.array([[1.5, 0.0], [0.0, -0.5]]))


def test_state_and_unitary_validation():
    q2 = qc.RegisterShape((2,))
    with pytest.raises(ValueError):
        qc.StateVector(q2, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        qc.UnitaryMatrix(q2, np.array([[1.0, 1.0], [0.0, 1.0]]))


# ---------------------------------------------------------------- properties

@given(st.data())
@settings(max_examples=40, deadline=None)
def test_index_digit_round_trip(data):
    dims = tuple(data.draw(st.lists(st.sampled_from([2, 3, 5, 7]),
                                    min_size=1, max_size=5)))
    shape = qc.RegisterShape(dims)
    i = data.draw(st.integers(min_value=0, max_value=shape.dim - 1))
    assert shape.digits_to_index(shape.index_to_digits(i)) == i


@given(st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=20, deadline=None)
def test_unitary_preserves_norm(seed):
    rng = qc.make_rng(seed)
    shape = qc.RegisterShape((2, 5))
    amps = rng.normal(size=10) + 1j * rng.normal(size=10)
    amps /= np.linalg.norm(amps)
    state = qc.StateVector(shape, amps)
    u = qc.UnitaryMatrix(qc.RegisterShape((5,)), haar_unitary(5, rng))
    out = qc.apply_on_wires(state, u, (1,))
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-9


@given(st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=20, deadline=None)
def test_partial_trace_of_product(seed):
    rng = qc.make_rng(seed)

    def random_density(dim):
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = z @ z.conj().T
        return m / np.trace(m)

    q2 = qc.RegisterShape((2,))
    q5 = qc.RegisterShape((5,))
    rho = qc.DensityMatrix(q2, random_density(2))
    sigma = qc.DensityMatrix(q5, random_density(5))
    prod = qc.tensor(rho, sigma)
    back = qc.partial_trace(prod, (0,))
    assert np.allclose(back.entries, rho.entries, atol=1e-10)


@given(st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=20, deadline=None)
def test_trace_distance_triangle(seed):
    rng = qc.make_rng(seed)
    q5 = qc.RegisterShape((5,))

    def random_density():
        z = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        m = z @ z.conj().T
        return qc.DensityMatrix(q5, m / np.trace(m))

    a, b, c = random_density(), random_density(), random_density()
    ab = qc.trace_distance(a, b)
    assert ab <= qc.trace_distance(a, c) + qc.trace_distance(c, b) + 1e-8
    assert np.isclose(ab, qc.trace_distance(b, a))


# ------------------------------------------- boundary checks and the kernels

def random_state(dims, rng) -> qc.StateVector:
    dim = int(np.prod(dims))
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return qc.StateVector(qc.RegisterShape(dims), v / np.linalg.norm(v))


def test_apply_on_wires_rejects_bad_wires_after_a_valid_call():
    state = random_state((2, 3, 5), qc.make_rng(40))
    u23 = qc.UnitaryMatrix(qc.RegisterShape((2, 3)),
                           haar_unitary(6, qc.make_rng(41)))
    qc.apply_on_wires(state, u23, (0, 1))  # fills the plan for these dims
    qc.apply_on_wires(state, u23, (0, 1))
    with pytest.raises(ValueError, match="repeated wire"):
        qc.apply_on_wires(state, u23, (0, 0))
    for bad in ((0, 3), (-1, 1)):
        with pytest.raises(ValueError, match="out of range"):
            qc.apply_on_wires(state, u23, bad)
    with pytest.raises(ValueError, match="dimension does not match"):
        qc.apply_on_wires(state, u23, (1, 2))
    with pytest.raises(ValueError, match="dimension does not match"):
        qc.apply_on_wires(state, u23, (2,))


def test_measure_wires_rejects_bad_wires_after_a_valid_call():
    state = random_state((2, 3, 5), qc.make_rng(42))
    rng = qc.make_rng(43)
    qc.measure_wires(state, (2, 0), rng)  # fills the plan for these dims
    with pytest.raises(ValueError, match="repeated wire"):
        qc.measure_wires(state, (2, 2), rng)
    for bad in ((3,), (0, -1)):
        with pytest.raises(ValueError, match="out of range"):
            qc.measure_wires(state, bad, rng)
    with pytest.raises(ValueError, match="out of range"):
        qc.project_wires(state, (2, 0), (5, 0))
    # one outcome digit per wire: zip must not drop the extra wire or digit
    ket = qc.basis_state(qc.RegisterShape((2, 2, 2)), (0, 1, 0))
    for wires, outcome in (((0, 1), (0,)), ((0,), (0, 1))):
        with pytest.raises(ValueError, match="outcome digits for"):
            qc.project_wires(ket, wires, outcome)


def test_wire_lists_and_numpy_ints_are_accepted():
    state = random_state((2, 3, 5), qc.make_rng(44))
    u25 = qc.UnitaryMatrix(qc.RegisterShape((2, 5)),
                           haar_unitary(10, qc.make_rng(45)))
    want = qc.apply_on_wires(state, u25, (0, 2)).amplitudes
    for wires in ([0, 2], (np.int64(0), np.int64(2)), np.array([0, 2])):
        got = qc.apply_on_wires(state, u25, wires).amplitudes
        assert np.array_equal(got, want)
    outcome, post = qc.measure_wires(state, (2, 1), qc.make_rng(46))
    for wires in ([2, 1], (np.int64(2), np.int64(1))):
        got_outcome, got_post = qc.measure_wires(state, wires,
                                                 qc.make_rng(46))
        assert got_outcome == outcome
        assert all(type(d) is int for d in got_outcome)
        assert np.array_equal(got_post.amplitudes, post.amplitudes)


@pytest.mark.parametrize("wires", [(0,), (0, 1), (1,), (2, 0), (1, 3, 0),
                                   (3, 2, 1, 0), (0, 1, 2, 3)])
def test_apply_on_wires_matches_the_embedded_unitary(wires):
    dims = (2, 3, 5, 2)
    rng = qc.make_rng(47)
    state = random_state(dims, rng)
    sub = tuple(dims[w] for w in wires)
    u = qc.UnitaryMatrix(qc.RegisterShape(sub),
                         haar_unitary(int(np.prod(sub)), rng))
    full = qc.embed_unitary(u, wires, state.shape).entries
    got = qc.apply_on_wires(state, u, wires).amplitudes
    assert np.allclose(got, full @ state.amplitudes, atol=1e-12)


def test_whole_register_product_rounds_like_the_column_product():
    # a gate on every wire, in order, is one matrix-vector product; the
    # engines' pinned records hold only if it rounds as the (n, 1) matmul
    # that a gate on fewer wires takes
    rng = qc.make_rng(48)
    for dims in ((2,), (2, 2, 2), (2,) * 6, (5, 5, 5)):
        n = int(np.prod(dims))
        for _ in range(50):
            u = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            got = qc._apply_raw(v, dims, u, tuple(range(len(dims))))
            assert np.array_equal(got, (u @ v.reshape(n, 1)).reshape(-1))


def test_outcome_plan_rows_cover_the_register_and_are_read_only():
    plan = qc._outcome_plan((2, 3, 5), (2, 0))
    shape = qc.RegisterShape((2, 3, 5))
    assert plan.digits == tuple((c, a) for c in range(5) for a in range(2))
    for (c, a), row in zip(plan.digits, plan.rows):
        assert [shape.index_to_digits(int(i)) for i in row] == \
            [(a, b, c) for b in range(3)]
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 0


def skewed_state(dims, rng) -> qc.StateVector:
    """A random state whose Born weights span 18 decades, so some outcomes
    are all but impossible and the cumulative sum has near-flat steps."""
    dim = int(np.prod(dims))
    v = (rng.normal(size=dim) + 1j * rng.normal(size=dim)) \
        * 10.0 ** -rng.integers(0, 10, size=dim)
    return qc.StateVector(qc.RegisterShape(dims), v / np.linalg.norm(v))


def measure_oracle(state: qc.StateVector, wires, rng):
    """Test-only oracle, sharing no code with the measurement kernel: the
    Born distribution of the wires moved to the front, one
    `Generator.choice` draw, then projection by zero-fill and slice copy,
    renormalised by the full-vector `vdot` norm."""
    wires = tuple(wires)
    dims = state.shape.dims
    sub = tuple(dims[w] for w in wires)
    psi = state.amplitudes.reshape(dims)
    moved = np.moveaxis(psi, wires, tuple(range(len(wires))))
    probs = (np.abs(moved.reshape(int(np.prod(sub)), -1)) ** 2).sum(axis=1)
    flat = int(rng.choice(len(probs), p=probs / probs.sum()))
    outcome = tuple(int(d) for d in np.unravel_index(flat, sub))
    sl = [slice(None)] * len(dims)
    for w, o in zip(wires, outcome):
        sl[w] = o
    branch = np.zeros_like(psi)
    branch[tuple(sl)] = psi[tuple(sl)]
    post = branch.reshape(-1) / np.sqrt(np.vdot(branch, branch).real)
    return outcome, qc.StateVector(state.shape, post, check_norm=False)


@pytest.mark.parametrize("seed", range(12))
def test_measure_wires_matches_the_oracle(seed):
    rng = qc.make_rng(500 + seed)
    if seed < 8:
        dims = ((2, 3, 5, 2), (5, 5, 5), (2, 2, 2, 2, 2))[seed % 3]
    else:  # the engines' own: one e=2 Clifford block, the frame engine's peak
        dims = ((2, 2, 2), (5,) * 6)[seed % 2]
    for state in (random_state(dims, rng),
                  skewed_state(dims, qc.make_rng(600 + seed))):
        for _ in range(6):
            k = int(rng.integers(1, len(dims) + 1))
            wires = tuple(int(w) for w in rng.permutation(len(dims))[:k])
            ours, oracle = qc.make_rng(seed), qc.make_rng(seed)
            for _ in range(8):
                got = qc.measure_wires(state, wires, ours)
                want = measure_oracle(state, wires, oracle)
                assert got[0] == want[0]
                assert np.array_equal(got[1].amplitudes, want[1].amplitudes)
            assert int(ours.integers(2 ** 62)) == \
                int(oracle.integers(2 ** 62))


def test_haar_unitary_refuses_a_dimension_above_the_cap():
    rng, fresh = qc.make_rng(3), qc.make_rng(3)
    with pytest.raises(ValueError, match="dimension 4097"):
        qc.haar_unitary(4097, rng)
    assert rng.random() == fresh.random()  # nothing was drawn


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 10, 64, 250])
def test_haar_unitary_is_scipys_draw_bit_for_bit(dim):
    for seed in range(20 if dim < 250 else 3):
        ours, theirs = qc.make_rng(seed), qc.make_rng(seed)
        assert np.array_equal(qc.haar_unitary(dim, ours),
                              unitary_group.rvs(dim, random_state=theirs))
        assert ours.random() == theirs.random()


def test_bit_draws_do_not_depend_on_their_split_into_calls():
    # pcalg._symplectic_draws relies on this: it pools the bits of every
    # candidate of a run of keys into a few calls and still leaves every
    # draw where one call per candidate would (each bit is the top bit of
    # one 32-bit output).  A generator one bit behind can still agree on
    # the next `random()`, so a following 32-bit draw is compared too.
    splits = np.random.default_rng(2024)
    for seed in range(500):
        a, b = (int(k) for k in splits.integers(1, 40, size=2))
        whole, parts = qc.make_rng(seed), qc.make_rng(seed)
        bits = whole.integers(0, 2, size=a + b)
        split = np.concatenate([parts.integers(0, 2, size=a),
                                parts.integers(0, 2, size=b)])
        assert np.array_equal(bits, split)
        assert whole.random() == parts.random()
        assert np.array_equal(whole.integers(0, 2, size=8),
                              parts.integers(0, 2, size=8))
