"""Channel representations: Choi matrices, Kraus sets, sub-channels, reduction."""
import numpy as np
import pytest

from qmarginal.channels import (ChannelFeasibilityError, ChannelInstance,
                                ChannelRepr, LocalChannel, apply_channel,
                                channel_instance_to_marginal, check_kraus,
                                choi_from_kraus, kraus_count_bounds,
                                kraus_from_choi, reduce_kraus_rank, sub_channel)
from qmarginal.hilbert import partial_trace
from qmarginal.numerics import numerical_rank


def random_state(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_channel(rng, din, dout, kraus_count, in_dims, out_dims):
    """Sample a channel by slicing a Haar-random isometry into Kraus blocks."""
    g = (rng.standard_normal((kraus_count * dout, din))
         + 1j * rng.standard_normal((kraus_count * dout, din)))
    q, _ = np.linalg.qr(g)
    ks = [q[j * dout:(j + 1) * dout, :] for j in range(kraus_count)]
    return ks, choi_from_kraus(ks, in_dims, out_dims)


def kraus_action(ks, rho):
    return sum(k @ rho @ k.conj().T for k in ks)


def test_identity_channel_choi():
    """The identity qubit channel is the maximally entangled rank-1 Choi state."""
    ch = choi_from_kraus([np.eye(2, dtype=complex)], (2,), (2,))
    want = np.zeros((4, 4))
    for p in (0, 3):
        for q in (0, 3):
            want[p, q] = 0.5
    assert np.allclose(ch.choi, want)
    assert numerical_rank(ch.choi) == 1
    assert abs(np.trace(ch.choi) - 1.0) <= 1e-14


def test_depolarizing_channel_choi():
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
              np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    ks = [p.astype(complex) / 2 for p in paulis]
    ch = choi_from_kraus(ks, (2,), (2,))
    assert np.allclose(ch.choi, np.eye(4) / 4)


def test_check_kraus_trace_preservation():
    check_kraus([np.eye(2, dtype=complex)], 2, 2)
    with pytest.raises(ValueError):
        check_kraus([np.eye(2, dtype=complex) * 0.5], 2, 2)
    with pytest.raises(ValueError):
        check_kraus([np.eye(2, dtype=complex)], 2, 3)
    with pytest.raises(ValueError):
        check_kraus([], 2, 2)


def test_choi_kraus_roundtrip_action():
    """Kraus sets recovered from the Choi act identically to 1e-10."""
    rng = np.random.default_rng(31)
    for din, dout, count, ind, outd in ((2, 2, 3, (2,), (2,)),
                                        (4, 2, 5, (2, 2), (2,)),
                                        (2, 4, 2, (2,), (2, 2)),
                                        (4, 4, 6, (2, 2), (2, 2))):
        ks, ch = random_channel(rng, din, dout, count, ind, outd)
        back = kraus_from_choi(ch)
        assert len(back) <= count
        for _ in range(4):
            rho = random_state(rng, din)
            a = kraus_action(ks, rho)
            b = kraus_action(back, rho)
            assert np.linalg.norm(a - b) <= 1e-10


def test_kraus_from_choi_minimal_count():
    ch = choi_from_kraus([np.eye(2, dtype=complex)], (2,), (2,))
    assert len(kraus_from_choi(ch)) == 1


def test_kraus_from_choi_rejects_non_cp():
    bad = np.diag([0.5, 0.5, 0.5, -0.5]).astype(complex)
    with pytest.raises(ValueError):
        kraus_from_choi(ChannelRepr((2,), (2,), bad))


def test_apply_channel_matches_kraus_action():
    rng = np.random.default_rng(37)
    ks, ch = random_channel(rng, 4, 4, 3, (2, 2), (2, 2))
    for _ in range(4):
        rho = random_state(rng, 4)
        assert np.linalg.norm(
            apply_channel(ch, rho) - kraus_action(ks, rho)) <= 1e-12


def test_apply_channel_named_channels():
    rng = np.random.default_rng(39)
    rho = random_state(rng, 2)
    ident = choi_from_kraus([np.eye(2, dtype=complex)], (2,), (2,))
    assert np.linalg.norm(apply_channel(ident, rho) - rho) <= 1e-12
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
              np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    depol = choi_from_kraus([p.astype(complex) / 2 for p in paulis], (2,), (2,))
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    assert np.linalg.norm(apply_channel(depol, ket0) - np.eye(2) / 2) <= 1e-12
    flip = choi_from_kraus([np.array([[0, 1], [1, 0]], dtype=complex)],
                           (2,), (2,))
    assert np.linalg.norm(apply_channel(flip, ket0) - np.diag([0.0, 1.0])) <= 1e-12


def test_kraus_from_depolarizing_choi():
    ch = ChannelRepr((2,), (2,), np.eye(4, dtype=complex) / 4)
    ks = kraus_from_choi(ch)
    assert len(ks) == 4
    tp = sum(k.conj().T @ k for k in ks)
    assert np.linalg.norm(tp - np.eye(2)) <= 1e-12


def test_sub_channel_action_formula():
    """A sub-channel acts as: feed the kept inputs with the other inputs
    maximally mixed, then trace out the discarded outputs."""
    rng = np.random.default_rng(41)
    ks, ch = random_channel(rng, 4, 4, 4, (2, 2), (2, 2))
    sub = sub_channel(ch, (0,), (0,))
    assert sub.in_dims == (2,)
    assert sub.out_dims == (2,)
    for _ in range(5):
        rho = random_state(rng, 2)
        got = apply_channel(sub, rho)
        fed = np.kron(rho, np.eye(2) / 2)
        want = partial_trace(apply_channel(ch, fed), (2, 2), (0,))
        assert np.linalg.norm(got - want) <= 1e-12


def test_sub_channel_of_swap_is_depolarizing():
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    ch = choi_from_kraus([swap], (2, 2), (2, 2))
    sub = sub_channel(ch, (0,), (0,))
    assert np.allclose(sub.choi, np.eye(4) / 4, atol=1e-14)


def test_sub_channel_of_identity_is_identity():
    ch = choi_from_kraus([np.eye(4, dtype=complex)], (2, 2), (2, 2))
    ident = choi_from_kraus([np.eye(2, dtype=complex)], (2,), (2,))
    for i in (0, 1):
        sub = sub_channel(ch, (i,), (i,))
        assert np.linalg.norm(sub.choi - ident.choi) <= 1e-12


def test_sub_channel_of_product_channel():
    """Keeping one side of a product channel recovers that factor."""
    rng = np.random.default_rng(61)
    ks_a, ch_a = random_channel(rng, 2, 2, 2, (2,), (2,))
    ks_b, ch_b = random_channel(rng, 2, 2, 3, (2,), (2,))
    prod_ks = [np.kron(ka, kb) for ka in ks_a for kb in ks_b]
    # channel factors live on (in0,in1) -> (out0,out1) in matching order
    prod = choi_from_kraus(prod_ks, (2, 2), (2, 2))
    sub = sub_channel(prod, (0,), (0,))
    assert np.linalg.norm(sub.choi - ch_a.choi) <= 1e-12
    sub_b = sub_channel(prod, (1,), (1,))
    assert np.linalg.norm(sub_b.choi - ch_b.choi) <= 1e-12


def test_sub_channel_keeps_unit_trace():
    rng = np.random.default_rng(43)
    _, ch = random_channel(rng, 4, 4, 5, (2, 2), (2, 2))
    for in_keep, out_keep in (((0,), (0,)), ((1,), (1,)), ((0, 1), (0,))):
        sub = sub_channel(ch, in_keep, out_keep)
        assert abs(np.trace(sub.choi) - 1.0) <= 1e-12


def test_channel_instance_to_marginal_shapes():
    rng = np.random.default_rng(47)
    _, ch = random_channel(rng, 4, 4, 4, (2, 2), (2, 2))
    locs = (LocalChannel((0,), (0,), sub_channel(ch, (0,), (0,))),
            LocalChannel((1,), (1,), sub_channel(ch, (1,), (1,))))
    inst = ChannelInstance((2, 2), (2, 2), locs)
    marg = channel_instance_to_marginal(inst)
    assert marg.dims == (2, 2, 2, 2)
    # two sub-channel constraints plus the trace-preservation constraint
    assert len(marg.constraints) == 3


def test_kraus_count_bounds_two_qubit_locals():
    rng = np.random.default_rng(53)
    _, ch = random_channel(rng, 4, 4, 4, (2, 2), (2, 2))
    locs = (LocalChannel((0,), (0,), sub_channel(ch, (0,), (0,))),
            LocalChannel((1,), (1,), sub_channel(ch, (1,), (1,))))
    inst = ChannelInstance((2, 2), (2, 2), locs)
    bounds = kraus_count_bounds(inst)
    assert bounds["paper"] == 5  # isqrt(2 * 16)
    assert bounds["tp_augmented"] == 6  # isqrt(2 * 16 + 16)


def test_reduce_kraus_rank_end_to_end():
    """Matching the two single-qubit sub-channels of a random channel needs at
    most six Kraus operators, and the result is trace preserving."""
    rng = np.random.default_rng(42)
    _, full = random_channel(rng, 4, 4, 16, (2, 2), (2, 2))
    targets = [sub_channel(full, (i,), (i,)) for i in (0, 1)]
    locs = (LocalChannel((0,), (0,), targets[0]),
            LocalChannel((1,), (1,), targets[1]))
    inst = ChannelInstance((2, 2), (2, 2), locs)
    channel, trace = reduce_kraus_rank(inst, seed=0)
    kraus = kraus_from_choi(channel)
    assert len(kraus) <= 6
    assert trace.notes["paper"] == 5
    assert trace.notes["tp_augmented"] == 6
    assert trace.notes["kraus_count"] == len(kraus)
    tp = sum(k.conj().T @ k for k in kraus)
    assert np.linalg.norm(tp - np.eye(4)) <= 1e-8
    for i in (0, 1):
        got = sub_channel(channel, (i,), (i,))
        assert np.linalg.norm(got.choi - targets[i].choi) <= 1e-7


def test_reduce_kraus_rank_single_full_local_pins_channel():
    """One local covering every factor forces the result to be that channel."""
    rng = np.random.default_rng(67)
    _, ch = random_channel(rng, 2, 2, 2, (2,), (2,))
    inst = ChannelInstance((2,), (2,), (LocalChannel((0,), (0,), ch),))
    channel, trace = reduce_kraus_rank(inst)
    assert np.linalg.norm(channel.choi - ch.choi) <= 1e-7
    assert trace.notes["kraus_count"] == numerical_rank(ch.choi)


def test_reduce_kraus_rank_identity_locals():
    """Identity sub-channel targets admit a low-count trace preserving fit."""
    ident = choi_from_kraus([np.eye(2, dtype=complex)], (2,), (2,))
    inst = ChannelInstance(
        (2, 2), (2, 2),
        (LocalChannel((0,), (0,), ident), LocalChannel((1,), (1,), ident)))
    channel, trace = reduce_kraus_rank(inst, seed=1)
    kraus = kraus_from_choi(channel)
    assert len(kraus) <= 6
    tp = sum(k.conj().T @ k for k in kraus)
    assert np.linalg.norm(tp - np.eye(4)) <= 1e-8
    for i in (0, 1):
        got = sub_channel(channel, (i,), (i,))
        assert np.linalg.norm(got.choi - ident.choi) <= 1e-7


def test_reduce_kraus_rank_infeasible_targets():
    """Two different targets on the same factor cannot both be sub-channels."""
    rng = np.random.default_rng(59)
    _, ch_a = random_channel(rng, 2, 2, 2, (2,), (2,))
    _, ch_b = random_channel(rng, 2, 2, 2, (2,), (2,))
    assert np.linalg.norm(ch_a.choi - ch_b.choi) > 0.1
    locs = (LocalChannel((0,), (0,), ch_a), LocalChannel((0,), (0,), ch_b))
    inst = ChannelInstance((2,), (2,), locs)
    with pytest.raises(ChannelFeasibilityError):
        reduce_kraus_rank(inst, max_iters=1200)


def test_channel_repr_validation():
    with pytest.raises(ValueError):
        ChannelRepr((2,), (2,), np.eye(3, dtype=complex) / 3)
    with pytest.raises(ValueError):
        ChannelRepr((), (2,), np.eye(2, dtype=complex) / 2)
    ch = ChannelRepr((2, 2), (3,), np.eye(12, dtype=complex) / 12)
    assert ch.dim_in == 4
    assert ch.dim_out == 3
