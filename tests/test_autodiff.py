"""Finite-difference checks for every tape op: the production ops in
`autodiff` and the single-array reference ops in `tape_reference`."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from tracelink import autodiff as ad
from tracelink.autodiff import Tensor

import tape_reference as ref


def fd_check(build, arrays, h=1e-6, tol=1e-6, seed=0):
    """Compare backward() gradients of scalar `build(*tensors)` against
    central finite differences for every input entry."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    assert out.data.size == 1
    out.backward()
    for t_idx, t in enumerate(tensors):
        grad = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = float(build(*tensors).data)
            flat[i] = orig - h
            lo = float(build(*tensors).data)
            flat[i] = orig
            fd = (hi - lo) / (2 * h)
            assert grad.ravel()[i] == pytest.approx(fd, rel=tol, abs=tol), (
                f"input {t_idx}, entry {i}: analytic {grad.ravel()[i]} vs fd {fd}"
            )


def rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


def test_add_mul_broadcast():
    fd_check(lambda a, b: ref.tsum(ref.add(ref.mul(a, b), a)), [rand((3, 4), 1), rand((4,), 2)])


def test_sub_div_scalars():
    fd_check(lambda a, b: ref.tsum(ref.div(ref.sub(a, ref.mul(2.0, b)), ref.add(b, 10.0))),
             [rand((5,), 3), rand((5,), 4) + 3.0])


def test_rsub_rdiv():
    fd_check(lambda a: ref.add(ref.tsum(ref.sub(1.0, a)), ref.tsum(ref.div(2.0, ref.add(a, 5.0)))), [rand((4,), 5)])


def test_matmul_2d_2d():
    fd_check(lambda a, b: ref.tsum(ref.matmul(a, b)), [rand((3, 4), 6), rand((4, 2), 7)])


def test_matmul_2d_1d():
    fd_check(lambda a, b: ref.tsum(ref.matmul(a, b)), [rand((3, 4), 8), rand((4,), 9)])


def test_matmul_1d_2d():
    fd_check(lambda a, b: ref.tsum(ref.matmul(a, b)), [rand((3,), 10), rand((3, 2), 11)])


def test_gather_rows_accumulates_duplicates():
    idx = np.array([0, 2, 2, 1, 0])
    fd_check(lambda a: ref.tsum(ref.mul(ref.gather(a, idx), 1.5)), [rand((3, 2), 12)])


def test_scatter_add_groups():
    idx = np.array([1, 1, 0, 2, 1])
    fd_check(lambda a: ref.tsum(ref.scatter_add(a, idx, 4)), [rand((5, 3), 13)])
    # Forward semantics against a python loop.
    a = rand((5, 3), 14)
    out = ref.scatter_add(Tensor(a), idx, 4).data
    expect = np.zeros((4, 3))
    for row, j in zip(a, idx):
        expect[j] += row
    np.testing.assert_allclose(out, expect)


def test_narrow_slices():
    fd_check(lambda a: ref.tsum(ref.narrow(a, 1, 4)), [rand((6,), 15)])


def test_concat_axis1():
    fd_check(lambda a, b: ref.tsum(ref.concat([a, b])), [rand((3, 2), 16), rand((3, 4), 17)])


def test_reshape():
    fd_check(lambda a: ref.tsum(ref.reshape(a, (2, 6))), [rand((3, 4), 18)])


def test_sum_axis():
    fd_check(lambda a: ref.tsum(ref.mul(ref.tsum(a, axis=1), rand((3,), 19))), [rand((3, 4), 20)])


def test_exp_log():
    # softplus(y) = log(1 + e^y), so this also checks the log form.
    fd_check(lambda a: ref.tsum(ref.softplus(ref.exp(a))), [rand((4,), 21)])


def test_sigmoid_matches_closed_form():
    x = rand((7,), 22)
    np.testing.assert_allclose(ad.sigmoid(x), 1 / (1 + np.exp(-x)), rtol=1e-12)


def test_sigmoid_extreme_inputs_stay_finite():
    out = ad.sigmoid(np.array([-1000.0, 1000.0]))
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(0.0, abs=1e-300)
    assert out[1] == pytest.approx(1.0)


def masked_sigmoid(x):
    """The two-branch form `ad.sigmoid` replaced: each branch computed on
    its own elements, gathered and scattered through a boolean mask."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


EDGE_FLOATS = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e308, -1e308,
               709.0, -709.0, 709.78, -709.78, 710.0, -710.0, 745.2, -745.2, 36.7, -36.7, np.nan]


@given(st.lists(st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)), max_size=200))
@example(EDGE_FLOATS)
@example(EDGE_FLOATS[::-1] * 9)
def test_sigmoid_equals_the_masked_two_branch_form_bitwise(values):
    x = np.array(values, dtype=np.float64)
    got, want = ad.sigmoid(x), masked_sigmoid(x)
    assert got.shape == x.shape and got.dtype == np.float64
    assert np.array_equal(np.isnan(got), np.isnan(x))  # NaN in, NaN out, and only there
    finite = ~np.isnan(x)
    assert np.array_equal(got[finite].view(np.int64), want[finite].view(np.int64))


def test_softplus_matches_closed_form():
    x = rand((9,), 31)
    out = ref.softplus(Tensor(x)).data
    np.testing.assert_allclose(out, np.log1p(np.exp(x)), rtol=1e-12)
    fd_check(lambda a: ref.tsum(ref.softplus(a)), [x])


def test_softplus_extreme_inputs_stay_finite():
    x = Tensor(np.array([-800.0, 0.0, 800.0]), requires_grad=True)
    out = ref.softplus(x)
    # saturates to 0 on the left and to the identity on the right, no overflow
    np.testing.assert_allclose(out.data, [0.0, np.log(2.0), 800.0], atol=1e-12)
    ref.tsum(out).backward()
    # the gradient is sigmoid(x): it saturates but never turns into NaN,
    # and stays strictly positive wherever x is finite on the right tail
    np.testing.assert_allclose(x.grad, [0.0, 0.5, 1.0], atol=1e-12)
    assert np.all(np.isfinite(x.grad))


def test_leaky_relu_slope():
    x = np.array([-2.0, -0.5, 0.5, 3.0])
    out = ref.leaky_relu(Tensor(x), 0.2).data
    np.testing.assert_allclose(out, [-0.4, -0.1, 0.5, 3.0])
    fd_check(lambda a: ref.tsum(ref.leaky_relu(a, 0.2)), [x])


def test_elu_continuous_at_zero():
    x = np.array([-3.0, -1e-9, 1e-9, 2.0])
    out = ref.elu(Tensor(x), 1.0).data
    np.testing.assert_allclose(out, np.where(x > 0, x, np.expm1(x)))
    fd_check(lambda a: ref.tsum(ref.elu(a, 1.0)), [np.array([-2.0, -0.3, 0.4, 1.5])])


def test_elu_matches_select_form_exactly():
    x = np.concatenate([rand((50,), 30), [0.0, np.inf, -np.inf, 1e-300, -1e-300, 40.0]])
    for alpha in (1.0, 0.5, 2.0):
        t = Tensor(x, requires_grad=True)
        out = ref.elu(t, alpha)
        assert np.array_equal(out.data, np.where(x > 0, x, alpha * np.expm1(x)))
        ref.tsum(out).backward()
        assert np.array_equal(t.grad, np.where(x > 0, 1.0, out.data + alpha))


def test_segment_sum_equals_add_at_bitwise():
    rng = np.random.default_rng(31)
    idx = rng.integers(0, 7, size=200)
    for values in (rng.normal(size=200) * 10.0 ** rng.integers(-8, 8, size=200),
                   rng.normal(size=(200, 5)), np.empty((200, 0))):
        expect = np.zeros((9,) + values.shape[1:])
        np.add.at(expect, idx, values)
        got = ad.segment_sum(values, idx, 9)
        assert got.shape == expect.shape and np.array_equal(got, expect)
    for values in (np.empty(0), np.empty((0, 4))):
        got = ad.segment_sum(values, np.empty(0, dtype=np.intp), 3)
        assert got.dtype == np.float64 and np.array_equal(got, np.zeros((3,) + values.shape[1:]))


def test_segment_sum_rejects_out_of_range_rows():
    with pytest.raises(IndexError):
        ad.segment_sum(np.ones((3, 2)), np.array([0, 4, 1]), 4)
    with pytest.raises(IndexError):
        ad.segment_sum(np.ones(3), np.array([0, 4, 1]), 4)


def test_fused_node_routes_gradients_to_parents():
    # out = a * c with a hand-written backward; the constant c gets nothing.
    a = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    c = Tensor(np.array([3.0, 5.0]))
    out = ad.fused(a.data * c.data, (a, c), lambda g: (g * c.data, g * a.data))
    ref.tsum(ref.mul(out, 2.0)).backward()
    np.testing.assert_array_equal(a.grad, [6.0, 10.0])
    assert c.grad is None
    assert not ad.fused(c.data, (c,), lambda g: (g,)).requires_grad


def test_segment_max():
    vals = np.array([1.0, 5.0, -2.0, 3.0])
    idx = np.array([0, 1, 1, 0])
    np.testing.assert_allclose(ad.segment_max(vals, idx, 3), [3.0, 5.0, -np.inf])


def test_grad_accumulates_across_uses():
    # y = a*a uses `a` twice; dy/da = 2a.
    a = Tensor(np.array([3.0]), requires_grad=True)
    out = ref.tsum(ref.mul(a, a))
    out.backward()
    np.testing.assert_allclose(a.grad, [6.0])


def test_constants_never_get_grads():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    c = Tensor(np.array([5.0, 5.0]))
    out = ref.tsum(ref.mul(a, c))
    out.backward()
    assert c.grad is None
    np.testing.assert_allclose(a.grad, [5.0, 5.0])


def test_backward_requires_scalar():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        ref.mul(a, 2.0).backward()


def test_diamond_graph_topological_order():
    # b and c both feed d; a's grad must combine both paths exactly once.
    a = Tensor(np.array([2.0]), requires_grad=True)
    b = ref.mul(a, 3.0)
    c = ref.mul(a, 4.0)
    d = ref.tsum(ref.mul(b, c))  # d = 12 a^2, dd/da = 24 a
    d.backward()
    np.testing.assert_allclose(a.grad, [48.0])


def test_accumulate_never_writes_to_a_stored_gradient(monkeypatch):
    # x fills both column blocks of h, so its first gradient is a view of
    # h's and its second comes by the other path: every array handed to
    # _accumulate must keep its values.
    handed, accumulate = [], Tensor._accumulate
    monkeypatch.setattr(Tensor, "_accumulate", lambda t, g: handed.append((g, g.copy())) or accumulate(t, g))
    x = Tensor(rand((3, 2), 40), requires_grad=True)
    h = ref.concat([x, x])
    y, weights = ref.elu(h), rand((3, 4), 41)
    ad.fused(np.sum(y.data * weights), (y,), lambda g: (g * weights,)).backward()
    assert len(handed) == 4 and all(np.array_equal(g, seen) for g, seen in handed)
    assert np.array_equal(x.grad, h.grad[:, :2] + h.grad[:, 2:])
    assert not np.shares_memory(x.grad, h.grad)
