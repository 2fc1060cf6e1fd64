"""Tensor arithmetic, tape gradients, and optimizer updates.

Gradient checks use an independent central finite-difference oracle; the
convolution is checked against a quadruple-loop reference.
"""

import copy
import os
import platform
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from fewshot_ibp import layers as L
from fewshot_ibp import tensor as T
from fewshot_ibp.objective import WeightTriple
from fewshot_ibp.optim import STABILIZER, adam, optimizer_step


def fd_gradient(loss_fn, arrays, index, step=1e-5):
    """Central finite differences of ``loss_fn(arrays)`` w.r.t. one array."""
    base = [a.copy() for a in arrays]
    grad = np.zeros_like(base[index])
    it = np.nditer(base[index], flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        plus = [a.copy() for a in base]
        minus = [a.copy() for a in base]
        plus[index][i] += step
        minus[index][i] -= step
        grad[i] = (loss_fn(plus) - loss_fn(minus)) / (2 * step)
        it.iternext()
    return grad


def scalar_matvec(w, x):
    """Independent scalar-loop oracle for W @ x."""
    out = []
    for row in w:
        acc = 0.0
        for wij, xj in zip(row, x):
            acc += wij * xj
        out.append(acc)
    return np.array(out)


def randomize_biases(net, rng, scale=0.1):
    """Move biases off zero so relu pre-activations avoid the exact kink,
    where finite differences disagree with any subgradient choice."""
    arrays = []
    for layer in net.layers:
        for name, arr in layer.param_items():
            if name == "bias":
                arr = arr + scale * rng.standard_normal(arr.shape)
            arrays.append(arr)
    net.set_parameter_arrays(arrays)


def param_leaves(layers, tape) -> list[dict]:
    """One tape leaf per parameter, one dict per layer, as the training
    steps make them."""
    return [{name: tape.leaf(arr) for name, arr in layer.param_items()} for layer in layers]


class TestAsTensor:
    def test_rejects_non_finite(self):
        with pytest.raises(T.NonFiniteError):
            T.as_tensor([1.0, np.nan])
        with pytest.raises(T.NonFiniteError):
            T.as_tensor([np.inf])

    def test_result_is_immutable(self):
        arr = T.as_tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            arr[0] = 5.0


class TestForward:
    def test_identity_affine(self):
        layer = L.fully_connected(np.eye(2), np.zeros(2))
        out = L.forward([layer], np.array([[3.0, -1.0]]))
        np.testing.assert_array_equal(out, [[3.0, -1.0]])

    def test_relu_definition(self):
        out = L.forward([L.relu()], np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_affine_matches_scalar_loop_oracle(self):
        w = np.array([[1.0, -1.0], [2.0, 0.0]])
        b = np.array([1.0, 1.0])
        x = np.array([1.0, 1.0])
        expected = scalar_matvec(w, x) + b
        np.testing.assert_array_equal(expected, [1.0, 3.0])  # frozen from oracle
        layer = L.fully_connected(w, b)
        out = L.forward([layer], x[None, :])
        np.testing.assert_allclose(out[0], expected)

    def test_shape_mismatch_raises(self):
        layer = L.fully_connected(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            L.forward([layer], np.zeros((1, 3)))

    def test_non_finite_input_raises(self):
        layer = L.fully_connected(np.eye(2), np.zeros(2))
        bad = np.array([[1.0, np.nan]])
        with pytest.raises(T.NonFiniteError):
            L.forward([layer], bad)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        tape = T.Tape()
        x = tape.leaf(np.arange(6.0).reshape(2, 3))
        loss = T.sum_(x)
        (g,) = tape.backward(loss, [x]).values()
        np.testing.assert_array_equal(g, np.ones((2, 3)))

    def test_square_gradient(self):
        tape = T.Tape()
        x = tape.leaf(np.array(3.0))
        (g,) = tape.backward(T.mul(x, x), [x]).values()
        assert g == pytest.approx(6.0)

    def test_diamond_graph_accumulates_once_per_node(self):
        # y = x*x + x*x: both branches must contribute, giving 4x
        tape = T.Tape()
        x = tape.leaf(np.array(2.0))
        y = T.add(T.mul(x, x), T.mul(x, x))
        (g,) = tape.backward(y, [x]).values()
        assert g == pytest.approx(8.0)

    def test_parents_are_the_operands_in_call_order(self):
        tape = T.Tape()
        x, b = tape.leaf(np.ones((2, 3))), tape.leaf(np.ones(4))
        w = np.ones((4, 3))
        assert all(p is q for p, q in zip(T.linear(x, w, b).parents, (x, w, b), strict=True))
        assert all(p is q for p, q in zip(T.linear(x, w).parents, (x, w, None), strict=True))
        assert all(p is q for p, q in zip(T.mul(x, 2.0).parents, (x, 2.0), strict=True))

    @pytest.mark.parametrize("build_graph", [False, True])
    @pytest.mark.parametrize("count", [1, 3])
    def test_vjp_returning_the_wrong_adjoint_count_raises(self, count, build_graph):
        # a node of two operands whose vjp returns one adjoint too few or too many
        tape = T.Tape()
        x, y = tape.leaf(np.ones(2)), tape.leaf(np.ones(2))
        out = T.Node(tape, np.ones(2), (x, y), lambda g, inputs, o: (g,) * count)
        with pytest.raises(ValueError):
            tape.backward(T.sum_(out), [x, y], build_graph=build_graph)

    @pytest.mark.parametrize("build_graph", [False, True])
    @pytest.mark.parametrize("shape", [(3,), (2, 3)])
    def test_loss_of_any_shape_gives_the_gradient_of_its_sum(self, shape, build_graph):
        # a per-task loss goes straight in: bit-equal to a sum_ node on top
        x0 = np.random.default_rng(7).standard_normal(shape)
        c = np.linspace(-1.0, 2.0, x0.size).reshape(shape)
        got = []
        for wrap in (lambda loss: loss, T.sum_):
            tape = T.Tape()
            x, w = tape.leaf(x0), tape.leaf(c)
            loss = T.mul(T.mul(x, x), w)
            grads = tape.backward(wrap(loss), [x, w], build_graph=build_graph)
            assert isinstance(grads[x], T.Node) == build_graph
            got.append([T.value_of(grads[p]) for p in (x, w)])
        for g, want in zip(*got):
            assert (g.shape, g.tobytes()) == (want.shape, want.tobytes())
        np.testing.assert_array_equal(got[0][0], 2.0 * x0 * c)

    def test_foreign_parameter_rejected(self):
        tape, other = T.Tape(), T.Tape()
        x = tape.leaf(np.array(1.0))
        w = other.leaf(np.array(1.0))
        with pytest.raises(ValueError):
            tape.backward(T.mul(x, x), [w])

    def test_nodes_have_no_arithmetic_operators(self):
        # values combine only through the tape ops, which record them
        tape = T.Tape()
        a, b = tape.leaf(np.ones(3)), tape.leaf(np.ones(3))
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            np.ones(3) * a
        assert len(tape) == 2

    def test_backward_on_a_released_tape_raises(self):
        # once gave silent zero gradients: the released tape had no nodes to walk
        with T.Tape() as tape:
            x = tape.leaf(np.ones(3))
            y = T.sum_(T.mul(x, x))
        with pytest.raises(ValueError, match="released"):
            tape.backward(y, [x])

    def test_recording_on_a_released_tape_raises(self):
        tape = T.Tape()
        x = tape.leaf(np.ones(3))
        tape.release()
        with pytest.raises(ValueError, match="released"):
            T.mul(x, x)
        with pytest.raises(ValueError, match="released"):
            tape.leaf(np.ones(3))
        assert len(tape) == 0
        np.testing.assert_array_equal(T.mul(T.value_of(x), 2.0), np.full(3, 2.0))

    def test_unreached_parameter_gets_zero_gradient(self):
        tape = T.Tape()
        x = tape.leaf(np.array(1.0))
        w = tape.leaf(np.ones(4))
        grads = tape.backward(T.mul(x, x), [x, w])
        np.testing.assert_array_equal(grads[w], np.zeros(4))

    def test_no_parameters_give_no_gradients(self):
        tape = T.Tape()
        x = tape.leaf(np.ones(3))
        loss = T.sum_(T.mul(x, x))
        for build_graph in (False, True):
            assert tape.backward(loss, [], build_graph=build_graph) == {}

    @staticmethod
    def computed_parameter_tape():
        """A leaf ``x``, a parameter ``y = (x·2)·x`` computed from it through
        a node that is not requested, and the loss ``sum(y·c)``: ``c`` is
        the adjoint of ``y``, ``4·x·c`` the full adjoint of ``x``."""
        tape = T.Tape()
        x0, c = np.array([1.5, -2.0, 0.5]), np.array([0.25, 3.0, -1.0])
        x = tape.leaf(x0)
        y = T.mul(T.mul(x, 2.0), x)
        return tape, x, y, T.sum_(T.mul(y, c)), {"x": 4.0 * x0 * c, "y": c}

    @pytest.mark.parametrize("build_graph", [False, True])
    @pytest.mark.parametrize("names", [("x", "y"), ("y", "x")])
    def test_a_parameter_computed_from_another_keeps_both_adjoints(self, names, build_graph):
        # in either order: the walk starts at the first requested parameter
        # on the tape, wherever it stands in the list
        tape, x, y, loss, want = self.computed_parameter_tape()
        params = {"x": x, "y": y}
        grads = tape.backward(loss, [params[n] for n in names], build_graph=build_graph)
        assert list(grads) == [params[n] for n in names]
        for name in names:
            np.testing.assert_array_equal(T.value_of(grads[params[name]]), want[name])

    def test_graph_mode_differentiates_through_a_computed_parameter(self):
        tape, x, y, loss, _ = self.computed_parameter_tape()
        grads = tape.backward(loss, [y, x], build_graph=True)
        h = tape.backward(T.sum_(grads[x]), [x])  # d/dx sum(4·x·c) = 4·c
        np.testing.assert_array_equal(h[x], [1.0, 12.0, -4.0])

    def test_graph_mode_adjoints_of_no_requested_parameter_are_arrays(self):
        # one rule for both: the adjoint c of y depends on no requested
        # parameter, and neither do the zeros of an unreached parameter
        tape, x, y, loss, want = self.computed_parameter_tape()
        w = tape.leaf(np.ones(2))
        grads = tape.backward(loss, [y, w], build_graph=True)
        assert type(grads[y]) is np.ndarray and type(grads[w]) is np.ndarray
        np.testing.assert_array_equal(grads[y], want["y"])
        np.testing.assert_array_equal(grads[w], np.zeros(2))

    def test_graph_mode_runs_no_vjp_of_a_requested_parameter(self):
        # y is requested and x is not: only nodes computed from y are
        # walked, so no adjoint of x or of x·2 is recorded
        tape, x, y, loss, want = self.computed_parameter_tape()
        before = len(tape)
        grads = tape.backward(loss, [y], build_graph=True)
        assert len(tape) == before
        np.testing.assert_array_equal(T.value_of(grads[y]), want["y"])

    def test_two_layer_net_cross_entropy_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 4))
        labels = rng.integers(0, 3, size=5)
        net = L.Network(
            [L.init_fully_connected(4, 8, rng), L.relu(), L.init_fully_connected(8, 3, rng)],
            split_index=2,
        )
        randomize_biases(net, rng)
        from fewshot_ibp.learners import cross_entropy

        def loss_fn(arrays):
            trial = copy.deepcopy(net)
            trial.set_parameter_arrays(arrays)
            logits = L.forward(trial.layers, x)
            return float(T.value_of(cross_entropy(logits, labels)))

        tape = T.Tape()
        params = param_leaves(net.layers, tape)
        logits = L.forward(net.layers, x, params=params)
        loss = cross_entropy(logits, labels)
        flat = L.param_nodes_to_list(params)
        grads = tape.backward(loss, flat)
        arrays = net.parameter_arrays()
        for idx, node in enumerate(flat):
            fd = fd_gradient(loss_fn, arrays, idx)
            scale = max(np.max(np.abs(fd)), 1e-8)
            assert np.max(np.abs(grads[node] - fd)) / scale < 1e-5


class TestGradientProperty:
    def test_random_networks_match_finite_differences(self):
        # layered nets up to 4 layers / 64 units, relative error <= 1e-5
        rng = np.random.default_rng(17)
        from fewshot_ibp.learners import cross_entropy

        for trial in range(10):
            dims = [int(rng.integers(2, 7))]
            n_layers = int(rng.integers(1, 5))
            layers = []
            for i in range(n_layers):
                out = int(rng.integers(2, 9))
                layers.append(L.init_fully_connected(dims[-1], out, rng))
                dims.append(out)
                if i < n_layers - 1 and rng.uniform() < 0.5:
                    layers.append(L.relu())
            net = L.Network(layers, split_index=len(layers))
            randomize_biases(net, rng)
            x = rng.standard_normal((4, dims[0]))
            labels = rng.integers(0, dims[-1], size=4)

            def loss_fn(arrays):
                trial_net = copy.deepcopy(net)
                trial_net.set_parameter_arrays(arrays)
                return float(T.value_of(cross_entropy(L.forward(trial_net.layers, x), labels)))

            tape = T.Tape()
            params = param_leaves(net.layers, tape)
            loss = cross_entropy(L.forward(net.layers, x, params=params), labels)
            flat = L.param_nodes_to_list(params)
            grads = tape.backward(loss, flat)
            arrays = net.parameter_arrays()
            for idx, node in enumerate(flat):
                fd = fd_gradient(loss_fn, arrays, idx)
                scale = max(np.max(np.abs(fd)), 1e-6)
                assert np.max(np.abs(grads[node] - fd)) / scale < 1e-5


class TestDeterminism:
    def test_same_seed_bit_identical_forward_and_gradients(self):
        def run():
            rng = np.random.default_rng(42)
            net = L.Network(
                [L.init_fully_connected(3, 5, rng), L.relu(), L.init_fully_connected(5, 2, rng)],
                split_index=2,
            )
            x = rng.standard_normal((4, 3))
            tape = T.Tape()
            params = param_leaves(net.layers, tape)
            out = L.forward(net.layers, x, params=params)
            loss = T.sum_(T.mul(out, out))
            grads = tape.backward(loss, L.param_nodes_to_list(params))
            return T.value_of(out), [g for g in grads.values()]

        out1, grads1 = run()
        out2, grads2 = run()
        assert np.array_equal(out1, out2)
        for g1, g2 in zip(grads1, grads2):
            assert np.array_equal(g1, g2)


class TestConv:
    def naive_conv(self, x, w, b, stride):
        n, ci, h, wd = x.shape
        co, _, kh, kw = w.shape
        oh = (h - kh) // stride + 1
        ow = (wd - kw) // stride + 1
        out = np.zeros((n, co, oh, ow))
        for ni in range(n):
            for oc in range(co):
                for i in range(oh):
                    for j in range(ow):
                        patch = x[ni, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                        out[ni, oc, i, j] = np.sum(patch * w[oc]) + b[oc]
        return out

    @pytest.mark.parametrize("h,w,k,stride", [(3, 3, 1, 1), (5, 4, 2, 1), (8, 8, 3, 1), (8, 8, 3, 2), (6, 8, 2, 2)])
    def test_matches_quadruple_loop_reference(self, h, w, k, stride):
        rng = np.random.default_rng(h * 100 + w * 10 + k)
        x = rng.standard_normal((2, 3, h, w))
        weight = rng.standard_normal((4, 3, k, k))
        bias = rng.standard_normal(4)
        got = T.conv2d(x, weight, bias, stride=stride)
        np.testing.assert_allclose(got, self.naive_conv(x, weight, bias, stride), atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 2, 5, 5))
        weight = rng.standard_normal((3, 2, 3, 3))
        bias = rng.standard_normal(3)

        def loss_fn(arrays):
            return float(np.sum(T.conv2d(*arrays) ** 2))

        tape = T.Tape()
        nodes = [tape.leaf(a) for a in (x, weight, bias)]
        out = T.conv2d(*nodes)
        loss = T.sum_(T.mul(out, out))
        grads = tape.backward(loss, nodes)
        for idx, node in enumerate(nodes):
            fd = fd_gradient(loss_fn, [x, weight, bias], idx)
            assert np.max(np.abs(grads[node] - fd)) / np.max(np.abs(fd)) < 1e-5

    def test_bad_kernel_rank_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(1, 1, 5, 5\).*\(3, 3\)"):
            T.conv2d(np.zeros((1, 1, 5, 5)), np.zeros((3, 3)), None)

    def test_window_too_large_rejected(self):
        x = np.zeros((1, 1, 4, 4))
        with pytest.raises(ValueError, match="too large"):
            T.conv2d(x, np.zeros((1, 1, 5, 5)), None)
        with pytest.raises(ValueError, match="too large"):
            T.maxpool2d(x, 5)


def run_in_fresh_process(script: str) -> str:
    """Standard output of ``script`` run by a new interpreter that imports
    this package from where the tests import it."""
    src = str(Path(T.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return out.stdout


# Untaped calls of the first conv of the benchmark's conv workload (75 queries
# of 1x10x10), after warm-up; prints the minor page faults per call.
CONV_FAULTS_SCRIPT = """
import resource
import numpy as np
from fewshot_ibp.tensor import conv2d

rng = np.random.default_rng(0)
x = rng.standard_normal((75, 1, 10, 10))
weight = rng.standard_normal((8, 1, 3, 3))
bias = rng.standard_normal(8)
for _ in range(5):
    conv2d(x, weight, bias)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    conv2d(x, weight, bias)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""


class TestHeapPages:
    """Importing the package sets glibc's allocator thresholds, so the
    arrays of one call reuse the heap pages the previous call freed."""

    @pytest.mark.skipif(
        platform.libc_ver()[0] != "glibc", reason="the thresholds are set only under glibc"
    )
    def test_conv2d_reuses_freed_pages(self):
        # in a fresh process: what the test runner's imports allocate and
        # free moves glibc's dynamic thresholds; about 128 faults per call
        # with the thresholds glibc starts with
        assert float(run_in_fresh_process(CONV_FAULTS_SCRIPT)) < 8

    @pytest.mark.parametrize("libc,calls", [
        ("glibc", [(-3, 4 << 20), (-1, 16 << 20)]),
        ("", []),
        ("musl", []),
    ])
    def test_thresholds_are_set_only_under_glibc(self, monkeypatch, libc, calls):
        made = []

        def mallopt(param, value):
            made.append((param, value))
            return 1

        monkeypatch.setattr(T.platform, "libc_ver", lambda: (libc, "1.0"))
        monkeypatch.setattr(T.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        T._keep_heap_pages()
        assert made == calls


class TestMaxpoolAndBatchnorm:
    def test_maxpool_forward_and_gradient(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 2, 4, 4))
        out = T.maxpool2d(x, 2)
        # naive reference
        ref = np.zeros_like(out)
        for n in range(2):
            for c in range(2):
                for i in range(2):
                    for j in range(2):
                        ref[n, c, i, j] = x[n, c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].max()
        np.testing.assert_array_equal(out, ref)

        def loss_fn(arrays):
            return float(np.sum(T.maxpool2d(arrays[0], 2) ** 2))

        tape = T.Tape()
        xn = tape.leaf(x)
        loss = T.sum_(T.mul(T.maxpool2d(xn, 2), T.maxpool2d(xn, 2)))
        (g,) = tape.backward(loss, [xn]).values()
        fd = fd_gradient(loss_fn, [x], 0)
        assert np.max(np.abs(g - fd)) / np.max(np.abs(fd)) < 1e-5

    @pytest.mark.parametrize("window,stride", [(2, 1), (3, 1), (3, 2)])
    def test_overlapping_maxpool_gradient_matches_finite_differences(self, window, stride):
        x = np.random.default_rng(11).standard_normal((2, 2, 7, 7))
        c = np.random.default_rng(12).standard_normal(
            np.shape(T.maxpool2d(x, window, stride))
        )

        def loss_fn(arrays):
            return float(np.sum(T.maxpool2d(arrays[0], window, stride) ** 2 * c))

        tape = T.Tape()
        xn = tape.leaf(x)
        out = T.maxpool2d(xn, window, stride)
        (g,) = tape.backward(T.sum_(T.mul(T.mul(out, out), c)), [xn]).values()
        fd = fd_gradient(loss_fn, [x], 0)
        assert np.max(np.abs(g - fd)) / np.max(np.abs(fd)) < 1e-5

    def test_maxpool_validates_window(self):
        with pytest.raises(ValueError):
            T.maxpool2d(np.zeros((1, 1, 4, 4)), 0)
        with pytest.raises(ValueError):
            L.maxpool(2, stride=0)

    def test_batchnorm_normalizes_batch(self):
        # pre-scale/shift output (gamma=1, beta=0) has per-channel mean 0, var 1
        rng = np.random.default_rng(9)
        x = rng.standard_normal((16, 3, 5, 5)) * 4.0 + 2.0
        layer = L.batchnorm(3, eps=0.0)
        out = L.forward([layer], x)
        mean = out.mean(axis=(0, 2, 3))
        var = out.var(axis=(0, 2, 3))
        np.testing.assert_allclose(mean, 0.0, atol=1e-9)
        np.testing.assert_allclose(var, 1.0, atol=1e-9)

    # channel axis 1, or 2 on a task axis; the last two have no channel axis
    @pytest.mark.parametrize(
        "shape", [(4, 2), (2, 4, 2), (4, 2, 5, 5), (2, 4, 2, 5, 5), (2, 3, 5), (3,), (2, 4, 3, 5, 5, 1)]
    )
    @pytest.mark.parametrize("through", ["apply_layer", "propagate_layer"])
    def test_batchnorm_names_a_channel_mismatch(self, shape, through):
        # numpy's broadcast error named neither the layer nor the input
        from fewshot_ibp import bounds as B

        layer, x = L.batchnorm(3), np.ones(shape)
        message = r"batchnorm over 3 channels .*got " + re.escape(str(shape))
        with pytest.raises(ValueError, match=message):
            if through == "apply_layer":
                L.apply_layer(layer, x)
            else:
                B.propagate_layer(layer, B.epsilon_box(x, 0.1))

    def test_batchnorm_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, 4))
        gamma0 = rng.standard_normal(4)
        beta0 = rng.standard_normal(4)
        layer = L.batchnorm(4)

        def loss_fn(arrays):
            trial = L.LayerSpec("batchnorm", weight=arrays[0], bias=arrays[1], eps=layer.eps)
            return float(np.sum(L.forward([trial], x) ** 2))

        layer.weight, layer.bias = T.as_tensor(gamma0), T.as_tensor(beta0)
        tape = T.Tape()
        params = param_leaves([layer], tape)
        out = L.forward([layer], x, params=params)
        loss = T.sum_(T.mul(out, out))
        flat = L.param_nodes_to_list(params)
        grads = tape.backward(loss, flat)
        for idx, node in enumerate(flat):
            fd = fd_gradient(loss_fn, [gamma0, beta0], idx)
            assert np.max(np.abs(grads[node] - fd)) / np.max(np.abs(fd)) < 1e-5


class TestSecondOrder:
    def test_gradient_of_gradient_on_quadratic(self):
        # L = (w*x - y)^2: dL/dw = 2x(wx - y), d2L/dw2 = 2x^2
        tape = T.Tape()
        w = tape.leaf(np.array(1.5))
        x, y = 2.0, 1.0
        r = T.sub(T.mul(w, x), y)
        (g1,) = tape.backward(T.mul(r, r), [w], build_graph=True).values()
        assert T.value_of(g1) == pytest.approx(2 * x * (1.5 * x - y))
        (g2,) = tape.backward(g1, [w]).values()
        assert g2 == pytest.approx(2 * x * x)

    @staticmethod
    def conv_pool_loss(x, w, b, c):
        out = T.maxpool2d(T.conv2d(x, w, b), 2, 1)
        return T.sum_(T.mul(T.mul(out, out), c))

    def test_gradient_of_gradient_through_conv_and_maxpool(self):
        # h(x, W, b) = sum of <dL/dp, r_p> over the three operands, with the
        # graph-mode gradients differentiated again, against finite
        # differences of the first-order gradients
        rng = np.random.default_rng(35)
        arrays = [
            rng.standard_normal((2, 2, 6, 6)),
            rng.standard_normal((3, 2, 2, 2)),
            rng.standard_normal(3),
        ]
        c = rng.standard_normal((2, 3, 4, 4))
        r = [rng.standard_normal(a.shape) for a in arrays]

        def first_order_grads(arrs):
            tape = T.Tape()
            nodes = [tape.leaf(a) for a in arrs]
            grads = tape.backward(self.conv_pool_loss(*nodes, c), nodes)
            return [grads[n] for n in nodes]

        def h(arrs):
            return float(sum(np.sum(g * rp) for g, rp in zip(first_order_grads(arrs), r)))

        tape = T.Tape()
        nodes = [tape.leaf(a) for a in arrays]
        grads = tape.backward(self.conv_pool_loss(*nodes, c), nodes, build_graph=True)
        for n, want in zip(nodes, first_order_grads(arrays)):
            assert isinstance(grads[n], T.Node)
            np.testing.assert_allclose(T.value_of(grads[n]), want, rtol=1e-12, atol=1e-12)
        hv = T.sum_(T.mul(grads[nodes[0]], r[0]))
        for n, rp in zip(nodes[1:], r[1:]):
            hv = T.add(hv, T.sum_(T.mul(grads[n], rp)))
        second = tape.backward(hv, nodes)
        for idx, node in enumerate(nodes):
            fd = fd_gradient(h, arrays, idx)
            assert np.max(np.abs(second[node] - fd)) / np.max(np.abs(fd)) < 1e-5


class TestTaskAxis:
    """``matmul``/``transpose`` with a leading task axis: a weight shared by
    every task, or one weight per task, against (T, n, i) inputs."""

    @staticmethod
    def loss(x, w, c):
        # sum_tn c * (x @ W^T)^2: nonlinear, so second derivatives are not constant
        y = T.matmul(x, T.transpose(w))
        return T.sum_(T.mul(T.mul(y, y), c))

    # (x shape, W shape): shared weight, per-task weights, shared input
    LAYOUTS = [((3, 4, 5), (2, 5)), ((3, 4, 5), (3, 2, 5)), ((4, 5), (3, 2, 5))]

    @staticmethod
    def operands(layout):
        rng = np.random.default_rng(31)
        x_shape, w_shape = layout
        return (
            rng.standard_normal(x_shape),
            rng.standard_normal(w_shape),
            rng.standard_normal((3, 4, 2)),
        )

    def test_transpose_swaps_only_the_last_two_axes(self):
        a = np.arange(24.0).reshape(2, 3, 4)
        np.testing.assert_array_equal(T.transpose(a), np.swapaxes(a, 1, 2))
        tape = T.Tape()
        an = tape.leaf(a)
        g = np.arange(24.0).reshape(2, 4, 3)
        (grad,) = tape.backward(T.sum_(T.mul(T.transpose(an), g)), [an]).values()
        np.testing.assert_array_equal(grad, np.swapaxes(g, 1, 2))

    def test_shared_weight_gradient_is_sum_over_tasks(self):
        x, w, c = self.operands(self.LAYOUTS[0])
        tape = T.Tape()
        wn = tape.leaf(w)
        (g,) = tape.backward(self.loss(x, wn, c), [wn]).values()
        per_task = []
        for t in range(x.shape[0]):
            tape = T.Tape()
            wt = tape.leaf(w)
            per_task.append(tape.backward(self.loss(x[t], wt, c[t]), [wt])[wt])
        np.testing.assert_allclose(g, np.sum(per_task, axis=0), rtol=1e-12)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_first_order_gradients_match_finite_differences(self, layout):
        x, w, c = self.operands(layout)

        def loss_fn(arrays):
            return float(self.loss(arrays[0], arrays[1], c))

        tape = T.Tape()
        xn, wn = tape.leaf(x), tape.leaf(w)
        grads = tape.backward(self.loss(xn, wn, c), [xn, wn])
        for idx, node in enumerate([xn, wn]):
            assert grads[node].shape == (x, w)[idx].shape
            fd = fd_gradient(loss_fn, [x, w], idx)
            assert np.max(np.abs(grads[node] - fd)) / np.max(np.abs(fd)) < 1e-5

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_graph_mode_gradients_differentiate_again(self, layout):
        # h(x, W) = <dL/dW, r>, differentiated through the recorded gradient,
        # against finite differences of the first-order gradient
        x, w, c = self.operands(layout)
        r = np.random.default_rng(33).standard_normal(w.shape)

        def first_order_grad(arrays):
            tape = T.Tape()
            xn, wn = tape.leaf(arrays[0]), tape.leaf(arrays[1])
            return tape.backward(self.loss(xn, wn, c), [wn])[wn]

        def h(arrays):
            return float(np.sum(first_order_grad(arrays) * r))

        tape = T.Tape()
        xn, wn = tape.leaf(x), tape.leaf(w)
        gw = tape.backward(self.loss(xn, wn, c), [wn], build_graph=True)[wn]
        np.testing.assert_allclose(T.value_of(gw), first_order_grad([x, w]), rtol=1e-12)
        grads = tape.backward(T.sum_(T.mul(gw, r)), [xn, wn])
        for idx, node in enumerate([xn, wn]):
            fd = fd_gradient(h, [x, w], idx)
            assert np.max(np.abs(grads[node] - fd)) / np.max(np.abs(fd)) < 1e-5

    @pytest.mark.parametrize("per_task", [False, True])
    def test_conv_and_pool_match_the_per_task_loop(self, per_task):
        rng = np.random.default_rng(34)
        x = rng.standard_normal((3, 2, 2, 6, 6))
        w = rng.standard_normal((3, 4, 2, 3, 3) if per_task else (4, 2, 3, 3))
        b = rng.standard_normal((3, 4) if per_task else 4)

        def run(x, w, b):
            tape = T.Tape()
            nodes = [tape.leaf(a) for a in (x, w, b)]
            out = T.maxpool2d(T.conv2d(*nodes), 2)
            grads = tape.backward(T.sum_(T.mul(out, out)), nodes)
            return T.value_of(out), [grads[n] for n in nodes]

        out, grads = run(x, w, b)
        loop = [run(x[t], w[t] if per_task else w, b[t] if per_task else b) for t in range(3)]
        np.testing.assert_allclose(out, [o for o, _ in loop], rtol=1e-12)
        np.testing.assert_allclose(grads[0], [g[0] for _, g in loop], rtol=1e-12)
        for i in (1, 2):
            expected = [g[i] for _, g in loop]
            if not per_task:
                expected = np.sum(expected, axis=0)
            np.testing.assert_allclose(grads[i], expected, rtol=1e-12, atol=1e-12)


class TestOptimizers:
    def test_zero_gradient_is_identity(self):
        p = [np.array([1.5, -2.0])]
        new, _ = optimizer_step(p, [np.zeros(2)], adam(0.1))
        np.testing.assert_array_equal(new[0], p[0])

    def test_adam_first_step_closed_form(self):
        # after bias correction at t=1: update = -lr * g / (|g| + stabilizer)
        g = 0.5
        state = adam(0.001)
        new, state = optimizer_step([np.array([0.0])], [np.array([g])], state)
        expected = -0.001 * g / (abs(g) + STABILIZER)
        assert new[0][0] == pytest.approx(expected, rel=1e-12)
        assert new[0][0] == pytest.approx(-0.001, rel=1e-6)
        assert state.step == 1

    def test_shape_mismatch_and_non_finite_rejected(self):
        with pytest.raises(ValueError):
            optimizer_step([np.zeros(2)], [np.zeros(3)], adam(0.1))
        with pytest.raises(T.NonFiniteError):
            optimizer_step([np.zeros(2)], [np.array([np.nan, 0.0])], adam(0.1))


class TestCheckpoint:
    def test_round_trip_preserves_parameters(self, tmp_path):
        rng = np.random.default_rng(11)
        net = L.Network(
            [
                L.init_conv(2, 3, 3, rng),
                L.batchnorm(3),
                L.relu(),
                L.maxpool(2),
                L.flatten(),
                L.init_fully_connected(3 * 2 * 2, 4, rng),
            ],
            split_index=5,
        )
        path = tmp_path / "model.ckpt"
        L.save_checkpoint(net, path, rng_info={"seed": 42})
        loaded, header = L.load_checkpoint(path)
        assert header["rng"] == {"seed": 42}
        assert loaded.split_index == net.split_index
        for a, b in zip(net.parameter_arrays(), loaded.parameter_arrays()):
            np.testing.assert_array_equal(a, b)
        x = rng.standard_normal((2, 2, 6, 6))
        np.testing.assert_array_equal(
            L.forward(net.layers, x), L.forward(loaded.layers, x)
        )

    def test_truncated_payload_rejected(self, tmp_path):
        rng = np.random.default_rng(12)
        net = L.Network([L.init_fully_connected(3, 3, rng)], split_index=1)
        path = tmp_path / "model.ckpt"
        L.save_checkpoint(net, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError):
            L.load_checkpoint(path)


def chain_linear(x, w, b=None):
    """``x @ wᵀ + b`` from primitives, the chain that ``T.linear`` replaces."""
    if b is not None and np.ndim(T.value_of(b)) == 2:  # per-task bias (tasks, out)
        b = T.reshape(b, (np.shape(T.value_of(b))[0], 1, -1))
    out = T.matmul(x, T.transpose(w))
    return out if b is None else T.add(out, b)


def chain_log(a):
    """``log a`` as a primitive tape node, for the chain below."""
    out = np.log(T.value_of(a))
    if not isinstance(a, T.Node):
        return out
    return T.Node(a.tape, out, (a,), lambda g, inputs, o: (T.div(g, inputs[0]),))


def chain_cross_entropy(scores, labels):
    """The primitive cross-entropy chain that ``cross_entropy`` replaces."""
    shape = T.value_of(scores).shape
    onehot = np.zeros(shape)
    np.put_along_axis(onehot, np.asarray(labels)[..., None], 1.0, axis=-1)
    shift = T.value_of(scores).max(axis=-1, keepdims=True)
    z = T.add(scores, T.neg(shift))
    logp = T.add(z, T.neg(chain_log(T.sum_(T.exp(z), axis=-1, keepdims=True))))
    axes = (-2, -1) if len(shape) == 3 else None
    return T.mul(T.sum_(T.mul(logp, onehot), axis=axes), -1.0 / shape[-2])


def _replaced_onehot(labels, score_shape) -> np.ndarray:
    """One-hot rows of ``labels``, laid out like scores of ``score_shape``."""
    labels = np.asarray(labels)
    classes = score_shape[-1]
    if len(score_shape) not in (2, 3) or labels.shape != score_shape[:-1]:
        raise ValueError(
            f"labels of shape {labels.shape} do not match scores {score_shape}"
        )
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= classes:
        raise ValueError(f"labels outside 0..{classes - 1}")
    flat = labels.reshape(-1)
    out = np.zeros((flat.shape[0], classes))
    out[np.arange(flat.shape[0]), flat] = 1.0
    return out.reshape(score_shape)


def replaced_cross_entropy(scores, labels):
    """The one-node ``cross_entropy`` that scattered its one-hot and
    recomputed ``exp(z)`` in its vjp, verbatim but for the names."""
    vs = T.value_of(scores)
    shape = vs.shape
    onehot = _replaced_onehot(labels, shape)
    n = shape[-2]
    shift = vs.max(axis=-1, keepdims=True)  # detached; softmax ignores it
    z = vs - shift
    logp = z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))
    axes = (-2, -1) if len(shape) == 3 else None
    out = np.sum(logp * onehot, axis=axes) * (-1.0 / n)
    if not isinstance(scores, T.Node):
        return out
    g_shape = shape[:-2] + (1, 1)

    def vjp(g, inputs, o):
        e = T.exp(T.sub(inputs[0], shift))
        probs = T.div(e, T.sum_(e, axis=-1, keepdims=True))
        return (T.mul(T.sub(probs, onehot), T.reshape(T.mul(g, 1.0 / n), g_shape)),)

    return T.Node(scores.tape, out, (scores,), vjp)


def chain_mixed_cross_entropy(l_ce, l_ce2, mix):
    """The chain that ``harness._mixed_cross_entropy`` replaces: the per-task
    weighted sum of the plain and the interpolated cross-entropy."""
    return T.add(T.mul(l_ce, mix.ce_weights[:, 0]), T.mul(l_ce2, mix.ce_weights[:, 1]))


def replaced_total_loss(losses, weights):
    """The one-node ``total_loss`` that ``weighted_sum`` replaced, verbatim
    but for the module prefixes."""
    if isinstance(weights, WeightTriple):
        w = weights.as_tuple()
    else:
        w = np.array([t.as_tuple() for t in weights]).T
    terms = (losses.l_ce, losses.l_lb, losses.l_ub)
    v = [T.value_of(t) for t in terms]
    out = np.add(np.add(np.multiply(v[0], w[0]), np.multiply(v[1], w[1])), np.multiply(v[2], w[2]))
    tape = T._tape_of(*terms)
    if tape is None:
        return out
    shapes = [np.shape(x) for x in v]

    def vjp(g, inputs, o):
        return tuple(
            T._unbroadcast(T.mul(g, wi), s) if isinstance(t, T.Node) else None
            for t, wi, s in zip(terms, w, shapes)
        )

    return T.Node(tape, out, terms, vjp)


def chain_bound_losses(centers, lower, upper, task_axis=False):
    """The primitive bound-loss chain that ``bound_losses`` replaces."""
    shape = np.shape(T.value_of(centers))
    axes = tuple(range(1, len(shape))) if task_axis else None
    n = shape[int(task_axis)]
    losses = []
    for face in (lower, upper):
        d = T.add(centers, T.neg(face))
        losses.append(T.mul(T.sum_(T.mul(d, d), axis=axes), 1.0 / n))
    return losses


def chain_box_layer(layer, lower, upper, weight=None, bias=None, frozen_stats=None):
    """The primitive chain of one box layer that the fused box nodes
    replace, face by face; returns the stacked output faces."""
    w = layer.weight if weight is None else weight
    b = layer.bias if bias is None else bias

    def affine(apply_center, apply_radius):
        mu = T.mul(T.add(lower, upper), 0.5)
        psi = T.mul(T.sub(upper, lower), 0.5)
        mu_out, psi_out = apply_center(mu), apply_radius(psi)
        return T.sub(mu_out, psi_out), T.add(mu_out, psi_out)

    if layer.kind == "fully_connected":
        faces = affine(lambda mu: T.linear(mu, w, b), lambda psi: T.linear(psi, T.abs_(w)))
    elif layer.kind == "conv2d":
        s = layer.stride
        faces = affine(
            lambda mu: T.conv2d(mu, w, b, stride=s),
            lambda psi: T.conv2d(psi, T.abs_(w), None, stride=s),
        )
    elif layer.kind == "batchnorm":
        scale, shift = L.bn_affine(layer, *frozen_stats, gamma=w, beta=b)
        scale_b = L._bn_broadcast(lower, scale)
        shift_b = L._bn_broadcast(lower, shift)
        abs_scale_b = L._bn_broadcast(lower, T.abs_(scale))
        faces = affine(
            lambda mu: T.add(T.mul(mu, scale_b), shift_b),
            lambda psi: T.mul(psi, abs_scale_b),
        )
    elif layer.kind == "relu":
        faces = T.relu(lower), T.relu(upper)
    elif layer.kind == "maxpool2d":
        faces = tuple(T.maxpool2d(f, layer.window, layer.stride) for f in (lower, upper))
    else:  # flatten
        lead = np.shape(T.value_of(lower))[: 1 + L.has_task_axis(lower)]
        faces = T.reshape(lower, lead + (-1,)), T.reshape(upper, lead + (-1,))
    return T.stack(faces)


def chain_batchnorm(layer, x, mean, var, gamma, beta):
    """The primitive chain of a batchnorm activation that its fused node
    replaces: ``bn_affine``'s scale and shift, each reshaped onto the channel
    axis, then ``x·scale + shift`` (up to 7 nodes)."""
    scale, shift = L.bn_affine(layer, mean, var, gamma=gamma, beta=beta)
    return T.add(T.mul(x, L._bn_broadcast(x, scale)), L._bn_broadcast(x, shift))


def fused_against_chain(fused, chain, arrays, bit_equal=False):
    """Check a fused node against the primitive chain it replaces.

    Both are differentiated through ``sum(c * out**2)``: value, first-order
    gradients, graph-mode gradients and the gradient of ``<graph gradients,
    r>`` (which runs through the recorded vjp) agree within 1e-12, or bit
    for bit with ``bit_equal``, and the fused gradients match central finite
    differences within 1e-5.
    """

    def run(fn, arrs, build_graph):
        tape = T.Tape()
        leaves = [tape.leaf(a) for a in arrs]
        out = fn(*leaves)
        c = np.random.default_rng(41).standard_normal(np.shape(T.value_of(out)))
        grads = tape.backward(T.sum_(T.mul(T.mul(out, out), c)), leaves, build_graph=build_graph)
        first = [T.value_of(grads[n]) for n in leaves]
        second = None
        if build_graph:
            rng = np.random.default_rng(42)
            h = 0.0
            for n in leaves:
                h = T.add(h, T.sum_(T.mul(grads[n], rng.standard_normal(n.shape))))
            hg = tape.backward(h, leaves)
            second = [hg[n] for n in leaves]
        return T.value_of(out), first, second

    def close(got, want):
        if bit_equal:
            got, want = np.asarray(got), np.asarray(want)
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    value, grads, _ = run(fused, arrays, False)
    ref_value, ref_grads, _ = run(chain, arrays, False)
    close(value, ref_value)
    for g, ref in zip(grads, ref_grads):
        assert g.shape == ref.shape
        close(g, ref)
    _, graph_grads, second = run(fused, arrays, True)
    _, _, ref_second = run(chain, arrays, True)
    for g, h, ref_g, ref_h in zip(graph_grads, second, ref_grads, ref_second):
        close(g, ref_g)
        close(h, ref_h)

    def loss_fn(arrs):
        out = T.value_of(fused(*arrs))
        c = np.random.default_rng(41).standard_normal(np.shape(out))
        return float(np.sum(out * out * c))

    for idx, g in enumerate(grads):
        fd = fd_gradient(loss_fn, arrays, idx, step=1e-6)
        assert np.max(np.abs(g - fd)) <= 1e-5 * max(np.max(np.abs(fd)), 1.0)


class TestFusedNodes:
    """Every fused node against the primitive chain it replaces: values to
    1e-12, and bit-equal where the fused node kept the chain's expressions;
    gradients to 1e-12 in both backward modes and to finite differences
    (``fused_against_chain``); on 2-D (or 4-D) input and on a task axis."""

    @pytest.mark.parametrize("a_shape,b_shape", [((3, 4), (3, 4)), ((2, 3, 4), (4,)), ((4,), (3, 4))])
    def test_sub(self, a_shape, b_shape):
        rng = np.random.default_rng(43)
        a, b = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
        fused_against_chain(T.sub, lambda x, y: T.add(x, T.neg(y)), [a, b])
        fused_against_chain(lambda x: T.sub(x, b), lambda x: T.add(x, T.neg(b)), [a])
        fused_against_chain(lambda y: T.sub(a, y), lambda y: T.add(a, T.neg(y)), [b])

    def test_sub_values_bit_equal_to_adding_the_negation(self):
        a, b = np.random.default_rng(44).standard_normal((2, 50))
        tape = T.Tape()
        np.testing.assert_array_equal(T.sub(tape.leaf(a), b).value, a + (-b))

    # (x, w, b) shapes: plain, shared weight and bias over tasks, per-task
    # weight and bias, per-task weight with a shared bias, no bias
    LINEAR_LAYOUTS = [
        ((5, 4), (3, 4), (3,)),
        ((2, 5, 4), (3, 4), (3,)),
        ((2, 5, 4), (2, 3, 4), (2, 3)),
        ((2, 5, 4), (2, 3, 4), (3,)),
        ((2, 5, 4), (3, 4), None),
    ]

    @pytest.mark.parametrize("shapes", LINEAR_LAYOUTS)
    def test_linear(self, shapes):
        rng = np.random.default_rng(45)
        arrays = [rng.standard_normal(s) for s in shapes if s is not None]
        fused_against_chain(T.linear, chain_linear, arrays)
        # a constant input, as in a network's first layer
        x = arrays[0]
        fused_against_chain(
            lambda *p: T.linear(x, *p), lambda *p: chain_linear(x, *p), arrays[1:]
        )
        if shapes[2] is not None:  # a constant weight between two nodes
            w = arrays[1]
            fused_against_chain(
                lambda x, b: T.linear(x, w, b), lambda x, b: chain_linear(x, w, b),
                [x, arrays[2]],
            )

    @pytest.mark.parametrize("layout", [3, 4, 5])
    def test_conv2d_with_a_constant_kernel(self, layout):
        # the input and the bias are nodes, the kernel between them a constant
        _, x_shape, w_shape, b_shape = self.BOX_LAYOUTS[layout]
        rng = np.random.default_rng(53 + layout)
        x, w, b = (rng.standard_normal(s) for s in (x_shape, w_shape, b_shape))

        def chain(x, b):
            return T.add(T.conv2d(x, w, None, 2), T.reshape(b, b_shape[:-1] + (1, -1, 1, 1)))

        fused_against_chain(lambda x, b: T.conv2d(x, w, b, 2), chain, [x, b])

    # (x shape, gamma and beta shape): ranks 2 to 5, parameters shared by the
    # tasks or one row per task on a task axis
    BATCHNORM_LAYOUTS = [
        ((6, 3), (3,)),
        ((2, 6, 3), (3,)),
        ((2, 6, 3), (2, 3)),
        ((6, 3, 2, 2), (3,)),
        ((2, 6, 3, 2, 2), (3,)),
        ((2, 6, 3, 2, 2), (2, 3)),
    ]

    @pytest.mark.parametrize("layout", range(len(BATCHNORM_LAYOUTS)))
    @pytest.mark.parametrize("leaves", ["all", "params", "input"])
    def test_batchnorm_activation(self, layout, leaves):
        # bit-equal to the chain in value and gradients, in both backward
        # modes; the second-order gradients to 1e-12 (fused_against_chain)
        x_shape, p_shape = self.BATCHNORM_LAYOUTS[layout]
        rng = np.random.default_rng(80 + layout)
        layer = L.batchnorm(3)
        x = 2.0 * rng.standard_normal(x_shape) + 1.0
        gamma, beta = rng.standard_normal(p_shape), rng.standard_normal(p_shape)
        stats = L.batch_stats(x, layer)

        def fused(x, gamma, beta):
            return L.apply_layer(layer, x, weight=gamma, bias=beta, frozen_stats=stats)

        def chain(x, gamma, beta):
            return chain_batchnorm(layer, x, *stats, gamma, beta)

        arrays = {"all": [x, gamma, beta], "params": [gamma, beta], "input": [x]}[leaves]
        if leaves == "params":  # a constant input, as a network's first layer has
            fused, chain = (lambda g, b, f=f: f(x, g, b) for f in (fused, chain))
        elif leaves == "input":  # constant gamma and beta, as the layer stores them
            fused, chain = (lambda x, f=f: f(x, gamma, beta) for f in (fused, chain))

        def run(fn, build_graph):
            tape = T.Tape()
            nodes = [tape.leaf(a) for a in arrays]
            out = fn(*nodes)
            c = np.random.default_rng(41).standard_normal(out.shape)
            grads = tape.backward(T.sum_(T.mul(T.mul(out, out), c)), nodes, build_graph=build_graph)
            return [out.value] + [T.value_of(grads[n]) for n in nodes]

        for build_graph in (False, True):
            for got, want in zip(run(fused, build_graph), run(chain, build_graph)):
                assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
        np.testing.assert_array_equal(fused(*arrays), chain(*arrays))
        fused_against_chain(fused, chain, arrays)
        tape = T.Tape()
        fused(*[tape.leaf(a) for a in arrays])
        assert len(tape) == len(arrays) + 1  # the leaves and one batchnorm node

    @pytest.mark.parametrize("a_shape,b_shape", [((6, 4), (3, 4)), ((2, 6, 4), (2, 3, 4))])
    def test_pairwise_sqdist(self, a_shape, b_shape):
        # arrays only: its adjoints are taken inside protonet_logits's node
        # (test_protonet_logits), so here its values must equal the chain's
        from fewshot_ibp.learners import pairwise_sqdist

        def chain(a, b):
            aa = T.sum_(T.mul(a, a), axis=-1, keepdims=True)
            bb = T.sum_(T.mul(b, b), axis=-1, keepdims=True)
            cross = T.matmul(a, T.transpose(b))
            return T.add(T.sub(aa, T.mul(cross, 2.0)), T.transpose(bb))

        rng = np.random.default_rng(48)
        a, b = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
        np.testing.assert_array_equal(pairwise_sqdist(a, b), chain(a, b))

    @pytest.mark.parametrize("shape", [(6, 4), (3, 6, 4)])
    def test_cross_entropy(self, shape):
        from fewshot_ibp.learners import cross_entropy

        rng = np.random.default_rng(46)
        scores = 2.0 * rng.standard_normal(shape)
        labels = rng.integers(0, shape[-1], size=shape[:-1])
        fused_against_chain(
            lambda s: cross_entropy(s, labels),
            lambda s: chain_cross_entropy(s, labels),
            [scores],
        )
        np.testing.assert_array_equal(
            cross_entropy(scores, labels), chain_cross_entropy(scores, labels)
        )
        # the one-comparison one-hot and the reused exp(z) change no bit of
        # the node it replaced, in either backward mode
        fused_against_chain(
            lambda s: cross_entropy(s, labels),
            lambda s: replaced_cross_entropy(s, labels),
            [scores],
            bit_equal=True,
        )
        np.testing.assert_array_equal(
            cross_entropy(scores, labels), replaced_cross_entropy(scores, labels)
        )

    def test_mixed_cross_entropy(self):
        # the training steps weigh the plain and the interpolated
        # cross-entropy with ``weighted_sum`` and the mix's ``ce_weights``
        from fewshot_ibp.harness import _TaskMix

        rng = np.random.default_rng(8)
        ce_weights = np.where(np.array([True, False, True, False])[:, None], 0.5, [1.0, 0.0])
        mix = _TaskMix(None, None, None, None, ce_weights)
        l_ce, l_ce2 = rng.uniform(0.5, 2.0, size=(2, 4))

        def fused(a, b):
            return T.weighted_sum((a, b), mix.ce_weights.T)

        np.testing.assert_array_equal(
            fused(l_ce, l_ce2), chain_mixed_cross_entropy(l_ce, l_ce2, mix)
        )
        fused_against_chain(
            fused, lambda a, b: chain_mixed_cross_entropy(a, b, mix), [l_ce, l_ce2],
            bit_equal=True,
        )
        # one operand a constant
        fused_against_chain(
            lambda a: fused(a, l_ce2),
            lambda a: chain_mixed_cross_entropy(a, l_ce2, mix),
            [l_ce],
            bit_equal=True,
        )

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4)])
    def test_inner_update(self, shape):
        # maml_adapt's update, one node per parameter and inner step
        from fewshot_ibp.learners import _descended

        rng = np.random.default_rng(47)
        v, g = rng.standard_normal(shape), rng.standard_normal(shape)
        lr = 0.3
        fused_against_chain(
            lambda v, g: _descended(v, g, lr), lambda v, g: T.sub(v, T.mul(g, lr)),
            [v, g], bit_equal=True,
        )
        # one operand a constant
        fused_against_chain(
            lambda v: _descended(v, g, lr), lambda v: T.sub(v, T.mul(g, lr)),
            [v], bit_equal=True,
        )
        fused_against_chain(
            lambda g: _descended(v, g, lr), lambda g: T.sub(v, T.mul(g, lr)),
            [g], bit_equal=True,
        )

    @pytest.mark.parametrize("shape", [(6, 4), (2, 6, 4)])
    def test_mix_batch(self, shape):
        from fewshot_ibp.interpolation import MixCoefficients, mix_batch

        rng = np.random.default_rng(54)
        lead = shape[:-2]
        labels = rng.integers(0, 3, size=shape[:-1])
        coeffs = MixCoefficients(rng.uniform(0, 1, lead + (3,)), np.zeros(lead + (3,), dtype=int))
        lam = np.take_along_axis(coeffs.lam, labels, axis=-1)[..., None]

        def chain(first, second):
            return T.add(T.mul(first, 1.0 - lam), T.mul(second, lam))

        def fused(first, second):
            return mix_batch(first, second, labels, coeffs)

        arrays = [rng.standard_normal(shape), rng.standard_normal(shape)]
        fused_against_chain(fused, chain, arrays, bit_equal=True)
        fused_against_chain(  # the first batch a constant, as mixup at the input
            lambda b: fused(arrays[0], b), lambda b: chain(arrays[0], b), arrays[1:],
            bit_equal=True,
        )
        np.testing.assert_array_equal(fused(*arrays), chain(*arrays))
        tape = T.Tape()
        fused(*[tape.leaf(a) for a in arrays])
        assert len(tape) == 3  # the two leaves and one weighted-sum node

    def test_weighted_sum_broadcasts(self):
        # terms and weights of different shapes: each term's adjoint is
        # summed down to its own shape
        rng = np.random.default_rng(55)
        w = (0.25, rng.standard_normal((3, 1)), rng.standard_normal((2, 1, 4)))
        arrays = [rng.standard_normal(s) for s in ((2, 3, 4), (3, 4), (2, 3, 1))]

        def chain(a, b, c):
            return T.add(T.add(T.mul(a, w[0]), T.mul(b, w[1])), T.mul(c, w[2]))

        fused_against_chain(lambda *terms: T.weighted_sum(terms, w), chain, arrays)
        np.testing.assert_array_equal(T.weighted_sum(arrays, w), chain(*arrays))

    def test_weighted_sum_needs_one_weight_per_term(self):
        a, b = np.ones(3), np.zeros(3)
        for terms, weights in (((a, b), (1.0,)), ((a,), (1.0, 2.0)), ((a, b), ())):
            with pytest.raises(ValueError, match="terms but"):
                T.weighted_sum(terms, weights)
        tape = T.Tape()
        with pytest.raises(ValueError, match="2 terms but 3 weights"):
            T.weighted_sum((tape.leaf(a), b), (1.0, 2.0, 3.0))

    @pytest.mark.parametrize("task_axis", [False, True])
    @pytest.mark.parametrize("face", [0, 1])
    def test_bound_losses(self, task_axis, face):
        from fewshot_ibp.bounds import IntervalTensor
        from fewshot_ibp.objective import bound_losses

        rng = np.random.default_rng(47)
        shape = (3, 5, 4) if task_axis else (5, 4)
        centers = rng.standard_normal(shape)
        lower = centers - rng.uniform(0.1, 1.0, shape)
        upper = centers + rng.uniform(0.1, 1.0, shape)
        fused_against_chain(
            lambda c, lo, up: bound_losses(c, IntervalTensor(lo, up))[face],
            lambda c, lo, up: chain_bound_losses(c, lo, up, task_axis)[face],
            [centers, lower, upper],
        )
        for got, want in zip(
            bound_losses(centers, IntervalTensor(lower, upper)),
            chain_bound_losses(centers, lower, upper, task_axis),
        ):
            np.testing.assert_array_equal(got, want)

    # (kind, box face shape, then the shapes of the weight and bias): plain
    # layouts, then the task axis with parameters per task or shared
    BOX_LAYOUTS = [
        ("fully_connected", (5, 4), (3, 4), (3,)),
        ("fully_connected", (2, 5, 4), (2, 3, 4), (2, 3)),
        ("fully_connected", (2, 5, 4), (3, 4), (3,)),
        ("conv2d", (2, 2, 5, 5), (3, 2, 3, 3), (3,)),
        ("conv2d", (2, 2, 2, 5, 5), (2, 3, 2, 3, 3), (2, 3)),
        ("conv2d", (2, 2, 2, 5, 5), (3, 2, 3, 3), (3,)),
        ("batchnorm", (4, 3), (3,), (3,)),
        ("batchnorm", (4, 3, 2, 2), (3,), (3,)),
        ("batchnorm", (2, 4, 3, 2, 2), (2, 3), (2, 3)),
        ("batchnorm", (2, 4, 3, 2, 2), (3,), (3,)),
        ("relu", (5, 4)),
        ("relu", (2, 5, 4)),
        ("maxpool2d", (2, 2, 4, 4)),
        ("maxpool2d", (2, 2, 2, 4, 4)),
        ("flatten", (2, 2, 3, 3)),
        ("flatten", (2, 2, 2, 3, 3)),
    ]
    LAYERS = {
        "fully_connected": L.LayerSpec("fully_connected"),
        "conv2d": L.LayerSpec("conv2d", stride=2),
        "batchnorm": L.LayerSpec("batchnorm"),
        "relu": L.relu(),
        "maxpool2d": L.maxpool(2),
        "flatten": L.flatten(),
    }

    @pytest.mark.parametrize("layout", range(len(BOX_LAYOUTS)))
    def test_box_layer(self, layout):
        from fewshot_ibp import bounds as B

        kind, face_shape, *param_shapes = self.BOX_LAYOUTS[layout]
        layer = self.LAYERS[kind]
        rng = np.random.default_rng(70 + layout)
        x = rng.standard_normal(face_shape)
        radius = rng.uniform(0.05, 0.5, face_shape)
        arrays = [x - radius, x + radius] + [rng.standard_normal(s) for s in param_shapes]
        frozen = L.batch_stats(x, layer) if kind == "batchnorm" else None

        def fused(lower, upper, *params):
            box = B.propagate_layer(layer, B.IntervalTensor(lower, upper), *params, frozen_stats=frozen)
            return box.faces

        def chain(lower, upper, *params):
            return chain_box_layer(layer, lower, upper, *params, frozen_stats=frozen)

        fused_against_chain(fused, chain, arrays)
        np.testing.assert_array_equal(fused(*arrays), chain(*arrays))
        if param_shapes:  # a constant weight between the faces and the bias
            w = arrays[2]
            fused_against_chain(
                lambda lower, upper, b: fused(lower, upper, w, b),
                lambda lower, upper, b: chain(lower, upper, w, b),
                arrays[:2] + arrays[3:],
            )
        # one node per box layer, whatever the parameters
        tape = T.Tape()
        box = B.IntervalTensor.of(tape.leaf(np.stack(arrays[:2])))
        B.propagate_layer(layer, box, *[tape.leaf(a) for a in arrays[2:]], frozen_stats=frozen)
        assert len(tape) == 2 + len(param_shapes)

    @pytest.mark.parametrize("distance", ["sqeuclidean", "euclidean"])
    @pytest.mark.parametrize("a_shape,b_shape", [((6, 4), (3, 4)), ((2, 6, 4), (2, 3, 4))])
    def test_protonet_logits(self, a_shape, b_shape, distance):
        from fewshot_ibp.learners import protonet_logits

        def chain(a, b):
            aa = T.sum_(T.mul(a, a), axis=-1, keepdims=True)
            bb = T.sum_(T.mul(b, b), axis=-1, keepdims=True)
            d = T.add(T.sub(aa, T.mul(T.linear(a, b), 2.0)), T.transpose(bb))
            return T.neg(T.sqrt(d) if distance == "euclidean" else d)

        rng = np.random.default_rng(49)
        a, b = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
        fused_against_chain(lambda a, b: protonet_logits(a, b, distance), chain, [a, b])
        np.testing.assert_array_equal(protonet_logits(a, b, distance), chain(a, b))

    @pytest.mark.parametrize("shape", [(6, 4), (2, 6, 4)])
    def test_interpolate_batch(self, shape):
        from fewshot_ibp.bounds import IntervalTensor
        from fewshot_ibp.interpolation import MixCoefficients, interpolate_batch

        rng = np.random.default_rng(50)
        lead = shape[:-2]
        labels = rng.integers(0, 3, size=shape[:-1])
        coeffs = MixCoefficients(rng.uniform(0, 1, lead + (3,)), rng.integers(0, 2, lead + (3,)))
        lam = np.take_along_axis(coeffs.lam, labels, axis=-1)[..., None]
        nu = np.take_along_axis(coeffs.nu, labels, axis=-1)[..., None].astype(np.float64)

        def chain(c, lower, upper):
            face = T.add(T.mul(lower, 1.0 - nu), T.mul(upper, nu))
            return T.add(T.mul(c, 1.0 - lam), T.mul(face, lam))

        def fused(c, lower, upper):
            return interpolate_batch(c, IntervalTensor(lower, upper), labels, coeffs)

        c = rng.standard_normal(shape)
        arrays = [c, c - rng.uniform(0.1, 1, shape), c + rng.uniform(0.1, 1, shape)]
        fused_against_chain(fused, chain, arrays)
        np.testing.assert_array_equal(fused(*arrays), chain(*arrays))

    @pytest.mark.parametrize("per_task", [False, True])
    def test_total_loss(self, per_task):
        from fewshot_ibp.objective import LossTriple, total_loss

        rng = np.random.default_rng(51)
        shape = (3,) if per_task else ()
        triples = [WeightTriple(*(w / w.sum())) for w in rng.uniform(0.1, 1, (3, 3))]
        weights = triples if per_task else triples[0]
        w = np.array([t.as_tuple() for t in triples]).T if per_task else triples[0].as_tuple()

        def chain(l_ce, l_lb, l_ub):
            return T.add(T.add(T.mul(l_ce, w[0]), T.mul(l_lb, w[1])), T.mul(l_ub, w[2]))

        def fused(*losses):
            return total_loss(LossTriple(*losses), weights)

        arrays = [rng.uniform(0.1, 2, shape) for _ in range(3)]
        fused_against_chain(fused, chain, arrays)
        np.testing.assert_array_equal(fused(*arrays), chain(*arrays))
        # a float bound loss between two node losses
        fused_against_chain(
            lambda l_ce, l_ub: fused(l_ce, 0.7, l_ub),
            lambda l_ce, l_ub: chain(l_ce, 0.7, l_ub),
            [arrays[0], arrays[2]],
        )

        # byte for byte the one-node total it replaced, in both modes
        def replaced(*losses):
            return replaced_total_loss(LossTriple(*losses), weights)

        fused_against_chain(fused, replaced, arrays, bit_equal=True)
        fused_against_chain(
            lambda l_ce, l_ub: fused(l_ce, 0.7, l_ub),
            lambda l_ce, l_ub: replaced(l_ce, 0.7, l_ub),
            [arrays[0], arrays[2]],
            bit_equal=True,
        )
        np.testing.assert_array_equal(fused(*arrays), replaced(*arrays))

    def test_stack_and_take(self):
        rng = np.random.default_rng(52)
        a, b = rng.standard_normal((2, 3, 4))
        fused_against_chain(
            lambda a, b: T.mul(T.take(T.stack((a, b)), 1), T.take(T.stack((b, a)), 1)),
            T.mul, [b, a],
        )
        np.testing.assert_array_equal(T.stack((a, b)), np.stack((a, b)))
        np.testing.assert_array_equal(T.take(np.stack((a, b)), 1), b)
        # a constant between two nodes, against the sum of one-hot products
        k = rng.standard_normal((3, 4))
        e = np.eye(3)[:, :, None, None]
        fused_against_chain(
            lambda a, b: T.stack((a, k, b)),
            lambda a, b: T.add(T.add(T.mul(a, e[0]), k * e[1]), T.mul(b, e[2])),
            [a, b],
        )


# The convolution and max pooling that the matmul and strided-view kernels
# replaced, copied as references.  Only the tape recording is gone: each
# returns its output and a vjp from the output adjoint to plain arrays.


def _window_view(x, kh, kw, stride):
    n, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(f"window {kh}x{kw} too large for input {h}x{w}")
    s0, s1, s2, s3 = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, kh, kw),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    return view, oh, ow


def reference_conv2d(vx, vw, vb, stride=1):
    """einsum convolution; the vjp returns the (x, weight, bias) adjoints."""
    out_c, in_c, kh, kw = vw.shape[-4:]
    lead = vx.shape[:-4]
    n = vx.shape[-4]
    windows, oh, ow = _window_view(vx.reshape((-1,) + vx.shape[-3:]), kh, kw, stride)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(lead + (n, oh, ow, -1))
    w_mat = vw.reshape(vw.shape[:-3] + (-1,))
    out = np.einsum("...nijk,...ok->...noij", cols, w_mat)
    out += vb.reshape(vb.shape[:-1] + (1, out_c, 1, 1))
    x_shape = vx.shape

    def vjp(g):
        g_mat = np.moveaxis(g, -3, -1).reshape(lead + (-1, out_c))
        dcols = (g_mat @ w_mat).reshape(lead + (n, oh, ow, in_c, kh, kw))
        dx = np.zeros(x_shape)
        for i in range(oh):
            for j in range(ow):
                dx[..., i * stride : i * stride + kh, j * stride : j * stride + kw] += dcols[..., i, j, :, :, :]
        gw = np.swapaxes(g_mat, -1, -2) @ cols.reshape(lead + (-1, cols.shape[-1]))
        gw = T._unbroadcast(gw, w_mat.shape).reshape(vw.shape)
        return dx, gw, T._unbroadcast(g.sum(axis=(-4, -2, -1)), vb.shape)

    return out, vjp


def reference_maxpool2d(vx, window, stride=None):
    """argmax pooling; the vjp scatters with ``np.add.at``."""
    stride = window if stride is None else stride
    flat_x = vx.reshape((-1,) + vx.shape[-3:])
    windows, oh, ow = _window_view(flat_x, window, window, stride)
    n, c = flat_x.shape[:2]
    flat = windows.reshape(n, c, oh, ow, -1)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    out = out.reshape(vx.shape[:-2] + (oh, ow))

    def vjp(g):
        g = g.reshape(arg.shape)
        dx = np.zeros_like(flat_x)
        ki, kj = np.unravel_index(arg, (window, window))
        b_idx, c_idx, i_idx, j_idx = np.indices(arg.shape)
        np.add.at(dx, (b_idx, c_idx, i_idx * stride + ki, j_idx * stride + kj), g)
        return dx.reshape(vx.shape)

    return out, vjp


def tape_vjp(op, arrays, g):
    """Output and adjoints of ``op`` on leaves ``arrays`` for output adjoint ``g``."""
    tape = T.Tape()
    leaves = [tape.leaf(a) for a in arrays]
    out = op(*leaves)
    grads = tape.backward(T.sum_(T.mul(out, g)), leaves)
    return T.value_of(out), [grads[n] for n in leaves]


def close(got, want):
    assert np.shape(got) == np.shape(want)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestSpatialKernelsMatchReference:
    """``conv2d`` and ``maxpool2d`` against the kernels they replaced."""

    # (x shape, kernel shape without kh, kw): plain, task axis with a shared
    # kernel, task axis with one kernel per task
    CONV_LAYOUTS = [((2, 3, 7, 7), (4, 3)), ((3, 2, 3, 7, 7), (4, 3)), ((3, 2, 3, 7, 7), (3, 4, 3))]

    @pytest.mark.parametrize("layout", range(3))
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 2, 3])
    def test_conv2d(self, layout, stride, kernel):
        x_shape, w_lead = self.CONV_LAYOUTS[layout]
        rng = np.random.default_rng(100 * layout + 10 * stride + kernel)
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_lead + (kernel, kernel))
        b = rng.standard_normal(w_lead[:-1])
        want, ref_vjp = reference_conv2d(x, w, b, stride)
        close(T.conv2d(x, w, b, stride), want)
        g = rng.standard_normal(want.shape)
        out, grads = tape_vjp(lambda *a: T.conv2d(*a, stride=stride), [x, w, b], g)
        close(out, want)
        for got, ref in zip(grads, ref_vjp(g)):
            close(got, ref)

    @staticmethod
    def pool_input(shape, data, rng):
        x = rng.standard_normal(shape)
        if data == "relu_zeros":
            # after a relu many windows are all zero; the sign of each zero
            # shows which one the forward pass kept
            x = np.maximum(x - 0.5, 0.0)
            x[x == 0.0] *= rng.choice([-1.0, 1.0], size=int(np.sum(x == 0.0)))
        return x

    @pytest.mark.parametrize("shape", [(2, 3, 7, 8), (3, 2, 2, 7, 8)])
    @pytest.mark.parametrize("window,stride", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
    @pytest.mark.parametrize("data", ["normal", "relu_zeros"])
    def test_maxpool2d(self, shape, window, stride, data):
        rng = np.random.default_rng(window * 10 + stride)
        x = self.pool_input(shape, data, rng)
        want, ref_vjp = reference_maxpool2d(x, window, stride)
        g = rng.standard_normal(want.shape)
        untaped = T.maxpool2d(x, window, stride)
        out, (grad,) = tape_vjp(lambda a: T.maxpool2d(a, window, stride), [x], g)
        ref_grad = ref_vjp(g)
        # overlapping windows sum into an entry in the reference's order too
        for got, ref in ((untaped, want), (out, want), (grad, ref_grad)):
            np.testing.assert_array_equal(got, ref)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))

    @staticmethod
    def first_max_indices(x, window, stride):
        """Flat index into ``x`` of each window's first maximum in row-major
        order, found window by window with ``np.argmax``."""
        *lead, h, w = x.shape
        out_hw = ((h - window) // stride + 1, (w - window) // stride + 1)
        idx = np.empty(tuple(lead) + out_hw, dtype=np.int64)
        for pos in np.ndindex(idx.shape):
            *at, i, j = pos
            patch = x[tuple(at)][i * stride : i * stride + window, j * stride : j * stride + window]
            a, b = divmod(int(np.argmax(patch)), window)
            idx[pos] = np.ravel_multi_index(tuple(at) + (i * stride + a, j * stride + b), x.shape)
        return idx

    # the 5-image conv support set, with a task axis and the faces axis, and
    # a plain batch
    @pytest.mark.parametrize("shape", [(5, 8, 8, 8), (2, 1, 5, 4, 8, 8), (3, 2, 7, 8)])
    @pytest.mark.parametrize("window,stride", [(2, 2), (3, 1), (2, 3)])
    def test_maxpool2d_indices_from_cached_window_starts(self, shape, window, stride, monkeypatch):
        # the flat indices the taped forward hands its vjp are each window's
        # first maximum; the window starts they are built from are cached,
        # read-only, and unchanged by the calls that read them
        rng = np.random.default_rng(sum(shape) + 10 * window + stride)
        x = np.round(rng.standard_normal(shape))  # ties in many windows
        want = self.first_max_indices(x, window, stride)
        seen = []
        scatter = T._pool_scatter
        monkeypatch.setattr(
            T, "_pool_scatter", lambda g, idx, s: seen.append(idx.copy()) or scatter(g, idx, s)
        )
        for _ in range(2):  # the second call reads the cached starts
            tape_vjp(lambda a: T.maxpool2d(a, window, stride), [x], np.ones(want.shape))
        assert len(seen) == 2
        for idx in seen:
            assert idx.dtype == want.dtype
            np.testing.assert_array_equal(idx, want)
        starts = T._window_starts(shape, want.shape[-2:], stride)
        assert starts is T._window_starts(shape, want.shape[-2:], stride)
        assert not starts.flags.writeable
        np.testing.assert_array_equal(starts, self.first_max_indices(np.zeros(shape), window, stride))

    @pytest.mark.parametrize("layout", range(3))
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv_kernels_are_mutual_adjoints(self, layout, stride):
        # <conv(x, w), g> = <x, input_grad(g, w)> = <w, weight_grad(g, x)>,
        # and <scatter(g), h> = <g, gather(h)>: each kernel is the transpose
        # the others' vjps take it to be
        x_shape, w_lead = self.CONV_LAYOUTS[layout]
        rng = np.random.default_rng(60 + layout)
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_lead + (3, 3))
        y = T._conv(x, w, stride)
        g = rng.standard_normal(y.shape)
        dot = np.sum(y * g)
        assert np.sum(x * T._conv_input_grad(g, w, x.shape, stride)) == pytest.approx(dot, rel=1e-12)
        assert np.sum(w * T._conv_weight_grad(g, x, w.shape, stride)) == pytest.approx(dot, rel=1e-12)

        # flat indices into x, repeats included, as overlapping windows make
        idx = rng.integers(0, x.size, size=(x_shape[:-2] + (3, 3)))
        gp = rng.standard_normal(idx.shape)
        scattered = T._pool_scatter(gp, idx, x.shape)
        assert np.sum(scattered * x) == pytest.approx(
            np.sum(gp * T._pool_gather(x, idx)), rel=1e-12
        )


# (input shape, reduced axes): fc, fc on a task axis, conv, conv on a task
# axis, at the sizes of the training, evaluation and interpolation batches
BATCH_STATS_SHAPES = [
    ((75, 16), (0,)),
    ((5, 32), (0,)),
    ((27, 75, 16), (1,)),
    ((75, 8, 8, 8), (0, 2, 3)),
    ((5, 4, 6, 6), (0, 2, 3)),
    ((2, 75, 8, 8, 8), (1, 3, 4)),
    ((3, 5, 4, 6, 6), (1, 3, 4)),
]


def test_batch_stats_bit_equal_to_numpy_mean_and_var():
    # one sum for the mean, as np.var computes its own: 300 random arrays
    layer = L.batchnorm(8)
    rng = np.random.default_rng(71)
    for i in range(300):
        shape, axes = BATCH_STATS_SHAPES[i % len(BATCH_STATS_SHAPES)]
        x = rng.uniform(0.1, 50.0) * rng.standard_normal(shape) + rng.uniform(-20.0, 20.0)
        mean, var = L.batch_stats(x, layer)
        for got, want in ((mean, x.mean(axis=axes)), (var, x.var(axis=axes))):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes(), (shape, i)


# Every public tape op, called on arrays (the value-mode fast path) and on
# nodes.  Each case is (op, function of the operands, operand shapes); a
# shape of None is a None operand, and ``const`` lists the operands that
# stay plain arrays on the tape.  The shapes broadcast and carry a task axis.
FAST_PATH_CASES = [
    ("add", T.add, [(2, 3, 4), (3, 1)], ()),
    ("add", T.add, [(4,), (2, 3, 4)], (1,)),
    ("sub", T.sub, [(2, 3, 4), (1, 4)], ()),
    ("sub", T.sub, [(3, 1), (2, 3, 4)], (0,)),
    ("neg", T.neg, [(2, 3, 4)], ()),
    ("mul", T.mul, [(2, 3, 4), (3, 1)], ()),
    ("mul", T.mul, [(2, 1, 4), (2, 3, 4)], (1,)),
    ("div", T.div, [(2, 3, 4), (3, 1)], ()),
    ("div", T.div, [(4,), (2, 3, 4)], (0,)),
    ("matmul", T.matmul, [(2, 3, 4), (4, 5)], ()),
    ("matmul", T.matmul, [(3, 4), (2, 4, 5)], ()),
    ("transpose", T.transpose, [(2, 3, 4)], ()),
    ("reshape", lambda a: T.reshape(a, (2, 12)), [(2, 3, 4)], ()),
    ("relu", T.relu, [(2, 3, 4)], ()),
    ("abs_", T.abs_, [(2, 3, 4)], ()),
    ("exp", T.exp, [(2, 3, 4)], ()),
    ("sqrt", T.sqrt, [(2, 3, 4)], ()),
    ("sum_", T.sum_, [(2, 3, 4)], ()),
    ("sum_", lambda a: T.sum_(a, axis=(0, 2)), [(2, 3, 4)], ()),
    ("sum_", lambda a: T.sum_(a, axis=-2, keepdims=True), [(2, 3, 4)], ()),
    ("stack", lambda a, b: T.stack((a, b)), [(2, 3), (2, 3)], ()),
    ("stack", lambda a, b: T.stack([a, b]), [(2, 3), (2, 3)], (0,)),
    ("take", lambda a: T.take(a, 1), [(2, 3, 4)], ()),
    ("linear", T.linear, [(2, 3, 4), (5, 4), (5,)], ()),
    ("linear", T.linear, [(2, 3, 4), (2, 5, 4), (2, 5)], ()),
    ("linear", T.linear, [(3, 4), (5, 4), None], ()),
    ("conv2d", lambda x, w, b: T.conv2d(x, w, b, stride=2), [(2, 1, 7, 7), (3, 1, 3, 3), (3,)], ()),
    ("conv2d", T.conv2d, [(2, 2, 1, 6, 6), (3, 1, 3, 3), (3,)], ()),
    ("conv2d", T.conv2d, [(2, 2, 1, 6, 6), (2, 3, 1, 3, 3), None], (0,)),
    ("maxpool2d", lambda x: T.maxpool2d(x, 2), [(2, 2, 1, 4, 4)], ()),
    ("maxpool2d", lambda x: T.maxpool2d(x, 3, 1), [(2, 3, 5, 5)], ()),
    (
        "weighted_sum",
        lambda a, b, c: T.weighted_sum((a, b, c), (0.25, np.array([[2.0], [-1.0], [0.5]]), 1.5)),
        [(2, 3, 4), (3, 4), (2, 3, 1)],
        (),
    ),
    ("weighted_sum", lambda a, b: T.weighted_sum((a, b), (0.7, 0.3)), [(2, 3), (2, 3)], (1,)),
]
# The names of tensor.__all__ that are not tape ops.
NOT_OPS = {"NonFiniteError", "Tape", "Node", "as_tensor", "value_of", "check_finite"}
POSITIVE_OPS = {"div", "sqrt"}  # operands kept away from zero


def assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


class TestFastPath:
    """Each op on plain arrays returns its numpy result without a tape; on
    nodes it records one.  The two must agree bit for bit, and so must a
    value-mode backward pass and a graph-mode one, whose vjps run the same
    numpy calls on arrays and on nodes."""

    def test_every_public_op_has_a_case(self):
        assert {case[0] for case in FAST_PATH_CASES} == set(T.__all__) - NOT_OPS

    @staticmethod
    def operands(name, shapes, seed):
        rng = np.random.default_rng(seed)
        arrays = []
        for shape in shapes:
            a = None if shape is None else rng.standard_normal(shape)
            if a is not None and name in POSITIVE_OPS:
                a = np.abs(a) + 0.5
            arrays.append(a)
        return arrays

    @staticmethod
    def taped(fn, arrays, const, build_graph):
        """The taped value and each leaf's gradient of ``sum(fn(...) · c)``."""
        with T.Tape() as tape:
            ops = [
                a if a is None or i in const else tape.leaf(a) for i, a in enumerate(arrays)
            ]
            out = fn(*ops)
            c = np.random.default_rng(99).standard_normal(out.shape)
            loss = T.sum_(T.mul(out, c))
            leaves = [op for op in ops if type(op) is T.Node]
            grads = tape.backward(loss, leaves, build_graph=build_graph)
            return out.value, [T.value_of(grads[leaf]) for leaf in leaves]

    @pytest.mark.parametrize(
        "index", range(len(FAST_PATH_CASES)),
        ids=[f"{case[0]}-{i}" for i, case in enumerate(FAST_PATH_CASES)],
    )
    def test_arrays_and_nodes_agree_bit_for_bit(self, index):
        name, fn, shapes, const = FAST_PATH_CASES[index]
        arrays = self.operands(name, shapes, seed=index)
        plain = fn(*arrays)
        assert type(plain) is not T.Node
        value, value_grads = self.taped(fn, arrays, const, build_graph=False)
        graph_value, graph_grads = self.taped(fn, arrays, const, build_graph=True)
        assert_same_bytes(plain, value)
        assert_same_bytes(plain, graph_value)
        assert len(value_grads) == len(graph_grads) > 0
        for got, want in zip(value_grads, graph_grads):
            assert type(got) is not T.Node
            assert_same_bytes(got, want)
