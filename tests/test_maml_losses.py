"""The MAML training losses against verbatim copies of the code they
replaced, as ``chain_batchnorm`` is kept for the batchnorm activation.

Where a set's box is propagated with the parameters of its clean pass, the
MAML losses read the clean logits from the box centers instead of running
the prefix a second time.  The replaced losses run on the replaced
``cross_entropy`` and mixed cross-entropy chain, which ``TestFusedNodes`` in
``test_tensor`` checks bit for bit against the current nodes.  Loss values
are those of the replaced code bit for bit.  Gradients through
shared centers sum a prefix weight's adjoints before one product instead of
adding two products, so they agree to 1e-12, and to finite differences.
"""

from __future__ import annotations

import numpy as np
import pytest

from fewshot_ibp import harness as H
from fewshot_ibp import layers as L
from fewshot_ibp import learners as LR
from fewshot_ibp import tensor as T
from fewshot_ibp.bounds import propagate_prefix
from fewshot_ibp.config import RunConfig
from fewshot_ibp.harness import BOUND_OBJECTIVES, _loss_tail, _TaskMix
from fewshot_ibp.interpolation import BOUND_MODES, make_interpolated_task
from fewshot_ibp.layers import forward
from fewshot_ibp.optim import adam
from fewshot_ibp.tensor import value_of
from test_learners import conv_pool_network, fc_pool_network
from test_tensor import chain_mixed_cross_entropy as _mixed_cross_entropy
from test_tensor import fd_gradient
from test_tensor import replaced_cross_entropy as cross_entropy

# ---------------------------------------------------------------------------
# The replaced code, verbatim.
# ---------------------------------------------------------------------------


def _maml_inner_loss(network, config, eps_t, mix: _TaskMix | None):
    s = network.split_index

    def inner_loss(batch, params):
        logits = forward(network.layers, batch.support_x, params=params)
        l_ce = cross_entropy(logits, batch.support_y)
        if mix is None:
            return l_ce
        h = make_interpolated_task(
            config.objective, network, batch.support_x, batch.support_y, mix.coeffs,
            params[:s], eps_t, pair_x=mix.pair_support_x,
        )
        scores = forward(network.head, h, params=params[s:])
        return _mixed_cross_entropy(l_ce, cross_entropy(scores, batch.support_y), mix)

    return inner_loss


def _maml_query_loss(network, config, eps_t, mix: _TaskMix | None):
    s = network.split_index
    mode = config.objective
    query_boxes = mode in BOUND_OBJECTIVES or (mix is not None and mode in BOUND_MODES)

    def query_loss(batch, theta, phi):
        logits = forward(network.layers, batch.query_x, params=phi)
        l_ce = cross_entropy(logits, batch.query_y)
        qres = None
        if query_boxes:
            bound_params = phi if config.bounds_on_adapted else theta
            qres = propagate_prefix(network, batch.query_x, eps_t, params=bound_params[:s])
        if mix is not None:
            h = make_interpolated_task(
                mode, network, batch.query_x, batch.query_y, mix.query_coeffs,
                phi[:s], eps_t, bounds=qres, pair_x=mix.pair_query_x,
            )
            scores = forward(network.head, h, params=phi[s:])
            l_ce = _mixed_cross_entropy(l_ce, cross_entropy(scores, batch.query_y), mix)
        return _loss_tail(config, l_ce, qres)

    return query_loss


# ---------------------------------------------------------------------------

# the objectives that propagate boxes: bound losses only, and the two modes
# that interpolate toward the boxes
BOXED = ("ibp", "ibpi", "ibpi_no_bound_loss")
EPS = 0.1


def assert_bit_equal(got, want):
    got, want = np.asarray(value_of(got)), np.asarray(value_of(want))
    assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())


def close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def draw_step(net, ds, objective, flags, first_order, **overrides):
    """A MAML config and one step's task batch and interpolation, drawn as
    ``harness._maml_step`` draws them."""
    cfg = RunConfig(**{
        "learner": "maml",
        "objective": objective,
        # a config needs a layer list; the losses use the network they are given
        "layers": [{"kind": "relu"}] * len(net.layers),
        "split_index": net.split_index,
        "meta_batch": 3,
        "inner_lr": 0.1,
        "inner_steps": 2,
        "first_order": first_order,
        "shared_mix_coeffs": flags,
        "bounds_on_adapted": flags,
        "interp_probability": 1.0,  # a task fires: the support set shares its centers
        **overrides,
    })
    batch, mix = H._draw_tasks(
        "maml", cfg.meta_batch, ds, cfg, np.random.default_rng(1), np.random.default_rng(2),
        LR._classes(net), ("support", "query"),
    )
    assert (mix is None) == (objective not in BOUND_MODES)
    return cfg, batch, mix


def losses(net, cfg, mix, new):
    """The (inner, query) loss functions of the current or the replaced code."""
    if new:
        return H._maml_inner_loss(net, cfg, EPS, mix), H._maml_query_loss(net, cfg, EPS, mix)
    return _maml_inner_loss(net, cfg, EPS, mix), _maml_query_loss(net, cfg, EPS, mix)


def meta_step(net, batch, cfg, inner_loss, query_loss, monkeypatch):
    """One ``maml_outer_step``: the values of every inner loss, the query
    diagnostics and the mean gradient of each parameter, which is not
    applied."""
    seen = {}

    def capture(arrays, grads, state):
        seen["grads"] = grads
        return arrays, state

    monkeypatch.setattr(LR, "optimizer_step", capture)
    inner_values = []

    def recorded(batch, params):
        out = inner_loss(batch, params)
        inner_values.append(np.array(value_of(out)))
        return out

    diagnostics = LR.maml_outer_step(
        net, batch, recorded, query_loss, adam(0.01), cfg.inner_lr, cfg.inner_steps,
        first_order=cfg.first_order,
    )
    return inner_values, diagnostics, seen["grads"]


NETWORKS = {"fc": fc_pool_network, "conv": conv_pool_network}


class TestSharedCenters:
    @pytest.mark.parametrize("network", NETWORKS)
    @pytest.mark.parametrize("flags", [True, False])
    @pytest.mark.parametrize("objective", BOXED)
    def test_loss_values_bit_equal_to_the_replaced_code(self, network, objective, flags):
        net, ds = NETWORKS[network](0)
        cfg, batch, mix = draw_step(net, ds, objective, flags, True)
        theta = LR._tiled_arrays(net, len(batch.query_x))
        rng = np.random.default_rng(3)
        phi = [
            {name: arr + 0.05 * rng.standard_normal(arr.shape) for name, arr in entry.items()}
            for entry in theta
        ]
        inner, query = losses(net, cfg, mix, True)
        old_inner, old_query = losses(net, cfg, mix, False)
        for params in (theta, phi):
            assert_bit_equal(inner(batch, params), old_inner(batch, params))
        total, diagnostics = query(batch, theta, phi)
        old_total, old_diagnostics = old_query(batch, theta, phi)
        assert_bit_equal(total, old_total)
        assert_bit_equal(diagnostics, old_diagnostics)
        # the same on tape nodes, as both orders of the meta-step call them
        with T.Tape() as tape:
            leaves = [{n: tape.leaf(a) for n, a in e.items()} for e in theta]
            phi_leaves = [{n: tape.leaf(a) for n, a in e.items()} for e in phi]
            assert_bit_equal(inner(batch, leaves), old_inner(batch, leaves))
            assert_bit_equal(
                query(batch, leaves, phi_leaves)[0], old_query(batch, leaves, phi_leaves)[0]
            )

    @pytest.mark.parametrize("network,first_order", [("fc", True), ("fc", False), ("conv", True)])
    @pytest.mark.parametrize("flags", [True, False])
    @pytest.mark.parametrize("objective", BOXED)
    def test_meta_gradients_agree_with_the_replaced_code(
        self, network, objective, flags, first_order, monkeypatch
    ):
        make = NETWORKS[network]
        net, ds = make(0)
        cfg, batch, mix = draw_step(net, ds, objective, flags, first_order)
        got = meta_step(net, batch, cfg, *losses(net, cfg, mix, True), monkeypatch)
        want = meta_step(net, batch, cfg, *losses(net, cfg, mix, False), monkeypatch)
        (inner_values, diagnostics, grads), (ref_inner, ref_diagnostics, ref_grads) = got, want
        assert len(inner_values) == len(ref_inner) == cfg.inner_steps
        assert_bit_equal(inner_values[0], ref_inner[0])  # at θ, before any update
        for value, ref in zip(inner_values[1:], ref_inner[1:]):
            close(value, ref)
        close(diagnostics, ref_diagnostics)
        assert len(grads) == len(ref_grads)
        for g, ref in zip(grads, ref_grads):
            assert g.shape == ref.shape
            close(g, ref)
        assert any(np.abs(g).max() > 0 for g in grads)

    def test_second_order_meta_gradient_matches_finite_differences(self, monkeypatch):
        # a small fc network, and constant loss weights: dynamic weights are
        # detached, so finite differences would see them move
        net = L.build_network(
            [
                {"kind": "fully_connected", "in": 8, "out": 6},
                {"kind": "relu"},
                {"kind": "fully_connected", "in": 6, "out": 5},
            ],
            2,
            np.random.default_rng(5),
        )
        _, ds = fc_pool_network(0)
        cfg, batch, mix = draw_step(
            net, ds, "ibpi", True, False, meta_batch=2, static_weights=[0.5, 0.25, 0.25]
        )
        inner, query = losses(net, cfg, mix, True)
        _, _, grads = meta_step(net, batch, cfg, inner, query, monkeypatch)
        arrays = net.parameter_arrays()

        def meta_loss(arrs):
            net.set_parameter_arrays(arrs)
            theta = LR._tiled_arrays(net, len(batch.query_x))
            phi = LR.maml_adapt(
                lambda params: T.sum_(inner(batch, params)), theta, cfg.inner_lr, cfg.inner_steps
            )
            return float(np.sum(value_of(query(batch, theta, phi)[0]))) / len(batch.query_x)

        for index, g in enumerate(grads):
            fd = fd_gradient(meta_loss, arrays, index, step=1e-6)
            assert np.max(np.abs(g - fd)) <= 1e-5 * max(np.max(np.abs(fd)), 1.0)
