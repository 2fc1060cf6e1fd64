"""Checkpoint format: header validation and Hypothesis fuzzing.

A checkpoint that loads must give a network whose layers passed their
constructors' checks; anything else must fail at load time with
``ValueError``, never later inside ``forward`` and never with another
exception type.
"""

import json
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fewshot_ibp import layers as L


def write_raw(path, header: dict, arrays) -> None:
    """A checkpoint file from a hand-written header and parameter blocks."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def header_of(layers, split_index=1):
    return {"format_version": 1, "split_index": split_index, "layers": layers, "rng": {}}


def conv_pool_network(seed=0):
    rng = np.random.default_rng(seed)
    return L.Network(
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


class TestHeaderValidation:
    def test_fc_layer_without_bias_rejected(self, tmp_path):
        # used to load with bias=None; the first forward then raised TypeError
        path = tmp_path / "no_bias.ckpt"
        layer = {"kind": "fully_connected", "weight_shape": [2, 3]}
        write_raw(path, header_of([layer]), [np.ones((2, 3))])
        with pytest.raises(ValueError, match="needs weight_shape and bias_shape"):
            L.load_checkpoint(path)

    def test_conv_bias_shape_must_match_weight(self, tmp_path):
        path = tmp_path / "conv.ckpt"
        layer = {
            "kind": "conv2d", "stride": 1, "weight_shape": [4, 1, 3, 3], "bias_shape": [3],
        }
        write_raw(path, header_of([layer]), [np.ones((4, 1, 3, 3)), np.zeros(3)])
        with pytest.raises(ValueError, match="inconsistent conv shapes"):
            L.load_checkpoint(path)

    def test_batchnorm_shapes_must_agree(self, tmp_path):
        path = tmp_path / "bn.ckpt"
        layer = {"kind": "batchnorm", "eps": 1e-5, "weight_shape": [3], "bias_shape": [4]}
        write_raw(path, header_of([layer]), [np.ones(3), np.zeros(4)])
        with pytest.raises(ValueError, match="inconsistent batchnorm shapes"):
            L.load_checkpoint(path)

    def test_parameter_free_layer_with_parameters_rejected(self, tmp_path):
        path = tmp_path / "relu.ckpt"
        layer = {"kind": "relu", "weight_shape": [2]}
        write_raw(path, header_of([layer]), [np.ones(2)])
        with pytest.raises(ValueError, match="takes no parameters"):
            L.load_checkpoint(path)

    @pytest.mark.parametrize(
        "header",
        [
            [],
            {"format_version": 1, "split_index": 1, "layers": "relu"},
            header_of(["relu"]),
            header_of([{"kind": "maxpool2d", "window": "2", "stride": 2}]),
            header_of([{"kind": "relu"}], split_index=1.5),
            header_of([{"kind": "softmax"}]),
        ],
    )
    def test_malformed_headers_raise_value_error(self, tmp_path, header):
        path = tmp_path / "bad.ckpt"
        write_raw(path, header, [])
        with pytest.raises(ValueError):
            L.load_checkpoint(path)


def networks():
    """Conv -> batchnorm -> relu -> maxpool -> flatten -> fc networks with
    arbitrary finite parameters; shapes agree within each layer only, which
    is all that saving and loading can check."""

    def finite(shape):
        return hnp.arrays(
            np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False)
        )

    @st.composite
    def build(draw):
        c_out = draw(st.integers(1, 3))
        kernel = draw(st.integers(1, 3))
        fc_in, fc_out = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        layers = [
            L.conv(
                draw(finite((c_out, 2, kernel, kernel))),
                draw(finite((c_out,))),
                stride=draw(st.integers(1, 3)),
            ),
            L.batchnorm(
                c_out,
                eps=draw(st.floats(0.0, 1.0)),
                gamma=draw(finite((c_out,))),
                beta=draw(finite((c_out,))),
            ),
            L.relu(),
            L.maxpool(draw(st.integers(1, 3)), draw(st.integers(1, 3))),
            L.flatten(),
            L.fully_connected(draw(finite((fc_out, fc_in))), draw(finite((fc_out,)))),
        ]
        return L.Network(layers, draw(st.integers(1, len(layers))))

    return build()


def saved_bytes(network, rng_info=None) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        L.save_checkpoint(network, path, rng_info=rng_info)
        with open(path, "rb") as fh:
            return fh.read()


def load_bytes(raw: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        with open(path, "wb") as fh:
            fh.write(raw)
        return L.load_checkpoint(path)


REFERENCE = conv_pool_network()
REFERENCE_BYTES = saved_bytes(REFERENCE, rng_info={"seed": 7, "steps": 3})
REFERENCE_INPUT = np.random.default_rng(1).standard_normal((2, 2, 6, 6))
HEADER_END = 4 + struct.unpack("<I", REFERENCE_BYTES[:4])[0]


def loads_and_runs_or_value_error(raw: bytes) -> None:
    """The property every byte string must satisfy: loading either raises
    ``ValueError`` or gives a network whose forward pass returns a finite
    output or raises ``ValueError`` (a changed stride or window can make the
    layers disagree about shapes, which only an input reveals)."""
    try:
        network, _ = load_bytes(raw)
    except ValueError:
        return
    try:
        # mutated payload bytes can hold huge values that overflow
        with np.errstate(over="ignore", invalid="ignore"):
            out = L.forward(network.layers, REFERENCE_INPUT)
    except ValueError:
        return
    assert np.all(np.isfinite(out))


class TestFuzz:
    @given(network=networks(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_exact(self, network, seed):
        raw = saved_bytes(network, rng_info={"seed": seed})
        loaded, header = load_bytes(raw)
        assert header["rng"] == {"seed": seed}
        assert loaded.split_index == network.split_index
        assert [l.kind for l in loaded.layers] == [l.kind for l in network.layers]
        for a, b in zip(network.parameter_arrays(), loaded.parameter_arrays()):
            assert a.tobytes() == b.tobytes()  # bit-exact, -0.0 included
        assert saved_bytes(loaded, rng_info={"seed": seed}) == raw

    @given(
        edits=st.lists(
            st.tuples(
                # most edits land in the header, where the structure lives
                st.one_of(
                    st.integers(0, HEADER_END - 1),
                    st.integers(0, len(REFERENCE_BYTES) - 1),
                ),
                st.integers(0, 255),
            ),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_mutated_bytes_load_or_raise_value_error(self, edits):
        raw = bytearray(REFERENCE_BYTES)
        for pos, value in edits:
            raw[pos] = value
        loads_and_runs_or_value_error(bytes(raw))

    @given(cut=st.integers(0, len(REFERENCE_BYTES) - 1))
    @settings(max_examples=100, deadline=None)
    def test_truncated_bytes_raise_value_error(self, cut):
        with pytest.raises(ValueError):
            load_bytes(REFERENCE_BYTES[:cut])

    @given(extra=st.binary(min_size=1, max_size=16))
    @settings(max_examples=20, deadline=None)
    def test_appended_bytes_raise_value_error(self, extra):
        with pytest.raises(ValueError):
            load_bytes(REFERENCE_BYTES + extra)

    def test_header_text_edits(self):
        # targeted edits of the JSON text that keep it parseable
        text = REFERENCE_BYTES[4:HEADER_END].decode("utf-8")
        payload = REFERENCE_BYTES[HEADER_END:]
        swaps = [
            ('"bias_shape": [4]', '"bias_shape": [5]'),
            ('"bias_shape": [3]', '"bias_shape": null'),
            ('"stride": 1', '"stride": 0'),
            ('"stride": 1', '"stride": -3'),
            ('"stride": 1', '"stride": "1"'),
            ('"window": 2', '"window": 0'),
            ('"window": 2', '"window": 9'),
            ('"eps": 1e-05', '"eps": -1.0'),
            ('"eps": 1e-05', '"eps": NaN'),
            ('"eps": 1e-05', '"eps": Infinity'),
            ('"eps": 1e-05', '"eps": 1' + "0" * 400),
            ('"split_index": 5', '"split_index": 9'),
            ('"split_index": 5', '"split_index": true'),
            ('"weight_shape": [4, 12]', '"weight_shape": [4, -12]'),
            ('"weight_shape": [4, 12]', '"weight_shape": [4, 1.5]'),
            ('"weight_shape": [4, 12]', '"weight_shape": [4, 99999999999999999999]'),
            ('"kind": "relu"', '"kind": ["relu"]'),
            ('"format_version": 1', '"format_version": 2'),
        ]
        for old, new in swaps:
            assert old in text, old
            blob = text.replace(old, new, 1).encode("utf-8")
            raw = struct.pack("<I", len(blob)) + blob + payload
            loads_and_runs_or_value_error(raw)


# -- layer sizes: at load, and walked from a dataset's instances ---------------


def fc_mismatch_network():
    """fc 8->32, relu, fc 16->4: each layer consistent, the widths not."""
    rng = np.random.default_rng(5)
    return L.Network([L.init_fully_connected(8, 32, rng), L.relu(),
                      L.init_fully_connected(16, 4, rng)], split_index=2)


# (layers, split index, instance shape) of the networks ``train`` builds,
# as the benchmark and the digest matrix run them
TRAINED = [
    ([{"kind": "fully_connected", "in": 8, "out": 32}, {"kind": "relu"},
      {"kind": "fully_connected", "in": 32, "out": 16}], 2, [8]),
    ([{"kind": "fully_connected", "in": 8, "out": 32}, {"kind": "batchnorm", "channels": 32},
      {"kind": "relu"}, {"kind": "fully_connected", "in": 32, "out": 16}], 3, [8]),
    ([{"kind": "conv2d", "in_channels": 1, "out_channels": 8, "kernel": 3},
      {"kind": "batchnorm", "channels": 8}, {"kind": "relu"}, {"kind": "maxpool2d", "window": 2},
      {"kind": "flatten"}, {"kind": "fully_connected", "in": 128, "out": 16}], 4, [1, 10, 10]),
    ([{"kind": "conv2d", "in_channels": 1, "out_channels": 4, "kernel": 3, "stride": 2},
      {"kind": "relu"}, {"kind": "conv2d", "in_channels": 4, "out_channels": 4, "kernel": 2},
      {"kind": "batchnorm", "channels": 4, "eps": 0.001}, {"kind": "relu"},
      {"kind": "maxpool2d", "window": 2, "stride": 1}, {"kind": "flatten"},
      {"kind": "fully_connected", "in": 4, "out": 5}], 7, [1, 7, 7]),
]


class TestLayerSizes:
    def test_fc_widths_that_do_not_chain_rejected_at_load(self, tmp_path):
        path = tmp_path / "model.ckpt"
        L.save_checkpoint(fc_mismatch_network(), path)
        with pytest.raises(ValueError, match=r"layer 2 \(fully_connected\): 'in' is 16, "
                                             r"but the layers before it give width 32"):
            L.load_checkpoint(path)

    @pytest.mark.parametrize("layers,split_index,shape", TRAINED)
    def test_every_checkpoint_train_writes_loads(self, tmp_path, layers, split_index, shape):
        from fewshot_ibp.config import RunConfig
        from fewshot_ibp.harness import train

        synth = {"n_classes": 6, "per_class": 8, "shape": shape, "class_separation": 2.0,
                 "noise_scale": 1.0}
        config = RunConfig(
            learner="protonet", objective="ibp", layers=layers, split_index=split_index,
            data={"train": {"synth": {**synth, "seed": 1}}}, train_ways=3, train_query_shots=3,
            eval_ways=3, eval_query_shots=3, max_steps=2, n_eval_tasks=2, seed=0,
            out_dir=str(tmp_path),
        )
        network = train(config)[0]
        loaded, _ = L.load_checkpoint(tmp_path / "checkpoint.ckpt")
        descs = L.layer_descs(loaded.layers)
        assert descs == L.layer_descs(network.layers)
        walked = L.check_instance_shape(descs, tuple(shape), "instances")
        assert walked == L.check_instance_shape(layers, tuple(shape), "instances")
        L.check_layer_descs(descs)  # the descriptors of built layers are valid ones

    def test_non_square_kernel_walks(self):
        rng = np.random.default_rng(6)
        layers = [L.conv(rng.standard_normal((2, 1, 2, 3)), np.zeros(2)), L.flatten()]
        descs = L.layer_descs(layers)
        assert descs[0]["kernel"] == (2, 3)
        assert L.check_instance_shape(descs, (1, 4, 5), "instances") == (18,)
        assert L.forward(layers, np.zeros((1, 1, 4, 5))).shape == (1, 18)
        with pytest.raises(ValueError, match=r"layer 0 \(conv2d\): 'kernel' is \(2, 3\)"):
            L.check_instance_shape(descs, (1, 4, 2), "instances")


class TestCliWalksInstances:
    """``eval``, ``transfer`` and ``compactness`` reject a dataset whose
    instances do not fit the loaded layers before they draw a task, naming
    the layer, its kind and both sizes."""

    @staticmethod
    def run(tmp_path, capsys, command, network, shape):
        from fewshot_ibp import cli
        from fewshot_ibp.episodes import save_dataset, synth_dataset

        ckpt, data = tmp_path / "net.ckpt", tmp_path / "data.fsds"
        L.save_checkpoint(network, ckpt)
        save_dataset(synth_dataset(4, 10, shape, 2.0, 1.0, seed=7, role="test"), data)
        argv = [command, "--checkpoint", str(ckpt), "--dataset", str(data),
                "--ways", "2", "--shots", "1", "--n-tasks", "3"]
        if command != "compactness":
            argv += ["--learner", "protonet", "--query-shots", "2"]
        else:
            argv += ["--queries-per-task", "4"]
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        return rc, out, err

    @pytest.mark.parametrize("command", ["eval", "transfer", "compactness"])
    @pytest.mark.parametrize("shape,message", [
        pytest.param((3, 6, 6), r"layer 0 \(conv2d\): 'in_channels' is 2, but test "
                     r"instances of shape \(3, 6, 6\) reach it with 3", id="channels"),
        pytest.param((2, 5, 5), r"layer 5 \(fully_connected\): 'in' is 12, but test "
                     r"instances of shape \(2, 5, 5\) reach it with 3", id="flattened"),
    ])
    def test_instances_that_do_not_fit_rejected(self, tmp_path, capsys, command, shape, message):
        rc, out, err = self.run(tmp_path, capsys, command, conv_pool_network(), shape)
        assert (rc, out) == (1, "")
        record = json.loads(err)
        assert record["error"] == "ValueError"
        assert re.fullmatch(message, record["message"])

    @pytest.mark.parametrize("command", ["eval", "transfer", "compactness"])
    def test_instances_that_fit_run(self, tmp_path, capsys, command):
        rc, out, _ = self.run(tmp_path, capsys, command, conv_pool_network(), (2, 6, 6))
        assert rc == 0 and json.loads(out)
