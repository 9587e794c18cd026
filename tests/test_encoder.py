import hashlib
import math
import struct
import weakref
from dataclasses import astuple, replace

import numpy as np
import pytest

from titlerec import encoder as enc
from titlerec.errors import (
    ArtifactFormatError,
    InvalidConfigError,
    NoRecordedForwardError,
    PositionOutOfRangeError,
    ShapeMismatchError,
)
from titlerec.tokenizer import TokenBatch

from conftest import encode_id_pairs, loss_and_grad_arena, token_rows, zeroed_params


def attention_weights(trace):
    """Each layer's (B, heads, queries, keys) attention weights from a
    recorded trace: the sixth array its attention block saves."""
    _, layers, _ = trace.cache
    return [attention[5] for attention, _, _, _ in layers]


class TestConfig:
    # replace() builds a new config, so each runs the rules
    def test_rejects_indivisible_heads(self, tiny_config):
        with pytest.raises(InvalidConfigError):
            replace(tiny_config, d_model=16, n_heads=3)

    def test_rejects_small_dimensions(self, tiny_config):
        with pytest.raises(InvalidConfigError):
            replace(tiny_config, vocab_size=0)
        with pytest.raises(InvalidConfigError):
            replace(tiny_config, n_layers=0)

    def test_rejects_short_max_len(self, tiny_config):
        with pytest.raises(InvalidConfigError):
            replace(tiny_config, max_len=4)

    def test_d_head(self, tiny_config):
        assert replace(tiny_config, d_model=64, n_heads=4).d_head == 16


class TestInitParams:
    def test_deterministic(self, tiny_config):
        first = enc.init_params(tiny_config, seed=9)
        second = enc.init_params(tiny_config, seed=9)
        assert list(first.tensors) == list(second.tensors)
        for name in first.tensors:
            assert np.array_equal(first[name], second[name])

    def test_seed_changes_weights(self, tiny_config):
        a = enc.init_params(tiny_config, seed=1)
        b = enc.init_params(tiny_config, seed=2)
        assert not np.array_equal(a["token_embedding"], b["token_embedding"])

    def test_gains_one_biases_zero(self, tiny_params):
        for name in tiny_params.tensors:
            leaf = name.rsplit(".", 1)[-1]
            if leaf == "gain":
                assert np.array_equal(tiny_params[name], np.ones_like(tiny_params[name]))
            elif leaf in ("bias", "b_q", "b_k", "b_v", "b_o", "b1", "b2"):
                assert np.array_equal(tiny_params[name], np.zeros_like(tiny_params[name]))

    def test_weight_scale(self):
        config = enc.EncoderConfig(vocab_size=500, d_model=32, n_heads=4, n_layers=1, d_ff=64, max_len=8)
        params = enc.init_params(config, seed=0)
        std = params["token_embedding"].std()
        assert 0.015 < std < 0.025

    def test_shapes_match_contract(self, tiny_config, tiny_params):
        shapes = enc.parameter_shapes(tiny_config)
        assert set(shapes) == set(tiny_params.tensors)
        for name, shape in shapes.items():
            assert tiny_params[name].shape == shape
        assert shapes["token_embedding"] == (11, 8)
        assert shapes["np_head.weight"] == (8, 1)
        assert all(np.isfinite(t).all() for t in tiny_params.tensors.values())


def assert_arena_layout(params):
    """Every tensor is a view of ``params.flat``, back to back in name order."""
    offset = 0
    for name in params.tensors:
        tensor = params[name]
        assert np.shares_memory(tensor, params.flat), name
        assert tensor.__array_interface__["data"][0] == (
            params.flat.__array_interface__["data"][0] + offset * 8
        ), name
        offset += tensor.size
    assert offset == params.flat.size
    assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous


class TestParameterArena:
    def test_init_lays_tensors_out_in_parameter_shapes_order(self, tiny_config, tiny_params):
        assert list(tiny_params.tensors) == list(enc.parameter_shapes(tiny_config))
        assert_arena_layout(tiny_params)
        assert_arena_layout(enc.zero_grads(tiny_params))
        assert_arena_layout(enc.EncoderParams(tiny_params.config, tiny_params.flat.copy()))

    def test_init_draws_as_one_tensor_at_a_time(self, tiny_config, tiny_params):
        # the arena is filled in the order and with the values of a per-tensor init
        rng = np.random.default_rng(3)
        for name, shape in enc.parameter_shapes(tiny_config).items():
            leaf = name.rsplit(".", 1)[-1]
            if leaf == "gain":
                expected = np.ones(shape)
            elif leaf in ("bias", "b_q", "b_k", "b_v", "b_o", "b1", "b2"):
                expected = np.zeros(shape)
            else:
                expected = rng.normal(0.0, enc.INIT_SCALE, size=shape)
            assert np.array_equal(tiny_params[name], expected), name

    def test_tensors_cannot_be_rebound(self, tiny_params):
        replacement = np.zeros_like(tiny_params["np_head.bias"])
        with pytest.raises(TypeError):
            tiny_params.tensors["np_head.bias"] = replacement
        with pytest.raises(TypeError):
            tiny_params["np_head.bias"] = replacement
        with pytest.raises(TypeError):
            del tiny_params.tensors["np_head.bias"]

    def test_in_place_write_reaches_the_arena(self, tiny_params):
        tiny_params["np_head.bias"][...] = 7.0
        assert tiny_params.flat[-1] == 7.0
        clone = enc.EncoderParams(tiny_params.config, tiny_params.flat.copy())
        assert clone["np_head.bias"][0] == 7.0

    def test_copy_is_independent(self, tiny_params):
        clone = enc.EncoderParams(tiny_params.config, tiny_params.flat.copy())
        assert list(clone.tensors) == list(tiny_params.tensors)
        assert np.array_equal(clone.flat, tiny_params.flat)
        assert not np.shares_memory(clone.flat, tiny_params.flat)
        before = tiny_params.flat.copy()
        clone["layer0.ffn.w1"][...] = 1.0
        assert np.array_equal(tiny_params.flat, before)
        tiny_params["token_embedding"][...] = 0.0
        assert np.all(clone["token_embedding"] != 0.0)

    def test_loaded_checkpoint_is_an_arena(self, tiny_params, tmp_path):
        path = tmp_path / "model.bin"
        enc.save_checkpoint(tiny_params, path)
        loaded, _ = enc.load_checkpoint(path)
        assert_arena_layout(loaded)
        assert np.array_equal(loaded.flat, tiny_params.flat)
        loaded["token_embedding"][...] = 0.0  # writable, not a view of the file bytes
        assert np.all(tiny_params["token_embedding"] != 0.0)


class TestForward:
    def test_output_shapes(self, tiny_config, tiny_params, tiny_row):
        trace = enc.forward(tiny_params, tiny_row)
        assert trace.hidden_states.shape == (1, tiny_config.max_len, tiny_config.d_model)
        weights = attention_weights(trace)
        assert len(weights) == tiny_config.n_layers
        for attn in weights:
            assert attn.shape == (1, tiny_config.n_heads, tiny_config.max_len, tiny_config.max_len)
        assert trace.hidden_states[:, 0].shape == (1, tiny_config.d_model)

    def test_attention_rows_normalized(self, tiny_params, tiny_row):
        trace = enc.forward(tiny_params, tiny_row)
        for attn in attention_weights(trace):
            assert np.all(np.abs(attn.sum(axis=-1) - 1.0) < 1e-6)

    def test_pad_keys_get_exactly_zero_weight(self, tiny_params, tiny_row):
        trace = enc.forward(tiny_params, tiny_row)
        pad_cols = np.flatnonzero(~tiny_row.attn_mask[0])
        for attn in attention_weights(trace):
            assert np.all(attn[..., pad_cols] == 0.0)

    def test_pad_region_ids_cannot_leak(self, tiny_params, tiny_row):
        base = enc.forward(tiny_params, tiny_row)
        altered = tiny_row[:]
        altered.ids[0, 5:] = [9, 10]
        other = enc.forward(tiny_params, altered)
        live = int(tiny_row.attn_mask.sum())
        assert np.array_equal(base.hidden_states[0, :live], other.hidden_states[0, :live])

    def test_deterministic(self, tiny_params, tiny_row):
        a = enc.forward(tiny_params, tiny_row)
        b = enc.forward(tiny_params, tiny_row)
        assert np.array_equal(a.hidden_states, b.hidden_states)

    def test_wrong_length_rejected(self, tiny_params, tiny_config):
        wider = tiny_config.max_len + 1
        with pytest.raises(ShapeMismatchError):
            enc.forward(tiny_params, token_rows([2] * wider, [0] * wider, [1] * wider))
        empty = token_rows([[]], [[]], [[]])
        with pytest.raises(ShapeMismatchError):
            enc.forward(tiny_params, empty)

    def test_narrow_batch_matches_live_prefix(self, tiny_params, tiny_row):
        """A batch cut to its rows' live length computes the live positions
        of the full-width batch, up to the softmax denominators' rounding."""
        full = enc.forward(tiny_params, tiny_row).hidden_states
        live = int(tiny_row.attn_mask.sum())
        narrow = enc.forward(tiny_params, tiny_row[:, :live])
        assert narrow.hidden_states.shape == (1, live, 8)
        assert np.abs(narrow.hidden_states - full[:, :live]).max() <= 1e-14
        for width in range(1, 8):
            short = token_rows([2] * width, [0] * width, [1] * width)
            assert enc.forward(tiny_params, short).hidden_states.shape == (1, width, 8)

    def test_out_of_vocab_id_rejected(self, tiny_params, tiny_config):
        row = token_rows([2, tiny_config.vocab_size, 3, 0, 0, 0, 0], [0] * 7, [1, 1, 1, 0, 0, 0, 0])
        with pytest.raises(ShapeMismatchError):
            enc.forward(tiny_params, row)

    @pytest.mark.parametrize("segment", [-1, 2])
    def test_out_of_range_segment_id_rejected(self, tiny_params, segment):
        """Only rows 0 and 1 of the segment table exist: -1 would read row 1
        forward but get no gradient backward, and 2 would read past it."""
        segments = [0, 0, 0, segment, segment, 0, 0]
        row = token_rows([2, 5, 6, 7, 3, 0, 0], segments, [1, 1, 1, 1, 1, 0, 0])
        with pytest.raises(ShapeMismatchError, match="segment ids must be 0 or 1"):
            enc.forward(tiny_params, row)

    def test_record_false_drops_cache(self, tiny_params, tiny_row):
        trace = enc.forward(tiny_params, tiny_row, record=False)
        assert trace.cache is None


class TestHeads:
    @staticmethod
    def mlm_probabilities(params, row, position):
        """Predicted vocabulary distribution at one position of a 1-row pass,
        read back from the per-label NLLs of ``loss_and_grads``, one forward
        per label (a backward spends its trace)."""
        return np.array(
            [
                math.exp(
                    -enc.loss_and_grads(
                        params, enc.forward(params, row), [(0, position, label)], [-1]
                    )[0]
                )
                for label in range(params.config.vocab_size)
            ]
        )

    @staticmethod
    def pair_probability(params, trace):
        """sigmoid(z) of a 1-row pass: the pair-bias gradient at label 0."""
        _, _, grads = loss_and_grad_arena(params, trace, [], [0])
        return float(grads["np_head.bias"][0])

    def test_mlm_distribution_normalized(self, tiny_params, tiny_row):
        for position in range(tiny_row.max_len):
            dist = self.mlm_probabilities(tiny_params, tiny_row, position)
            assert np.all(dist > 0)
            assert abs(dist.sum() - 1.0) < 1e-9

    def test_mlm_uniform_when_logits_zero(self):
        config = enc.EncoderConfig(vocab_size=4, d_model=8, n_heads=2, n_layers=1, d_ff=8, max_len=5)
        params = zeroed_params(config)
        row = token_rows([2, 1, 3, 0, 0], [0] * 5, [1, 1, 1, 0, 0])
        trace = enc.forward(params, row)
        assert np.array_equal(trace.hidden_states, np.zeros_like(trace.hidden_states))
        assert np.allclose(self.mlm_probabilities(params, row, 1), 0.25, atol=1e-12)

    def test_mlm_hand_evaluated_softmax(self):
        # logits [0,0,0,ln 3] -> [1/6, 1/6, 1/6, 1/2]
        config = enc.EncoderConfig(vocab_size=4, d_model=8, n_heads=2, n_layers=1, d_ff=8, max_len=5)
        params = zeroed_params(config)
        params["mlm_head.bias"][...] = np.array([0.0, 0.0, 0.0, math.log(3.0)])
        row = token_rows([2, 1, 3, 0, 0], [0] * 5, [1, 1, 1, 0, 0])
        dist = self.mlm_probabilities(params, row, 0)
        assert np.allclose(dist, [1 / 6, 1 / 6, 1 / 6, 1 / 2], atol=1e-12)

    def test_mlm_position_bounds(self, tiny_params, tiny_row):
        trace = enc.forward(tiny_params, tiny_row)
        with pytest.raises(PositionOutOfRangeError):
            enc.loss_and_grads(tiny_params, trace, [(0, tiny_row.max_len, 5)], [-1])
        with pytest.raises(PositionOutOfRangeError):
            enc.loss_and_grads(tiny_params, trace, [(0, -1, 5)], [-1])

    def test_np_probability_half_at_zero_logit(self, tiny_config, tiny_row):
        params = zeroed_params(tiny_config)
        assert self.pair_probability(params, enc.forward(params, tiny_row)) == 0.5

    def test_np_probability_hand_evaluated_sigmoid(self, tiny_config, tiny_row):
        params = zeroed_params(tiny_config)
        params["np_head.bias"][...] = np.array([math.log(3.0)])
        prob = self.pair_probability(params, enc.forward(params, tiny_row))
        assert abs(prob - 0.75) < 1e-12

    def test_pair_gradient_finite_at_saturated_logits(self, tiny_config, tiny_row):
        # e^-z overflows a double from z <= -710: the sigmoid must read it as
        # inf and give exactly 0, not raise or return nan
        params = zeroed_params(tiny_config)
        for logit in (-1e300, -1000.0, -745.0, -710.0, -30.0, 0.0, 30.0, 710.0, 1000.0, 1e300):
            params["np_head.bias"][...] = np.array([logit])
            for label in (0, 1):
                trace = enc.forward(params, tiny_row)
                mlm, pair, grads = loss_and_grad_arena(params, trace, [], [label])
                assert mlm == 0.0 and np.isfinite(pair)
                assert all(np.isfinite(g).all() for g in grads.tensors.values())
                assert -1.0 <= grads["np_head.bias"][0] <= 1.0
        params["np_head.bias"][...] = np.array([-710.0])
        assert self.pair_probability(params, enc.forward(params, tiny_row)) == 0.0


class TestBackwardContract:
    def test_requires_recorded_forward(self, tiny_params, tiny_row):
        trace = enc.forward(tiny_params, tiny_row, record=False)
        with pytest.raises(NoRecordedForwardError):
            enc.loss_and_grads(tiny_params, trace, [(0, 1, 5)], [-1])

    def test_backward_spends_the_trace(self, tiny_params, tiny_row):
        trace = enc.forward(tiny_params, tiny_row)
        _, layers, _ = trace.cache
        weights = weakref.ref(layers[0][0][5])  # layer 0's attention weights
        del layers
        enc.loss_and_grads(tiny_params, trace, [(0, 1, 5)], [1])
        assert weights() is None
        assert trace.cache is None and trace.spent
        with pytest.raises(NoRecordedForwardError, match="backward already ran"):
            enc.loss_and_grads(tiny_params, trace, [(0, 1, 5)], [1])

    def test_refused_targets_leave_the_trace_whole(self, tiny_params, tiny_row):
        trace = enc.forward(tiny_params, tiny_row)
        expected = loss_and_grad_arena(
            tiny_params, enc.forward(tiny_params, tiny_row), [(0, 1, 5)], [1]
        )
        with pytest.raises(PositionOutOfRangeError):
            enc.loss_and_grads(tiny_params, trace, [(0, tiny_row.max_len, 5)], [1])
        with pytest.raises(ShapeMismatchError):
            enc.loss_and_grads(tiny_params, trace, [(0, 1, 5)], [1, 0])
        assert trace.cache is not None and not trace.spent
        actual = loss_and_grad_arena(tiny_params, trace, [(0, 1, 5)], [1])
        assert actual[:2] == expected[:2]
        assert np.array_equal(actual[2].flat, expected[2].flat)

    def test_no_targets_gives_zero_grads(self, tiny_params, tiny_row):
        trace = enc.forward(tiny_params, tiny_row)
        _, _, grads = loss_and_grad_arena(tiny_params, trace, [], [-1])
        assert list(grads.tensors) == list(tiny_params.tensors)
        for g in grads.tensors.values():
            assert np.array_equal(g, np.zeros_like(g))

    def test_grad_shapes_mirror_params(self, tiny_params, tiny_row):
        trace = enc.forward(tiny_params, tiny_row)
        _, _, grads = loss_and_grad_arena(tiny_params, trace, [(0, 1, 5), (0, 2, 6)], [1])
        for name in tiny_params.tensors:
            assert grads[name].shape == tiny_params[name].shape
            assert np.all(np.isfinite(grads[name]))

    def test_determinism(self, tiny_params, tiny_row):
        targets = [(0, 1, 5), (0, 2, 9)]
        first = loss_and_grad_arena(tiny_params, enc.forward(tiny_params, tiny_row), targets, [1])
        second = loss_and_grad_arena(tiny_params, enc.forward(tiny_params, tiny_row), targets, [1])
        assert first[:2] == second[:2]
        first, second = first[2], second[2]
        for name in first.tensors:
            assert np.array_equal(first[name], second[name])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tiny_params, tmp_path):
        path = tmp_path / "model.bin"
        enc.save_checkpoint(tiny_params, path)
        loaded, digest = enc.load_checkpoint(path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert loaded.config == tiny_params.config
        assert list(loaded.tensors) == list(tiny_params.tensors)
        for name in tiny_params.tensors:
            assert np.array_equal(loaded[name], tiny_params[name])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"NOTMODEL" + b"\x00" * 64)
        with pytest.raises(ArtifactFormatError):
            enc.load_checkpoint(path)

    def test_truncated_file_rejected(self, tiny_params, tmp_path):
        path = tmp_path / "model.bin"
        enc.save_checkpoint(tiny_params, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ArtifactFormatError):
            enc.load_checkpoint(path)

    def test_checkpoint_loads_same_forward(self, tiny_params, tiny_row, tmp_path):
        path = tmp_path / "model.bin"
        enc.save_checkpoint(tiny_params, path)
        loaded, _ = enc.load_checkpoint(path)
        a = enc.forward(tiny_params, tiny_row)
        b = enc.forward(loaded, tiny_row)
        assert np.array_equal(a.hidden_states, b.hidden_states)

    def test_file_is_the_shape_and_the_arena(self, tiny_params, tmp_path):
        path = tmp_path / "model.bin"
        enc.save_checkpoint(tiny_params, path)
        blob = path.read_bytes()
        assert len(blob) == 32 + 8 * tiny_params.flat.size
        assert blob[8:32] == struct.pack("<6I", *astuple(tiny_params.config))
        assert blob[32:] == tiny_params.flat.astype("<f8").tobytes()

    def test_older_layout_refused_with_a_retrain_hint(self, tiny_params, tmp_path):
        path = tmp_path / "model.bin"
        enc.save_checkpoint(tiny_params, path)
        path.write_bytes(b"TRENC001" + path.read_bytes()[8:])
        with pytest.raises(ArtifactFormatError, match="bad magic.*re-run `titlerec train`"):
            enc.load_checkpoint(path)

    def test_shape_too_large_for_the_file_reads_as_truncated(self, tiny_params, tmp_path):
        path = tmp_path / "model.bin"
        enc.save_checkpoint(tiny_params, path)
        widest = 2**32 - 1
        blob = path.read_bytes()
        shape = struct.pack("<6I", widest, widest, 1, widest, widest, widest)
        path.write_bytes(blob[:8] + shape + blob[32:])
        with pytest.raises(ArtifactFormatError, match="truncated at byte 32"):
            enc.load_checkpoint(path)


class TestBatchedForward:
    def rows(self, config, rng, lives):
        """Random rows, the i-th with ``lives[i]`` live positions, as a batch."""
        rows = []
        for live in lives:
            n_pad = config.max_len - live
            ids = rng.integers(5, config.vocab_size, live).tolist() + [0] * n_pad
            segments = rng.integers(0, 2, live).tolist() + [0] * n_pad
            rows.append((ids, segments, [1] * live + [0] * n_pad))
        return token_rows(*zip(*rows))

    def test_row_states_ignore_neighbours_and_pad_tail(self, tiny_config, tiny_params):
        rng = np.random.default_rng(31)
        batch = self.rows(tiny_config, rng, (3, 7, 5, 4))
        live = int(batch.attn_mask[2].sum())
        alone = enc.forward(tiny_params, batch[2:3]).hidden_states[0, :live]
        assert np.array_equal(enc.forward(tiny_params, batch).hidden_states[2, :live], alone)

        others = self.rows(tiny_config, rng, (6, 2, 7))
        # others[0], the target, others[1], others[2], the batch's first row
        shuffled = TokenBatch.concat(others, batch)[np.array([0, 5, 1, 2, 3])]
        assert np.array_equal(enc.forward(tiny_params, shuffled).hidden_states[1, :live], alone)

        shuffled.ids[1, live:] = [9, 10]  # any ids may sit in the PAD tail
        assert np.array_equal(enc.forward(tiny_params, shuffled).hidden_states[1, :live], alone)

    def test_attention_per_row_mask(self, tiny_config, tiny_params):
        batch = self.rows(tiny_config, np.random.default_rng(32), (3, 7, 5))
        trace = enc.forward(tiny_params, batch)
        for attn in attention_weights(trace):
            assert attn.shape == (3, tiny_config.n_heads, tiny_config.max_len, tiny_config.max_len)
            assert np.all(np.abs(attn.sum(axis=-1) - 1.0) < 1e-12)
            for row, live in enumerate(batch.attn_mask.sum(axis=1).tolist()):
                assert np.all(attn[row][..., live:] == 0.0)
                assert np.all(attn[row][..., :live] > 0.0)

    def test_record_false_keeps_no_cache(self, tiny_config, tiny_params):
        batch = self.rows(tiny_config, np.random.default_rng(33), (3, 6))
        plain = enc.forward(tiny_params, batch, record=False)
        assert plain.cache is None
        recorded = enc.forward(tiny_params, batch)
        assert np.array_equal(plain.hidden_states, recorded.hidden_states)
        with pytest.raises(NoRecordedForwardError):
            enc.loss_and_grads(tiny_params, plain, [(0, 1, 5)], [1, -1])

    def test_target_and_label_shapes_checked(self, tiny_config, tiny_params):
        trace = enc.forward(tiny_params, self.rows(tiny_config, np.random.default_rng(34), (3, 6)))
        no_pairs = [-1, -1]
        with pytest.raises(ShapeMismatchError):  # a target needs its row
            enc.loss_and_grads(tiny_params, trace, [(1, 5)], no_pairs)
        with pytest.raises(ShapeMismatchError):
            enc.loss_and_grads(tiny_params, trace, [(2, 1, 5)], no_pairs)
        with pytest.raises(PositionOutOfRangeError):
            enc.loss_and_grads(tiny_params, trace, [(1, tiny_config.max_len, 5)], no_pairs)
        for labels in ([1], 1, [1, 0, 1]):  # one label per row
            with pytest.raises(ShapeMismatchError):
                enc.loss_and_grads(tiny_params, trace, [], labels)


@pytest.fixture
def scipy_special():
    """scipy is a test-only oracle: the encoder's erf and sigmoid must equal it."""
    return pytest.importorskip("scipy.special")


def assert_bitwise_equal(actual, expected):
    """Same shape and the same doubles, nan and the sign of zero included."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == np.float64
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def erf_edges() -> np.ndarray:
    """The branch edges of Cephes erf and of its port, and the special values."""
    tiny = np.nextafter(0.0, 1.0)
    underflow = math.sqrt(7.09782712893383996843e2)  # |x| where erfc reaches 0
    points = [0.0, -0.0, tiny, -tiny, 2.2e-308, -1e-310, math.inf, -math.inf]
    points += [math.nan, math.copysign(math.nan, -1.0)]  # erf(+-nan) is a plain nan
    for edge in (1.0, 6.0, 8.0, underflow, 26.64, 1e300):
        points += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, math.inf)]
    points += [-v for v in points[10:]]
    return np.array(points)


class TestGelu:
    def test_gelu_is_x_times_cdf_bit_for_bit(self, scipy_special):
        # the forward pass's GELU is h * gelu_cdf(h)
        x = np.random.default_rng(35).normal(0.0, 3.0, 1000)
        expected = 0.5 * x * (1.0 + scipy_special.erf(x / np.sqrt(2.0)))
        assert np.array_equal(x * enc.gelu_cdf(x), expected)


class TestInPlaceKernels:
    """Layer norm, the GELU derivative, the softmax row max, the blocks and
    their backwards, and the flattened scatter-add equal their plain
    formulas, kept here as references, bit for bit."""

    SHAPES = [(16, 16, 32), (5, 48, 64), (8, 3, 32), (8, 16, 48), (2, 1, 7)]
    # each shape whole, and each shape of width >= 3 cut to about half its positions
    CUTS = [
        pytest.param(shape, cut, id="x".join(map(str, shape)) + ("-cut" if cut else ""))
        for shape in SHAPES
        for cut in (False, True)
        if shape[1] >= 3 or not cut
    ]

    @staticmethod
    def reference_layer_norm(x, gain, bias, eps):
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = np.mean(centered * centered, axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        x_hat = centered * inv
        return gain * x_hat + bias, x_hat, inv

    @staticmethod
    def reference_layer_norm_backward(d_out, x_hat, inv, gain):
        d_hat = d_out * gain
        m1 = d_hat.mean(axis=-1, keepdims=True)
        m2 = (d_hat * x_hat).mean(axis=-1, keepdims=True)
        d_x = inv * (d_hat - m1 - x_hat * m2)
        rows = (-1, x_hat.shape[-1])
        return d_x, (d_out * x_hat).reshape(rows).sum(axis=0), d_out.reshape(rows).sum(axis=0)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_layer_norm_and_backward(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(3.0, 5.0, shape)
        gain, bias = rng.normal(1.0, 0.3, shape[-1]), rng.normal(0.0, 0.3, shape[-1])
        forward = enc.layer_norm(x, gain, bias)
        expected = self.reference_layer_norm(x, gain, bias, enc.LAYER_NORM_EPSILON)
        for actual, want in zip(forward, expected):
            assert_bitwise_equal(actual, want)
        d_out = rng.normal(0.0, 1.0, shape)
        backward = enc.layer_norm_backward(d_out, forward[1], forward[2], gain)
        want = self.reference_layer_norm_backward(d_out, forward[1], forward[2], gain)
        for actual, reference in zip(backward, want):
            assert_bitwise_equal(actual, reference)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_gelu_grad(self, shape):
        x = np.random.default_rng(sum(shape)).normal(0.0, 2.0, shape)
        cdf = enc.gelu_cdf(x)
        kept = cdf.copy()
        expected = cdf + x * (np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi))
        assert_bitwise_equal(enc.gelu_grad(x, cdf), expected)
        assert_bitwise_equal(cdf, kept)

    @pytest.mark.parametrize("shape", [(16, 4, 16, 16), (5, 4, 3, 48), (2, 2, 5, 1), (3, 7)])
    def test_row_max(self, shape):
        scores = np.random.default_rng(sum(shape)).normal(0.0, 1.0, shape)
        scores[..., -1:] = -np.inf  # masked keys
        scores.reshape(-1, shape[-1])[0] = -0.0
        scores.reshape(-1, shape[-1])[-1, 0] = np.nan
        assert_bitwise_equal(enc._row_max(scores), scores.max(axis=-1, keepdims=True))

    @staticmethod
    def block_world(shape, cut):
        """Random parameters (biases and gains too) of a one-layer model of
        width d, random (B, T, d) inputs, the cut's picks (or None) and a
        gradient arena of random values with a copy for the references."""
        b, t, d = shape
        rng = np.random.default_rng(sum(shape) + cut)
        config = enc.EncoderConfig(50, d, 4 if d % 4 == 0 else 1, 1, 2 * d, max(t, 5))
        params = enc.EncoderParams(config, rng.normal(0.0, 0.5, enc.parameter_count(config)))
        grads = enc.EncoderParams(config, rng.normal(0.0, 1.0, enc.parameter_count(config)))
        expected = enc.EncoderParams(config, grads.flat.copy())
        picks = None
        if cut:
            m = max(2, t // 2)
            reads = np.array([np.sort(rng.permutation(t)[:m]) for _ in range(b)])
            picks = enc._read_picks(reads, b, t)
        return params, rng.normal(0.0, 1.0, shape), picks, rng, grads, expected

    @staticmethod
    def reference_projection_grads(grads, weight, bias, x, d_y):
        rows = enc._rows
        grads[weight][...] += rows(x).T @ rows(d_y)
        grads[bias][...] += rows(d_y).sum(axis=0)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_embed_and_backward(self, shape):
        params, _, _, rng, grads, expected = self.block_world(shape, False)
        b, t, _ = shape
        ids = rng.integers(0, params.config.vocab_size, (b, t))
        segments = rng.integers(0, 2, (b, t))
        batch = TokenBatch(ids, segments, np.ones((b, t), dtype=bool))
        x, saved = enc._embed(params, batch)
        assert_bitwise_equal(
            x,
            params["token_embedding"][ids]
            + params["position_embedding"][:t]
            + params["segment_embedding"][segments],
        )
        d_x = rng.normal(0.0, 1.0, x.shape)
        adds = []
        enc._embed_backward(adds, d_x, saved)
        grads.add(adds)
        np.add.at(expected["token_embedding"], ids.ravel(), enc._rows(d_x))
        table = expected["segment_embedding"]
        for s in range(2):
            rows = np.concatenate([table[s : s + 1], enc._rows(d_x)[segments.ravel() == s]])
            table[s] = np.add.reduce(rows, axis=0)
        expected["position_embedding"][:t] += d_x.sum(axis=0)
        assert_bitwise_equal(grads.flat, expected.flat)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_element_indices_add_rows(self, shape):
        b, t, d = shape
        rng = np.random.default_rng(sum(shape))
        values = rng.normal(0.0, 1.0, (b * t, 3 * d))  # rows wider than an int8 id can span
        for n_rows, dtype in ((2, np.int8), (b * t // 3 + 1, np.int32), (9, np.int64)):
            table = rng.normal(0.0, 1.0, (n_rows, 3 * d))
            rows = rng.integers(0, n_rows, (b, t)).astype(dtype)  # repeats in every case
            expected = table.copy()
            np.add.at(expected, rows.ravel(), values)
            flat = enc._element_indices(rows, table.shape[1])
            np.add.at(table.reshape(-1), flat, values.reshape(-1))
            assert_bitwise_equal(table, expected)

    @pytest.mark.parametrize(("shape", "cut"), CUTS)
    @pytest.mark.parametrize("padded", [False, True], ids=["all-live", "padded"])
    def test_attention_and_backward(self, shape, cut, padded):
        params, x, picks, rng, grads, expected = self.block_world(shape, cut)
        b, t, _ = shape
        n_heads, split, merge = params.config.n_heads, enc._split_heads, enc._merge_heads
        pad_keys = np.zeros((b, 1, 1, t), dtype=bool)
        if padded:
            pad_keys[:, 0, 0, max(1, t - 1) :] = True  # the last key, unless it is the only one
        w = {n: params[f"layer0.attn.{n}"] for n in ("w_q", "w_k", "w_v", "w_o")}
        bias = {n: params[f"layer0.attn.{n}"] for n in ("b_q", "b_k", "b_v", "b_o")}
        x_q = x if picks is None else enc._gather(x, picks)
        q = split(x_q @ w["w_q"] + bias["b_q"], n_heads)
        k = split(x @ w["w_k"] + bias["b_k"], n_heads)
        v = split(x @ w["w_v"] + bias["b_v"], n_heads)
        scale = 1.0 / np.sqrt(params.config.d_head)
        scores = np.where(pad_keys, -np.inf, (q @ k.transpose(0, 1, 3, 2)) * scale)
        exps = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights = exps / exps.sum(axis=-1, keepdims=True)
        ctx = merge(weights @ v)
        want = x_q + (ctx @ w["w_o"] + bias["b_o"])

        out, saved = enc._attention(params, "layer0.", x, pad_keys, picks)
        assert_bitwise_equal(out, want)
        d_out = rng.normal(0.0, 1.0, out.shape)
        adds = []
        d_x = enc._attention_backward(params, adds, "layer0.", d_out, saved)
        grads.add(adds)

        self.reference_projection_grads(expected, "layer0.attn.w_o", "layer0.attn.b_o", ctx, d_out)
        d_ctx = split(enc._times_transposed(d_out, w["w_o"], picks, t), n_heads)
        d_v = merge(weights.transpose(0, 1, 3, 2) @ d_ctx)
        d_scores = d_ctx @ v.transpose(0, 1, 3, 2)
        d_scores = (d_scores - np.sum(d_scores * weights, axis=-1, keepdims=True)) * weights
        d_q = merge((d_scores @ k) * scale)
        d_k = merge((d_scores.transpose(0, 1, 3, 2) @ q) * scale)
        for name, x_in, d_in in (("q", x_q, d_q), ("k", x, d_k), ("v", x, d_v)):
            self.reference_projection_grads(
                expected, f"layer0.attn.w_{name}", f"layer0.attn.b_{name}", x_in, d_in
            )
        if picks is not None:
            d_out, d_q = enc._scatter(d_out, picks, t), enc._scatter(d_q, picks, t)
        want_d_x = d_out + d_q @ w["w_q"].T + d_k @ w["w_k"].T + d_v @ w["w_v"].T
        assert_bitwise_equal(d_x, want_d_x)
        assert_bitwise_equal(grads.flat, expected.flat)

    @pytest.mark.parametrize(("shape", "cut"), CUTS)
    def test_feed_forward_and_backward(self, shape, cut):
        params, x, picks, rng, grads, expected = self.block_world(shape, cut)
        t = shape[1]
        if picks is not None:
            x = enc._gather(x, picks)
        w1, b1 = params["layer0.ffn.w1"], params["layer0.ffn.b1"]
        w2, b2 = params["layer0.ffn.w2"], params["layer0.ffn.b2"]
        h1 = x @ w1 + b1
        cdf = enc.gelu_cdf(h1)

        out, saved = enc._feed_forward(params, "layer0.", x, picks, t)
        assert_bitwise_equal(out, x + ((h1 * cdf) @ w2 + b2))
        d_out = rng.normal(0.0, 1.0, out.shape)
        adds = []
        d_x = enc._feed_forward_backward(params, adds, "layer0.", d_out, saved)
        grads.add(adds)

        self.reference_projection_grads(expected, "layer0.ffn.w2", "layer0.ffn.b2", h1 * cdf, d_out)
        d_h1 = enc._times_transposed(d_out, w2, picks, t) * enc.gelu_grad(h1, cdf)
        self.reference_projection_grads(expected, "layer0.ffn.w1", "layer0.ffn.b1", x, d_h1)
        assert_bitwise_equal(d_x, d_out + enc._times_transposed(d_h1, w1, picks, t))
        assert_bitwise_equal(grads.flat, expected.flat)


class TestScipyOracle:
    """erf, gelu_cdf and sigmoid equal scipy's erf and expit bit for bit."""

    @staticmethod
    def inputs():
        rng = np.random.default_rng(37)
        sweep = np.linspace(-10.0, 10.0, 200_001)
        yield sweep
        yield sweep[1:].reshape(400, 500)[:, ::-1].T  # 2-d, not contiguous
        for scale in (0.3, 1.0, 3.0):
            yield rng.normal(0.0, scale, 50_000)
        yield rng.uniform(-1.0, 1.0, (4, 16, 64))  # the all-polynomial case
        yield rng.normal(0.0, 0.5, (16, 16, 64))  # a few values past |x| = 1
        yield erf_edges()
        yield erf_edges() * math.sqrt(2.0)
        yield np.array(0.5)
        yield np.array(-3.0)
        yield np.array(-0.0)
        yield np.array(math.nan)
        yield np.array([])
        yield np.empty((0, 3))

    def test_erf(self, scipy_special):
        for x in self.inputs():
            assert_bitwise_equal(enc.erf(x), scipy_special.erf(x))

    def test_gelu_cdf(self, scipy_special):
        for x in self.inputs():
            assert_bitwise_equal(enc.gelu_cdf(x), 0.5 * (1.0 + scipy_special.erf(x / np.sqrt(2.0))))

    def test_sigmoid(self, scipy_special):
        z = np.concatenate(
            [np.linspace(-800.0, 800.0, 320_001), [math.inf, -math.inf, math.nan, -0.0, -710.0]]
        )
        assert_bitwise_equal(enc.sigmoid(z), scipy_special.expit(z))
        assert_bitwise_equal(enc.sigmoid(z[:0]), scipy_special.expit(z[:0]))


class TestPassBudget:
    def test_rows_times_length_within_budget(self):
        for max_len in range(5, enc.PASS_TOKEN_BUDGET + 1):
            rows = enc.rows_per_pass(max_len)
            assert rows >= 1
            assert rows * max_len <= enc.PASS_TOKEN_BUDGET
            assert (rows + 1) * max_len > enc.PASS_TOKEN_BUDGET
        assert enc.rows_per_pass(enc.PASS_TOKEN_BUDGET + 1) == 1
        assert [enc.rows_per_pass(n) for n in (16, 32, 48)] == [16, 8, 5]

    def test_train_step_passes_stay_within_budget(self, monkeypatch):
        from titlerec import objectives as obj
        from titlerec.tokenizer import Vocabulary, encode_single

        words = [f"w{i:02d}" for i in range(20)]
        vocab = Vocabulary(words)
        config = enc.EncoderConfig(
            vocab_size=len(vocab), d_model=8, n_heads=2, n_layers=1, d_ff=8, max_len=48
        )
        params = enc.init_params(config, seed=0)
        rng = np.random.default_rng(36)
        titles = encode_single([vocab.word_ids(" ".join(words[i : i + 5])) for i in range(16)], 48)
        masked = obj.mask_titles(titles, vocab, rng)
        titles = {f"{i:010d}": " ".join(words[i : i + 3]) for i in range(16)}
        pairs = [(f"{i:010d}", f"{15 - i:010d}", i % 2) for i in range(16)]
        pair_batch = encode_id_pairs(pairs, titles, vocab, 48)

        sizes = []
        real_forward = enc.forward

        def spy(params, rows, *args, **kwargs):
            sizes.append(len(rows))
            return real_forward(params, rows, *args, **kwargs)

        monkeypatch.setattr(enc, "forward", spy)
        obj.train_step(params, obj.init_optimizer(params), masked, pair_batch)
        assert sum(sizes) == 32
        assert max(sizes) * config.max_len <= enc.PASS_TOKEN_BUDGET
        assert len(sizes) == -(-32 // enc.rows_per_pass(config.max_len))
