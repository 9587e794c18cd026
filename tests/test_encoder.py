import math
from dataclasses import replace

import numpy as np
import pytest

from titlerec import encoder as enc
from titlerec.errors import (
    ArtifactFormatError,
    CheckpointMismatchError,
    InvalidConfigError,
    NoRecordedForwardError,
    PositionOutOfRangeError,
    ShapeMismatchError,
)
from titlerec.tokenizer import TokenBatch, TokenSequence

from conftest import encode_id_pairs, zeroed_params


class TestConfig:
    def test_rejects_indivisible_heads(self):
        with pytest.raises(InvalidConfigError):
            enc.EncoderConfig(vocab_size=10, d_model=16, n_heads=3)

    def test_rejects_small_dimensions(self):
        with pytest.raises(InvalidConfigError):
            enc.EncoderConfig(vocab_size=0)
        with pytest.raises(InvalidConfigError):
            enc.EncoderConfig(vocab_size=10, n_layers=0)

    def test_rejects_short_max_len(self):
        with pytest.raises(InvalidConfigError):
            enc.EncoderConfig(vocab_size=10, max_len=4)

    def test_rejects_bad_dropout(self):
        with pytest.raises(InvalidConfigError):
            enc.EncoderConfig(vocab_size=10, dropout_rate=1.0)
        with pytest.raises(InvalidConfigError):
            enc.EncoderConfig(vocab_size=10, dropout_rate=-0.1)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(InvalidConfigError):
            enc.EncoderConfig(vocab_size=10, layer_norm_epsilon=0.0)

    def test_d_head(self):
        config = enc.EncoderConfig(vocab_size=10, d_model=64, n_heads=4)
        assert config.d_head == 16


class TestInitParams:
    def test_deterministic(self, tiny_config):
        first = enc.init_params(tiny_config, seed=9)
        second = enc.init_params(tiny_config, seed=9)
        assert first.names() == second.names()
        for name in first.names():
            assert np.array_equal(first[name], second[name])

    def test_seed_changes_weights(self, tiny_config):
        a = enc.init_params(tiny_config, seed=1)
        b = enc.init_params(tiny_config, seed=2)
        assert not np.array_equal(a["token_embedding"], b["token_embedding"])

    def test_gains_one_biases_zero(self, tiny_params):
        for name in tiny_params.names():
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
        assert set(shapes) == set(tiny_params.names())
        for name, shape in shapes.items():
            assert tiny_params[name].shape == shape
        assert shapes["token_embedding"] == (11, 8)
        assert shapes["np_head.weight"] == (8, 1)
        assert all(np.isfinite(t).all() for t in tiny_params.tensors.values())


def assert_arena_layout(params):
    """Every tensor is a view of ``params.flat``, back to back in name order."""
    offset = 0
    for name in params.names():
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
        assert tiny_params.names() == list(enc.parameter_shapes(tiny_config))
        assert_arena_layout(tiny_params)
        assert_arena_layout(enc.zero_grads(tiny_params))
        assert_arena_layout(tiny_params.copy())

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
        assert tiny_params.copy()["np_head.bias"][0] == 7.0

    def test_copy_is_independent(self, tiny_params):
        clone = tiny_params.copy()
        assert clone.names() == tiny_params.names()
        assert np.array_equal(clone.flat, tiny_params.flat)
        assert not np.shares_memory(clone.flat, tiny_params.flat)
        before = tiny_params.flat.copy()
        clone["layer0.ffn.w1"][...] = 1.0
        assert np.array_equal(tiny_params.flat, before)
        tiny_params["token_embedding"][...] = 0.0
        assert np.all(clone["token_embedding"] != 0.0)

    def test_dict_built_params_copy_their_source(self, tiny_config):
        source = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([5.0]), "s": 2.5}
        params = enc.EncoderParams(tiny_config, source)
        assert params.names() == ["w", "b", "s"]
        assert params["s"].shape == ()
        assert np.array_equal(params.flat, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 5.0, 2.5])
        assert_arena_layout(params)
        source["w"][0, 0] = 99.0
        params["b"][...] = -1.0
        assert params["w"][0, 0] == 0.0
        assert source["b"][0] == 5.0

    def test_loaded_checkpoint_is_an_arena(self, tiny_params, tmp_path):
        path = tmp_path / "model.bin"
        enc.save_checkpoint(tiny_params, path)
        loaded = enc.load_checkpoint(path)
        assert_arena_layout(loaded)
        assert np.array_equal(loaded.flat, tiny_params.flat)
        loaded["token_embedding"][...] = 0.0  # writable, not a view of the file bytes
        assert np.all(tiny_params["token_embedding"] != 0.0)


class TestForward:
    def test_output_shapes(self, tiny_config, tiny_params, tiny_seq):
        # a single sequence runs as a 1-row batch
        trace = enc.forward(tiny_params, tiny_seq)
        assert trace.hidden_states.shape == (1, tiny_config.max_len, tiny_config.d_model)
        layers = trace.cache["layers"]
        assert len(layers) == tiny_config.n_layers
        for layer in layers:
            assert layer["attn"].shape == (
                1, tiny_config.n_heads, tiny_config.max_len, tiny_config.max_len
            )
        assert trace.hidden_states[:, 0].shape == (1, tiny_config.d_model)

    def test_attention_rows_normalized(self, tiny_params, tiny_seq):
        trace = enc.forward(tiny_params, tiny_seq)
        for layer in trace.cache["layers"]:
            assert np.all(np.abs(layer["attn"].sum(axis=-1) - 1.0) < 1e-6)

    def test_pad_keys_get_exactly_zero_weight(self, tiny_params, tiny_seq):
        trace = enc.forward(tiny_params, tiny_seq)
        pad_cols = [p for p, m in enumerate(tiny_seq.attn_mask) if m == 0]
        for layer in trace.cache["layers"]:
            assert np.all(layer["attn"][..., pad_cols] == 0.0)

    def test_pad_region_ids_cannot_leak(self, tiny_params, tiny_seq):
        base = enc.forward(tiny_params, tiny_seq)
        altered = TokenSequence(
            ids=tiny_seq.ids[:5] + (9, 10),
            segments=tiny_seq.segments,
            attn_mask=tiny_seq.attn_mask,
        )
        other = enc.forward(tiny_params, altered)
        live = sum(tiny_seq.attn_mask)
        assert np.array_equal(base.hidden_states[0, :live], other.hidden_states[0, :live])

    def test_deterministic_without_dropout(self, tiny_params, tiny_seq):
        a = enc.forward(tiny_params, tiny_seq)
        b = enc.forward(tiny_params, tiny_seq)
        assert np.array_equal(a.hidden_states, b.hidden_states)

    def test_wrong_length_rejected(self, tiny_params, tiny_config):
        wider = tiny_config.max_len + 1
        seq = TokenSequence(ids=(2,) * wider, segments=(0,) * wider, attn_mask=(1,) * wider)
        with pytest.raises(ShapeMismatchError):
            enc.forward(tiny_params, seq)
        empty = TokenBatch.stack([TokenSequence((), (), ())], 0)
        with pytest.raises(ShapeMismatchError):
            enc.forward(tiny_params, empty)

    def test_narrow_batch_matches_live_prefix(self, tiny_params, tiny_seq):
        """A batch cut to its rows' live length computes the live positions
        of the full-width batch, up to the softmax denominators' rounding."""
        full = enc.forward(tiny_params, tiny_seq).hidden_states
        live = sum(tiny_seq.attn_mask)
        narrow = enc.forward(tiny_params, TokenBatch.stack([tiny_seq], 7)[:, :live])
        assert narrow.hidden_states.shape == (1, live, 8)
        assert np.abs(narrow.hidden_states - full[:, :live]).max() <= 1e-14
        for width in range(1, 8):
            short = TokenSequence((2,) * width, (0,) * width, (1,) * width)
            assert enc.forward(tiny_params, short).hidden_states.shape == (1, width, 8)

    def test_out_of_vocab_id_rejected(self, tiny_params, tiny_config):
        seq = TokenSequence(
            ids=(2, tiny_config.vocab_size, 3, 0, 0, 0, 0),
            segments=(0,) * 7,
            attn_mask=(1, 1, 1, 0, 0, 0, 0),
        )
        with pytest.raises(ShapeMismatchError):
            enc.forward(tiny_params, seq)

    def test_record_false_drops_cache(self, tiny_params, tiny_seq):
        trace = enc.forward(tiny_params, tiny_seq, record=False)
        assert trace.cache is None

    def test_dropout_reproducible_and_active(self, tiny_config, tiny_seq):
        config = enc.EncoderConfig(
            vocab_size=tiny_config.vocab_size,
            d_model=tiny_config.d_model,
            n_heads=tiny_config.n_heads,
            n_layers=tiny_config.n_layers,
            d_ff=tiny_config.d_ff,
            max_len=tiny_config.max_len,
            dropout_rate=0.5,
        )
        params = enc.init_params(config, seed=3)
        a = enc.forward(params, tiny_seq, rng=np.random.default_rng(11))
        b = enc.forward(params, tiny_seq, rng=np.random.default_rng(11))
        c = enc.forward(params, tiny_seq, rng=np.random.default_rng(12))
        clean = enc.forward(params, tiny_seq)
        assert np.array_equal(a.hidden_states, b.hidden_states)
        assert not np.array_equal(a.hidden_states, c.hidden_states)
        assert not np.array_equal(a.hidden_states, clean.hidden_states)


class TestHeads:
    @staticmethod
    def mlm_probabilities(params, trace, position):
        """Predicted vocabulary distribution at one position of the first row,
        read back from the per-label NLLs of ``sequence_loss``."""
        return np.array(
            [
                math.exp(-enc.sequence_loss(params, trace, [(position, label)], None)[0])
                for label in range(params.config.vocab_size)
            ]
        )

    @staticmethod
    def pair_probability(params, trace):
        """sigmoid(z) of the first row: the pair-bias gradient at label 0."""
        _, _, grads = enc.loss_and_grads(params, trace, [], np_labels=0)
        return float(grads["np_head.bias"][0])

    def test_mlm_distribution_normalized(self, tiny_params, tiny_seq):
        trace = enc.forward(tiny_params, tiny_seq)
        for position in range(len(tiny_seq)):
            dist = self.mlm_probabilities(tiny_params, trace, position)
            assert np.all(dist > 0)
            assert abs(dist.sum() - 1.0) < 1e-9

    def test_mlm_uniform_when_logits_zero(self):
        config = enc.EncoderConfig(vocab_size=4, d_model=8, n_heads=2, n_layers=1, d_ff=8, max_len=5)
        params = zeroed_params(config)
        seq = TokenSequence(ids=(2, 1, 3, 0, 0), segments=(0,) * 5, attn_mask=(1, 1, 1, 0, 0))
        trace = enc.forward(params, seq)
        assert np.array_equal(trace.hidden_states, np.zeros_like(trace.hidden_states))
        assert np.allclose(self.mlm_probabilities(params, trace, 1), 0.25, atol=1e-12)

    def test_mlm_hand_evaluated_softmax(self):
        # logits [0,0,0,ln 3] -> [1/6, 1/6, 1/6, 1/2]
        config = enc.EncoderConfig(vocab_size=4, d_model=8, n_heads=2, n_layers=1, d_ff=8, max_len=5)
        params = zeroed_params(config)
        params["mlm_head.bias"][...] = np.array([0.0, 0.0, 0.0, math.log(3.0)])
        seq = TokenSequence(ids=(2, 1, 3, 0, 0), segments=(0,) * 5, attn_mask=(1, 1, 1, 0, 0))
        dist = self.mlm_probabilities(params, enc.forward(params, seq), 0)
        assert np.allclose(dist, [1 / 6, 1 / 6, 1 / 6, 1 / 2], atol=1e-12)

    def test_mlm_position_bounds(self, tiny_params, tiny_seq):
        trace = enc.forward(tiny_params, tiny_seq)
        with pytest.raises(PositionOutOfRangeError):
            enc.sequence_loss(tiny_params, trace, [(len(tiny_seq), 5)], None)
        with pytest.raises(PositionOutOfRangeError):
            enc.sequence_loss(tiny_params, trace, [(-1, 5)], None)

    def test_np_probability_half_at_zero_logit(self, tiny_config, tiny_seq):
        params = zeroed_params(tiny_config)
        assert self.pair_probability(params, enc.forward(params, tiny_seq)) == 0.5

    def test_np_probability_hand_evaluated_sigmoid(self, tiny_config, tiny_seq):
        params = zeroed_params(tiny_config)
        params["np_head.bias"][...] = np.array([math.log(3.0)])
        prob = self.pair_probability(params, enc.forward(params, tiny_seq))
        assert abs(prob - 0.75) < 1e-12

    def test_pair_gradient_finite_at_saturated_logits(self, tiny_config, tiny_seq):
        # e^-z overflows a double from z <= -710: the sigmoid must read it as
        # inf and give exactly 0, not raise or return nan
        params = zeroed_params(tiny_config)
        for logit in (-1e300, -1000.0, -745.0, -710.0, -30.0, 0.0, 30.0, 710.0, 1000.0, 1e300):
            params["np_head.bias"][...] = np.array([logit])
            trace = enc.forward(params, tiny_seq)
            for label in (0, 1):
                mlm, pair, grads = enc.loss_and_grads(params, trace, [], np_labels=label)
                assert mlm == 0.0 and np.isfinite(pair)
                assert all(np.isfinite(g).all() for g in grads.tensors.values())
                assert -1.0 <= grads["np_head.bias"][0] <= 1.0
        params["np_head.bias"][...] = np.array([-710.0])
        assert self.pair_probability(params, enc.forward(params, tiny_seq)) == 0.0


class TestBackwardContract:
    def test_requires_recorded_forward(self, tiny_params, tiny_seq):
        trace = enc.forward(tiny_params, tiny_seq, record=False)
        with pytest.raises(NoRecordedForwardError):
            enc.loss_and_grads(tiny_params, trace, [(1, 5)])

    def test_no_targets_gives_zero_grads(self, tiny_params, tiny_seq):
        trace = enc.forward(tiny_params, tiny_seq)
        _, _, grads = enc.loss_and_grads(tiny_params, trace, [], np_labels=None)
        assert grads.names() == tiny_params.names()
        for g in grads.tensors.values():
            assert np.array_equal(g, np.zeros_like(g))

    def test_grad_shapes_mirror_params(self, tiny_params, tiny_seq):
        trace = enc.forward(tiny_params, tiny_seq)
        _, _, grads = enc.loss_and_grads(tiny_params, trace, [(1, 5), (2, 6)], np_labels=1)
        for name in tiny_params.names():
            assert grads[name].shape == tiny_params[name].shape
            assert np.all(np.isfinite(grads[name]))

    def test_loss_matches_sequence_loss(self, tiny_params, tiny_seq):
        trace = enc.forward(tiny_params, tiny_seq)
        targets = [(1, 7), (3, 5)]
        mlm_a, np_a = enc.sequence_loss(tiny_params, trace, targets, np_labels=0)
        mlm_b, np_b, _ = enc.loss_and_grads(tiny_params, trace, targets, np_labels=0)
        assert mlm_a == pytest.approx(mlm_b, rel=1e-12)
        assert np_a == pytest.approx(np_b, rel=1e-12)

    def test_determinism(self, tiny_params, tiny_seq):
        targets = [(1, 5), (2, 9)]
        first = enc.loss_and_grads(tiny_params, enc.forward(tiny_params, tiny_seq), targets, 1)[2]
        second = enc.loss_and_grads(tiny_params, enc.forward(tiny_params, tiny_seq), targets, 1)[2]
        for name in first.names():
            assert np.array_equal(first[name], second[name])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tiny_params, tmp_path):
        path = tmp_path / "model.bin"
        enc.save_checkpoint(tiny_params, path)
        loaded = enc.load_checkpoint(path)
        assert loaded.config == tiny_params.config
        assert loaded.names() == tiny_params.names()
        for name in tiny_params.names():
            assert np.array_equal(loaded[name], tiny_params[name])

    def test_expected_config_accepted(self, tiny_params, tiny_config, tmp_path):
        path = tmp_path / "model.bin"
        enc.save_checkpoint(tiny_params, path)
        enc.load_checkpoint(path, expected_config=tiny_config)

    def test_mismatched_config_rejected(self, tiny_params, tmp_path):
        path = tmp_path / "model.bin"
        enc.save_checkpoint(tiny_params, path)
        other = enc.EncoderConfig(vocab_size=11, d_model=8, n_heads=2, n_layers=1, d_ff=12, max_len=7)
        with pytest.raises(CheckpointMismatchError):
            enc.load_checkpoint(path, expected_config=other)

    def test_dropout_rate_ignored_by_expected_config(self, tiny_params, tiny_config, tmp_path):
        path = tmp_path / "model.bin"
        enc.save_checkpoint(tiny_params, path)
        loaded = enc.load_checkpoint(path, expected_config=replace(tiny_config, dropout_rate=0.5))
        assert loaded.config == tiny_config
        with pytest.raises(CheckpointMismatchError):
            enc.load_checkpoint(
                path, expected_config=replace(tiny_config, dropout_rate=0.5, d_ff=16)
            )

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

    def test_checkpoint_loads_same_forward(self, tiny_params, tiny_seq, tmp_path):
        path = tmp_path / "model.bin"
        enc.save_checkpoint(tiny_params, path)
        loaded = enc.load_checkpoint(path)
        a = enc.forward(tiny_params, tiny_seq)
        b = enc.forward(loaded, tiny_seq)
        assert np.array_equal(a.hidden_states, b.hidden_states)


class TestBatchedForward:
    def rows(self, config, rng, lives):
        seqs = []
        for live in lives:
            n_pad = config.max_len - live
            seqs.append(
                TokenSequence(
                    ids=tuple(int(i) for i in rng.integers(5, config.vocab_size, live))
                    + (0,) * n_pad,
                    segments=tuple(int(s) for s in rng.integers(0, 2, live)) + (0,) * n_pad,
                    attn_mask=(1,) * live + (0,) * n_pad,
                )
            )
        return seqs

    def test_row_states_ignore_neighbours_and_pad_tail(self, tiny_config, tiny_params):
        rng = np.random.default_rng(31)
        seqs = self.rows(tiny_config, rng, (3, 7, 5, 4))
        T = tiny_config.max_len
        target = seqs[2]
        live = sum(target.attn_mask)
        alone = enc.forward(tiny_params, target).hidden_states[0, :live]

        batch = TokenBatch.stack(seqs, T)
        assert np.array_equal(enc.forward(tiny_params, batch).hidden_states[2, :live], alone)

        others = self.rows(tiny_config, rng, (6, 2, 7))
        shuffled = TokenBatch.stack([others[0], target, others[1], others[2], seqs[0]], T)
        assert np.array_equal(enc.forward(tiny_params, shuffled).hidden_states[1, :live], alone)

        shuffled.ids[1, live:] = [9, 10]  # any ids may sit in the PAD tail
        assert np.array_equal(enc.forward(tiny_params, shuffled).hidden_states[1, :live], alone)

    def test_attention_per_row_mask(self, tiny_config, tiny_params):
        seqs = self.rows(tiny_config, np.random.default_rng(32), (3, 7, 5))
        batch = TokenBatch.stack(seqs, tiny_config.max_len)
        trace = enc.forward(tiny_params, batch)
        for layer in trace.cache["layers"]:
            attn = layer["attn"]
            assert attn.shape == (3, tiny_config.n_heads, tiny_config.max_len, tiny_config.max_len)
            assert np.all(np.abs(attn.sum(axis=-1) - 1.0) < 1e-12)
            for row, seq in enumerate(seqs):
                assert np.all(attn[row][..., sum(seq.attn_mask) :] == 0.0)
                assert np.all(attn[row][..., : sum(seq.attn_mask)] > 0.0)

    def test_record_false_keeps_no_cache(self, tiny_config, tiny_params):
        seqs = self.rows(tiny_config, np.random.default_rng(33), (3, 6))
        batch = TokenBatch.stack(seqs, tiny_config.max_len)
        plain = enc.forward(tiny_params, batch, record=False)
        assert plain.cache is None
        recorded = enc.forward(tiny_params, batch)
        assert np.array_equal(plain.hidden_states, recorded.hidden_states)
        with pytest.raises(NoRecordedForwardError):
            enc.loss_and_grads(tiny_params, plain, [(0, 1, 5)], [1, -1])

    def test_target_and_label_shapes_checked(self, tiny_config, tiny_params):
        seqs = self.rows(tiny_config, np.random.default_rng(34), (3, 6))
        trace = enc.forward(tiny_params, TokenBatch.stack(seqs, tiny_config.max_len))
        with pytest.raises(ShapeMismatchError):  # (position, label) is ambiguous for 2 rows
            enc.loss_and_grads(tiny_params, trace, [(1, 5)])
        with pytest.raises(ShapeMismatchError):
            enc.loss_and_grads(tiny_params, trace, [(2, 1, 5)])
        with pytest.raises(PositionOutOfRangeError):
            enc.loss_and_grads(tiny_params, trace, [(1, tiny_config.max_len, 5)])
        with pytest.raises(ShapeMismatchError):
            enc.loss_and_grads(tiny_params, trace, [], np_labels=1)

    def test_one_sequence_is_a_one_row_batch(self, tiny_params, tiny_seq):
        batch = TokenBatch.stack([tiny_seq], len(tiny_seq))
        a = enc.loss_and_grads(tiny_params, enc.forward(tiny_params, tiny_seq), [(1, 5)], 1)
        b = enc.loss_and_grads(tiny_params, enc.forward(tiny_params, batch), [(0, 1, 5)], [1])
        assert a[:2] == b[:2]
        for name in a[2].names():
            assert np.array_equal(a[2][name], b[2][name])


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
    def test_recorded_cdf_gives_the_same_gradient(self):
        x = np.linspace(-5.0, 5.0, 101)
        assert np.array_equal(enc.gelu_grad(x, enc.gelu_cdf(x)), enc.gelu_grad(x))

    def test_gelu_is_x_times_cdf_bit_for_bit(self, scipy_special):
        x = np.random.default_rng(35).normal(0.0, 3.0, 1000)
        assert np.array_equal(enc.gelu(x), 0.5 * x * (1.0 + scipy_special.erf(x / np.sqrt(2.0))))


class TestInPlaceKernels:
    """Layer norm, the GELU derivative and the softmax row max equal their
    plain formulas, kept here as references, bit for bit."""

    SHAPES = [(16, 16, 32), (5, 48, 64), (8, 3, 32), (8, 16, 48), (2, 1, 7)]

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
        forward = enc.layer_norm(x, gain, bias, 1e-5)
        expected = self.reference_layer_norm(x, gain, bias, 1e-5)
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
        assert_bitwise_equal(enc.gelu_grad(x), expected)

    @pytest.mark.parametrize("shape", [(16, 4, 16, 16), (5, 4, 3, 48), (2, 2, 5, 1), (3, 7)])
    def test_row_max(self, shape):
        scores = np.random.default_rng(sum(shape)).normal(0.0, 1.0, shape)
        scores[..., -1:] = -np.inf  # masked keys
        scores.reshape(-1, shape[-1])[0] = -0.0
        scores.reshape(-1, shape[-1])[-1, 0] = np.nan
        assert_bitwise_equal(enc._row_max(scores), scores.max(axis=-1, keepdims=True))


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
        masked = [
            obj.apply_masking(
                encode_single(vocab.word_ids(" ".join(words[i : i + 5])), 48), vocab, rng
            )
            for i in range(16)
        ]
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
