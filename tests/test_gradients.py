"""Analytic gradients checked against central finite differences.

Every parameter tensor of the encoder is exercised at least once; the
component nonlinearities (GELU, layer norm) also get standalone
difference-quotient oracles so a failure localizes.
"""

import numpy as np
import pytest

from titlerec import encoder as enc
from titlerec import objectives as obj

from conftest import (
    central_difference,
    grads_agree,
    loss_and_grad_arena,
    random_row,
    random_targets,
    scalar_loss,
    token_rows,
)


def gelu(x):
    """GELU as the forward pass computes it: x times the normal CDF."""
    return x * enc.gelu_cdf(x)


def gelu_grad(x):
    return enc.gelu_grad(x, enc.gelu_cdf(x))


class TestGeluOracle:
    def test_matches_difference_quotient(self):
        xs = np.linspace(-4.0, 4.0, 41)
        h = 1e-5
        numeric = (gelu(xs + h) - gelu(xs - h)) / (2 * h)
        assert np.allclose(gelu_grad(xs), numeric, atol=1e-8)

    def test_known_values(self):
        assert gelu(np.array([0.0]))[0] == 0.0
        # gelu(x) -> x for large x, -> 0 for very negative x
        assert abs(gelu(np.array([10.0]))[0] - 10.0) < 1e-12
        assert abs(gelu(np.array([-10.0]))[0]) < 1e-12
        assert abs(gelu_grad(np.array([0.0]))[0] - 0.5) < 1e-12


class TestLayerNormOracle:
    def test_backward_matches_difference_quotient(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 6))
        gain = rng.normal(1.0, 0.2, size=6)
        bias = rng.normal(0.0, 0.2, size=6)
        weight = rng.normal(size=(4, 6))

        def scalar(x_val, gain_val, bias_val):
            out, _, _ = enc.layer_norm(x_val, gain_val, bias_val)
            return float(np.sum(weight * out))

        _, x_hat, inv = enc.layer_norm(x, gain, bias)
        d_x, d_gain, d_bias = enc.layer_norm_backward(weight, x_hat, inv, gain)

        h = 1e-6
        for arr, grad, label in ((x, d_x, "x"), (gain, d_gain, "gain"), (bias, d_bias, "bias")):
            flat = arr.reshape(-1)
            grad_flat = grad.reshape(-1)
            for index in range(flat.size):
                original = flat[index]
                flat[index] = original + h
                up = scalar(x, gain, bias)
                flat[index] = original - h
                down = scalar(x, gain, bias)
                flat[index] = original
                numeric = (up - down) / (2 * h)
                assert grads_agree(grad_flat[index], numeric, rel_tol=1e-5), (label, index)

    def test_normalized_rows(self):
        rng = np.random.default_rng(5)
        x = rng.normal(3.0, 2.0, size=(5, 8))
        out, x_hat, _ = enc.layer_norm(x, np.ones(8), np.zeros(8))
        assert np.allclose(out, x_hat)
        assert np.allclose(x_hat.mean(axis=-1), 0.0, atol=1e-12)
        assert np.allclose(x_hat.std(axis=-1), 1.0, atol=1e-3)


def check_coordinates(params, batch, targets, np_labels, coords, **scales):
    """Assert analytic grads match FD for a list of (tensor, flat index)."""
    trace = enc.forward(params, batch)
    mlm_sum, np_sum, grads = loss_and_grad_arena(params, trace, targets, np_labels, **scales)
    for name, index in coords:
        analytic = grads[name].reshape(-1)[index]
        numeric = central_difference(params, batch, targets, np_labels, name, index, **scales)
        assert grads_agree(analytic, numeric), (name, index, analytic, numeric)


class TestFullGraphFiniteDifference:
    def test_every_tensor_once(self, tiny_config, tiny_params, tiny_row):
        rng = np.random.default_rng(0)
        targets = [(0, 1, 5), (0, 3, 9)]
        coords = [
            (name, int(rng.integers(0, tiny_params[name].size)))
            for name in tiny_params.tensors
        ]
        check_coordinates(tiny_params, tiny_row, targets, [1], coords)

    def test_random_setups(self):
        rng = np.random.default_rng(42)
        configs = [
            enc.EncoderConfig(vocab_size=13, d_model=8, n_heads=2, n_layers=1, d_ff=16, max_len=6),
            enc.EncoderConfig(vocab_size=9, d_model=6, n_heads=3, n_layers=2, d_ff=10, max_len=7),
            enc.EncoderConfig(vocab_size=20, d_model=12, n_heads=4, n_layers=2, d_ff=8, max_len=9),
        ]
        for trial, config in enumerate(configs):
            params = enc.init_params(config, seed=trial)
            # non-trivial biases so their gradients are not trivially zero
            for name in params.tensors:
                if params[name].ndim == 1:
                    params[name][...] = params[name] + rng.normal(0.0, 0.05, params[name].shape)
            batch = random_row(config, rng)
            targets = random_targets(config, batch, rng)
            np_labels = [int(rng.integers(0, 2))]
            names = list(params.tensors)
            coords = [
                (names[int(rng.integers(0, len(names)))], 0) for _ in range(4)
            ]
            coords += [
                ("token_embedding", int(batch.ids[0, 0]) * config.d_model),
                ("mlm_head.weight", int(rng.integers(0, config.d_model * config.vocab_size))),
                ("np_head.weight", int(rng.integers(0, config.d_model))),
            ]
            check_coordinates(params, batch, targets, np_labels, coords)

    def test_mlm_only_path(self, tiny_params, tiny_row):
        check_coordinates(
            tiny_params, tiny_row, [(0, 2, 6)], [-1],
            [("mlm_head.bias", 6), ("layer1.ffn.w1", 7), ("token_embedding", 5 * 8)],
        )

    def test_np_only_path(self, tiny_params, tiny_row):
        check_coordinates(
            tiny_params, tiny_row, [], [0],
            [("np_head.bias", 0), ("np_head.weight", 3), ("layer0.attn.w_q", 11)],
        )

    def test_scaled_loss(self, tiny_params, tiny_row):
        check_coordinates(
            tiny_params, tiny_row, [(0, 1, 8), (0, 2, 4)], [1],
            [("mlm_head.weight", 9), ("layer0.ln1.gain", 2)],
            mlm_scale=0.25, np_scale=2.0,
        )

    def test_scale_linearity(self, tiny_params, tiny_row):
        targets = [(0, 1, 5)]
        trace = enc.forward(tiny_params, tiny_row)
        _, _, full = loss_and_grad_arena(tiny_params, trace, targets, [1])
        trace = enc.forward(tiny_params, tiny_row)
        _, _, half = loss_and_grad_arena(
            tiny_params, trace, targets, [1], mlm_scale=0.5, np_scale=0.5
        )
        for name in full.tensors:
            assert np.allclose(half[name], 0.5 * full[name], rtol=1e-12, atol=0.0)


class TestPadGradientIsolation:
    def test_pad_rows_receive_zero_grad(self, tiny_params, tiny_row):
        trace = enc.forward(tiny_params, tiny_row)
        _, _, grads = loss_and_grad_arena(tiny_params, trace, [(0, 1, 5), (0, 4, 3)], [1])
        live = int(tiny_row.attn_mask.sum())
        # PAD positions cannot influence the loss, exactly
        assert np.all(grads["position_embedding"][live:] == 0.0)
        # token id 0 only ever appears at PAD positions in tiny_row
        assert np.all(grads["token_embedding"][0] == 0.0)

    def test_unused_vocab_rows_receive_zero_grad(self, tiny_params, tiny_row):
        trace = enc.forward(tiny_params, tiny_row)
        _, _, grads = loss_and_grad_arena(tiny_params, trace, [(0, 1, 5)], [-1])
        used = set(tiny_row.ids[tiny_row.attn_mask].tolist())
        for token_id in range(tiny_params.config.vocab_size):
            if token_id not in used:
                assert np.all(grads["token_embedding"][token_id] == 0.0)


class TestLossValues:
    def test_scalar_loss_is_finite_and_positive(self, tiny_params, tiny_row):
        value = scalar_loss(tiny_params, tiny_row, [(0, 1, 5), (0, 2, 6)], [1])
        assert np.isfinite(value) and value > 0.0

    def test_mlm_sum_adds_per_position_nll(self, tiny_params, tiny_row):
        def trace():
            return enc.forward(tiny_params, tiny_row)

        lone_a = loss_and_grad_arena(tiny_params, trace(), [(0, 1, 5)], [-1])[0]
        lone_b = loss_and_grad_arena(tiny_params, trace(), [(0, 2, 6)], [-1])[0]
        both = loss_and_grad_arena(tiny_params, trace(), [(0, 1, 5), (0, 2, 6)], [-1])[0]
        assert abs(both - (lone_a + lone_b)) < 1e-12

    def test_np_loss_is_exact_bce(self, tiny_params, tiny_row):
        # at label 0 the pair-bias gradient is sigmoid(z) itself
        _, np_neg, grads = loss_and_grad_arena(
            tiny_params, enc.forward(tiny_params, tiny_row), [], [0]
        )
        p = grads["np_head.bias"][0]
        np_pos = loss_and_grad_arena(tiny_params, enc.forward(tiny_params, tiny_row), [], [1])[1]
        assert abs(np_pos - (-np.log(p))) < 1e-12
        assert abs(np_neg - (-np.log1p(-p))) < 1e-12


# --- the batched path: several rows per pass, per-row targets and labels ---


def rows_of_lengths(config, rng, lives):
    """Random rows, the i-th with exactly ``lives[i]`` non-PAD positions."""
    rows = []
    for live in lives:
        n_pad = config.max_len - live
        ids = rng.integers(0, config.vocab_size, live).tolist() + [0] * n_pad
        segments = rng.integers(0, 2, live).tolist() + [0] * n_pad
        rows.append((ids, segments, [1] * live + [0] * n_pad))
    return token_rows(*zip(*rows))


def mixed_batch(config, rng, lives=(3, 7, 5, 9, 4)):
    """Rows 0-1 carry masked-token targets, rows 2-4 pair labels; every row
    has its own live length."""
    batch = rows_of_lengths(config, rng, lives)
    targets = [(0, 1, 4), (0, 2, 7), (1, 3, 9), (1, 6, 2)]
    labels = np.array([-1, -1, 1, 0, 1])
    return batch, targets, labels


def assert_close_rel(actual, expected, rel=1e-12, abs_floor=1e-18):
    """Each tensor within ``rel`` of the other, relative to its largest entry.

    The floor covers tensors that are zero up to rounding: the key bias's
    gradient vanishes analytically (softmax ignores a per-query shift).
    """
    for name in actual.tensors:
        scale = np.abs(expected[name]).max()
        assert np.abs(actual[name] - expected[name]).max() <= rel * scale + abs_floor, name


@pytest.fixture
def batch_config():
    return enc.EncoderConfig(vocab_size=13, d_model=8, n_heads=2, n_layers=2, d_ff=12, max_len=10)


@pytest.fixture
def batch_params(batch_config):
    rng = np.random.default_rng(8)
    params = enc.init_params(batch_config, seed=8)
    for name in params.tensors:
        params[name][...] = params[name] + rng.normal(0.0, 0.05, params[name].shape)
    return params


class TestBatchedPath:
    def test_finite_differences_every_tensor_on_mixed_batch(self, batch_params):
        rng = np.random.default_rng(21)
        batch, targets, labels = mixed_batch(batch_params.config, rng)
        trace = enc.forward(batch_params, batch)
        _, _, grads = loss_and_grad_arena(
            batch_params, trace, targets, labels, mlm_scale=0.25, np_scale=0.5
        )
        coords = [
            (name, int(rng.integers(0, batch_params[name].size)))
            for name in batch_params.tensors
        ]
        d = batch_params.config.d_model
        coords += [("token_embedding", int(batch.ids[r, 0]) * d + 3) for r in range(len(batch))]
        for name, index in coords:
            analytic = grads[name].reshape(-1)[index]
            numeric = central_difference(
                batch_params, batch, targets, labels, name, index, mlm_scale=0.25, np_scale=0.5
            )
            assert grads_agree(analytic, numeric), (name, index, analytic, numeric)

    def test_batch_equals_sum_of_one_row_batches(self, batch_params):
        batch, targets, labels = mixed_batch(batch_params.config, np.random.default_rng(22))
        mlm, np_sum, grads = loss_and_grad_arena(
            batch_params, enc.forward(batch_params, batch), targets, labels
        )
        mlm_rows = np_rows = 0.0
        summed = {name: np.zeros_like(t) for name, t in batch_params.tensors.items()}
        for row in range(len(batch)):
            row_targets = [(0, p, l) for r, p, l in targets if r == row]
            row_mlm, row_np, row_grads = loss_and_grad_arena(
                batch_params,
                enc.forward(batch_params, batch[row : row + 1]),
                row_targets,
                labels[row : row + 1],
            )
            mlm_rows += row_mlm
            np_rows += row_np
            for name in summed:
                summed[name] += row_grads[name]
        assert mlm == pytest.approx(mlm_rows, rel=1e-12)
        assert np_sum == pytest.approx(np_rows, rel=1e-12)
        assert_close_rel(grads, summed)

    def test_splitting_into_passes_keeps_grads(self, batch_params, monkeypatch):
        batch, targets, labels = mixed_batch(batch_params.config, np.random.default_rng(23))
        rows = obj.TrainingRows(batch, np.array(targets), np.array(labels))
        max_len = batch_params.config.max_len

        def run(rows_per_pass):
            monkeypatch.setattr(enc, "PASS_TOKEN_BUDGET", rows_per_pass * max_len)
            grads = enc.zero_grads(batch_params)
            return *obj.batch_loss_and_grads(batch_params, rows, 0.25, 0.5, grads), grads

        whole = run(len(batch))
        for rows_per_pass in (1, 2, 3):
            split = run(rows_per_pass)
            assert split[0] == pytest.approx(whole[0], rel=1e-12)
            assert split[1] == pytest.approx(whole[1], rel=1e-12)
            assert_close_rel(split[2], whole[2])

    def test_into_adds_a_pass_to_earlier_grads(self, batch_params):
        batch, targets, labels = mixed_batch(batch_params.config, np.random.default_rng(24))
        head, tail = batch[:2], batch[2:]
        first = loss_and_grad_arena(
            batch_params, enc.forward(batch_params, head), targets, labels[:2]
        )[2]
        second = loss_and_grad_arena(
            batch_params, enc.forward(batch_params, tail), [], labels[2:]
        )[2]
        expected = {name: first[name] + second[name] for name in first.tensors}
        first.add(
            enc.loss_and_grads(batch_params, enc.forward(batch_params, tail), [], labels[2:])[2]
        )
        assert_close_rel(first, expected)

    def test_narrow_pass_matches_full_width(self, batch_params):
        """A pass cut to its widest live row gives the full-width losses and
        gradients; positions past its width get exactly zero."""
        batch, targets, labels = mixed_batch(batch_params.config, np.random.default_rng(26))
        full = loss_and_grad_arena(batch_params, enc.forward(batch_params, batch), targets, labels)
        narrow = loss_and_grad_arena(
            batch_params, enc.forward(batch_params, batch[:, :9]), targets, labels
        )
        assert narrow[0] == pytest.approx(full[0], rel=1e-12)
        assert narrow[1] == pytest.approx(full[1], rel=1e-12)
        assert_close_rel(narrow[2], full[2])
        assert np.all(narrow[2]["position_embedding"][9:] == 0.0)
        # a narrow pass adds into the gradients of a full-width one
        first = loss_and_grad_arena(batch_params, enc.forward(batch_params, batch), [], labels)[2]
        expected = {name: first[name] + narrow[2][name] for name in first.tensors}
        first.add(
            enc.loss_and_grads(
                batch_params, enc.forward(batch_params, batch[:, :9]), targets, labels
            )[2]
        )
        assert_close_rel(first, expected)

    def test_pad_positions_of_every_row_get_zero_grad(self, batch_params):
        config = batch_params.config
        rng = np.random.default_rng(25)
        # PAD ids point at vocabulary rows no live position uses
        batch = rows_of_lengths(config, rng, (4, 6))
        batch.ids[batch.ids >= 11] = 5
        batch.ids[~batch.attn_mask] = 12
        _, _, grads = loss_and_grad_arena(
            batch_params, enc.forward(batch_params, batch), [(0, 1, 3), (1, 2, 4)], [1, 0]
        )
        assert np.all(grads["position_embedding"][6:] == 0.0)
        assert np.all(grads["token_embedding"][12] == 0.0)

