"""A training pass cut to the positions its heads read.

``forward(..., reads=)`` runs the last layer's per-position work only at
each row's read positions (``read_positions``). At those positions the
hidden states, and everywhere the losses and gradients, must equal the
full pass bit for bit at the benchmark's three model shapes.
"""

import numpy as np
import pytest

from titlerec import encoder as enc
from titlerec import objectives as obj
from titlerec.errors import PositionOutOfRangeError, ShapeMismatchError, UnreadPositionError
from titlerec.tokenizer import CLS_ID, SEP_ID, Vocabulary, encode_single

from conftest import encode_id_pairs, loss_and_grad_arena, token_rows

# (vocab, d_model, d_ff, max_len, rows per pass) of the planted, catalog
# and log workloads; each runs 4 heads over 2 layers (``shaped_params``
# may stack another number)
SHAPES = {
    "planted": (249, 32, 64, 16, 16),
    "catalog": (1005, 64, 128, 48, 5),
    "log": (805, 32, 64, 32, 8),
}


def shaped_params(shape, seed=0, n_layers=2):
    vocab, d_model, d_ff, max_len, _ = SHAPES[shape]
    config = enc.EncoderConfig(
        vocab_size=vocab, d_model=d_model, n_heads=4, n_layers=n_layers, d_ff=d_ff,
        max_len=max_len,
    )
    params = enc.init_params(config, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for name in params.tensors:
        params[name][...] += rng.normal(0.0, 0.05, params[name].shape)
    return params


def title_row(rng, vocab, max_len, live):
    """(ids, segments, live flags) of [CLS] words [SEP] over ``live``
    positions, then a PAD tail."""
    ids = [CLS_ID, *rng.integers(5, vocab, live - 2).tolist(), SEP_ID] + [0] * (max_len - live)
    return ids, [0] * max_len, [1] * live + [0] * (max_len - live)


def mixed_pass(shape, kind="mixed", seed=0):
    """One pass of the shape's width: masked rows with several targets or
    one, pair rows (CLS only) and PAD tails of every length."""
    vocab, _, _, max_len, n_rows = SHAPES[shape]
    rng = np.random.default_rng(seed)
    rows, targets, labels = [], [], []
    for row in range(n_rows):
        live = int(rng.integers(4, max_len + 1))
        rows.append(title_row(rng, vocab, max_len, live))
        if kind == "pairs" or (kind == "mixed" and row % 3 == 1):
            labels.append(int(rng.integers(0, 2)))
            continue
        labels.append(-1)
        count = 1 if row % 3 == 2 else int(rng.integers(2, max(3, live // 3)))
        positions = np.sort(rng.choice(np.arange(1, live - 1), min(count, live - 2), replace=False))
        targets += [(row, int(p), int(rng.integers(5, vocab))) for p in positions]
    return (
        token_rows(*zip(*rows)),
        np.array(targets, dtype=np.int64).reshape(-1, 3),
        np.array(labels, dtype=np.int64),
    )


def both_passes(params, batch, targets, labels):
    reads = enc.read_positions(targets, labels, batch.max_len)
    assert reads is not None
    results = []
    for cut in (None, reads):
        trace = enc.forward(params, batch, reads=cut)
        results.append((trace, loss_and_grad_arena(params, trace, targets, labels, 0.3, 0.7)))
    return reads, results


def assert_same_bits(actual, expected, what):
    assert actual.shape == expected.shape, what
    assert actual.tobytes() == expected.tobytes(), what


class TestReadPositions:
    def test_targets_and_pair_cls_then_lowest_fillers(self):
        targets = np.array([(0, 3, 7), (0, 5, 8), (0, 9, 7), (2, 4, 6)])
        labels = np.array([-1, 1, -1, 0])
        reads = enc.read_positions(targets, labels, 12)
        assert reads.tolist() == [[3, 5, 9], [0, 1, 2], [0, 1, 4], [0, 1, 2]]

    def test_every_row_sorted_distinct_and_covering(self):
        for shape in SHAPES:
            for kind in ("mixed", "pairs", "masked"):
                batch, targets, labels = mixed_pass(shape, kind, seed=4)
                reads = enc.read_positions(targets, labels, batch.max_len)
                assert np.all(np.diff(reads, axis=1) > 0), (shape, kind)
                for row, position, _ in targets:
                    assert position in reads[row]
                for row in np.flatnonzero(labels >= 0):
                    assert reads[row, 0] == 0

    def test_one_position_rows_still_read_two(self):
        # a matrix product over a single row takes numpy's vector path,
        # which rounds differently from the full pass
        reads = enc.read_positions(np.empty((0, 3)), np.array([1, 0, 1]), 16)
        assert reads.tolist() == [[0, 1]] * 3
        reads = enc.read_positions(np.array([(0, 6, 9), (1, 2, 9)]), np.array([-1, -1]), 16)
        assert reads.tolist() == [[0, 6], [0, 2]]

    def test_full_width_when_m_reaches_it(self):
        targets = np.array([(0, p, 5) for p in range(5)])
        assert enc.read_positions(targets, np.array([-1, 1]), 5) is None
        assert enc.read_positions(targets, np.array([-1, 1]), 6).tolist() == [
            [0, 1, 2, 3, 4],
            [0, 1, 2, 3, 4],
        ]
        assert enc.read_positions(np.empty((0, 3)), np.array([1]), 2) is None


class TestCutPassParity:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("kind", ["mixed", "pairs"])
    def test_bit_identical_to_the_full_pass(self, shape, kind):
        self.check(shape, kind, n_layers=2)

    # one layer: the cut layer's input gradient goes straight to the
    # embedding tables; three: a full-width middle layer precedes it
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("kind", ["mixed", "pairs"])
    @pytest.mark.parametrize("n_layers", [1, 3])
    def test_bit_identical_at_other_depths(self, shape, kind, n_layers):
        self.check(shape, kind, n_layers)

    @staticmethod
    def check(shape, kind, n_layers):
        params = shaped_params(shape, seed=1, n_layers=n_layers)
        batch, targets, labels = mixed_pass(shape, kind, seed=2)
        assert not batch.attn_mask.all()
        reads, ((full, full_out), (cut, cut_out)) = both_passes(params, batch, targets, labels)
        assert reads.shape[1] < batch.max_len
        rows = np.arange(len(batch))[:, None]
        assert_same_bits(cut.hidden_states[rows, reads], full.hidden_states[rows, reads], "hidden")
        unread = np.ones(batch.ids.shape, dtype=bool)
        unread[rows, reads] = False
        assert np.all(cut.hidden_states[unread] == 0.0)
        assert cut_out[0] == full_out[0] and cut_out[1] == full_out[1]
        for name in params.tensors:
            assert_same_bits(cut_out[2][name], full_out[2][name], name)

    def test_trace_keeps_its_reads(self):
        params = shaped_params("planted")
        batch, targets, labels = mixed_pass("planted")
        reads = enc.read_positions(targets, labels, batch.max_len)
        assert enc.forward(params, batch).reads is None
        assert np.array_equal(enc.forward(params, batch, reads=reads).reads, reads)


class TestCutPassFailsClosed:
    @pytest.fixture
    def cut(self):
        params = shaped_params("planted")
        batch, targets, labels = mixed_pass("planted")
        reads = enc.read_positions(targets, labels, batch.max_len)
        return params, enc.forward(params, batch, reads=reads), reads, targets, labels

    def test_target_outside_reads_refused(self, cut):
        params, trace, reads, targets, labels = cut
        row = int(targets[0, 0])
        unread = sorted(set(range(16)) - set(reads[row].tolist()))[0]
        stray = np.vstack([targets, [(row, unread, 5)]])
        with pytest.raises(UnreadPositionError):
            enc.loss_and_grads(params, trace, stray, labels)

    def test_pair_cls_outside_reads_refused(self, cut):
        params, trace, reads, targets, labels = cut
        row = next(r for r in range(len(labels)) if labels[r] < 0 and reads[r, 0] != 0)
        stray = labels.copy()
        stray[row] = 1
        with pytest.raises(UnreadPositionError):
            enc.loss_and_grads(params, trace, targets, stray)

    def test_reads_themselves_checked(self, cut):
        params, _, reads, targets, labels = cut
        batch = mixed_pass("planted")[0]
        with pytest.raises(ShapeMismatchError):
            enc.forward(params, batch, reads=reads[:, :1])  # one read row per row
        with pytest.raises(ShapeMismatchError):
            enc.forward(params, batch, reads=reads[1:])
        with pytest.raises(ShapeMismatchError):
            enc.forward(params, batch, reads=reads.astype(float))
        for bad in (reads[:, ::-1], np.repeat(reads[:, :1], 2, axis=1), reads + 16, reads - 1):
            with pytest.raises(PositionOutOfRangeError):
                enc.forward(params, batch, reads=np.ascontiguousarray(bad))


class TestTrainStepTraffic:
    def test_last_layer_ffn_sees_only_read_rows(self, monkeypatch):
        """Each pass of a training step runs the first layer's FFN over B x T
        positions and the last layer's over B x m, m its read count."""
        words = [f"w{i:02d}" for i in range(30)]
        vocab = Vocabulary(words)
        params = shaped_params("planted")
        rng = np.random.default_rng(5)
        rows = encode_single([vocab.word_ids(" ".join(words[i : i + 9])) for i in range(20)], 16)
        masked = obj.mask_titles(rows, vocab, rng)
        titles = {f"{i:010d}": " ".join(words[i : i + 4]) for i in range(20)}
        pairs = [(f"{i:010d}", f"{19 - i:010d}", i % 2) for i in range(20)]
        pair_batch = encode_id_pairs(pairs, titles, vocab, 16)

        ffn_shapes, passes = [], []
        real_forward, real_cdf = enc.forward, enc.gelu_cdf

        def forward_spy(params, rows, *args, reads=None, **kwargs):
            passes.append((len(rows), rows.max_len, None if reads is None else reads.shape[1]))
            return real_forward(params, rows, *args, reads=reads, **kwargs)

        def cdf_spy(x):
            ffn_shapes.append(x.shape)
            return real_cdf(x)

        monkeypatch.setattr(enc, "forward", forward_spy)
        monkeypatch.setattr(enc, "gelu_cdf", cdf_spy)
        obj.train_step(params, obj.init_optimizer(params), masked, pair_batch)
        assert len(passes) == 3 and sum(b for b, _, _ in passes) == 40
        d_ff = params.config.d_ff
        for (b, width, m), first, last in zip(passes, ffn_shapes[::2], ffn_shapes[1::2]):
            assert m is not None and 2 <= m < width
            assert first == (b, width, d_ff)
            assert last == (b, m, d_ff)
