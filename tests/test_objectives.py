import math
import threading
import tracemalloc
from dataclasses import astuple, replace
from datetime import date
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from titlerec import encoder as enc
from titlerec import objectives as obj
from titlerec.corpus import PreparedArticle, load_saved_transactions
from titlerec.errors import (
    ArtifactFormatError,
    EmptyBatchError,
    InventoryTooSmallError,
    NonFiniteComponentError,
    NothingToMaskError,
)
from titlerec.tokenizer import FIRST_WORD_ID, TokenBatch, build_vocab, encode_single

from conftest import (
    Boom,
    PassSpy,
    call_bounded,
    encode_id_pairs,
    no_pairs,
    on_helper_thread,
    replacement_kinds,
    token_rows,
    zeroed_params,
)
from synth import sessions_log, trlog_bytes


def make_vocab(n_words=12):
    words = [f"w{i:02d}" for i in range(n_words)]
    articles = [PreparedArticle(f"{i:010d}", w, 1) for i, w in enumerate(words)]
    return build_vocab(articles), words


@pytest.fixture()
def vocab():
    return make_vocab()[0]


class TestMaskedCount:
    def test_matches_exact_rational_rounding(self):
        for n in range(1, 501):
            half_up = math.floor(Fraction(3 * n, 20) + Fraction(1, 2))
            assert obj.masked_count(n) == max(1, half_up), n

    def test_spec_points(self):
        assert obj.masked_count(20) == 3
        assert obj.masked_count(2) == 1
        assert obj.masked_count(1) == 1
        assert obj.masked_count(10) == 2  # 1.5 rounds half up


def titles(vocab, texts, max_len):
    """Encoded titles, one batch row per text."""
    return encode_single([vocab.word_ids(text) for text in texts], max_len)


def masked_copy(batch, row, vocab, rng):
    """Mask a 1-row copy of one batch row (an index list copies it); the
    batch stays as it was."""
    copy = batch[[row]]
    return copy, obj.apply_masking(copy, 0, vocab, rng)


def masked_rows(batch, targets):
    """``TrainingRows`` of a batch with the given (row, position, label)
    targets and no pair term."""
    return obj.TrainingRows(
        batch, np.array(targets, dtype=np.int64).reshape(-1, 3), np.full(len(batch), -1)
    )


class TestApplyMasking:
    def test_plan_respects_count_law(self, vocab):
        rng = np.random.default_rng(0)
        for live_words in (1, 2, 7, 13):
            text = " ".join(f"w{i % 12:02d}" for i in range(live_words))
            targets = obj.apply_masking(titles(vocab, [text], live_words + 4), 0, vocab, rng)
            assert targets.shape == (obj.masked_count(live_words), 3)
            assert targets.dtype == np.int64

    def test_only_word_positions_touched(self, vocab):
        rng = np.random.default_rng(1)
        batch = titles(vocab, ["w00 w01 w02 w03 w04"], 10)
        for _ in range(100):
            masked, targets = masked_copy(batch, 0, vocab, rng)
            positions = targets[:, 1].tolist()
            maskable = set(np.flatnonzero(batch.ids[0] >= FIRST_WORD_ID).tolist())
            assert positions == sorted(set(positions)) and set(positions) <= maskable
            for position in range(batch.max_len):
                if position not in positions:
                    assert masked.ids[0, position] == batch.ids[0, position]
            assert np.array_equal(masked.segments, batch.segments)
            assert np.array_equal(masked.attn_mask, batch.attn_mask)

    def test_labels_and_kinds_consistent(self, vocab):
        rng = np.random.default_rng(2)
        batch = titles(vocab, ["w00 w01 w02 w03 w04 w05 w06 w07"], 12)
        for _ in range(300):
            masked, targets = masked_copy(batch, 0, vocab, rng)
            assert np.all(targets[:, 0] == 0)
            kinds = replacement_kinds(masked.ids[0], targets)
            for (_, position, label), kind in zip(targets.tolist(), kinds):
                assert label == batch.ids[0, position]
                if kind == "random":
                    assert masked.ids[0, position] >= FIRST_WORD_ID

    def test_masks_only_its_row(self, vocab):
        texts = ["w00 w01 w02", "w03 w04 w05 w06", "w07 w08"]
        batch = titles(vocab, texts, 8)
        before = batch.ids.copy()
        targets = obj.apply_masking(batch, 1, vocab, np.random.default_rng(5))
        assert np.all(targets[:, 0] == 1)
        changed = np.flatnonzero(batch.ids[1] != before[1]).tolist()
        assert set(changed) <= set(targets[:, 1].tolist())
        assert np.array_equal(batch.ids[[0, 2]], before[[0, 2]])

    def test_nothing_to_mask(self, vocab):
        rng = np.random.default_rng(3)
        with pytest.raises(NothingToMaskError):
            obj.apply_masking(titles(vocab, [""], 6), 0, vocab, rng)

    def test_replacement_mix_statistics(self, vocab):
        # a random word may draw the original back, which reads as kept
        rng = np.random.default_rng(4)
        text = " ".join(f"w{i % 12:02d}" for i in range(20))
        batch = titles(vocab, [text], 24)
        kinds = []
        for _ in range(2000):
            masked, targets = masked_copy(batch, 0, vocab, rng)
            kinds.extend(replacement_kinds(masked.ids[0], targets))
        shares = {k: kinds.count(k) / len(kinds) for k in set(kinds)}
        words = len(vocab) - FIRST_WORD_ID
        assert abs(shares["mask"] - 0.80) < 0.03
        assert abs(shares["random"] - 0.10 * (1 - 1 / words)) < 0.03
        assert abs(shares["keep"] - (0.10 + 0.10 / words)) < 0.03

    def test_deterministic_given_seed(self, vocab):
        batch = titles(vocab, ["w00 w01 w02 w03 w04 w05"] * 2, 10)
        a = obj.apply_masking(batch, 0, vocab, np.random.default_rng(77))
        b = obj.apply_masking(batch, 1, vocab, np.random.default_rng(77))
        assert np.array_equal(a[:, 1:], b[:, 1:])
        assert a[:, 0].tolist() == [0] * len(a) and b[:, 0].tolist() == [1] * len(b)
        assert np.array_equal(batch.ids[0], batch.ids[1])

    def test_maskable_titles_are_those_apply_masking_takes(self, vocab):
        # word ids below FIRST_WORD_ID stand for specials and unknown words
        rng = np.random.default_rng(6)
        max_len = 6
        word_ids = [
            rng.integers(0, len(vocab), size=int(rng.integers(0, 8))).tolist() for _ in range(300)
        ]
        batch = encode_single(word_ids, max_len)
        takes = []
        for row in range(len(batch)):
            try:
                obj.apply_masking(batch, row, vocab, rng)
                takes.append(row)
            except NothingToMaskError:
                pass
        assert obj.maskable_titles(word_ids, max_len) == takes
        assert 0 < len(takes) < len(word_ids)


class TestTrainingRows:
    def test_concat_shifts_second_targets(self, tiny_row):
        pair_row = token_rows([2, 6, 3, 7, 3, 0, 0], [0, 0, 0, 1, 1, 0, 0], [1] * 5 + [0] * 2)
        first = masked_rows(TokenBatch.concat(tiny_row, tiny_row), [(0, 1, 5), (1, 3, 7)])
        second = obj.TrainingRows(
            TokenBatch.concat(tiny_row, pair_row), np.array([[0, 2, 6]]), np.array([-1, 1])
        )
        rows = obj.TrainingRows.concat(first, second)
        assert len(rows) == 4
        assert np.array_equal(rows.tokens.ids[3], pair_row.ids[0])
        assert rows.targets.tolist() == [[0, 1, 5], [1, 3, 7], [2, 2, 6]]
        assert rows.labels.tolist() == [-1, -1, -1, 1]
        assert second.targets.tolist() == [[0, 2, 6]]  # its inputs stay as they were

    def test_pairs_carry_no_target(self):
        vocab, _ = make_vocab()
        titles = {"0000000001": "w00 w01", "0000000002": "w02"}
        pairs = [("0000000001", "0000000002", 1), ("0000000002", "0000000001", 0)]
        rows = encode_id_pairs(pairs, titles, vocab, 8)
        assert len(rows) == 2 and rows.targets.shape == (0, 3)
        assert rows.labels.tolist() == [1, 0]


def session(customer, day, *article_ids):
    return customer, date(2020, 9, day), tuple(article_ids)


def every_slot(sessions, inventory, ratio, rng):
    """Every slot of the sessions' pairs, drawn in slot order, as (seed id,
    candidate id, label) triples."""
    table = obj.positive_table(sessions_log(sessions, tuple(inventory)), ratio)
    pairs = obj.sample_pairs(table, np.arange(table.slot_count), rng)
    return [
        (inventory[seed], inventory[candidate], label)
        for seed, candidate, label in zip(
            pairs.seeds.tolist(), pairs.candidates.tolist(), pairs.labels.tolist()
        )
    ]


class TestSamplePairs:
    def test_two_item_session(self):
        inventory = ["A", "B", "C", "D"]
        pairs = every_slot([session("u", 1, "A", "B")], inventory, 1, np.random.default_rng(0))
        assert pairs[::2] == [("A", "B", 1), ("B", "A", 1)]
        for positive, negative in zip(pairs[::2], pairs[1::2]):
            assert negative[2] == 0
            assert negative[0] == positive[0]
            assert negative[1] in {"C", "D"}

    def test_singleton_session_yields_nothing(self):
        table = obj.positive_table(sessions_log([session("u", 1, "A")], ("A", "B")), 1)
        assert len(table) == 0 and table.slot_count == 0

    def test_session_covering_inventory_raises(self):
        with pytest.raises(InventoryTooSmallError):
            obj.positive_table(sessions_log([session("u", 1, "A", "B")], ("A", "B")), 1)

    def test_covering_singleton_session_is_harmless(self):
        # a size-1 session produces no positive, so it needs no negative
        table = obj.positive_table(sessions_log([session("u", 1, "A")], ("A",)), 1)
        assert table.slot_count == 0

    def test_duplicate_purchases_collapse(self):
        pairs = every_slot(
            [session("u", 1, "A", "A", "B")], ["A", "B", "C"], 1, np.random.default_rng(0)
        )
        assert [p[:2] for p in pairs if p[2] == 1] == [("A", "B"), ("B", "A")]

    def test_negative_ratio(self):
        table = obj.positive_table(
            sessions_log([session("u", 1, "A", "B")], ("A", "B", "C", "D", "E")), 3
        )
        assert table.slot_count == 2 * (1 + 3)
        pairs = obj.sample_pairs(table, np.arange(table.slot_count), np.random.default_rng(0))
        assert len(pairs) == 8 and int(pairs.labels.sum()) == 2

    def test_soundness_on_random_sessions(self):
        rng = np.random.default_rng(5)
        inventory = [f"{i:010d}" for i in range(30)]
        sessions = []
        for s in range(40):
            size = int(rng.integers(1, 5))
            items = rng.choice(inventory, size=size, replace=False)
            sessions.append(session(f"c{s:02d}", 1 + s % 20, *items))
        pairs = every_slot(sessions, inventory, 2, rng)
        cursor = 0
        for _, _, bought in sessions:
            unique = list(dict.fromkeys(bought))
            if len(unique) < 2:
                continue
            for seed in unique:
                for candidate in unique:
                    if candidate == seed:
                        continue
                    assert pairs[cursor] == (seed, candidate, 1)
                    cursor += 1
                    for _ in range(2):
                        negative = pairs[cursor]
                        assert negative[0] == seed and negative[2] == 0
                        assert negative[1] not in bought
                        cursor += 1
        assert cursor == len(pairs)

    def test_empty_inventory_rejected(self):
        with pytest.raises(InventoryTooSmallError):
            obj.positive_table(sessions_log([], ()), 1)

    def test_deterministic_given_seed(self):
        sessions = [session("u", 1, "A", "B"), session("v", 2, "B", "C")]
        inventory = ["A", "B", "C", "D", "E"]
        a = every_slot(sessions, inventory, 2, np.random.default_rng(9))
        b = every_slot(sessions, inventory, 2, np.random.default_rng(9))
        assert a == b

    def test_slots_map_to_their_positive(self):
        sessions = [session("u", 1, "A", "B", "C"), session("v", 2, "D", "E")]
        inventory = ["A", "B", "C", "D", "E", "F", "G"]
        table = obj.positive_table(sessions_log(sessions, tuple(inventory)), 2)
        order = np.random.default_rng(3).permutation(table.slot_count)
        pairs = obj.sample_pairs(table, order, np.random.default_rng(4))
        for slot, seed, candidate, label in zip(
            order.tolist(), pairs.seeds.tolist(), pairs.candidates.tolist(), pairs.labels.tolist()
        ):
            positive, offset = divmod(slot, 3)
            assert seed == table.seeds[positive]
            assert label == (offset == 0)
            if offset == 0:
                assert candidate == table.candidates[positive]
            else:
                assert candidate not in table.members_of(positive)

    def test_only_negative_slots_draw(self):
        # positives take no randomness; each negative slot takes at least one draw
        table = obj.positive_table(sessions_log([session("u", 1, "A", "B")], tuple("ABCDEFGH")), 1)
        rng = np.random.default_rng(8)
        before = rng.bit_generator.state
        obj.sample_pairs(table, np.array([2, 0]), rng)
        assert rng.bit_generator.state == before
        obj.sample_pairs(table, np.array([3]), rng)
        assert rng.bit_generator.state != before

    def test_negative_frequencies_within_binomial_bound(self):
        # 10,000 draws for one seed: uniform over the 7 articles outside its
        # session, none inside it
        inventory = [f"{i:010d}" for i in range(10)]
        table = obj.positive_table(
            sessions_log([session("u", 1, *inventory[:3])], tuple(inventory)), 1
        )
        draws = 10_000
        pairs = obj.sample_pairs(table, np.ones(draws, dtype=np.int64), np.random.default_rng(21))
        assert not pairs.labels.any()
        counts = np.bincount(pairs.candidates, minlength=len(inventory))
        assert counts[:3].tolist() == [0, 0, 0]
        p = 1 / 7
        bound = 5 * math.sqrt(draws * p * (1 - p))  # five standard deviations
        assert np.all(np.abs(counts[3:] - draws * p) < bound), counts

    def test_article_outside_inventory_rejected(self):
        # the inventory is the log's article table; joining the log to the
        # catalog drops the purchase of an article outside it
        log = sessions_log([session("u", 1, "A", "Z")]).of_articles(("A", "B", "C"))
        table = obj.positive_table(log, 1)
        assert log.article_ids == ("A", "B", "C") and log.articles.tolist() == [0]
        assert table.inventory_size == 3 and len(table) == 0

    def test_bad_ratio_and_repeated_inventory_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            obj.positive_table(sessions_log([], ("A", "B")), 0)
        # the inventory is the saved log's article table, whose reader refuses a repeat
        path = tmp_path / "transactions.bin"
        repeated = ("0000000001", "0000000002", "0000000001")
        path.write_bytes(trlog_bytes(sessions_log([session("u", 1, "0000000001")], repeated)))
        with pytest.raises(ArtifactFormatError, match="article ids do not ascend"):
            load_saved_transactions(path, 7)


class TestAnalyticLosses:
    """Head biases on a zero-activation encoder pin the output distribution,
    so each loss value of ``forward`` plus ``loss_and_grads`` has a
    hand-computable oracle."""

    def rig(self, vocab_size=8, max_len=6):
        config = enc.EncoderConfig(
            vocab_size=vocab_size, d_model=8, n_heads=2, n_layers=1, d_ff=8, max_len=max_len
        )
        return zeroed_params(config)

    def seq(self):
        return token_rows([2, 5, 6, 3, 0, 0], [0] * 6, [1, 1, 1, 1, 0, 0])

    @staticmethod
    def masked_loss(params, row, targets):
        """Summed NLL of (0, position, label) targets of a 1-row batch."""
        trace = enc.forward(params, row)
        return enc.loss_and_grads(params, trace, targets, [-1])[0]

    @staticmethod
    def pair_loss(params, pairs, titles, vocab):
        """Summed pair BCE of (seed id, candidate id, label) pairs, in one pass."""
        encoded = encode_id_pairs(pairs, titles, vocab, params.config.max_len)
        trace = enc.forward(params, encoded.tokens)
        return enc.loss_and_grads(params, trace, [], encoded.labels)[1]

    def test_mlm_loss_zero_when_label_certain(self):
        params = self.rig()
        label = 5
        bias = np.zeros(8)
        bias[label] = 60.0
        params["mlm_head.bias"][...] = bias
        assert self.masked_loss(params, self.seq(), [(0, 1, label)]) <= 1e-9

    def test_mlm_loss_uniform_four_way(self):
        params = self.rig()
        bias = np.full(8, -40.0)
        bias[:4] = 0.0
        params["mlm_head.bias"][...] = bias
        assert abs(self.masked_loss(params, self.seq(), [(0, 1, 2)]) - math.log(4.0)) < 1e-9

    def test_mlm_loss_two_positions_prob_inv_e(self):
        params = self.rig()
        bias = np.full(8, -40.0)
        bias[5] = 0.0
        bias[6] = math.log(math.e - 1.0)
        params["mlm_head.bias"][...] = bias
        targets = [(0, 1, 5), (0, 2, 5)]
        assert abs(self.masked_loss(params, self.seq(), targets) - 2.0) < 1e-9

    def test_mlm_loss_additive_over_positions(self):
        params = enc.init_params(
            enc.EncoderConfig(vocab_size=8, d_model=8, n_heads=2, n_layers=1, d_ff=8, max_len=6),
            seed=1,
        )
        seq = self.seq()
        lone = [self.masked_loss(params, seq, [target]) for target in ((0, 1, 5), (0, 2, 7))]
        both = self.masked_loss(params, seq, [(0, 1, 5), (0, 2, 7)])
        assert abs(both - sum(lone)) < 1e-9

    def test_mlm_loss_empty_plan(self):
        # no targets add nothing to the sum, and a step of no term is refused
        params = self.rig()
        assert self.masked_loss(params, self.seq(), []) == 0.0
        with pytest.raises(EmptyBatchError):
            obj.train_step(
                params, obj.init_optimizer(params), masked_rows(self.seq(), []), no_pairs(6)
            )

    def np_fixture(self, bias):
        vocab, words = make_vocab()
        params = self.rig(vocab_size=len(vocab), max_len=8)
        params["np_head.bias"][...] = np.array([bias])
        titles = {"0000000001": "w00 w01", "0000000002": "w02", "0000000003": "w03 w04"}
        return params, titles, vocab

    def test_np_loss_balanced_pair_at_half(self):
        params, titles, vocab = self.np_fixture(0.0)
        pairs = [("0000000001", "0000000002", 1), ("0000000001", "0000000003", 0)]
        loss = self.pair_loss(params, pairs, titles, vocab)
        assert abs(loss - 2.0 * math.log(2.0)) < 1e-9

    def test_np_loss_single_positive_quarter(self):
        params, titles, vocab = self.np_fixture(-math.log(3.0))
        pairs = [("0000000001", "0000000002", 1)]
        loss = self.pair_loss(params, pairs, titles, vocab)
        assert abs(loss - math.log(4.0)) < 1e-9

    def test_np_loss_saturated_logits_stay_finite(self):
        for logit in (-1000.0, 1000.0):
            params, titles, vocab = self.np_fixture(logit)
            pairs = [("0000000001", "0000000002", 1), ("0000000001", "0000000003", 0)]
            assert np.isfinite(self.pair_loss(params, pairs, titles, vocab))

    def test_np_loss_unknown_article(self):
        # an article without a prepared title never becomes a pair
        params, titles, vocab = self.np_fixture(0.0)
        log = sessions_log([session("u", 1, "0000000001", "0000000099")]).of_articles(tuple(titles))
        assert obj.positive_table(log, 1).slot_count == 0

    def test_np_loss_empty_batch(self):
        # no pairs encode to a batch of no rows, which adds no pair term to a step
        params, titles, vocab = self.np_fixture(0.0)
        empty = encode_id_pairs([], titles, vocab, params.config.max_len)
        assert len(empty) == 0 and empty.tokens.max_len == params.config.max_len
        rows = encode_single([vocab.word_ids("w00 w01")], 8)
        masked = obj.mask_titles(rows, vocab, np.random.default_rng(0))
        record = obj.train_step(params, obj.init_optimizer(params), masked, empty)
        assert record.np_mean == 0.0 and record.mlm_mean > 0.0


class TestJointLoss:
    """A step's total is the plain sum of its two means, and a mean that is
    not finite stops the step before the update. The rig pins the
    distributions as in ``TestAnalyticLosses``: uniform over four words at
    a masked position and even odds for a pair."""

    def rig(self):
        vocab, _ = make_vocab()
        config = enc.EncoderConfig(
            vocab_size=len(vocab), d_model=8, n_heads=2, n_layers=1, d_ff=8, max_len=8
        )
        params = zeroed_params(config)
        bias = np.full(len(vocab), -40.0)
        bias[[5, 6, 7, 8]] = 0.0
        params["mlm_head.bias"][...] = bias
        masked = masked_rows(titles(vocab, ["w00 w01 w02"], 8), [(0, 1, 5), (0, 3, 7)])
        titles_by_id = {"0000000001": "w00 w01", "0000000002": "w02"}
        pairs = [("0000000001", "0000000002", 1), ("0000000002", "0000000001", 0)]
        return params, masked, encode_id_pairs(pairs, titles_by_id, vocab, 8)

    def test_identity(self):
        # a step without pairs adds a zero pair term
        params, masked, _ = self.rig()
        record = obj.train_step(params, obj.init_optimizer(params), masked, no_pairs(8))
        assert record.np_mean == 0.0 and record.total == record.mlm_mean

    def test_plain_sum(self):
        params, masked, pairs = self.rig()
        record = obj.train_step(params, obj.init_optimizer(params), masked, pairs)
        assert record.total == record.mlm_mean + record.np_mean
        assert abs(record.total - 3 * math.log(2)) < 1e-12

    def test_rejects_non_finite(self):
        for head in ("mlm_head.bias", "np_head.bias"):
            params, masked, pairs = self.rig()
            params[head][...] = np.nan
            before = params.flat.copy()
            state = obj.init_optimizer(params)
            with np.errstate(invalid="ignore"), pytest.raises(NonFiniteComponentError):
                obj.train_step(params, state, masked, pairs)
            assert np.array_equal(params.flat, before, equal_nan=True) and state.step == 0


class TestOptimizer:
    def test_init_mirrors_param_shapes(self, tiny_params):
        state = obj.init_optimizer(tiny_params)
        assert state.step == 0
        for name in tiny_params.tensors:
            assert state.first_moment[name].shape == tiny_params[name].shape
            assert state.second_moment[name].shape == tiny_params[name].shape
            assert np.all(state.first_moment[name] == 0.0)

    def test_single_step_hand_computed(self):
        config = enc.EncoderConfig(vocab_size=5, d_model=2, n_heads=1, n_layers=1, d_ff=2, max_len=5)
        params = enc.EncoderParams(config, np.full(enc.parameter_count(config), 1.0))
        state = obj.init_optimizer(params, learning_rate=0.1)
        obj.adam_update(params, state, enc.EncoderParams(config, np.full_like(params.flat, 0.5)))
        # bias-corrected moments after one step are exactly the raw gradient
        m_hat, v_hat = 0.5, 0.25
        expected = 1.0 - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert params.flat[0] == pytest.approx(expected, rel=1e-12)
        assert state.step == 1

    def test_two_steps_track_reference(self):
        config = enc.EncoderConfig(vocab_size=5, d_model=2, n_heads=1, n_layers=1, d_ff=2, max_len=5)
        params = enc.EncoderParams(config, np.full(enc.parameter_count(config), 0.3))
        state = obj.init_optimizer(params, learning_rate=0.05)
        w, m, v = 0.3, 0.0, 0.0
        for step, grad in enumerate((0.5, -0.2), start=1):
            grads = enc.EncoderParams(config, np.full_like(params.flat, grad))
            obj.adam_update(params, state, grads)
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad * grad
            m_hat = m / (1.0 - 0.9**step)
            v_hat = v / (1.0 - 0.999**step)
            w -= 0.05 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert params.flat[0] == pytest.approx(w, rel=1e-12)
        assert state.step == 2


def reference_adam(tensors, first, second, grads, step, lr, beta1, beta2, eps):
    """The per-tensor Adam step, one tensor at a time, as plain numpy."""
    correction1 = 1.0 - beta1**step
    correction2 = 1.0 - beta2**step
    for name, grad in grads.items():
        m, v = first[name], second[name]
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        tensors[name] -= lr * (m / correction1) / (np.sqrt(v / correction2) + eps)


def assert_same_doubles(actual, expected):
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


class TestArenaAdam:
    def test_matches_per_tensor_reference_bit_for_bit(self, tiny_params):
        params = enc.EncoderParams(tiny_params.config, tiny_params.flat.copy())
        state = obj.init_optimizer(params, learning_rate=3e-3)
        tensors = {name: t.copy() for name, t in tiny_params.tensors.items()}
        first = {name: np.zeros_like(t) for name, t in tensors.items()}
        second = {name: np.zeros_like(t) for name, t in tensors.items()}
        rng = np.random.default_rng(11)
        extremes = np.array([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300])
        for step in range(1, 6):
            grads = enc.zero_grads(params)
            grads.flat[...] = rng.normal(0.0, 0.1, grads.flat.size)
            slots = rng.choice(grads.flat.size, size=len(extremes), replace=False)
            grads.flat[slots] = extremes
            reference = {name: g.copy() for name, g in grads.tensors.items()}
            with np.errstate(over="ignore", invalid="ignore"):
                obj.adam_update(params, state, grads)
                reference_adam(tensors, first, second, reference, step,
                               3e-3, obj.BETA1, obj.BETA2, obj.EPSILON)
            assert state.step == step
            for name in params.tensors:
                assert_same_doubles(params[name], tensors[name])
                assert_same_doubles(state.first_moment[name], first[name])
                assert_same_doubles(state.second_moment[name], second[name])

    def test_update_allocates_no_temporaries(self):
        # the planted workload's model: d_model 32, d_ff 64, max_len 16, 249 words
        config = enc.EncoderConfig(
            vocab_size=249, d_model=32, n_heads=4, n_layers=2, d_ff=64, max_len=16
        )
        params = enc.init_params(config, seed=0)
        state = obj.init_optimizer(params)
        rng = np.random.default_rng(5)
        state.grads.flat[...] = rng.normal(0.0, 0.1, params.flat.size)
        obj.adam_update(params, state, state.grads)  # warm-up
        state.grads.flat[...] = rng.normal(0.0, 0.1, params.flat.size)
        tracemalloc.start()
        try:
            obj.adam_update(params, state, state.grads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * params.flat.nbytes, (peak, params.flat.nbytes)

    @pytest.mark.parametrize(
        "size", [1, obj.ADAM_BLOCK - 1, obj.ADAM_BLOCK, obj.ADAM_BLOCK + 1, 4 * obj.ADAM_BLOCK + 3]
    )
    def test_blocked_update_equals_whole_arena_update(self, size, monkeypatch):
        # arenas of any length: adam_update reads only their flat buffers
        rng = np.random.default_rng(size)
        start = rng.normal(0.0, 0.1, size)
        steps = [rng.normal(0.0, 0.1, size) for _ in range(3)]
        runs = []
        for block in (obj.ADAM_BLOCK, size):
            monkeypatch.setattr(obj, "ADAM_BLOCK", block)
            params = SimpleNamespace(flat=start.copy())
            state = obj.OptimizerState(
                learning_rate=3e-3,
                step=0,
                first_moment=SimpleNamespace(flat=np.zeros(size)),
                second_moment=SimpleNamespace(flat=np.zeros(size)),
                grads=SimpleNamespace(flat=np.zeros(size)),
                scratch=np.empty(min(block, size)),
            )
            for grads in steps:
                state.grads.flat[...] = grads
                obj.adam_update(params, state, state.grads)
            runs.append((params.flat, state.first_moment.flat, state.second_moment.flat))
        for blocked, whole in zip(*runs):
            assert_same_doubles(blocked, whole)

    def test_scratch_is_one_block(self, tiny_params):
        # the planted model fits one block; the catalog model takes five
        assert len(obj.init_optimizer(tiny_params).scratch) == tiny_params.flat.size
        config = enc.EncoderConfig(
            vocab_size=1550, d_model=64, n_heads=4, n_layers=2, d_ff=128, max_len=48
        )
        params = enc.EncoderParams(config)
        assert len(obj.init_optimizer(params).scratch) == obj.ADAM_BLOCK < params.flat.size

    def test_train_step_reuses_one_gradient_arena(self, tiny_params, tiny_row, monkeypatch):
        state = obj.init_optimizer(tiny_params)
        arena = state.grads.flat
        seen = []
        real = obj.adam_update

        def spy(params, state, grads):
            seen.append(grads)
            real(params, state, grads)

        monkeypatch.setattr(obj, "adam_update", spy)
        masked = masked_rows(tiny_row, [(0, 1, 5)])
        for _ in range(3):
            obj.train_step(tiny_params, state, masked, no_pairs(tiny_row.max_len))
        assert all(grads is state.grads for grads in seen) and len(seen) == 3
        assert state.grads.flat is arena

    def test_each_step_starts_from_zero_gradients(self, tiny_params, tiny_row):
        # whatever the arena holds before a step (adam_update leaves its
        # denominator there) must not reach that step's update
        masked = masked_rows(tiny_row, [(0, 1, 5), (0, 3, 7)])
        runs = []
        for junk in (None, np.nan):
            params = enc.EncoderParams(tiny_params.config, tiny_params.flat.copy())
            state = obj.init_optimizer(params)
            for _ in range(2):
                if junk is not None:
                    state.grads.flat.fill(junk)
                obj.train_step(params, state, masked, no_pairs(tiny_row.max_len))
            runs.append(params.flat)
        assert np.array_equal(runs[0], runs[1])


class TestStepMemory:
    """A single-thread step holds the optimizer's three arenas and one Adam
    block, and one pass's activations at a time."""

    @staticmethod
    def catalog_step():
        """A step of the benchmark's ``catalog`` shape: 16 masked titles and
        16 pairs of 10 to 23 words, d_model 64, max_len 48 (7 passes)."""
        vocab, _ = make_vocab(1545)
        rng = np.random.default_rng(4)
        word_ids = [
            rng.integers(FIRST_WORD_ID, len(vocab), int(rng.integers(10, 24))).tolist()
            for _ in range(48)
        ]
        config = enc.EncoderConfig(
            vocab_size=len(vocab), d_model=64, n_heads=4, n_layers=2, d_ff=128, max_len=48
        )
        masked = obj.mask_titles(encode_single(word_ids[:16], config.max_len), vocab, rng)
        pairs = obj.encode_training_pairs(
            obj.SampledPairs(np.arange(16, 32), np.arange(32, 48), rng.integers(0, 2, 16)),
            word_ids,
            config.max_len,
        )
        return enc.init_params(config, seed=0), masked, pairs

    @staticmethod
    def traced_peak(function, *args):
        tracemalloc.start()
        try:
            function(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_step_peak_is_three_arenas_a_block_and_one_pass(self, monkeypatch):
        monkeypatch.setattr(obj, "usable_cpus", lambda: 1)
        params, masked, pairs = self.catalog_step()
        rows = obj.TrainingRows.concat(masked, pairs)
        n_targets, n_pairs = len(rows.targets), len(pairs)
        step = enc.rows_per_pass(params.config.max_len)
        pass_peaks = []
        for start in range(0, len(rows), step):
            in_pass = (rows.targets[:, 0] >= start) & (rows.targets[:, 0] < start + step)
            targets = rows.targets[in_pass] - (start, 0, 0)
            labels = rows.labels[start : start + step]
            batch = rows.tokens[start : start + step]
            reads = enc.read_positions(targets, labels, params.config.max_len)

            def run_pass():
                trace = enc.forward(params, batch, reads=reads)
                enc.loss_and_grads(params, trace, targets, labels, 1 / n_targets, 1 / n_pairs)

            pass_peaks.append(self.traced_peak(run_pass))
        obj.train_step(params, obj.init_optimizer(params), masked, pairs)  # warm-up

        def optimizer_and_step():
            obj.train_step(params, obj.init_optimizer(params), masked, pairs)

        peak = self.traced_peak(optimizer_and_step)
        arena = params.flat.nbytes
        # the step's own rows, and the Python objects of the arenas' tensor
        # views and of the step beside the arrays (about 30 KB here)
        overhead = sum(a.nbytes for a in (*astuple(rows.tokens), rows.targets, rows.labels))
        overhead += 128 * 1024
        bound = 3 * arena + obj.ADAM_BLOCK * 8 + max(pass_peaks) + overhead
        assert peak <= bound, (peak, bound, arena)


def tiny_training_world(seed=6):
    """50 titles in 10 groups; within a group both objectives are learnable.

    Every article of a group shares one two-word title, so the visible word
    determines the masked one, and sessions stay within a group, so pair
    labels follow from title identity.
    """
    rng = np.random.default_rng(seed)
    articles = []
    for group in range(10):
        text = " ".join(f"g{group}{c}" for c in "ab")
        for member in range(5):
            articles.append(PreparedArticle(f"{group * 10 + member:010d}", text, 2))
    vocab = build_vocab(articles)
    inventory = [a.article_id for a in articles]
    word_ids = [vocab.word_ids(a.text) for a in articles]
    sessions = []
    for s in range(25):
        group = s % 10
        members = rng.choice(5, size=int(rng.integers(2, 4)), replace=False)
        items = [f"{group * 10 + int(m):010d}" for m in members]
        sessions.append(session(f"c{s:03d}", 1 + s % 20, *items))
    config = enc.EncoderConfig(
        vocab_size=len(vocab), d_model=16, n_heads=2, n_layers=1, d_ff=32, max_len=10
    )
    return config, vocab, word_ids, inventory, sessions, articles


def run_training(steps, seed=6, learning_rate=5e-3):
    config, vocab, word_ids, inventory, sessions, articles = tiny_training_world(seed=seed)
    params = enc.init_params(config, seed=seed)
    state = obj.init_optimizer(params, learning_rate=learning_rate)
    rng = np.random.default_rng(seed)
    table = obj.positive_table(sessions_log(sessions, tuple(inventory)), 1)
    records = []
    for step in range(steps):
        texts = [articles[(step * 10 + offset) % len(articles)].text for offset in range(10)]
        masked_batch = obj.mask_titles(
            encode_single([vocab.word_ids(text) for text in texts], config.max_len), vocab, rng
        )
        start = step * 10
        slots = [(start + k) % table.slot_count for k in range(10)]
        step_pairs = obj.sample_pairs(table, slots, rng)
        pair_batch = obj.encode_training_pairs(step_pairs, word_ids, config.max_len)
        records.append(obj.train_step(params, state, masked_batch, pair_batch))
    return params, records


class TestTrainStep:
    def test_zero_learning_rate_keeps_params(self, vocab):
        config, vocab, word_ids, inventory, sessions, articles = tiny_training_world()
        params = enc.init_params(config, seed=0)
        before = enc.EncoderParams(params.config, params.flat.copy())
        state = obj.init_optimizer(params, learning_rate=0.0)
        rng = np.random.default_rng(1)
        rows = encode_single([vocab.word_ids(articles[0].text)], config.max_len)
        masked_batch = obj.mask_titles(rows, vocab, rng)
        table = obj.positive_table(sessions_log(sessions[:2], tuple(inventory)), 1)
        pairs = obj.sample_pairs(table, np.arange(table.slot_count), rng)
        pair_batch = obj.encode_training_pairs(pairs, word_ids, config.max_len)
        record = obj.train_step(params, state, masked_batch, pair_batch)
        for name in params.tensors:
            assert np.array_equal(params[name], before[name])
        assert record.step == 1
        assert record.total == pytest.approx(record.mlm_mean + record.np_mean)

    def test_every_tensor_group_receives_gradient(self):
        config, vocab, word_ids, inventory, sessions, articles = tiny_training_world()
        params = enc.init_params(config, seed=0)
        before = enc.EncoderParams(params.config, params.flat.copy())
        state = obj.init_optimizer(params)
        rng = np.random.default_rng(2)
        rows = encode_single([vocab.word_ids(a.text) for a in articles[:8]], config.max_len)
        masked_batch = obj.mask_titles(rows, vocab, rng)
        table = obj.positive_table(sessions_log(sessions[:6], tuple(inventory)), 1)
        pairs = obj.sample_pairs(table, np.arange(table.slot_count), rng)
        pair_batch = obj.encode_training_pairs(pairs, word_ids, config.max_len)
        obj.train_step(params, state, masked_batch, pair_batch)
        for name in params.tensors:
            assert not np.array_equal(params[name], before[name]), name

    def test_loss_decreases_over_training(self):
        _, records = run_training(steps=200)
        assert records[-1].total < 0.5 * records[0].total
        assert all(np.isfinite(r.total) for r in records)

    def test_trajectory_reproducible(self):
        _, first = run_training(steps=12)
        _, second = run_training(steps=12)
        assert [r.total for r in first] == [r.total for r in second]
        assert [r.mlm_mean for r in first] == [r.mlm_mean for r in second]

    def test_empty_batches_rejected(self, tiny_params, vocab):
        state = obj.init_optimizer(tiny_params)
        no_titles = obj.mask_titles(encode_single([], 7), vocab, np.random.default_rng(0))
        assert len(no_titles) == 0 and no_titles.targets.shape == (0, 3)
        with pytest.raises(EmptyBatchError):
            obj.train_step(tiny_params, state, no_titles, no_pairs(7))

    def test_masked_batch_with_empty_plan_rejected(self, tiny_params, tiny_row):
        state = obj.init_optimizer(tiny_params)
        with pytest.raises(EmptyBatchError):
            obj.train_step(tiny_params, state, masked_rows(tiny_row, []), no_pairs(7))

    def test_rows_without_a_term_rejected(self, tiny_params, tiny_row):
        # rows on both sides, but no masked target and no pair label
        state = obj.init_optimizer(tiny_params)
        before = tiny_params.flat.copy()
        unlabelled = obj.TrainingRows(tiny_row, np.empty((0, 3), np.int64), np.array([-1]))
        with pytest.raises(EmptyBatchError):
            obj.train_step(tiny_params, state, masked_rows(tiny_row, []), unlabelled)
        assert np.array_equal(tiny_params.flat, before) and state.step == 0

    def test_params_stay_finite(self):
        params, _ = run_training(steps=25, learning_rate=5e-3)
        assert all(np.isfinite(t).all() for t in params.tensors.values())


def helper_step(d_model):
    """A step of 7 masked titles and then 6 pairs, for 2 rows a pass: 7
    passes, the second with neither a target nor a pair (rows 2 and 3 keep
    no target) and the fourth mixing a title and a pair. Returns fresh
    params, their optimizer and the two batches."""
    config, vocab, word_ids, inventory, sessions, _ = tiny_training_world()
    config = replace(config, d_model=d_model, d_ff=2 * d_model, n_layers=2)
    rng = np.random.default_rng(5)
    titles = encode_single([word_ids[i] for i in range(0, 35, 5)], config.max_len)
    masked = obj.mask_titles(titles, vocab, rng)
    kept = ~np.isin(masked.targets[:, 0], (2, 3))
    masked = obj.TrainingRows(masked.tokens, masked.targets[kept], masked.labels)
    table = obj.positive_table(sessions_log(sessions, tuple(inventory)), 1)
    pairs = obj.encode_training_pairs(
        obj.sample_pairs(table, np.arange(6), rng), word_ids, config.max_len
    )
    params = enc.init_params(config, seed=1)
    return params, obj.init_optimizer(params, learning_rate=1e-2), masked, pairs


def allow_training_helper(monkeypatch, cpus=2, min_width=1, rows_per_pass=2, max_len=10):
    monkeypatch.setattr(obj, "HELPER_MIN_WIDTH", min_width)
    monkeypatch.setattr(obj, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(enc, "PASS_TOKEN_BUDGET", rows_per_pass * max_len)


class TestTrainingHelper:
    """A training step's passes on two threads: the same bytes as on one,
    and ``passes.run_passes``'s failure rules, as ``TestHelperThread`` checks
    them for ``index.build_index``. A step that may start a helper runs
    through ``call_bounded``, so a thread that never returns fails the test
    instead of hanging the run."""

    def run_step(self, monkeypatch, d_model, helper):
        """Two steps on fresh params: the gradient arena each step handed to
        Adam, every Adam buffer after them, the loss records and which
        threads ran passes."""
        params, state, masked, pairs = helper_step(d_model)
        arenas, records, threads = [], [], set()
        real_adam = obj.adam_update

        def adam_spy(params, state, grads):
            arenas.append(grads.flat.tobytes())
            real_adam(params, state, grads)

        with monkeypatch.context() as patch:
            allow_training_helper(patch, cpus=2 if helper else 1)
            patch.setattr(obj, "adam_update", adam_spy)
            for _ in range(2):
                spy = PassSpy(patch, meet=helper)
                records.append(call_bounded(obj.train_step, params, state, masked, pairs))
                assert len(spy.passes) == 7
                threads |= spy.threads()
        buffers = [params.flat, state.first_moment.flat, state.second_moment.flat, state.grads.flat]
        return arenas, [b.tobytes() for b in buffers], records, threads

    @pytest.mark.parametrize("d_model", [8, 64])
    def test_two_threads_give_the_bytes_of_one(self, monkeypatch, d_model):
        *one, threads = self.run_step(monkeypatch, d_model, helper=False)
        assert threads == {False}
        *two, threads = self.run_step(monkeypatch, d_model, helper=True)
        assert threads == {False, True}
        assert two == one

    def test_batch_sums_and_grads_match_one_thread(self, monkeypatch):
        _, _, masked, pairs = helper_step(8)
        rows = obj.TrainingRows.concat(masked, pairs)
        runs = []
        for cpus in (1, 2):
            allow_training_helper(monkeypatch, cpus)
            params = helper_step(8)[0]
            PassSpy(monkeypatch, meet=cpus == 2)
            grads = enc.zero_grads(params)
            sums = call_bounded(obj.batch_loss_and_grads, params, rows, 0.25, 0.5, grads)
            runs.append((sums, grads.flat.tobytes()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "cpus, min_width, rows_per_pass, threads",
        [
            (2, 8, 2, {False, True}),
            (1, 8, 2, {False}),
            (2, 9, 2, {False}),
            (2, 8, 13, {False}),
        ],
        ids=["allowed", "one-cpu", "too-narrow", "one-pass"],
    )
    def test_helper_needs_two_passes_two_cpus_and_the_width(
        self, monkeypatch, cpus, min_width, rows_per_pass, threads
    ):
        allow_training_helper(monkeypatch, cpus, min_width, rows_per_pass)
        params, state, masked, pairs = helper_step(8)
        spy = PassSpy(monkeypatch, meet=len(threads) == 2)
        call_bounded(obj.train_step, params, state, masked, pairs)
        assert spy.threads() == threads

    def test_default_threshold_keeps_a_narrow_model_on_one_thread(self, monkeypatch):
        monkeypatch.setattr(obj, "usable_cpus", lambda: 2)
        monkeypatch.setattr(enc, "PASS_TOKEN_BUDGET", 20)
        params, state, masked, pairs = helper_step(obj.HELPER_MIN_WIDTH // 2)
        spy = PassSpy(monkeypatch)
        obj.train_step(params, state, masked, pairs)
        assert len(spy.passes) == 7
        assert spy.threads() == {False}

    def test_caller_runs_every_pass_when_no_thread_starts(self, monkeypatch):
        *one, _ = self.run_step(monkeypatch, 8, helper=False)

        def refuse(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        allow_training_helper(monkeypatch)
        params, state, masked, pairs = helper_step(8)
        spy = PassSpy(monkeypatch)
        obj.train_step(params, state, masked, pairs)
        assert spy.threads() == {False}
        assert len(spy.passes) == 7
        *refused, threads = self.run_step(monkeypatch, 8, helper=False)
        assert refused == one

    @pytest.mark.parametrize("on_helper", [False, True])
    def test_failure_of_a_running_pass_stops_both_threads(self, monkeypatch, on_helper):
        # the other thread is held in its first pass until the failing one
        # raises, so the failing thread takes the plan's next passes and
        # raises in its third, whichever thread the scheduler favours
        allow_training_helper(monkeypatch)
        for error in (Boom, KeyboardInterrupt):
            params, state, masked, pairs = helper_step(8)
            before = params.flat.copy()
            failed = threading.Event()

            def act(helper, rows, trace):
                if helper != on_helper:
                    failed.wait(timeout=10)
                elif len(spy.passes) >= 2:
                    failed.set()
                    raise error("mid-step")
                return trace

            spy = PassSpy(monkeypatch, meet=True, act=act)
            count = threading.active_count()
            with pytest.raises(error, match="mid-step"):
                call_bounded(obj.train_step, params, state, masked, pairs)
            assert threading.active_count() == count
            assert len(spy.passes) < 7 and state.step == 0
            assert np.array_equal(params.flat, before)

    def test_train_step_calls_loss_and_grads_once_per_pass(self, monkeypatch):
        # through the module attribute, on both threads, so a wrapper of
        # ``encoder.loss_and_grads`` (as a tracer installs) sees every pass
        allow_training_helper(monkeypatch)
        params, state, masked, pairs = helper_step(8)
        real = enc.loss_and_grads
        calls = []

        def spy(*args, **kwargs):
            calls.append(on_helper_thread())
            return real(*args, **kwargs)

        monkeypatch.setattr(enc, "loss_and_grads", spy)
        passes = PassSpy(monkeypatch, meet=True)
        call_bounded(obj.train_step, params, state, masked, pairs)
        assert len(calls) == len(passes.passes) == 7
        assert set(calls) == {False, True}
