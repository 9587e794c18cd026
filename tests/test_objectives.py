import math
import tracemalloc
from datetime import date
from fractions import Fraction

import numpy as np
import pytest

from titlerec import encoder as enc
from titlerec import objectives as obj
from titlerec.corpus import PreparedArticle
from titlerec.errors import (
    EmptyBatchError,
    EmptyPlanError,
    InventoryTooSmallError,
    NonFiniteComponentError,
    NothingToMaskError,
    UnknownArticleError,
)
from titlerec.tokenizer import (
    FIRST_WORD_ID,
    MASK_ID,
    TokenSequence,
    build_vocab,
    encode_single,
)

from conftest import encode_id_pairs, zeroed_params
from synth import sessions_log


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


class TestApplyMasking:
    def test_plan_respects_count_law(self, vocab):
        rng = np.random.default_rng(0)
        for live_words in (1, 2, 7, 13):
            text = " ".join(f"w{i % 12:02d}" for i in range(live_words))
            seq = encode_single(vocab.word_ids(text), max_len=live_words + 4)
            masked, plan = obj.apply_masking(seq, vocab, rng)
            assert len(plan.positions) == obj.masked_count(live_words)

    def test_only_word_positions_touched(self, vocab):
        rng = np.random.default_rng(1)
        seq = encode_single(vocab.word_ids("w00 w01 w02 w03 w04"), max_len=10)
        for _ in range(100):
            masked, plan = obj.apply_masking(seq, vocab, rng)
            maskable = {i for i, t in enumerate(seq.ids) if t >= FIRST_WORD_ID}
            assert set(plan.positions) <= maskable
            for position in range(len(seq)):
                if position not in plan.positions:
                    assert masked.ids[position] == seq.ids[position]
            assert masked.segments == seq.segments
            assert masked.attn_mask == seq.attn_mask

    def test_labels_and_kinds_consistent(self, vocab):
        rng = np.random.default_rng(2)
        seq = encode_single(vocab.word_ids("w00 w01 w02 w03 w04 w05 w06 w07"), max_len=12)
        for _ in range(300):
            masked, plan = obj.apply_masking(seq, vocab, rng)
            for position, label, kind in zip(
                plan.positions, plan.labels, plan.replacement_kinds
            ):
                assert label == seq.ids[position]
                if kind == obj.MASK_REPLACE:
                    assert masked.ids[position] == MASK_ID
                elif kind == obj.RANDOM_REPLACE:
                    assert masked.ids[position] >= FIRST_WORD_ID
                else:
                    assert kind == obj.KEEP_REPLACE
                    assert masked.ids[position] == label

    def test_nothing_to_mask(self, vocab):
        rng = np.random.default_rng(3)
        seq = encode_single(vocab.word_ids(""), max_len=6)
        with pytest.raises(NothingToMaskError):
            obj.apply_masking(seq, vocab, rng)

    def test_replacement_mix_statistics(self, vocab):
        rng = np.random.default_rng(4)
        text = " ".join(f"w{i % 12:02d}" for i in range(20))
        seq = encode_single(vocab.word_ids(text), max_len=24)
        kinds = []
        for _ in range(2000):
            _, plan = obj.apply_masking(seq, vocab, rng)
            kinds.extend(plan.replacement_kinds)
        shares = {k: kinds.count(k) / len(kinds) for k in set(kinds)}
        assert abs(shares[obj.MASK_REPLACE] - 0.80) < 0.03
        assert abs(shares[obj.RANDOM_REPLACE] - 0.10) < 0.03
        assert abs(shares[obj.KEEP_REPLACE] - 0.10) < 0.03

    def test_deterministic_given_seed(self, vocab):
        seq = encode_single(vocab.word_ids("w00 w01 w02 w03 w04 w05"), max_len=10)
        a = obj.apply_masking(seq, vocab, np.random.default_rng(77))
        b = obj.apply_masking(seq, vocab, np.random.default_rng(77))
        assert a == b


def session(customer, day, *article_ids):
    return customer, date(2020, 9, day), tuple(article_ids)


def every_slot(sessions, inventory, ratio, rng):
    """Every slot of the sessions' pairs, drawn in slot order, as (seed id,
    candidate id, label) triples."""
    table = obj.positive_table(sessions_log(sessions), inventory, ratio)
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
        table = obj.positive_table(sessions_log([session("u", 1, "A")]), ["A", "B"], 1)
        assert len(table) == 0 and table.slot_count == 0

    def test_session_covering_inventory_raises(self):
        with pytest.raises(InventoryTooSmallError):
            obj.positive_table(sessions_log([session("u", 1, "A", "B")]), ["A", "B"], 1)

    def test_covering_singleton_session_is_harmless(self):
        # a size-1 session produces no positive, so it needs no negative
        table = obj.positive_table(sessions_log([session("u", 1, "A")]), ["A"], 1)
        assert table.slot_count == 0

    def test_duplicate_purchases_collapse(self):
        pairs = every_slot(
            [session("u", 1, "A", "A", "B")], ["A", "B", "C"], 1, np.random.default_rng(0)
        )
        assert [p[:2] for p in pairs if p[2] == 1] == [("A", "B"), ("B", "A")]

    def test_negative_ratio(self):
        table = obj.positive_table(
            sessions_log([session("u", 1, "A", "B")]), ["A", "B", "C", "D", "E"], 3
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
            obj.positive_table(sessions_log([]), [], 1)

    def test_deterministic_given_seed(self):
        sessions = [session("u", 1, "A", "B"), session("v", 2, "B", "C")]
        inventory = ["A", "B", "C", "D", "E"]
        a = every_slot(sessions, inventory, 2, np.random.default_rng(9))
        b = every_slot(sessions, inventory, 2, np.random.default_rng(9))
        assert a == b

    def test_slots_map_to_their_positive(self):
        sessions = [session("u", 1, "A", "B", "C"), session("v", 2, "D", "E")]
        inventory = ["A", "B", "C", "D", "E", "F", "G"]
        table = obj.positive_table(sessions_log(sessions), inventory, 2)
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
        table = obj.positive_table(sessions_log([session("u", 1, "A", "B")]), list("ABCDEFGH"), 1)
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
        table = obj.positive_table(sessions_log([session("u", 1, *inventory[:3])]), inventory, 1)
        draws = 10_000
        pairs = obj.sample_pairs(table, np.ones(draws, dtype=np.int64), np.random.default_rng(21))
        assert not pairs.labels.any()
        counts = np.bincount(pairs.candidates, minlength=len(inventory))
        assert counts[:3].tolist() == [0, 0, 0]
        p = 1 / 7
        bound = 5 * math.sqrt(draws * p * (1 - p))  # five standard deviations
        assert np.all(np.abs(counts[3:] - draws * p) < bound), counts

    def test_article_outside_inventory_rejected(self):
        with pytest.raises(UnknownArticleError):
            obj.positive_table(sessions_log([session("u", 1, "A", "Z")]), ["A", "B", "C"], 1)

    def test_bad_ratio_and_repeated_inventory_rejected(self):
        with pytest.raises(ValueError):
            obj.positive_table(sessions_log([]), ["A", "B"], 0)
        with pytest.raises(ValueError):
            obj.positive_table(sessions_log([]), ["A", "B", "A"], 1)


class TestAnalyticLosses:
    """Head biases on a zero-activation encoder pin the output distribution,
    so each loss value of ``forward`` plus ``sequence_loss`` has a
    hand-computable oracle."""

    def rig(self, vocab_size=8, max_len=6):
        config = enc.EncoderConfig(
            vocab_size=vocab_size, d_model=8, n_heads=2, n_layers=1, d_ff=8, max_len=max_len
        )
        return zeroed_params(config)

    def seq(self, max_len=6):
        return TokenSequence(
            ids=(2, 5, 6, 3, 0, 0)[:max_len],
            segments=(0,) * max_len,
            attn_mask=(1, 1, 1, 1, 0, 0)[:max_len],
        )

    @staticmethod
    def masked_loss(params, seq, plan):
        """Summed NLL of the plan's labels at its positions."""
        trace = enc.forward(params, seq, record=False)
        return enc.sequence_loss(params, trace, plan.targets(), None)[0]

    @staticmethod
    def pair_loss(params, pairs, titles, vocab):
        """Summed pair BCE of (seed id, candidate id, label) pairs, in one pass."""
        encoded = encode_id_pairs(pairs, titles, vocab, params.config.max_len)
        trace = enc.forward(params, encoded.tokens, record=False)
        return enc.sequence_loss(params, trace, [], encoded.labels)[1]

    def test_mlm_loss_zero_when_label_certain(self):
        params = self.rig()
        label = 5
        bias = np.zeros(8)
        bias[label] = 60.0
        params["mlm_head.bias"][...] = bias
        plan = obj.MaskingPlan((1,), (label,), (obj.MASK_REPLACE,))
        assert self.masked_loss(params, self.seq(), plan) <= 1e-9

    def test_mlm_loss_uniform_four_way(self):
        params = self.rig()
        bias = np.full(8, -40.0)
        bias[:4] = 0.0
        params["mlm_head.bias"][...] = bias
        plan = obj.MaskingPlan((1,), (2,), (obj.MASK_REPLACE,))
        assert abs(self.masked_loss(params, self.seq(), plan) - math.log(4.0)) < 1e-9

    def test_mlm_loss_two_positions_prob_inv_e(self):
        params = self.rig()
        bias = np.full(8, -40.0)
        bias[5] = 0.0
        bias[6] = math.log(math.e - 1.0)
        params["mlm_head.bias"][...] = bias
        plan = obj.MaskingPlan((1, 2), (5, 5), (obj.MASK_REPLACE, obj.MASK_REPLACE))
        assert abs(self.masked_loss(params, self.seq(), plan) - 2.0) < 1e-9

    def test_mlm_loss_additive_over_positions(self):
        params = enc.init_params(
            enc.EncoderConfig(vocab_size=8, d_model=8, n_heads=2, n_layers=1, d_ff=8, max_len=6),
            seed=1,
        )
        seq = self.seq()
        lone = [
            self.masked_loss(params, seq, obj.MaskingPlan((p,), (l,), (obj.MASK_REPLACE,)))
            for p, l in ((1, 5), (2, 7))
        ]
        both = self.masked_loss(
            params, seq, obj.MaskingPlan((1, 2), (5, 7), (obj.MASK_REPLACE,) * 2)
        )
        assert abs(both - sum(lone)) < 1e-9

    def test_mlm_loss_empty_plan(self):
        # a plan without positions adds nothing to the sum, and training refuses it
        params = self.rig()
        empty = obj.MaskingPlan((), (), ())
        assert self.masked_loss(params, self.seq(), empty) == 0.0
        with pytest.raises(EmptyPlanError):
            obj.train_step(params, obj.init_optimizer(params), [(self.seq(), empty)], [])

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
        with pytest.raises(UnknownArticleError):
            obj.positive_table(
                sessions_log([session("u", 1, "0000000001", "0000000099")]), list(titles), 1
            )

    def test_np_loss_empty_batch(self):
        params, titles, vocab = self.np_fixture(0.0)
        with pytest.raises(EmptyBatchError):
            self.pair_loss(params, [], titles, vocab)


class TestJointLoss:
    def test_identity(self):
        assert obj.joint_loss(0.0, 0.0) == 0.0

    def test_plain_sum(self):
        assert obj.joint_loss(1.25, 0.75) == 2.0
        assert abs(obj.joint_loss(math.log(4), 2 * math.log(2)) - 4 * math.log(2)) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteComponentError):
            obj.joint_loss(float("inf"), 0.0)
        with pytest.raises(NonFiniteComponentError):
            obj.joint_loss(0.0, float("nan"))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            obj.joint_loss(-0.1, 0.0)


class TestOptimizer:
    def test_init_mirrors_param_shapes(self, tiny_params):
        state = obj.init_optimizer(tiny_params)
        assert state.step == 0
        for name in tiny_params.names():
            assert state.first_moment[name].shape == tiny_params[name].shape
            assert state.second_moment[name].shape == tiny_params[name].shape
            assert np.all(state.first_moment[name] == 0.0)

    def test_single_step_hand_computed(self):
        config = enc.EncoderConfig(vocab_size=5, d_model=2, n_heads=1, n_layers=1, d_ff=2, max_len=5)
        params = enc.EncoderParams(config, {"w": np.array([1.0])})
        state = obj.init_optimizer(params, learning_rate=0.1)
        obj.adam_update(params, state, enc.EncoderParams(config, {"w": np.array([0.5])}))
        # bias-corrected moments after one step are exactly the raw gradient
        m_hat, v_hat = 0.5, 0.25
        expected = 1.0 - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert params["w"][0] == pytest.approx(expected, rel=1e-12)
        assert state.step == 1

    def test_two_steps_track_reference(self):
        config = enc.EncoderConfig(vocab_size=5, d_model=2, n_heads=1, n_layers=1, d_ff=2, max_len=5)
        params = enc.EncoderParams(config, {"w": np.array([0.3])})
        state = obj.init_optimizer(params, learning_rate=0.05)
        w, m, v = 0.3, 0.0, 0.0
        for step, grad in enumerate((0.5, -0.2), start=1):
            obj.adam_update(params, state, enc.EncoderParams(config, {"w": np.array([grad])}))
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad * grad
            m_hat = m / (1.0 - 0.9**step)
            v_hat = v / (1.0 - 0.999**step)
            w -= 0.05 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert params["w"][0] == pytest.approx(w, rel=1e-12)
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
        params = tiny_params.copy()
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
                               3e-3, state.beta1, state.beta2, state.epsilon)
            assert state.step == step
            for name in params.names():
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

    def test_train_step_reuses_one_gradient_arena(self, tiny_params, tiny_seq, monkeypatch):
        state = obj.init_optimizer(tiny_params)
        arena = state.grads.flat
        seen = []
        real = obj.adam_update

        def spy(params, state, grads):
            seen.append(grads)
            real(params, state, grads)

        monkeypatch.setattr(obj, "adam_update", spy)
        plan = obj.MaskingPlan((1,), (5,), (obj.MASK_REPLACE,))
        for _ in range(3):
            obj.train_step(tiny_params, state, [(tiny_seq, plan)], [])
        assert all(grads is state.grads for grads in seen) and len(seen) == 3
        assert state.grads.flat is arena

    def test_each_step_starts_from_zero_gradients(self, tiny_params, tiny_seq):
        # whatever the arena holds before a step (adam_update leaves its
        # denominator there) must not reach that step's update
        plan = obj.MaskingPlan((1, 3), (5, 7), (obj.MASK_REPLACE,) * 2)
        runs = []
        for junk in (None, np.nan):
            params = tiny_params.copy()
            state = obj.init_optimizer(params)
            for _ in range(2):
                if junk is not None:
                    state.grads.flat.fill(junk)
                obj.train_step(params, state, [(tiny_seq, plan)], [])
            runs.append(params.flat)
        assert np.array_equal(runs[0], runs[1])


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
    table = obj.positive_table(sessions_log(sessions), inventory, 1)
    records = []
    for step in range(steps):
        masked_batch = []
        for offset in range(10):
            article = articles[(step * 10 + offset) % len(articles)]
            seq = encode_single(vocab.word_ids(article.text), config.max_len)
            masked_batch.append(obj.apply_masking(seq, vocab, rng))
        start = step * 10
        slots = [(start + k) % table.slot_count for k in range(10)]
        step_pairs = obj.sample_pairs(table, slots, rng)
        pair_batch = obj.encode_training_pairs(step_pairs, word_ids, config.max_len)
        params, state, record = obj.train_step(params, state, masked_batch, pair_batch)
        records.append(record)
    return params, records


class TestTrainStep:
    def test_zero_learning_rate_keeps_params(self, vocab):
        config, vocab, word_ids, inventory, sessions, articles = tiny_training_world()
        params = enc.init_params(config, seed=0)
        before = params.copy()
        state = obj.init_optimizer(params, learning_rate=0.0)
        rng = np.random.default_rng(1)
        seq = encode_single(vocab.word_ids(articles[0].text), config.max_len)
        masked_batch = [obj.apply_masking(seq, vocab, rng)]
        table = obj.positive_table(sessions_log(sessions[:2]), inventory, 1)
        pairs = obj.sample_pairs(table, np.arange(table.slot_count), rng)
        pair_batch = obj.encode_training_pairs(pairs, word_ids, config.max_len)
        params, state, record = obj.train_step(params, state, masked_batch, pair_batch)
        for name in params.names():
            assert np.array_equal(params[name], before[name])
        assert record.step == 1
        assert record.total == pytest.approx(record.mlm_mean + record.np_mean)

    def test_every_tensor_group_receives_gradient(self):
        config, vocab, word_ids, inventory, sessions, articles = tiny_training_world()
        params = enc.init_params(config, seed=0)
        before = params.copy()
        state = obj.init_optimizer(params)
        rng = np.random.default_rng(2)
        masked_batch = [
            obj.apply_masking(encode_single(vocab.word_ids(a.text), config.max_len), vocab, rng)
            for a in articles[:8]
        ]
        table = obj.positive_table(sessions_log(sessions[:6]), inventory, 1)
        pairs = obj.sample_pairs(table, np.arange(table.slot_count), rng)
        pair_batch = obj.encode_training_pairs(pairs, word_ids, config.max_len)
        params, _, _ = obj.train_step(params, state, masked_batch, pair_batch)
        for name in params.names():
            assert not np.array_equal(params[name], before[name]), name

    def test_loss_decreases_over_training(self):
        _, records = run_training(steps=200)
        assert records[-1].total < 0.5 * records[0].total
        assert all(np.isfinite(r.total) for r in records)

    def test_trajectory_reproducible(self):
        _, first = run_training(steps=12)
        _, second = run_training(steps=12)
        assert [r.total for r in first] == [r.total for r in second]
        assert [r.mlm_sum for r in first] == [r.mlm_sum for r in second]

    def test_empty_batches_rejected(self, tiny_params):
        state = obj.init_optimizer(tiny_params)
        with pytest.raises(EmptyBatchError):
            obj.train_step(tiny_params, state, [], [])

    def test_masked_batch_with_empty_plan_rejected(self, tiny_params, tiny_seq):
        state = obj.init_optimizer(tiny_params)
        empty = obj.MaskingPlan((), (), ())
        with pytest.raises(EmptyPlanError):
            obj.train_step(tiny_params, state, [(tiny_seq, empty)], [])

    def test_params_stay_finite(self):
        params, _ = run_training(steps=25, learning_rate=5e-3)
        assert all(np.isfinite(t).all() for t in params.tensors.values())
