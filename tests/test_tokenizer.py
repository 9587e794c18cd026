import numpy as np
import pytest

from titlerec import tokenizer as tok
from titlerec.corpus import PreparedArticle
from titlerec.errors import ArtifactFormatError, EmptyCorpusError, IdOutOfRangeError


def prepared(texts):
    return [
        PreparedArticle(article_id=f"{i:010d}", text=t, text_len=len(t.split()))
        for i, t in enumerate(texts)
    ]


CORPUS = prepared(
    [
        "strap top vest top",
        "cap moon cap",
        "strap dress",
        "top",
    ]
)


@pytest.fixture()
def vocab():
    return tok.build_vocab(CORPUS)


class TestBuildVocab:
    def test_specials_come_first(self, vocab):
        assert tuple(vocab.id_to_token[:5]) == tok.SPECIAL_TOKENS
        assert tok.PAD_ID == 0 and tok.MASK_ID == 4

    def test_frequency_then_lexicographic_order(self, vocab):
        # top:3, then cap/strap at 2 apiece, then dress/moon/vest at 1
        assert vocab.id_to_token[5:] == ["top", "cap", "strap", "dress", "moon", "vest"]

    def test_min_freq_filters(self):
        vocab = tok.build_vocab(CORPUS, min_freq=2)
        assert vocab.id_to_token[5:] == ["top", "cap", "strap"]

    def test_max_size_caps_total_count(self):
        vocab = tok.build_vocab(CORPUS, max_size=7)
        assert len(vocab) == 7
        assert vocab.id_to_token[5:] == ["top", "cap"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            tok.build_vocab([])

    def test_lookup_and_miss(self, vocab):
        assert vocab.lookup("top") == 5
        assert vocab.lookup("zebra") == tok.UNK_ID
        assert "top" in vocab and "zebra" not in vocab

    def test_maps_are_inverses(self, vocab):
        for token_id, token in enumerate(vocab.id_to_token):
            assert vocab.token_to_id[token] == token_id

    def test_token_by_id_bounds(self, vocab):
        assert vocab.token(5) == "top"
        with pytest.raises(IdOutOfRangeError):
            vocab.token(len(vocab))
        with pytest.raises(IdOutOfRangeError):
            vocab.token(-1)

    def test_round_trip(self, vocab, tmp_path):
        vocab.save(tmp_path / "vocab.txt")
        loaded = tok.Vocabulary.load(tmp_path / "vocab.txt")
        assert loaded.id_to_token == vocab.id_to_token

    def test_load_rejects_bad_specials(self, tmp_path):
        (tmp_path / "vocab.txt").write_text("[PAD]\n[UNK]\nword\n", encoding="utf-8")
        with pytest.raises(ArtifactFormatError):
            tok.Vocabulary.load(tmp_path / "vocab.txt")

    def test_determinism(self):
        first = tok.build_vocab(CORPUS, min_freq=1, max_size=9)
        second = tok.build_vocab(list(CORPUS), min_freq=1, max_size=9)
        assert first.id_to_token == second.id_to_token


class TestEncodeSingle:
    def test_layout(self, vocab):
        seq = tok.encode_single("strap top", vocab, max_len=6)
        assert seq.ids == (tok.CLS_ID, 7, 5, tok.SEP_ID, 0, 0)
        assert seq.segments == (0, 0, 0, 0, 0, 0)
        assert seq.attn_mask == (1, 1, 1, 1, 0, 0)
        assert sum(seq.attn_mask) == 4
        assert len(seq) == 6

    def test_unknown_word_maps_to_unk(self, vocab):
        seq = tok.encode_single("zebra", vocab, max_len=4)
        assert seq.ids[1] == tok.UNK_ID

    def test_truncates_long_text(self, vocab):
        seq = tok.encode_single("top top top top top top", vocab, max_len=5)
        assert seq.ids == (tok.CLS_ID, 5, 5, 5, tok.SEP_ID)
        assert sum(seq.attn_mask) == 5

    def test_empty_text(self, vocab):
        seq = tok.encode_single("", vocab, max_len=4)
        assert seq.ids == (tok.CLS_ID, tok.SEP_ID, 0, 0)
        assert sum(seq.attn_mask) == 2


def reference_truncate(len_a, len_b, budget):
    """Trim one word at a time from the longer side, ties from the second."""
    a, b = len_a, len_b
    while a + b > budget:
        if a > b:
            a -= 1
        else:
            b -= 1
    return a, b


class TestTruncatePair:
    def test_matches_reference_on_all_small_cases(self):
        for len_a in range(0, 12):
            for len_b in range(0, 12):
                for budget in range(0, 15):
                    assert tok.truncate_pair(len_a, len_b, budget) == reference_truncate(
                        len_a, len_b, budget
                    ), (len_a, len_b, budget)

    def test_no_trim_when_it_fits(self):
        assert tok.truncate_pair(3, 4, 9) == (3, 4)

    def test_long_first_side_absorbs_the_trim(self):
        assert tok.truncate_pair(10, 2, 7) == (5, 2)

    def test_tie_trims_second(self):
        assert tok.truncate_pair(5, 5, 9) == (5, 4)


class TestEncodePair:
    def test_layout_and_segments(self, vocab):
        seq = tok.encode_pair("strap top", "cap", vocab, max_len=10)
        assert seq.ids == (tok.CLS_ID, 7, 5, tok.SEP_ID, 6, tok.SEP_ID, 0, 0, 0, 0)
        assert seq.segments == (0, 0, 0, 0, 1, 1, 0, 0, 0, 0)
        assert seq.attn_mask == (1, 1, 1, 1, 1, 1, 0, 0, 0, 0)
        assert sum(seq.attn_mask) == 6

    def test_truncation_budget(self, vocab):
        seq = tok.encode_pair(
            "top top top top top", "cap cap cap cap cap", vocab, max_len=8
        )
        # budget 5: (5,5) -> (3,2)
        assert seq.ids == (tok.CLS_ID, 5, 5, 5, tok.SEP_ID, 6, 6, tok.SEP_ID)
        assert seq.segments == (0, 0, 0, 0, 0, 1, 1, 1)
        assert sum(seq.attn_mask) == 8

    def test_empty_sides_still_delimited(self, vocab):
        seq = tok.encode_pair("", "", vocab, max_len=5)
        assert seq.ids == (tok.CLS_ID, tok.SEP_ID, tok.SEP_ID, 0, 0)
        assert seq.segments == (0, 0, 1, 0, 0)
        assert sum(seq.attn_mask) == 3

    def test_random_pairs_respect_invariants(self, vocab):
        rng = np.random.default_rng(7)
        words = ["top", "cap", "strap", "dress", "moon", "vest", "zebra"]
        for _ in range(200):
            text_a = " ".join(rng.choice(words, size=rng.integers(0, 12)))
            text_b = " ".join(rng.choice(words, size=rng.integers(0, 12)))
            max_len = int(rng.integers(5, 14))
            seq = tok.encode_pair(text_a, text_b, vocab, max_len=max_len)
            assert len(seq) == max_len
            assert sum(seq.attn_mask) <= max_len
            assert seq.ids[0] == tok.CLS_ID
            assert seq.ids.count(tok.SEP_ID) == 2
            live = sum(seq.attn_mask)
            assert seq.ids[live - 1] == tok.SEP_ID
            assert all(i == tok.PAD_ID for i in seq.ids[live:])
            assert all(s == 0 for s in seq.segments[live:])
            assert seq.attn_mask == tuple(1 if p < live else 0 for p in range(max_len))
            # segments: 0 through the first SEP, then 1 until the second
            first_sep = seq.ids.index(tok.SEP_ID)
            assert all(s == 0 for s in seq.segments[: first_sep + 1])
            assert all(s == 1 for s in seq.segments[first_sep + 1 : live])


def decode(ids, vocab):
    """Space-joined words of an encoded row, read back through the vocabulary
    with every special token (UNK included) dropped."""
    tokens = [vocab.token(int(token_id)) for token_id in ids]
    return " ".join(token for token in tokens if token not in tok.SPECIAL_TOKENS)


class TestDecode:
    """Encoding keeps every in-vocabulary word's id, in order, and adds only
    special tokens around them."""

    def test_omits_specials(self, vocab):
        seq = tok.encode_pair("strap top", "cap", vocab, max_len=10)
        assert decode(seq.ids, vocab) == "strap top cap"

    def test_unknown_ids_dropped_like_other_specials(self, vocab):
        seq = tok.encode_single("zebra top", vocab, max_len=5)
        assert seq.ids[1] == tok.UNK_ID
        assert decode(seq.ids, vocab) == "top"

    def test_out_of_range_id_rejected(self, vocab):
        with pytest.raises(IdOutOfRangeError):
            vocab.token(len(vocab))
        with pytest.raises(IdOutOfRangeError):
            vocab.token(-1)

    def test_cls_sep_only_is_empty(self, vocab):
        seq = tok.encode_single("", vocab, max_len=4)
        assert decode(seq.ids, vocab) == ""

    def test_round_trip_for_in_vocab_text(self, vocab):
        for text in ["strap top vest", "cap", "", "dress moon"]:
            seq = tok.encode_single(text, vocab, max_len=8)
            assert decode(seq.ids, vocab) == text
            pair = tok.encode_pair(text, "cap", vocab, max_len=8)
            assert decode(pair.ids, vocab) == f"{text} cap".strip()


class TestTokenBatch:
    def test_stack_round_trips_sequences(self, vocab):
        seqs = [
            tok.encode_single("strap top", vocab, 8),
            tok.encode_pair("cap moon", "strap dress", vocab, 8),
            tok.encode_single("", vocab, 8),
        ]
        batch = tok.TokenBatch.stack(seqs, 8)
        assert len(batch) == 3 and batch.max_len == 8
        assert batch.ids.dtype == np.int32
        assert batch.segments.dtype == np.int8
        assert batch.attn_mask.dtype == bool
        assert [batch.sequence(i) for i in range(3)] == seqs

    def test_encode_batch_matches_encode_single(self, vocab):
        texts = ["strap top vest top", "cap", "unknown words here", "top top"]
        batch = tok.encode_batch(texts, vocab, 6)
        for row, text in enumerate(texts):
            assert batch.sequence(row) == tok.encode_single(text, vocab, 6)

    def test_stack_of_nothing_keeps_width(self):
        batch = tok.TokenBatch.stack([], 5)
        assert len(batch) == 0 and batch.max_len == 5

    def test_stack_rejects_other_lengths(self, vocab):
        with pytest.raises(ValueError):
            tok.TokenBatch.stack([tok.encode_single("cap", vocab, 5)], 6)

    def test_rows_select_and_concat(self, vocab):
        batch = tok.encode_batch(["strap", "cap", "top", "vest"], vocab, 5)
        picked = batch[np.array([3, 1])]
        assert [picked.sequence(i) for i in range(2)] == [batch.sequence(3), batch.sequence(1)]
        joined = tok.TokenBatch.concat(batch[:1], picked)
        assert len(joined) == 3
        assert joined.sequence(2) == batch.sequence(1)
