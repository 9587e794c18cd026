import numpy as np
import pytest

from titlerec import tokenizer as tok
from titlerec.corpus import PreparedArticle
from titlerec.errors import ArtifactFormatError, EmptyCorpusError


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
        assert vocab.word_ids("top zebra  top") == [5, tok.UNK_ID, 5]
        assert vocab.word_ids("") == []
        assert "top" in vocab.token_to_id and "zebra" not in vocab.token_to_id

    def test_maps_are_inverses(self, vocab):
        for token_id, token in enumerate(vocab.id_to_token):
            assert vocab.token_to_id[token] == token_id

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
        seq = tok.encode_single(vocab.word_ids("strap top"), max_len=6)
        assert seq.ids == (tok.CLS_ID, 7, 5, tok.SEP_ID, 0, 0)
        assert seq.segments == (0, 0, 0, 0, 0, 0)
        assert seq.attn_mask == (1, 1, 1, 1, 0, 0)
        assert sum(seq.attn_mask) == 4
        assert len(seq) == 6

    def test_unknown_word_maps_to_unk(self, vocab):
        seq = tok.encode_single(vocab.word_ids("zebra"), max_len=4)
        assert seq.ids[1] == tok.UNK_ID

    def test_truncates_long_text(self, vocab):
        seq = tok.encode_single(vocab.word_ids("top top top top top top"), max_len=5)
        assert seq.ids == (tok.CLS_ID, 5, 5, 5, tok.SEP_ID)
        assert sum(seq.attn_mask) == 5

    def test_empty_text(self, vocab):
        seq = tok.encode_single(vocab.word_ids(""), max_len=4)
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
        seq = tok.encode_pair(vocab.word_ids("strap top"), vocab.word_ids("cap"), max_len=10)
        assert seq.ids == (tok.CLS_ID, 7, 5, tok.SEP_ID, 6, tok.SEP_ID, 0, 0, 0, 0)
        assert seq.segments == (0, 0, 0, 0, 1, 1, 0, 0, 0, 0)
        assert seq.attn_mask == (1, 1, 1, 1, 1, 1, 0, 0, 0, 0)
        assert sum(seq.attn_mask) == 6

    def test_truncation_budget(self, vocab):
        seq = tok.encode_pair(
            vocab.word_ids("top top top top top"), vocab.word_ids("cap cap cap cap cap"), max_len=8
        )
        # budget 5: (5,5) -> (3,2)
        assert seq.ids == (tok.CLS_ID, 5, 5, 5, tok.SEP_ID, 6, 6, tok.SEP_ID)
        assert seq.segments == (0, 0, 0, 0, 0, 1, 1, 1)
        assert sum(seq.attn_mask) == 8

    def test_empty_sides_still_delimited(self, vocab):
        seq = tok.encode_pair(vocab.word_ids(""), vocab.word_ids(""), max_len=5)
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
            seq = tok.encode_pair(
                vocab.word_ids(text_a), vocab.word_ids(text_b), max_len=max_len
            )
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


def text_encode_single(text, vocab, max_len):
    """The row layout of a single title, encoded straight from its text."""
    word_ids = [vocab.token_to_id.get(w, tok.UNK_ID) for w in text.split()][: max_len - 2]
    ids = [tok.CLS_ID] + word_ids + [tok.SEP_ID]
    n_pad = max_len - len(ids)
    return tok.TokenSequence(
        tuple(ids + [tok.PAD_ID] * n_pad), (0,) * max_len, tuple([1] * len(ids) + [0] * n_pad)
    )


def text_encode_pair(text_a, text_b, vocab, max_len):
    """The row layout of a title pair, encoded straight from its texts."""
    ids_a = [vocab.token_to_id.get(w, tok.UNK_ID) for w in text_a.split()]
    ids_b = [vocab.token_to_id.get(w, tok.UNK_ID) for w in text_b.split()]
    keep_a, keep_b = reference_truncate(len(ids_a), len(ids_b), max_len - 3)
    ids = [tok.CLS_ID] + ids_a[:keep_a] + [tok.SEP_ID] + ids_b[:keep_b] + [tok.SEP_ID]
    n_pad = max_len - len(ids)
    segments = [0] * (keep_a + 2) + [1] * (keep_b + 1) + [0] * n_pad
    return tok.TokenSequence(
        tuple(ids + [tok.PAD_ID] * n_pad), tuple(segments), tuple([1] * len(ids) + [0] * n_pad)
    )


class TestRowsFromWordIds:
    """Rows built from word ids looked up once equal rows encoded from the
    texts, byte for byte, over every ordered pair of the small synthetic
    corpus (plus an empty and a long title) at every max_len from 5 to 16."""

    def test_every_ordered_pair_of_the_synth_corpus(self, tmp_path):
        from titlerec import corpus
        from synth import small_inputs

        inputs = small_inputs(tmp_path)
        texts = [
            article.text
            for article in corpus.prepare_articles(
                corpus.load_articles(inputs["articles_path"]), corpus.DEFAULT_TEXT_COLUMNS
            )
        ]
        texts += ["", " ".join(texts[:3])]
        # the rarest words fall out of the vocabulary, so rows carry UNK ids too
        vocab = tok.build_vocab(prepared(texts), max_size=tok.FIRST_WORD_ID + 12)
        word_ids = [vocab.word_ids(text) for text in texts]
        assert any(tok.UNK_ID in ids for ids in word_ids)
        ties = 0
        for max_len in range(5, 17):
            singles = [tok.encode_single(ids, max_len) for ids in word_ids]
            expected = [text_encode_single(text, vocab, max_len) for text in texts]
            assert singles == expected
            assert_same_rows(singles, expected, max_len)
            pairs, expected = [], []
            for ids_a, text_a in zip(word_ids, texts):
                for ids_b, text_b in zip(word_ids, texts):
                    pairs.append(tok.encode_pair(ids_a, ids_b, max_len))
                    expected.append(text_encode_pair(text_a, text_b, vocab, max_len))
                    ties += len(ids_a) == len(ids_b) and 2 * len(ids_a) > max_len - 3
            assert pairs == expected
            assert_same_rows(pairs, expected, max_len)
        assert ties > 100  # truncation ties, which trim the second title


def assert_same_rows(rows, expected, max_len):
    got, want = tok.TokenBatch.stack(rows, max_len), tok.TokenBatch.stack(expected, max_len)
    for name in ("ids", "segments", "attn_mask"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def decode(ids, vocab):
    """Space-joined words of an encoded row, read back through the vocabulary
    with every special token (UNK included) dropped."""
    tokens = [vocab.id_to_token[int(token_id)] for token_id in ids]
    return " ".join(token for token in tokens if token not in tok.SPECIAL_TOKENS)


class TestDecode:
    """Encoding keeps every in-vocabulary word's id, in order, and adds only
    special tokens around them."""

    def test_omits_specials(self, vocab):
        seq = tok.encode_pair(vocab.word_ids("strap top"), vocab.word_ids("cap"), max_len=10)
        assert decode(seq.ids, vocab) == "strap top cap"

    def test_unknown_ids_dropped_like_other_specials(self, vocab):
        seq = tok.encode_single(vocab.word_ids("zebra top"), max_len=5)
        assert seq.ids[1] == tok.UNK_ID
        assert decode(seq.ids, vocab) == "top"

    def test_cls_sep_only_is_empty(self, vocab):
        seq = tok.encode_single(vocab.word_ids(""), max_len=4)
        assert decode(seq.ids, vocab) == ""

    def test_round_trip_for_in_vocab_text(self, vocab):
        for text in ["strap top vest", "cap", "", "dress moon"]:
            seq = tok.encode_single(vocab.word_ids(text), max_len=8)
            assert decode(seq.ids, vocab) == text
            pair = tok.encode_pair(vocab.word_ids(text), vocab.word_ids("cap"), max_len=8)
            assert decode(pair.ids, vocab) == f"{text} cap".strip()


def sequences(batch):
    """Each row of a batch as a TokenSequence."""
    return [
        tok.TokenSequence(tuple(ids), tuple(segments), tuple(int(live) for live in mask))
        for ids, segments, mask in zip(
            batch.ids.tolist(), batch.segments.tolist(), batch.attn_mask.tolist()
        )
    ]


class TestTokenBatch:
    def test_stack_round_trips_sequences(self, vocab):
        seqs = [
            tok.encode_single(vocab.word_ids("strap top"), 8),
            tok.encode_pair(vocab.word_ids("cap moon"), vocab.word_ids("strap dress"), 8),
            tok.encode_single(vocab.word_ids(""), 8),
        ]
        batch = tok.TokenBatch.stack(seqs, 8)
        assert len(batch) == 3 and batch.max_len == 8
        assert batch.ids.dtype == np.int32
        assert batch.segments.dtype == np.int8
        assert batch.attn_mask.dtype == bool
        assert sequences(batch) == seqs

    def test_encode_batch_matches_encode_single(self, vocab):
        texts = ["strap top vest top", "cap", "unknown words here", "top top"]
        batch = tok.encode_batch(texts, vocab, 6)
        assert sequences(batch) == [tok.encode_single(vocab.word_ids(t), 6) for t in texts]

    def test_stack_of_nothing_keeps_width(self):
        batch = tok.TokenBatch.stack([], 5)
        assert len(batch) == 0 and batch.max_len == 5

    def test_stack_rejects_other_lengths(self, vocab):
        with pytest.raises(ValueError):
            tok.TokenBatch.stack([tok.encode_single(vocab.word_ids("cap"), 5)], 6)

    def test_rows_select_and_concat(self, vocab):
        batch = tok.encode_batch(["strap", "cap", "top", "vest"], vocab, 5)
        picked = batch[np.array([3, 1])]
        assert sequences(picked) == [sequences(batch)[3], sequences(batch)[1]]
        joined = tok.TokenBatch.concat(batch[:1], picked)
        assert len(joined) == 3
        assert sequences(joined)[2] == sequences(batch)[1]
