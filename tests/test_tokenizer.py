import numpy as np
import pytest

from titlerec import tokenizer as tok
from titlerec.corpus import PreparedArticle
from titlerec.errors import ArtifactFormatError, EmptyCorpusError

from conftest import token_rows


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


def rows(batch):
    """Each row of a batch as (ids, segments, live flags) tuples of ints."""
    return list(
        zip(
            map(tuple, batch.ids.tolist()),
            map(tuple, batch.segments.tolist()),
            map(tuple, batch.attn_mask.astype(int).tolist()),
        )
    )


def single(vocab, text, max_len):
    """The one row of a title, as (ids, segments, live flags)."""
    (row,) = rows(tok.encode_single([vocab.word_ids(text)], max_len))
    return row


def pair(vocab, text_a, text_b, max_len):
    """The one row of a title pair, as (ids, segments, live flags)."""
    (row,) = rows(tok.encode_pair([vocab.word_ids(text_a)], [vocab.word_ids(text_b)], max_len))
    return row


class TestEncodeSingle:
    def test_layout(self, vocab):
        batch = tok.encode_single([vocab.word_ids("strap top")], max_len=6)
        assert len(batch) == 1 and batch.max_len == 6
        ids, segments, mask = rows(batch)[0]
        assert ids == (tok.CLS_ID, 7, 5, tok.SEP_ID, 0, 0)
        assert segments == (0, 0, 0, 0, 0, 0)
        assert mask == (1, 1, 1, 1, 0, 0)
        assert sum(mask) == 4

    def test_unknown_word_maps_to_unk(self, vocab):
        ids, _, _ = single(vocab, "zebra", 4)
        assert ids[1] == tok.UNK_ID

    def test_truncates_long_text(self, vocab):
        ids, _, mask = single(vocab, "top top top top top top", 5)
        assert ids == (tok.CLS_ID, 5, 5, 5, tok.SEP_ID)
        assert sum(mask) == 5

    def test_empty_text(self, vocab):
        ids, _, mask = single(vocab, "", 4)
        assert ids == (tok.CLS_ID, tok.SEP_ID, 0, 0)
        assert sum(mask) == 2


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
        ids, segments, mask = pair(vocab, "strap top", "cap", 10)
        assert ids == (tok.CLS_ID, 7, 5, tok.SEP_ID, 6, tok.SEP_ID, 0, 0, 0, 0)
        assert segments == (0, 0, 0, 0, 1, 1, 0, 0, 0, 0)
        assert mask == (1, 1, 1, 1, 1, 1, 0, 0, 0, 0)
        assert sum(mask) == 6

    def test_truncation_budget(self, vocab):
        ids, segments, mask = pair(vocab, "top top top top top", "cap cap cap cap cap", 8)
        # budget 5: (5,5) -> (3,2)
        assert ids == (tok.CLS_ID, 5, 5, 5, tok.SEP_ID, 6, 6, tok.SEP_ID)
        assert segments == (0, 0, 0, 0, 0, 1, 1, 1)
        assert sum(mask) == 8

    def test_empty_sides_still_delimited(self, vocab):
        ids, segments, mask = pair(vocab, "", "", 5)
        assert ids == (tok.CLS_ID, tok.SEP_ID, tok.SEP_ID, 0, 0)
        assert segments == (0, 0, 1, 0, 0)
        assert sum(mask) == 3

    def test_needs_one_second_title_per_first(self, vocab):
        with pytest.raises(ValueError):
            tok.encode_pair([vocab.word_ids("cap")] * 2, [vocab.word_ids("top")], 6)

    def test_random_pairs_respect_invariants(self, vocab):
        rng = np.random.default_rng(7)
        words = ["top", "cap", "strap", "dress", "moon", "vest", "zebra"]
        for _ in range(200):
            text_a = " ".join(rng.choice(words, size=rng.integers(0, 12)))
            text_b = " ".join(rng.choice(words, size=rng.integers(0, 12)))
            max_len = int(rng.integers(5, 14))
            ids, segments, mask = pair(vocab, text_a, text_b, max_len)
            assert len(ids) == max_len
            assert sum(mask) <= max_len
            assert ids[0] == tok.CLS_ID
            assert ids.count(tok.SEP_ID) == 2
            live = sum(mask)
            assert ids[live - 1] == tok.SEP_ID
            assert all(i == tok.PAD_ID for i in ids[live:])
            assert all(s == 0 for s in segments[live:])
            assert mask == tuple(1 if p < live else 0 for p in range(max_len))
            # segments: 0 through the first SEP, then 1 until the second
            first_sep = ids.index(tok.SEP_ID)
            assert all(s == 0 for s in segments[: first_sep + 1])
            assert all(s == 1 for s in segments[first_sep + 1 : live])


def text_encode_single(text, vocab, max_len):
    """The row layout of a single title, encoded straight from its text."""
    word_ids = [vocab.token_to_id.get(w, tok.UNK_ID) for w in text.split()][: max_len - 2]
    ids = [tok.CLS_ID] + word_ids + [tok.SEP_ID]
    n_pad = max_len - len(ids)
    return tuple(ids + [tok.PAD_ID] * n_pad), (0,) * max_len, tuple([1] * len(ids) + [0] * n_pad)


def text_encode_pair(text_a, text_b, vocab, max_len):
    """The row layout of a title pair, encoded straight from its texts."""
    ids_a = [vocab.token_to_id.get(w, tok.UNK_ID) for w in text_a.split()]
    ids_b = [vocab.token_to_id.get(w, tok.UNK_ID) for w in text_b.split()]
    keep_a, keep_b = reference_truncate(len(ids_a), len(ids_b), max_len - 3)
    ids = [tok.CLS_ID] + ids_a[:keep_a] + [tok.SEP_ID] + ids_b[:keep_b] + [tok.SEP_ID]
    n_pad = max_len - len(ids)
    segments = [0] * (keep_a + 2) + [1] * (keep_b + 1) + [0] * n_pad
    return tuple(ids + [tok.PAD_ID] * n_pad), tuple(segments), tuple([1] * len(ids) + [0] * n_pad)


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
                corpus.load_articles(inputs["articles_path"]), corpus.TEXTUAL_COLUMNS
            )
        ]
        texts += ["", " ".join(texts[:3])]
        # the rarest words fall out of the vocabulary, so rows carry UNK ids too
        vocab = tok.build_vocab(prepared(texts), max_size=tok.FIRST_WORD_ID + 12)
        word_ids = [vocab.word_ids(text) for text in texts]
        assert any(tok.UNK_ID in ids for ids in word_ids)
        ties = 0
        for max_len in range(5, 17):
            singles = tok.encode_single(word_ids, max_len)
            expected = [text_encode_single(text, vocab, max_len) for text in texts]
            assert_same_rows(singles, expected)
            firsts, seconds, expected = [], [], []
            for ids_a, text_a in zip(word_ids, texts):
                for ids_b, text_b in zip(word_ids, texts):
                    firsts.append(ids_a)
                    seconds.append(ids_b)
                    expected.append(text_encode_pair(text_a, text_b, vocab, max_len))
                    ties += len(ids_a) == len(ids_b) and 2 * len(ids_a) > max_len - 3
            assert_same_rows(tok.encode_pair(firsts, seconds, max_len), expected)
        assert ties > 100  # truncation ties, which trim the second title


def assert_same_rows(got, expected):
    """A batch holds the expected (ids, segments, live flags) rows, in its
    compact dtypes."""
    assert rows(got) == expected
    want = token_rows(*zip(*expected))
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
        ids, _, _ = pair(vocab, "strap top", "cap", 10)
        assert decode(ids, vocab) == "strap top cap"

    def test_unknown_ids_dropped_like_other_specials(self, vocab):
        ids, _, _ = single(vocab, "zebra top", 5)
        assert ids[1] == tok.UNK_ID
        assert decode(ids, vocab) == "top"

    def test_cls_sep_only_is_empty(self, vocab):
        ids, _, _ = single(vocab, "", 4)
        assert decode(ids, vocab) == ""

    def test_round_trip_for_in_vocab_text(self, vocab):
        for text in ["strap top vest", "cap", "", "dress moon"]:
            assert decode(single(vocab, text, 8)[0], vocab) == text
            assert decode(pair(vocab, text, "cap", 8)[0], vocab) == f"{text} cap".strip()


class TestTokenBatch:
    def test_stack_round_trips_sequences(self, vocab):
        # titles and pairs stacked into one batch keep their rows and dtypes
        titles = tok.encode_single([vocab.word_ids("strap top"), vocab.word_ids("")], 8)
        pairs = tok.encode_pair([vocab.word_ids("cap moon")], [vocab.word_ids("strap dress")], 8)
        batch = tok.TokenBatch.concat(titles, pairs)
        assert len(batch) == 3 and batch.max_len == 8
        assert batch.ids.dtype == np.int32
        assert batch.segments.dtype == np.int8
        assert batch.attn_mask.dtype == bool
        assert rows(batch) == rows(titles) + rows(pairs)

    def test_stack_of_nothing_keeps_width(self):
        # a training step may have no titles or no pairs
        for batch in (tok.encode_single([], 5), tok.encode_pair([], [], 5)):
            assert len(batch) == 0 and batch.max_len == 5

    def test_stack_rejects_other_lengths(self, vocab):
        with pytest.raises(ValueError):
            tok.TokenBatch.concat(
                tok.encode_single([vocab.word_ids("cap")], 5),
                tok.encode_single([vocab.word_ids("cap")], 6),
            )
        with pytest.raises(ValueError):
            tok.TokenBatch(np.zeros((1, 5), np.int32), np.zeros((1, 6), np.int8), np.ones((1, 5)))

    def test_rows_select_and_concat(self, vocab):
        batch = tok.encode_single([vocab.word_ids(t) for t in ("strap", "cap", "top", "vest")], 5)
        picked = batch[np.array([3, 1])]
        assert rows(picked) == [rows(batch)[3], rows(batch)[1]]
        joined = tok.TokenBatch.concat(batch[:1], picked)
        assert len(joined) == 3
        assert rows(joined)[2] == rows(batch)[1]
