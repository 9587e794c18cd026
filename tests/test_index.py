import hashlib
import re
import threading
from datetime import date
from types import SimpleNamespace

import numpy as np
import pytest

from titlerec import corpus
from titlerec import encoder as enc
from titlerec import index as ix
from titlerec import objectives as obj
from titlerec.corpus import PreparedArticle
from titlerec.errors import (
    ArtifactFormatError,
    DegenerateEmbeddingError,
    EmptyCorpusError,
    InsufficientCandidatesError,
    KTooLargeError,
)
from titlerec.tokenizer import build_vocab, encode_single

from conftest import (
    Boom,
    PassSpy,
    encode_id_pairs,
    popular_rows,
    profiles_by_customer,
    served_ids,
    zeroed_params,
)
from synth import purchase_log, write_planted_inputs


def small_world():
    words = [f"w{i:02d}" for i in range(6)]
    articles = [
        PreparedArticle(f"{i:010d}", " ".join(words[i : i + 2]), 2) for i in range(5)
    ]
    vocab = build_vocab(articles)  # 5 specials + 6 words = 11 ids
    return articles, vocab


def unit_index(ids, vectors):
    """The catalog of ``ids``, in ascending order as ingest sorts it, and the
    index of their normalized vectors, one row per catalog row."""
    order = sorted(range(len(ids)), key=ids.__getitem__)
    v = np.asarray(vectors, dtype=np.float64)[order]
    index = ix.EmbeddingIndex(v / np.linalg.norm(v, axis=1, keepdims=True))
    return tuple(ids[i] for i in order), index


def random_index(n, dim, rng):
    ids = tuple(f"{int(i):010d}" for i in rng.choice(10**7, size=n, replace=False))
    return unit_index(ids, rng.normal(size=(n, dim)))


def vector_of(catalog, index, article_id):
    return index.vectors[catalog.index(article_id)]


def knn(index, query, k):
    """The index's k nearest rows to a query, through the selection serving runs."""
    columns, scores = ix.top_rows((index.vectors @ query)[None], k)
    assert columns.shape == scores.shape == (1, k)
    return columns[0].tolist()


def full_sort(sims, article_ids):
    """Reference: every row by a full sort on (similarity desc, article id asc)."""
    return sorted(range(len(sims)), key=lambda i: (-sims[i], article_ids[i]))


def brute_force_knn(catalog, index, query, k):
    return full_sort(index.vectors @ query, catalog)[:k]


def embed_one(params, article, vocab):
    """An article's vector from a one-article index."""
    return ix.build_index([article], params, vocab).vectors[0]


class TestEmbedArticle:
    def test_unit_norm_and_determinism(self, tiny_params):
        articles, vocab = small_world()
        first = embed_one(tiny_params, articles[0], vocab)
        again = embed_one(tiny_params, articles[0], vocab)
        assert abs(np.linalg.norm(first) - 1.0) < 1e-6
        assert np.array_equal(first, again)

    def test_identical_text_identical_vector(self, tiny_params):
        _, vocab = small_world()
        a = PreparedArticle("0000000101", "w00 w01", 2)
        b = PreparedArticle("0000000202", "w00 w01", 2)
        index = ix.build_index([a, b], tiny_params, vocab)
        assert np.array_equal(index.vectors[0], index.vectors[1])

    def test_self_cosine_is_one(self, tiny_params):
        articles, vocab = small_world()
        vec = embed_one(tiny_params, articles[2], vocab)
        assert abs(float(vec @ vec) - 1.0) < 1e-12

    def test_degenerate_embedding_rejected(self, tiny_config):
        articles, vocab = small_world()
        params = zeroed_params(tiny_config)
        with pytest.raises(DegenerateEmbeddingError):
            embed_one(params, articles[0], vocab)


class TestBuildIndex:
    def test_rows_track_input_order(self, tiny_params):
        articles, vocab = small_world()
        index = ix.build_index(articles, tiny_params, vocab)
        assert len(index) == len(articles)
        for row, article in enumerate(articles):
            # a row's vector does not depend on the other articles of its pass
            assert np.array_equal(index.vectors[row], embed_one(tiny_params, article, vocab))

    def test_rebuild_bit_identical(self, tiny_params):
        articles, vocab = small_world()
        first = ix.build_index(articles, tiny_params, vocab)
        second = ix.build_index(articles, tiny_params, vocab)
        assert np.array_equal(first.vectors, second.vectors)

    def test_non_unit_rows_rejected(self):
        for row in ([2.0, 0.0], [np.nan, 0.0], [1e300, 0.0]):
            with pytest.raises(ValueError, match="unit length"):
                ix.EmbeddingIndex(np.array([[0.0, 1.0], row]))

    def test_empty_input_rejected(self, tiny_params):
        _, vocab = small_world()
        with pytest.raises(EmptyCorpusError):
            ix.build_index([], tiny_params, vocab)


def ragged_world():
    """Titles of four live lengths (3, 5, 7 and a truncated 10 = max_len),
    interleaved in input order, with one repeated title; params perturbed
    off their init so every layer matters."""
    words = [f"w{i:02d}" for i in range(12)]
    sizes = (1, 3, 5, 9)
    articles = [
        PreparedArticle(
            f"{i:010d}",
            " ".join(words[(i + j) % 12] for j in range(sizes[i % 4])),
            sizes[i % 4],
        )
        for i in range(26)
    ]
    articles.append(PreparedArticle("0000000099", articles[5].text, articles[5].text_len))
    vocab = build_vocab(articles)
    config = enc.EncoderConfig(
        vocab_size=len(vocab), d_model=8, n_heads=2, n_layers=2, d_ff=12, max_len=10
    )
    params = enc.init_params(config, seed=4)
    rng = np.random.default_rng(4)
    for name in params.tensors:
        params[name][...] = params[name] + rng.normal(0.0, 0.3, params[name].shape)
    return articles, vocab, params


def full_width_vectors(articles, params, vocab):
    """Reference: every title through one forward at max_len, PAD keys
    masked, mean over the live positions (the arithmetic before length
    grouping)."""
    batch = encode_single([vocab.word_ids(a.text) for a in articles], params.config.max_len)
    hidden = enc.forward(params, batch, record=False).hidden_states
    mask = batch.attn_mask.astype(np.float64)
    pooled = (hidden * mask[:, :, None]).sum(axis=1) / mask.sum(axis=1)[:, None]
    return pooled / np.linalg.norm(pooled, axis=1, keepdims=True)


class TestLengthGroupedPasses:
    @pytest.fixture(autouse=True)
    def small_passes(self, monkeypatch):
        # 8 rows of 3 tokens, 2 rows of 10: every length needs several passes
        monkeypatch.setattr(enc, "PASS_TOKEN_BUDGET", 24)

    def test_row_equals_one_article_index(self):
        articles, vocab, params = ragged_world()
        rows = encode_single([vocab.word_ids(a.text) for a in articles], 10)
        lengths = rows.attn_mask.sum(axis=1)
        assert set(lengths.tolist()) == {3, 5, 7, 10}
        index = ix.build_index(articles, params, vocab)
        assert len(index) == len(articles)
        for row, article in enumerate(articles):
            alone = embed_one(params, article, vocab)
            assert np.array_equal(index.vectors[row], alone), article.article_id
        # the last article repeats the title of row 5
        assert np.array_equal(index.vectors[-1], index.vectors[5])

    def test_rows_within_tolerance_of_full_width(self):
        articles, vocab, params = ragged_world()
        index = ix.build_index(articles, params, vocab)
        reference = full_width_vectors(articles, params, vocab)
        assert np.abs(index.vectors - reference).max() <= 1e-15

    def test_knn_matches_full_width(self):
        """Every rank holds the reference's article, or one whose reference
        similarity ties it within 1e-15: vectors 1 ulp apart may order such
        near-ties (and BLAS may split exact ones) either way."""
        articles, vocab, params = ragged_world()
        index = ix.build_index(articles, params, vocab)
        catalog = tuple(a.article_id for a in articles)
        reference = ix.EmbeddingIndex(full_width_vectors(articles, params, vocab))
        for row in range(len(index)):
            sims = reference.vectors @ reference.vectors[row]
            for k in (1, 5, len(index)):
                got = knn(index, index.vectors[row], k)
                want = brute_force_knn(catalog, reference, reference.vectors[row], k)
                for g, w in zip(got, want, strict=True):
                    assert abs(sims[g] - sims[w]) <= 1e-15


class TestEmbeddingTraffic:
    def test_passes_embed_no_pad_and_training_keeps_max_len(self, tmp_path, monkeypatch):
        paths = write_planted_inputs(tmp_path)
        articles = corpus.prepare_articles(corpus.load_articles(paths["articles_path"]))
        vocab = build_vocab(articles)
        config = enc.EncoderConfig(
            vocab_size=len(vocab), d_model=8, n_heads=2, n_layers=1, d_ff=8, max_len=16
        )
        params = enc.init_params(config, seed=0)
        passes = []
        real_forward = enc.forward

        def spy(params, rows, *args, **kwargs):
            passes.append(rows)
            return real_forward(params, rows, *args, **kwargs)

        monkeypatch.setattr(enc, "forward", spy)
        ix.build_index(articles, params, vocab)
        assert len({p.max_len for p in passes}) > 1
        for rows in passes:
            assert np.all(rows.attn_mask.sum(axis=1) == rows.max_len)
            assert len(rows) * rows.max_len <= enc.PASS_TOKEN_BUDGET
        assert sum(len(rows) for rows in passes) == len(articles)

        passes.clear()
        rng = np.random.default_rng(0)
        rows = encode_single([vocab.word_ids(a.text) for a in articles[:8]], config.max_len)
        masked = obj.mask_titles(rows, vocab, rng)
        titles = {a.article_id: a.text for a in articles}
        pairs = [(articles[i].article_id, articles[-1 - i].article_id, i % 2) for i in range(8)]
        pair_batch = encode_id_pairs(pairs, titles, vocab, config.max_len)
        obj.train_step(params, obj.init_optimizer(params), masked, pair_batch)
        assert passes and all(rows.max_len == config.max_len for rows in passes)


def allow_helper(monkeypatch, cpus=2, min_passes=1):
    monkeypatch.setattr(ix, "HELPER_MIN_PASSES", min_passes)
    monkeypatch.setattr(ix, "usable_cpus", lambda: cpus)


def live_rows(articles, vocab, max_len):
    """Each article's encoded row cut to its live length, as bytes."""
    batch = encode_single([vocab.word_ids(a.text) for a in articles], max_len)
    return [ids[:live].tobytes() for ids, live in zip(batch.ids, batch.attn_mask.sum(axis=1))]


class TestHelperThread:
    @pytest.fixture(autouse=True)
    def odd_plan(self, monkeypatch):
        # ragged_world's 7, 8, 6 and 6 rows of widths 3, 5, 7 and 10, at 10,
        # 6, 4 and 3 rows a pass, run in 1 + 2 + 2 + 2 = 7 passes
        monkeypatch.setattr(enc, "PASS_TOKEN_BUDGET", 30)

    def test_two_threads_give_the_bytes_of_one(self, monkeypatch):
        articles, vocab, params = ragged_world()
        allow_helper(monkeypatch, cpus=1)
        alone = PassSpy(monkeypatch)
        one = ix.build_index(articles, params, vocab)
        assert alone.threads() == {False}
        assert len(alone.passes) == 7
        assert len({ids.shape[1] for _, ids in alone.passes}) == 4
        rows = sorted(alone.rows_embedded())

        allow_helper(monkeypatch, cpus=2)
        shared = PassSpy(monkeypatch, meet=True)
        two = ix.build_index(articles, params, vocab)
        assert shared.threads() == {False, True}
        assert sorted(shared.rows_embedded()) == rows
        assert two.vectors.tobytes() == one.vectors.tobytes()

    def test_helper_needs_the_pass_threshold_and_a_second_cpu(self, monkeypatch):
        articles, vocab, params = ragged_world()
        for cpus, min_passes, threads in [(2, 7, {False, True}), (2, 8, {False}), (1, 1, {False})]:
            allow_helper(monkeypatch, cpus, min_passes)
            spy = PassSpy(monkeypatch, meet=len(threads) == 2)
            ix.build_index(articles, params, vocab)
            assert spy.threads() == threads, (cpus, min_passes)

    def test_default_threshold_keeps_a_short_plan_on_one_thread(self, monkeypatch):
        articles, vocab, params = ragged_world()
        monkeypatch.setattr(ix, "usable_cpus", lambda: 2)
        spy = PassSpy(monkeypatch)
        ix.build_index(articles, params, vocab)
        assert len(spy.passes) < ix.HELPER_MIN_PASSES
        assert spy.threads() == {False}

    def test_caller_runs_every_pass_when_no_thread_starts(self, monkeypatch):
        articles, vocab, params = ragged_world()
        allow_helper(monkeypatch, cpus=1)
        one = ix.build_index(articles, params, vocab)

        def refuse(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        allow_helper(monkeypatch, cpus=2)
        spy = PassSpy(monkeypatch)
        index = ix.build_index(articles, params, vocab)
        assert spy.threads() == {False}
        assert len(spy.passes) == 7
        assert index.vectors.tobytes() == one.vectors.tobytes()

    @pytest.mark.parametrize("error", [Boom, KeyboardInterrupt])
    def test_helper_failure_raised_by_the_caller(self, monkeypatch, error):
        articles, vocab, params = ragged_world()
        allow_helper(monkeypatch)

        def act(on_helper, rows, trace):
            if on_helper:
                raise error("in the helper")
            spy.helper.join(timeout=10)  # the caller's pass outlasts the helper
            return trace

        spy = PassSpy(monkeypatch, meet=True, act=act)
        before = threading.active_count()
        with pytest.raises(error, match="in the helper"):
            ix.build_index(articles, params, vocab)
        assert threading.active_count() == before
        # the caller took no pass after the one it was running
        assert [on_helper for on_helper, _ in spy.passes] == [False]

    @pytest.mark.parametrize("error", [Boom, KeyboardInterrupt])
    def test_caller_failure_stops_the_helper(self, monkeypatch, error):
        articles, vocab, params = ragged_world()
        allow_helper(monkeypatch)
        raising = threading.Event()

        def act(on_helper, rows, trace):
            if not on_helper:
                raising.set()
                raise error("in the caller")
            raising.wait(timeout=10)
            return trace

        spy = PassSpy(monkeypatch, meet=True, act=act)
        before = threading.active_count()
        with pytest.raises(error, match="in the caller"):
            ix.build_index(articles, params, vocab)
        assert threading.active_count() == before
        # the helper ends the pass it was running and at most one more, if
        # the caller lost the GIL between raising and recording the failure
        assert spy.threads() == {True}
        assert len(spy.passes) <= 2

    def test_degenerate_row_from_the_helper_named_in_input_order(self, monkeypatch):
        articles, vocab, params = ragged_world()
        # one article per title, so a row's bytes name one article
        articles = list({a.text: a for a in reversed(articles)}.values())[::-1]
        allow_helper(monkeypatch)

        def act(on_helper, rows, trace):
            if on_helper:
                return SimpleNamespace(hidden_states=np.zeros_like(trace.hidden_states))
            return trace

        spy = PassSpy(monkeypatch, meet=True, act=act)
        with pytest.raises(DegenerateEmbeddingError) as raised:
            ix.build_index(articles, params, vocab)
        zeroed = set(spy.rows_embedded(on_helper=True))
        rows = live_rows(articles, vocab, params.config.max_len)
        first = next(a for a, row in zip(articles, rows) if row in zeroed)
        assert str(raised.value).startswith(f"article {first.article_id}: embedding norm 0.0")

    def test_interrupted_join_stops_the_helper_and_joins_it(self, monkeypatch):
        articles, vocab, params = ragged_world()
        allow_helper(monkeypatch)
        interrupted = threading.Event()
        real_join = threading.Thread.join
        joins = []

        def join(thread, timeout=None):
            joins.append(thread)
            if len(joins) == 1 and thread is spy.helper:
                interrupted.set()
                raise KeyboardInterrupt("while waiting for the helper")
            return real_join(thread, timeout)

        def act(on_helper, rows, trace):
            if on_helper:
                interrupted.wait(timeout=10)  # the helper is mid-pass at the interrupt
            return trace

        monkeypatch.setattr(threading.Thread, "join", join)
        spy = PassSpy(monkeypatch, meet=True, act=act)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt, match="while waiting for the helper"):
            ix.build_index(articles, params, vocab)
        assert interrupted.is_set()
        assert joins == [spy.helper, spy.helper]
        assert not spy.helper.is_alive()
        assert threading.active_count() == before




class TestQueryKnn:
    """``top_rows`` over an index's similarities to a query: the exact k
    nearest rows, ties broken by ascending article id, as a full sort."""

    def test_self_retrieval(self):
        rng = np.random.default_rng(0)
        _, index = random_index(40, 8, rng)
        for row in range(0, len(index), 7):
            (top,) = knn(index, index.vectors[row], 1)
            assert top == row
            assert abs(index.vectors[top] @ index.vectors[row] - 1.0) < 1e-6

    def test_orthogonal_query_orders_by_id(self):
        ids = ["0000000004", "0000000002", "0000000009", "0000000001"]
        catalog, index = unit_index(ids, np.eye(5)[:4])
        rows = knn(index, np.eye(5)[4], 3)
        assert [catalog[row] for row in rows] == [
            "0000000001", "0000000002", "0000000004"
        ]
        assert np.all(index.vectors[rows] @ np.eye(5)[4] == 0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 80))
            dim = int(rng.integers(2, 17))
            catalog, index = random_index(n, dim, rng)
            query = rng.normal(size=dim)
            query /= np.linalg.norm(query)
            k = int(rng.integers(1, n + 1))
            assert knn(index, query, k) == brute_force_knn(catalog, index, query, k)

    def test_boundary_ties_resolve_by_id(self):
        # three identical vectors tie at the k=2 boundary
        base = np.array([1.0, 0.0])
        ids = ["0000000007", "0000000003", "0000000005", "0000000001"]
        vectors = [base, base, base, [0.0, 1.0]]
        catalog, index = unit_index(ids, vectors)
        rows = knn(index, base, 2)
        assert [catalog[row] for row in rows] == ["0000000003", "0000000005"]
        assert rows == brute_force_knn(catalog, index, base, 2)


def purchases_of(pairs, catalog=None):
    """The purchase log of (customer, article) pairs, all on one day, coded
    into the catalog's ids when it is given, as an ingested log is."""
    return purchase_log(
        ((date(2020, 9, 1), customer, article) for customer, article in pairs), catalog
    )


def profile_of(catalog, index, pairs, customer="u"):
    """The customer's profile from the serving pass's grouping, or None."""
    return profiles_by_customer(purchases_of(pairs, catalog), index).get(customer)


def serve_one(catalog, index, pairs, popularity, n=12, customer="u"):
    """One customer's picks through the serving pass."""
    (picks,) = served_ids([customer], purchases_of(pairs, catalog), index, popularity, n)
    return list(picks)


def bought_ids(catalog, profile):
    return {catalog[row] for row in profile.rows}


def per_customer_profile(catalog, index, purchased):
    """Reference: the per-customer arithmetic, by article id."""
    mean = np.mean([vector_of(catalog, index, a) for a in sorted(purchased)], axis=0)
    norm = float(np.linalg.norm(mean))
    return None if norm < ix.NORM_FLOOR else mean / norm


class TestCustomerProfile:
    def test_single_purchase_copies_row(self):
        catalog, index = unit_index(["0000000001", "0000000002"], [[3.0, 4.0], [0.0, 1.0]])
        profile = profile_of(catalog, index, [("u", "0000000001")])
        assert bought_ids(catalog, profile) == {"0000000001"}
        assert np.allclose(profile.vector, vector_of(catalog, index, "0000000001"))
        assert abs(np.linalg.norm(profile.vector) - 1.0) < 1e-9

    def test_no_purchases_gives_absent_vector(self):
        catalog, index = unit_index(["0000000001"], [[1.0, 0.0]])
        assert profile_of(catalog, index, []) is None
        # served like any customer without a profile
        assert serve_one(catalog, index, [], ["0000000001"], n=1) == ["0000000001"]

    def test_unindexed_purchases_ignored(self):
        # joining the log to the catalog (the ids of the index's rows) drops such a purchase
        catalog, index = unit_index(["0000000001"], [[1.0, 0.0]])
        log = purchases_of([("u", "0000000099")]).of_articles(catalog)
        assert len(log) == 0 and log.article_ids == catalog
        assert ix.customer_profiles(log, index).owners.tolist() == []

    def test_log_over_other_articles_refused(self):
        _, index = unit_index(["0000000001"], [[1.0, 0.0]])
        log = purchases_of([("u", "0000000099"), ("u", "0000000098")])
        with pytest.raises(ValueError, match="article table has 2 ids, the index 1 rows"):
            ix.customer_profiles(log, index)

    def test_other_customers_ignored(self):
        catalog, index = unit_index(["0000000001", "0000000002"], np.eye(2))
        profile = profile_of(catalog, index, [("u", "0000000001"), ("v", "0000000002")])
        assert bought_ids(catalog, profile) == {"0000000001"}

    def test_duplicate_purchases_counted_once(self):
        catalog, index = unit_index(["0000000001", "0000000002"], np.eye(2))
        profile = profile_of(
            catalog, index, [("u", "0000000001"), ("u", "0000000001"), ("u", "0000000002")]
        )
        expected = (index.vectors[0] + index.vectors[1]) / 2.0
        assert np.allclose(profile.vector, expected / np.linalg.norm(expected))

    def test_cancelling_purchases_degenerate(self):
        catalog, index = unit_index(["0000000001", "0000000002"], [[1.0, 0.0], [-1.0, 0.0]])
        profile = profile_of(catalog, index, [("u", "0000000001"), ("u", "0000000002")])
        assert profile.vector is None
        assert bought_ids(catalog, profile) == {"0000000001", "0000000002"}

    def test_rows_in_ascending_id_order_and_bit_identical(self):
        rng = np.random.default_rng(4)
        catalog, index = random_index(60, 7, rng)
        pairs = [
            (f"c{c}", catalog[int(i)])
            for c in range(40)
            for i in rng.integers(0, 60, size=int(rng.integers(1, 9)))
        ]
        profiles = profiles_by_customer(purchases_of(pairs, catalog), index)
        assert len(profiles) == 40
        for customer, profile in profiles.items():
            purchased = {a for c, a in pairs if c == customer}
            ids = [catalog[row] for row in profile.rows]
            assert ids == sorted(purchased)
            assert np.array_equal(
                profile.vector, per_customer_profile(catalog, index, purchased)
            )


def spread_index(n, dim=6, seed=3):
    rng = np.random.default_rng(seed)
    return random_index(n, dim, rng)


class TestRecommend:
    def test_planted_duplicate_ranks_first_and_purchase_excluded(self):
        shared = np.array([0.6, 0.8, 0.0])
        ids = ["0000000001", "0000000002", "0000000003", "0000000004"]
        vectors = [shared, shared, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        catalog, index = unit_index(ids, vectors)
        result = serve_one(catalog, index, [("u", "0000000001")], popularity=[], n=3)
        assert result[0] == "0000000002"
        assert "0000000001" not in result
        assert len(result) == 3

    def test_cold_start_takes_popularity_head(self):
        catalog, index = spread_index(30)
        popularity = sorted(catalog, reverse=True)
        assert serve_one(catalog, index, [], popularity) == popularity[:12]

    def test_degenerate_profile_takes_popularity_head(self):
        catalog, index = unit_index(
            ["0000000001", "0000000002", "0000000003"],
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],
        )
        pairs = [("u", "0000000001"), ("u", "0000000002")]
        popularity = ["0000000002", "0000000003", "0000000001"]
        assert serve_one(catalog, index, pairs, popularity, n=3) == popularity

    def test_contract_twelve_distinct_valid_ids(self):
        catalog, index = spread_index(40)
        bought = {catalog[0], catalog[5]}
        result = serve_one(catalog, index, [("u", a) for a in bought], list(catalog))
        assert len(result) == 12
        assert len(set(result)) == 12
        assert all(re.fullmatch(r"[0-9]{10}", a) for a in result)
        assert not set(result) & bought

    def test_popularity_outside_the_index_is_never_served(self):
        catalog, index = unit_index(["0000000001", "0000000002", "0000000003"], np.eye(3))
        # popularity is index rows, so it cannot name an article outside the index
        popularity = ["0000000003"]
        log = purchases_of([("warm", "0000000001")], catalog)
        # cold takes the popularity head, then ascending ids; warm's two
        # unpurchased rows tie and order by id
        assert served_ids(["cold", "warm"], log, index, popularity, 2) == [
            ("0000000003", "0000000001"),
            ("0000000002", "0000000003"),
        ]
        # no id outside the index fills a short row
        with pytest.raises(InsufficientCandidatesError, match="only 2 of 3 .* for warm"):
            ix.serve(["warm"], log, index, popular_rows(catalog, popularity), 3)
        with pytest.raises(InsufficientCandidatesError, match="only 3 of 4 .* for cold"):
            ix.serve(["cold"], log, index, popular_rows(catalog, popularity), 4)

    def test_catalog_extension_after_popularity_runs_out(self):
        catalog, index = spread_index(15)
        result = serve_one(catalog, index, [], popularity=[], n=12)
        assert result == sorted(catalog)[:12]

    def test_insufficient_candidates(self):
        catalog, index = unit_index(["0000000001", "0000000002"], np.eye(2))
        with pytest.raises(InsufficientCandidatesError):
            serve_one(catalog, index, [], popularity=["0000000001"], n=12)

    def test_deterministic(self):
        catalog, index = spread_index(50)
        pairs = [("u", catalog[3])]
        first = serve_one(catalog, index, pairs, list(catalog))
        second = serve_one(catalog, index, pairs, list(catalog))
        assert first == second


def full_sort_serve(customers, pairs, catalog, index, popularity, n):
    """Reference serving: per customer, a full sort of every row on
    (similarity desc, article id asc), purchases dropped, then popularity
    ids the index holds and the catalog in ascending-id order; customers
    without a profile vector take those with nothing dropped. None marks a
    customer left with fewer than ``n`` candidates."""
    served = []
    for customer in customers:
        purchased = {a for c, a in pairs if c == customer and a in catalog}
        vector = per_customer_profile(catalog, index, purchased) if purchased else None
        if vector is None:
            ranked, excluded = [], set()
        else:
            order = full_sort(index.vectors @ vector, catalog)
            ranked, excluded = [catalog[i] for i in order], purchased
        popular = [a for a in popularity if a in catalog]
        picks = []
        for article_id in ranked + popular + sorted(catalog):
            if article_id not in excluded and article_id not in picks:
                picks.append(article_id)
        served.append(tuple(picks[:n]) if len(picks) >= n else None)
    return served


def tied_index(rng, n_rows, dim):
    """A random unit index in which some rows repeat others exactly and some
    negate others, so exact ties and cancelling profiles occur."""
    vectors = rng.normal(size=(n_rows, dim))
    for row in range(1, n_rows):
        draw = rng.random()
        if draw < 0.3:
            vectors[row] = vectors[int(rng.integers(0, row))]
        elif draw < 0.4:
            vectors[row] = -vectors[int(rng.integers(0, row))]
    ids = tuple(f"{int(i):010d}" for i in rng.choice(10**6, size=n_rows, replace=False))
    return unit_index(ids, vectors)


class TestServe:
    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(11)
        degenerate = short = 0
        for _ in range(60):
            ids, index = tied_index(rng, int(rng.integers(2, 40)), int(rng.integers(2, 6)))
            n = int(rng.integers(1, 13))
            pairs = []
            for c in range(12):
                for i in rng.integers(0, len(ids), size=int(rng.integers(0, 6))):
                    pairs.append((f"c{c:02d}", ids[int(i)]))
            # c12-c14 are never seen in the log
            customers = [f"c{c:02d}" for c in range(15)]
            popularity = list(rng.permutation(ids))[: int(rng.integers(0, 12))]
            expected = full_sort_serve(customers, pairs, ids, index, popularity, n)
            log = purchases_of(pairs, ids)
            degenerate += int((~ix.customer_profiles(log, index).usable).sum())
            if None in expected:
                short += 1
                with pytest.raises(InsufficientCandidatesError):
                    ix.serve(customers, log, index, popular_rows(ids, popularity), n)
            else:
                assert served_ids(customers, log, index, popularity, n) == expected
        # the draws reach cancelling profiles and short candidate lists too
        assert degenerate > 0 and short > 0

    def test_boundary_ties_and_purchases_on_both_sides(self):
        base = [1.0, 0.0, 0.0]
        ids = ["0000000007", "0000000003", "0000000005", "0000000001", "0000000009",
               "0000000002", "0000000004"]
        vectors = [base, base, base, base, [1.0, 0.2, 0.0], [1.0, -0.2, 0.0], [0.0, 0.0, 1.0]]
        catalog, index = unit_index(ids, vectors)
        # the profile points along base, so four rows tie at the top; the
        # purchase 0000000003 sits inside that tie, 0000000009 and 0000000002
        # tie just below it, at the k = n + 3 boundary for n = 2
        pairs = [("u", "0000000003"), ("u", "0000000009"), ("u", "0000000002")]
        popularity = ["0000000004"]
        for n in range(1, 5):
            expected = full_sort_serve(["u"], pairs, catalog, index, popularity, n)[0]
            assert tuple(serve_one(catalog, index, pairs, popularity, n)) == expected
        assert serve_one(catalog, index, pairs, popularity, n=3) == [
            "0000000001", "0000000005", "0000000007"
        ]

    def test_small_index_backfills_popularity_then_ascending_ids(self):
        ids, index = spread_index(6, dim=3)
        pairs = [("u", ids[1]), ("u", ids[4])]
        popularity = [ids[4], ids[5]]
        # 6 rows = n + 2 purchases: u gets the four unpurchased rows; v,
        # never seen, gets popularity and then the catalog in ascending-id order
        log = purchases_of(pairs, ids)
        warm, cold = served_ids(["u", "v"], log, index, popularity, 4)
        assert sorted(warm) == [ids[0], ids[2], ids[3], ids[5]]
        assert cold == (ids[4], ids[5], ids[0], ids[1])
        assert [warm, cold] == full_sort_serve(["u", "v"], pairs, ids, index, popularity, 4)
        with pytest.raises(InsufficientCandidatesError, match="only 4 of 5 .* for u"):
            ix.serve(["u", "v"], log, index, popular_rows(ids, popularity), 5)

    def test_insufficient_candidates_names_customer(self):
        catalog, index = unit_index(["0000000001", "0000000002", "0000000003"], np.eye(3))
        pairs = [("a", "0000000001"), ("b", "0000000002"), ("b", "0000000003")]
        # a still has two unpurchased rows; b has one, one short of n = 2
        picks = serve_one(catalog, index, pairs, [], n=2, customer="a")
        assert picks == ["0000000002", "0000000003"]
        with pytest.raises(InsufficientCandidatesError, match="for b"):
            ix.serve(["a", "b"], purchases_of(pairs, catalog), index, [], 2)

    def test_n_below_one_rejected(self):
        catalog, index = unit_index(["0000000001"], [[1.0]])
        for n in (0, -1):
            with pytest.raises(KTooLargeError):
                ix.serve(["u"], purchases_of([], catalog), index, [], n)


class TestPopularityRanking:
    def test_count_then_id(self):
        log = purchases_of([("a", "0000000002"), ("b", "0000000002"), ("c", "0000000001")])
        ranking = [log.article_ids[code] for code in ix.popularity_ranking(log)]
        assert ranking == ["0000000002", "0000000001"]

    def test_all_tied_is_ascending(self):
        log = purchases_of([("a", "0000000009"), ("b", "0000000001"), ("c", "0000000005")])
        assert [log.article_ids[code] for code in ix.popularity_ranking(log)] == [
            "0000000001",
            "0000000005",
            "0000000009",
        ]

    def test_empty(self):
        assert ix.popularity_ranking(purchases_of([])) == []


# the sha256 hex digests of the checkpoint and prepared-articles file a
# test's saved index names
DIGESTS = ("ab" * 32, "cd" * 32)


class TestPersistence:
    def saved(self, tmp_path, n, dim):
        """A spread index saved over its catalog: the catalog, the index and
        the file's path."""
        catalog, index = spread_index(n, dim)
        path = tmp_path / "index.bin"
        ix.save_index(index, catalog, path, DIGESTS)
        return catalog, index, path

    @staticmethod
    def payload_start(catalog):
        return len(ix.INDEX_MAGIC) + 9 + len(ix.METRIC_TAG) + 10 * len(catalog)

    def test_round_trip_bit_exact(self, tmp_path):
        catalog, index, path = self.saved(tmp_path, 17, 5)
        loaded = ix.load_index(path, catalog, 5, DIGESTS)
        assert np.array_equal(loaded.vectors, index.vectors)

    def test_missing_file(self, tmp_path):
        assert ix.load_index(tmp_path / "index.bin", ("0000000001",), 3, DIGESTS) is None

    def test_bad_magic(self, tmp_path):
        catalog, _, path = self.saved(tmp_path, 4, 3)
        path.write_bytes(b"WRONGMAG" + path.read_bytes()[8:])
        assert ix.load_index(path, catalog, 3, DIGESTS) is None

    def test_truncation(self, tmp_path):
        catalog, _, path = self.saved(tmp_path, 9, 4)
        blob = path.read_bytes()
        # in the header, in the payload (the source block is 104 bytes), in the block
        for end in (12, len(blob) - 104 - 11, len(blob) - 1):
            path.write_bytes(blob[:end])
            assert ix.load_index(path, catalog, 4, DIGESTS) is None

    def test_wrong_metric_tag(self, tmp_path):
        catalog, _, path = self.saved(tmp_path, 4, 3)
        blob = bytearray(path.read_bytes())
        offset = len(ix.INDEX_MAGIC) + 9  # first byte of the metric tag
        blob[offset : offset + 6] = b"volume"
        path.write_bytes(bytes(blob))
        assert ix.load_index(path, catalog, 3, DIGESTS) is None

    def test_source_block_round_trip(self, tmp_path):
        catalog, index, path = self.saved(tmp_path, 6, 4)
        blob = path.read_bytes()
        # the block trails the TRECIDX1 layout and ends with the payload's digest
        payload = blob[self.payload_start(catalog) : -104]
        assert payload == index.vectors.astype("<f8").tobytes()
        block = ix.SOURCE_MAGIC + b"\xab" * 32 + b"\xcd" * 32 + hashlib.sha256(payload).digest()
        assert blob.endswith(block)
        assert len(blob) == 8 + 9 + 6 + 10 * 6 + 8 * 6 * 4 + len(block)
        assert ix.load_index(path, catalog, 4, DIGESTS) is not None
        # another checkpoint or text, another catalog or width is not this index
        for digests in (("ef" * 32, "cd" * 32), ("ab" * 32, "ef" * 32)):
            assert ix.load_index(path, catalog, 4, digests) is None
        assert ix.load_index(path, catalog[:-1], 4, DIGESTS) is None
        assert ix.load_index(path, (*catalog[:-1], "9999999999"), 4, DIGESTS) is None
        assert ix.load_index(path, catalog, 3, DIGESTS) is None

    def test_flipped_payload_bit_that_keeps_rows_unit(self, tmp_path):
        catalog, index, path = self.saved(tmp_path, 6, 4)
        blob = bytearray(path.read_bytes())
        blob[self.payload_start(catalog) + 8 * 5] ^= 1  # row 1's lowest mantissa bit
        flipped = np.frombuffer(bytes(blob), "<f8", 24, self.payload_start(catalog))
        assert np.all(np.abs(np.linalg.norm(flipped.reshape(6, 4), axis=1) - 1) <= 1e-6)
        path.write_bytes(bytes(blob))
        assert ix.load_index(path, catalog, 4, DIGESTS) is None

    def test_non_unit_row_under_its_own_digest(self, tmp_path):
        # not a file save_index writes, though its block matches its payload
        catalog, index, path = self.saved(tmp_path, 3, 2)
        payload = (2 * index.vectors).astype("<f8").tobytes()
        head = path.read_bytes()[: self.payload_start(catalog)]
        block = ix.SOURCE_MAGIC + b"\xab" * 32 + b"\xcd" * 32 + hashlib.sha256(payload).digest()
        path.write_bytes(head + payload + block)
        assert ix.load_index(path, catalog, 2, DIGESTS) is None

    @pytest.mark.parametrize(
        "catalog", [("0000000001",), ("0000000001", "000000002"), ("0000000001", "000000000é")],
        ids=["fewer", "short", "non-ascii"],
    )
    def test_ids_must_label_every_row(self, tmp_path, catalog):
        _, index = unit_index(["0000000001", "0000000002"], np.eye(2))
        with pytest.raises(ArtifactFormatError, match="10 ascii characters"):
            ix.save_index(index, catalog, tmp_path / "index.bin", DIGESTS)
        assert not (tmp_path / "index.bin").exists()


def twins_ordered(picks, twins):
    """Whether the ``twins`` that appear in ``picks`` sit side by side in
    ascending id order."""
    places = [i for i, article_id in enumerate(picks) if article_id in twins]
    found = [picks[i] for i in places]
    return not places or (places[-1] - places[0] == len(places) - 1 and found == sorted(found))


class TestMatrixAlignment:
    """The matrices serving multiplies start on a 64-byte boundary, whatever
    address malloc gave (see ``index.MATRIX_ALIGNMENT``)."""

    def test_built_loaded_and_twin_matrices_start_on_64_bytes(self, tiny_params, tmp_path):
        articles, vocab = small_world()
        built = ix.build_index(articles, tiny_params, vocab)
        catalog = tuple(a.article_id for a in articles)
        ix.save_index(built, catalog, tmp_path / "index.bin", DIGESTS)
        loaded = ix.load_index(tmp_path / "index.bin", catalog, tiny_params.config.d_model, DIGESTS)
        twins, _ = TestTwins().tail_twin_index()[1].twins
        for matrix in (built.vectors, loaded.vectors, twins):
            assert matrix.__array_interface__["data"][0] % 64 == 0
            assert matrix.dtype == np.float64 and matrix.flags.c_contiguous
        assert np.array_equal(loaded.vectors, built.vectors)


class TestTwins:
    """Identical index rows share one similarity and tie by id, wherever
    BLAS puts them."""

    def tail_twin_index(self):
        # 2001 rows: the copy of row 0 lands in the last ``rows mod 4`` rows,
        # which OpenBLAS's dgemv rounds differently
        rng = np.random.default_rng(21)
        vectors = rng.normal(size=(2001, 32))
        vectors[2000] = vectors[0]
        ids = [f"{i + 10:010d}" for i in range(2001)]
        return unit_index(ids, vectors)

    def test_tail_twin_scores_once(self):
        _, index = self.tail_twin_index()
        queries = np.random.default_rng(22).normal(size=(200, 32))
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        sims = ix.similarities(index, queries)
        assert np.array_equal(sims[:, 0], sims[:, 2000])
        # every other row keeps the bits of the plain matrix-vector product
        distinct = np.delete(index.vectors, 2000, axis=0)
        assert np.array_equal(np.delete(sims, 2000, axis=1)[7], distinct @ queries[7])

    def test_tail_twins_served_by_id(self):
        catalog, index = self.tail_twin_index()
        customers = [f"c{i:03d}" for i in range(60)]
        pairs = [(c, catalog[100 + i]) for i, c in enumerate(customers)]
        served = served_ids(customers, purchases_of(pairs, catalog), index, [], len(index) - 1)
        # each customer gets every other row, so both twins, adjacent and by id
        assert all(twins_ordered(p, {"0000000010", "0000002010"}) for p in served)

    def test_ragged_reference_rows_5_and_26(self):
        articles, vocab, params = ragged_world()
        index = ix.build_index(articles, params, vocab)
        # titles repeat every 12 articles, and row 26 repeats row 5's title:
        # rows 5, 17 and 26 are one vector, and 24 to 26 are BLAS's tail rows
        position = index.twins[1]
        assert position[26] == position[17] == position[5]
        sims = ix.similarities(index, index.vectors)
        assert np.array_equal(sims[:, 5], sims[:, 26])
        customers = [a.article_id for a in articles]
        pairs = [(a.article_id, a.article_id) for a in articles]
        served = served_ids(customers, purchases_of(pairs, tuple(customers)), index, [], 26)
        for group in set(position.tolist()):
            twins = {customers[row] for row in np.flatnonzero(position == group).tolist()}
            assert all(twins_ordered(picks, twins) for picks in served), twins

    def test_distinct_rows_score_with_the_plain_product(self):
        _, index = spread_index(50, dim=7)
        assert index.twins is None
        queries = index.vectors[:9]
        expected = np.stack([index.vectors @ query for query in queries])
        assert np.array_equal(ix.similarities(index, queries), expected)

    def test_signed_zeros_are_twins(self):
        index = ix.EmbeddingIndex(np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, 0.0]]))
        distinct, position = index.twins
        assert position.tolist() == [0, 0, 1]
        assert np.array_equal(distinct, [[0.0, 1.0], [1.0, 0.0]])


def loop_serve(customers, log, index, popularity, n):
    """Reference: a per-customer serving loop.

    A customer with a usable profile takes a full sort of their own
    similarities, drops their purchases and backfills from the popularity
    ids the index holds and then the catalog in ascending-id order; every
    other customer gets the popularity head so extended. Raises
    InsufficientCandidatesError at the first customer left short, in input
    order.
    """
    profiles = profiles_by_customer(log, index)
    catalog = log.article_ids
    row_of = {a: i for i, a in enumerate(catalog)}
    by_id = sorted(range(len(index)), key=catalog.__getitem__)
    backfill = [row_of[a] for a in popularity if a in row_of] + by_id
    served = []
    for customer in customers:
        profile = profiles.get(customer)
        picks, excluded = [], set()
        if profile is not None and profile.vector is not None:
            excluded = set(profile.rows.tolist())
            sims = ix.similarities(index, profile.vector[None])[0]
            ranked = full_sort(sims, catalog)
            picks = [row for row in ranked if row not in excluded][:n]
        for row in backfill:
            if len(picks) == n:
                break
            if row not in picks and row not in excluded:
                picks.append(row)
        if len(picks) < n:
            raise InsufficientCandidatesError(
                f"only {len(picks)} of {n} candidates available for {customer}"
            )
        served.append(tuple(catalog[row] for row in picks))
    return served


def interleaved_customers(rng, catalog, index, count, spare=0):
    """``count`` customers in a shuffled order, with their purchases: some
    never seen, some with cancelling (degenerate) purchases, some who bought
    all but ``spare`` to ``spare + 3`` rows of the index, the rest a few rows."""
    ids = list(catalog)
    opposite = {}
    for i, vector in enumerate(index.vectors):
        for j in range(i):
            if np.array_equal(index.vectors[j], -vector):
                opposite[ids[i]] = ids[j]
    pairs, customers = [], []
    for c in range(count):
        customer = f"c{c:04d}"
        customers.append(customer)
        kind = rng.random()
        if kind < 0.15:
            continue  # never seen
        if kind < 0.25 and opposite:
            a = list(opposite)[int(rng.integers(0, len(opposite)))]
            bought = [a, opposite[a]]
        elif kind < 0.35:
            left = spare + int(rng.integers(0, 4))
            bought = list(rng.choice(ids, size=max(1, len(ids) - left), replace=False))
        else:
            bought = list(rng.choice(ids, size=int(rng.integers(1, 4))))
        pairs += [(customer, a) for a in bought]
    order = rng.permutation(count)
    return [customers[i] for i in order], pairs


class TestBlockSelection:
    """Block selection equals the per-customer loop it replaced."""

    def check(self, rng, n_rows, dim, customers, n, spare=0):
        catalog, index = tied_index(rng, n_rows, dim)
        customers, pairs = interleaved_customers(rng, catalog, index, customers, spare)
        log = purchases_of(pairs, catalog)
        popularity = list(rng.permutation(list(catalog)))[: int(rng.integers(0, 8))]
        warm = int(ix.customer_profiles(log, index).usable.sum())
        try:
            expected = loop_serve(customers, log, index, popularity, n)
        except InsufficientCandidatesError as exc:
            with pytest.raises(InsufficientCandidatesError) as caught:
                ix.serve(customers, log, index, popular_rows(catalog, popularity), n)
            assert str(caught.value) == str(exc)
            return "short", warm
        assert served_ids(customers, log, index, popularity, n) == expected
        return "served", warm

    def test_small_blocks_match_the_loop(self, monkeypatch):
        rng = np.random.default_rng(31)
        outcomes = []
        for _ in range(80):
            n_rows = int(rng.integers(2, 30))
            # a block holds one to four customers
            monkeypatch.setattr(ix, "BLOCK_SCORES", n_rows * int(rng.integers(1, 5)))
            n = int(rng.integers(1, 16))  # at times more than the index holds
            # those who bought nearly everything keep n - 1 to n + 2 rows, so
            # some are one short and some are served
            outcomes.append(self.check(rng, n_rows, int(rng.integers(2, 6)), 25, n, n - 1)[0])
        assert outcomes.count("short") > 5 and outcomes.count("served") > 5

    def test_more_warm_customers_than_one_block_holds(self):
        rng = np.random.default_rng(32)
        outcome, warm = self.check(rng, 30, 4, 1500, 5, spare=5)
        assert outcome == "served" and warm > ix.BLOCK_SCORES // 30

    def test_first_short_customer_named_in_input_order(self):
        catalog, index = unit_index(["0000000001", "0000000002", "0000000003"], np.eye(3))
        log = purchases_of([("warm", "0000000001"), ("warm", "0000000002")], catalog)
        # the cold head has 3 candidates, warm keeps 1: warm is short at n = 2
        # and both are short at n = 4, where the first in input order is named
        for customers, n, named in (
            (["cold", "warm"], 2, "only 1 of 2 candidates available for warm"),
            (["warm", "cold"], 4, "only 1 of 4 candidates available for warm"),
            (["cold", "warm"], 4, "only 3 of 4 candidates available for cold"),
        ):
            with pytest.raises(InsufficientCandidatesError) as caught:
                ix.serve(customers, log, index, [], n)
            assert str(caught.value) == named
            with pytest.raises(InsufficientCandidatesError, match=named):
                loop_serve(customers, log, index, [], n)
