import re
from datetime import date

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
    DuplicateArticleIdError,
    InsufficientCandidatesError,
    KTooLargeError,
)
from titlerec.tokenizer import build_vocab, encode_batch, encode_single

from conftest import encode_id_pairs, zeroed_params
from synth import purchase_log, write_planted_inputs


def small_world():
    words = [f"w{i:02d}" for i in range(6)]
    articles = [
        PreparedArticle(f"{i:010d}", " ".join(words[i : i + 2]), 2) for i in range(5)
    ]
    vocab = build_vocab(articles)  # 5 specials + 6 words = 11 ids
    return articles, vocab


def unit_index(ids, vectors):
    v = np.asarray(vectors, dtype=np.float64)
    return ix.EmbeddingIndex(tuple(ids), v / np.linalg.norm(v, axis=1, keepdims=True))


def random_index(n, dim, rng):
    ids = tuple(f"{int(i):010d}" for i in rng.choice(10**7, size=n, replace=False))
    return unit_index(ids, rng.normal(size=(n, dim)))


def brute_force_knn(index, query, k):
    """Reference: full sort on (similarity desc, article id asc)."""
    sims = index.vectors @ query
    order = sorted(range(len(index)), key=lambda i: (-sims[i], index.article_ids[i]))
    return [
        ix.NeighborResult(index.article_ids[i], float(np.clip(sims[i], -1.0, 1.0)))
        for i in order[:k]
    ]


def embed_one(params, article, vocab, pooling="mean"):
    """An article's vector from a one-article index."""
    return ix.build_index([article], params, vocab, pooling).vectors[0]


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
        assert np.array_equal(index.row(a.article_id), index.row(b.article_id))

    def test_self_cosine_is_one(self, tiny_params):
        articles, vocab = small_world()
        vec = embed_one(tiny_params, articles[2], vocab)
        assert abs(float(vec @ vec) - 1.0) < 1e-12

    def test_cls_pooling_differs_from_mean(self, tiny_params):
        articles, vocab = small_world()
        mean = embed_one(tiny_params, articles[0], vocab, pooling="mean")
        cls = embed_one(tiny_params, articles[0], vocab, pooling="cls")
        assert not np.allclose(mean, cls)

    def test_degenerate_embedding_rejected(self, tiny_config):
        articles, vocab = small_world()
        params = zeroed_params(tiny_config)
        with pytest.raises(DegenerateEmbeddingError):
            embed_one(params, articles[0], vocab)

    def test_unknown_pooling_rejected(self, tiny_params):
        articles, vocab = small_world()
        with pytest.raises(ValueError):
            embed_one(tiny_params, articles[0], vocab, pooling="max")


class TestBuildIndex:
    def test_rows_track_input_order(self, tiny_params):
        articles, vocab = small_world()
        index = ix.build_index(articles, tiny_params, vocab)
        assert len(index) == len(articles)
        assert index.article_ids == tuple(a.article_id for a in articles)
        assert index.norm_flag
        for article in articles:
            # a row's vector does not depend on the other articles of its pass
            assert np.array_equal(
                index.row(article.article_id), embed_one(tiny_params, article, vocab)
            )

    def test_rebuild_bit_identical(self, tiny_params):
        articles, vocab = small_world()
        first = ix.build_index(articles, tiny_params, vocab)
        second = ix.build_index(articles, tiny_params, vocab)
        assert np.array_equal(first.vectors, second.vectors)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateArticleIdError):
            unit_index(["0000000001", "0000000001"], np.eye(2))

    def test_non_unit_rows_rejected(self):
        with pytest.raises(ValueError):
            ix.EmbeddingIndex(("0000000001",), np.array([[2.0, 0.0]]))

    def test_empty_input_rejected(self, tiny_params):
        _, vocab = small_world()
        with pytest.raises(ValueError):
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
    for name in params.names():
        params[name][...] = params[name] + rng.normal(0.0, 0.3, params[name].shape)
    return articles, vocab, params


def full_width_vectors(articles, params, vocab, pooling):
    """Reference: every title through one forward at max_len, PAD keys
    masked, mean over the live positions (the arithmetic before length
    grouping)."""
    batch = encode_batch([a.text for a in articles], vocab, params.config.max_len)
    hidden = enc.forward(params, batch, record=False).hidden_states
    if pooling == "cls":
        pooled = hidden[:, 0]
    else:
        mask = batch.attn_mask.astype(np.float64)
        pooled = (hidden * mask[:, :, None]).sum(axis=1) / mask.sum(axis=1)[:, None]
    return pooled / np.linalg.norm(pooled, axis=1, keepdims=True)


@pytest.mark.parametrize("pooling", ["mean", "cls"])
class TestLengthGroupedPasses:
    @pytest.fixture(autouse=True)
    def small_passes(self, monkeypatch):
        # 8 rows of 3 tokens, 2 rows of 10: every length needs several passes
        monkeypatch.setattr(enc, "PASS_TOKEN_BUDGET", 24)

    def test_row_equals_one_article_index(self, pooling):
        articles, vocab, params = ragged_world()
        lengths = encode_batch([a.text for a in articles], vocab, 10).attn_mask.sum(axis=1)
        assert set(lengths.tolist()) == {3, 5, 7, 10}
        index = ix.build_index(articles, params, vocab, pooling)
        assert index.article_ids == tuple(a.article_id for a in articles)
        for row, article in enumerate(articles):
            alone = ix.build_index([article], params, vocab, pooling).vectors[0]
            assert np.array_equal(index.vectors[row], alone), article.article_id
        assert np.array_equal(index.row("0000000099"), index.row(articles[5].article_id))

    def test_rows_within_tolerance_of_full_width(self, pooling):
        articles, vocab, params = ragged_world()
        index = ix.build_index(articles, params, vocab, pooling)
        reference = full_width_vectors(articles, params, vocab, pooling)
        assert np.abs(index.vectors - reference).max() <= 1e-15

    def test_knn_matches_full_width(self, pooling):
        """Every rank holds the reference's article, or one whose reference
        similarity ties it within 1e-15: vectors 1 ulp apart may order such
        near-ties (and BLAS may split exact ones) either way."""
        articles, vocab, params = ragged_world()
        index = ix.build_index(articles, params, vocab, pooling)
        reference = ix.EmbeddingIndex(
            index.article_ids, full_width_vectors(articles, params, vocab, pooling)
        )
        for row in range(len(index)):
            sim_of = dict(zip(reference.article_ids, reference.vectors @ reference.vectors[row]))
            for k in (1, 5, len(index)):
                got = ix.query_knn(index, index.vectors[row], k)
                want = ix.query_knn(reference, reference.vectors[row], k)
                for g, w in zip(got, want, strict=True):
                    assert abs(sim_of[g.article_id] - sim_of[w.article_id]) <= 1e-15


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
        masked = [
            obj.apply_masking(
                encode_single(vocab.word_ids(a.text), config.max_len), vocab, rng
            )
            for a in articles[:8]
        ]
        titles = {a.article_id: a.text for a in articles}
        pairs = [(articles[i].article_id, articles[-1 - i].article_id, i % 2) for i in range(8)]
        pair_batch = encode_id_pairs(pairs, titles, vocab, config.max_len)
        obj.train_step(params, obj.init_optimizer(params), masked, pair_batch)
        assert passes and all(rows.max_len == config.max_len for rows in passes)


class TestQueryKnn:
    def test_self_retrieval(self):
        rng = np.random.default_rng(0)
        index = random_index(40, 8, rng)
        for article_id in index.article_ids[::7]:
            (top,) = ix.query_knn(index, index.row(article_id), 1)
            assert top.article_id == article_id
            assert abs(top.similarity - 1.0) < 1e-6

    def test_orthogonal_query_orders_by_id(self):
        ids = ["0000000004", "0000000002", "0000000009", "0000000001"]
        index = unit_index(ids, np.eye(5)[:4])
        results = ix.query_knn(index, np.eye(5)[4], 3)
        assert [r.article_id for r in results] == ["0000000001", "0000000002", "0000000004"]
        assert all(r.similarity == 0.0 for r in results)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 80))
            dim = int(rng.integers(2, 17))
            index = random_index(n, dim, rng)
            query = rng.normal(size=dim)
            query /= np.linalg.norm(query)
            k = int(rng.integers(1, n + 1))
            assert ix.query_knn(index, query, k) == brute_force_knn(index, query, k)

    def test_boundary_ties_resolve_by_id(self):
        # three identical vectors tie at the k=2 boundary
        base = np.array([1.0, 0.0])
        ids = ["0000000007", "0000000003", "0000000005", "0000000001"]
        vectors = [base, base, base, [0.0, 1.0]]
        index = unit_index(ids, vectors)
        results = ix.query_knn(index, base, 2)
        assert [r.article_id for r in results] == ["0000000003", "0000000005"]
        assert ix.query_knn(index, base, 2) == brute_force_knn(index, base, 2)

    def test_similarity_reported_within_bounds(self):
        rng = np.random.default_rng(2)
        index = random_index(20, 4, rng)
        for row in (0, 7, 13):
            results = ix.query_knn(index, index.vectors[row], len(index))
            assert all(-1.0 <= r.similarity <= 1.0 for r in results)

    def test_k_bounds(self):
        index = unit_index(["0000000001", "0000000002"], np.eye(2))
        with pytest.raises(KTooLargeError):
            ix.query_knn(index, np.array([1.0, 0.0]), 3)
        with pytest.raises(KTooLargeError):
            ix.query_knn(index, np.array([1.0, 0.0]), 0)


def purchases_of(pairs):
    """The purchase log of (customer, article) pairs, all on one day."""
    return purchase_log((date(2020, 9, 1), customer, article) for customer, article in pairs)


def profile_of(index, pairs, customer="u"):
    """The customer's profile from the serving pass's grouping, or None."""
    return ix.customer_profiles(purchases_of(pairs), index).get(customer)


def serve_one(index, pairs, popularity, n=12, customer="u"):
    """One customer's picks through the serving pass."""
    (picks,) = ix.serve([customer], purchases_of(pairs), index, popularity, n)
    return list(picks)


def bought_ids(index, profile):
    return {index.article_ids[row] for row in profile.rows}


def per_customer_profile(index, purchased):
    """Reference: the per-customer arithmetic, by article id."""
    mean = np.mean([index.row(a) for a in sorted(purchased)], axis=0)
    norm = float(np.linalg.norm(mean))
    return None if norm < ix.NORM_FLOOR else mean / norm


class TestCustomerProfile:
    def test_single_purchase_copies_row(self):
        index = unit_index(["0000000001", "0000000002"], [[3.0, 4.0], [0.0, 1.0]])
        profile = profile_of(index, [("u", "0000000001")])
        assert bought_ids(index, profile) == {"0000000001"}
        assert np.allclose(profile.vector, index.row("0000000001"))
        assert abs(np.linalg.norm(profile.vector) - 1.0) < 1e-9

    def test_no_purchases_gives_absent_vector(self):
        index = unit_index(["0000000001"], [[1.0, 0.0]])
        assert profile_of(index, []) is None
        # served like any customer without a profile
        assert serve_one(index, [], ["0000000001"], n=1) == ["0000000001"]

    def test_unindexed_purchases_ignored(self):
        index = unit_index(["0000000001"], [[1.0, 0.0]])
        assert profile_of(index, [("u", "0000000099")]) is None

    def test_other_customers_ignored(self):
        index = unit_index(["0000000001", "0000000002"], np.eye(2))
        profile = profile_of(index, [("u", "0000000001"), ("v", "0000000002")])
        assert bought_ids(index, profile) == {"0000000001"}

    def test_duplicate_purchases_counted_once(self):
        index = unit_index(["0000000001", "0000000002"], np.eye(2))
        profile = profile_of(
            index, [("u", "0000000001"), ("u", "0000000001"), ("u", "0000000002")]
        )
        expected = (index.row("0000000001") + index.row("0000000002")) / 2.0
        assert np.allclose(profile.vector, expected / np.linalg.norm(expected))

    def test_cancelling_purchases_degenerate(self):
        index = unit_index(["0000000001", "0000000002"], [[1.0, 0.0], [-1.0, 0.0]])
        profile = profile_of(index, [("u", "0000000001"), ("u", "0000000002")])
        assert profile.vector is None
        assert bought_ids(index, profile) == {"0000000001", "0000000002"}

    def test_rows_in_ascending_id_order_and_bit_identical(self):
        rng = np.random.default_rng(4)
        index = random_index(60, 7, rng)
        pairs = [
            (f"c{c}", index.article_ids[int(i)])
            for c in range(40)
            for i in rng.integers(0, 60, size=int(rng.integers(1, 9)))
        ]
        profiles = ix.customer_profiles(purchases_of(pairs), index)
        assert len(profiles) == 40
        for customer, profile in profiles.items():
            purchased = {a for c, a in pairs if c == customer}
            ids = [index.article_ids[row] for row in profile.rows]
            assert ids == sorted(purchased)
            assert np.array_equal(profile.vector, per_customer_profile(index, purchased))


def spread_index(n, dim=6, seed=3):
    rng = np.random.default_rng(seed)
    return random_index(n, dim, rng)


class TestRecommend:
    def test_planted_duplicate_ranks_first_and_purchase_excluded(self):
        shared = np.array([0.6, 0.8, 0.0])
        ids = ["0000000001", "0000000002", "0000000003", "0000000004"]
        vectors = [shared, shared, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        index = unit_index(ids, vectors)
        result = serve_one(index, [("u", "0000000001")], popularity=[], n=3)
        assert result[0] == "0000000002"
        assert "0000000001" not in result
        assert len(result) == 3

    def test_cold_start_takes_popularity_head(self):
        index = spread_index(30)
        popularity = sorted(index.article_ids, reverse=True)
        assert serve_one(index, [], popularity) == popularity[:12]

    def test_degenerate_profile_takes_popularity_head(self):
        index = unit_index(
            ["0000000001", "0000000002", "0000000003"],
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],
        )
        pairs = [("u", "0000000001"), ("u", "0000000002")]
        popularity = ["0000000002", "0000000003", "0000000001"]
        assert serve_one(index, pairs, popularity, n=3) == popularity

    def test_contract_twelve_distinct_valid_ids(self):
        index = spread_index(40)
        bought = {index.article_ids[0], index.article_ids[5]}
        result = serve_one(index, [("u", a) for a in bought], list(index.article_ids))
        assert len(result) == 12
        assert len(set(result)) == 12
        assert all(re.fullmatch(r"[0-9]{10}", a) for a in result)
        assert not set(result) & bought

    def test_popularity_backfill_when_index_is_small(self):
        index = unit_index(
            ["0000000001", "0000000002"], [[1.0, 0.0], [0.0, 1.0]]
        )
        popularity = [f"{i:010d}" for i in range(20, 2, -1)]
        result = serve_one(index, [("u", "0000000001")], popularity, n=5)
        # one surviving neighbor, then popularity order, never the purchase
        assert result == ["0000000002"] + popularity[:4]
        assert "0000000001" not in result

    def test_catalog_extension_after_popularity_runs_out(self):
        index = spread_index(15)
        result = serve_one(index, [], popularity=[], n=12)
        assert result == sorted(index.article_ids)[:12]

    def test_insufficient_candidates(self):
        index = unit_index(["0000000001", "0000000002"], np.eye(2))
        with pytest.raises(InsufficientCandidatesError):
            serve_one(index, [], popularity=["0000000001"], n=12)

    def test_deterministic(self):
        index = spread_index(50)
        pairs = [("u", index.article_ids[3])]
        first = serve_one(index, pairs, list(index.article_ids))
        second = serve_one(index, pairs, list(index.article_ids))
        assert first == second


def full_sort_serve(customers, pairs, index, popularity, n):
    """Reference serving: per customer, a full sort of every row on
    (similarity desc, article id asc), purchases dropped, then popularity
    and the catalog in ascending-id order; customers without a profile
    vector take popularity and the catalog with nothing dropped. None
    marks a customer left with fewer than ``n`` candidates."""
    served = []
    for customer in customers:
        purchased = {a for c, a in pairs if c == customer and a in index}
        vector = per_customer_profile(index, purchased) if purchased else None
        if vector is None:
            ranked, excluded = [], set()
        else:
            sims = index.vectors @ vector
            order = sorted(range(len(index)), key=lambda i: (-sims[i], index.article_ids[i]))
            ranked, excluded = [index.article_ids[i] for i in order], purchased
        picks = []
        for article_id in ranked + list(popularity) + sorted(index.article_ids):
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
            index = tied_index(rng, int(rng.integers(2, 40)), int(rng.integers(2, 6)))
            ids = list(index.article_ids)
            unindexed = [f"{int(i):010d}" for i in rng.choice(10**6, 4) + 10**6]
            n = int(rng.integers(1, 13))
            pairs = []
            for c in range(12):
                pool = ids + unindexed[:2]
                for i in rng.integers(0, len(pool), size=int(rng.integers(0, 6))):
                    pairs.append((f"c{c:02d}", pool[int(i)]))
            # c12-c14 are never seen in the log
            customers = [f"c{c:02d}" for c in range(15)]
            popularity = list(rng.permutation(ids + unindexed[2:]))[: int(rng.integers(0, 12))]
            expected = full_sort_serve(customers, pairs, index, popularity, n)
            degenerate += sum(
                p.vector is None
                for p in ix.customer_profiles(purchases_of(pairs), index).values()
            )
            if None in expected:
                short += 1
                with pytest.raises(InsufficientCandidatesError):
                    ix.serve(customers, purchases_of(pairs), index, popularity, n)
            else:
                assert ix.serve(customers, purchases_of(pairs), index, popularity, n) == expected
        # the draws reach cancelling profiles and short candidate lists too
        assert degenerate > 0 and short > 0

    def test_boundary_ties_and_purchases_on_both_sides(self):
        base = [1.0, 0.0, 0.0]
        ids = ["0000000007", "0000000003", "0000000005", "0000000001", "0000000009",
               "0000000002", "0000000004"]
        vectors = [base, base, base, base, [1.0, 0.2, 0.0], [1.0, -0.2, 0.0], [0.0, 0.0, 1.0]]
        index = unit_index(ids, vectors)
        # the profile points along base, so four rows tie at the top; the
        # purchase 0000000003 sits inside that tie, 0000000009 and 0000000002
        # tie just below it, at the k = n + 3 boundary for n = 2
        pairs = [("u", "0000000003"), ("u", "0000000009"), ("u", "0000000002")]
        popularity = ["0000000004"]
        for n in range(1, 5):
            expected = full_sort_serve(["u"], pairs, index, popularity, n)[0]
            assert tuple(serve_one(index, pairs, popularity, n)) == expected
        assert serve_one(index, pairs, popularity, n=3) == [
            "0000000001", "0000000005", "0000000007"
        ]

    def test_small_index_backfills_popularity_then_ascending_ids(self):
        index = spread_index(6, dim=3)
        ids = sorted(index.article_ids)
        pairs = [("u", ids[1]), ("u", ids[4])]
        popularity = [ids[4], ids[5], "0000000000"]
        # 6 rows < n + 2 purchases: u gets the four unpurchased rows, then
        # popularity less the purchase and the rows already taken; v, never
        # seen, gets popularity and then the catalog in ascending-id order
        warm, cold = ix.serve(["u", "v"], purchases_of(pairs), index, popularity, 5)
        assert sorted(warm[:4]) == [ids[0], ids[2], ids[3], ids[5]]
        assert warm[4] == "0000000000"
        assert cold == (ids[4], ids[5], "0000000000", ids[0], ids[1])
        assert [warm, cold] == full_sort_serve(["u", "v"], pairs, index, popularity, 5)

    def test_insufficient_candidates_names_customer(self):
        index = unit_index(["0000000001", "0000000002", "0000000003"], np.eye(3))
        pairs = [("a", "0000000001"), ("b", "0000000002"), ("b", "0000000003")]
        # a still has two unpurchased rows; b has one, one short of n = 2
        assert serve_one(index, pairs, [], n=2, customer="a") == ["0000000002", "0000000003"]
        with pytest.raises(InsufficientCandidatesError, match="for b"):
            ix.serve(["a", "b"], purchases_of(pairs), index, [], 2)

    def test_n_below_one_rejected(self):
        index = unit_index(["0000000001"], [[1.0]])
        with pytest.raises(KTooLargeError):
            ix.serve(["u"], purchases_of([]), index, [], 0)


class TestPopularityRanking:
    def test_count_then_id(self):
        log = purchases_of([("a", "0000000002"), ("b", "0000000002"), ("c", "0000000001")])
        assert ix.popularity_ranking(log) == ["0000000002", "0000000001"]

    def test_all_tied_is_ascending(self):
        log = purchases_of([("a", "0000000009"), ("b", "0000000001"), ("c", "0000000005")])
        assert ix.popularity_ranking(log) == [
            "0000000001",
            "0000000005",
            "0000000009",
        ]

    def test_empty(self):
        assert ix.popularity_ranking(purchases_of([])) == []


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        index = spread_index(17, dim=5)
        path = tmp_path / "index.bin"
        ix.save_index(index, path)
        loaded = ix.load_index(path)
        assert loaded.article_ids == index.article_ids
        assert np.array_equal(loaded.vectors, index.vectors)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "index.bin"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 32)
        with pytest.raises(ArtifactFormatError):
            ix.load_index(path)

    def test_truncation(self, tmp_path):
        index = spread_index(9, dim=4)
        path = tmp_path / "index.bin"
        ix.save_index(index, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-11])
        with pytest.raises(ArtifactFormatError):
            ix.load_index(path)

    def test_trailing_garbage(self, tmp_path):
        index = spread_index(4, dim=3)
        path = tmp_path / "index.bin"
        ix.save_index(index, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ArtifactFormatError):
            ix.load_index(path)

    def test_wrong_metric_tag(self, tmp_path):
        index = spread_index(4, dim=3)
        path = tmp_path / "index.bin"
        ix.save_index(index, path)
        blob = bytearray(path.read_bytes())
        offset = len(ix.INDEX_MAGIC) + 9  # first byte of the metric tag
        blob[offset : offset + 6] = b"volume"
        path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactFormatError):
            ix.load_index(path)

    def test_source_block_round_trip(self, tmp_path):
        index = spread_index(6, dim=4)
        plain_path, sourced_path = tmp_path / "plain.bin", tmp_path / "sourced.bin"
        ix.save_index(index, plain_path)
        source = ix.IndexSource("ab" * 32, "cd" * 32, "cls")
        ix.save_index(ix.EmbeddingIndex(index.article_ids, index.vectors, source), sourced_path)
        assert ix.load_index(plain_path).source is None
        loaded = ix.load_index(sourced_path)
        assert loaded.source == source
        assert np.array_equal(loaded.vectors, index.vectors)
        # the block only trails the TRECIDX1 layout, which stays readable as before
        plain = plain_path.read_bytes()
        assert sourced_path.read_bytes().startswith(plain)

    def test_untracked_text_block_reads_as_unknown_origin(self, tmp_path):
        path = tmp_path / "index.bin"
        index = spread_index(3, dim=2)
        ix.save_index(index, path)
        # the earlier source block: checkpoint sha256 and pooling only
        path.write_bytes(path.read_bytes() + b"TRECSRC1" + b"\xab" * 32 + b"\x04mean")
        loaded = ix.load_index(path)
        assert loaded.source is None
        assert np.array_equal(loaded.vectors, index.vectors)

    def test_unknown_trailing_block_rejected(self, tmp_path):
        path = tmp_path / "index.bin"
        ix.save_index(spread_index(3, dim=2), path)
        path.write_bytes(path.read_bytes() + b"NOTASRC1" + b"\x00" * 40)
        with pytest.raises(ArtifactFormatError):
            ix.load_index(path)
