"""Acceptance suite: one test per release criterion, run with ``pytest -v``.

Each test name states its criterion, so the verbose report reads as a
pass/fail checklist. Numeric tolerances and runtime ceilings are asserted
inside the tests themselves.
"""

import random
import re
import shutil
import time
from datetime import date, timedelta
from fractions import Fraction

import numpy as np
import pytest

from titlerec import cli, corpus, evaluation, objectives
from titlerec import encoder as enc
from titlerec import index as ix
from titlerec.tokenizer import FIRST_WORD_ID, Vocabulary, encode_single

from conftest import (
    central_difference,
    encode_id_pairs,
    grads_agree,
    loss_and_grad_arena,
    random_row,
    random_targets,
    replacement_kinds,
    zeroed_params,
)
from synth import ARTICLE_HEADER, sessions_log, to_csv, write_planted_inputs

PLANTED_FLAGS = [
    "--d-model", "32",
    "--n-heads", "4",
    "--n-layers", "2",
    "--d-ff", "64",
    "--max-len", "16",
    "--epochs", "2",
    "--max-steps", "500",
    "--batch-size", "16",
    "--learning-rate", "1e-3",
    "--seed", "0",
]


def run_pipeline(root, inputs):
    """ingest -> train -> recommend -> evaluate into root/workdir."""
    workdir = root / "workdir"
    base = [
        "--workdir", str(workdir),
        "--articles", str(inputs["articles_path"]),
        "--transactions", str(inputs["transactions_path"]),
        *PLANTED_FLAGS,
    ]
    for command in ("ingest", "train", "recommend", "evaluate"):
        assert cli.main([command] + base) == 0, command
    return workdir


@pytest.fixture(scope="module")
def planted_world(tmp_path_factory):
    """One full pipeline run on the planted-structure corpus."""
    root = tmp_path_factory.mktemp("planted")
    inputs = write_planted_inputs(root)
    started = time.perf_counter()
    workdir = run_pipeline(root, inputs)
    elapsed = time.perf_counter() - started
    return {"root": root, "workdir": workdir, "inputs": inputs, "elapsed": elapsed}


def random_params(config, rng):
    """Seeded init plus noise so no tensor sits at a symmetric point."""
    params = enc.init_params(config, seed=int(rng.integers(10_000)))
    for name in params.tensors:
        params[name][...] = params[name] + rng.normal(0.0, 0.05, size=params[name].shape)
    return params


def test_01_gradients_match_finite_differences():
    started = time.perf_counter()
    shapes = [(8, 2), (8, 4), (16, 2), (16, 4)]
    checked = 0
    for sample in range(100):
        rng = np.random.default_rng(1_000 + sample)
        d_model, n_heads = shapes[sample % len(shapes)]
        config = enc.EncoderConfig(
            vocab_size=int(rng.integers(9, 24)),
            d_model=d_model,
            n_heads=n_heads,
            n_layers=int(rng.integers(1, 3)),
            d_ff=int(rng.integers(10, 33)),
            max_len=int(rng.integers(6, 13)),
        )
        params = random_params(config, rng)
        batch = random_row(config, rng)
        targets = random_targets(config, batch, rng)
        np_labels = [int(rng.integers(0, 2))]
        trace = enc.forward(params, batch)
        _, _, grads = loss_and_grad_arena(params, trace, targets, np_labels)

        names = list(params.tensors)
        name = names[int(rng.integers(0, len(names)))]
        index = int(rng.integers(0, params[name].size))
        analytic = grads[name].reshape(-1)[index]
        numeric = central_difference(params, batch, targets, np_labels, name, index)
        assert grads_agree(analytic, numeric), (
            f"sample {sample}: {name}[{index}] analytic={analytic!r} numeric={numeric!r}"
        )
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 100
    assert elapsed < 120.0, f"gradient check took {elapsed:.1f}s"


def test_02_loss_formula_oracles():
    vocab = Vocabulary(["alpha", "beta", "gamma"])
    config = enc.EncoderConfig(vocab_size=len(vocab), d_model=8, n_heads=2,
                               n_layers=1, d_ff=8, max_len=6)
    seq = encode_single([vocab.word_ids("alpha beta")], config.max_len)
    target = [(0, 1, 5)]
    titles = {"0000000001": "alpha", "0000000002": "beta"}

    def masked_loss(params, row, targets):
        trace = enc.forward(params, row)
        return enc.loss_and_grads(params, trace, targets, [-1])[0]

    def pair_loss(params, pairs):
        encoded = encode_id_pairs(pairs, titles, vocab, config.max_len)
        trace = enc.forward(params, encoded.tokens)
        return enc.loss_and_grads(params, trace, [], encoded.labels)[1]

    # a certain prediction costs nothing
    confident = zeroed_params(config)
    bias = np.zeros(len(vocab))
    bias[5] = 60.0
    confident["mlm_head.bias"][...] = bias
    assert masked_loss(confident, seq, target) == pytest.approx(0.0, abs=1e-9)

    # uniform doubt over four candidates costs ln 4
    uniform4 = zeroed_params(config)
    bias = np.full(len(vocab), -40.0)
    bias[[1, 5, 6, 7]] = 0.0
    uniform4["mlm_head.bias"][...] = bias
    assert masked_loss(uniform4, seq, target) == pytest.approx(np.log(4.0), abs=1e-9)

    # an undecided pair head costs ln 2 per pair
    pairs = [("0000000001", "0000000002", 1), ("0000000001", "0000000002", 0)]
    undecided = zeroed_params(config)
    assert pair_loss(undecided, pairs) == pytest.approx(2.0 * np.log(2.0), abs=1e-9)

    # the masked loss sums position by position
    real = enc.init_params(config, seed=9)
    masked = encode_single([vocab.word_ids("alpha beta gamma")], config.max_len)
    assert masked_loss(real, masked, [(0, 1, 5), (0, 3, 7)]) == pytest.approx(
        masked_loss(real, masked, [(0, 1, 5)]) + masked_loss(real, masked, [(0, 3, 7)]),
        abs=1e-9,
    )

    # saturated pair logits keep the loss, and a training step's total, finite
    saturated = zeroed_params(config)
    no_titles = objectives.mask_titles(
        encode_single([], config.max_len), vocab, np.random.default_rng(0)
    )
    for sign in (1000.0, -1000.0):
        saturated["np_head.bias"][...] = np.array([sign])
        loss = pair_loss(saturated, pairs)
        assert np.isfinite(loss)
        record = objectives.train_step(
            saturated,
            objectives.init_optimizer(saturated, learning_rate=0.0),
            no_titles,
            encode_id_pairs(pairs, titles, vocab, config.max_len),
        )
        assert np.isfinite(record.total)


def test_03_masking_statistics():
    words = [f"word{i:02d}" for i in range(40)]
    vocab = Vocabulary(words)
    rng = np.random.default_rng(42)
    kind_counts = {"mask": 0, "random": 0, "keep": 0}
    total = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 31))
        text = " ".join(words[int(rng.integers(0, len(words)))] for _ in range(n))
        masked = encode_single([vocab.word_ids(text)], max_len=34)
        ids = masked.ids[0].copy()
        targets = objectives.apply_masking(masked, 0, vocab, rng)

        expected = max(1, int(Fraction(3 * n, 20) + Fraction(1, 2)))
        assert len(targets) == expected

        kinds = replacement_kinds(masked.ids[0], targets)
        for (row, position, label), kind in zip(targets.tolist(), kinds):
            assert row == 0
            assert ids[position] == label
            assert label >= FIRST_WORD_ID  # specials are never hidden
            assert masked.ids[0, position] >= FIRST_WORD_ID or kind == "mask"
            kind_counts[kind] += 1
        untouched = set(range(len(ids))) - set(targets[:, 1].tolist())
        assert all(masked.ids[0, i] == ids[i] for i in untouched)
        total += len(targets)

    w = len(words)
    assert kind_counts["mask"] / total == pytest.approx(0.8, abs=0.02)
    assert kind_counts["random"] / total == pytest.approx(0.1 * (1 - 1 / w), abs=0.02)
    assert kind_counts["keep"] / total == pytest.approx(0.1 + 0.1 / w, abs=0.02)


def test_04_pair_sampling_soundness():
    rng = np.random.default_rng(7)
    for fixture in range(1_000):
        n = int(rng.integers(3, 31))
        # the inventory is a log's article table, which ascends
        inventory = sorted(f"{int(rng.integers(0, 10**6)) * 100 + i:010d}" for i in range(n))
        sessions = []
        for j in range(int(rng.integers(1, 6))):
            size = int(rng.integers(1, n))  # never covers the inventory
            members = tuple(
                inventory[int(rng.integers(0, n))] for _ in range(size)
            )
            sessions.append((f"c{j}", date(2020, 1, 1) + timedelta(days=j), members))
        ratio = int(rng.integers(1, 4))
        table = objectives.positive_table(sessions_log(sessions, tuple(inventory)), ratio)
        # every slot, in a random order, as the epochs of training draw them
        order = rng.permutation(table.slot_count)
        drawn = objectives.sample_pairs(table, order, rng)
        pairs = [None] * table.slot_count
        for slot, seed, candidate, label in zip(
            order.tolist(), drawn.seeds.tolist(), drawn.candidates.tolist(), drawn.labels.tolist()
        ):
            pairs[slot] = (inventory[seed], inventory[candidate], label)

        # replay the generation order and check every slot exhaustively
        cursor = 0
        for _, _, members in sessions:
            unique_ids = list(dict.fromkeys(members))
            if len(unique_ids) < 2:
                continue
            session_set = set(unique_ids)
            for seed in unique_ids:
                for candidate in unique_ids:
                    if candidate == seed:
                        continue
                    assert pairs[cursor] == (seed, candidate, 1)
                    cursor += 1
                    for _ in range(ratio):
                        negative_seed, negative, label = pairs[cursor]
                        assert label == 0
                        assert negative_seed == seed
                        assert negative in inventory
                        assert negative not in session_set
                        cursor += 1
        assert cursor == table.slot_count == len(table) * (1 + ratio), (
            f"fixture {fixture} left unexplained slots"
        )


def brute_force_neighbors(article_ids, vectors, query, k):
    sims = np.clip(vectors @ query, -1.0, 1.0)
    order = sorted(range(len(article_ids)), key=lambda i: (-sims[i], article_ids[i]))
    return [(article_ids[i], float(sims[i])) for i in order[:k]]


def test_05_knn_matches_brute_force():
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    for instance in range(200):
        n = int(rng.integers(1, 1001))
        dim = int(rng.integers(2, 65))
        if instance % 3 == 0:
            # duplicate rows force exact similarity ties
            pool = rng.normal(size=(max(1, n // 4), dim))
            rows = pool[rng.integers(0, len(pool), size=n)]
        else:
            rows = rng.normal(size=(n, dim))
        rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        # random ids, ascending as the catalog's do, so ties break by id
        ids = tuple(f"{v:010d}" for v in np.sort(rng.choice(10**7, size=n, replace=False)))
        index = ix.EmbeddingIndex(rows)
        query = rng.normal(size=dim)
        query = query / np.linalg.norm(query)
        k = int(rng.integers(1, n + 1))

        # the selection serving runs, over a one-query score matrix
        columns, scores = ix.top_rows((index.vectors @ query)[None], k)
        got = [
            (ids[row], float(np.clip(score, -1.0, 1.0)))
            for row, score in zip(columns[0].tolist(), scores[0].tolist())
        ]
        assert got == brute_force_neighbors(ids, rows, query, k), f"instance {instance}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"k-NN sweep took {elapsed:.1f}s"


def fraction_average_precision(predictions, relevant, k=12):
    hits = 0
    score = Fraction(0)
    for rank, article_id in enumerate(predictions[:k], start=1):
        if article_id in relevant:
            hits += 1
            score += Fraction(hits, rank)
    return score / min(len(relevant), k)


def test_06_map_oracle_equivalence():
    catalog = [f"{i:010d}" for i in range(1, 41)]
    filler = catalog[20:32]

    # all three textbook examples
    assert evaluation.average_precision_at_k([catalog[0]] + filler[:11], {catalog[0]}) == 1.0
    single_third = filler[:2] + [catalog[0]] + filler[2:11]
    assert evaluation.average_precision_at_k(single_third, {catalog[0]}) == 1.0 / 3.0
    ranks_1_and_3 = [catalog[0], filler[0], catalog[1]] + filler[1:10]
    got = evaluation.average_precision_at_k(ranks_1_and_3, {catalog[0], catalog[1]})
    assert got == (1.0 + 2.0 / 3.0) / 2.0
    assert got == pytest.approx(float(Fraction(5, 6)), abs=1e-12)

    rng = np.random.default_rng(13)
    for instance in range(1_000):
        n_customers = int(rng.integers(1, 21))
        rows = []
        truth = {}
        for c in range(n_customers):
            picks = rng.choice(len(catalog), size=12, replace=False)
            rows.append(
                evaluation.SubmissionRow(
                    f"cust{instance:04d}x{c:02d}",
                    tuple(catalog[p] for p in picks),
                )
            )
            if c == 0 or rng.random() < 0.7:  # keep at least one scorable row
                size = int(rng.integers(1, 8))
                chosen = rng.choice(len(catalog), size=size, replace=False)
                truth[rows[-1].customer_id] = {catalog[p] for p in chosen}

        report = evaluation.map_at_12(rows, truth)
        expected = [
            fraction_average_precision(list(row.article_ids), truth[row.customer_id])
            for row in rows
            if row.customer_id in truth
        ]
        assert report.scored_customer_count == len(expected)
        assert report.excluded_customer_count == len(rows) - len(expected)
        oracle_mean = float(sum(expected) / len(expected))
        assert report.map_at_12 == pytest.approx(oracle_mean, abs=1e-12)
        for (_, ap), oracle_ap in zip(report.per_customer, expected):
            assert ap == pytest.approx(float(oracle_ap), abs=1e-12)


def test_07_planted_structure_end_to_end(planted_world):
    workdir = planted_world["workdir"]
    inputs = planted_world["inputs"]
    assert planted_world["elapsed"] < 300.0, f"pipeline took {planted_world['elapsed']:.1f}s"

    log_lines = (workdir / cli.LOSS_LOG_FILE).read_text().splitlines()
    assert len(log_lines) - 1 <= 500  # training stayed inside the step budget

    joined = corpus.load_saved_transactions(
        workdir / cli.TRANSACTIONS_FILE, inputs["holdout_days"]
    )[0]
    train_window, holdout = evaluation.temporal_split(joined, inputs["holdout_days"])
    truth = evaluation.build_ground_truth(holdout)
    rows = evaluation.read_submission(workdir / cli.SUBMISSION_FILE)
    model = evaluation.map_at_12(rows, truth)

    head = tuple(train_window.article_ids[c] for c in ix.popularity_ranking(train_window)[:12])
    baseline = evaluation.map_at_12(
        [evaluation.SubmissionRow(row.customer_id, head) for row in rows], truth
    )
    assert baseline.map_at_12 > 0.0
    ratio = model.map_at_12 / baseline.map_at_12
    assert ratio >= 1.5, (
        f"model MAP@12 {model.map_at_12:.4f} vs popularity {baseline.map_at_12:.4f} "
        f"(ratio {ratio:.2f})"
    )

    group_of = inputs["group_of"]
    home_group = inputs["customer_group"]
    covered = sum(
        1
        for row in rows
        if any(group_of[a] == home_group[row.customer_id] for a in row.article_ids)
    )
    assert covered / len(rows) >= 0.8, f"only {covered}/{len(rows)} customers covered"


def test_08_submission_format_fidelity(planted_world, tmp_path):
    submission_path = planted_world["workdir"] / cli.SUBMISSION_FILE
    raw = submission_path.read_text(encoding="utf-8")
    lines = raw.split("\n")
    assert lines[0] == "customer_id,prediction"
    assert lines[-1] == ""  # trailing newline
    row_pattern = re.compile(r"^[^,\s]+,\d{10}( \d{10}){11}$")
    for line in lines[1:-1]:
        assert row_pattern.match(line), line

    rows = evaluation.read_submission(submission_path)
    rewritten = tmp_path / "rewritten.csv"
    evaluation.write_submission(rows, rewritten)
    assert rewritten.read_bytes() == submission_path.read_bytes()

    # a customer with no history gets exactly the popularity leaders
    clone = tmp_path / "clone"
    shutil.copytree(planted_world["root"], clone)
    ghost_list = clone / "extra.txt"
    ghost_list.write_text("ghost_customer\n")
    rc = cli.main([
        "recommend",
        "--workdir", str(clone / "workdir"),
        "--articles", str(clone / "articles.csv"),
        "--transactions", str(clone / "transactions.csv"),
        "--customer-list", str(ghost_list),
        *PLANTED_FLAGS,
    ])
    assert rc == 0
    by_customer = {
        row.customer_id: row.article_ids
        for row in evaluation.read_submission(clone / "workdir" / cli.SUBMISSION_FILE)
    }
    joined = corpus.load_saved_transactions(clone / "workdir" / cli.TRANSACTIONS_FILE, 7)[0]
    train_window, _ = evaluation.temporal_split(joined, 7)
    head = tuple(train_window.article_ids[c] for c in ix.popularity_ranking(train_window)[:12])
    assert by_customer["ghost_customer"] == head


def test_09_pipeline_determinism(planted_world, tmp_path):
    repeat_root = tmp_path / "repeat"
    repeat_root.mkdir()
    inputs = write_planted_inputs(repeat_root)
    repeat_workdir = run_pipeline(repeat_root, inputs)
    for name in (cli.CHECKPOINT_FILE, cli.LOSS_LOG_FILE, cli.SUBMISSION_FILE):
        assert (repeat_workdir / name).read_bytes() == (
            planted_world["workdir"] / name
        ).read_bytes(), f"{name} differs between identical runs"


def test_10_catalog_row_order_does_not_matter(planted_world, tmp_path):
    # the catalog is numbered by ascending article id, not by file row
    shuffled_root = tmp_path / "shuffled"
    shuffled_root.mkdir()
    inputs = write_planted_inputs(shuffled_root)
    rows = list(inputs["article_rows"])
    random.Random(3).shuffle(rows)
    assert rows != inputs["article_rows"]
    inputs["articles_path"].write_text(to_csv(ARTICLE_HEADER, rows), encoding="utf-8")
    shuffled_workdir = run_pipeline(shuffled_root, inputs)
    names = sorted(path.name for path in planted_world["workdir"].iterdir())
    assert sorted(path.name for path in shuffled_workdir.iterdir()) == names
    for name in names:
        assert (shuffled_workdir / name).read_bytes() == (
            planted_world["workdir"] / name
        ).read_bytes(), f"{name} depends on the row order of articles.csv"
