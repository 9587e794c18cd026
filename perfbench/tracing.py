"""Spans around the public functions of each titlerec layer, from outside.

``install`` replaces each target function with a timing wrapper in every
``titlerec`` module namespace that holds it, so a name imported into
another module (``encode_single`` into ``cli`` and ``index``, for one) is
timed there too and reported under the module that defines it. A target
that no longer exists is reported as absent.

Spans (name, start, end, parent) stay in memory until the run ends. Every
per-layer metric is derived from them, plus a few counts taken at the same
boundaries (pairs encoded, pairs trained, k-NN picks).
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from types import ModuleType

LAYERS = ("corpus", "tokenizer", "encoder", "objectives", "index", "evaluation", "cli")

# Every public function a pipeline command calls, so that a caller's self
# time excludes them; PER_LAYER reports a subset.
TARGETS = {
    "corpus": (
        "load_articles", "prepare_articles", "load_transactions", "join_transactions",
        "group_sessions", "save_prepared", "load_prepared", "save_transactions",
        "load_saved_transactions", "save_sessions",
    ),
    "tokenizer": ("build_vocab", "encode_single", "encode_pair"),
    "encoder": ("forward", "loss_and_grads", "zero_grads", "save_checkpoint", "load_checkpoint"),
    "objectives": (
        "train_step", "adam_update", "apply_masking", "sample_pairs", "encode_training_pairs",
    ),
    "index": (
        "build_index", "embed_article", "save_index", "load_index", "query_knn",
        "customer_profile", "recommend", "popularity_ranking",
    ),
    "evaluation": ("temporal_split", "build_ground_truth", "map_at_12", "read_submission",
                   "write_submission"),
    "cli": ("cmd_ingest", "cmd_train", "cmd_recommend", "cmd_evaluate"),
}

# Parent span that splits encoder.forward into its training and embedding uses.
FORWARD_SPLITS = {"train": "objectives.train_step", "embed": "index.embed_article"}

# (name, unit, better) of every per-layer metric a traced run reports.
PER_LAYER = (
    ("encoder.forward.train.calls", "count", "lower"),
    ("encoder.forward.train.busy_s", "s", "lower"),
    ("encoder.forward.train.p50_us", "us", "lower"),
    ("encoder.forward.embed.calls", "count", "lower"),
    ("encoder.forward.embed.busy_s", "s", "lower"),
    ("encoder.forward.embed.p50_us", "us", "lower"),
    ("encoder.loss_and_grads.calls", "count", "lower"),
    ("encoder.loss_and_grads.busy_s", "s", "lower"),
    ("encoder.loss_and_grads.self_s", "s", "lower"),
    ("encoder.loss_and_grads.p50_us", "us", "lower"),
    ("encoder.zero_grads.calls", "count", "lower"),
    ("encoder.zero_grads.busy_s", "s", "lower"),
    ("encoder.save_checkpoint.busy_s", "s", "lower"),
    ("encoder.load_checkpoint.busy_s", "s", "lower"),
    ("objectives.train_step.calls", "count", "lower"),
    ("objectives.train_step.self_s", "s", "lower"),
    ("objectives.train_step.p50_ms", "ms", "lower"),
    ("objectives.train_step.tail_ms", "ms", "lower"),
    ("objectives.adam_update.busy_s", "s", "lower"),
    ("objectives.apply_masking.busy_s", "s", "lower"),
    ("objectives.sample_pairs.busy_s", "s", "lower"),
    ("objectives.encode_training_pairs.busy_s", "s", "lower"),
    ("objectives.pairs_encoded", "count", "lower"),
    ("objectives.pairs_trained", "count", "higher"),
    ("objectives.pair_use_ratio", "ratio", "higher"),
    ("tokenizer.encode_pair.calls", "count", "lower"),
    ("tokenizer.encode_pair.busy_s", "s", "lower"),
    ("tokenizer.encode_single.calls", "count", "lower"),
    ("tokenizer.encode_single.busy_s", "s", "lower"),
    ("tokenizer.build_vocab.busy_s", "s", "lower"),
    ("index.build_index.busy_s", "s", "lower"),
    ("index.embed_article.calls", "count", "lower"),
    ("index.embed_article.p50_us", "us", "lower"),
    ("index.embed_article.tail_us", "us", "lower"),
    ("index.save_index.busy_s", "s", "lower"),
    ("index.load_index.busy_s", "s", "lower"),
    ("index.query_knn.calls", "count", "lower"),
    ("index.query_knn.busy_s", "s", "lower"),
    ("index.query_knn.p50_us", "us", "lower"),
    ("index.query_knn.tail_us", "us", "lower"),
    ("index.customer_profile.calls", "count", "lower"),
    ("index.customer_profile.busy_s", "s", "lower"),
    ("index.customer_profile.p50_us", "us", "lower"),
    ("index.recommend.calls", "count", "lower"),
    ("index.recommend.self_s", "s", "lower"),
    ("index.recommend.p50_us", "us", "lower"),
    ("index.recommend.tail_us", "us", "lower"),
    ("index.popularity_ranking.calls", "count", "lower"),
    ("index.popularity_ranking.busy_s", "s", "lower"),
    ("index.cold_start_ratio", "ratio", "lower"),
    ("index.knn_pick_ratio", "ratio", "higher"),
    ("corpus.load_transactions.busy_s", "s", "lower"),
    ("corpus.load_saved_transactions.calls", "count", "lower"),
    ("corpus.load_saved_transactions.busy_s", "s", "lower"),
    ("corpus.load_prepared.calls", "count", "lower"),
    ("corpus.load_prepared.busy_s", "s", "lower"),
    ("corpus.group_sessions.calls", "count", "lower"),
    ("corpus.group_sessions.busy_s", "s", "lower"),
    ("corpus.join_transactions.busy_s", "s", "lower"),
    ("corpus.save_transactions.busy_s", "s", "lower"),
    ("corpus.save_sessions.busy_s", "s", "lower"),
    ("evaluation.temporal_split.calls", "count", "lower"),
    ("evaluation.temporal_split.busy_s", "s", "lower"),
    ("evaluation.map_at_12.busy_s", "s", "lower"),
    ("evaluation.read_submission.busy_s", "s", "lower"),
    ("evaluation.write_submission.busy_s", "s", "lower"),
    ("cli.cmd_ingest.self_s", "s", "lower"),
    ("cli.cmd_train.self_s", "s", "lower"),
    ("cli.cmd_recommend.self_s", "s", "lower"),
    ("cli.cmd_evaluate.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# Percentiles a tail may be reported at, in per-mille.
TAIL_LADDER = (500, 750, 900, 950, 990, 999)
TAIL_BEYOND = 10


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest ladder percentile that has at
    least ten samples beyond it, by nearest rank; None below 20 samples."""
    ordered = sorted(values)
    n = len(ordered)
    for per_mille in reversed(TAIL_LADDER):
        rank = -(-per_mille * n // 1000)  # ceil(per_mille * n / 1000)
        if n - rank >= TAIL_BEYOND:
            return per_mille / 10, ordered[rank - 1]
    return None


class Recorder:
    """Spans in parallel lists: name, start, end and parent index (-1 at the
    root), plus counts taken by the boundary hooks."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self._open: list[int] = []
        self._knn_ids: set[str] = set()

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        names, starts, ends, parents, open_spans = (
            self.names, self.starts, self.ends, self.parents, self._open
        )
        clock = time.perf_counter

        def timed(*args, **kwargs):
            span = len(starts)
            names.append(name)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                open_spans.pop()
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except Exception:  # a changed signature must not stop the run
                    self.counts[f"hook_error.{name}"] += 1
            return result

        timed.__wrapped__ = fn
        return timed

    def spans(self) -> list[tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_pairs_encoded(rec: Recorder, args, kwargs, result) -> None:
    rec.counts["objectives.pairs_encoded"] += len(result)


def _count_pairs_trained(rec: Recorder, args, kwargs, result) -> None:
    rec.counts["objectives.pairs_trained"] += len(_arg(args, kwargs, 3, "pair_batch"))


def _remember_knn(rec: Recorder, args, kwargs, result) -> None:
    rec._knn_ids = {neighbor.article_id for neighbor in result}


def _count_picks(rec: Recorder, args, kwargs, result) -> None:
    cold = _arg(args, kwargs, 0, "profile").profile_vector is None
    rec.counts["index.customers_served"] += 1
    rec.counts["index.cold_starts"] += cold
    rec.counts["index.picks_served"] += len(result)
    if not cold:
        rec.counts["index.knn_picks"] += len(rec._knn_ids.intersection(result))
    rec._knn_ids = set()


HOOKS = {
    "objectives.encode_training_pairs": _count_pairs_encoded,
    "objectives.train_step": _count_pairs_trained,
    "index.query_knn": _remember_knn,
    "index.recommend": _count_picks,
}


def install(recorder: Recorder, modules: dict[str, ModuleType], namespaces: list[ModuleType],
            targets: dict[str, tuple[str, ...]] = TARGETS) -> None:
    """Wrap each target of ``modules`` in every namespace that binds it.

    ``modules`` maps a layer name to its module; ``namespaces`` are all the
    modules whose globals may hold the function. Missing layers and missing
    functions go to ``recorder.absent``.
    """
    for layer, functions in targets.items():
        module = modules.get(layer)
        for fn_name in functions:
            original = getattr(module, fn_name, None) if module is not None else None
            if not callable(original):
                recorder.absent.append(f"{layer}.{fn_name}")
                continue
            wrapper = recorder.wrap(f"{layer}.{fn_name}", original)
            for namespace in namespaces:
                bound = [k for k, v in vars(namespace).items() if v is original]
                for attr in bound:
                    setattr(namespace, attr, wrapper)


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(i, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[tuple[str, float, float, int]], counts: dict[str, int]
                  ) -> dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_ratio, from one traced run.

    A function that never ran (or is absent) reads 0 for every statistic.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    selfs: dict[str, float] = defaultdict(float)
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        durations[name].append(end - start)
        selfs[name] += own
        if name == "encoder.forward":
            parent_name = spans[parent][0] if parent >= 0 else ""
            for split, via in FORWARD_SPLITS.items():
                if parent_name == via:
                    durations[f"encoder.forward.{split}"].append(end - start)

    scale = {"s": 1.0, "ms": 1e3, "us": 1e6}
    derived = {
        "objectives.pairs_encoded": counts.get("objectives.pairs_encoded", 0),
        "objectives.pairs_trained": counts.get("objectives.pairs_trained", 0),
        "objectives.pair_use_ratio": _ratio(counts.get("objectives.pairs_trained", 0),
                                            counts.get("objectives.pairs_encoded", 0)),
        "index.cold_start_ratio": _ratio(counts.get("index.cold_starts", 0),
                                         counts.get("index.customers_served", 0)),
        "index.knn_pick_ratio": _ratio(counts.get("index.knn_picks", 0),
                                       counts.get("index.picks_served", 0)),
    }
    metrics: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        if metric in derived:
            metrics[metric] = float(derived[metric])
            continue
        if metric == "trace.overhead_ratio":
            continue
        span_name, stat = metric.rsplit(".", 1)
        values = durations.get(span_name, [])
        if stat == "calls":
            metrics[metric] = float(len(values))
        elif stat == "busy_s":
            metrics[metric] = float(sum(values))
        elif stat == "self_s":
            metrics[metric] = selfs.get(span_name, 0.0)
        elif not values:
            metrics[metric] = 0.0
        elif stat.startswith("p50_"):
            metrics[metric] = statistics.median(values) * scale[stat[4:]]
        else:
            tail = tail_percentile(values)
            metrics[metric] = tail[1] * scale[stat[5:]] if tail else 0.0
    return metrics


def tail_details(spans: list[tuple[str, float, float, int]]) -> dict[str, dict]:
    """Percentile and sample count behind each tail_* metric."""
    out = {}
    for metric, _, _ in PER_LAYER:
        span_name, stat = metric.rsplit(".", 1)
        if not stat.startswith("tail_"):
            continue
        values = [end - start for name, start, end, _ in spans if name == span_name]
        tail = tail_percentile(values)
        out[metric] = {"percentile": tail[0] if tail else None, "samples": len(values)}
    return out
