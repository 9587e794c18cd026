"""Benchmark of the titlerec pipeline on one seeded workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload planted --seed 1 --seconds 30 --trace 0

The run generates the workload's inputs from the seed, then repeats the
pipeline in fresh processes (``child.py``) until ``--seconds`` have passed:

    full    ingest, train, recommend (cold), evaluate
    serve   ingest, a copy of the first full repetition's trained
            artifacts, recommend (cold), recommend (warm), evaluate
    traced  the five commands with every layer wrapped (``--trace 1``)

Each full repetition is followed by serve repetitions that take about as
long as it did (at least one), so the short commands get more samples than
training does and every command is sampled across the whole window rather
than in one part of it. A repetition starts only if its kind's last wall
time fits in what is left; serve repetitions fill the end of the window.
``train_s`` comes from full repetitions and the other commands' times from
serve ones (``ingest_s`` from both: it runs first in either), so a command
is always timed after the same steps in its process; ``pipeline_s`` and
``peak_rss_mb`` come from full repetitions.

Children run with one BLAS thread: on a machine of a few shared cores, a
second thread measures the neighbours as much as the program. Untraced
children are calibrated (``calibrate.py``): each reported time is the wall
time divided by the machine's slowness measured around it, and the
wall-clock medians are printed beside them and kept in the record.

With ``--trace 0`` nothing is wrapped and the end-to-end metrics are
reported, each the median over its samples; with ``--trace 1`` untraced
full and traced repetitions alternate, nothing is calibrated and the
per-layer metrics come from the traced ones. Every repetition's artifacts
are hashed and must agree. Output checks run after timing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(medians, tails, sample counts, hashes, checks, environment) goes to
``.perfbench_out/<workload>-seed<seed>-trace<trace>.json`` and the spans of
a traced run to ``...-spans.json`` beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

# One BLAS/OpenMP thread for this process and every child, set before numpy
# loads: on a machine of a few shared cores, a second thread measures the
# neighbours as much as the program.
os.environ.update({name: "1" for name in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

RUN_LIMIT_S = 170.0  # a run never outlives this, whatever --seconds says

PIPELINE = ("ingest", "train", "recommend_cold", "evaluate")
FULL = PIPELINE  # a full repetition is one fresh run of the pipeline
TRACED = ("ingest", "train", "recommend_cold", "recommend_warm", "evaluate")
SERVE = ("ingest", "restore", "recommend_cold", "recommend_warm", "evaluate")
STEPS = {"full": FULL, "serve": SERVE, "traced": TRACED}
RESTORED = {"serve": ("vocab.txt", "checkpoint.bin", "loss_log.tsv")}
SERVE_SHARE = 1.0  # serve wall time run after each full repetition, as a share of it
# The kinds of repetition each command's samples come from: those in which
# the same steps ran before it in the process, so that the sample's context
# (heap, caches, collector state) is one and the same in every run.
SAMPLED_FROM = {
    "ingest": ("full", "serve"),
    "train": ("full",),
    "recommend_cold": ("serve",),
    "recommend_warm": ("serve",),
    "evaluate": ("serve",),
}

# (name, unit) of every end-to-end metric an untraced run reports.
END_TO_END = (
    ("setup_s", "s"),
    ("ingest_s", "s"),
    ("train_s", "s"),
    ("recommend_cold_s", "s"),
    ("recommend_warm_s", "s"),
    ("evaluate_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MB"),
)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def summarize(values: list[float]) -> dict:
    """Median, the tail percentile with ten samples beyond it, and the count."""
    tail = tracing.tail_percentile(values)
    return {
        "median": statistics.median(values) if values else None,
        "tail": {"percentile": tail[0], "value": tail[1]} if tail else None,
        "samples": len(values),
    }


class Repeater:
    """Runs repetitions in child processes inside one work directory."""

    def __init__(self, work: Path, flags: list[str], hard_deadline: float, calibrate: bool):
        self.work = work
        self.calibrate = calibrate
        self.flags = flags
        self.hard_deadline = hard_deadline
        self.reps: list[dict] = []
        self.kept: Path | None = None  # work directory of the first full repetition

    def run(self, kind: str) -> dict:
        n = len(self.reps)
        workdir = self.work / f"rep{n}"
        spec = {
            "workdir": str(workdir),
            "flags": [*self.flags, "--workdir", str(workdir)],
            "steps": list(STEPS[kind]),
            "trace": kind == "traced",
            "restore_from": str(self.kept) if self.kept else None,
            "restore": RESTORED.get(kind, ()),
            "out": str(self.work / f"rep{n}.result.json"),
        }
        spec_path = self.work / f"rep{n}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        began = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(SRC), str(spec_path),
                 *(["--calibrate"] if self.calibrate else [])],
                capture_output=True, text=True, cwd=ROOT,
                timeout=max(1.0, self.hard_deadline - time.monotonic()),
            )
            if proc.returncode == 0:
                rep = json.loads(Path(spec["out"]).read_text(encoding="utf-8"))
            else:
                rep = {"error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}
        except subprocess.TimeoutExpired:
            rep = {"error": f"repetition passed the {RUN_LIMIT_S:.0f}-s run limit"}
        rep.update(kind=kind, wall_s=time.perf_counter() - began)
        self.reps.append(rep)
        if kind == "full" and self.kept is None and not failed_step(rep):
            self.kept = workdir
        elif workdir.exists():
            shutil.rmtree(workdir)
        return rep


def failed_step(rep: dict) -> bool:
    return "error" in rep or any(s["rc"] != 0 for s in rep["steps"])


def untraced_order(reps: list[dict]) -> tuple[str, ...]:
    """Full, then serve repetitions worth SERVE_SHARE of its wall time."""
    fulls = [i for i, r in enumerate(reps) if r["kind"] == "full"]
    if not fulls:
        return ("full",)
    served = [r["wall_s"] for r in reps[fulls[-1] + 1:]]
    if not served or sum(served) < SERVE_SHARE * reps[fulls[-1]]["wall_s"]:
        return ("serve", "full")
    return ("full", "serve")


def traced_order(reps: list[dict]) -> tuple[str, ...]:
    return ("traced", "full") if reps and reps[-1]["kind"] == "full" else ("full", "traced")


def schedule(repeater: Repeater, order, deadline: float) -> None:
    """Run repetitions until none is predicted to fit before the deadline.

    ``order(repetitions so far)`` lists the kinds to try, preferred first. A
    kind not yet run is tried regardless of the clock; afterwards it runs
    only if its last wall time fits in what is left. A failed repetition
    stops the loop.
    """
    last: dict[str, float] = {}
    while True:
        remaining = deadline - time.monotonic()
        kind = next(
            (k for k in order(repeater.reps) if k not in last or last[k] <= remaining), None
        )
        if kind is None:
            return
        rep = repeater.run(kind)
        last[kind] = rep["wall_s"]
        if failed_step(rep):
            return


def step_seconds(rep: dict, calibrated: bool = False) -> dict[str, float]:
    """Each successful step's time: wall seconds, or calibrated seconds."""
    return {
        s["step"]: calibrate.calibrated(s["seconds"], s["slowness"]) if calibrated else s["seconds"]
        for s in rep.get("steps", ()) if s["rc"] == 0
    }


def pipeline_seconds(rep: dict, calibrated: bool = False) -> float | None:
    seconds = step_seconds(rep, calibrated)
    if all(step in seconds for step in PIPELINE):
        return sum(seconds[step] for step in PIPELINE)
    return None


def check_reps(ledger: checks.Ledger, reps: list[dict]) -> dict[str, str]:
    """Exit codes, warm-equals-cold and byte agreement across repetitions.

    Returns the one sha256 of each artifact the repetitions agree on.
    """
    hashes: dict[str, set[str]] = defaultdict(set)
    for i, rep in enumerate(reps):
        if "error" in rep:
            ledger.check(False, f"rep{i} ({rep['kind']}): {rep['error']}")
            continue
        done = {s["step"]: s for s in rep["steps"]}
        for step in STEPS[rep["kind"]]:
            if step == "restore":
                continue
            record = done.get(step)
            ledger.check(record is not None and record["rc"] == 0,
                         f"rep{i} {step} exits 0"
                         + (f": {record['stderr'].strip()[-300:]}" if record else " (not run)"))
        if "recommend_cold" in done and "recommend_warm" in done:
            ledger.check(
                done["recommend_cold"].get("submission_sha256")
                == done["recommend_warm"].get("submission_sha256"),
                f"rep{i} warm recommend writes the cold submission bytes",
            )
        for name, digest in rep["artifacts"].items():
            hashes[name].add(digest)
    for name, digests in sorted(hashes.items()):
        ledger.check(len(digests) == 1, f"{name} is byte-identical in every repetition")
    return {name: next(iter(d)) for name, d in hashes.items() if len(d) == 1}


def check_outputs(ledger: checks.Ledger, workload: str, seed: int, inputs, workdir: Path) -> dict:
    """Submission, quality and k-NN oracle checks on one repetition's artifacts."""
    from titlerec import evaluation

    split = checks.split_inputs(inputs)
    found: dict = {}
    if not ledger.check((workdir / "submission.csv").exists(), "submission.csv exists"):
        return found
    rows = checks.read_submission(workdir / "submission.csv")
    checks.check_submission(ledger, split, rows)
    report = json.loads((workdir / "eval_report.json").read_text(encoding="utf-8"))
    found["map_at_12"] = report["map_at_12"]
    if workload == "planted":
        found.update(checks.check_quality(ledger, split, rows, workdir, evaluation))
    if workload == "catalog":
        found["oracle_customers"] = checks.check_knn_oracle(ledger, split, rows, workdir, seed)
    loss_lines = (workdir / "loss_log.tsv").read_text(encoding="utf-8").splitlines()
    found["sizes"] = {
        "articles": len(inputs.articles),
        "customers": len(split.universe),
        "transactions": len(inputs.transactions),
        "steps": len(loss_lines) - 1,
    }
    return found


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas() -> dict:
    """BLAS library, version and thread count as numpy reports them."""
    import ctypes

    import numpy as np

    info: dict = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=deps.get("name"), version=deps.get("version"))
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
        for lib_path in libs:
            lib = ctypes.CDLL(lib_path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    return info
    except OSError:  # no /proc, or a library that will not load: threads unknown
        pass
    return info


def environment() -> dict:
    import numpy as np

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def end_to_end(reps: list[dict], calibrated: bool) -> dict[str, dict]:
    samples: dict[str, list[float]] = defaultdict(list)
    for rep in reps:
        if "error" in rep:
            continue
        samples["setup_s"].append(
            calibrate.calibrated(rep["setup_s"], rep["setup_slowness"]) if calibrated
            else rep["setup_s"]
        )
        for step, seconds in step_seconds(rep, calibrated).items():
            if rep["kind"] in SAMPLED_FROM[step]:
                samples[f"{step}_s"].append(seconds)
        total = pipeline_seconds(rep, calibrated) if rep["kind"] == "full" else None
        if total is not None:
            samples["pipeline_s"].append(total)
            samples["peak_rss_mb"].append(rep["peak_rss_mb"])
    return {name: {**summarize(samples[name]), "unit": unit} for name, unit in END_TO_END}


def per_layer(reps: list[dict]) -> tuple[dict[str, dict], dict]:
    traced = [r for r in reps if r["kind"] == "traced" and not failed_step(r)]
    untraced = [pipeline_seconds(r) for r in reps if r["kind"] == "full" and not failed_step(r)]
    traced_totals = [pipeline_seconds(r) for r in traced]
    by_metric: dict[str, list[float]] = defaultdict(list)
    for rep in traced:
        for name, value in tracing.layer_metrics(rep["spans"], rep["counts"]).items():
            by_metric[name].append(value)
    if traced_totals and untraced:
        by_metric["trace.overhead_ratio"].append(
            statistics.median(traced_totals) / statistics.median(untraced) - 1.0
        )
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    out = {name: {**summarize(values), "unit": units[name]} for name, values in by_metric.items()}
    details = {
        "absent": traced[0]["absent"] if traced else [],
        "counts": traced[0]["counts"] if traced else {},
        "tails": tracing.tail_details(traced[0]["spans"]) if traced else {},
        "pipeline_s": {"untraced": untraced, "traced": traced_totals},
    }
    return out, details


def print_report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"inputs {record['generate_s']:.3f} s  measured {record['measured_s']:.1f} s  "
          f"repetitions {record['repetitions']}")
    tails = record.get("trace_details", {}).get("tails", {})
    wall = record.get("wall", {})
    print(f"{'metric':44} {'median':>14} {'tail':>24} {'n':>5}  unit"
          + ("  (wall-clock median)" if wall else ""))
    for name, m in record["metrics"].items():
        if name in tails:  # a traced tail: its percentile over one run's calls
            tail_text = (f"(p{tails[name]['percentile']:g} of {tails[name]['samples']} calls)"
                         if tails[name]["percentile"] else "(under 20 calls)")
        elif m["tail"]:
            tail_text = f"p{m['tail']['percentile']:g} {m['tail']['value']:.6g}"
        else:
            tail_text = "- (n<20)"
        median = f"{m['median']:.6g}" if m["median"] is not None else "-"
        raw = wall.get(name, {}).get("median")
        print(f"{name:44} {median:>14} {tail_text:>24} {m['samples']:>5}  {m['unit']}"
              + (f"  ({raw:.6g})" if raw is not None else ""))
    if "map_at_12" in record["quality"]:
        print(f"{'map_at_12':44} {record['quality']['map_at_12']:>14.6g} "
              f"{'(deterministic)':>24} {1:>5}  score")
    ops = record["checks"]
    failed, attempted = len(ops["failures"]), ops["attempted"]
    print(f"{'failed_ops':44} {failed / max(1, attempted):>14.6g} "
          f"{f'({failed} of {attempted})':>24} {attempted:>5}  share")
    for failure in ops["failures"]:
        print(f"  FAILED: {failure}")
    for name, digest in sorted(record["sha256"].items()):
        print(f"sha256 {name:22} {digest}")
    print("quality " + json.dumps(record["quality"], sort_keys=True))
    print("sizes " + json.dumps(record["sizes"], sort_keys=True))
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    if record.get("absent"):
        print("absent wrap targets: " + ", ".join(record["absent"]))


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    started = time.monotonic()
    hard_deadline = started + RUN_LIMIT_S
    began = time.perf_counter()
    inputs = workloads.WORKLOADS[workload].generate(seed)
    paths = workloads.write_inputs(inputs, work / "inputs")
    generate_s = time.perf_counter() - began
    flags = ["--articles", str(paths["articles"]), "--transactions", str(paths["transactions"]),
             *workloads.WORKLOADS[workload].flags]
    if "customers" in paths:
        flags += ["--customer-list", str(paths["customers"])]

    sys.path.insert(0, str(SRC))
    import titlerec.cli  # noqa: F401  compiles the package before any timing

    repeater = Repeater(work, flags, hard_deadline, calibrate=not trace)
    measure_start = time.monotonic()
    deadline = min(measure_start + seconds, hard_deadline)
    schedule(repeater, traced_order if trace else untraced_order, deadline)
    measured_s = time.monotonic() - measure_start
    reps = repeater.reps

    ledger = checks.Ledger()
    digests = check_reps(ledger, reps)
    digests.update({f"input/{name}": sha256_file(path) for name, path in paths.items()})
    found = check_outputs(ledger, workload, seed, inputs, repeater.kept) if repeater.kept else {}
    if repeater.kept is None:
        ledger.check(False, "a full repetition completed")

    record = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "generate_s": generate_s, "measured_s": measured_s,
        "repetitions": dict(sorted(
            (k, sum(1 for r in reps if r["kind"] == k)) for k in {r["kind"] for r in reps}
        )),
        "checks": {"attempted": ledger.attempted, "failures": ledger.failures},
        "sha256": digests,
        "sizes": found.get("sizes", {}),
        "quality": {k: v for k, v in found.items() if k != "sizes"},
        "environment": environment(),
    }
    if trace:
        record["metrics"], details = per_layer(reps)
        record["absent"] = details.pop("absent")
        record["sizes"].update(
            pairs_encoded=details["counts"].get("objectives.pairs_encoded"),
            pairs_trained=details["counts"].get("objectives.pairs_trained"),
        )
        record["trace_details"] = details
        record["spans"] = [r["spans"] for r in reps if r["kind"] == "traced" and "spans" in r]
    else:
        record["metrics"] = end_to_end(reps, calibrated=True)
        record["wall"] = end_to_end(reps, calibrated=False)
    record["raw"] = [{k: v for k, v in r.items() if k != "spans"} for r in reps]
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "titlerec" / "cli.py").is_file():
        print(f"error: {SRC / 'titlerec'} not found; run from a titlerec checkout",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is still using it
            pass

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        Path(f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print_report(record)

    wanted = tracing.PER_LAYER if args.trace else END_TO_END
    missing = [m[0] for m in wanted if record["metrics"].get(m[0], {}).get("median") is None]
    if missing:
        print("error: no samples for " + ", ".join(missing), file=sys.stderr)
        return 1
    failed = len(record["checks"]["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": record["checks"]["attempted"],
        "failed": failed,
        "metrics": {m[0]: {"value": record["metrics"][m[0]]["median"], "unit": m[1]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
