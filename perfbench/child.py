"""One repetition of the pipeline in a fresh process.

Usage: python3 child.py SRC_DIR SPEC.json [--calibrate]

SRC_DIR holds the ``titlerec`` package; the spec names the work directory,
the CLI flags, the steps to run and whether to trace. ``--calibrate`` runs
the machine-speed probe of ``calibrate.py`` from before the import to the
end. Steps are CLI commands run in process
through ``cli.main`` (``recommend_cold`` and ``recommend_warm`` both run
``recommend``), plus ``restore``, which copies the spec's ``restore`` files
(the trained artifacts) of an earlier
repetition into the work directory instead of running ``train``.

The result JSON (written to the spec's ``out`` path) holds the import time
of ``titlerec``, each step's exit code and wall time, the peak RSS of this
process, the sha256 of each artifact and, when traced, the spans. When
calibrated, the import time and each step's time exclude the probes, and
each carries the machine's slowness around it (``setup_slowness``,
``slowness``).
"""

from __future__ import annotations

import sys
import time

# Only the modules needed to time the import are loaded before it; the rest
# come after, so titlerec's own imports are all inside the timed region.

HASHED = ("checkpoint.bin", "loss_log.tsv", "index.bin", "submission.csv", "eval_report.json")


def sha256(path):
    import hashlib

    return hashlib.sha256(path.read_bytes()).hexdigest()


def trace_titlerec():
    import importlib

    import tracing

    recorder = tracing.Recorder()
    modules = {}
    for layer in tracing.LAYERS:
        try:
            modules[layer] = importlib.import_module(f"titlerec.{layer}")
        except ImportError:
            pass
    namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "titlerec"]
    tracing.install(recorder, modules, namespaces)
    return recorder


def main(src: str, spec_path: str, calibrate_flag: bool) -> None:
    calibrator = None
    if calibrate_flag:
        import calibrate

        calibrator = calibrate.Calibrator()
        calibrator.start()

    began = time.perf_counter()
    sys.path.insert(0, src)
    from titlerec import cli

    imported = time.perf_counter()
    if calibrator is not None:
        import numpy

        calibrator.numpy = numpy

    import contextlib
    import io
    import json
    import resource
    import shutil
    import traceback
    from pathlib import Path

    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    recorder = trace_titlerec() if spec["trace"] else None
    workdir = Path(spec["workdir"])
    steps = []
    spans = [(began, imported)]  # the import, then each step
    for step in spec["steps"]:
        if step == "restore":
            workdir.mkdir(parents=True, exist_ok=True)
            for name in spec["restore"]:
                shutil.copyfile(Path(spec["restore_from"]) / name, workdir / name)
            continue
        argv = [step.split("_")[0], *spec["flags"]]
        out, err = io.StringIO(), io.StringIO()
        began = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception:  # the harness reports the crash as a failed command
            rc = None
            err.write(traceback.format_exc())
        spans.append((began, time.perf_counter()))
        record = {"step": step, "rc": rc, "seconds": spans[-1][1] - began,
                  "stdout": out.getvalue(), "stderr": err.getvalue()}
        if step.startswith("recommend") and (workdir / "submission.csv").exists():
            record["submission_sha256"] = sha256(workdir / "submission.csv")
        steps.append(record)
        if rc != 0:
            break
    setup = {"setup_s": imported - spans[0][0]}
    if calibrator is not None:
        calibrator.stop()
        regions = [calibrator.region(*span) for span in spans]
        setup = {"setup_s": regions[0][0], "setup_slowness": regions[0][1]}
        for record, (seconds, slowness) in zip(steps, regions[1:]):
            record.update(seconds=seconds, slowness=slowness)
    result = {
        **setup,
        "steps": steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artifacts": {n: sha256(workdir / n) for n in HASHED if (workdir / n).exists()},
    }
    if recorder is not None:
        result["spans"] = recorder.spans()
        result["counts"] = dict(recorder.counts)
        result["absent"] = recorder.absent
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3:] == ["--calibrate"])
