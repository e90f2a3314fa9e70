"""ifslab benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {presets,kaczmarz,ensemble} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout that holds ``src/ifslab``. The run sets up the
workload several times (``setup_s``), then repeats its fixed work in rounds
for ``--seconds`` seconds, checking every task's output against a known answer
and its digest against the first round. After each task it calls the
calibration probe of ``probe.py``, and the end-to-end times are normalized by
the probe's speed in the same round. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``; with ``--trace 1`` the per-layer
metrics, from rounds run under the span recorder for the second half of
``--seconds`` (the first half runs untraced, for ``trace.overhead_s``). The
line before it carries provenance, the combined output digest and the raw
round time. Full results, and the spans of a traced run, go to
``.bench_out/`` in the checkout. NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS thread: the machine this benchmark was built on has two cores, and
# the library's matrices are small enough that a second thread only adds noise.
BLAS_THREADS = "1"
SETUP_REPEATS = 7
MIN_ROUNDS = 2
WORKLOAD_NAMES = ("presets", "kaczmarz", "ensemble")

END_TO_END = {
    "setup_s": "s",
    "wall_norm_s": "s",
    "steps_per_norm_s": "1/s",
    "task_mean_norm_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def fresh_import_seconds():
    """Time ``import ifslab`` in a fresh interpreter (start-up excluded)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import ifslab; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Library:
    """The ifslab modules, looked up by attribute at call time."""

    def __init__(self):
        import ifslab
        from ifslab import (cli, clouds, drivers, fileio, geometry, ifs, kaczmarz,
                            omega, scenarios)
        self.package = ifslab
        self.cli, self.clouds, self.drivers, self.fileio = cli, clouds, drivers, fileio
        self.geometry, self.ifs, self.kaczmarz = geometry, ifs, kaczmarz
        self.omega, self.scenarios = omega, scenarios


class Round:
    def __init__(self):
        self.wall = 0.0
        self.times = {}
        self.probes = []
        self.scale = None  # from this round's seconds to normalized seconds
        self.outcomes = []
        self.layers = None

    @property
    def steps(self):
        return sum(o.steps for o in self.outcomes)


def run_round(tasks, recorder=None):
    from probe import PROBE_REF_S, PROBE_SHARE, run_probes
    from workloads import Outcome

    rnd = Round()
    done = {}
    if recorder is not None:
        recorder.begin_round()
    for task in tasks:
        t0 = time.perf_counter()
        try:
            raw = task.run(done)
        except Exception as exc:  # a raising task is a failed task, not a crash
            raw = exc
        elapsed = time.perf_counter() - t0
        rnd.wall += elapsed
        rnd.times[task.name] = elapsed
        run_probes(PROBE_SHARE * elapsed, rnd.probes)
        if isinstance(raw, Exception):
            outcome = Outcome(task.name, False, note=f"raised {type(raw).__name__}: {raw}")
        else:
            try:
                outcome = task.check(raw)
            except Exception as exc:
                outcome = Outcome(task.name, False,
                                  note=f"check raised {type(exc).__name__}: {exc}")
        done[task.name] = outcome.keep
        outcome.keep = None
        rnd.outcomes.append(outcome)
    rnd.scale = PROBE_REF_S / statistics.fmean(rnd.probes)
    if recorder is not None:
        rnd.layers = recorder.end_round()
    return rnd


def run_rounds(tasks, seconds, recorder=None):
    """Repeat rounds while the next one, at the median round's length, still
    fits in ``seconds``; at least ``MIN_ROUNDS``."""
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or (time.perf_counter() - start
                                       + statistics.median(r.wall for r in rounds) <= seconds):
        rounds.append(run_round(tasks, recorder))
    return rounds


def mark_digest_drift(rounds):
    """Fail every task whose digest differs from its first-round digest."""
    first = {o.task: o.digest for o in rounds[0].outcomes}
    for rnd in rounds[1:]:
        for o in rnd.outcomes:
            if o.ok and first[o.task] and o.digest != first[o.task]:
                o.ok = False
                o.note = "digest differs from the first round"
    return first


def end_to_end(rounds, setup_s, tasks):
    sampled = [t.name for t in tasks if t.sampled]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": setup_s,
        "wall_norm_s": statistics.median(r.wall * r.scale for r in rounds),
        "steps_per_norm_s": statistics.median(r.steps / (r.wall * r.scale) for r in rounds),
        # The mean over a round's tasks, not their median: tasks differ in
        # kind (presets, solve sizes and drivers), and a median over a few
        # such tasks jumps between kinds from one seed to the next.
        "task_mean_norm_s": statistics.median(
            statistics.fmean(r.times[n] for n in sampled) * r.scale for r in rounds),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return ({k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
            len(sampled) * len(rounds))


def per_layer(traced, untraced):
    """Median per-layer values over traced rounds; counts must repeat exactly."""
    from spans import COUNTS, OVERHEAD, layer_units

    units = layer_units()
    metrics = {}
    for name, unit in units.items():
        if name == OVERHEAD:
            value = (statistics.median(r.wall for r in traced)
                     - statistics.median(r.wall for r in untraced))
        elif name in COUNTS:
            value = traced[0].layers[name]
        else:
            value = statistics.median(r.layers[name] for r in traced)
        metrics[name] = {"value": value, "unit": unit}
    drift = sorted(name for name in COUNTS
                   if len({r.layers[name] for r in traced}) > 1)
    return metrics, drift


def _read(path):
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_commit():
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit is None:
        packed = _read(ROOT / ".git" / "packed-refs") or ""
        commit = next((line.split()[0] for line in packed.splitlines()
                       if line.endswith(" " + ref)), None)
    return commit


def blas_info():
    import ctypes

    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads_requested": int(BLAS_THREADS), "threads": None}
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                info["threads"] = int(fn())
                return info
    return info


def cpu_model():
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "ifslab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, lib):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ifslab": lib.package.__version__,
        "blas": blas_info(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ifslab" / "__init__.py").is_file():
        print(f"error: no ifslab sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    lib = Library()
    if Path(lib.package.__file__).resolve().parent != SRC / "ifslab":
        print(f"error: imported ifslab from {lib.package.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads
    from spans import Recorder

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        imports = [fresh_import_seconds() for _ in range(SETUP_REPEATS)]
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            tasks = workloads.build(args.workload, lib, args.seed, workdir)
            builds.append(time.perf_counter() - t0)
        setup_s = statistics.median(imports) + statistics.median(builds)

        recorder = None
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = run_rounds(tasks, budget)
        traced = []
        if args.trace:
            recorder = Recorder(lib)
            recorder.install()
            try:
                traced = run_rounds(tasks, budget, recorder)
            finally:
                recorder.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = untraced + traced
    task_digests = mark_digest_drift(rounds)
    outcomes = [o for r in rounds for o in r.outcomes]
    failures = [o for o in outcomes if not o.ok]
    attempted = len(outcomes)
    if args.trace:
        metrics, drift = per_layer(traced, untraced)
        attempted += 1  # exact counts repeat across traced rounds
        if drift:
            failures.append(workloads.Outcome("layer-counts", False,
                                              note=f"counts differ between rounds: {drift}"))
        samples = None
    else:
        metrics, samples = end_to_end(untraced, setup_s, tasks)

    combined = hashlib.sha256(json.dumps(sorted(task_digests.items())).encode()).hexdigest()
    info = {
        "provenance": provenance(args, lib),
        "digest": combined,
        "rounds": {"untraced": len(untraced), "traced": len(traced)},
        "task_samples": samples,
        "raw_wall_s": statistics.median(r.wall for r in untraced),
        "probe_mean_s": statistics.median(statistics.fmean(r.probes) for r in untraced),
        "setup": {"import_s": imports, "build_s": builds},
        "failures": [f"{o.task}: {o.note}" for o in failures[:20]],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = dict(info, metrics=metrics, task_digests=task_digests,
                   task_s={name: statistics.median(r.times[name] for r in untraced)
                           for name in untraced[0].times},
                   round_walls={"untraced": [r.wall for r in untraced],
                                "traced": [r.wall for r in traced]},
                   round_probe_means={"untraced": [statistics.fmean(r.probes) for r in untraced],
                                      "traced": [statistics.fmean(r.probes) for r in traced]},
                   notes=sorted({f"{o.task}: {o.note}" for o in outcomes if o.note}),
                   layers_per_round=[r.layers for r in traced])
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if recorder is not None:
        recorder.dump(OUT / f"{stem}.spans.json")

    print(json.dumps(info))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
