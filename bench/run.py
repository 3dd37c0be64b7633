"""diffalg benchmark: one workload per run, in a closed loop with one caller.

Run from the repository root:

    python3 bench/run.py --workload kernel-tower --seed 1 --seconds 30 --trace 0

Set-up imports diffalg from ``src/`` and generates the workload's inputs
from the seed; it is repeated SETUP_REPEATS times and ``setup_s`` is the
median.  A warm-up pass runs every job once.  Then timed passes run until
``--seconds`` have passed since the warm-up began; each pass gets fresh
inputs of the same shapes (a new ``variant``), so no pass can reuse work
cached by an earlier one.  Every output of every pass is checked against a
reference known by construction, and the warm-up's outputs against the
digests in golden.json when the seed is pinned there.

Times are reported at a fixed machine speed.  The speed of a shared
machine drifts by 10-30% over minutes, longer than a run, so no statistic
over one run's raw times repeats across runs.  Between jobs, outside their
timers, the runner times a fixed pure-Python calibration loop about every
CALIBRATION_EVERY_S seconds, and around each set-up repetition.  Each job
or set-up time is scaled by CALIBRATION_NOMINAL_S over the median of the
CALIBRATION_NEIGHBOURS loops just before it and as many just after it: it
reads as seconds on a machine where the loop takes CALIBRATION_NOMINAL_S.
The loop calls nothing in diffalg, so a change to diffalg moves the scaled
times by the same share as the raw ones.  The unscaled figures are printed
too.

``--trace 0`` reports the end-to-end metrics.  Each job's time is the
median of its scaled times over the timed passes.  ``wall_s`` is the sum
of those times and ``job_ms_p50``/``job_ms_p90`` are percentiles over the
jobs.  ``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics of the traced ones (see spans.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every answer is correct, 1 when one is not, and 2 when diffalg cannot
be imported from ``src/``.
"""
from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from typing import NamedTuple

import cli_batch
import groebner_classic
import kernel_tower
import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

WORKLOADS = {
    "kernel-tower": kernel_tower.build,
    "groebner-classic": groebner_classic.build,
    "cli-batch": cli_batch.build,
}
# Wall-time cap of one job, so a runaway job counts as failed.
JOB_CAP_S = {"kernel-tower": 30.0, "groebner-classic": 30.0, "cli-batch": 10.0}
SETUP_REPEATS = 15
# Time between calibration loops within a pass, in seconds.
CALIBRATION_EVERY_S = 0.05
# A time is scaled by this many loops on each side of it.
CALIBRATION_NEIGHBOURS = 2
# The calibration loop's median time on the 2-core x86-64 VM (Python 3.11)
# the benchmark was tuned on; scaled times read as seconds on that machine.
CALIBRATION_NOMINAL_S = 0.002
# No job starts later than this after process start, so a run whose jobs
# run away still ends well within three minutes.
RUN_LIMIT_S = 150.0


class Failed(NamedTuple):
    """A job that raised or hit its cap instead of returning."""

    reason: str


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


def calibration_loop():
    """Fixed pure-Python work of the kinds diffalg does: Fraction sums,
    tuple-keyed dicts and a sort.  About 2 ms; it uses nothing from diffalg."""
    terms = {}
    total = Fraction(0)
    for i in range(1, 480):
        key = (i % 7, (i * 5) % 11)
        terms[key] = terms.get(key, 0) + i * i
        total += Fraction(i % 13 + 1, i % 17 + 2)
    return total, sorted(terms.items())


def calibrate(loops, position):
    """Time the calibration loop; ``position`` is the number of timed steps
    (jobs or set-ups) that ran before it."""
    start = time.perf_counter()
    calibration_loop()
    loops.append((position, time.perf_counter() - start))


def speed_factor(durations):
    """Multiplier from raw seconds to seconds at the nominal speed."""
    return CALIBRATION_NOMINAL_S / statistics.median(durations)


def scale(times, loops):
    """Each time of ``times`` (None for a step that did not run) scaled by
    the CALIBRATION_NEIGHBOURS loops on each side of it."""
    positions = [position for position, _ in loops]
    out = []
    for idx, t in enumerate(times):
        mid = bisect.bisect_right(positions, idx)
        near = loops[max(0, mid - CALIBRATION_NEIGHBOURS):
                     mid + CALIBRATION_NEIGHBOURS]
        out.append(None if t is None
                   else t * speed_factor([d for _, d in near]))
    return out


def load_api():
    """Import diffalg afresh from ``src/``; returns the package."""
    for key in [k for k in sys.modules
                if k == "diffalg" or k.startswith("diffalg.")]:
        del sys.modules[key]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    api = importlib.import_module("diffalg")
    importlib.import_module("diffalg.cli")
    importlib.import_module("diffalg.files")
    if not os.path.abspath(api.__file__).startswith(SRC + os.sep):
        raise ImportError("diffalg imported from %s, not from %s"
                          % (api.__file__, SRC))
    return api


def setup(workload, seed):
    """Import and input generation, repeated SETUP_REPEATS times into one
    work directory; returns api, jobs, work dir, the raw set-up times and
    the scaled ones.

    The first repetition creates the input files and later ones rewrite
    them: creating files is the step whose cost swings most with the disk,
    and the median then measures the program's own set-up work.
    """
    workdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    times, loops = [], []
    try:
        for _ in range(CALIBRATION_NEIGHBOURS):
            calibrate(loops, 0)
        for rep in range(SETUP_REPEATS):
            start = time.perf_counter()
            api = load_api()
            jobs = WORKLOADS[workload](api, seed, workdir)
            times.append(time.perf_counter() - start)
            for _ in range(CALIBRATION_NEIGHBOURS):
                calibrate(loops, rep + 1)
    except BaseException:
        shutil.rmtree(workdir)
        raise
    return api, jobs, workdir, times, scale(times, loops)


def run_pass(jobs, cap_s, deadline, loops=None):
    """Run every job once; returns (wall seconds, job seconds, results).

    Each job runs under a wall-time cap; one that raises or hits it gives a
    ``Failed`` result.  A job not started because ``deadline`` passed has
    time None.  If ``loops`` is a list, the calibration loop runs
    CALIBRATION_NEIGHBOURS times before the first job and after the last,
    and once between jobs whenever CALIBRATION_EVERY_S have passed since it
    last ran; ``calibrate`` appends to the list."""
    times, results = [], []
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        start = time.perf_counter()
        if loops is not None:
            for _ in range(CALIBRATION_NEIGHBOURS):
                calibrate(loops, 0)
        last_calibration = time.perf_counter()
        for idx, job in enumerate(jobs):
            if (loops is not None and time.perf_counter()
                    - last_calibration >= CALIBRATION_EVERY_S):
                calibrate(loops, idx)
                last_calibration = time.perf_counter()
            cap = min(cap_s, deadline - time.perf_counter())
            if cap <= 0:
                times.append(None)
                results.append(Failed("not started: run time limit reached"))
                continue
            signal.setitimer(signal.ITIMER_REAL, cap)
            t0 = time.perf_counter()
            try:
                result = job.call()
            except JobTimeout:
                result = Failed("hit the %.0f s cap" % cap)
            except Exception:
                # one failing job must not stop the run; it counts as failed
                result = Failed(traceback.format_exc(limit=3))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            times.append(time.perf_counter() - t0)
            results.append(result)
        if loops is not None:
            for _ in range(CALIBRATION_NEIGHBOURS):
                calibrate(loops, len(jobs))
        wall = time.perf_counter() - start
    finally:
        signal.signal(signal.SIGALRM, previous)
    return wall, times, results


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def judge(jobs, results):
    """Check a pass against the jobs' references.

    Returns the per-job output digests and [(job name, error)].
    """
    digests, errors = [], []
    for job, result in zip(jobs, results):
        if isinstance(result, Failed):
            digests.append(None)
            errors.append((job.name, result.reason))
            continue
        text = job.render(result)
        digests.append(digest(text))
        error = job.check(json.loads(text))
        if error is not None:
            errors.append((job.name, error))
    return digests, errors


_COEFF_INT = re.compile(r"(?<![\w\[,^])\d+")


def max_coeff_bits(jobs, results):
    """Largest integer bit length among the coefficients of printed
    polynomials in the outputs (string values, including nested JSON)."""
    def walk(value):
        if isinstance(value, dict):
            return max([walk(v) for v in value.values()], default=0)
        if isinstance(value, list):
            return max([walk(v) for v in value], default=0)
        if isinstance(value, str):
            if value.startswith("{"):
                return walk(json.loads(value))
            return max([int(t).bit_length()
                        for t in _COEFF_INT.findall(value)], default=0)
        return 0

    return max([walk(json.loads(job.render(result)))
                for job, result in zip(jobs, results)
                if not isinstance(result, Failed)], default=0)


def src_loc():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def golden_digests(workload, seed):
    path = os.path.join(BENCH_DIR, "golden.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["digests"].get(workload, {}).get(str(seed))


def measure(workload, api, jobs, seed, workdir, seconds, trace, deadline):
    """The warm-up pass on ``jobs``, then timed passes until ``seconds``
    have passed, each on a fresh variant of the inputs.

    Returns a dict with ``attempted``, ``job_errors`` (one per failed job
    run), ``run_errors``, ``passes``, the metrics of the chosen mode and,
    untraced, ``raw_wall_s`` (``wall_s`` before scaling).
    """
    build, cap_s = WORKLOADS[workload], JOB_CAP_S[workload]
    start = time.perf_counter()
    _, _, results = run_pass(jobs, cap_s, deadline)
    digests, job_errors = judge(jobs, results)
    run_errors = []
    pinned = golden_digests(workload, seed)
    if pinned is not None:
        if len(pinned) != len(jobs):
            run_errors.append("golden.json pins %d jobs, the workload has %d"
                              % (len(pinned), len(jobs)))
        else:
            job_errors.extend((job.name, "output differs from golden.json")
                              for job, got, want in zip(jobs, digests, pinned)
                              if got is not None and got != want)
    max_bits = max_coeff_bits(jobs, results)
    attempted = len(jobs)
    # per pass: the sum of its scaled job times; per job: its times
    plain, traced, summaries = [], [], []
    scaled = [[] for _ in jobs]
    raw = [[] for _ in jobs]
    last = 0.0
    while True:
        now = time.perf_counter()
        enough = bool(plain) and (bool(traced) or not trace)
        if enough and (now - start >= seconds or now + last > deadline):
            break
        variant = 1 + len(plain) + len(traced)
        jobs = build(api, seed, workdir, variant)
        use_trace = trace and len(traced) <= len(plain)
        tracer = spans.Tracer().install() if use_trace else None
        loops = []
        try:
            last, times, results = run_pass(jobs, cap_s, deadline, loops)
        finally:
            if tracer is not None:
                tracer.uninstall()
        job_errors.extend(judge(jobs, results)[1])
        attempted += len(jobs)
        scaled_times = scale(times, loops)
        busy = sum(t for t in scaled_times if t is not None)
        if use_trace:
            traced.append(busy)
            summaries.append(tracer.summary())
            continue
        plain.append(busy)
        for idx, (t, t_scaled) in enumerate(zip(times, scaled_times)):
            if t is not None:
                scaled[idx].append(t_scaled)
                raw[idx].append(t)
    out = {"attempted": attempted, "job_errors": job_errors,
           "run_errors": run_errors, "passes": 1 + len(plain) + len(traced)}
    if trace:
        layer = spans.combine(summaries)
        layer["coeff.max_bits"] = max_bits
        layer["trace.overhead_ratio"] = (statistics.median(traced)
                                         / statistics.median(plain) - 1)
        out["metrics"] = layer
    else:
        def per_job_ms(samples):
            return [1000 * statistics.median(v) if v else 0.0
                    for v in samples]

        job_ms = per_job_ms(scaled)
        out["metrics"] = {
            "wall_s": sum(job_ms) / 1000,
            "job_ms_p50": statistics.median(job_ms),
            "job_ms_p90": statistics.quantiles(job_ms, n=10)[8],
        }
        out["raw_wall_s"] = sum(per_job_ms(raw)) / 1000
        out["timed_passes"] = len(plain)
    return out


def _units(names_units, values):
    return {name: {"value": values[name], "unit": unit}
            for name, unit in names_units}


END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("job_ms_p50", "ms"),
              ("job_ms_p90", "ms"), ("peak_rss_mib", "MiB")]


def per_layer_units():
    units = {"calls": "count", "s": "s", "self_s": "s"}
    out = [("%s.%s" % (name, stat), units[stat])
           for name, stat in spans.SPAN_METRICS]
    out += [(name, "count") for name in spans.DERIVED_COUNTS]
    out += [("groebner.buchberger.zero_reductions_ratio", "ratio"),
            ("coeff.max_bits", "bits"), ("trace.overhead_ratio", "ratio")]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "diffalg", "__init__.py")):
        print("bench: no diffalg package under %s" % SRC, file=sys.stderr)
        return 2
    api, jobs, workdir, setup_times, setup_scaled = setup(args.workload,
                                                           args.seed)
    try:
        res = measure(args.workload, api, jobs, args.seed, workdir,
                      args.seconds, bool(args.trace), deadline)
    finally:
        shutil.rmtree(workdir)
    values = res["metrics"]
    if args.trace:
        metrics = _units(per_layer_units(), values)
    else:
        values["setup_s"] = statistics.median(setup_scaled)
        values["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF)
                                  .ru_maxrss / 1024)
        metrics = _units(END_TO_END, values)
    failed = len(res["job_errors"])
    correct = failed == 0 and not res["run_errors"]
    print("workload %s  seed %d  trace %d  passes %d  python %s  nproc %d  "
          "src_loc %d" % (args.workload, args.seed, args.trace,
                          res["passes"], platform.python_version(),
                          os.cpu_count(), src_loc()))
    for name, metric in metrics.items():
        print("  %-44s %14.6g %s" % (name, metric["value"], metric["unit"]))
    if "timed_passes" in res:
        print("  latency samples: %d jobs, each the median of %d timed passes"
              % (len(jobs), res["timed_passes"]))
        print("  unscaled: setup_s %.6g s  wall_s %.6g s"
              % (statistics.median(setup_times), res["raw_wall_s"]))
    print("  failed_ratio: %d/%d = %.4g" % (failed, res["attempted"],
                                            failed / res["attempted"]))
    for name, error in res["job_errors"][:20]:
        print("  FAILED %s: %s" % (name, error.strip()), file=sys.stderr)
    for error in res["run_errors"]:
        print("  ERROR %s" % error, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
