#!/usr/bin/env python3
"""Benchmark of the alexkit command line, with answers checked by oracles.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: alexkit is imported from the
checkout's `src/`.  The run

1. builds the workload's inputs and their answers from the seed
   (`workloads.py`, `oracles.py`; nothing here imports alexkit);
2. measures `setup_s` from fresh interpreters that import `alexkit.cli`,
   after one discarded start (not with `--trace 1`);
3. runs a fixed number of rounds for the workload, `int(S / ROUND_S)`,
   the same on every commit.  A round is one fresh worker process
   (`worker.py`) that warms up on inputs outside the workload and then
   runs every operation once;
4. checks every output against the oracles, outside the timed region, and
   checks that the oracles reject perturbed answers;
5. prints the metrics named in BENCHMARK.json as the last stdout line.

Times are CPU seconds of the process doing the work, scaled to a
reference machine speed: each operation's time is multiplied by
CAL_REF_S over the mean time of a fixed calibration loop
(`worker.calibrate`) run in the same process just before and just after
it.  On a virtual machine whose host is shared, the guest's speed
switches by a third within seconds and drifts within minutes; the
scaling takes most of that out (see README.md).

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1`
each round is an untraced worker followed by a traced one, and the
metrics are the per-layer ones plus the tracing overhead.  Inputs and
spans go to `bench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import workloads
from worker import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_STARTS = 7       # timed interpreter starts, after one discarded
OP_TIMEOUT = 30.0      # seconds; today's slowest operation takes about 1.5
RUN_LIMIT = 165.0      # seconds; a run has to end within 180
CAL_REF_S = 0.015      # CPU seconds of calibrate() at the reference speed
# About the wall seconds of one round of each workload at the commit that
# added the benchmark.  The number of rounds is --seconds over this, the
# same on every commit, so a faster program gets no more samples than a
# slower one.
ROUND_S = {"fox-width": 7.5, "univariate-degree": 8.5, "character-scan": 8.0}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    # one hash seed for every run, so that set and dict orders inside sympy
    # do not change with the workload seed
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(env):
    """Median CPU seconds of a fresh `import alexkit.cli`, each start
    scaled by the mean of the calibration times just before and just
    after it."""
    times, cal = [], calibrate()
    for i in range(SETUP_STARTS + 1):
        start = children_cpu()
        proc = subprocess.run([sys.executable, "-c", "import alexkit.cli"],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        elapsed = children_cpu() - start
        if proc.returncode != 0:
            raise RuntimeError("import alexkit.cli failed:\n" + proc.stderr)
        cal, before = calibrate(), cal
        if i:
            times.append(elapsed * CAL_REF_S / ((before + cal) / 2))
    return statistics.median(times)


def run_round(plan, path, env, time_left):
    """One worker process; returns its per-operation results, or None for
    each operation when the worker died or ran out of time."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"),
                               str(path)], env=env, capture_output=True,
                              text=True, timeout=max(time_left, 1.0))
    except subprocess.TimeoutExpired:
        log("worker killed at the run's time limit")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        return None
    result = json.loads(lines[-1])
    if any(code != 0 for code in result["warmup_codes"]):
        log(f"warm-up exit codes {result['warmup_codes']}")
    return result


def scaled(result):
    """Each operation's CPU seconds in one round, scaled to the reference
    speed by the mean of the calibration times just before and just after
    it.  The machine's speed can change within seconds, so a calibration
    next to the operation tracks it better than one per round."""
    ops = result["ops"]
    cals = [r["cal_s"] for r in ops] + [result["cal_end_s"]]
    return [r["cpu_s"] * CAL_REF_S / ((cals[i] + cals[i + 1]) / 2)
            for i, r in enumerate(ops)]


def judge(op, res):
    """'ok', 'wrong', or why the operation failed; also the parsed report."""
    if res["error"] is not None:
        return res["error"], None
    if res["code"] != 0:
        return f"exit {res['code']}: {res['stderr'].strip()}", None
    try:
        report = json.loads(res["out"])
        oracles.check_report(op["expect"], report)
    except (oracles.Mismatch, ValueError, KeyError, TypeError) as exc:
        return f"wrong answer: {type(exc).__name__}: {exc}", None
    return "ok", report


def self_test(ops, reports):
    """Every oracle must reject wrong answers: perturb each correct report
    and require the check to fail.  Returns the number rejected."""
    rejected = 0
    for op, report in zip(ops, reports):
        if report is None:
            continue
        for bad in oracles.perturbations(report):
            try:
                oracles.check_report(op["expect"], bad)
            except (oracles.Mismatch, ValueError, KeyError, TypeError):
                rejected += 1
                continue
            raise RuntimeError(f"oracle accepted a perturbed answer to "
                               f"{op['argv']}")
    for n in (3, 4, 5):
        derived = oracles.fox_delta(workloads.pencil_relators(n), n)
        if not oracles.associate(derived, oracles.pencil_delta(n)):
            raise RuntimeError(f"Fox-matrix oracle disagrees on pencil{n}")
    return rejected


def metric_specs():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "alexkit" / "cli.py").is_file():
        log(f"no alexkit source under {SRC}")
        return 2
    end_to_end, per_layer = metric_specs()

    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, str(workdir))
        plan = {"src": str(SRC), "timeout": OP_TIMEOUT,
                "warmup": workloads.warmup(args.workload, str(workdir)),
                "ops": [op["argv"] for op in ops], "trace": False,
                "spans": str(OUT / f"spans-{args.workload}.jsonl")}
        env = child_env()
        setup_s = None if args.trace else measure_setup(env)
        log(f"{args.workload} seed {args.seed}: {len(ops)} operations")

        # a fixed number of passes (an untraced round, then a traced one
        # with --trace 1); stop early only at the hard time limit
        kinds = (False, True) if args.trace else (False,)
        passes = max(1, int(args.seconds
                            / (ROUND_S[args.workload] * len(kinds))))
        rounds = {False: [], True: []}
        pass_time = 0.0
        for _ in range(passes):
            pass_start = time.perf_counter()
            if pass_start - started + pass_time > RUN_LIMIT:
                log(f"stopped after {len(rounds[False])} of {passes} passes"
                    f" at the run's time limit")
                break
            for traced in kinds:
                left = RUN_LIMIT - (time.perf_counter() - started)
                result = run_round(dict(plan, trace=traced),
                                   workdir / "plan.json", env, left)
                rounds[traced].append(result)
                if result is not None:
                    log(f"  round {len(rounds[traced])}"
                        f"{' traced' if traced else ''}: "
                        f"{sum(scaled(result)):.3f} s scaled, "
                        f"{sum(r['cpu_s'] for r in result['ops']):.3f} s "
                        f"CPU, {sum(r['wall_s'] for r in result['ops']):.3f}"
                        f" s wall")
            pass_time = max(pass_time, time.perf_counter() - pass_start)

        # every failure, not only a wrong answer, makes the run incorrect,
        # and only operations judged ok are timed
        attempted = failed = 0
        first_reports = None
        for result in rounds[False] + rounds[True]:
            results = result["ops"] if result is not None \
                else [{"error": "not run", "code": None}] * len(ops)
            reports = []
            for op, res in zip(ops, results):
                verdict, report = judge(op, res)
                attempted += 1
                res["ok"] = verdict == "ok"
                if not res["ok"]:
                    failed += 1
                    log(f"  FAILED {' '.join(op['argv'])}: {verdict}")
                reports.append(report)
            if first_reports is None:
                first_reports = reports
        correct = failed == 0
        rejected = self_test(ops, first_reports)
        log(f"oracle self-test: {rejected} perturbed answers rejected")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def timings(results):
        """batch_s, op_s_p50 and peak_rss_mb over finished rounds: each
        operation counts with the median of its scaled times over the
        rounds in which it succeeded."""
        done = [(scaled(r), r["ops"]) for r in results if r is not None]
        per_op = [[times[i] for times, res in done if res[i]["ok"]]
                  for i in range(len(ops))]
        # an operation that failed in every round is left out; the run is
        # then incorrect anyway
        per_op = [times for times in per_op if times]
        if not per_op:
            raise RuntimeError("no operation succeeded")
        typical = [statistics.median(times) for times in per_op]
        return sum(typical), statistics.median(typical), \
            statistics.median(r["rss_mb"] for r in results if r is not None)

    batch_s, op_s_p50, rss_mb = timings(rounds[False])
    if args.trace:
        traced_batch, _, _ = timings(rounds[True])
        done = [r["layers"] for r in rounds[True] if r is not None]
        values = {key: statistics.median_low([d[key] for d in done])
                  for key in done[0]}
        values["trace.untraced_batch_s"] = batch_s
        values["trace.traced_batch_s"] = traced_batch
        values["trace.overhead_pct"] = 100.0 * (traced_batch / batch_s - 1)
        specs = per_layer
    else:
        values = {"setup_s": setup_s, "batch_s": batch_s,
                  "op_s_p50": op_s_p50, "peak_rss_mb": rss_mb}
        specs = end_to_end
    # a layer whose function a later change removed reads 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]}
               for m in specs}
    for name, m in metrics.items():
        log(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
