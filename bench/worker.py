"""One round of a workload: every operation once, in this process.

Usage: python3 bench/worker.py PLAN.json

The plan names the alexkit source directory, the warm-up and workload
argument lists, the per-operation time limit, whether to trace, and where
to write the spans.  Each operation goes through `alexkit.cli.main(argv)`
with stdout and stderr captured, and timed in CPU seconds of this process
and in wall seconds (the time limit is on wall time).  Before each one
sympy's cache is cleared, garbage is collected, the calibration loop is
timed, and sympy's random generator (drawn on by its modular factoring) is
seeded from the operation's position in the workload.  The seed does not
depend on the workload seed: most inputs are the same polynomials under
every workload seed, and their factoring time changes by up to 2x with
sympy's draws.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction


class OpTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in the program
    under test can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def calibrate():
    """CPU seconds of a fixed piece of pure-Python work shaped like
    alexkit's inner loops: products of sparse polynomials stored as dicts
    from exponent tuples to Fractions.  It runs no alexkit code, so its
    time follows how fast the machine is at that moment, not alexkit."""
    a = {(i % 5, i // 5): Fraction(i + 1, 3 + i % 4) for i in range(40)}
    b = {(i % 3, -i // 3): Fraction(2 * i - 7, 5) for i in range(24)}
    start = time.process_time()
    for _ in range(2):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = (e1[0] + e2[0], e1[1] + e2[1])
                out[e] = out.get(e, 0) + c1 * c2
        a = {e: c for e, c in out.items() if c and e[0] < 8}
    return time.process_time() - start


def settle():
    """Clear sympy's cache and collect garbage, then time the calibration
    loop."""
    from sympy.core.cache import clear_cache

    clear_cache()
    gc.collect()
    return calibrate()


def run_op(main, argv, seed, timeout):
    from sympy.core.random import seed as sympy_seed

    cal = settle()
    sympy_seed(seed)
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    signal.setitimer(signal.ITIMER_REAL, timeout)
    start, start_cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except OpTimeout:
        error = f"timeout after {timeout} s"
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash fails this operation, not the round
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        cpu = time.process_time() - start_cpu
        wall = time.perf_counter() - start
    return {"cpu_s": cpu, "wall_s": wall, "cal_s": cal, "code": code,
            "error": error, "out": out.getvalue(),
            "stderr": err.getvalue()[-400:]}


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    src = os.path.realpath(plan["src"])
    import alexkit.cli
    if not os.path.realpath(alexkit.cli.__file__).startswith(src + os.sep):
        print(f"alexkit imported from {alexkit.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    tracer = None
    if plan["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _alarm)
    warm = [run_op(alexkit.cli.main, argv, -1 - i, plan["timeout"])
            for i, argv in enumerate(plan["warmup"])]
    if tracer is not None:
        tracer.reset()
    ops = []
    for i, argv in enumerate(plan["ops"]):
        if tracer is not None:
            tracer.op = i
        ops.append(run_op(alexkit.cli.main, argv, i, plan["timeout"]))
    result = {
        "ops": ops,
        "cal_end_s": settle(),
        "warmup_codes": [w["code"] for w in warm],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.totals()
        tracer.dump(plan["spans"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
