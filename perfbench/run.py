"""Benchmark for metragraph: one seeded workload per run, one closed-loop client.

    python3 perfbench/run.py --workload table --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

A run builds the workload's op list from the seed (set-up, repeated and
reported as a median), then runs whole passes over the list until at least
--seconds have passed, each op starting when the previous one returns.  All
correctness checks run after the timed passes.  Times are scaled to a
reference host speed measured during the run (hostspeed.py); the raw wall
times are printed next to them.  --trace 1 runs untraced
passes for half the time, then as many passes again with spans recorded,
and reports per-layer metrics instead of end-to-end ones.  The last line of
stdout is the JSON result; the lines before it give the environment and
each metric with its unit.  See perfbench/README.md.
"""

import os
import sys

# Pinned before numpy loads.  The library's matrices are at most a few
# hundred rows, so BLAS threads only add start-up cost and scheduling noise
# on a shared machine; METRAGRAPH_THREADS=1 is the library's own default.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "METRAGRAPH_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3          # at least this many set-ups, and at least
SETUP_MIN_SECONDS = 0.5    # this much set-up time, for the setup_s median
SETUP_MAX_REPEATS = 200


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "metragraph", "__init__.py")):
        sys.exit(f"error: no metragraph sources under {SRC}")
    sys.path.insert(0, SRC)
    import metragraph
    if not os.path.abspath(metragraph.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: metragraph imported from {metragraph.__file__}, not {SRC}")


def environment(seed):
    import numpy
    import scipy

    try:
        # the ceiling keeps git from reading repositories above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "METRAGRAPH_THREADS": os.environ["METRAGRAPH_THREADS"],
        "seed": seed,
    }


def timed_setup(build, seed, smoke=False):
    """Build the op list repeatedly; return (ops of the last build, the
    (start, end) of every build)."""
    spans = []
    while (len(spans) < SETUP_REPEATS or sum(t1 - t0 for t0, t1 in spans) < SETUP_MIN_SECONDS) \
            and len(spans) < SETUP_MAX_REPEATS:
        gc.collect()
        t0 = perf_counter()
        ops = build(seed, smoke)
        spans.append((t0, perf_counter()))
    return ops, spans


class Outcomes:
    """Latency and result digest of every op run; the first result of each op."""

    def __init__(self, ops):
        self.ops = ops
        self.spans = []     # (start, end) of each op run
        self.runs = []      # (op index, result digest)
        self.first = {}     # op index -> result (or the exception raised)

    def record(self, index, span, result, error):
        self.spans.append(span)
        if index not in self.first:
            self.first[index] = error if error is not None else result
        if error is not None:
            digest = f"raised {type(error).__name__}: {error}"
        else:
            digest = self.ops[index].digest(result)
        self.runs.append((index, digest))

    def latencies(self, clock):
        """(latencies at the reference host speed, wall latencies), seconds."""
        timed = [clock.sample(t0, t1) for t0, t1 in self.spans]
        return [t for t, _ in timed], [w for _, w in timed]


def run_passes(ops, seconds, outcomes, passes=None, tracer=None):
    """Whole passes over ops until ``seconds`` have passed (or exactly
    ``passes`` of them); returns the number of passes."""
    gc.collect()
    start, done = perf_counter(), 0
    while True:
        for i, op in enumerate(ops):
            error = result = None
            t0 = perf_counter()
            try:
                result = tracer.run_op(i, op.run) if tracer else op.run()
            except Exception as exc:  # a raising op is a failed op, not a crash
                error = exc
            outcomes.record(i, (t0, perf_counter()), result, error)
        done += 1
        if passes is None and perf_counter() - start >= seconds or done == passes:
            return done


def check(outcomes):
    """(failed runs, unexplained failed runs, problem lines).

    Each op's first result is checked against its reference; a later run of
    the same op must reproduce that result's digest exactly.
    """
    verdict = {}
    problems = []
    for i, result in outcomes.first.items():
        op = outcomes.ops[i]
        if isinstance(result, Exception):
            found, known = [f"raised {type(result).__name__}: {result}"], False
        else:
            found = op.check(result)
            known = bool(found) and op.explain(result)
        verdict[i] = (bool(found), known)
        problems += [f"op {i} {op.kind}{' [known defect]' if known else ''}: {s}"
                     for s in found]
    first_digest = {}
    failed = unexplained = 0
    for i, digest in outcomes.runs:
        first_digest.setdefault(i, digest)
        bad, known = verdict[i]
        if digest != first_digest[i]:
            bad, known = True, False
            problems.append(f"op {i} {outcomes.ops[i].kind}: result changed between passes")
        failed += bad
        unexplained += bad and not known
    return failed, unexplained, problems


def tail(latencies):
    """(value, percentile, samples above): the highest percentile that still
    has at least ten samples above it, but never below p90 (nearest rank),
    which it is when there are fewer than 100 samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, math.ceil(0.9 * n) - 1)
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def end_to_end(outcomes, clock, setup_spans, peak_rss_mb, failed):
    lat, wall = outcomes.latencies(clock)
    setup = [clock.sample(t0, t1) for t0, t1 in setup_spans]
    setup_wall = statistics.median(w for _, w in setup)
    value, pct, above = tail(lat)
    return {
        "ops_per_s": (len(lat) / math.fsum(lat), "op/s",
                      f"wall {len(wall) / math.fsum(wall):.6g}"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms",
                      f"n={len(lat)}, wall {statistics.median(wall) * 1e3:.6g}"),
        "op_tail_ms": (value * 1e3, "ms", f"p{pct:.2f}, {above} samples above, n={len(lat)}, "
                       f"wall {tail(wall)[0] * 1e3:.6g}"),
        "setup_s": (statistics.median(t for t, _ in setup), "s",
                    f"median of {len(setup)} set-ups, wall {setup_wall:.6g}"),
        "error_rate": (failed / len(lat), "fraction", f"{failed} of {len(lat)} ops"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss after the timed passes"),
    }


def benchmark(args, spec):
    import hostspeed
    import tracing
    import workloads

    build = workloads.WORKLOADS[args.workload]
    with hostspeed.HostClock() as clock:
        ops, setup_spans = timed_setup(build, args.seed)
        if args.workload == "queries":
            # queries reuse state built once; let its caches fill before timing
            run_passes(ops, 0.0, Outcomes(ops), passes=1)
        outcomes = Outcomes(ops)
        seconds = args.seconds / 2.0 if args.trace else args.seconds
        passes = run_passes(ops, seconds, outcomes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer = tracing.Tracer()
            traced = Outcomes(ops)
            tracer.install()
            try:
                run_passes(ops, 0.0, traced, passes=passes, tracer=tracer)
            finally:
                tracer.uninstall()
    if args.trace:
        if args.spans:
            tracer.dump(args.spans)
        layers = tracing.layer_metrics(tracer.spans, tracer.tallies, passes)
        # both phases ran the same passes, so this is tracing's slowdown
        layers["trace.overhead_ratio"] = (math.fsum(traced.latencies(clock)[0])
                                          / math.fsum(outcomes.latencies(clock)[0]), "ratio")
        outcomes.spans += traced.spans
        outcomes.runs += traced.runs
    failed, unexplained, problems = check(outcomes)
    if args.trace:
        metrics = {name: (value, unit, "") for name, (value, unit) in layers.items()}
    else:
        metrics = end_to_end(outcomes, clock, setup_spans, peak_rss_mb, failed)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"workload {args.workload}: {len(ops)} ops per pass, {passes} passes, "
          f"{'traced' if args.trace else 'untraced'}; host at {clock.speed():.3f}x the "
          f"reference calibration time over {len(clock.durations)} calibrations")
    for line in problems:
        print("check " + line)
    for name, (value, unit, note) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    result = {
        "correct": unexplained == 0,
        "attempted": len(outcomes.spans),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted},
    }
    print(json.dumps(result))
    return 0


def self_test():
    """Each workload on minimal inputs, plus perturbed results that must fail."""
    import workloads

    ok = True
    for name, build in workloads.WORKLOADS.items():
        ops, _ = timed_setup(build, 0, smoke=True)
        outcomes = Outcomes(ops)
        run_passes(ops, 0.0, outcomes, passes=1)
        failed, unexplained, problems = check(outcomes)
        good = unexplained == 0
        print(f"self-test {name}: {len(ops)} ops, {failed} failed, {unexplained} unexplained"
              f" -> {'ok' if good else 'FAIL'}")
        for line in problems:
            print("  " + line)
        ok &= good
        perturbed = [(op, outcomes.first[i]) for i, op in enumerate(ops)
                     if op.perturb and not isinstance(outcomes.first[i], Exception)
                     and not op.check(outcomes.first[i])]
        if not perturbed:
            print(f"self-test {name} perturbed: no passing op to perturb -> FAIL")
            ok = False
            continue
        op, result = perturbed[0]
        caught = bool(op.check(op.perturb(result)))
        print(f"self-test {name} perturbed {op.kind} by 1e-6 relative: "
              f"{'counted as failed -> ok' if caught else 'not detected -> FAIL'}")
        ok &= caught
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("table", "spectrum", "potential", "queries"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, also write every span to this JSON-lines file")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    _import_library()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args, spec)


if __name__ == "__main__":
    sys.exit(main())
