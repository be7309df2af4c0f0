"""corelect benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload elect --seed 1 --seconds 55 --trace 0

Runs from the root of a corelect checkout and imports the library from
its ``src/``.  Each op is timed from outside, one at a time by a single
client (a closed loop), and checked outside the timed region; an op that
raises or fails its check counts as failed.  The run prints one line per
metric and, as its last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics (setup time, ops/s, p50 and p90
  op latency, peak RSS); ``failed_frac`` is printed on its own line.
* ``--trace 1``: every op runs twice on the same input, once untraced
  and once under the tracer (alternating which goes first), and the
  per-layer metrics come from the traced half, together with the
  tracing overhead.  Spans are written to ``.bench_out/`` at exit.

Workloads, metrics and their expected interplay are described in
``bench/README.md``.
"""

import os

# one thread per process: numpy's BLAS pool would otherwise start threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
TRACE_DIR = ROOT / ".bench_out"
DEFAULT_SEED = 1
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120
WORKLOAD_NAMES = ("elect", "kernels", "local-scale", "oracle-sweep", "lb1-scan")


def use_checkout():
    """Import corelect from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "corelect" / "__init__.py").is_file():
        raise SystemExit(f"error: no corelect sources at {SRC / 'corelect'}")
    for path in (str(BENCH), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import corelect

    if Path(corelect.__file__).resolve().parent != (SRC / "corelect").resolve():
        raise SystemExit(f"error: corelect imported from {corelect.__file__}, not {SRC}")


class Pool:
    """A workload's inputs for one seed, in a temporary directory of the checkout."""

    def __init__(self, name, seed):
        from workloads import WORKLOADS

        self.workdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
        try:
            self.workload = WORKLOADS[name](self.workdir)
            self.inputs = self.workload.make_inputs(seed)
        except BaseException:
            self.close()
            raise
        self.expected = {}  # input index -> digest the op must reproduce
        if seed == DEFAULT_SEED and DIGESTS.is_file():
            recorded = json.loads(DIGESTS.read_text())["workloads"].get(name, [])
            self.expected = dict(enumerate(recorded))

    def warm_up(self):
        """One untimed op and check, so lazy imports finish before timing."""
        attempt(self, 0)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def attempt(pool, idx, tracer=None):
    """Run, time and check one op; returns (seconds, problems, digest).

    The tracer, if given, is installed only around the timed call.  An op
    whose digest differs from the recorded one, or from the first run of
    the same input, has a problem.
    """
    w = pool.workload
    inp = pool.inputs[idx]
    arg = w.prepare(inp)
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = w.run(arg, inp)
    except Exception as exc:  # the run keeps going and counts the op as failed
        return time.perf_counter() - t0, [f"op raised {type(exc).__name__}: {exc}"], None
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    try:
        problems = w.check(inp, arg, out)
        digest = w.digest(out)
    except Exception as exc:
        return elapsed, [f"check raised {type(exc).__name__}: {exc}"], None
    expected = pool.expected.get(idx)
    if expected is None:
        pool.expected[idx] = digest
    elif digest != expected:
        problems.append(f"output digest {digest} differs from {expected}")
    return elapsed, problems, digest


def measure(pool, seconds, tracer=None):
    """Closed loop over the input pool for ``seconds`` of wall time.

    Returns (untraced latencies, traced latencies, attempted, failed).
    """
    plain, traced = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        idx = i % len(pool.inputs)
        if tracer is None:
            modes = (None,)
        else:
            tracer.op_id = i
            modes = (None, tracer) if i % 2 == 0 else (tracer, None)
        for mode in modes:
            elapsed, problems, _ = attempt(pool, idx, mode)
            (plain if mode is None else traced).append(elapsed)
            attempted += 1
            if problems:
                failed += 1
                if failed <= 5:
                    print(f"op {i} (input {idx}) failed: {problems}", file=sys.stderr)
        i += 1
    return plain, traced, attempted, failed


def setup_sample(workload, seed):
    """Seconds from spawning a fresh interpreter to its first timed op."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=SETUP_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up run exited with {proc.returncode}")
    return elapsed


def ops_per_s(latencies):
    return len(latencies) / sum(latencies)


def end_to_end(plain, setup):
    p90 = statistics.quantiles(plain, n=10)[8] if len(plain) > 1 else plain[0]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ops_per_s(plain), "ops/s"),
        "op_p50_ms": (statistics.median(plain) * 1000, "ms"),
        "op_p90_ms": (p90 * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, plain, traced):
    """Layer metrics of the traced ops; counts and busy times are per op,
    so they compare across runs that complete different numbers of ops."""
    metrics = {}
    for name, (value, unit) in tracer.layer_metrics().items():
        if unit in ("count", "s"):
            value, unit = value / len(traced), unit + "/op"
        metrics[name] = (value, unit)
    untraced_rate, traced_rate = ops_per_s(plain), ops_per_s(traced)
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "ops/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "ops/s")
    metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    use_checkout()
    if args.setup_only:
        with Pool(args.workload, args.seed) as pool:
            pool.warm_up()
            print("ready", flush=True)
        return 0

    setup = [] if args.trace else [
        setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES)
    ]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    with Pool(args.workload, args.seed) as pool:
        pool.warm_up()
        plain, traced, attempted, failed = measure(pool, args.seconds, tracer)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"untraced ops {len(plain)}  traced ops {len(traced)}")
    if tracer is None:
        metrics = end_to_end(plain, setup)
        print(f"{'failed_frac':<36} {failed / attempted:>16.6g} ratio")
    else:
        metrics = per_layer(tracer, plain, traced)
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.dump(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
