"""Benchmark graphhmm end to end and layer by layer on seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit-graph --seed 0 --seconds 40 --trace 0

Workloads: fit-graph, fit-long and score-forecast (see workloads.py and
BENCHMARK.json for what each stresses). A run sets the workload up at least
three times and for at least one second (reporting the median), then
repeats rounds of the workload's main call plus its forecasts until
``--seconds`` would be exceeded, checking every output. Everything runs in
this one process with BLAS pinned to one thread.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones:

  setup_s          median set-up time (inputs generated, files written) plus import time
  op_s             median wall time of the main call: training.fit, or the score CLI
  forecast_ms_p50  median over the 100 prefixes of one forecast_mean call's latency
  forecast_ms_p90  90th percentile of the same per-prefix latencies
  peak_rss_mib     peak resident memory of the process

op_s and the forecast latencies are given at reference speed: each is
multiplied by REFERENCE_S over the time of a fixed numpy-only reference loop
run beside it (every SAMPLE_INTERVAL_S during the main call, and just before
and after each call). That cancels the drift of a shared host's speed. The
raw times and the reference samples are kept in the BENCH file.

With ``--trace 1`` rounds alternate untraced and traced, and the metrics are
the per-layer ones listed in tracing.py: each is the traced set-up's value
plus the median over traced rounds, and ``trace.overhead_s`` is the traced
minus the untraced round time, both at reference speed. The line before the
result holds the environment. Samples, checks and the environment also go to
``.perfbench/BENCH_<workload>_seed<seed>_trace<t>.json``, and the spans of
a traced run to ``.perfbench/spans_<workload>_seed<seed>.json``.
"""

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from io import StringIO  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
# Set-up repeats until both minimums are met, so cheap set-ups get a steadier median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
WORKLOADS = ("fit-graph", "fit-long", "score-forecast")
# The speed of a shared host drifts by up to 2x within seconds, and the drift
# slows every CPU-bound call alike. So a fixed reference loop runs between
# timed calls and, from a timer signal, every SAMPLE_INTERVAL_S during the
# main call; timings are rescaled to the speed at which that loop takes
# REFERENCE_S (about its median on a 2-core Xeon host).
REFERENCE_S = 0.008
SAMPLE_INTERVAL_S = 0.2


def import_package():
    """Import numpy and graphhmm from this checkout's src/ and return the seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "graphhmm", "__init__.py")):
        raise ImportError(f"no graphhmm package under {SRC}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import numpy  # noqa: F401
    import graphhmm
    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(graphhmm.__file__))) != SRC:
        raise ImportError(f"graphhmm was imported from {graphhmm.__file__}, not {SRC}")
    return elapsed


def git_commit():
    """The checked-out commit read from .git, or None outside a git work tree."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment():
    import numpy
    from graphhmm import kernels
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numba_enabled": bool(kernels.NUMBA_ENABLED),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


def reference_loop():
    """Fixed numpy-only work shaped like the package's hot paths; returns its seconds.

    A log-space forward step on a 4-state chain, one categorical draw and one
    Gaussian draw, repeated. It touches no graphhmm code, so a change to the
    package cannot change its cost.
    """
    import numpy as np
    rng = np.random.default_rng(12345)
    log_a = np.log(np.full((4, 4), 0.25))
    weights = np.array([0.1, 0.2, 0.3, 0.4])
    alpha = np.zeros(4)
    start = time.perf_counter()
    for _ in range(300):
        x = alpha[:, None] + log_a
        top = x.max(axis=0)
        alpha = top + np.log(np.exp(x - top).sum(axis=0))
        alpha = alpha - alpha.max() + rng.normal(0.0, 0.1, size=4)
        int(rng.choice(4, p=weights))
    return time.perf_counter() - start


def at_reference_speed(seconds, reference_s):
    """``seconds`` rescaled to the speed at which the reference loop takes REFERENCE_S."""
    return seconds * REFERENCE_S / reference_s


class SpeedSampler:
    """Runs the reference loop every SAMPLE_INTERVAL_S of wall time, from SIGALRM.

    The handler runs between two bytecodes of whatever call is in progress,
    so it samples the host's speed inside a long call; ``samples`` holds the
    loop times, and their sum is what the loops added to the call.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(reference_loop())

    def __enter__(self):
        self.samples = []
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return False


def load_reference(workload, seed):
    """Reference outputs recorded at the default seed, or None on any other seed."""
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["workloads"][workload] if seed == doc["seed"] else None


class Bench:
    """One run of one workload: set-up, timed rounds, checks and the result."""

    def __init__(self, workload, seed, seconds, workdir):
        from workloads import build_workloads
        self.workload = build_workloads()[workload]
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.reference = load_reference(workload, seed)
        self.rounds = []
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def fail(self, count, message):
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def run_round(self, recording, sample_inside):
        """Time the main call and each forecast inside ``recording``, then check them.

        A reference loop runs before and after the main call and between
        forecasts, so that every timing has the host's speed measured beside
        it. With ``sample_inside``, a SpeedSampler also runs during the main
        call. Traced runs go without it, in untraced rounds too, so that no
        loop lands inside a span and the two kinds of round stay comparable.
        """
        import numpy as np
        from graphhmm import forecast
        from workloads import FORECAST_SAMPLES, HORIZON, check_forecast

        prefixes = self.inputs["prefixes"]
        self.attempted += 1 + len(prefixes)
        latencies, forecasts, forecast_ref = [], [], []
        round_start = time.perf_counter()
        sampler = SpeedSampler() if sample_inside else contextlib.nullcontext(SpeedSampler())
        with recording:
            op_ref = [reference_loop()]
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(StringIO()), sampler as speed:
                    result = self.workload.run(self.inputs)
            except Exception as exc:  # a failing call is counted, the run goes on
                self.fail(1 + len(prefixes), f"{type(exc).__name__}: {exc}")
                return None
            op_s = time.perf_counter() - start - sum(speed.samples)
            op_ref += speed.samples + [reference_loop()]
            model = self.workload.forecast_model(result)
            forecast_ref.append(reference_loop())
            for i, (node, prefix) in enumerate(prefixes):
                rng = np.random.default_rng([self.seed, i])
                start = time.perf_counter()
                try:
                    out = forecast.forecast_mean(model, prefix, node, HORIZON,
                                                 FORECAST_SAMPLES, rng)
                except Exception as exc:  # a failing call is counted, the run goes on
                    out = exc
                latencies.append(time.perf_counter() - start)
                forecasts.append(out)
                forecast_ref.append(reference_loop())
        errors = self.workload.check(self.inputs, result, self.reference)
        if errors:
            self.fail(1, "; ".join(errors))
        for (node, prefix), out in zip(prefixes, forecasts):
            error = (f"{type(out).__name__}: {out}" if isinstance(out, Exception)
                     else check_forecast(model, node, prefix, out))
            if error:
                self.fail(1, error)
        # the main call's time adds up the host's slowness over its span, so it is
        # rescaled by the mean of the loops run before, during and after it; a
        # forecast by the mean of the loops just before and just after it
        op_at_ref = at_reference_speed(op_s, statistics.fmean(op_ref))
        forecasts_at_ref = [at_reference_speed(x, statistics.fmean(forecast_ref[i:i + 2]))
                            for i, x in enumerate(latencies)]
        return {"op_s": op_s, "forecast_s": latencies, "op_reference_s": op_ref,
                "forecast_reference_s": forecast_ref, "op_at_ref_s": op_at_ref,
                "forecast_at_ref_s": forecasts_at_ref,
                "round_at_ref_s": op_at_ref + sum(forecasts_at_ref),
                "wall_s": time.perf_counter() - round_start,
                "summary": self.workload.summary(result)}

    def measure(self, tracer=None):
        """Repeat rounds until the next one would overrun ``seconds``.

        Without a tracer every round is untraced; with one, rounds alternate
        untraced and traced, and at least one of each runs.
        """
        start = time.perf_counter()
        failed_in_a_row = 0
        while True:
            traced = tracer is not None and len(self.rounds) % 2 == 1
            recording = (tracer.recording(f"round{len(self.rounds)}") if traced
                         else contextlib.nullcontext())
            record = self.run_round(recording, sample_inside=tracer is None)
            if record is None:
                failed_in_a_row += 1
                if failed_in_a_row == 3:
                    raise RuntimeError("the main call failed in three rounds in a row")
                continue
            failed_in_a_row = 0
            record["traced"] = traced
            self.rounds.append(record)
            elapsed = time.perf_counter() - start
            longest = max(r["wall_s"] for r in self.rounds)
            enough = len(self.rounds) >= (2 if tracer is not None else 1)
            if enough and elapsed + longest > self.seconds:
                return

    def end_to_end(self, import_s):
        setups = []
        while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_SECONDS:
            start = time.perf_counter()
            self.inputs = self.workload.setup(self.seed, self.workdir)
            setups.append(time.perf_counter() - start)
        self.measure()
        # each prefix's latency is its median over rounds
        per_prefix_ms = [1000.0 * statistics.median(r["forecast_at_ref_s"][i] for r in self.rounds)
                         for i in range(len(self.inputs["prefixes"]))]
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.samples = {"import_s": import_s, "setup_s": setups}
        return {
            "setup_s": (import_s + statistics.median(setups), "s"),
            "op_s": (statistics.median(r["op_at_ref_s"] for r in self.rounds), "s"),
            "forecast_ms_p50": (statistics.median(per_prefix_ms), "ms"),
            "forecast_ms_p90": (statistics.quantiles(per_prefix_ms, n=10)[-1], "ms"),
            "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
        }

    def per_layer(self):
        from tracing import METRICS, Tracer, unit_of
        tracer = Tracer()
        with tracer.recording("setup"):
            self.inputs = self.workload.setup(self.seed, self.workdir)
        self.measure(tracer)
        traced = [f"round{i}" for i, r in enumerate(self.rounds) if r["traced"]]
        setup = tracer.layer_metrics("setup")
        per_round = [tracer.layer_metrics(phase) for phase in traced]
        values = {key: setup[key] + statistics.median_low(m[key] for m in per_round)
                  for key in setup}
        plain = statistics.median(r["round_at_ref_s"] for r in self.rounds if not r["traced"])
        with_trace = statistics.median(r["round_at_ref_s"] for r in self.rounds if r["traced"])
        values["trace.overhead_s"] = with_trace - plain
        values["trace.overhead_frac"] = (with_trace - plain) / plain
        self.tracer = tracer
        self.samples = {"traced_phases": traced}
        return {key: (values[key], unit_of(key)) for key in METRICS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_s = import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, args.seconds, workdir)
        metrics = bench.per_layer() if args.trace else bench.end_to_end(import_s)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    tag = f"{args.workload}_seed{args.seed}"
    detail = {
        "workload": args.workload, "params": bench.workload.params(), "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "checks": {"attempted": bench.attempted, "failed": bench.failed,
                   "errors": bench.errors,
                   "reference_checked": bench.reference is not None},
        "samples": {**bench.samples, "rounds": bench.rounds},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"BENCH_{tag}_trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    if args.trace:
        bench.tracer.dump(os.path.join(OUT_DIR, f"spans_{tag}.json"))

    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": detail["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
