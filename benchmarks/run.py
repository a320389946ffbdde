"""Run one benchmark workload of pgaplab and print its metrics as JSON.

    python3 benchmarks/run.py --workload gap-finite --seed 1 --seconds 25 --trace 0

From the root of a source checkout.  The program is imported from the
checkout's `src/` and driven only through `pgaplab.cli.main`.  A run
makes the inputs from the seed, then runs whole rounds of the workload's
CLI calls for as long as another round still fits in `--seconds` (at
least one), and checks every call's outputs after each round.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0`: `wall_s` (the
median over rounds of a round's time, rescaled to the reference speed,
see REFERENCE_S), `setup_s` (process start to the first call: interpreter
start, importing pgaplab and making the inputs, rescaled the same way)
and `peak_rss_mib`.  With `--trace 1` the public functions of each
module are wrapped (see tracing.py) and the per-layer metrics of the
README are printed instead, as medians over rounds.  Outputs, spans and a per-round record go to `.bench_out/`.
"""

import os
import signal
import time

_STARTED = time.perf_counter()

# One thread everywhere: pgaplab's multistart pool is off (threads = 1 in
# every gap config, PGAP_THREADS unset) and numeric libraries use one thread.
os.environ.pop("PGAP_THREADS", None)
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"


# The machine's speed drifts: a fixed unit of work takes 1.0 to 1.6 times its
# fastest time, in spells that come and go within a second (see the README).
# So a timer signal times a fixed unit of work at a fixed interval while
# set-up and the rounds run, and each window's time is rescaled by the unit's
# time sampled inside it.  The slowest fifth of the samples is dropped: a
# sample that a page fault or a collection lands in says nothing of the speed.
KEEP_FASTEST = 0.8


def _python_unit() -> int:
    """Tuples and a dict: the kind of work imports and pgaplab's bookkeeping do."""
    table = {(i, i % 7, -i): i for i in range(2000)}
    total = 0
    for key in table:
        total += key[1]
    return total


_ARRAYS = []  # made at first use, after pgaplab has imported numpy


def _program_unit() -> float:
    """Python containers, numpy calls on tiny arrays and on longer ones: the
    three kinds of work the workloads spend their time on."""
    import numpy as np

    if not _ARRAYS:
        rng = np.random.default_rng(0)
        _ARRAYS.extend(rng.standard_normal(n) for n in (24, 2000))
    small, large = _ARRAYS
    total = float(_python_unit())
    for _ in range(150):
        total += float(np.sum(np.abs(small) ** 3.0))
    for _ in range(15):
        total += float(np.sum(np.sort(np.abs(large)) ** 3.0))
    return total


class SpeedSampler:
    """Times `unit` every `interval_s` of wall time from a SIGALRM handler,
    in the process's one thread, so that the speed is sampled during the
    program's work.  `reference_s` is the unit's time, so sampled, when the
    README's machine is fast."""

    def __init__(self, unit, reference_s: float, interval_s: float):
        self.unit, self.reference_s, self.times = unit, reference_s, []
        unit()  # first use: warm the code path before timing
        signal.signal(signal.SIGALRM, lambda signum, frame: self.times.append(self._time()))
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)

    def _time(self) -> float:
        start = time.perf_counter()
        self.unit()
        return time.perf_counter() - start

    def take(self) -> list:
        """The times sampled since the last take."""
        times, self.times = self.times, []
        return times

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rescale(self, seconds: float, samples: list) -> tuple[float, float]:
        """A window's wall time less the samples taken in it, and that time
        at the reference speed."""
        net = seconds - sum(samples)
        speed = list(samples)
        while len(speed) < 5:  # a short window: time the unit now
            speed.append(self._time())
        kept = sorted(speed)[: int(len(speed) * KEEP_FASTEST)]
        return net, net * self.reference_s * len(kept) / sum(kept)


# Before any import, so set-up is sampled from here on.  numpy is not loaded
# yet, so set-up is timed against the pure-Python unit.
SETUP_SAMPLER = SpeedSampler(_python_unit, reference_s=0.00045, interval_s=0.02)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
KEEP = {"config.json", "potential.csv"}  # inputs inside a call's directory

def process_age() -> float:
    """Seconds since this process started, from its start time in /proc."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - _STARTED  # no /proc: misses interpreter start


def import_program():
    src = ROOT / "src"
    if not (src / "pgaplab" / "cli.py").is_file():
        sys.exit(f"no pgaplab sources under {src}")
    sys.path.insert(0, str(src))
    import pgaplab.cli

    if Path(pgaplab.cli.__file__).resolve().parent != src / "pgaplab":
        sys.exit(f"pgaplab was imported from {pgaplab.cli.__file__}, not from {src}")
    return pgaplab.cli


def run_round(cli, calls, tracer, sampler) -> tuple[float, float]:
    """Make every call once.  Returns the round's wall time less the speed
    samples taken in it, and that time at the reference speed."""
    for call in calls:
        for path in call.out.iterdir():
            if path.name not in KEEP:
                path.unlink()
    sampler.take()  # drop the samples taken during the last checks
    start = time.perf_counter()
    for call in calls:
        buf = io.StringIO()
        call_start = time.perf_counter()
        if tracer is not None:
            tracer.enter(f"cli.{call.argv[0]}")
        try:
            with contextlib.redirect_stdout(buf):
                call.code = cli.main(call.argv)
            call.error = ""
        except Exception:  # a crash is a failed operation, not a failed benchmark
            call.code = "exception"
            call.error = traceback.format_exc()
        finally:
            if tracer is not None:
                tracer.leave()
        call.seconds = time.perf_counter() - call_start
        call.stdout = buf.getvalue()
    return sampler.rescale(time.perf_counter() - start, sampler.take())


def check_round(calls, known) -> list:
    """(operation, failed checks, unexpected) for every operation of a round."""
    outcomes = []
    for call in calls:
        if call.error:
            print(f"{call.name}: raised\n{call.error}", file=sys.stderr)
        for op, failed in call.check(call):
            unexpected = [c for c in failed if (op, c) not in known]
            outcomes.append((op, failed, unexpected))
    return outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # The program first: the benchmark's own modules import nothing that
    # pgaplab has not imported already, so set-up moves with pgaplab's imports.
    cli = import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    out = ROOT / ".bench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    calls = workloads.WORKLOADS[args.workload](out / "calls", args.seed)
    age = process_age()
    setup_samples = SETUP_SAMPLER.take()
    SETUP_SAMPLER.stop()
    raw_setup, setup_s = SETUP_SAMPLER.rescale(age, setup_samples)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    rounds = []
    sampler = SpeedSampler(_program_unit, reference_s=0.0012, interval_s=0.05)
    begin = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        raw_wall, wall = run_round(cli, calls, tracer, sampler)
        layers = tracer.metrics() if tracer is not None else {}
        outcomes = check_round(calls, workloads.KNOWN_FAULTS)
        seconds = {call.name: call.seconds for call in calls}
        rounds.append(
            {
                "wall_s": wall,
                "raw_wall_s": raw_wall,
                "calls": seconds,
                "layers": layers,
                "outcomes": outcomes,
            }
        )
        spent = time.perf_counter() - begin
        if spent + statistics.median(r["raw_wall_s"] for r in rounds) > args.seconds:
            break

    sampler.stop()
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(out / "spans.csv")

    outcomes = [o for r in rounds for o in r["outcomes"]]
    failed = [o for o in outcomes if o[1]]
    unexpected = [o for o in outcomes if o[2]]
    for op, checks in dict.fromkeys((o[0], tuple(o[1])) for o in failed):
        print(f"failed: {op}: {', '.join(checks)}", file=sys.stderr)
    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    else:
        metrics = {
            m["name"]: (statistics.median(r["layers"][m["name"]] for r in rounds), m["unit"])
            for m in spec["per_layer"]
        }
    (out / "rounds.json").write_text(
        json.dumps(
            {
                "seed": args.seed,
                "setup_s": setup_s,
                "raw_setup_s": raw_setup,
                "setup_samples": len(setup_samples),
                "rounds": rounds,
            },
            indent=1,
        )
    )
    result = {
        "correct": not unexpected,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)  # no alarm may outlive main
