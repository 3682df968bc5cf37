"""apolar benchmark: one workload per run, end to end or traced per layer.

    python3 bench/run.py --workload tangent-3x5 --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seconds 36

Runs in one process on one thread against the package under src/ of the same
checkout.  A run draws a fixed list of trial inputs from --seed and runs the
whole list again and again, in passes, until --seconds would be spent; it
starts no pass it expects to end past that budget, and always runs one.  Each
execution is timed in reference-speed seconds (see REF_SECONDS) and each input
reports the median over its executions.  Every execution is checked exactly
(workloads.py); the last line of stdout is one JSON object with keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics.  --trace 1 alternates untraced passes with traced passes over the
same inputs (tracing.py) and reports the per-layer metrics.  Spans and a copy
of each result go to bench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from itertools import islice
from math import inf
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "bench_out"
NAMES = ("tangent-3x5", "small-ci", "identities-default")
# Fastest time of reference() on the baseline machine.  Times are reported in
# reference-speed seconds: wall seconds scaled by REF_SECONDS over the
# reference() time measured next to them, which takes out the slowdown that
# other tenants of a shared host impose.
REF_SECONDS = 0.0038
GAUGE_PERIOD = 0.2
# A fresh interpreter importing apolar, plus the first call that imports numpy.
SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); import apolar; "
    "from apolar.linalg import rank_mod_prime; rank_mod_prime([[1, 2], [3, 4]])"
)

END_TO_END_UNITS = {
    "records_per_s": "1/s",
    "trial_s_p50": "s",
    "trial_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_package():
    """Import apolar from this checkout's src/, or exit 2 if it is absent."""
    if not (SRC / "apolar" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'apolar'}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import apolar

    if Path(apolar.__file__).resolve().parent != SRC / "apolar":
        print(f"error: imported apolar from {apolar.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return apolar


def environment() -> dict:
    import numpy

    import apolar.linalg

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "numpy": numpy.__version__,
        # Timings with and without gmpy2 are not comparable.
        "bigint": "int" if apolar.linalg.mpz is int else "gmpy2",
    }


def reference() -> int:
    """A fixed few milliseconds of big-integer and dict work, timed next to
    every trial and set-up to gauge how fast the machine runs at that moment."""
    a = [(i * 0x9E3779B97F4A7C15) ** 3 for i in range(1, 81)]
    total = 0
    table = {}
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            total += (x * y) % (a[(i + j) % 80] | 1)
            table[i, j & 7] = total & 255
    return total + len(table)


def reference_seconds() -> float:
    start = perf_counter()
    reference()
    return perf_counter() - start


class Gauge:
    """Runs reference() every GAUGE_PERIOD seconds from a SIGALRM handler while
    a trial runs, so that a long trial is scaled by the machine speed across
    its whole length, not only at its ends."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum, frame):
        start = perf_counter()
        reference()
        self.samples.append((start, perf_counter()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD, GAUGE_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, end: float, before: float, after: float) -> tuple[float, float]:
        """(seconds, reference-speed seconds) of the timed region [start, end]
        without the samples taken inside it; `before` and `after` are the
        reference() times just outside it."""
        inside = sum(e - s for s, e in self.samples if start <= s and e <= end)
        refs = [before, after] + [e - s for s, e in self.samples]
        seconds = end - start - inside
        return seconds, seconds * REF_SECONDS * len(refs) / sum(refs)


def setup_once() -> tuple[float, float]:
    """(seconds, reference-speed seconds) of one fresh interpreter doing SETUP_CODE."""
    before = reference_seconds()
    start = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE.format(src=str(SRC))], check=True)
    seconds = perf_counter() - start
    return seconds, seconds * 2 * REF_SECONDS / (before + reference_seconds())


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """One workload's fixed trial inputs, their checks and their times."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.inputs = list(islice(workload.inputs(seed), workload.inputs_per_run))
        self.out_path = str(OUT_DIR / f"report-{workload.name}.jsonl")
        self.outputs: list = [None] * len(self.inputs)
        # Reference-speed and wall seconds of every execution that did not
        # raise, by input.
        self.times: list[list[float]] = [[] for _ in self.inputs]
        self.wall_times: list[list[float]] = [[] for _ in self.inputs]
        self.attempted = 0
        self.failed = 0
        self.digest_ok = True

    def trial(self, index: int):
        """Run and check input `index` once.

        Returns the outcome, whose output is None if the trial raised, and its
        reference-speed seconds: its wall time scaled by REF_SECONDS over the
        mean of the reference() times just before, during and just after it.
        """
        from workloads import Outcome

        trial_input = self.inputs[index]
        records = self.workload.records_per_trial(trial_input)
        self.attempted += records
        before = reference_seconds()
        try:
            with Gauge() as gauge:
                outcome = self.workload.run(trial_input, self.out_path)
        except Exception as exc:  # a raising trial fails all its records
            print(f"trial {index} raised {exc!r}", file=sys.stderr)
            self.failed += records
            return Outcome(0.0, 0.0, None), 0.0
        seconds, scaled = gauge.scaled(outcome.start, outcome.end, before, reference_seconds())
        self.times[index].append(scaled)
        self.wall_times[index].append(seconds)
        failed, digest_ok = self.workload.check(index, trial_input, outcome.output, self.seed)
        first = self.outputs[index]
        if first is None:
            self.outputs[index] = outcome.output
        elif outcome.output != first:
            # Repeats, traced or not, must reproduce the first output exactly.
            failed = records
        self.failed += failed
        self.digest_ok = self.digest_ok and digest_ok
        return outcome, scaled

    def input_times(self) -> list[float]:
        """Each input's median reference-speed time over its executions."""
        return [statistics.median(t) for t in self.times if t] or [inf]

    def totals(self) -> tuple[int, int]:
        """(attempted, failed); a digest mismatch fails every record."""
        failed = min(self.failed, self.attempted) if self.digest_ok else self.attempted
        return self.attempted, failed

    def records_per_pass(self) -> int:
        return sum(self.workload.records_per_trial(x) for x in self.inputs)


def passes_until(seconds: float, step) -> int:
    """Call step() until the next call would likely end past `seconds`; at least once."""
    start = perf_counter()
    done = 0
    while True:
        step()
        done += 1
        spent = perf_counter() - start
        if spent + spent / done > seconds:
            return done


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, dict]:
    run = Run(workload, seed)
    setups = []

    def step():
        for index in range(len(run.inputs)):
            run.trial(index)
        # One set-up per pass, so set-up is sampled across the run.
        setups.append(setup_once())

    passes = passes_until(seconds, step)
    times = run.input_times()
    attempted, failed = run.totals()
    metrics = {
        "records_per_s": run.records_per_pass() / sum(times),
        "trial_s_p50": statistics.median(times),
        "trial_s_p90": _percentile(times, 90),
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"attempted": attempted, "failed": failed, "passes": passes,
                     "trial_seconds": run.times, "wall_trial_seconds": run.wall_times,
                     "setup_seconds": setups}


def traced(workload, seed: int, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    import tracing

    tracer = tracing.Tracer()
    run = Run(workload, seed)
    plain = Run(workload, seed)
    plain.outputs = run.outputs  # both must reproduce the same first outputs
    shapes = []
    totals = {"traced_s": 0.0, "executions": 0, "report_bytes": 0, "sampled_forms": 0}

    def step():
        # An untraced pass, then the same inputs traced, so that the overhead
        # compares the same inputs at nearly the same time.
        for index in range(len(run.inputs)):
            plain.trial(index)
        with tracing.installed(tracer):
            for index in range(len(run.inputs)):
                tracer.trial = index
                outcome, scaled = run.trial(index)
                totals["traced_s"] += scaled
                totals["executions"] += 1
                totals["report_bytes"] += outcome.report_bytes
                # Spans also hold the gauge's samples, so scale them by the
                # trial's span-inclusive wall time.
                scale = scaled / (outcome.end - outcome.start) if scaled else 0.0
                forms, shape = tracing.finish_trial(tracer, scale)
                totals["sampled_forms"] += forms
                if shape:
                    shapes.append(shape)

    passes = passes_until(seconds, step)
    attempted, failed = (a + b for a, b in zip(run.totals(), plain.totals()))
    executions = totals["executions"]
    metrics = {name + "_s": tracer.self_seconds[name] / executions for name in tracing.TIMED}
    draws = tracer.counts["sampling.random_form"]
    metrics.update({
        "linalg.rank_mod_prime_s": sum(s[3] for s in shapes) / executions,
        "linalg.max_entry_bits": statistics.median(s[2] for s in shapes) if shapes else 0,
        "linalg.rows": statistics.median(s[0] for s in shapes) if shapes else 0,
        "linalg.cols": statistics.median(s[1] for s in shapes) if shapes else 0,
        "sampling.random_ci_tuple_calls": tracer.calls("sampling.random_ci_tuple") / executions,
        "sampling.useful_draw_frac": totals["sampled_forms"] / draws if draws else 0.0,
        "cli.report_bytes": totals["report_bytes"] / executions,
        "trace.coverage": tracer.covered_seconds / totals["traced_s"],
        "trace.overhead_frac": sum(run.input_times()) / sum(plain.input_times()) - 1,
    })
    with open(spans_path, "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    return metrics, {"attempted": attempted, "failed": failed, "passes": passes,
                     "trial_seconds": run.times, "untraced_trial_seconds": plain.times}


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the result line plus the details kept in bench_out/."""
    import apolar.linalg

    OUT_DIR.mkdir(exist_ok=True)
    # setup_s times this lazy numpy import; the trials should not.
    apolar.linalg.rank_mod_prime([[1, 2], [3, 4]])
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    # One CPU for the whole run, so that the reference loop gauges the CPU
    # that the trials and the set-up interpreters run on.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        if trace:
            import tracing

            metrics, counts = traced(workload, seed, seconds, OUT_DIR / f"spans-{tag}.jsonl")
            units = tracing.PER_LAYER_UNITS
        else:
            metrics, counts = end_to_end(workload, seed, seconds)
            units = END_TO_END_UNITS
    finally:
        os.sched_setaffinity(0, cpus)
    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    details = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "failed_frac": counts["failed"] / counts["attempted"],
        "environment": environment(), **counts, **result,
    }
    with open(OUT_DIR / f"result-{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(details, handle, indent=1)
    return details


def print_result(details: dict) -> None:
    print(f"workload {details['workload']} seed {details['seed']} trace {details['trace']} "
          f"inputs {len(details['trial_seconds'])} passes {details['passes']}")
    print(f"environment {json.dumps(details['environment'])}")
    for name, metric in details["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"failed_frac {details['failed_frac']!r} fraction")
    print(json.dumps({key: details[key] for key in ("correct", "attempted", "failed", "metrics")}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        code = 0
        for name in NAMES:
            sub = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = max(code, subprocess.run(sub).returncode)
        return code
    load_package()
    import workloads

    print_result(measure(workloads.build(args.workload), args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
