"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload fuchsian-agree --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; gadsp is imported from ./src.  The
run is one process with no extra threads, doing one operation after
another (a closed loop).  It repeats whole rounds of the workload's fixed
operations, in an order drawn from --seed, until --seconds have passed and
at least MIN_OPS operations were timed; the first round is a warm-up whose
times are not reported.  Every output is checked by
checker.py; an output identical to one that passed is not checked again.

Every end-to-end time is scaled to a reference machine speed by the probes
of speed.py (its docstring says why); the raw times go to stderr.

With --trace 0 it reports the end-to-end metrics.  setup_s is measured in
SETUP_REPEATS fresh child processes, one after another, before the timed
loop: each is this script with --setup-only, timed from its start until it
reports its inputs parsed, less SETUP_PROBES probes it then runs, and scaled
by those probes, so the speed is measured in the process that set up.

With --trace 1 it alternates untraced and traced rounds and reports the
per-layer metrics named in BENCHMARK.json, as the mean over traced rounds
of tracer.py's figures per round: counts, and span times scaled by the
probes of their round (they include the probes that ran inside them, about
1 %).  setup.import_s and setup.load_s are scaled by SETUP_PROBES probes
run right after set-up, and trace.overhead_s is the traced minus the
untraced mean scaled round time.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import speed

perf = time.perf_counter
T_START = perf()

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
SRC = os.path.join(os.getcwd(), "src")
INPUTS = os.path.join(HERE, "inputs")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("fuchsian-agree", "irregular-check", "matrix-mc")
MIN_OPS = 100
SETUP_REPEATS = 9
SETUP_PROBES = 5
READY = "setup-done"


def setup(workload):
    """Import gadsp and parse the workload's inputs; returns
    (groups, import seconds, load seconds)."""
    t0 = perf()
    sys.path.insert(0, SRC)
    import workloads
    t1 = perf()
    groups = workloads.LOADERS[workload](INPUTS)
    return groups, t1 - t0, perf() - t1


def setup_only(workload):
    """The child side of setup_seconds: set up, probe this process's speed,
    and report."""
    setup(workload)
    probes = [speed.probe() for _ in range(SETUP_PROBES)]
    print(READY, speed.rate(probes), sum(probes), flush=True)


def setup_seconds(workload):
    """Median start-to-parsed time of fresh processes, raw and scaled by
    the probes each process ran after its set-up."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf()
        with subprocess.Popen([sys.executable, os.path.abspath(__file__),
                               "--workload", workload, "--setup-only"],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf() - t0
            proc.stdout.read()
        ready, rate, probes = (line.split() + ["", "", ""])[:3]
        if proc.returncode != 0 or ready != READY:
            raise RuntimeError("setup probe failed (exit %s)" % proc.returncode)
        raw.append(elapsed - float(probes))
        scaled.append(raw[-1] * float(rate))
    return statistics.median(raw), statistics.median(scaled)


class Runner:
    """Runs rounds, counts attempted and failed operations, checks outputs."""

    def __init__(self):
        import workloads
        self.op_failed = workloads.OpFailed
        self.passed = {}      # (kind, key) -> output that passed its checks
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.check_s = 0.0
        self.speed = speed.SpeedLog()

    def round(self, order):
        """Run every group once; returns (start, end, probe seconds inside)
        of each operation."""
        spans = []
        for group in order:
            ctx = {}
            for op in group:
                self.attempted += 1
                spent = self.speed.spent
                t0 = perf()
                try:
                    out = op.call(ctx)
                except Exception as exc:  # counted, reported, and the run goes on
                    spans.append((t0, perf(), self.speed.spent - spent))
                    self.failed += 1
                    sys.stderr.write("FAILED %s %s: %s\n" % (op.kind, op.key, exc))
                    if not isinstance(exc, self.op_failed):
                        traceback.print_exc()
                    continue
                spans.append((t0, perf(), self.speed.spent - spent))
                self._check(op, out, ctx)
        return spans

    def _check(self, op, out, ctx):
        key = (op.kind, op.key)
        if key in self.passed and self.passed[key] == out:
            return
        t0 = perf()
        found = op.check(out, ctx)
        self.check_s += perf() - t0
        if found:
            self.problems += ["%s %s: %s" % (op.kind, op.key, p) for p in found]
        else:
            self.passed[key] = out


def measure(groups, seed, seconds, trace):
    """Run a warm-up round, then timed rounds; returns the runner, per timed
    round whether it was traced and its operations' spans, the tracer, and
    per traced round its layer figures and speed rate."""
    runner = Runner()
    rng = random.Random(seed)
    rounds = []
    layer_rounds = []
    tracer = None
    if trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
    t_loop = perf()
    with runner.speed:
        # The first round fills the interpreter's and gadsp's lazy state; its
        # outputs are checked and counted, its times are not reported.
        runner.round(rng.sample(groups, len(groups)))
        while True:
            traced = trace and len(rounds) % 2 == 1
            if traced:
                tracer.install()
            t0 = perf()
            try:
                rounds.append((traced, runner.round(rng.sample(groups, len(groups)))))
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                layer_rounds.append((tracer.take_round(),
                                     runner.speed.rate(t0, perf())))
            timed = sum(len(spans) for _, spans in rounds)
            done = perf() - t_loop >= seconds and timed >= MIN_OPS
            if done and (not trace or len(rounds) % 2 == 0):
                break
    return runner, rounds, tracer, layer_rounds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="parse the inputs, probe, print %s and exit" % READY)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gadsp", "__init__.py")):
        sys.stderr.write("error: no gadsp sources under %s; run from the root "
                         "of a gadsp checkout\n" % SRC)
        return 2
    if args.setup_only:
        setup_only(args.workload)
        return 0

    setup_raw, setup_s = (None, None) if args.trace else setup_seconds(args.workload)
    groups, import_s, load_s = setup(args.workload)
    setup_rate = speed.rate([speed.probe() for _ in range(SETUP_PROBES)])
    runner, rounds, tracer, layer_rounds = measure(groups, args.seed, args.seconds,
                                                   args.trace)
    plain, traced, latencies, raw = [], [], [], []
    for was_traced, spans in rounds:
        scaled = [runner.speed.scaled(*span) for span in spans]
        (traced if was_traced else plain).append(sum(scaled))
        if not was_traced:
            latencies += scaled
            raw.append(sum(t1 - t0 - spent for t0, t1, spent in spans))

    if args.trace:
        with open(SPEC, encoding="utf-8") as fh:
            per_layer = json.load(fh)["per_layer"]
        own = {"setup.import_s": import_s * setup_rate,
               "setup.load_s": load_s * setup_rate,
               "trace.overhead_s": statistics.mean(traced) - statistics.mean(plain)}
        metrics = {}
        for m in per_layer:
            name, unit = m["name"], m["unit"]
            value = own[name] if name in own else statistics.mean(
                figures[name] * (rate if unit == "s" else 1)
                for figures, rate in layer_rounds)
            metrics[name] = {"value": value, "unit": unit}
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, "trace-%s-seed%d.json"
                                  % (args.workload, args.seed)))
    else:
        metrics = {
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "latency_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "latency_p90_s": {"value": statistics.quantiles(latencies, n=10)[8],
                              "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    for problem in runner.problems:
        sys.stderr.write("WRONG %s\n" % problem)
    sys.stderr.write("%s seed %d: scaled rounds %s, traced %s; raw rounds %s; "
                     "raw setup %s s; median probe %.3g s; %d ops, %d failed, "
                     "%d wrong; checks %.1f s, %.1f s in all\n"
                     % (args.workload, args.seed,
                        " ".join("%.3f" % w for w in plain) or "-",
                        " ".join("%.3f" % w for w in traced) or "-",
                        " ".join("%.3f" % w for w in raw),
                        "-" if setup_raw is None else "%.3f" % setup_raw,
                        statistics.median(runner.speed.durations),
                        runner.attempted, runner.failed, len(runner.problems),
                        runner.check_s, perf() - T_START))
    print(json.dumps({"correct": not runner.problems,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
