"""End-to-end benchmark of the `ovalbent` command line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {univariate,ovals,spreads} \
        --seed N --seconds S --trace {0,1}

One closed-loop client runs the workload's commands in-process through
`ovalbent.cli.main`, one after the other, in passes until S seconds have
gone by, then checks every outcome.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (see BENCHMARK.json); --trace 1
wraps the library's public functions, alternates untraced and traced
passes, and reports the per-layer metrics of the cold set-up plus one
pass, the bypass predictions and the tracing overhead.  A layer that sees
calls on a workload where it is predicted to be bypassed is a failed
check.  Span dumps go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread: the load model is a single client on a single core; numpy
# reads these when it is first imported
THREAD_VARS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_VARS)

import speed  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5   # cold set-ups, timed after the passes so that their
                    # processes do not evict the passes' caches
MIN_PASSES = 2
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("large_s", "s"),
              ("small_s", "s"), ("reject_s", "s"), ("peak_rss_mb", "MB"))


def _import_program():
    """Import the package under test from this checkout's src/, never from
    an installed copy."""
    if not (SRC / "ovalbent" / "cli.py").is_file():
        sys.exit(f"error: no ovalbent sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import ovalbent.cli
    if Path(ovalbent.cli.__file__).resolve().parent != SRC / "ovalbent":
        sys.exit(f"error: imported ovalbent from {ovalbent.cli.__file__}")
    return ovalbent.cli


def run_op(cli, op, tracer=None, cmd=None):
    """(Result, start, end, process CPU seconds) of one command run
    in-process."""
    from workloads import Result
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.cmd = cmd
    code, error = None, None
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except SystemExit as e:          # argparse rejects its input this way
        code = e.code if isinstance(e.code, int) else 2
    except Exception as e:           # a crash is an outcome to report, not to hide
        error = repr(e)
    c1 = time.process_time()
    t1 = time.perf_counter()
    return Result(code, out.getvalue(), err.getvalue(), error), t0, t1, c1 - c0


def measure_setup(ms, samples: int) -> list[tuple[float, float]]:
    """(seconds at nominal speed, raw seconds) of cold set-ups, each in a
    fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_VARS)
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *map(str, ms)]
    out = []
    for _ in range(samples):
        r = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                           timeout=120, check=True)
        scaled, raw = r.stdout.split()
        out.append((float(scaled), float(raw)))
    return out


class Pass:
    """Outcomes and timings of one pass over the workload."""

    def __init__(self):
        self.wall = 0.0
        self.raw: list[list[float]] = []     # per command, seconds per repeat
        self.times: list[list[float]] = []   # the same at nominal speed
        self.multi_thread = 0                # runs timed raw: >1 thread of CPU
        self.results = []                    # per command, one per repeat
        self.probe_results = []


def schedule(ops) -> list[tuple[int, int]]:
    """(command index, repeat index) in the order a pass runs them.

    The pass runs in rounds, as many as the largest repeat count.  Each
    round runs one repeat of every repeated command and its share of the
    other commands.  The host's speed shifts within a second, so the runs
    of a short command sample the whole pass and not one moment of it."""
    rounds = max(op.repeat for op in ops)
    order = []
    for r in range(rounds):
        for i, op in enumerate(ops):
            if op.repeat > 1 and r < op.repeat:
                order.append((i, r))
            elif op.repeat == 1 and i % rounds == r:
                order.append((i, 0))
    return order


def run_pass(cli, ops, probe_ops, tracer=None, phase=None, scale=True) -> Pass:
    """One pass, under a SpeedProbe when `scale` (a traced run has none,
    since its timer would land inside the spans)."""
    p = Pass()
    if tracer is not None:
        tracer.phase = phase
    with speed.SpeedProbe() if scale else contextlib.nullcontext() as probe:
        t0 = time.perf_counter()
        outcomes = [[None] * op.repeat for op in ops]
        for i, r in schedule(ops):
            outcomes[i][r] = run_op(cli, ops[i], tracer, f"{phase}:{i}:{r}")
        p.wall = time.perf_counter() - t0
    p.results = [[res for res, _, _, _ in runs] for runs in outcomes]
    spans = [[(a, b, c) for _, a, b, c in runs] for runs in outcomes]
    p.raw = [[b - a for a, b, _ in runs] for runs in spans]
    p.times = [[probe.scaled(a, b, c) for a, b, c in runs]
               for runs in spans] if probe else p.raw
    p.multi_thread = sum(not speed.one_thread(b - a, c)
                         for runs in spans for a, b, c in runs)
    if tracer is not None:
        tracer.phase = None          # probes are not part of the pass
    p.probe_results = [run_op(cli, op)[0] for op in probe_ops]
    return p


def check_passes(ops, probe_ops, passes):
    """(timed ops failed, probes failed, failure lines).  A timed op fails
    when its check fails or its stdout differs from the first pass."""
    failed_ops, failed_probes, lines = 0, 0, []
    first = [hashlib.sha256(r[0].stdout.encode()).digest() for r in passes[0].results]
    for k, p in enumerate(passes):
        for op, runs, ref in zip(ops, p.results, first):
            for res in runs:
                err = op.check(res)
                if err is None and hashlib.sha256(res.stdout.encode()).digest() != ref:
                    err = "stdout differs from the first pass"
                if err:
                    failed_ops += 1
                    lines.append(f"FAIL pass {k} [{op.expect}] {op.name}: {err}")
        for op, res in zip(probe_ops, p.probe_results):
            err = op.check(res)
            if err:
                failed_probes += 1
                lines.append(f"FAIL pass {k} [probe] {op.name}: {err}")
    return failed_ops, failed_probes, lines


def check_bypass(workload, values) -> list[str]:
    """One line per layer predicted to see no call on the workload; the
    line starts with FAIL, and counts as a failed check, when it saw some."""
    lines = []
    for layer in tracing.BYPASS[workload]:
        calls = values[f"{layer}.calls"]
        lines.append(f"FAIL bypass {layer}: {calls} calls, predicted none" if calls
                     else f"bypass {layer}: 0 calls (confirmed)")
    return lines


def command_medians(ops, passes, raw=False) -> list[float]:
    return [statistics.median(t for p in passes for t in (p.raw if raw else p.times)[i])
            for i in range(len(ops))]


def end_to_end(ops, passes, setup, raw=False) -> dict[str, float]:
    """A pass's times are sums of per-command medians over all runs of the
    command, which keeps one disturbed run from moving the whole pass."""
    med = command_medians(ops, passes, raw)

    def subtotal(pred):
        return sum(t for op, t in zip(ops, med) if pred(op))
    return {
        "setup_s": statistics.median(raw_s if raw else s for s, raw_s in setup),
        "pass_s": sum(med),
        "large_s": subtotal(lambda op: op.size == "large"),
        "small_s": subtotal(lambda op: op.size == "small"),
        "reject_s": subtotal(lambda op: op.expect == "reject"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("univariate", "ovals", "spreads"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    cli = _import_program()
    import setup_probe
    import workloads

    os.chdir(ROOT)                   # generated input files go by relative path
    out_dir = HERE.relative_to(ROOT) / "out"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops, probe_ops = workloads.generate(args.workload, args.seed, workdir)
        ms = workloads.SETUP_MS[args.workload]
        tracer = None
        untraced: list[Pass] = []
        passes: list[Pass] = []
        if args.trace:
            # a cold set-up under the tracer: drop the fields built while generating
            cli.field_make.cache_clear()
            tracer = tracing.Tracer()
            tracer.install()
            tracer.phase = "setup"
        setup_probe.build_tables(ms)     # the passes run with these caches warm
        if tracer is not None:
            tracer.phase = None
        t_end = time.perf_counter() + args.seconds
        min_passes = 1 if tracer is not None else MIN_PASSES
        last = 0.0
        # more passes while the next one still fits in --seconds
        while len(passes) < min_passes or time.perf_counter() + last <= t_end:
            t0 = time.perf_counter()
            if tracer is not None:
                untraced.append(run_pass(cli, ops, probe_ops, scale=False))
                passes.append(run_pass(cli, ops, probe_ops, tracer, len(passes), False))
            else:
                passes.append(run_pass(cli, ops, probe_ops))
            last = time.perf_counter() - t0
        if tracer is None:
            setup = measure_setup(ms, SETUP_SAMPLES)
        else:
            tracer.uninstall()
        # every timed pass is checked, the traced run's untraced ones too
        checked = untraced + passes
        failed_ops, failed_probes, fail_lines = check_passes(ops, probe_ops, checked)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(checked) * sum(op.repeat for op in ops)
    n_probes = len(checked) * len(probe_ops)
    for line in fail_lines:
        print(line)
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of "
          f"{len(ops)} commands (+{len(probe_ops)} untimed probes); pass walls "
          + " ".join(f"{p.wall:.3f}" for p in passes) + " s")
    print("  scaled s    raw s  kind           command (medians over all runs)")
    for op, t, r in zip(ops, command_medians(ops, passes),
                        command_medians(ops, passes, raw=True)):
        tag = "/".join(v for v in (op.expect, op.size) if v)
        print(f"  {t:8.4f} {r:8.4f}  {tag:14s} {op.name}")
    failed_ratio = (failed_ops + failed_probes) / (attempted + n_probes)
    print(f"failed_ratio {failed_ratio:.4f} (1): {failed_ops} of {attempted} timed "
          f"commands and {failed_probes} of {n_probes} domain probes failed")
    multi = sum(p.multi_thread for p in passes)
    if multi:
        print(f"{multi} command runs used more than one thread of CPU: "
              f"their times are raw wall times, not scaled")

    if tracer is None:
        values = end_to_end(ops, passes, setup)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        raw = end_to_end(ops, passes, setup, raw=True)
        print("raw wall times: " + ", ".join(
            f"{k} {v:.4f}" for k, v in raw.items() if k != "peak_rss_mb"))
    else:
        values = tracing.median_metrics(tracer, "setup", range(len(passes)))
        metrics = {name: {"value": values[name], "unit": tracing.unit(name)}
                   for name in tracing.metric_names()}
        lines = check_bypass(args.workload, values)
        attempted += len(lines)
        failed_ops += sum(line.startswith("FAIL") for line in lines)
        print("\n".join(lines))
        traced = statistics.median(p.wall for p in passes)
        base = statistics.median(p.wall for p in untraced)
        print(f"tracing overhead: traced pass_s {traced:.4f} s, untraced pass_s "
              f"{base:.4f} s ({100 * (traced / base - 1):+.1f}%)")
        dump = out_dir / f"spans-{args.workload}-{args.seed}.json"
        tracer.dump(dump)
        print(f"spans written to {dump}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed_ops == 0, "attempted": attempted,
                      "failed": failed_ops, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
