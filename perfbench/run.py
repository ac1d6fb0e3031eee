"""tridesign benchmark.

    python3 perfbench/run.py --workload cert-pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --smoke

Run from the repository root.  The package is imported from ``src/``,
never from an installed copy.  One run is one fresh process: it times
set-up, then repeats whole passes of the workload (at least one, more
only while another pass fits in ``--seconds``), with the field caches
cleared before each pass, as a CLI user has them on every invocation.
Single process, no worker threads.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics, the self-time table and the tracing overhead; spans
are written to ``.bench_build/perfbench/``.  ``--smoke`` runs the same
code paths at toy sizes in seconds, for checking the harness itself.
``--workload all`` runs every workload, each in its own process, and
prints every metric by name.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import layers
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("cert-pipeline", "search", "construct-tower", "reject")
SETUP_REPEATS = 3


def import_package() -> None:
    sys.path.insert(0, SRC)
    try:
        import tridesign
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import tridesign from {SRC}: {e}")
    if not os.path.abspath(tridesign.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: tridesign was imported from {tridesign.__file__}, "
                         f"not from {SRC}")


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def self_command(args, *extra: str) -> list[str]:
    cmd = [sys.executable, os.path.abspath(__file__), "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    return cmd + (["--smoke"] if args.smoke else [])


def setup_seconds(args) -> float:
    """Median set-up time over fresh processes: importing tridesign plus
    loading the embedded data the workload uses."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(self_command(args, "--workload", args.workload,
                                           "--setup-probe"),
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def one_pass(env_args: dict, ledger):
    """Run one pass; returns its Env.  A crash is a failed operation."""
    import workloads as wl

    env = wl.Env(ledger=ledger, **env_args)
    try:
        env.stage_metrics = wl.WORKLOADS[env.workload](env)
    except Exception as e:   # the run must still report what happened
        traceback.print_exc(file=sys.stderr)
        ledger.raised(f"{env.workload}:pass", e)
        env.stage_metrics = {}
    return env


def untraced_passes(args, env_args: dict, ledger) -> list:
    """At least one pass; another only while it fits in --seconds."""
    import workloads as wl

    passes = []
    deadline = time.perf_counter() + args.seconds
    while True:
        wl.clear_caches()
        tracer = spans.Tracer(f"{args.workload}:{args.seed}:{len(passes)}")
        env = one_pass(dict(env_args, tracer=tracer), ledger)
        passes.append(env)
        if (args.trace or not env.stage_metrics
                or time.perf_counter() + tracer.top_level_s() > deadline):
            return passes


def end_to_end(passes: list, setup_s: float, ledger) -> tuple[dict, list[str]]:
    walls = [e.tracer.top_level_s() for e in passes]
    ok = ledger.attempted - len(ledger.failures)
    metrics = {"setup_s": (setup_s, "s"),
               "wall_s": (statistics.median(walls), "s"),
               "peak_rss_mb": (spans.maxrss_mb(), "MB"),
               "ok_frac": (ok / max(ledger.attempted, 1), "ratio")}
    report = [f"passes {len(walls)}: wall_s " + " ".join(f"{w:.4f}" for w in walls)]
    done = [e.stage_metrics for e in passes if e.stage_metrics]
    for key in (done[0] if done else {}):
        value = statistics.median(m[key][0] for m in done)
        unit = done[0][key][1]
        samples = (f" (median of {done[0][key][2]} per pass)"
                   if len(done[0][key]) > 2 else "")
        report.append(f"{passes[0].workload} {key} {value:.6g} {unit}{samples}")
    return metrics, report


def traced_pass(args, env_args: dict, ledger, untraced_wall_s: float
                ) -> tuple[dict, list[str]]:
    """Set-up and one pass with every public call wrapped in a span."""
    import workloads as wl

    wl.clear_caches()
    setup_tracer = spans.Tracer(f"{args.workload}:{args.seed}:setup")
    restore = spans.install(setup_tracer)
    try:
        data = wl.setup(args.workload, env_args["sizes"])
    finally:
        restore()
    traced = spans.Tracer(f"{args.workload}:{args.seed}:traced")
    attempted_before = ledger.attempted
    restore = spans.install(traced)
    try:
        one_pass(dict(env_args, data=data, tracer=traced), ledger)
    finally:
        restore()
    metrics = layers.per_layer(setup_tracer, traced,
                               ledger.attempted - attempted_before, untraced_wall_s)
    ledger.check("trace:reconcile", layers.reconciles(traced),
                 "span self times do not add up to the traced wall time")
    wall = traced.top_level_s()
    spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.tsv")
    spans.dump(spans_path, setup_tracer, traced)
    report = layers.self_time_table(traced) + [
        f"tracing overhead: traced wall_s {wall:.4f} s - untraced wall_s "
        f"{untraced_wall_s:.4f} s = {wall - untraced_wall_s:.4f} s over "
        f"{len(traced.spans)} spans (the untraced pass runs first)",
        "wait time: absent (single-threaded, nothing queues)",
        f"spans written to {os.path.relpath(spans_path, ROOT)}"]
    return metrics, report


def check_names(metrics: dict, wanted: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in wanted}
    got = {k: u for k, (_, u) in metrics.items()}
    if got != want:
        raise SystemExit(f"perfbench: metrics {sorted(set(got) ^ set(want))} "
                         "disagree with BENCHMARK.json")


def failure_lines(ledger) -> list[str]:
    counted: dict[tuple, int] = {}
    for f in ledger.failures:
        key = (f["op"], f["reason"], f["known"])
        counted[key] = counted.get(key, 0) + 1
    return [f"FAILED {op} x{times}: {reason}"
            + (" [known failure, recorded in perfbench/expected.json]" if known else "")
            for (op, reason, known), times in counted.items()]


def pin_to_one_cpu() -> None:
    """Run on the last allowed CPU only.  In a VM, CPU 0 takes most device
    interrupts; a process the scheduler moves between CPUs of unequal load
    gives run times in two clusters."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(args) -> int:
    t_start = time.perf_counter()
    pin_to_one_cpu()
    import_package()
    import workloads as wl

    sizes = wl.SMOKE if args.smoke else wl.FULL
    if args.setup_probe:
        wl.setup(args.workload, sizes)
        print(time.perf_counter() - t_start)
        return 0

    setup_s = setup_seconds(args)
    data = wl.setup(args.workload, sizes)
    expected = load_json(os.path.join(HERE, "expected.json"))
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    ledger = wl.Ledger(args.workload, expected["known_failures"])
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    env_args = dict(workload=args.workload, seed=args.seed, sizes=sizes,
                    expected=expected, workdir=workdir, data=data)
    try:
        passes = untraced_passes(args, env_args, ledger)
        if args.trace:
            metrics, report = traced_pass(args, env_args, ledger,
                                          passes[0].tracer.top_level_s())
            check_names(metrics, bench["per_layer"])
        else:
            metrics, report = end_to_end(passes, setup_s, ledger)
            check_names(metrics, bench["end_to_end"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    print("\n".join(report + failure_lines(ledger)))
    print(json.dumps({"correct": ledger.correct, "attempted": ledger.attempted,
                      "failed": len(ledger.failures), "metrics": metrics}))
    return 0 if ledger.correct else 1


def run_all(args) -> int:
    """Every workload in its own process; prints every metric by name."""
    status = 0
    for w in WORKLOADS:
        proc = subprocess.run(self_command(args, "--workload", w),
                              capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print(f"== {w} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        if proc.returncode or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']}")
    return status


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="same code paths at toy sizes")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
