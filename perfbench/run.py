#!/usr/bin/env python3
"""The matprophet benchmark: fixed CLI workloads, timed end to end.

Each workload generates three sets of instance files from --seed with
`matprophet gen`, then calls `matprophet.cli.main(argv)` in this process
over and over for --seconds seconds, cycling over the sets (a closed loop
with one client). Every operation's outputs are checked; the last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with no
tracing installed. Operation time is reported relative to the host's
speed sampled while the operation runs (see HostSampler), which cancels
most of a shared host's speed swings; the raw seconds are printed beside
it. With --trace 1 the run first times operations untraced, then wraps
matprophet's module boundaries (see tracing.py) and times them again, and
the metrics are the per-layer split of the traced operations.

Run from the root of a matprophet checkout; the package is imported from
its `src/` directory, never from an installed copy:

    python3 perfbench/run.py --workload exact-run --seed 1 --seconds 22
    python3 perfbench/run.py --workload all    # every workload, one table

Scratch files go to .perfbench_work/ and traces to .perfbench_out/.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracing import LAYERS, Tracer, import_times, layer_metrics

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_PROBES = 3
VARIANTS = 3               # instance sets per run, drawn from --seed
SAMPLE_EVERY = 0.05        # seconds of wall time between host samples
SAMPLE_LOOPS = 12_000      # interpreted iterations in one sample
SAMPLE_CALLS = 600         # numpy calls on a 64-element array in one sample
IMPORTTIME_PROBES = 3
GUARANTEE = 1.0 / 32.0
TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """Instances to generate (file name, `gen` flags), the CLI operation,
    and the unit of work that `work_per_s` counts."""

    instances: tuple
    argv: tuple
    work: str

    @property
    def writes_outputs(self):
        return self.argv[0] == "run"


BIG_GRAPH = ("--family", "graphic", "--vertices", "14", "--edges", "28",
             "--allow-parallel", "--support-size", "3")
RUN_BIG = ("run", "--instance", "inst.json", "--algo", "graphic-random-cut",
           "--mode", "mc")

# graphic-derandomized stays out of the 14-vertex/28-edge workloads: its
# exact conditional-expectation search does not finish there.
WORKLOADS = {
    "exact-run": Workload(
        (("inst.json", ("--family", "graphic", "--vertices", "6", "--edges",
                        "9", "--allow-parallel", "--support-size", "3")),),
        ("run", "--instance", "inst.json", "--algo", "graphic-random-cut",
         "--mode", "exact", "--out", "out/run"),
        "outcomes"),
    "mc-worst": Workload(
        (("inst.json", BIG_GRAPH),),
        RUN_BIG + ("--order", "worst-case", "--trials", "20000",
                   "--out", "out/run"),
        "trials"),
    "mc-random": Workload(
        (("inst.json", BIG_GRAPH),),
        RUN_BIG + ("--order", "random", "--trials", "2000",
                   "--out", "out/run"),
        "trials"),
    "verify-suite": Workload(
        (("suite/g1.json", ("--family", "graphic", "--vertices", "8",
                            "--edges", "10", "--allow-parallel",
                            "--support-size", "2")),
         ("suite/g2.json", ("--family", "graphic", "--vertices", "9",
                            "--edges", "10", "--allow-parallel",
                            "--support-size", "2")),
         ("suite/u.json", ("--family", "uniform", "--n", "14", "--k", "4",
                           "--support-size", "2")),
         ("suite/p.json", ("--family", "partition", "--blocks", "4,4,4",
                           "--capacities", "1,2,1", "--support-size", "2"))),
        ("verify", "--suite", "suite"),
        "checks"),
}

# the name under which each unit of work is reported for people
WORK_NAMES = {"outcomes": "outcomes_per_s", "trials": "trials_per_s",
              "checks": "checks_per_s"}


def import_cli():
    """matprophet.cli from this checkout's src/; exits when it is missing."""
    pkg = SRC / "matprophet"
    if not (pkg / "cli.py").is_file():
        sys.exit(f"error: {pkg} not found; run from the root of a "
                 "matprophet checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from matprophet import cli
    if Path(cli.__file__).resolve().parent != pkg:
        sys.exit(f"error: matprophet was imported from {cli.__file__}")
    return cli


@dataclass
class OpResult:
    wall_s: float
    ok: bool
    reason: str
    digest: str
    work: int
    sample_s: float = 0.0  # mean host-sample seconds during the operation
    variant: int = 0


def generate(workload, seed, cli, variant=0):
    """Write the workload's instance files under the current directory:
    instance set `variant` of `seed` (the sets differ in their draws, not
    in their shapes)."""
    gen_seeds = [str(seed * 1000 + 10 * variant + i)
                 for i in range(len(workload.instances))]
    for (path, flags), gen_seed in zip(workload.instances, gen_seeds):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        argv = ["gen", *flags, "--seed", gen_seed, "--out", path]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"gen failed: {' '.join(argv)}")


def op_argv(workload, seed):
    argv = list(workload.argv)
    if workload.writes_outputs:
        argv += ["--seed", str(seed)]
    return argv


def outcome_work():
    """Outcome states per exact-run operation: the CLI enumerates the
    instance's outcome product twice, once in the ex-ante reduction and
    once for the prophet value."""
    from matprophet.io import load_instance
    return 2 * load_instance("inst.json").instance.outcome_count()


def check_op(workload, argv, rc, stdout, reference):
    """(reason for failure or "", digest, work done) for one operation.

    The digest covers the standard output, the CSV and the summary JSON
    without its timings; it must equal `reference`, the first repetition's
    digest (None for the first repetition itself).
    """
    h = hashlib.sha256(stdout.encode())
    reason, work = _check_outputs(workload, argv, rc, stdout, h)
    digest = h.hexdigest()
    if not reason and reference is not None and digest != reference:
        reason = "output differs from the first repetition"
    return reason, digest, work


def _check_outputs(workload, argv, rc, stdout, h):
    if rc != 0:
        return (rc if isinstance(rc, str) else f"exit code {rc}"), 0
    if not workload.writes_outputs:
        lines = stdout.rstrip().splitlines()
        if lines[-1:] != ["all checks passed"]:
            return "verify did not pass", 0
        return "", len(lines) - 1
    prefix = Path(argv[argv.index("--out") + 1])
    csv_path = prefix.with_suffix(".csv")
    json_path = prefix.with_suffix(".summary.json")
    if not (csv_path.is_file() and json_path.is_file()):
        return "output file missing", 0
    h.update(csv_path.read_bytes())
    try:
        summary = json.loads(json_path.read_text())
    except json.JSONDecodeError:
        return "summary is not JSON", 0
    summary.pop("timings", None)
    h.update(json.dumps(summary, sort_keys=True).encode())
    try:
        bound = summary["priced_bound"]
        prophet = summary["prophet_value"]
        low_ratio = summary["ratio"] - summary["ci_half_width"]
        trials = summary["trials"]
    except KeyError as exc:
        return f"summary lacks {exc}", 0
    if not bound >= prophet - TOL:
        return "priced bound below the prophet value", 0
    if not low_ratio >= GUARANTEE - TOL:
        return "ratio below 1/32", 0
    return "", trials


class HostSampler:
    """Samples the host's speed while operations run.

    On a shared host the speed of one CPU moves by up to 1.7x within
    seconds, so a probe between operations misses what happens during
    them. While armed, a SIGALRM handler times a fixed piece of work every
    SAMPLE_EVERY seconds: an interpreted loop and numpy calls on a small
    array, a mix that slows with the host about as much as the workloads
    do. The handler runs in the main thread between bytecodes, pausing
    the operation, and run_op subtracts its time from the operation's.
    """

    def __init__(self):
        import numpy as np
        self._np = np
        self._small = np.linspace(0.0, 1.0, 64)
        self.busy_s = 0.0
        self.count = 0

    def _sample(self, signum, frame):
        np, small = self._np, self._small
        start = perf_counter()
        acc = 0
        for i in range(SAMPLE_LOOPS):
            acc += i * i % 7
        arr = small
        for _ in range(SAMPLE_CALLS):
            arr = np.maximum(arr, small) + 0.0
        self.busy_s += perf_counter() - start
        self.count += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_op(workload, argv, cli, reference, sampler=None):
    """One CLI operation, timed and checked (see check_op). With a
    HostSampler, the operation's time excludes the samples taken during
    it, and their mean is recorded as `sample_s`."""
    if workload.writes_outputs:
        prefix = Path(argv[argv.index("--out") + 1])
        prefix.parent.mkdir(parents=True, exist_ok=True)
        for suffix in (".csv", ".summary.json"):
            prefix.with_suffix(suffix).unlink(missing_ok=True)
    out = io.StringIO()
    busy, count = (sampler.busy_s, sampler.count) if sampler else (0.0, 0)
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()), \
            sampler or contextlib.nullcontext():
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an operation that crashes has failed
            rc = f"raised {type(exc).__name__}: {exc}"
        wall = perf_counter() - start
    sample_s = 0.0
    if sampler is not None:
        busy, count = sampler.busy_s - busy, sampler.count - count
        wall -= busy
        sample_s = busy / count if count else 0.0
    reason, digest, work = check_op(workload, argv, rc, out.getvalue(),
                                    reference)
    return OpResult(wall, not reason, reason, digest, work, sample_s)


def timed_loop(workload, argv, cli, seconds, references, tracer=None,
               setups=0):
    """(OpResults, set-up seconds) of the operations run in `seconds`.

    Operations cycle through the instance sets in `references`, a list of
    [directory, digest of its first operation or None]; a None is filled
    in by the first operation that passes. Each set runs at least once.
    Untraced operations run under a HostSampler. `setups` fresh
    interpreters are timed (see setup_once) at even points of the run, so
    their median spans the same host phases as the operations. Once each
    set has run, no operation starts that the previous one says would end
    past `seconds`.
    """
    results, setup_times = [], []
    sampler = HostSampler() if tracer is None else None
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if len(setup_times) < setups and \
                elapsed >= len(setup_times) * seconds / setups:
            setup_times.append(setup_once())
            continue
        if len(results) >= len(references) and \
                elapsed + results[-1].wall_s > seconds:
            break
        if tracer is not None:
            tracer.op = len(results)
        variant = len(results) % len(references)
        ref = references[variant]
        os.chdir(ref[0])
        result = run_op(workload, argv, cli, ref[1], sampler)
        result.variant = variant
        if ref[1] is None and result.ok:
            ref[1] = result.digest
        results.append(result)
    while len(setup_times) < setups:
        setup_times.append(setup_once())
    return results, setup_times


def _python(*args, capture=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          timeout=120, capture_output=capture, text=True)


def setup_once():
    """Seconds from launching a fresh interpreter until `matprophet.cli`
    is imported."""
    start = perf_counter()
    _python("-c", "import matprophet.cli")
    return perf_counter() - start


def measure_imports():
    """Median import seconds of numpy, scipy and matprophet's own modules,
    from `python -X importtime`."""
    samples = [import_times(_python("-X", "importtime", "-c",
                                    "import matprophet.cli",
                                    capture=True).stderr)
               for _ in range(IMPORTTIME_PROBES)]
    return {f"setup.import_{pkg}_s": statistics.median(s[pkg] for s in samples)
            for pkg in samples[0]}


def tail(times):
    """(value, percentile) of the highest percentile of `times` that still
    has at least ten samples above it, or None with fewer than 11."""
    if len(times) < 11:
        return None
    ordered = sorted(times)
    k = len(ordered) - 10  # ten samples lie above ordered[k - 1]
    return ordered[k - 1], 100.0 * k / len(ordered)


def result_doc(results, metrics):
    """The result line: correctness over every operation run, and each
    metric as {"value", "unit"}."""
    failed = sum(not r.ok for r in results)
    return {"correct": failed == 0, "attempted": len(results),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def end_to_end(workload, timed, work, setup_times, results):
    """End-to-end metrics of an untraced run. Printed besides them: the
    raw median seconds, the throughput under its workload-specific name,
    the tail and the failed fraction."""
    wall = statistics.median(r.wall_s for r in timed)
    rel = [sum(r.wall_s for r in ops) / sum(r.sample_s for r in ops)
           for ops in ([r for r in timed if r.variant == v]
                       for v in range(VARIANTS)) if ops]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_rel": (statistics.fmean(rel), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    for key, (value, unit) in metrics.items():
        print(f"  {key:<16} {value:.6g} {unit}")
    print(f"  {'wall_s':<16} {wall:.6g} s")
    print(f"  {WORK_NAMES[workload.work]:<16} {work / wall:.6g} 1/s")
    got = tail([r.wall_s for r in timed])
    print(f"  {'wall_tail_s':<16} " + (
        f"n/a: {len(timed)} samples, the rule needs at least 11" if got is None
        else f"{got[0]:.6g} s (p{got[1]:.0f} of {len(timed)} samples)"))
    failed = sum(not r.ok for r in results)
    print(f"  {'fail_frac':<16} {failed / len(results):.6g} "
          f"({failed}/{len(results)})")
    print(f"  work per operation: {work} {workload.work}; wall_s is the "
          f"median of {len(timed)} operations")
    return metrics


def per_layer(untraced, traced, tracer, imports):
    """Per-layer metrics of a traced run: per-operation means of each
    boundary, the layer self times and the tracing overhead."""
    ops = len(traced)
    traced_wall = statistics.fmean(r.wall_s for r in traced)
    untraced_wall = statistics.fmean(r.wall_s for r in untraced)
    layers = layer_metrics(tracer.spans, ops)
    self_sum = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    metrics = dict(imports)
    metrics.update(layers)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.self_sum_frac"] = self_sum / traced_wall
    metrics["trace.boundary_frac"] = \
        (self_sum - layers["cli.self_s"]) / traced_wall
    print(f"  traced wall {traced_wall:.4f} s over {ops} operations, "
          f"untraced {untraced_wall:.4f} s over {len(untraced)}")
    print(f"  layer self times sum to "
          f"{100 * metrics['trace.self_sum_frac']:.1f}% of the traced wall; "
          f"{100 * metrics['trace.boundary_frac']:.1f}% lies below cli")
    for layer in LAYERS:
        print(f"  {layer + '.self_s':<20} {layers[layer + '.self_s']:.6g} s")
    return {k: (v, unit_of(k)) for k, v in metrics.items()}


def unit_of(key):
    """Unit of a per-layer metric, from its name."""
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_frac", ".enum_reuse")):
        return "ratio"
    if key.endswith(".bytes"):
        return "bytes"
    return "count"


def run_workload(name, seed, seconds, traced):
    cli = import_cli()
    workload = WORKLOADS[name]
    if traced:
        imports = measure_imports()

    root = Path.cwd()
    (root / ".perfbench_work").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-",
                                     dir=root / ".perfbench_work"))
    try:
        references = []
        for variant in range(VARIANTS):
            path = work_dir / f"v{variant}"
            path.mkdir()
            os.chdir(path)
            generate(workload, seed, cli, variant)
            references.append([path, None])
        os.chdir(references[0][0])
        argv = op_argv(workload, seed)
        first = run_op(workload, argv, cli, None)  # warm-up, untimed
        references[0][1] = first.digest
        work = outcome_work() if workload.work == "outcomes" else first.work
        if traced:
            untraced, _ = timed_loop(workload, argv, cli, seconds / 2,
                                     references)
            tracer = Tracer()
            tracer.install()
            try:
                traced_ops, _ = timed_loop(workload, argv, cli, seconds / 2,
                                           references, tracer)
            finally:
                tracer.uninstall()
        else:
            untraced, setup_times = timed_loop(
                workload, argv, cli, seconds, references,
                setups=SETUP_PROBES)
            traced_ops = []
    finally:
        os.chdir(root)
        shutil.rmtree(work_dir, ignore_errors=True)

    results = [first] + untraced + traced_ops
    print(f"workload {name} seed {seed}: {len(results)} operations, "
          f"{sum(not r.ok for r in results)} failed")
    for reason in sorted({r.reason for r in results if not r.ok}):
        print(f"  failed: {reason}")
    if traced:
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{name}-seed{seed}.jsonl"
        tracer.write_jsonl(trace_path)
        print(f"  spans written to {trace_path}")
        metrics = per_layer(untraced, traced_ops, tracer, imports)
    else:
        metrics = end_to_end(workload, untraced, work, setup_times,
                             results)
    digest = hashlib.sha256(" ".join(str(d) for _, d in references)
                            .encode()).hexdigest()
    print(f"digest {name} seed {seed} {digest}")
    samples = sorted(r.sample_s for r in untraced)
    print("env " + json.dumps({"host_sample_s": {
                                   "min": samples[0],
                                   "median": statistics.median(samples),
                                   "max": samples[-1]},
                               "python": sys.version.split()[0],
                               "cpus": os.cpu_count()}))
    return result_doc(results, metrics)


def run_all(seed, seconds, traced):
    """Each workload in a fresh process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(traced))],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.rstrip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        doc = json.loads(lines[-1])
        combined["correct"] &= doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        for key, val in doc["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if args.workload == "all":
        doc = run_all(args.seed, args.seconds, args.trace == 1)
    else:
        doc = run_workload(args.workload, args.seed, args.seconds,
                           args.trace == 1)
    print(json.dumps(doc))
    # a single workload reports failed operations in its result line
    return 0 if doc["correct"] or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
