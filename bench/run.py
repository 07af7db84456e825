"""Benchmark of macstag: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload krylov2d --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0          # every workload in turn
    python3 bench/run.py --write-manifest                  # regenerate BENCHMARK.json
    python3 bench/run.py --write-reference                 # regenerate reference.json

Each run starts fresh worker processes (``worker.py``) from the checkout's
``src/``. With ``--trace 0`` it sets up ``SETUP_REPEATS`` times, each time in a
new process, and the last process then repeats episodes for ``--seconds``.
With ``--trace 1`` one worker alternates traced and untraced episodes; the
difference of their step times is the tracing overhead, and the spans are
written to ``bench/out/``. All times are scaled to a reference machine speed
measured by a calibration kernel (see ``workloads.CALIBRATION_MS``).

The workload inputs come from ``--seed``: seed 0 runs the named grids, any
other seed jitters their cell widths. Outputs are checked (in-loop gates,
refinement gate, written files, the MMS error against ``reference.json``) and
the last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    CALIBRATION_MS,
    END_TO_END,
    FAIL_RATIO,
    PER_LAYER,
    RUN_SECONDS,
    SETUP_REPEATS,
    THREAD_VARS,
    WORKLOADS,
)

# A run must end within this many seconds, however slow the program has become.
WALL_LIMIT = 170.0
# mms_err must match reference.json to this relative tolerance for a tabulated
# seed; for any other seed it must lie within this band around seed 0's value.
REFERENCE_RTOL = 1e-6
REFERENCE_BAND = (0.9, 1.1)
# reference.json tabulates seeds 0 .. REFERENCE_SEEDS - 1 of every workload
REFERENCE_SEEDS = 32


# per-layer times, scaled like the end-to-end ones; the calibration itself is raw
TIME_UNITS = {m.name: m.unit in ("ms", "s") for m in PER_LAYER if m.name != "machine.calibration_ms"}
SETUP_SPLIT = ("import_s", "mms_s", "grid_s", "scheme_s", "initialize_s")


class BenchError(RuntimeError):
    pass


def git_commit():
    """HEAD of the checkout, read from .git without leaving it; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(worker_args, deadline):
    """Run one worker to completion; returns (ready message + setup_s, result message)."""
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="worker-", dir=OUT)
    cmd = [sys.executable, str(HERE / "worker.py"), *worker_args, "--scratch", scratch]
    ready = result = None
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    killer.start()
    try:
        for line in proc.stdout:
            if not line.startswith("{"):
                continue
            msg = json.loads(line)
            if msg["event"] == "ready":
                ready = dict(msg, setup_s=time.perf_counter() - t0)
            elif msg["event"] == "result":
                result = msg
        rc = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        shutil.rmtree(scratch, ignore_errors=True)
    if rc != 0 or ready is None:
        raise BenchError(f"worker {' '.join(worker_args)} exited with code {rc}")
    return ready, result


def median(values):
    finite = [v for v in values if v is not None and math.isfinite(v)]
    return statistics.median(finite) if finite else None


def speed_factor(result):
    """Scale from a worker's measured times to the reference machine speed."""
    return CALIBRATION_MS / median(result["calibration_ms"])


def scaled_times(result, traced=None):
    """Step times (ms) and episode times (s), scaled by the run's calibration.

    With traced=True or False, only the traced or the untraced episodes of a trace run count.
    """
    factor = speed_factor(result)
    keep = result.get("episode_traced")
    steps, episodes = [], []
    start = 0
    for e, n in enumerate(result["episode_steps"]):
        if traced is None or keep[e] == traced:
            steps += [t * factor for t in result["step_ms"][start : start + n]]
            episodes.append(result["run_s"][e] * factor)
        start += n
    return steps, episodes


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it, as text."""
    n = len(values)
    if n < 20:
        return "too few steps for a tail percentile"
    q = 100 * (n - 10) // n
    return f"p{q} {statistics.quantiles(values, n=100)[q - 1]:.6g} ms"


def check_mms_err(name, seed, errs, reference):
    """Notes on every way the episodes' MMS errors miss their reference; empty if none."""
    notes = []
    finite = [e for e in errs if math.isfinite(e)]
    if not finite:
        return ["no episode produced an MMS error"]
    if max(finite) - min(finite) > 1e-12 * max(finite):
        notes.append(f"mms_err differs between episodes of one run: {min(finite)!r} .. {max(finite)!r}")
    table = reference.get(name, {})
    err = finite[0]
    if str(seed) in table:
        ref = table[str(seed)]
        if abs(err / ref - 1.0) > REFERENCE_RTOL:
            notes.append(f"mms_err {err:.10e} does not match the reference {ref:.10e} of seed {seed}")
    elif "0" in table:
        lo, hi = REFERENCE_BAND
        ref = table["0"]
        if not lo * ref <= err <= hi * ref:
            notes.append(f"mms_err {err:.6e} is outside {REFERENCE_BAND} x the seed-0 reference {ref:.6e}")
    else:
        notes.append(f"reference.json has no value for {name}")
    return notes


def worker_args(name, seed, seconds, trace, **extra):
    args = ["--workload", name, "--seed", str(seed), "--seconds", repr(float(seconds)), "--trace", str(trace)]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}"] + ([] if value is True else [str(value)])
    return args


def run_workload(name, seed, seconds, trace, deadline):
    """Run one workload and print its report; the last line is the result."""
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)
    setups = []  # (ready message, calibration of that process)
    if trace:
        trace_file = OUT / f"trace-{name}-seed{seed}.json"
        # at least two traced and two untraced episodes
        extra = dict(min_episodes=4, trace_file=trace_file)
    else:
        extra = {}
        for _ in range(SETUP_REPEATS - 1):
            ready, cal = spawn(worker_args(name, seed, 0, 0, setup_only=True), deadline)
            setups.append((ready, cal["calibration_ms"][0]))
    ready, result = spawn(worker_args(name, seed, seconds, trace, **extra), deadline)
    setups.append((ready, result["calibration_ms"][0]))

    stamp = {
        **ready["versions"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": ready["blas_threads"],
        "thread_env": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "commit": git_commit(),
        "seed": seed,
    }

    # a check of the whole run that fails counts every step of the run as failed
    run_checks = check_mms_err(name, seed, result["mms_err"], reference)
    counts = result.get("per_episode", [])
    counts_repeat = all(c == counts[0] for c in counts)
    if not counts_repeat:
        run_checks.append(f"counts differ between episodes: {counts}")
    attempted = max(result["attempted"], 1)
    failed = attempted if run_checks else result["failed"]
    notes = result["messages"] + run_checks

    # a trace run reports its untraced episodes here
    steps, episodes = scaled_times(result, False if trace else None)
    raw = {"step_ms_p50": median(result["step_ms"]), "run_s": median(result["run_s"])}
    raw["setup_s"] = median([r["setup_s"] for r, _ in setups])
    e2e = {
        "setup_s": median([r["setup_s"] * CALIBRATION_MS / cal for r, cal in setups]),
        "step_ms_p50": median(steps),
        "run_s": median(episodes),
        "peak_rss_mb": result["peak_rss_mb"],
        "mms_err": median(result["mms_err"]),
    }
    print(f"# workload {name}: seed {seed}, {seconds:g} s, trace {trace}")
    print("# stamp " + json.dumps(stamp))
    kernel_ms = median(result["calibration_ms"])
    print(f"# calibration kernel: median {kernel_ms:.4g} ms here; times are scaled to {CALIBRATION_MS:g} ms")
    samples = {
        "setup_s": f"median of {len(setups)} fresh processes; raw {_fmt(raw['setup_s'])} s",
        "step_ms_p50": f"median of {len(steps)} steps; {tail_percentile(steps)}; "
        f"raw median {_fmt(raw['step_ms_p50'])} ms",
        "run_s": f"median of {result['episodes']} episodes; raw {_fmt(raw['run_s'])} s",
        "peak_rss_mb": "ru_maxrss",
        "mms_err": f"median of {result['episodes']} episodes",
    }
    for m in END_TO_END:
        print(f"{m.name:<16} {_fmt(e2e[m.name]):>14} {m.unit:<6} {samples[m.name]}")
    ratio = _fmt(failed / attempted)
    print(f"{FAIL_RATIO.name:<16} {ratio:>14} {FAIL_RATIO.unit:<6} {failed}/{attempted} steps")
    print("# setup split (last process): " + ", ".join(f"{k} {ready[k]:.3f} s" for k in SETUP_SPLIT))

    if trace:
        traced_speed = speed_factor(result)
        layer = {k: v * traced_speed if TIME_UNITS.get(k) else v for k, v in result["layer"].items()}
        layer["trace.step_ms_p50"] = median(scaled_times(result, True)[0])
        layer["trace.untraced_step_ms_p50"] = e2e["step_ms_p50"]
        layer["trace.overhead_ms_per_step"] = layer["trace.step_ms_p50"] - e2e["step_ms_p50"]
        layer["machine.calibration_ms"] = median(result["calibration_ms"])
        for m in PER_LAYER:
            print(f"{m.name:<44} {_fmt(layer[m.name]):>14} {m.unit}")
        print(f"# absent entry points: {result['absent'] or 'none'}")
        print(f"# counts of the first episode: {counts[:1]}; same in all {len(counts)}: {counts_repeat}")
        print(f"# spans written to {trace_file.relative_to(ROOT)}")
        metrics = {m.name: {"value": layer[m.name], "unit": m.unit} for m in PER_LAYER}
    else:
        metrics = {m.name: {"value": e2e[m.name], "unit": m.unit} for m in END_TO_END}
    for key, m in metrics.items():
        if m["value"] is None or not math.isfinite(m["value"]):
            m["value"] = None
            notes.append(f"{key} has no value")
    for note in notes:
        print(f"# FAIL {note}")
    correct = not notes and failed == 0
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(line), flush=True)


def _fmt(x):
    return "n/a" if x is None else f"{x:.6g}"


def write_manifest():
    manifest = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


def write_reference(deadline):
    """Tabulate mms_err of one episode for the first REFERENCE_SEEDS seeds of every workload."""
    table = {}
    for name in WORKLOADS:
        table[name] = {}
        for seed in range(REFERENCE_SEEDS):
            _, result = spawn(worker_args(name, seed, 0, 0), deadline)
            if result["failed"]:
                raise BenchError(f"{name} seed {seed} failed: {result['messages']}")
            table[name][str(seed)] = result["mms_err"][0]
            print(f"{name} seed {seed}: mms_err {result['mms_err'][0]!r}", flush=True)
    (HERE / "reference.json").write_text(json.dumps(table, indent=1) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    if args.write_manifest:
        write_manifest()
        return 0
    if not (ROOT / "src" / "macstag" / "__init__.py").is_file():
        print(f"error: no macstag package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            write_reference(time.monotonic() + 3600.0)
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        deadline = time.monotonic() + WALL_LIMIT * len(names)
        for name in names:
            run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
