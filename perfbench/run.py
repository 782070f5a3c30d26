"""Benchmark of the cosetcodes package: the certify and frontier workloads.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One run repeats passes over the workload's jobs until ``--seconds`` have
passed.  The jobs of a pass run one after the other in this process (a
closed loop); only the 2-worker enumerations of ``certify`` start a pool.
Between jobs, the run times the workload's set-up in fresh processes, one
at a time, so the set-up samples are spread over the whole run, and times
a fixed reference kernel (``calibrate.py``).  The end-to-end times are
scaled by the kernel's reference time over its mean time in the run, so
that the host's drifting speed does not move them.  Every result is
checked.  The lines before the last describe the run, its environment
and the workload's own metrics, each with its unit and sample count; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and the metrics named in BENCHMARK.json: the end-to-end ones untraced
(``--trace 0``), the per-layer ones from a traced run (``--trace 1``).  A
traced run alternates untraced and traced passes, so it also reports the
tracing overhead and checks that tracing changes no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median

import calibrate
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# fresh-process set-ups per run, setup_s being their median: one after a
# job while they have taken under SETUP_SHARE of the run so far, at most
# SETUP_MAX_RUNS, and at least SETUP_MIN_RUNS
SETUP_MIN_RUNS, SETUP_MAX_RUNS, SETUP_SHARE = 3, 40, 0.2
PROBE_TIMEOUT_S = 60


@dataclass
class Pass:
    wall: float
    timings: dict[str, float]
    kernel: list[float]  # reference-kernel times, one after each job
    outputs: dict[str, object]
    errors: list[str]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("certify", "frontier"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def environment(np_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30
                                    ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "cosetcodes").rglob("*")):
        if path.suffix in (".py", ".json"):
            src.update(path.relative_to(SRC).as_posix().encode())
            src.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np_version, "cpu": cpu, "load_1m": os.getloadavg()[0],
            "commit": commit, "src_sha256": src.hexdigest()[:16]}


def probe_setup(workload: str, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload]
    done = subprocess.run(cmd + (["--trace"] if trace else []), cwd=ROOT,
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


class SetupProbes:
    """Fresh-process set-up timings, taken between jobs across the run."""

    def __init__(self, workload: str, trace: bool):
        self.workload, self.trace = workload, trace
        self.samples: list[dict] = []
        self.start, self.busy = time.perf_counter(), 0.0

    def take(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe_setup(self.workload, self.trace))
        self.busy += time.perf_counter() - t0

    def between_jobs(self) -> None:
        if (len(self.samples) < SETUP_MAX_RUNS
                and self.busy < SETUP_SHARE * (time.perf_counter() - self.start)):
            self.take()


def run_pass(wl, cal, tr=None, between_jobs=None) -> Pass:
    """One pass over the jobs, timing the reference kernel after each.

    The kernel and ``between_jobs`` run off the pass's clock.
    """
    timings, kernel, results, errors = {}, [], {}, []
    paused = 0.0
    start = time.perf_counter()
    with tr.installed() if tr else nullcontext():
        for job, call in wl.jobs():
            t0 = time.perf_counter()
            try:
                with tr.job_scope(job) if tr else nullcontext():
                    results[job] = call()
                timings[job] = time.perf_counter() - t0
            except Exception:  # a failed call is counted against the run, which goes on
                traceback.print_exc()
                errors.append(job)
            t0 = time.perf_counter()
            kernel.append(cal.measure())
            if between_jobs:
                between_jobs()
            paused += time.perf_counter() - t0
    wall = time.perf_counter() - start - paused
    outputs = {job: wl.digest(job, r) for job, r in results.items()}
    return Pass(wall, timings, kernel, outputs, errors)


def check_pass(wl, p: Pass) -> list[tuple[str, bool]]:
    if p.errors:
        return [(f"{job} raised", False) for job in p.errors]
    return wl.check(p.outputs)


def fmt(name: str, value: float, unit: str, note: str = "") -> str:
    return f"{name:<44} {value:>16.6g} {unit:<6} {note}".rstrip()


def end_to_end(wl, probes: list[dict], untraced: list[Pass]):
    """The end-to-end metrics of an untraced run, and the lines that show them."""
    walls = [p.wall for p in untraced]
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024
    # The host switches between a fast and a slow state many times a run.
    # Means follow the share of the run spent in each, where a median jumps
    # from one state to the other; so the pass time and the kernel time that
    # scales it are both means.
    kernels = [k for p in untraced for k in p.kernel]
    speed = calibrate.REF_S / mean(kernels)
    setup_wall = median(p["setup_s"] for p in probes)
    values = {"setup_s": setup_wall * speed, "pass_s": mean(walls) * speed,
              "peak_rss_mb": rss}
    lines = [
        fmt("host speed", speed, "1", f"reference kernel time {1e3 * calibrate.REF_S:g} ms "
            f"over the mean of {len(kernels)} timings"),
        fmt("set-up wall", setup_wall, "s", f"median of {len(probes)} fresh processes"),
        fmt("setup_s", values["setup_s"], "s", "set-up wall at reference speed"),
    ]
    summaries = [wl.summary(p.timings) for p in untraced if not p.errors]
    for name, (_, unit) in (summaries[0] if summaries else {}).items():
        lines.append(fmt(name, median(s[name][0] for s in summaries), unit,
                         f"median of {len(summaries)} passes"))
    lines.append(fmt("pass wall", median(walls), "s", f"median of {len(walls)} passes"))
    lines.append(fmt("pass_s", values["pass_s"], "s",
                     f"mean of {len(walls)} pass walls, at reference speed"))
    lines.append(fmt("peak_rss_mb", rss, "MB", "largest process of the run"))
    return values, lines


def per_layer(probes: list[dict], walls: list[float], traced):
    """The per-layer metrics of a traced run, and the tracing-overhead lines."""
    import metrics

    per_pass = [metrics.pass_layer_metrics(spans) for _, spans in traced]
    values = {name: median(m[name] for m in per_pass) for name in per_pass[0]}
    for name in probes[0]["layers"]:
        values[name] = median(p["layers"][name] for p in probes)
    untraced_wall = median(walls)
    traced_walls = [tp.wall for tp, _ in traced]
    layer_totals = [sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS) for m in per_pass]
    traced_wall = median(traced_walls)
    values["trace.overhead_pct"] = 100 * (traced_wall / untraced_wall - 1)
    values["trace.coverage_pct"] = median(100 * t / w for t, w in zip(layer_totals, traced_walls))
    lines = [
        fmt("untraced pass", untraced_wall, "s", f"median of {len(walls)} passes"),
        fmt("traced pass", traced_wall, "s", f"median of {len(traced)} passes"),
        fmt("  layer self times", median(layer_totals), "s"),
        fmt("  outside any layer span",
            median(w - t for t, w in zip(layer_totals, traced_walls)), "s"),
        fmt("  tracing overhead", traced_wall - untraced_wall, "s"),
    ]
    return values, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cosetcodes" / "__init__.py").is_file():
        print(f"no package sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cosetcodes
    import numpy as np
    if not Path(cosetcodes.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"cosetcodes was imported from {cosetcodes.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    env = environment(np.__version__)
    cls = workloads.WORKLOADS[args.workload]
    trace = bool(args.trace)
    print(f"env {json.dumps(env)}")
    print(f"run workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")

    wl = cls(workloads.setup(cls.settings()), reference, args.seed)

    untraced: list[Pass] = []
    traced: list[tuple[Pass, list]] = []
    cal = calibrate.Calibration()
    setups = SetupProbes(args.workload, trace)
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < args.seconds:
        untraced.append(run_pass(wl, cal, between_jobs=setups.between_jobs))
        if trace:
            tr = tracer.Tracer()
            traced.append((run_pass(wl, cal, tr, setups.between_jobs), tr.spans))
    while len(setups.samples) < SETUP_MIN_RUNS:
        setups.take()
    probes = setups.samples

    checks = [c for p in untraced for c in check_pass(wl, p)]
    for (tp, spans), up in zip(traced, untraced):
        selfs = tracer.self_times(spans).values()
        checks += check_pass(wl, tp) + [
            ("traced outputs equal untraced", tp.outputs == up.outputs),
            ("no negative self time", min(selfs, default=0) > -1e-6),
            ("layer self times cover the traced pass", 0.9 * tp.wall <= sum(selfs) <= tp.wall),
        ]
    attempted = len(checks)
    failed = sum(1 for _, ok in checks if not ok)
    for name, ok in checks:
        if not ok:
            print(f"FAILED check: {name}", file=sys.stderr)

    walls = [p.wall for p in untraced]
    if trace:
        values, lines = per_layer(probes, walls, traced)
    else:
        values, lines = end_to_end(wl, probes, untraced)
    lines.append(fmt("fail_frac", failed / attempted, "1",
                     f"{failed} of {attempted} checks failed"))

    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(units) != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {section}: "
                           f"{sorted(set(units) ^ set(values))}")
    if trace:
        lines += [fmt(name, values[name], units[name]) for name in units]
    print("\n".join(lines))

    OUT_DIR.mkdir(exist_ok=True)
    record = {"env": env, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "values": values, "pass_walls": walls, "setup_probes": probes,
              "pass_timings": [p.timings for p in untraced],
              "pass_kernels": [p.kernel for p in untraced],
              "checks_failed": [name for name, ok in checks if not ok],
              "spans": [[s.as_dict() for s in spans] for _, spans in traced]}
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
