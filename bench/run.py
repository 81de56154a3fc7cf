#!/usr/bin/env python3
"""End-to-end benchmark of the shipped reproduction, with a traced
per-layer pass.

    python bench/run.py --seed 0                  # every workload
    python bench/run.py --workload session_grid --seed 3 --seconds 20
    python bench/run.py --trace                   # per-layer metrics
    python bench/run.py --quick --seconds 1       # smoke sizes

Each timed phase runs in a fresh child interpreter (``bench/child.py``)
that calls only public entry points of ``repro``, with every ``REPRO_*``
variable removed from its environment, so the numbers cover the code
path users run.  Caches, shard stores, queues and exports live in a
scratch directory under ``.bench_tmp/`` that is removed afterwards.

The benchmark pins itself, and so every process it starts, to one CPU,
where ``bench/speed.py`` samples the host's speed beside the workload;
times are reported in reference seconds (see ``speed.py``).  A run
repeats its workload's batch for ``--seconds`` and reports medians.
Every batch checks its outputs; a failed check makes the run exit 1.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json``, or its per-layer metrics with ``--trace``.
See ``bench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("paper_campaign", "session_grid", "mc_sharded", "mc_distributed")

#: Input sizes.  ``full`` is what the regression bounds are fixed for;
#: ``quick`` is the smoke size the harness tests use.
SIZES = {
    "full": {
        # the paper campaign: the receive window (Fig. 2), the missing ACK
        # clock (Fig. 9), Netflix's strategies (Fig. 10) and outage
        # recovery, the experiments whose work the seed moves least; see
        # bench/README.md for the measured breakdown behind the choice
        "campaign": ["fig2", "fig9", "fig10", "ext_fault_recovery"],
        "scale": "small",
        "jobs": 2,
        "capture_s": 120.0,      # session grid capture length
        "grid_step": 1,          # one session per cell: 16 sessions
        "profile_step": 2,       # cProfile pass: every other cell
        # per strategy; shards of 5000 sessions reach steady state (much
        # smaller ones bias the Eq (3) mean by several percent)
        "mc_sessions": 50000,
        "mc_shard_size": 5000,
        "workers": 2,
    },
    "quick": {
        "campaign": ["fig1", "fig2"],
        "scale": "small",
        "jobs": 2,
        "capture_s": 8.0,
        "grid_step": 4,          # 4 sessions, one per profile
        "profile_step": 4,
        "mc_sessions": 20000,
        "mc_shard_size": 5000,
        "workers": 2,
    },
}

#: The Eqs (3)-(4) tolerances hold at 500k sessions per strategy; the
#: sampling error of smaller campaigns grows as 1/sqrt(sessions), so the
#: tolerance is scaled to keep the same false-alarm rate.
MC_REFERENCE_SESSIONS = 500_000
MC_MEAN_TOLERANCE = 0.01
MC_VAR_TOLERANCE = 0.03

#: Timed repetitions per run, at the least: cold+warm campaign batches,
#: grid passes, cold Monte-Carlo campaigns.  A campaign batch or a grid
#: pass takes about as long as ``run_seconds``, so these also fix those
#: runs' length (see bench/README.md for the time budget).
MIN_REPS = {"paper_campaign": 1, "session_grid": 1, "mc_sharded": 2,
            "mc_distributed": 2}
#: Warm reruns per cold campaign.  The analysis that fills a warm paper
#: campaign follows the sampler's speed less closely than the simulator
#: does, so it takes two samples; a Monte-Carlo rerun is about 0.05 s.
CAMPAIGN_RERUNS = 2
MC_RERUNS = 10
SETUP_SAMPLES = 5        # set-ups per run, at the least
RUN_DEADLINE_S = 170.0   # a run must end within 180 s
POLL_S = 0.02


class CheckFailed(Exception):
    """A child failed or timed out; its log tail is in the message."""


def load_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def load_pins() -> dict:
    """Seed-0 output digests per size: the session-grid digest and the
    Monte-Carlo aggregate (shared by both transports)."""
    return json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))


def read_agg(path: Path) -> bytes:
    return path.read_bytes()


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def dir_bytes(path: Path) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total


def environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "git_sha": sha}


class Run:
    """One workload run: scratch space, children, and what they found."""

    def __init__(self, workload: str, seed: int, sizes: dict, size: str,
                 work: Path, span_dir: Path, deadline: float,
                 sampler: speed.Sampler) -> None:
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.size = size
        self.work = work
        self.span_dir = span_dir
        self.deadline = deadline
        self.sampler = sampler
        self.readings: List[speed.Sample] = []
        self.problems: List[str] = []
        self.setup_spans: List[List[float]] = []
        #: the untraced times in wall seconds, beside the reported
        #: reference seconds
        self.wall_seconds: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self._children = 0
        (work / "tmp").mkdir(parents=True, exist_ok=True)
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["TMPDIR"] = str(work / "tmp")

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(f"{self.workload}: {message}")
        return ok

    def scratch(self, name: str) -> Path:
        self._children += 1
        path = self.work / f"{self._children:03d}-{name}"
        path.mkdir(parents=True)
        return path

    def seconds(self, span: List[float], wall: bool = False) -> float:
        """A ``[start, end]`` span in reference seconds, or in wall seconds
        with ``wall``; call :meth:`read_speed` once the spans are in."""
        start, end = span
        if wall:
            return end - start
        return speed.reference_seconds(start, end, self.readings)

    def read_speed(self) -> None:
        self.readings = self.sampler.readings()

    def child(self, phase: str, count_setup: bool = True, **spec) -> dict:
        """Run one child to completion; returns its result plus ``rss_mb``
        (peak RSS of the child and of every process it reaped)."""
        self._children += 1
        tag = f"{self._children:03d}-{phase}"
        out = self.work / f"{tag}.json"
        spec.update(workload=self.workload, phase=phase, seed=self.seed,
                    sizes=self.sizes, out=str(out),
                    spans=str(self.span_dir / f"{self.workload}-seed"
                                              f"{self.seed}-{tag}.jsonl"))
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        log_path = self.work / f"{tag}.log"
        with open(log_path, "wb") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), str(spec_path)],
                cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
            code, usage = self._wait(proc)
        if code != 0 or not out.exists():
            tail = log_path.read_text(encoding="utf-8",
                                      errors="replace")[-2000:]
            raise CheckFailed(f"{self.workload} {tag} exited {code}:\n{tail}")
        result = json.loads(out.read_text(encoding="utf-8"))
        result["rss_mb"] = usage.ru_maxrss / 1024.0
        if count_setup:
            self.setup_spans.append([spawned, result["ready"]])
        return result

    def _wait(self, proc: subprocess.Popen):
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            if time.monotonic() > self.deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                return "timeout", usage
            time.sleep(POLL_S)


# -- workloads -------------------------------------------------------------------
#
# A batch returns, per phase ("cold", "warm"), the spans of each timed unit:
# {unit: [[start, end], ...]}, one span per repetition of the unit.

def campaign_batch(run: Run, jobs: int, reruns: int, trace: bool) -> dict:
    """The campaign cold against a fresh cache, then ``reruns`` times warm
    against it in one child."""
    cache = run.scratch("cache")
    names = run.sizes["campaign"]
    cold = run.child("campaign", cache=str(cache), jobs=jobs, passes=1,
                     trace=trace)
    cache_bytes = dir_bytes(cache)
    warm = run.child("campaign", cache=str(cache), jobs=jobs, passes=reruns,
                     trace=trace)
    shutil.rmtree(cache)
    for campaign in cold["passes"] + warm["passes"]:
        run.attempted += len(names)
        bad = [name for name in names if campaign["codes"][name] != 0]
        run.failed += len(bad)
        run.check(not bad, f"experiments exited non-zero: {bad}")
    first = cold["passes"][0]["reports"]
    changed = sorted({name for campaign in warm["passes"] for name in names
                      if campaign["reports"][name] != first[name]})
    run.check(not changed, f"warm report differs from cold: {changed}")
    return {"cold": cold["experiments"], "warm": warm["experiments"],
            "rss_mb": max(cold["rss_mb"], warm["rss_mb"]),
            "cache_bytes": cache_bytes, "phases": [cold, warm]}


def grid_batch(run: Run, seconds: float, min_passes: int,
               trace: bool) -> dict:
    """Passes over the session grid in one child for ``seconds``
    (``min_passes`` at the least).  Cold is each session's simulation and
    warm the analysis of the capture it produced."""
    result = run.child("grid", seconds=seconds, min_passes=min_passes,
                       subset=run.sizes["grid_step"], trace=trace)
    passes = result["passes"]
    for p in passes:
        run.attempted += result["sessions"]
        run.failed += p["failed"]
        run.check(p["failed"] == 0, f"{p['failed']} sessions failed")
    digests = {p["digest"] for p in passes}
    run.check(len(digests) == 1, f"passes disagree: {sorted(digests)}")
    run.check(all(p["strategies"] == passes[0]["strategies"] for p in passes),
              "passes classify the sessions differently")
    if run.seed == 0:
        pin = load_pins()[run.size]["session_grid"]
        run.check(digests == {pin},
                  f"digest {sorted(digests)} differs from the seed-0 pin {pin}")
    return {"cold": dict(enumerate(result["simulate"])),
            "warm": dict(enumerate(result["analyze"])),
            "rss_mb": result["rss_mb"], "phases": [result]}


_ENGINE = re.compile(r"engine model_validation: (\d+) units, hits (\d+), "
                     r"re-simulated (\d+), retries (\d+), failed (\d+)")
_MOMENTS = re.compile(r"^(No ON-OFF|Short ON-OFF|Long ON-OFF)\s+\S+\s+\S+\s+"
                      r"([\d.]+)%\s+\S+\s+\S+\s+([\d.]+)%", re.M)


def _mc_phase(run: Run, store: Path, transport: str, jobs: int, tag: str,
              campaigns: int, trace: bool = False) -> dict:
    """``campaigns`` runs of the Monte-Carlo campaign in one child against
    ``store``; every run is checked and its aggregate read back."""
    aggregates = [store / f"agg-{tag}{rep}.jsonl" for rep in range(campaigns)]
    result = run.child("mc", cache=str(store), transport=transport, jobs=jobs,
                       aggregates=[str(path) for path in aggregates],
                       trace=trace)
    scale = math.sqrt(MC_REFERENCE_SESSIONS / run.sizes["mc_sessions"])
    result["aggs"] = []
    for code, report, path in zip(result["codes"], result["reports"],
                                  aggregates):
        engine = _ENGINE.search(report)
        run.attempted += 1
        if not run.check(code == 0 and engine is not None,
                         f"{transport} campaign exited {code}"):
            run.failed += 1
            continue
        units, _hits, simulated, _retries, failed = map(int, engine.groups())
        run.check(failed == 0, f"{transport}: {failed} shard units failed")
        if tag != "cold":
            run.check(simulated == 0,
                      f"{transport} rerun re-simulated {simulated} of {units}")
        rows = _MOMENTS.findall(report)
        run.check(len(rows) == 3, f"{transport}: moment table not found")
        for strategy, mean_err, var_err in rows:
            run.check(float(mean_err) / 100 <= MC_MEAN_TOLERANCE * scale
                      and float(var_err) / 100 <= MC_VAR_TOLERANCE * scale,
                      f"{transport} {strategy}: Eq (3) error {mean_err}%, "
                      f"Eq (4) error {var_err}% beyond tolerance")
        result["aggs"].append(read_agg(path))
    return result


def mc_batch(run: Run, jobs: int, reruns: int, trace: bool,
             cross: bool) -> dict:
    """The Monte-Carlo campaign cold into a fresh shard store, then
    ``reruns`` reruns against it in one child (a rerun takes about 0.1 s,
    so a single one is mostly process noise).  With ``cross`` the store
    is also rerun through the *other* transport, whose aggregate must be
    byte-identical.  The store is removed afterwards."""
    transport = "sharded" if run.workload == "mc_sharded" else "distributed"
    store = run.scratch("store")
    cold = _mc_phase(run, store, transport, jobs, "cold", 1, trace=trace)
    cache_bytes = dir_bytes(store / "shards")
    warm = _mc_phase(run, store, transport, jobs, "warm", reruns, trace=trace)
    agg = cold["aggs"][0] if cold["aggs"] else None
    run.check(warm["aggs"] == [agg] * reruns,
              f"{transport}: rerun aggregate differs")
    if cross:
        other = "distributed" if transport == "sharded" else "sharded"
        crossed = _mc_phase(run, store, other, run.sizes["jobs"], "cross", 1)
        run.check(crossed["aggs"] == [agg],
                  f"{other} aggregate differs from the {transport} one")
    shutil.rmtree(store)
    if run.seed == 0:
        pin = load_pins()[run.size]["mc_aggregate"]
        digest = hashlib.sha256(agg or b"").hexdigest()[:16]
        run.check(digest == pin,
                  f"aggregate digest {digest} differs from the seed-0 pin {pin}")
    return {"cold": {"campaign": cold["spans"]},
            "warm": {"campaign": warm["spans"]},
            "rss_mb": max(cold["rss_mb"], warm["rss_mb"]),
            "cache_bytes": cache_bytes, "phases": [cold, warm]}


def batch(run: Run, seconds: float, serial: bool = False,
          trace: bool = False, cross: bool = False) -> dict:
    """One batch of the run's workload.  ``serial`` is the setting of the
    traced pass and of its untraced reference: ``jobs=1``, so every call
    happens in the traced process, and a single grid pass or rerun."""
    jobs = 1 if serial else run.sizes["jobs"]
    if run.workload == "paper_campaign":
        return campaign_batch(run, jobs, 1 if serial else CAMPAIGN_RERUNS,
                              trace)
    if run.workload == "session_grid":
        return grid_batch(run, seconds,
                          1 if serial else MIN_REPS[run.workload], trace)
    return mc_batch(run, jobs, 1 if serial else MC_RERUNS, trace, cross)


def phase_seconds(run: Run, batches: List[dict], phase: str,
                  wall: bool = False) -> float:
    """A phase's time: per unit (experiment, session or campaign) the
    median over every repetition in the batches, summed over the units;
    in reference seconds, or in wall seconds with ``wall``."""
    return sum(median([run.seconds(span, wall) for b in batches
                       for span in b[phase][unit]])
               for unit in batches[0][phase])


def measure(run: Run, seconds: float) -> Dict[str, float]:
    """Untraced: repeat the batch for ``seconds``, and ``MIN_REPS`` times
    at the least (the session grid repeats passes inside its batch)."""
    least = MIN_REPS[run.workload]
    batches = []
    started = time.monotonic()
    while True:
        t = time.monotonic()
        batches.append(batch(run, seconds, cross=not batches))
        took = time.monotonic() - t
        reps = len(batches) if run.workload != "session_grid" else least
        if reps >= least and time.monotonic() - started + took > seconds:
            break
    while len(run.setup_spans) < SETUP_SAMPLES:
        run.child("setup")
    run.read_speed()
    run.wall_seconds = {
        "wall_s": phase_seconds(run, batches, "cold", wall=True),
        "warm_s": phase_seconds(run, batches, "warm", wall=True),
        "setup_s": median([run.seconds(s, wall=True)
                           for s in run.setup_spans])}
    return {
        "wall_s": phase_seconds(run, batches, "cold"),
        "warm_s": phase_seconds(run, batches, "warm"),
        "setup_s": median([run.seconds(s) for s in run.setup_spans]),
        "peak_rss_mb": median([b["rss_mb"] for b in batches]),
    }


def _percentile(values: List[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


_EXPERIMENT = re.compile(r"experiments\.(.+)\.(cold|warm)_s")


def trace(run: Run, names: List[str]) -> Dict[str, float]:
    """One untraced and one traced batch at jobs=1, plus (session grid)
    a cProfile pass; returns the per-layer metrics ``names``.  A metric
    is the sum over the traced batch's phases of the layer number of that
    name, unless derived below; a layer the workload does not reach
    reads 0."""
    ref = batch(run, 0.0, serial=True)
    traced = batch(run, 0.0, serial=True, trace=True, cross=True)
    layers: Dict[str, float] = {}
    for phase in traced["phases"]:
        for name, value in phase["layers"].items():
            layers[name] = layers.get(name, 0.0) + value
    metrics = {name: layers.get(name, 0.0) for name in names}
    events = layers.get("simnet.scheduler.events", 0.0)
    sim_s = layers.get("sim_s", 0.0)
    packets_in = metrics["simnet.link.packets_in"]
    metrics["simnet.scheduler.ff_sim_share"] = (
        100.0 * layers.get("ff_s", 0.0) / sim_s if sim_s else 0.0)
    metrics["simnet.scheduler.host_us_per_event"] = (
        1e6 * layers.get("simnet.run_s", 0.0) / events if events else 0.0)
    metrics["simnet.link.drop_ratio"] = (
        (metrics["simnet.link.packets_lost"]
         + metrics["simnet.link.packets_dropped_queue"]) / packets_in
        if packets_in else 0.0)
    metrics["runner.cache.bytes"] = float(ref.get("cache_bytes", 0))

    shares = {}
    if run.workload == "session_grid":
        shares = run.child("profile",
                           subset=run.sizes["profile_step"])["self_share"]
    run.read_speed()
    metrics["trace_overhead"] = (
        (phase_seconds(run, [traced], "cold")
         + phase_seconds(run, [traced], "warm"))
        / (phase_seconds(run, [ref], "cold")
           + phase_seconds(run, [ref], "warm")))

    if run.workload == "paper_campaign":
        for name in names:
            match = _EXPERIMENT.fullmatch(name)
            if match:
                spans = ref["cold" if match[2] == "cold" else "warm"]
                metrics[name] = (run.seconds(spans[match[1]][0])
                                 if match[1] in spans else 0.0)

    for name, value in ref["phases"][0].get("dist", {}).items():
        metrics[f"runner.dist.{name}"] = float(value)

    if run.workload == "session_grid":
        session_s = [run.seconds(spans[0]) for spans in ref["cold"].values()]
        metrics["simnet.pkts_per_s"] = (
            ref["phases"][0]["passes"][0]["packets"] / sum(session_s))
    else:
        session_s = [s for phase in traced["phases"]
                     for s in phase["traced_session_s"]]
        metrics["simnet.pkts_per_s"] = (
            layers.get("pcap.packets", 0.0) / sum(session_s)
            if session_s else 0.0)
    metrics["streaming.sessions"] = float(len(session_s))
    metrics["streaming.session_p50_s"] = median(session_s)
    metrics["streaming.session_p80_s"] = _percentile(session_s, 80)
    for layer, share in shares.items():
        metrics[f"self_share.{layer}"] = share
    return metrics


# -- command line ----------------------------------------------------------------

def run_workload(workload: str, args, spec: dict, work: Path,
                 sampler: speed.Sampler) -> dict:
    size = "quick" if args.quick else "full"
    deadline = time.monotonic() + RUN_DEADLINE_S
    span_dir = ROOT / ".bench_out"
    if args.trace:
        span_dir.mkdir(exist_ok=True)
    run = Run(workload, args.seed, SIZES[size], size, work / workload,
              span_dir, deadline, sampler)
    try:
        # compiles bytecode and warms the page cache; not a timed set-up
        run.child("setup", count_setup=False)
        values = (trace(run, [m["name"] for m in spec["per_layer"]])
                  if args.trace else measure(run, args.seconds))
    except CheckFailed as exc:
        run.problems.append(str(exc))
        values = {}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if values and missing:
        run.problems.append(f"{workload}: metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    return {"workload": workload, "seed": args.seed, "trace": args.trace,
            "size": size, "correct": not run.problems,
            "attempted": max(1, run.attempted), "failed": run.failed,
            "metrics": metrics, "wall_seconds": run.wall_seconds,
            "problems": run.problems}


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=0,
                        help="picks videos and session seeds (default 0; "
                             "output pins are enforced for seed 0)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long a run repeats its batch "
                             "(default %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: a traced run reporting per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes: 2 experiments, 4 sessions, "
                             "20k Monte-Carlo sessions")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append one JSON line per workload run (the "
                             "input of bench/agree.py)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro" / "cli.py").is_file() or not SPEC.is_file():
        print(f"bench: no repro sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    args = parse_args(argv, spec)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    env = environment()
    scratch = ROOT / ".bench_tmp"
    work = scratch / uuid.uuid4().hex[:12]
    work.mkdir(parents=True)
    # one CPU for the workload and the speed sampler: the host's CPUs
    # change speed independently, and the sampler must see the one the
    # workload runs on (see speed.py)
    cpus = os.sched_getaffinity(0)
    results = []
    try:
        os.sched_setaffinity(0, {max(cpus)})
        with speed.Sampler(work / "speed.txt") as sampler:
            for workload in workloads:
                result = run_workload(workload, args, spec, work, sampler)
                results.append(result)
                print(f"{workload} (seed {args.seed}, "
                      f"{'traced' if args.trace else 'untraced'}, "
                      f"{result['size']}): {result['attempted']} attempted, "
                      f"{result['failed']} failed")
                for name, metric in result["metrics"].items():
                    print(f"  {name:<40} {metric['value']:>14.6g} "
                          f"{metric['unit']}")
                for name, value in result["wall_seconds"].items():
                    print(f"  {name + ' (wall)':<40} {value:>14.6g} s")
                for problem in result["problems"]:
                    print(f"CHECK FAILED: {problem}", file=sys.stderr)
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    if args.out:
        with open(args.out, "a", encoding="utf-8") as f:
            for result in results:
                f.write(json.dumps({**result, "env": env}) + "\n")
    correct = all(r["correct"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": metric for r in results
                   for name, metric in r["metrics"].items()}
    print("env: " + json.dumps(env))
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
