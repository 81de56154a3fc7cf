"""One child interpreter of the benchmark.

``bench/run.py`` starts ``python bench/child.py SPEC.json`` once per timed
phase.  The child sets its workload up (imports, catalogs, session
plans), notes the moment it is ready, runs the phase, and writes what it
measured to the JSON file the spec names.  Set-up time is the span from
the parent's spawn to that ready moment; the timed phase starts after it.
Every timed unit is reported as its ``[start, end]`` on the system-wide
monotonic clock, which the parent shares, so the parent can scale it by
the host speed its sampler saw meanwhile (see ``speed.py``).

The phases call only public entry points of ``repro``: the CLI's
``main``, ``run_session``, ``analyze_session``, the experiment registry
and, after the timed call, ``FileShardQueue.done_record``.  With
``"trace": true`` in the spec the child first wraps the layer boundaries
(see ``tracing.py``) and reports per-layer numbers as well.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
from pathlib import Path

clock = time.monotonic


def timed(fn, *args, **kwargs):
    """``fn(...)`` and the ``[start, end]`` of the call."""
    start = clock()
    value = fn(*args, **kwargs)
    return value, [start, clock()]

MB = 1024 * 1024

#: Imported by every child before it reports ready: what ``repro
#: experiment`` loads, plus the modules the distributed path and the
#: exports load lazily.
SETUP_IMPORTS = ("repro.cli", "repro.experiments", "repro.obs",
                 "repro.runner.dist.coordinator")


def grid_plans(seed: int, capture_s: float):
    """The session grid: every Table-1 cell on every network profile.

    Each (cell, profile) streams its own video, picked from the cell's
    dataset with the public ``make_dataset``/``pick_videos``: Netflix
    movies of 30 min or more, as Table 1 uses, and YouTube videos from a
    narrow band of sizes (and, for HTML5, of encoding rates inside Table
    1's range).  Within a 120 s capture a Flash or bulk session downloads
    its whole video and a throttled one streams at its encoding rate, so
    the band keeps the packets a seed's grid simulates within a few
    percent of every other seed's; Table 1's wide ranges move them by
    17% between seeds.  The catalogs are built at half scale so every
    band holds enough videos.  The grid mixes short and long ON-OFF on
    clean links with bulk transfers and bursty loss.
    """
    from repro.experiments import pick_videos
    from repro.simnet import PROFILES
    from repro.streaming import (TABLE1_EXPECTED, Container, Service,
                                 SessionConfig)
    from repro.workloads import make_dataset

    profiles = list(PROFILES.values())
    picked = {}

    def videos(name, scale=0.5, **limits):
        # every cell of a dataset has the same limits, and so the same picks
        if name not in picked:
            picked[name] = pick_videos(
                make_dataset(name, seed=seed, scale=scale), len(profiles),
                seed, **limits)
        return picked[name]

    plans = []
    for service, container, application in TABLE1_EXPECTED:
        if service is Service.NETFLIX:
            picks = videos("NetPC", scale=0.25, min_duration=1800.0)
        elif container is Container.FLASH:
            picks = videos("YouFlash", min_size_bytes=16 * MB,
                           max_size_bytes=20 * MB)
        elif container is Container.FLASH_HD:
            picks = videos("YouHD", min_size_bytes=20 * MB,
                           max_size_bytes=24 * MB)
        else:
            # 1.5 to 2 Mb/s: at most 48 MB in at least 200 s
            picks = videos("YouMob" if application.is_mobile else "YouHtml",
                           min_size_bytes=40 * MB, max_size_bytes=48 * MB,
                           min_duration=200.0, min_rate_bps=1.5e6)
        for index, profile in enumerate(profiles):
            config = SessionConfig(profile=profile, service=service,
                                   application=application,
                                   container=container,
                                   capture_duration=capture_s, seed=seed)
            plans.append((picks[index % len(picks)], config))
    return plans


def rotation(plans, step: int):
    """Every ``step``-th cell, each on the next profile in turn: a
    subset that still visits every profile (the grid is cell-major)."""
    from repro.simnet import PROFILES

    profiles = len(PROFILES)
    cells = len(plans) // profiles
    return [plans[cell * profiles + (cell // step) % profiles]
            for cell in range(0, cells, step)]


def grid_digest(rows) -> str:
    """Digest of per-session (captured packets, downloaded bytes)."""
    text = json.dumps([[packets, downloaded] for packets, downloaded, _ in rows])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- phases ---------------------------------------------------------------------

def _cli(argv):
    """``repro.cli.main(argv)`` with its report captured, not printed."""
    import repro.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = repro.cli.main(argv)
    return code, out.getvalue()


def run_campaign(spec, state):
    """The campaign ``passes`` times in a row against one cache."""
    sizes = spec["sizes"]
    spans = {name: [] for name in sizes["campaign"]}
    passes = []
    for _ in range(spec["passes"]):
        reports, codes = {}, {}
        for name in sizes["campaign"]:
            (codes[name], reports[name]), span = timed(_cli, [
                "experiment", name, "--scale", sizes["scale"],
                "--seed", str(spec["seed"]), "--jobs", str(spec["jobs"]),
                "--cache-dir", spec["cache"]])
            spans[name].append(span)
        passes.append({"reports": reports, "codes": codes})
    return {"passes": passes, "experiments": spans}


def run_grid(spec, state):
    """Passes over the grid until ``seconds`` is spent (``min_passes`` at
    the least).  Each session is simulated, then its capture analyzed;
    both are timed per session so the parent can take per-session
    medians across passes."""
    import repro.analysis as analysis
    import repro.streaming as streaming

    plans = state["plans"]
    if spec.get("subset"):
        plans = rotation(plans, spec["subset"])
    simulate = [[] for _ in plans]
    analyze = [[] for _ in plans]
    passes = []
    started = clock()
    while True:
        pass_started = clock()
        rows, strategies = [], []
        for index, (video, config) in enumerate(plans):
            result, span = timed(streaming.run_session, video, config)
            simulate[index].append(span)
            verdict, span = timed(analysis.analyze_session, result,
                                  use_true_rate=True)
            analyze[index].append(span)
            rows.append((len(result.capture), result.downloaded,
                         bool(result.failed)))
            strategies.append(str(verdict.strategy))
        passes.append({"packets": sum(row[0] for row in rows),
                       "failed": sum(row[2] for row in rows),
                       "digest": grid_digest(rows),
                       "strategies": strategies})
        took = clock() - pass_started
        if len(passes) >= spec["min_passes"] \
                and clock() - started + took > spec["seconds"]:
            break
    return {"passes": passes, "sessions": len(plans),
            "simulate": simulate, "analyze": analyze}


def run_profile(spec, state):
    """Self time per layer from ``cProfile`` over the grid subset."""
    import cProfile
    import pstats

    import repro.streaming as streaming
    from tracing import self_shares

    profiler = cProfile.Profile()
    for video, config in rotation(state["plans"], spec["subset"]):
        profiler.enable()
        streaming.run_session(video, config)
        profiler.disable()
    return {"self_share": self_shares(pstats.Stats(profiler).stats)}


def _dist_records(queue_dir):
    """Completion records of every shard the fabric ran (public
    ``FileShardQueue.done_record``)."""
    from repro.runner.dist.queue import FileShardQueue

    queue = FileShardQueue(queue_dir)
    keys = [path.stem for path in Path(queue_dir, "done").glob("*.done")]
    return [queue.done_record(key) for key in keys]


def run_mc(spec, state):
    """The Monte-Carlo campaign once per path in ``aggregates``, each run
    exporting its aggregate there: a cold campaign into an empty store,
    or several reruns against a filled one."""
    sizes = spec["sizes"]
    argv = ["experiment", "model_validation",
            "--sessions", str(sizes["mc_sessions"]),
            "--shard-size", str(sizes["mc_shard_size"]),
            "--seed", str(spec["seed"]), "--cache-dir", spec["cache"]]
    if spec["transport"] == "distributed":
        argv += ["--distributed", "--workers", str(sizes["workers"])]
    else:
        argv += ["--jobs", str(spec["jobs"])]
    out = {"spans": [], "codes": [], "reports": []}
    for aggregate in spec["aggregates"]:
        (code, report), span = timed(_cli, argv + ["--aggregate", aggregate])
        out["spans"].append(span)
        out["codes"].append(code)
        out["reports"].append(report)
    queue_dir = Path(spec["cache"], "queue")
    if spec["transport"] == "distributed" and queue_dir.is_dir():
        start, end = out["spans"][0]
        wall = end - start
        records = _dist_records(queue_dir)
        busy = sum(record.get("wall_s", 0.0) for record in records)
        out["dist"] = {
            "shards": len(records), "shard_compute_s": busy,
            "busy_frac": busy / (sizes["workers"] * wall) if wall else 0.0,
            "steals": sum(1 for record in records if record.get("previous"))}
    return out


def setup(spec):
    for module in SETUP_IMPORTS:
        __import__(module)
    if spec["workload"] == "session_grid":
        return {"plans": grid_plans(spec["seed"], spec["sizes"]["capture_s"])}
    return {}


PHASES = {"campaign": run_campaign, "grid": run_grid,
          "profile": run_profile, "mc": run_mc}


def main(path: str) -> int:
    spec = json.loads(Path(path).read_text(encoding="utf-8"))
    state = setup(spec)
    result = {"ready": time.monotonic()}
    if spec["phase"] != "setup":
        tracer = None
        if spec.get("trace"):
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        result.update(PHASES[spec["phase"]](spec, state))
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer)
            result["traced_session_s"] = tracer.session_s
            tracer.write_spans(spec["spans"])
    out = Path(spec["out"])
    tmp = out.with_suffix(".tmp")
    tmp.write_text(json.dumps(result), encoding="utf-8")
    os.replace(tmp, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
