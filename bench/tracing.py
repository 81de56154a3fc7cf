"""Per-layer tracing from outside the program.

Only traced benchmark passes import this module.  :func:`install` wraps
public functions of :mod:`repro` in memory, inside the child process that
runs the traced pass, so every call into a layer records a span (name,
start, end, parent).  Counters are read from public attributes of the
objects those calls build or return: the scheduler, the links and the
TCP connections of each session.  Untraced passes never load this
module, so they time the code path that ships.

:func:`self_shares` is the other half: it folds a ``cProfile`` pass into
layers by source module, which is the only way to split the event loop
(``EventScheduler.run_until``) into scheduler, link and TCP time from
outside.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

clock = time.perf_counter

#: Layers of the ``self_share.*`` metrics, in report order.  ``other`` is
#: every repro module not listed below (workloads, experiments, runner, ...).
SELF_LAYERS = ("simnet.scheduler", "simnet.link", "tcp", "pcap",
               "streaming", "http", "other")

# paths inside the repro package; first match wins, so the scheduler's
# files come before the rest of simnet
_MODULE_LAYERS = (
    ("simnet/scheduler.py", "simnet.scheduler"),
    ("simnet/clock.py", "simnet.scheduler"),
    ("simnet/", "simnet.link"),
    ("tcp/", "tcp"),
    ("pcap/", "pcap"),
    ("streaming/", "streaming"),
    ("http/", "http"),
    ("", "other"),
)


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []      # [name, start, end, parent index]
        self._open: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.session_s: List[float] = []
        self._sessions: List[dict] = []  # per-session objects being built

    def wrap(self, fn: Callable, name: str,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``before(args)`` runs first and
        ``after(result, args, context, seconds)`` once the span closed."""
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            context = before(args) if before is not None else None
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                after(result, args, context, spans[index][2] - spans[index][1])
            return result

        return traced

    # -- per-session counters -------------------------------------------------

    def _session_begin(self, args) -> dict:
        context = {"nets": [], "conns": []}
        self._sessions.append(context)
        return context

    def _session_end(self, result, args, context, seconds) -> None:
        self._sessions.remove(context)
        counts = self.counts
        self.session_s.append(seconds)
        counts["pcap.packets"] += len(result.capture)
        for net, path in context["nets"]:
            sched = net.scheduler
            counts["simnet.scheduler.events"] += sched.fired
            counts["simnet.scheduler.ff_jumps"] += sched.fast_forward_jumps
            counts["simnet.scheduler.ff_refusals"] += \
                sched.fast_forward_refusals
            counts["ff_s"] += sched.fast_forwarded_s
            counts["sim_s"] += net.now()
            for link in (path.forward, path.reverse):
                stats = link.stats
                counts["simnet.link.packets_in"] += stats.packets_in
                counts["simnet.link.packets_lost"] += stats.packets_lost
                counts["simnet.link.packets_dropped_queue"] += \
                    stats.packets_dropped_queue
        for conn in context["conns"]:
            stats = conn.stats
            counts["tcp.segments_sent"] += stats.segments_sent
            counts["tcp.retransmitted_segments"] += \
                stats.retransmitted_segments
            counts["tcp.dupacks_received"] += stats.dupacks_received

    def _network_built(self, result, args, context, seconds) -> None:
        if self._sessions:
            net, _client, _server, path = result
            self._sessions[-1]["nets"].append((net, path))

    # -- results ---------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: total seconds and self seconds (total minus the
        time its direct child spans cover)."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _parent), inner in zip(self.spans, child_s):
            out[name]["total_s"] += end - start
            out[name]["self_s"] += end - start - inner
        return dict(out)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for index, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": index, "name": name,
                                    "start": start, "end": end,
                                    "parent": parent}) + "\n")


def _replace_everywhere(original: Any, replacement: Any) -> None:
    """Rebind every ``repro`` module attribute that is ``original``: a
    function imported by name into other modules is wrapped at each site."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an already-imported ``repro``."""
    import repro.analysis.session_analysis as session_analysis
    import repro.experiments as experiments
    import repro.model as model
    import repro.obs as obs
    import repro.runner as runner
    import repro.runner.dist.coordinator as coordinator
    import repro.simnet as simnet
    import repro.streaming as streaming
    from repro.pcap import TraceCapture
    from repro.tcp import TcpConnection

    counts = tracer.counts

    def everywhere(fn, name, **hooks):
        _replace_everywhere(fn, tracer.wrap(fn, name, **hooks))

    everywhere(streaming.run_session, "streaming.session",
               before=tracer._session_begin, after=tracer._session_end)
    everywhere(simnet.build_client_server, "simnet.build",
               after=tracer._network_built)
    simnet.Network.run_until = tracer.wrap(simnet.Network.run_until,
                                           "simnet.run")

    original_init = TcpConnection.__init__

    @functools.wraps(original_init)
    def init(conn, *args, **kwargs):
        original_init(conn, *args, **kwargs)
        if tracer._sessions:
            tracer._sessions[-1]["conns"].append(conn)

    TcpConnection.__init__ = init

    def count_records(args):
        counts["analysis.packets"] += len(args[0])

    everywhere(session_analysis.analyze_records, "analysis.analyze",
               before=count_records)
    for attr, name in (("build_download_trace", "analysis.flowtable"),
                       ("detect_onoff", "analysis.onoff"),
                       ("split_phases", "analysis.phases"),
                       ("classify_onoff", "analysis.classify"),
                       ("estimate_session_rate", "analysis.rate"),
                       ("ackclock_samples", "analysis.ackclock")):
        everywhere(getattr(session_analysis, attr), name)
    records = TraceCapture.records
    TraceCapture.records = property(tracer.wrap(records.fget, "pcap.records"))

    def cache_get(result, args, context, seconds):
        counts["runner.cache.gets"] += 1
        counts["runner.hits"] += result is not None

    def cache_put(result, args, context, seconds):
        counts["runner.cache.puts"] += 1

    runner.ResultCache.get = tracer.wrap(runner.ResultCache.get,
                                         "runner.cache.get", after=cache_get)
    runner.ResultCache.put = tracer.wrap(runner.ResultCache.put,
                                         "runner.cache.put", after=cache_put)

    def engine(fn, position):
        # materialize the batch so its size is counted without consuming
        # an iterator the engine still has to read
        traced = tracer.wrap(fn, "runner.engine")

        @functools.wraps(fn)
        def call(*args, **kwargs):
            args = list(args)
            args[position] = list(args[position])
            counts["runner.units"] += len(args[position])
            return traced(*args, **kwargs)

        _replace_everywhere(fn, call)

    engine(runner.run_sessions, 0)
    engine(runner.run_tasks, 1)
    engine(coordinator.run_shards_distributed, 1)

    def shard_done(result, args, context, seconds):
        counts["model.montecarlo.shards"] += 1

    everywhere(model.simulate_aggregate_moments, "model.montecarlo.shard",
               after=shard_done)
    everywhere(model.simulate_aggregate, "model.montecarlo.run")
    everywhere(model.simulate_wasted_bandwidth, "model.montecarlo.run")
    model.AggregateMoments.merge = tracer.wrap(model.AggregateMoments.merge,
                                               "stats.merge")
    obs.CampaignCollector.batch_finished = tracer.wrap(
        obs.CampaignCollector.batch_finished, "obs.collect.fold")

    wrapped_reports = set()

    def experiment_done(result, args, context, seconds):
        cls = type(result)
        if cls not in wrapped_reports:
            wrapped_reports.add(cls)
            cls.report = tracer.wrap(cls.report, "experiments.report")

    experiments.ExperimentSpec.run = tracer.wrap(
        experiments.ExperimentSpec.run, "experiments.run",
        after=experiment_done)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer numbers one traced pass yields, all sums (the caller
    derives ratios once every phase of a run is folded in): every counter
    collected, ``<span>_s`` for each span's total time, and
    ``runner.engine_overhead_s``, the engine's self time."""
    totals = tracer.totals()
    out = dict(tracer.counts)
    for name, seconds in totals.items():
        out[f"{name}_s"] = seconds["total_s"]
    out["runner.engine_overhead_s"] = totals.get(
        "runner.engine", {}).get("self_s", 0.0)
    return out


def _module_layer(filename: str, package: str) -> Optional[str]:
    if not filename.startswith(package):
        return None  # builtins, the standard library, numpy
    path = filename[len(package):].replace(os.sep, "/")
    for prefix, layer in _MODULE_LAYERS:
        if path.startswith(prefix):
            return layer
    return None


def self_shares(raw_stats: dict) -> Dict[str, float]:
    """Percent of profiled self time per layer.

    ``raw_stats`` is ``pstats.Stats(...).stats``.  A function outside
    ``repro`` (a builtin such as ``heapq.heappop``, or the standard
    library) has no layer of its own: its self time is split across its
    callers in proportion to the time each call edge spent in it, and
    lands in the callers' layers.
    """
    import repro

    package = os.path.dirname(repro.__file__) + os.sep
    resolved: Dict[Any, Dict[str, float]] = {}

    def layers_of(func, depth: int = 0) -> Dict[str, float]:
        if func in resolved:
            return resolved[func]
        layer = _module_layer(func[0], package)
        if layer is not None:
            resolved[func] = {layer: 1.0}
            return resolved[func]
        resolved[func] = {"other": 1.0}  # guards recursion cycles
        callers = raw_stats[func][4]
        weights = {caller: edge[2] for caller, edge in callers.items()
                   if caller in raw_stats}
        if sum(weights.values()) <= 0:
            weights = {caller: edge[1] for caller, edge in callers.items()
                       if caller in raw_stats}
        total = sum(weights.values())
        if depth < 12 and total > 0:
            shares: Dict[str, float] = defaultdict(float)
            for caller, weight in weights.items():
                for name, part in layers_of(caller, depth + 1).items():
                    shares[name] += part * weight / total
            resolved[func] = dict(shares)
        return resolved[func]

    seconds: Dict[str, float] = defaultdict(float)
    for func, entry in raw_stats.items():
        for name, part in layers_of(func).items():
            seconds[name] += entry[2] * part
    grand = sum(seconds.values()) or 1.0
    return {name: 100.0 * seconds.get(name, 0.0) / grand
            for name in SELF_LAYERS}
