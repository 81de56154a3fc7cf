"""repro — reproduction of "Network Characteristics of Video Streaming Traffic"
(Rao, Lim, Barakat, Legout, Towsley, Dabbous; ACM CoNEXT 2011).

The package is organized bottom-up:

- :mod:`repro.simnet` — discrete-event network simulation substrate.
- :mod:`repro.tcp` — from-scratch TCP (NewReno, flow control, timers).
- :mod:`repro.pcap` — libpcap-format capture of simulated traffic.
- :mod:`repro.http` — minimal HTTP/1.1 with range requests and container
  (FLV / webM-like) metadata headers.
- :mod:`repro.workloads` — the paper's six video datasets, synthesized.
- :mod:`repro.streaming` — the three streaming strategies and the
  application/container matrix of Table 1.
- :mod:`repro.analysis` — the measurement methodology: flow reassembly,
  ON/OFF cycle detection, block sizes, accumulation ratios, ACK clocks.
- :mod:`repro.model` — the Section-6 analytical model of aggregate traffic.
- :mod:`repro.runner` — the session-execution engine: worker pool,
  content-addressed result cache, (video, config, code) fingerprints.
- :mod:`repro.experiments` — one module per table/figure of the paper,
  behind an :class:`~repro.experiments.ExperimentSpec` registry.
- :mod:`repro.obs` — campaign observability: every consumer (progress,
  exports, health, ``repro profile``) is a subscriber on the engine's
  run ledger, so observing a run never changes it (see
  ``docs/ARCHITECTURE.md``).

The prose companions: ``docs/ARCHITECTURE.md`` (layers, data flow, the
determinism contract), ``docs/API.md`` (generated reference of the
public surface), ``DESIGN.md`` (substitutions and per-experiment module
map), ``EXPERIMENTS.md`` (paper vs. reproduction).
"""

__version__ = "1.1.0"
