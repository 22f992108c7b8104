"""SMaRt-SCADA reproduction (Nogueira et al., DSN 2018).

A Byzantine fault-tolerant SCADA system built from scratch in Python,
one package per layer, bottom to top (``tests/test_layering.py``
enforces the order):

- :mod:`repro.perf`, :mod:`repro.obs.metrics`, :mod:`repro.obs.trace` —
  leaves: cache counters, the metrics registry, the span tracer;
- :mod:`repro.sim` — deterministic discrete-event simulation kernel;
- :mod:`repro.wire` / :mod:`repro.net` / :mod:`repro.crypto` — codec,
  simulated network with fault injection, authentication;
- :mod:`repro.storage` — simulated disks, WAL and checkpoints;
- :mod:`repro.bftsmart` — BFT-SMaRt-style state machine replication;
- :mod:`repro.neoscada` — Eclipse-NeoSCADA-style SCADA construction kit;
- :mod:`repro.shard` — item partition, global AE merge, correlation;
- :mod:`repro.core` — SMaRt-SCADA: the BFT SCADA Master integration;
- :mod:`repro.ids` / :mod:`repro.heal` — intrusion detection and
  closed-loop recovery;
- :mod:`repro.obs` — fleet scoreboard, SLOs and trace export;
- :mod:`repro.chaos` — fault-drill campaigns and invariant monitors;
- :mod:`repro.workloads` — workload generators and measurement harness.
"""

__version__ = "1.0.0"
