"""repro — reproduction of "How to Meet Asynchronously at Polynomial Cost".

The package implements, from scratch, every system the paper (Dieudonné,
Pelc, Villain, PODC 2013) describes or depends on:

* :mod:`repro.graphs` — anonymous port-labeled graphs and the families used
  in the experiments;
* :mod:`repro.exploration` — universal exploration sequences, the cost model
  (trajectory lengths, the bound ``Π(n, m)``) and Procedure ESST;
* :mod:`repro.core` — the trajectory constructions of §3.1, Algorithm
  RV-asynch-poly, the exponential baseline and the analytic bounds;
* :mod:`repro.sim` — the asynchronous adversarial execution engine (routes
  versus walks, meetings inside edges, cost accounting);
* :mod:`repro.teams` — Algorithm SGL and the four multi-agent applications
  (team size, leader election, perfect renaming, gossiping);
* :mod:`repro.analysis` — the registered experiment specs regenerating the
  paper's figures and the derived tables (``repro experiment --list``);
* :mod:`repro.runtime` — the unified scenario runtime: declarative
  JSON-round-trippable specs, component registries, and batched
  (serial or multi-process) sweep execution.

Quickstart
----------
>>> from repro.graphs import families
>>> from repro.core import run_rendezvous
>>> result = run_rendezvous(families.ring(8), [(6, 0), (11, 4)])
>>> result.met
True
"""

from . import graphs, exploration, core, sim, teams, analysis, runtime

__version__ = "1.0.0"

__all__ = [
    "graphs",
    "exploration",
    "core",
    "sim",
    "teams",
    "analysis",
    "runtime",
    "__version__",
]
