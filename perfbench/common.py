"""Shared machinery of the benchmark workloads.

A workload is a class with four steps, called once per repetition:

* ``setup()``   builds the simulated system and loads its initial state
  (timed as ``setup_s``);
* ``simulate()`` offers the whole load and runs it to completion
  (timed, with ``verify()``, as ``wall_s``);
* ``verify()``  replays the program's own oracles over the trace;
* ``check()``   the benchmark's own correctness checks (untimed).

``figures()`` then returns the repetition's modelled figures: every
value in it is a pure function of the seed, so each repetition must
reproduce the warm-up's dict exactly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np


class CheckFailed(Exception):
    """The program's output broke a property the benchmark checks."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def pctl(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (``p`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def quota(pmf, n: int):
    """``n`` category indices whose counts follow ``pmf`` as closely as
    whole numbers allow (largest remainder), in category order."""
    exact = np.asarray(pmf, dtype=float) * n
    counts = np.floor(exact).astype(int)
    short = n - int(counts.sum())
    counts[np.argsort(counts - exact, kind="stable")[:short]] += 1
    return np.repeat(np.arange(len(counts)), counts)


def strata(rng, lo: float, hi: float, size: int):
    """``size`` seeded values in ``[lo, hi)``, one in each of ``size``
    equal-width strata, in seeded order."""
    return lo + (hi - lo) * (rng.permutation(size) + rng.random(size)) / size


class Spans:
    """In-memory span log, written out once when the benchmark exits.

    A span is one operation (simulated clock, µs) or one phase (host
    clock, s): ``[id, parent, clock, name, layer call, start, end]``.
    """

    def __init__(self):
        self.rows: List[list] = []

    def open(self, parent: Optional[int], clock: str, name: str,
             call: str, start: float) -> int:
        self.rows.append([len(self.rows), parent, clock, name, call,
                          start, None])
        return len(self.rows) - 1

    def close(self, sid: int, end: float) -> None:
        self.rows[sid][6] = end

    def add(self, parent: Optional[int], clock: str, name: str,
            call: str, start: float, end: float) -> None:
        self.rows.append([len(self.rows), parent, clock, name, call,
                          start, end])


class OpLog:
    """The benchmark's record of one simulation's operations.

    ``start()`` stamps an offer, ``done()`` its completion; latency is
    their difference in simulated µs.  The makespan runs from the first
    offer to the last completion.
    """

    def __init__(self, env, spans: Optional[Spans] = None,
                 parent: Optional[int] = None):
        self.env = env
        self.lat: List[float] = []
        self.first = math.inf
        self.last = 0.0
        self.spans = spans
        self.parent = parent

    def start(self) -> float:
        now = self.env.now
        if now < self.first:
            self.first = now
        return now

    def done(self, t0: float, call: str) -> float:
        now = self.env.now
        self.lat.append(now - t0)
        if now > self.last:
            self.last = now
        if self.spans is not None:
            self.spans.add(self.parent, "sim", "op", call, t0, now)
        return now - t0

    @property
    def makespan_us(self) -> float:
        return self.last - self.first if self.lat else 0.0


class Counters:
    """Snapshot of the program's public per-layer counters.

    Taken once after set-up and once after the load; the difference is
    the work the load did.
    """

    def __init__(self, nodes, fabric, obs=None):
        self.nodes = list(nodes)
        self.fabric = fabric
        self.obs = obs
        self.base = self.read()

    def read(self) -> Dict[str, float]:
        nics = [n.nic for n in self.nodes]
        return {
            "cpu_busy_us": sum(n.cpu.utilization() * n.env.now * n.cpu.cores
                               for n in self.nodes),
            # core-µs the nodes could have been busy for
            "core_us": sum(n.env.now * n.cpu.cores for n in self.nodes),
            "verbs": sum(n.rdma_reads + n.rdma_writes + n.atomics
                         for n in nics),
            "msgs": sum(n.sends for n in nics),
            "transfers": self.fabric.transfers,
            "xrack_transfers": getattr(self.fabric, "xrack_transfers", 0),
            "xrack_bytes": getattr(self.fabric, "xrack_bytes", 0),
            "trace_events": 0 if self.obs is None else self.obs.trace.emitted,
        }

    def delta(self) -> Dict[str, float]:
        end = self.read()
        return {k: end[k] - self.base[k] for k in end}


def sum_deltas(deltas: Sequence[Dict[str, float]]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for d in deltas:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return out


def sim_figures(lat: Sequence[float], makespan_us: float,
                work: Dict[str, float]) -> Dict[str, float]:
    """The modelled end-to-end figures plus the per-layer work ratios.

    ``work`` is a (summed) :meth:`Counters.delta`; its ``core_us`` is
    the core time the CPU busy fraction is taken over.
    """
    ops = len(lat)
    require(ops > 0 and makespan_us > 0, "no operation completed")
    span = work["core_us"]
    return {
        "ops": ops,
        "makespan_us": makespan_us,
        "sim_ops_per_s": ops / (makespan_us / 1e6),
        "sim_op_p50_us": pctl(lat, 50),
        "sim_op_p99_us": pctl(lat, 99),
        "sim_cpu_us_per_op": work["cpu_busy_us"] / ops,
        "sim.cpu.busy_frac": work["cpu_busy_us"] / span if span else 0.0,
        "net.nic.verbs_per_op": work["verbs"] / ops,
        "net.nic.msgs_per_op": work["msgs"] / ops,
        "net.fabric.transfers_per_op": work["transfers"] / ops,
        "topo.xrack_transfers_per_op": work["xrack_transfers"] / ops,
        "topo.xrack_kb_per_op": work["xrack_bytes"] / 1024.0 / ops,
        "obs.trace_events_per_op": work["trace_events"] / ops,
    }


def hold_overlaps(holds: Sequence[tuple]) -> List[str]:
    """Mutual-exclusion check over ``(lock, start, end, exclusive, who)``
    holds timed by the benchmark: an exclusive hold may overlap no
    other hold of the same lock."""
    by_lock: Dict[object, list] = {}
    for h in holds:
        by_lock.setdefault(h[0], []).append(h)
    bad = []
    for lock, hs in by_lock.items():
        hs.sort(key=lambda h: h[1])
        # sweep: the latest-ending exclusive and shared holds so far
        excl_end, excl_who = -math.inf, None
        shared_end, shared_who = -math.inf, None
        for _lock, start, end, exclusive, who in hs:
            if start < excl_end:
                bad.append(f"lock {lock}: {who} granted at {start:.3f} "
                           f"inside exclusive hold of {excl_who}")
            if exclusive and start < shared_end:
                bad.append(f"lock {lock}: exclusive {who} granted at "
                           f"{start:.3f} inside shared hold of "
                           f"{shared_who}")
            if exclusive and end > excl_end:
                excl_end, excl_who = end, who
            if not exclusive and end > shared_end:
                shared_end, shared_who = end, who
    return bad
