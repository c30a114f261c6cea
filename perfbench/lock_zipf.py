"""lock-zipf: five lock designs serve one Zipf-skewed contention schedule.

An 8-node flat InfiniBand cluster, ``CLIENTS`` clients spread round
robin over the nodes.  Each client makes ``ROUNDS`` rounds: wait, pick a
lock from a Zipf(``ALPHA``) law over ``N_LOCKS`` locks, acquire it
(shared with probability ``SHARED_FRAC``), hold it, release, think.  The
whole schedule is drawn from the seed up front, and each of ``srsl``,
``dqnl``, ``ncosed``, ``mcs`` and ``alock`` serves that identical
schedule on its own cluster.  An operation is one acquire, from call to
grant.  Each design's run drains its agenda with an unbounded ``run()``
and its trace is replayed through ``LockOracle``.  No faults.
"""

from __future__ import annotations

import time

import numpy as np

from common import (Counters, OpLog, hold_overlaps, pctl, quota,
                    require, sim_figures, strata, sum_deltas)

DESIGNS = ("srsl", "dqnl", "ncosed", "mcs", "alock")
N_NODES, CLIENTS, ROUNDS = 8, 256, 6
N_LOCKS, ALPHA, SHARED_FRAC = 16, 1.2, 0.2


class Workload:
    name = "lock-zipf"

    def __init__(self, seed: int, spans=None):
        from repro.workloads.zipf import zipf_pmf
        self.seed = seed
        self.spans = spans
        rng = np.random.default_rng([seed, 2])
        # stratified draw: every round offers each (lock, mode) pair its
        # rounded share of the Zipf and shared mix, and waits and holds
        # cover their ranges evenly; the seed decides who asks for which
        # lock, when and for how long
        n = CLIENTS * ROUNDS
        joint = np.outer(zipf_pmf(N_LOCKS, ALPHA),
                         [1.0 - SHARED_FRAC, SHARED_FRAC]).ravel()
        pairs = np.stack([rng.permutation(quota(joint, CLIENTS))
                          for _ in range(ROUNDS)], axis=1).ravel()
        locks, shared = pairs // 2, pairs % 2
        think0 = strata(rng, 0.0, 2_000.0, CLIENTS)
        thinks = strata(rng, 20.0, 200.0, n)
        holds = strata(rng, 2.0, 10.0, n)
        self.schedule = [
            (float(think0[i]),
             thinks[i * ROUNDS:(i + 1) * ROUNDS].tolist(),
             holds[i * ROUNDS:(i + 1) * ROUNDS].tolist(),
             [bool(x) for x in shared[i * ROUNDS:(i + 1) * ROUNDS]],
             locks[i * ROUNDS:(i + 1) * ROUNDS].tolist())
            for i in range(CLIENTS)]
        self.ops_offered = len(DESIGNS) * CLIENTS * ROUNDS
        self.layer_host_metrics = tuple(f"dlm.{d}.wall_s" for d in DESIGNS)

    def setup(self) -> None:
        from repro.dlm import (ALockManager, DQNLManager, MCSManager,
                               NCoSEDManager, SRSLManager)
        from repro.net import Cluster
        from repro.net.params import NetworkParams
        makers = {"srsl": SRSLManager, "dqnl": DQNLManager,
                  "ncosed": NCoSEDManager, "mcs": MCSManager,
                  "alock": ALockManager}
        self.cells = {}
        for design in DESIGNS:
            cluster = Cluster(n_nodes=N_NODES,
                              params=NetworkParams.infiniband(),
                              seed=self.seed)
            obs = cluster.observe(ring=1 << 21, sanitize=True, strict=False)
            manager = makers[design](cluster, n_locks=N_LOCKS)
            self.cells[design] = {
                "cluster": cluster, "obs": obs, "manager": manager,
                "counters": Counters(cluster.nodes, cluster.fabric, obs)}

    def simulate(self) -> None:
        self.host_extra = {}
        for design in DESIGNS:
            t0 = time.perf_counter()
            self._run(self.cells[design])
            self.host_extra[f"dlm.{design}.wall_s"] = (
                time.perf_counter() - t0)

    def _run(self, cell) -> None:
        from repro.dlm import LockMode
        cluster, manager = cell["cluster"], cell["manager"]
        env = cluster.env
        cell["log"] = log = OpLog(env, self.spans,
                                  self.parent)
        cell["holds"], cell["offered"] = holds, offered = [], []
        call = f"{type(manager).__name__}.client.acquire"

        def client(env, i, lc):
            think0, thinks, hold_us, shared, locks = self.schedule[i]
            yield env.timeout(think0)
            for r in range(ROUNDS):
                mode = LockMode.SHARED if shared[r] else LockMode.EXCLUSIVE
                offered.append((i, r, locks[r], shared[r]))
                t0 = log.start()
                yield lc.acquire(locks[r], mode)
                granted = env.now
                log.done(t0, call)
                yield env.timeout(hold_us[r])
                holds.append((locks[r], granted, env.now, not shared[r], i))
                yield lc.release(locks[r])
                yield env.timeout(thinks[r])

        for i in range(CLIENTS):
            lc = manager.client(cluster.nodes[i % N_NODES])
            env.process(client(env, i, lc), name=f"bench-client-{i}")
        env.run()
        cell["work"] = cell["counters"].delta()

    def verify(self) -> None:
        from repro.verify.locks import LockOracle
        from repro.verify.trace import TraceView, replay_fresh
        self.trace_events = 0
        for design in DESIGNS:
            obs = self.cells[design]["obs"]
            view = TraceView.from_obs(obs).require_complete()
            self.trace_events += len(view)
            _o, bad = replay_fresh(view, [LockOracle])
            bad = bad + obs.violations()
            require(not bad, f"{design}: {len(bad)} violation(s); "
                             f"first: {bad[0] if bad else None}")

    def check(self) -> None:
        first = sorted(self.cells[DESIGNS[0]]["offered"])
        for design in DESIGNS:
            cell = self.cells[design]
            require(len(cell["log"].lat) == CLIENTS * ROUNDS,
                    f"{design}: {len(cell['log'].lat)} of "
                    f"{CLIENTS * ROUNDS} rounds granted")
            require(sorted(cell["offered"]) == first,
                    f"{design} was offered another schedule")
            bad = hold_overlaps(cell["holds"])
            require(not bad, f"{design}: overlapping holds: {bad[:3]}")

    def figures(self) -> dict:
        cells = [self.cells[d] for d in DESIGNS]
        lat = [x for c in cells for x in c["log"].lat]
        figs = sim_figures(lat, sum(c["log"].makespan_us for c in cells),
                           sum_deltas([c["work"] for c in cells]))
        for design, cell in zip(DESIGNS, cells):
            log = cell["log"]
            grants = len(log.lat)
            figs[f"dlm.{design}.sim_ops_per_s"] = (
                grants / (log.makespan_us / 1e6))
            figs[f"dlm.{design}.wait_p99_us"] = pctl(log.lat, 99)
            figs[f"dlm.{design}.verbs_per_grant"] = (
                cell["work"]["verbs"] / grants)
        figs["verify.trace_events"] = self.trace_events
        return figs
