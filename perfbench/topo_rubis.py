"""topo-rubis: the 104-node rack topology under a RUBiS session load.

Four racks of 26 hosts behind 4:1 oversubscribed ToR uplinks and two
spines run sharded N-CoSED locks, a sharded DDSS, the phi detector
behind its quorum gate and the ``ReconfigManager``.  The ring home of
the hottest lock crashes mid-load and restarts later.

Every other node's driver runs ``BATCHES`` RUBiS session batches on its
processor-sharing CPU; after each batch it does one lock round on a
seeded lock, then ``PAIRS`` put/get pairs on seeded units.  An operation
is one lock acquire (call to grant), one put or one get.  The run ends
when every driver has finished: the detector never idles, so the loop
is bounded by the drivers, not by a horizon.
"""

from __future__ import annotations

import numpy as np

from common import OpLog, Counters, hold_overlaps, require, sim_figures

RACKS, HOSTS_PER_RACK, SPINES, OVERSUB = 4, 26, 2, 4.0
N_NODES = RACKS * HOSTS_PER_RACK
BATCHES = 8
SESSIONS_PER_BATCH = 500
THREADS = 64
N_LOCKS, N_UNITS, UNIT_BYTES = 256, 32, 64
#: Zipf skew of the lock picks (lock 0 is the hottest item)
LOCK_ALPHA = 0.7
#: put/get pairs after each batch's lock round
PAIRS = 2
HOLD_US = 5.0
#: simulated time the load may take before the run counts as hung
LIMIT_US = 1_000_000.0
PERIOD_US, TIMEOUT_US, QUORUM_HOLD_US = 500.0, 120.0, 500.0
#: crash and restart, in µs after the initial state is loaded
CRASH_AFTER_US, RESTART_AFTER_US = 3_000.0, 8_000.0


def tagged(k: int) -> bytes:
    """The 8-byte value number ``k`` writes.  It ends in a nonzero byte,
    so stripping a unit's zero padding never leaves it empty, and a get
    of wiped or never-written memory matches no written value."""
    return k.to_bytes(7, "big") + b"\x01"


class Workload:
    name = "topo-rubis"

    def __init__(self, seed: int, spans=None):
        from repro.workloads.rubis import RubisMix
        from repro.workloads.zipf import ZipfGenerator
        self.seed = seed
        self.spans = spans
        rng = np.random.default_rng([seed, 1])
        self.delays = rng.uniform(0.0, 500.0, N_NODES).tolist()
        self.locks = ZipfGenerator(N_LOCKS, LOCK_ALPHA, rng).batch(
            N_NODES * BATCHES).reshape(N_NODES, BATCHES).tolist()
        self.units = rng.integers(0, N_UNITS,
                                  (N_NODES, BATCHES, PAIRS)).tolist()
        mean_cpu = RubisMix(np.random.default_rng(seed)).mean_cpu_us()
        self.batch_us = SESSIONS_PER_BATCH * mean_cpu / THREADS
        #: the victim serves no sessions: a crashed web server takes none
        self.drivers = N_NODES - 1
        self.ops_offered = self.drivers * BATCHES * (1 + 2 * PAIRS)

    # -- set-up ---------------------------------------------------------
    def setup(self) -> None:
        from repro.ddss import Coherence
        from repro.faults import FaultPlan
        from repro.monitor import PhiAccrualDetector, QuorumGate
        from repro.reconfig import ReconfigManager, Service
        from repro.shard import ShardedDDSS, ShardedNCoSEDManager
        from repro.topo import TopoCluster

        cluster = TopoCluster(racks=RACKS, hosts_per_rack=HOSTS_PER_RACK,
                              spines=SPINES, oversub=OVERSUB,
                              seed=self.seed)
        self.cluster = cluster
        self.env = env = cluster.env
        self.obs = cluster.observe(sanitize=True, strict=False,
                                   ring=1 << 21)
        front, backs = cluster.nodes[0], cluster.nodes[1:]
        self.phi = PhiAccrualDetector(front, backs, period_us=PERIOD_US,
                                      timeout_us=TIMEOUT_US)
        detector = QuorumGate(self.phi, hold_us=QUORUM_HOLD_US)
        self.manager = ShardedNCoSEDManager(cluster, n_locks=N_LOCKS,
                                            lease_us=800.0,
                                            detector=detector)
        # the victim is the ring home of the hottest lock (off node 0,
        # the detector front and reconfig coordinator), so every seed
        # has acquires waiting out the failover
        self.victim = next(home for home in (
            self.manager.home_node(lock).id for lock in range(N_LOCKS))
            if home != front.id)
        # the DDSS ring leaves the victim out: its control plane has no
        # crash recovery, so an op whose unit's directory lives on a
        # crashed node hangs for good (see README)
        self.ddss = ShardedDDSS(
            cluster, member_nodes=[n for n in cluster.nodes
                                   if n.id != self.victim],
            segment_bytes=256 * 1024)
        self.reconfig = ReconfigManager(
            front, [Service("rubis", cluster.nodes)], detector=detector,
            ddss=self.ddss)
        self.keys = []
        #: unit index -> every value written to it (initial + puts)
        self.written = [set() for _ in range(N_UNITS)]

        def load(env):
            client = self.ddss.client(front)
            for i in range(N_UNITS):
                key = yield client.allocate(UNIT_BYTES,
                                            coherence=Coherence.WRITE)
                value = tagged(N_NODES + i)
                yield client.put(key, value)
                self.written[i].add(value)
                self.keys.append(key)

        env.run_until_event(env.process(load(env), name="bench-load"))
        crash_at = env.now + CRASH_AFTER_US
        restart_at = env.now + RESTART_AFTER_US
        cluster.install_faults(FaultPlan().crash(
            self.victim, at=crash_at, restart_at=restart_at))
        # the HA oracle judges the failover against this expectation
        bound = self.phi.detect_bound_us() + QUORUM_HOLD_US + 2 * PERIOD_US
        self.obs.trace.emit("ha.expect", node=-1, kind="failover",
                            victims=[self.victim], after=crash_at,
                            by=crash_at + bound, start=crash_at,
                            until=restart_at)
        self.counters = Counters(cluster.nodes, cluster.fabric, self.obs)
        self.probes0 = self.phi.probes

    # -- load -----------------------------------------------------------
    def simulate(self) -> None:
        env = self.env
        self.log = log = OpLog(env, self.spans, self.parent)
        self.holds, self.gets = [], []
        self.batches_done = 0

        def driver(node, idx):
            store = self.ddss.client(node)
            locks = self.manager.client(node)
            value = tagged(idx)
            yield env.timeout(self.delays[idx])
            for b in range(BATCHES):
                yield node.cpu.run(self.batch_us, name="rubis-batch")
                self.batches_done += 1
                lock_id = self.locks[idx][b]
                t0 = log.start()
                yield locks.acquire(lock_id)
                granted = env.now
                log.done(t0, "ShardedNCoSEDManager.client.acquire")
                yield env.timeout(HOLD_US)
                self.holds.append((lock_id, granted, env.now, True, idx))
                yield locks.release(lock_id)
                for u in self.units[idx][b]:
                    key = self.keys[u]
                    t0 = log.start()
                    self.written[u].add(value)
                    yield store.put(key, value)
                    log.done(t0, "ShardedDDSS.client.put")
                    t0 = log.start()
                    data = yield store.get(key)
                    log.done(t0, "ShardedDDSS.client.get")
                    self.gets.append((u, bytes(data).rstrip(b"\0")))

        procs = [env.process(driver(node, idx), name=f"bench-driver-{idx}")
                 for idx, node in enumerate(self.cluster.nodes)
                 if idx != self.victim]
        # a driver that never finishes is a hang: fail, do not spin on
        # the detector's probes forever
        env.run_until_event(env.all_of(procs), limit=env.now + LIMIT_US)
        self.work = self.counters.delta()

    def verify(self) -> None:
        from repro.verify.ddss import DDSSOracle
        from repro.verify.ha import HAOracle
        from repro.verify.locks import LockOracle
        from repro.verify.trace import TraceView, replay_fresh
        view = TraceView.from_obs(self.obs).require_complete()
        self.trace_events = len(view)
        _o, bad = replay_fresh(view, [LockOracle, DDSSOracle, HAOracle])
        bad = bad + self.obs.violations()
        require(not bad, f"{len(bad)} oracle/sanitizer violation(s); "
                         f"first: {bad[0] if bad else None}")

    # -- the benchmark's own checks ------------------------------------
    def check(self) -> None:
        require(self.batches_done == self.drivers * BATCHES,
                f"{self.batches_done} of {self.drivers * BATCHES} "
                f"batches ran")
        require(len(self.log.lat) == self.ops_offered,
                f"{len(self.log.lat)} of {self.ops_offered} ops completed")
        bad = hold_overlaps(self.holds)
        require(not bad, f"overlapping exclusive holds: {bad[:3]}")
        for u, data in self.gets:
            require(data in self.written[u],
                    f"unit {u}: get returned {data!r}, never written")
        require(len(self.reconfig.evictions) >= 1,
                "the crashed shard home was never evicted")

    def figures(self) -> dict:
        figs = sim_figures(self.log.lat, self.log.makespan_us, self.work)
        figs.update({
            "shard.lock_rehomes": len(self.manager.rehomes),
            "shard.ring_rebalances": (len(self.ddss.dir_map.rebalances)
                                      + len(self.manager.shard_map
                                            .rebalances)),
            "monitor.probes": self.phi.probes - self.probes0,
            "verify.trace_events": self.trace_events,
        })
        return figs
