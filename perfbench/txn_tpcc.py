"""txn-tpcc: OCC and 2PL transactions over a small hot DDSS key pool.

An 8-node flat cluster; ``WORKERS`` workers alternate between the
optimistic client (even) and the N-CoSED-locked two-phase client (odd).
Each runs ``TXNS`` TPC-C-like transactions back to back: a transfer
between two accounts, or a new-order that bumps a district counter and
takes one unit of stock from one to three items.  A transaction the
program aborts is resubmitted until it commits.  An operation is one
transaction, from its first submission to its commit.  No faults.
"""

from __future__ import annotations

import numpy as np

from common import Counters, OpLog, pctl, quota, require, sim_figures

N_NODES, WORKERS, TXNS = 8, 32, 100
N_ACCOUNTS, N_DISTRICTS, N_STOCK = 16, 4, 16
UNIT_BYTES = 32
ACCOUNT_START, STOCK_START = 100, 10_000
P_TRANSFER, MAX_ITEMS, MAX_AMOUNT = 0.5, 3, 20


class Workload:
    name = "txn-tpcc"

    def __init__(self, seed: int, spans=None):
        self.seed = seed
        self.spans = spans
        rng = np.random.default_rng([seed, 3])
        n = WORKERS * TXNS
        # every seed offers the same number of each transaction shape
        kinds = rng.permutation(quota([P_TRANSFER, 1.0 - P_TRANSFER], n))
        plan = []
        for kind in kinds:
            if kind == 0:
                src, dst = rng.choice(N_ACCOUNTS, size=2, replace=False)
                plan.append(("transfer", int(src), int(dst),
                             int(rng.integers(1, MAX_AMOUNT + 1))))
            else:
                items = rng.choice(N_STOCK, replace=False,
                                   size=int(rng.integers(1, MAX_ITEMS + 1)))
                plan.append(("new-order", int(rng.integers(0, N_DISTRICTS)),
                             tuple(int(i) for i in items)))
        self.plan = [plan[w * TXNS:(w + 1) * TXNS] for w in range(WORKERS)]
        self.ops_offered = n

    def setup(self) -> None:
        from repro.ddss import DDSS, Coherence
        from repro.dlm import NCoSEDManager
        from repro.net import Cluster
        from repro.txn import OCCTxnClient, TwoPLTxnClient
        from repro.workloads.tpcc import new_order_txn, transfer_txn

        cluster = Cluster(n_nodes=N_NODES, seed=self.seed)
        self.cluster = cluster
        self.env = env = cluster.env
        self.obs = cluster.observe(sanitize=True, strict=False, ring=1 << 22)
        self.ddss = DDSS(cluster, segment_bytes=256 * 1024)
        self.accounts, self.districts, self.stock = [], [], []
        pools = ([(self.accounts, ACCOUNT_START)] * N_ACCOUNTS
                 + [(self.districts, 0)] * N_DISTRICTS
                 + [(self.stock, STOCK_START)] * N_STOCK)

        def load(env):
            client = self.ddss.client(cluster.nodes[0])
            init = OCCTxnClient(client)
            for i, (pool, start) in enumerate(pools):
                key = yield client.allocate(
                    UNIT_BYTES, coherence=Coherence.VERSION,
                    placement=cluster.nodes[i % N_NODES].id)
                pool.append(key)
                result = yield init.init(key, start.to_bytes(8, "big")
                                         + b"\0" * (UNIT_BYTES - 8))
                require(result.committed, "an initial txn did not commit")

        env.run_until_event(env.process(load(env), name="bench-load"))
        units = self.accounts + self.districts + self.stock
        lock_of = {k: i for i, k in enumerate(units)}
        manager = NCoSEDManager(cluster, n_locks=len(units))
        self.clients, self.txns = [], []
        for w in range(WORKERS):
            node = cluster.nodes[w % N_NODES]
            store = self.ddss.client(node)
            if w % 2:
                self.clients.append(TwoPLTxnClient(
                    store, manager.client(node), lock_of=lock_of))
            else:
                self.clients.append(OCCTxnClient(store))
            txns = []
            for step in self.plan[w]:
                if step[0] == "transfer":
                    txns.append(transfer_txn(self.accounts[step[1]],
                                             self.accounts[step[2]], step[3]))
                else:
                    txns.append(new_order_txn(
                        self.districts[step[1]],
                        [self.stock[i] for i in step[2]]))
            self.txns.append(txns)
        self.counters = Counters(cluster.nodes, cluster.fabric, self.obs)

    def simulate(self) -> None:
        env = self.env
        self.log = log = OpLog(env, self.spans, self.parent)
        self.lat = {"occ": [], "2pl": []}
        self.attempts = self.resubmits = self.committed = 0
        self.orders = [0] * N_DISTRICTS
        self.taken = [0] * N_STOCK

        def worker(w):
            client = self.clients[w]
            variant = "2pl" if w % 2 else "occ"
            call = f"{type(client).__name__}.run"
            for txn, step in zip(self.txns[w], self.plan[w]):
                t0 = log.start()
                while True:
                    result = yield client.run(txn)
                    self.attempts += result.attempts
                    require(not result.wedged,
                            f"txn {result.tid} wedged: {result.reason}")
                    if result.committed:
                        break
                    self.resubmits += 1
                self.lat[variant].append(log.done(t0, call))
                self.committed += 1
                if step[0] == "new-order":
                    self.orders[step[1]] += 1
                    for i in step[2]:
                        self.taken[i] += 1

        procs = [env.process(worker(w), name=f"bench-worker-{w}")
                 for w in range(WORKERS)]
        env.run_until_event(env.all_of(procs))
        self.work = self.counters.delta()

    def verify(self) -> None:
        from repro.verify.locks import LockOracle
        from repro.verify.trace import TraceView, replay_fresh
        from repro.verify.txn import TxnOracle
        view = TraceView.from_obs(self.obs).require_complete()
        self.trace_events = len(view)
        _o, bad = replay_fresh(view, [TxnOracle, LockOracle])
        bad = bad + self.obs.violations()
        require(not bad, f"{len(bad)} oracle/sanitizer violation(s); "
                         f"first: {bad[0] if bad else None}")

    def check(self) -> None:
        from repro.txn.scenarios import unit_state
        from repro.workloads.tpcc import balance

        def value(key):
            return balance(unit_state(self.ddss, key)[1])

        require(self.committed == self.ops_offered,
                f"{self.committed} of {self.ops_offered} txns committed")
        total = sum(value(k) for k in self.accounts)
        require(total == ACCOUNT_START * N_ACCOUNTS,
                f"account sum {total} != {ACCOUNT_START * N_ACCOUNTS}")
        orders = [value(k) for k in self.districts]
        require(orders == self.orders,
                f"district counters {orders} != new-orders {self.orders}")
        stock = [value(k) for k in self.stock]
        want = [STOCK_START - t for t in self.taken]
        require(stock == want, f"stock {stock} != {want}")

    def figures(self) -> dict:
        figs = sim_figures(self.log.lat, self.log.makespan_us, self.work)
        figs.update({
            "txn.attempts_per_commit": self.attempts / self.committed,
            "txn.occ.p99_us": pctl(self.lat["occ"], 99),
            "txn.2pl.p99_us": pctl(self.lat["2pl"], 99),
            "txn.resubmits": self.resubmits,
            "verify.trace_events": self.trace_events,
        })
        return figs
