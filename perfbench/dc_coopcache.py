"""dc-coopcache: the Fig. 6 data-center serving Zipf sessions with HYBCC.

A client node, ``PROXIES`` proxy servers and ``APPS`` app servers.  The
proxies share a HYBCC cooperative cache over a seeded file set of
``N_DOCS`` documents of about 32 KB.  ``SESSIONS`` closed-loop sessions
on the client node each send a fixed list of Zipf-drawn requests, round
robin over the proxies, waiting for each full response before the next.
Set-up warms the caches with one such pass; the measured pass follows.
An operation is one HTTP request, from send to the full response.
Observability is off.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from common import Counters, OpLog, quota, require, sim_figures

PROXIES, APPS, SESSIONS = 8, 2, 96
N_DOCS, ALPHA = 4_000, 0.8
DOC_BYTES, DOC_SPREAD = 32 * 1024, 8 * 1024
CACHE_BYTES = 8 * 1024 * 1024
WARM_REQUESTS, REQUESTS = 48, 96
REQ_BYTES = 200


class Workload:
    name = "dc-coopcache"

    def __init__(self, seed: int, spans=None):
        from repro.workloads.zipf import zipf_pmf
        self.seed = seed
        self.spans = spans
        rng = np.random.default_rng([seed, 4])
        self.sizes = (DOC_BYTES + rng.integers(-DOC_SPREAD, DOC_SPREAD + 1,
                                               N_DOCS)).tolist()
        # stratified draw: every seed requests each document its rounded
        # Zipf share of each pass; the seed decides the order
        pmf = zipf_pmf(N_DOCS, ALPHA)
        self.warm = rng.permutation(quota(pmf, SESSIONS * WARM_REQUESTS)
                                    ).reshape(SESSIONS, WARM_REQUESTS).tolist()
        self.docs = rng.permutation(quota(pmf, SESSIONS * REQUESTS)
                                    ).reshape(SESSIONS, REQUESTS).tolist()
        self.ops_offered = SESSIONS * REQUESTS

    def setup(self) -> None:
        from repro.cache.schemes import SCHEMES
        from repro.datacenter.backend import BackendTier
        from repro.datacenter.metrics import DataCenterMetrics
        from repro.datacenter.server import ProxyServer
        from repro.net import Cluster
        from repro.workloads.filesets import FileSet

        names = (["client"] + [f"proxy{i}" for i in range(PROXIES)]
                 + [f"app{i}" for i in range(APPS)])
        cluster = Cluster(names=names, cores_per_node=2, seed=self.seed)
        self.cluster = cluster
        self.env = cluster.env
        self.client = cluster.nodes[0]
        proxies = cluster.nodes[1:1 + PROXIES]
        apps = cluster.nodes[1 + PROXIES:]
        self.fileset = FileSet(N_DOCS, self.sizes, seed=self.seed)
        self.scheme = SCHEMES["HYBCC"](proxies, self.fileset, CACHE_BYTES,
                                       extra_nodes=apps)
        backend = BackendTier(apps, self.fileset)
        metrics = DataCenterMetrics(self.env)
        self.servers = [ProxyServer(node, self.scheme, backend, metrics)
                        for node in proxies]
        self._load(self.warm, None)
        for server in self.servers:
            server.queue_peak = 0  # the peak of the measured pass only
        self.hits0 = self._hits()
        self.counters = Counters(cluster.nodes, cluster.fabric)

    def _hits(self):
        s = self.scheme
        return (s.local_hits, s.remote_hits, s.misses)

    def _load(self, docs, log, on_response=None) -> None:
        """Run one pass: every session sends its requests in turn."""
        env, client = self.env, self.client
        transfer = self.cluster.fabric.transfer

        def session(i):
            yield env.timeout(i * 3.0)  # de-synchronised starts
            for r, doc in enumerate(docs[i]):
                proxy = self.servers[(i + r) % PROXIES]
                t0 = env.now if log is None else log.start()
                yield transfer(client.id, proxy.node.id, REQ_BYTES)
                yield proxy.handle(doc, client.id)
                if log is not None:
                    log.done(t0, "ProxyServer.handle")
                if on_response is not None:
                    on_response(proxy.node.id, doc)

        procs = [env.process(session(i), name=f"bench-session-{i}")
                 for i in range(SESSIONS)]
        env.run_until_event(env.all_of(procs))

    def simulate(self) -> None:
        self.log = OpLog(self.env, self.spans, self.parent)
        on_response = self._watch_responses() if self.check_deep else None
        self._load(self.docs, self.log, on_response)
        self.work = self.counters.delta()

    def _watch_responses(self):
        """Match every response to its request by proxy, instant and
        size: the bytes the proxy sent the client must be the size of
        the requested document in the benchmark's file set."""
        fabric, env, client_id = self.cluster.fabric, self.env, self.client.id
        arrived = defaultdict(list)  # (proxy, instant) -> sizes
        inner = fabric.transfer

        def transfer(src, dst, nbytes):
            ev = inner(src, dst, nbytes)
            if dst == client_id:
                ev.add_callback(
                    lambda _e: arrived[(src, env.now)].append(nbytes))
            return ev

        fabric.transfer = transfer

        def on_response(proxy_id, doc):
            sizes = arrived[(proxy_id, env.now)]
            want = self.sizes[doc]
            require(want in sizes, f"doc {doc}: proxy {proxy_id} sent "
                                   f"{sizes}, not {want} bytes")
            sizes.remove(want)

        return on_response

    def verify(self) -> None:
        self.trace_events = 0  # observability is off here

    def check(self) -> None:
        require(len(self.log.lat) == self.ops_offered,
                f"{len(self.log.lat)} of {self.ops_offered} requests "
                f"completed")
        local, remote, miss = (a - b for a, b in
                               zip(self._hits(), self.hits0))
        require(local + remote + miss == self.ops_offered,
                f"hits {local}+{remote}+{miss} != {self.ops_offered}")

    def figures(self) -> dict:
        figs = sim_figures(self.log.lat, self.log.makespan_us, self.work)
        local, remote, _miss = (a - b for a, b in
                                zip(self._hits(), self.hits0))
        figs.update({
            "cache.hit_ratio": (local + remote) / self.ops_offered,
            "cache.remote_hit_ratio": remote / self.ops_offered,
            "datacenter.queue_peak": max(s.queue_peak for s in self.servers),
            "verify.trace_events": 0,
        })
        return figs
