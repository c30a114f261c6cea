"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload topo-rubis --seed 0 --seconds 10 --trace 0

The workload's inputs are drawn from ``--seed``.  One untimed warm-up
repetition runs and is checked first; timed repetitions follow while
the next one is expected to end within ``--seconds``.  Each repetition
builds the simulated system (``setup_s``), runs its whole load to
completion and replays the program's oracles (``wall_s``), then the
benchmark checks the outputs outside the timed region.  Host times
are medians over the timed repetitions; the modelled ``sim_*`` figures
must repeat exactly in every repetition, or the run fails.

``--trace 1`` prints the per-layer metrics instead: counters from
untimed repetitions, then ``cProfile`` self time folded by ``repro``
module over profiled repetitions, and writes the benchmark's spans to
``perfbench/out/``.

The last line of standard output is ``{"correct", "attempted",
"failed", "metrics"}``.  Any failed check exits non-zero without it.
"""

from __future__ import annotations

import os

# one thread for the BLAS / OpenMP pools: importing numpy would
# otherwise start a second busy thread beside the simulator
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from common import Spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = {
    "topo-rubis": "topo_rubis",
    "lock-zipf": "lock_zipf",
    "txn-tpcc": "txn_tpcc",
    "dc-coopcache": "dc_coopcache",
}

#: cProfile self time is folded by ``repro`` module into these metrics;
#: a prefix ending in "." takes the whole package
HOST_FOLD = (
    ("host.sim.core_s", "sim.core"),
    ("host.sim.cpu_s", "sim.cpu"),
    ("host.sim.resources_s", "sim.resources"),
    ("host.net.nic_s", "net.nic"),
    ("host.net.fabric_s", "net.fabric"),
    ("host.net.memory_s", "net.memory"),
    ("host.topo.fabric_s", "topo.fabric"),
    ("host.faults.injector_s", "faults.injector"),
    ("host.shard_s", "shard."),
    ("host.monitor_s", "monitor."),
    ("host.reconfig_s", "reconfig."),
    ("host.dlm_s", "dlm."),
    ("host.ddss_s", "ddss."),
    ("host.txn_s", "txn."),
    ("host.cache_s", "cache."),
    ("host.datacenter_s", "datacenter."),
    ("host.obs_s", "obs."),
    ("host.verify_s", "verify."),
)



def metric_units(section: str) -> dict:
    """``name -> unit`` of one metric list of ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def load_workload(name: str, seed: int, spans=None):
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"error: the program's sources are missing "
                         f"({os.path.relpath(SRC)}/repro); run from the "
                         f"repository root")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    module = importlib.import_module(WORKLOADS[name])
    w = module.Workload(seed, spans=spans)
    w.check_deep = False
    w.parent = None
    w.inputs = set(vars(w)) | {"inputs"}
    return w


def release(w) -> None:
    """Drop the previous repetition's system and collect it, so that no
    timed region pays for tearing it down."""
    for name in set(vars(w)) - w.inputs:
        delattr(w, name)
    gc.collect()


def repetition(w, spans=None, label="rep"):
    """One repetition: returns its host times and modelled figures."""
    release(w)
    parent = None
    if spans is not None:
        parent = spans.open(None, "host", label, "repetition",
                            time.perf_counter())
    w.parent = parent
    t0 = time.perf_counter()
    w.setup()
    t1 = time.perf_counter()
    c1 = time.process_time()
    w.simulate()
    t2 = time.perf_counter()
    w.verify()
    t3 = time.perf_counter()
    c3 = time.process_time()
    w.check()
    if spans is not None:
        spans.add(parent, "host", "setup", f"{w.name}.setup", t0, t1)
        spans.add(parent, "host", "simulate", f"{w.name}.simulate", t1, t2)
        spans.add(parent, "host", "verify", f"{w.name}.verify", t2, t3)
        spans.close(parent, t3)
    host = {
        "setup_s": t1 - t0,
        "wall_s": t3 - t1,
        "phase.simulate_s": t2 - t1,
        "phase.verify_s": t3 - t2,
        "proc.cpu_s": c3 - c1,
    }
    host.update(getattr(w, "host_extra", {}))
    return host, w.figures()


def module_of(filename: str):
    """``.../repro/sim/core.py`` -> ``sim.core``; None outside repro."""
    parts = filename.replace("\\", "/").split("/")
    if "repro" not in parts or not filename.endswith(".py"):
        return None
    tail = parts[len(parts) - 1 - parts[::-1].index("repro") + 1:]
    return ".".join(tail)[:-3]


def fold_profile(prof, reps: int) -> dict:
    """Self seconds per repetition by layer, plus injector hook calls."""
    out = {name: 0.0 for name, _ in HOST_FOLD}
    out["host.builtins_s"] = 0.0
    out["host.other_s"] = 0.0
    hook_calls = 0
    for (filename, _line, _func), row in pstats.Stats(prof).stats.items():
        calls, tottime = row[1], row[2]
        if filename == "~":
            out["host.builtins_s"] += tottime
            continue
        mod = module_of(filename)
        if mod == "faults.injector":
            hook_calls += calls
        for name, prefix in HOST_FOLD:
            if mod is not None and (mod == prefix or (
                    prefix.endswith(".") and mod.startswith(prefix))):
                out[name] += tottime
                break
        else:
            out["host.other_s"] += tottime
    out = {k: v / reps for k, v in out.items()}
    out["faults.hook_calls"] = hook_calls / reps
    return out


def median_of(rows, key):
    return statistics.median(r[key] for r in rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spans = Spans() if args.trace else None
    w = load_workload(args.workload, args.seed, spans=spans)

    # warm-up: untimed, fully checked, the reference for every repetition
    w.check_deep = True
    _host, ref = repetition(w, spans, "warm-up")
    w.check_deep = False
    w.spans = None  # operation spans come from the warm-up alone

    def timed(seconds, profiler=None):
        """Host rows of repetitions run while the next one is expected
        to end within ``seconds``."""
        rows = []
        t_end = time.perf_counter() + seconds
        while not rows or (time.perf_counter()
                           + median_of(rows, "rep_s") < t_end):
            t0 = time.perf_counter()
            if profiler is not None:
                profiler.enable()
            host, figs = repetition(w, spans, f"rep-{len(rows)}")
            if profiler is not None:
                profiler.disable()
            if figs != ref:
                diff = sorted(k for k in ref if figs.get(k) != ref[k])
                raise SystemExit(f"error: modelled figures changed between "
                                 f"repetitions: {diff}")
            host["rep_s"] = time.perf_counter() - t0
            rows.append(host)
        return rows

    if not args.trace:
        rows = timed(args.seconds)
        metrics = {"setup_s": median_of(rows, "setup_s"),
                   "wall_s": median_of(rows, "wall_s")}
        metrics["peak_rss_mb"] = (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        for name in ("sim_ops_per_s", "sim_op_p50_us", "sim_op_p99_us",
                     "sim_cpu_us_per_op"):
            metrics[name] = ref[name]
        units = metric_units("end_to_end")
    else:
        rows = timed(args.seconds / 2)
        prof = cProfile.Profile()
        prows = timed(args.seconds / 2, prof)
        metrics = per_layer(w, ref, rows, prows, prof)
        units = metric_units("per_layer")
        write_spans(spans, args)

    reps = 1 + len(rows) + (len(prows) if args.trace else 0)
    attempted = reps * w.ops_offered
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(f"# {args.workload} seed={args.seed}: {reps} repetitions "
          f"({len(rows)} timed) of {w.ops_offered} operations")
    print(json.dumps(result))
    return 0


def per_layer(w, ref, rows, prows, prof) -> dict:
    """Every per-layer metric: counters and modelled ratios from the
    reference figures, host medians from the untraced repetitions, and
    the ``cProfile`` fold from the profiled ones."""
    folded = fold_profile(prof, len(prows))
    out = dict.fromkeys(metric_units("per_layer"), 0.0)
    out.update((k, v) for k, v in folded.items() if k in out)
    out["faults.hook_calls_per_op"] = folded["faults.hook_calls"] / ref["ops"]
    plain = median_of(rows, "setup_s") + median_of(rows, "wall_s")
    traced = median_of(prows, "setup_s") + median_of(prows, "wall_s")
    out["host.profile_overhead_x"] = traced / plain
    for name in ("phase.simulate_s", "phase.verify_s", "proc.cpu_s"):
        out[name] = median_of(rows, name)
    events = ref["verify.trace_events"]
    if events:
        out["verify.host_us_per_event"] = out["phase.verify_s"] / events * 1e6
    out.update((k, v) for k, v in ref.items() if k in out)
    for name in getattr(w, "layer_host_metrics", ()):
        out[name] = median_of(rows, name)
    return out


def write_spans(spans, args) -> None:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"columns": ["id", "parent", "clock", "name", "call",
                               "start", "end"],
                   "clocks": {"sim": "simulated us", "host": "host s"},
                   "spans": spans.rows}, fh)
    print(f"# spans: {len(spans.rows)} -> {os.path.relpath(path)}")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as exc:  # report the failure, print no result
        import traceback
        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(1)
