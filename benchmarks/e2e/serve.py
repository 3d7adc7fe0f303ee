"""The two serving workloads: ``serve_hot`` and ``serve_cold_rw``.

Open-loop Poisson reads against a :class:`ReplicaGroup` at three frozen
rates (below, at and above the reference load), latency from the due
instant.  ``serve_hot`` repeats a small hot pool so the router's affinity
and the result cache answer most requests; ``serve_cold_rw`` draws uniform
keys and streams writes through the update log, so every read is a kernel
run on a snapshot and the cache is bypassed.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from batch import SETUP_REPEATS
from harness import (
    DATASET_SEED, Outcome, Tracer, base_manifest, child_rng, edge_digest,
    fold_ranks, median, peak_rss_mb, pctl, runtime_metrics, self_times,
    shuffled, tail_percentile,
)
from loadgen import PeriodicWriter, Request, poisson_schedule, run_phase
from repro.generators import webcrawl_edges
from repro.serve import ReplicaGroup, ShedError
from repro.service import AnalyticsEngine

# Frozen sizes, rates and limits (see README "Sizing" and "Calibration").
SERVE_N = 8_000
SERVE_DEGREE = 8
PPR_PARAMS = {"max_iters": 10, "tol": None}  # fixed work per seed vertex
# Share of --seconds: every bounded latency is read at R_ref, so it gets the
# most; R_low only feeds the traced run's max-rate search.
PHASES = (("low", 0.06), ("ref", 0.74), ("top", 0.20))
WRITE_PERIOD_S = 0.5
WRITE_EDGES = 200
CHECK_SAMPLE = 12
# Slow reads come in runs (behind one write stall, one cold miss burst, one
# noisy-neighbour second), so ten of them are far fewer than ten independent
# samples: the serving tail is quoted with thirty beyond it.
TAIL_BEYOND = 30


@dataclass(frozen=True)
class ServeSpec:
    name: str
    nranks: int
    replicas: int
    snapshot_reads: bool
    mix: tuple[tuple[str, float], ...]
    hot_pool: int  # 0: uniform keys only
    hot_frac: float
    rates: dict[str, float]  # requests/s per phase, absolute constants
    slo_ms: float
    writes: bool


HOT = ServeSpec(
    name="serve_hot", nranks=1, replicas=2, snapshot_reads=False,
    mix=(("bfs", 0.55), ("ppr", 0.25), ("pagerank", 0.20)),
    hot_pool=16, hot_frac=0.9,
    rates={"low": 75.0, "ref": 150.0, "top": 1200.0}, slo_ms=200.0,
    writes=False)
COLD_RW = ServeSpec(
    name="serve_cold_rw", nranks=2, replicas=1, snapshot_reads=True,
    mix=(("bfs", 0.6), ("ppr", 0.3), ("wcc", 0.1)),
    hot_pool=0, hot_frac=0.0,
    rates={"low": 12.0, "ref": 25.0, "top": 160.0}, slo_ms=500.0,
    writes=True)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------
def _drawer(spec: ServeSpec, hot: np.ndarray):
    kinds = [k for k, _ in spec.mix]
    weights = np.array([w for _, w in spec.mix])
    weights = weights / weights.sum()

    def vertex(rng):
        if len(hot) and rng.random() < spec.hot_frac:
            return int(hot[rng.integers(0, len(hot))])
        return int(rng.integers(0, SERVE_N))

    def draw(rng):
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        if kind == "bfs":
            return kind, {"source": vertex(rng)}
        if kind == "ppr":
            return kind, {"seed": vertex(rng), **PPR_PARAMS}
        return kind, {}

    return draw


def _make_inputs(spec: ServeSpec, seed: int, seconds: float):
    edges = shuffled(webcrawl_edges(SERVE_N, avg_degree=SERVE_DEGREE,
                                    seed=DATASET_SEED), seed)
    rng = child_rng(seed, f"{spec.name}.keys")
    linked = np.flatnonzero(np.bincount(edges[:, 0], minlength=SERVE_N))
    hot = rng.choice(linked, size=spec.hot_pool, replace=False)
    draw = _drawer(spec, hot)
    schedules, first = {}, 0
    for phase, share in PHASES:
        schedules[phase] = poisson_schedule(
            child_rng(seed, f"{spec.name}.{phase}"), spec.rates[phase],
            seconds * share, draw, first_idx=first)
        first += len(schedules[phase])
    writes = []
    if spec.writes:
        wrng = child_rng(seed, f"{spec.name}.writes")
        writes = [wrng.integers(0, SERVE_N, size=(WRITE_EDGES, 2))
                  for _ in range(int(seconds / WRITE_PERIOD_S))]
    return edges, hot, schedules, writes


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------
def _set_up(spec: ServeSpec, edges, hot):
    """A serving group that has hydrated, answered one query on every
    replica (``build_s``) and warmed what the workload keeps hot."""
    t0 = time.perf_counter()
    group = ReplicaGroup(spec.nranks, replicas=spec.replicas, max_inflight=8,
                         snapshot_reads=spec.snapshot_reads, edges=edges,
                         n=SERVE_N)
    for rep in group.replicas:
        rep.engine.query("bfs", source=0)
    build_s = time.perf_counter() - t0
    kinds = [k for k, _ in spec.mix]
    for v in hot:
        group.query("bfs", source=int(v))
        group.query("ppr", seed=int(v), **PPR_PARAMS)
    for kind in kinds:
        if kind not in ("bfs", "ppr"):
            for rep in group.replicas:
                rep.engine.query(kind)
    if not len(hot):  # first snapshot read promotes to a dynamic graph
        group.query("bfs", source=1)
        group.query("ppr", seed=1, **PPR_PARAMS)
    return group, build_s, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------
def _same(kind: str, got, ref) -> bool:
    if kind == "bfs":
        return bool(np.array_equal(got["levels"], ref["levels"]))
    if kind == "wcc":
        return bool(np.array_equal(got["labels"], ref["labels"]))
    return bool(np.allclose(got["scores"], ref["scores"], rtol=0, atol=1e-12))


def _check_sample(out: Outcome, spec: ServeSpec, edges, writes, sample):
    """Sampled responses against a direct single-engine answer, replaying
    the write batches up to the epoch each response was pinned to."""
    with AnalyticsEngine(spec.nranks, edges=edges, n=SERVE_N) as ref:
        applied = 0
        for done in sorted(sample, key=lambda d: d.ticket.at_epoch or 0):
            epoch = done.ticket.at_epoch or 0
            while applied < epoch:
                ref.apply_updates(writes[applied][:, 0],
                                  writes[applied][:, 1])
                applied += 1
            want = ref.query(done.req.kind, **done.req.params)
            out.check(_same(done.req.kind, done.value, want),
                      f"response {done.req.idx} ({done.req.kind} "
                      f"{done.req.params}) at epoch {epoch} != direct engine")


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------
def _max_rate(spec: ServeSpec, results: dict) -> float:
    """Highest frozen rate that met the latency limit, failed at most 1 %
    (sheds included) and left no growing backlog; 0 if none did."""
    best = 0.0
    for phase, res in results.items():
        lat = res.latencies_ms()
        ok = (len(lat) > 0 and pctl(lat, 95) <= spec.slo_ms
              and res.failed <= 0.01 * res.attempted
              and res.outstanding_end <= max(2 * res.outstanding_mid, 4))
        if ok:
            best = max(best, spec.rates[phase])
    return best


def _run(spec: ServeSpec, seed: int, seconds: float,
         tracer: Tracer) -> Outcome:
    out = Outcome(manifest=base_manifest(spec.name, seed, seconds))
    setups, builds = [], []
    group = None
    # The group's threads inherit the core they are created on; the load
    # threads then move to another, so the generator never competes with
    # the system under test (and where the OS would have put six
    # GIL-sharing threads stops deciding the latency).
    cores = sorted(os.sched_getaffinity(0))
    for _ in range(SETUP_REPEATS):
        if group is not None:
            group.shutdown()
        t0 = time.perf_counter()
        edges, hot, schedules, writes = _make_inputs(spec, seed, seconds)
        gen_s = time.perf_counter() - t0
        os.sched_setaffinity(0, {cores[0]})
        group, build_s, ready_s = _set_up(spec, edges, hot)
        os.sched_setaffinity(0, {cores[-1]})
        builds.append(build_s)
        setups.append(gen_s + ready_s)
    try:
        results, writer, probe = _offer_load(spec, group, schedules, writes,
                                             seconds, tracer)
        if probe is not None:
            probe.after = probe.snapshot()
    finally:
        group.shutdown()
        os.sched_setaffinity(0, set(cores))

    ref = results["ref"]
    lat = ref.latencies_ms()
    # Fixed by the nominal sample count, so every run quotes the same one.
    q = tail_percentile(int(spec.rates["ref"] * ref.duration_s), TAIL_BEYOND)
    top = results["top"]
    out.manifest.update(
        n=SERVE_N, m=len(edges), edges_blake2b=edge_digest(edges),
        input=f"webcrawl_edges(n={SERVE_N}, avg_degree={SERVE_DEGREE}, "
              f"seed={DATASET_SEED}), arrival order from --seed",
        group=f"ReplicaGroup({spec.nranks}, replicas={spec.replicas}, "
              f"max_inflight=8, snapshot_reads={spec.snapshot_reads})",
        mix=dict(spec.mix), hot_pool=[int(v) for v in hot],
        hot_frac=spec.hot_frac, rates_qps=spec.rates, slo_ms=spec.slo_ms,
        phase_seconds={p: seconds * s for p, s in PHASES},
        requests={p: r.attempted for p, r in results.items()},
        ok_at_ref=len(lat), tail_percentile=q, setup_repeats=SETUP_REPEATS,
        shed={p: r.count("shed") for p, r in results.items()},
        writes=len(writes), timed_s=seconds,
        op="one read at R_ref, timed from its due time")
    if q < 95:
        out.notes.append(f"{len(lat)} samples at R_ref support p{q}, not p95 "
                         f"({TAIL_BEYOND} samples must lie beyond the "
                         "percentile)")

    # A shed is admission control answering "retry later", by design at
    # R_top; it lowers goodput and is reported as serve.shed_frac.  Errors
    # and timeouts are failed operations.
    for res in results.values():
        out.attempted += res.attempted
        out.failed += res.count("error") + res.count("timeout")
    if out.failed:
        out.check_failures.append(
            f"{out.failed} reads errored or timed out")
    if writer is not None:
        out.attempted += len(writes)
        out.failed += len(writer.errors)
        out.check_failures.extend(writer.errors)
    out.e2e.update(
        setup_s=median(setups), build_s=median(builds),
        op_p50_ms=median(lat), op_tail_ms=pctl(lat, q),
        goodput_per_s=top.within(spec.slo_ms) / top.duration_s)

    kept = [d for res in results.values() for d in res.done
            if d.value is not None]
    n_applied = len(writes) if writer is None else len(writer.visible_s)
    _check_sample(out, spec, edges, writes[:n_applied], kept)

    if tracer.enabled:
        _layers(out, spec, tracer, results, writer, probe)
    out.e2e["peak_rss_mb"] = peak_rss_mb()
    return out


class _Probe:
    """Traced-run observers: engine-side jobs and replay lag."""

    def __init__(self, group: ReplicaGroup):
        self.group = group
        self.jobs = []
        self.replay_lag_max = 0
        self.before = self.snapshot()
        self.after = None

    def snapshot(self) -> dict:
        """Public status counters of the group and of each engine."""
        return {**self.group.status(),
                "comm": [rep.engine.status()["comm"]
                         for rep in self.group.replicas]}

    def on_submit(self, req: Request, ticket) -> None:
        engine = self.group.replicas[ticket.replica_id].engine
        self.jobs.append(engine.job(ticket.job_id))

    def on_tick(self) -> None:
        lag = self.group.log.head_seq - min(
            rep.applied_seq for rep in self.group.replicas)
        self.replay_lag_max = max(self.replay_lag_max, lag)


def _offer_load(spec: ServeSpec, group: ReplicaGroup, schedules, writes,
                seconds: float, tracer: Tracer):
    probe = None
    hooks = {}
    if tracer.enabled:
        probe = _Probe(group)
        hooks = {"on_submit": probe.on_submit, "on_tick": probe.on_tick}
        for rep in group.replicas:
            tracer.wrap(rep.engine, "submit", "service.submit")
    n_reads = sum(len(s) for s in schedules.values())
    stride = max(1, n_reads // CHECK_SAMPLE)

    writer = None
    if spec.writes:
        writer = PeriodicWriter(
            lambda k: group.apply_updates(writes[k][:, 0], writes[k][:, 1],
                                          wait="all"),
            len(writes), WRITE_PERIOD_S, tracer)
        writer.start()
    results = {}
    try:
        for phase, share in PHASES:
            results[phase] = run_phase(
                group, schedules[phase], spec.rates[phase], seconds * share,
                shed_error=ShedError, tracer=tracer,
                keep_value=lambda req: req.idx % stride == 0, **hooks)
    finally:
        if writer is not None:
            writer.stop()
            writer.join(timeout=60.0)
    return results, writer, probe


def _delta(after: dict, before: dict, *path) -> float:
    for key in path:
        after, before = after[key], before[key]
    return after - before


def _layers(out: Outcome, spec: ServeSpec, tracer: Tracer, results, writer,
            probe: _Probe) -> None:
    layer = out.layer
    before, status = probe.before, probe.after
    selfs = self_times(tracer.spans)
    route = [selfs[s["id"]] * 1e3 for s in tracer.spans
             if s["name"] == "serve.submit"]
    submit = [(s["t1"] - s["t0"]) * 1e3 for s in tracer.spans
              if s["name"] == "service.submit"]
    layer["serve.route_p50_ms"] = median(route)
    layer["service.submit_p50_ms"] = median(submit)
    misses = [j.latency_s * 1e3 for j in probe.jobs
              if not j.cached and j.latency_s is not None]
    layer["service.miss_exec_p50_ms"] = median(misses) if misses else 0.0

    hits = _delta(status, before, "cache_totals", "hits")
    lookups = hits + _delta(status, before, "cache_totals", "misses")
    layer["service.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    for k in ("evictions", "invalidations"):
        layer[f"service.cache_{k}"] = _delta(status, before,
                                             "cache_totals", k)
    jobs = {k: sum(_delta(a, b, "jobs", k) for a, b in zip(
        status["per_replica"], before["per_replica"]))
        for k in ("completed", "cache_hits", "batches")}
    layer["service.mean_batch_size"] = \
        (jobs["completed"] - jobs["cache_hits"]) / max(1, jobs["batches"])
    layer["service.max_batch_size"] = max(
        r["jobs"]["max_batch_size"] for r in status["per_replica"])

    routed = _delta(status, before, "router", "routed")
    sheds = _delta(status, before, "router", "sheds")
    layer["serve.spill_frac"] = \
        _delta(status, before, "router", "spills") / max(1, routed)
    layer["serve.shed_frac"] = sheds / max(1, routed + sheds)
    layer["serve.replay_lag_max"] = probe.replay_lag_max
    layer["serve.snapshot_reads"] = _delta(status, before, "group",
                                           "snapshot_reads")
    layer["serve.loadgen_late_p95_ms"] = results["ref"].late_ms(95)
    layer["serve.outstanding_max"] = max(
        r.outstanding_max for r in results.values())
    layer["serve.max_rate_qps"] = _max_rate(spec, results)
    for phase in ("low", "top"):
        lat = results[phase].latencies_ms()
        layer[f"serve.query_p95_ms.{phase}"] = pctl(lat, 95) if lat else 0.0
    top = results["top"]
    layer["serve.failed_frac.top"] = top.failed / max(1, top.attempted)
    if writer is not None and writer.visible_s:
        layer["serve.write_visible_p50_ms"] = median(writer.visible_s) * 1e3
    layer["stream.compactions"] = sum(
        _delta(a, b, "stream", "compactions")
        for a, b in zip(status["per_replica"], before["per_replica"]))
    # Engine-side collectives of every job served during the load: counts
    # summed over replicas, seconds of the busiest one.
    comm = [{k: a[k] - b[k] for k in a}
            for a, b in zip(status["comm"], before["comm"])]
    layer.update(runtime_metrics("serve", fold_ranks(comm)))


def run_serve_hot(seed: int, seconds: float, tracer: Tracer) -> Outcome:
    return _run(HOT, seed, seconds, tracer)


def run_serve_cold_rw(seed: int, seconds: float, tracer: Tracer) -> Outcome:
    return _run(COLD_RW, seed, seconds, tracer)
