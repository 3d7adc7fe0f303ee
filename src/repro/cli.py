"""Command-line interface: ``python -m repro <command>``.

Wraps the library's end-to-end pipeline as a tool:

* ``generate`` — synthesize a Table-I stand-in (or raw R-MAT/ER/web graph)
  into the binary edge-list format;
* ``convert`` — SNAP-style text ↔ binary edge lists;
* ``info`` — file and degree statistics of a binary edge list;
* ``partition`` — score vertex-block / edge-block / random / PuLP
  partitionings of a graph;
* ``analyze`` — run any subset of the analytics over a binary edge list on
  ``--ranks`` SPMD ranks and print a report (``--checkpoint DIR`` reloads
  a saved graph instead of rebuilding; ``--save-checkpoint DIR`` writes
  one);
* ``serve`` — start the persistent analytics engine over one resident
  graph and drive it with a query script (see ``repro.service``);
* ``check`` — run the static SPMD-correctness analysis (schedule,
  ownership, portability and distribution rules, see ``repro.check``)
  over Python sources as one whole program; ``--strict`` makes
  unsuppressed findings fail the process, ``--format json`` emits
  machine-readable output and ``--format github`` emits workflow
  ``::error`` annotations.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

__all__ = ["main"]


def _resolve_backend(name: str | None):
    """Validate a backend selection (``--backend`` or ``$REPRO_BACKEND``).

    Returns the resolved backend name, or ``None`` after printing an
    actionable error (listing the backends that *are* available here).
    """
    from .runtime import SpmdLaunchError, get_backend

    try:
        return get_backend(name).name
    except SpmdLaunchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


# ---------------------------------------------------------------------------
# subcommand: generate
# ---------------------------------------------------------------------------
def _cmd_generate(args: argparse.Namespace) -> int:
    from .generators import (
        dataset_names,
        erdos_renyi_edges,
        load_dataset,
        rmat_edges,
        webcrawl_edges,
    )
    from .io import write_edges

    if args.kind in dataset_names():
        edges = load_dataset(args.kind, scale=args.scale, seed=args.seed)
    elif args.kind == "rmat-raw":
        scale = int(np.ceil(np.log2(max(2, args.n))))
        edges = rmat_edges(scale, m=int(args.degree * args.n), seed=args.seed)
    elif args.kind == "er-raw":
        edges = erdos_renyi_edges(args.n, int(args.degree * args.n),
                                  seed=args.seed)
    elif args.kind == "web-raw":
        edges = webcrawl_edges(args.n, avg_degree=args.degree, seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.kind)
    nbytes = write_edges(args.output, edges, width=args.width)
    n = int(edges.max()) + 1 if len(edges) else 0
    print(f"wrote {args.output}: {len(edges):,} edges, "
          f"max vertex id {n - 1}, {nbytes / 1e6:.1f} MB")
    return 0


# ---------------------------------------------------------------------------
# subcommand: convert
# ---------------------------------------------------------------------------
def _cmd_convert(args: argparse.Namespace) -> int:
    from .io import read_edges, text_to_binary, write_text_edges

    src, dst = Path(args.input), Path(args.output)
    if args.to == "binary":
        m = text_to_binary(src, dst, width=args.width)
    else:
        edges = read_edges(src, width=args.width)
        write_text_edges(dst, edges)
        m = len(edges)
    print(f"converted {m:,} edges: {src} -> {dst}")
    return 0


# ---------------------------------------------------------------------------
# subcommand: info
# ---------------------------------------------------------------------------
def _cmd_info(args: argparse.Namespace) -> int:
    from .io import count_edges, read_edges

    m = count_edges(args.input, width=args.width)
    edges = read_edges(args.input, width=args.width)
    n = int(edges.max()) + 1 if m else 0
    out_deg = np.bincount(edges[:, 0], minlength=n)
    in_deg = np.bincount(edges[:, 1], minlength=n)
    print(f"{args.input}")
    print(f"  edges:        {m:,}")
    print(f"  vertices:     {n:,} (max id + 1)")
    if n:
        print(f"  avg degree:   {m / n:.2f}")
        print(f"  max out-deg:  {out_deg.max():,}")
        print(f"  max in-deg:   {in_deg.max():,}")
        total = out_deg + in_deg
        print(f"  isolated:     {(total == 0).sum():,} "
              f"({100 * (total == 0).mean():.1f}%)")
    return 0


# ---------------------------------------------------------------------------
# subcommand: partition
# ---------------------------------------------------------------------------
def _cmd_partition(args: argparse.Namespace) -> int:
    from .io import read_edges
    from .partition import (
        EdgeBlockPartition,
        RandomHashPartition,
        VertexBlockPartition,
        evaluate_partition,
        pulp_partition,
    )

    edges = read_edges(args.input, width=args.width)
    n = int(edges.max()) + 1 if len(edges) else 1
    degrees = np.bincount(edges[:, 0], minlength=n).astype(np.int64)
    parts = {
        "vertex-block": VertexBlockPartition(n, args.parts),
        "edge-block": EdgeBlockPartition(degrees, args.parts),
        "random": RandomHashPartition(n, args.parts, seed=args.seed),
    }
    if args.pulp:
        parts["pulp"] = pulp_partition(edges, n, args.parts, seed=args.seed)
    print(f"{'strategy':<14} {'vtx imbal':>10} {'edge imbal':>11} "
          f"{'cut frac':>9} {'max ghosts':>11}")
    for name, part in parts.items():
        st = evaluate_partition(part, edges)
        print(f"{name:<14} {st.vertex_imbalance:>10.3f} "
              f"{st.edge_imbalance:>11.3f} {st.cut_fraction:>9.3f} "
              f"{int(st.ghost_counts.max()):>11,}")
    return 0


# ---------------------------------------------------------------------------
# subcommand: analyze
# ---------------------------------------------------------------------------
ANALYTIC_CHOICES = ("pagerank", "labelprop", "wcc", "scc", "harmonic",
                    "kcore", "sssp", "triangles", "diameter", "hits",
                    "closeness", "betweenness")


def _analyze_job(comm, cfg: dict):
    """SPMD body of ``repro analyze`` (module-level: pickles by reference
    onto process-backed ranks; ``cfg`` is a plain picklable dict)."""
    from .analytics import (
        HaloExchange,
        approx_kcore,
        betweenness_centrality,
        closeness_centrality,
        estimate_diameter,
        harmonic_centrality,
        hits,
        label_propagation,
        largest_scc,
        pagerank,
        sssp,
        top_degree_vertices,
        triangle_count,
        wcc,
    )
    from .graph import build_dist_graph
    from .io import striped_read
    from .io.checkpoint import load_graph, save_graph
    from .partition import (
        EdgeBlockPartition,
        RandomHashPartition,
        VertexBlockPartition,
    )
    from .runtime import LAND, SUM

    which = cfg["which"]
    n = cfg["n"]
    iters = cfg["iters"]
    path = Path(cfg["input"])
    width = cfg["width"]
    ckpt = Path(cfg["checkpoint"]) if cfg["checkpoint"] is not None else None
    save = Path(cfg["save_checkpoint"]) \
        if cfg["save_checkpoint"] is not None else None

    # A complete checkpoint skips reconstruction (and, except for the
    # data-dependent eblock partition, the edge read as well).
    have = (ckpt is not None and
            (ckpt / f"rank{comm.rank:05d}.npz").exists())
    from_ckpt = comm.allreduce(have, LAND)
    chunk = None
    if cfg["partition"] == "eblock" or not from_ckpt:
        chunk, _ = striped_read(comm, path, width=width)
    if cfg["partition"] == "vblock":
        part = VertexBlockPartition(n, comm.size)
    elif cfg["partition"] == "eblock":
        part = EdgeBlockPartition.from_edge_chunks(comm, chunk[:, 0], n)
    else:
        part = RandomHashPartition(n, comm.size, seed=7)
    if from_ckpt:
        g = load_graph(comm, ckpt, part)
    else:
        g = build_dist_graph(comm, chunk, part)
        if save is not None:
            save_graph(comm, g, save)
    halo = HaloExchange(comm, g)
    report: list[tuple[str, float, str]] = []

    def run(name, fn):
        comm.barrier()
        t0 = time.perf_counter()
        summary = fn()
        comm.barrier()
        report.append((name, time.perf_counter() - t0, summary))

    hub = int(top_degree_vertices(comm, g, 1)[0]) if n else 0
    if "pagerank" in which:
        def _pr():
            s = pagerank(comm, g, max_iters=iters, halo=halo)
            total = comm.allreduce(float(s.scores.sum()), SUM)
            return f"sum={total:.6f}"
        run("pagerank", _pr)
    if "labelprop" in which:
        def _lp():
            from .analysis import label_counts

            r = label_propagation(comm, g, n_iters=iters, halo=halo)
            keys, _ = label_counts(comm, r.labels)
            return f"{len(keys)} communities"
        run("labelprop", _lp)
    if "wcc" in which:
        def _wcc():
            r = wcc(comm, g, halo=halo)
            giant = comm.allreduce(
                int((r.labels == r.giant_label).sum()), SUM)
            return f"giant={giant}"
        run("wcc", _wcc)
    if "scc" in which:
        run("scc", lambda: f"largest={largest_scc(comm, g, halo=halo).size}")
    if "harmonic" in which:
        run("harmonic",
            lambda: f"hc({hub})={harmonic_centrality(comm, g, hub).score:.2f}")
    if "kcore" in which:
        run("kcore", lambda: f"stages={approx_kcore(comm, g, halo=halo).stages_run}")
    if "sssp" in which:
        run("sssp", lambda: f"reached={sssp(comm, g, hub, halo=halo).reached}")
    if "triangles" in which:
        run("triangles", lambda: f"total={triangle_count(comm, g, halo=halo).total}")
    if "diameter" in which:
        run("diameter",
            lambda: f">= {estimate_diameter(comm, g).lower_bound}")
    if "hits" in which:
        run("hits", lambda: f"iters={hits(comm, g, max_iters=iters, halo=halo).n_iters}")
    if "closeness" in which:
        run("closeness",
            lambda: f"cc({hub})={closeness_centrality(comm, g, hub).score:.4f}")
    if "betweenness" in which:
        run("betweenness",
            lambda: f"sampled k=4, sources={betweenness_centrality(comm, g, k=min(4, max(1, n)), halo=halo).n_sources}")
    return report, from_ckpt


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .io import count_edges, read_edge_range
    from .runtime import RankAborted, SpmdError, run_spmd

    backend = _resolve_backend(args.backend)
    if backend is None:
        return 2

    # Determine n without loading everything twice.
    m = count_edges(args.input, width=args.width)
    n = 0
    for lo in range(0, m, 1 << 20):
        chunk = read_edge_range(args.input, lo, min(1 << 20, m - lo),
                                width=args.width)
        n = max(n, int(chunk.max()) + 1 if len(chunk) else 0)

    cfg = {
        "input": str(args.input), "width": args.width, "n": n,
        "partition": args.partition, "iters": args.iters,
        "which": args.analytics or list(ANALYTIC_CHOICES),
        "checkpoint":
            None if args.checkpoint is None else str(args.checkpoint),
        "save_checkpoint":
            None if args.save_checkpoint is None
            else str(args.save_checkpoint),
    }
    t0 = time.perf_counter()
    timeout = args.timeout if args.timeout > 0 else None
    try:
        report, from_ckpt = run_spmd(args.ranks, _analyze_job, cfg,
                                     timeout=timeout, backend=backend)[0]
    except SpmdError as exc:
        only_aborts = all(isinstance(e, RankAborted)
                          for e in exc.failures.values())
        if timeout is not None and only_aborts:
            print(f"error: analysis exceeded --timeout {args.timeout:g}s "
                  f"and was aborted", file=sys.stderr)
            return 1
        raise
    wall = time.perf_counter() - t0
    source = "checkpoint" if from_ckpt else "built"
    print(f"{args.input}: n={n:,}, m={m:,}, {args.ranks} ranks, "
          f"{args.partition} partitioning, graph {source}")
    for name, dt, summary in report:
        print(f"  {name:<12} {dt:8.3f} s   {summary}")
    print(f"  {'TOTAL':<12} {wall:8.3f} s (incl. ingest + build)")
    return 0


# ---------------------------------------------------------------------------
# subcommand: serve
# ---------------------------------------------------------------------------
#: Default mixed workload when no --queries script is given.
_DEFAULT_QUERIES = """\
pagerank
wcc
bfs 0
bfs 1
bfs 2
closeness 0
ppr 0
ppr 1
triangles
pagerank
bfs 0
"""


def _parse_query_line(line: str) -> tuple[str, dict] | None:
    """``"bfs 17 direction=out"`` → ``("bfs", {"source": 17, ...})``."""
    line = line.split("#", 1)[0].strip()
    if not line:
        return None
    from .service import SERVING_KINDS

    tokens = line.split()
    kind, rest = tokens[0], tokens[1:]
    if kind not in SERVING_KINDS:
        raise ValueError(
            f"unknown analytic {kind!r} in {line!r}; "
            f"expected one of: {', '.join(sorted(SERVING_KINDS))}")
    positional = {"bfs": "source", "closeness": "vertex", "ppr": "seed"}
    params: dict = {}
    for tok in rest:
        if "=" in tok:
            key, val = tok.split("=", 1)
            try:
                parsed: object = int(val)
            except ValueError:
                try:
                    parsed = float(val)
                except ValueError:
                    parsed = val
            params[key] = parsed
        elif kind in positional and positional[kind] not in params:
            try:
                params[positional[kind]] = int(tok)
            except ValueError:
                raise ValueError(
                    f"expected an integer {positional[kind]} for {kind}, "
                    f"got {tok!r} in {line!r}") from None
        else:
            raise ValueError(f"cannot parse query token {tok!r} in {line!r}")
    return kind, params


def _summarize_result(kind: str, res) -> str:
    if kind == "pagerank":
        return f"sum={res['scores'].sum():.6f} iters={res['n_iters']}"
    if kind == "wcc":
        return f"giant={res['giant_size']} components={res['n_components']}"
    if kind == "triangles":
        return f"total={res['total']} clustering={res['global_clustering']:.4f}"
    if kind == "bfs":
        return f"reached={res['reached']} max_level={res['max_level']}"
    if kind == "closeness":
        return f"cc({res['vertex']})={res['score']:.4f}"
    if kind == "ppr":
        return f"top={int(res['scores'].argmax())} iters={res['n_iters']}"
    return str(res)


def _miss_timing(jobs: dict) -> str:
    """Mean queue wait per dispatched job and mean world time per batch
    (cache hits never queue, so they are left out of both)."""
    ran = jobs["completed"] + jobs["failed"] - jobs["cache_hits"]
    return (f"mean wait {jobs['queue_wait_s'] / max(ran, 1) * 1e3:.2f} ms, "
            f"mean run {jobs['exec_s'] / max(jobs['batches'], 1) * 1e3:.2f} "
            f"ms/batch")


def _serve_group(args: argparse.Namespace, queries: list,
                 backend: str) -> int:
    """``repro serve --replicas N``: the replicated serving tier."""
    import json

    from .serve import ReplicaGroup, ShedError

    t0 = time.perf_counter()
    group = ReplicaGroup(
        args.ranks, replicas=args.replicas,
        max_inflight=args.max_inflight,
        snapshot_reads=args.snapshot_reads,
        path=args.input, width=args.width, partition=args.partition,
        checkpoint=args.checkpoint, save_checkpoint=args.save_checkpoint,
        max_pending=args.max_pending,
        cache_capacity=args.cache, default_timeout=args.timeout,
        backend=backend,
    )
    build_s = time.perf_counter() - t0
    eng0 = group.replicas[0].engine
    print(f"replica group up: {args.replicas} replicas x {args.ranks} "
          f"ranks ({eng0.backend}), n={eng0.n_global:,}, "
          f"m={eng0.m_global:,}, {args.partition} partitioning, "
          f"snapshot reads {'on' if args.snapshot_reads else 'off'}, "
          f"built in {build_s:.3f} s")
    try:
        # Live update feed: split the update file into batches and
        # interleave them with the query stream (wait='none' — replicas
        # catch up by replaying the shared log while queries keep going).
        batches = []
        if args.updates is not None:
            from .stream import read_updates_text, split_batch

            whole = read_updates_text(args.updates)
            size = args.update_batch or whole.n or 1
            batches = split_batch(whole, size) if whole.n else []
        feed_every = (max(1, len(queries) // len(batches))
                      if batches else None)

        tickets: list = []
        sheds = 0

        def drain():
            # In-flight slots (and snapshot leases) are released at
            # result(): reaping tickets is what opens admission back up
            # after a shed.
            for ticket, kind in tickets:
                res = group.result(ticket, timeout=args.timeout)
                lat = time.monotonic() - ticket.t_submit
                epoch = ("live" if ticket.at_epoch is None
                         else f"E{ticket.at_epoch}")
                print(f"  {kind:<10} {lat * 1e3:9.2f} ms  "
                      f"[rep {ticket.replica_id}|{epoch:>5}]  "
                      f"{_summarize_result(kind, res)}")
            tickets.clear()

        t0 = time.perf_counter()
        for i, (kind, params) in enumerate(queries):
            if feed_every is not None and i % feed_every == 0 and batches:
                b = batches.pop(0)
                out = group.apply_updates(b.src, b.dst, b.op, b.values,
                                          wait="none")
                print(f"  fed update batch seq {out['seq']} "
                      f"({out['n_updates']} updates)")
            while True:
                try:
                    tickets.append((group.submit(kind, **params), kind))
                    break
                except ShedError as exc:
                    sheds += 1
                    if tickets:
                        drain()  # free slots + leases, then retry
                    else:
                        time.sleep(min(0.5, exc.retry_after_s))
        for b in batches:  # leftovers (more batches than queries)
            group.apply_updates(b.src, b.dst, b.op, b.values, wait="none")
        drain()
        serve_s = time.perf_counter() - t0
        if not group.sync(timeout=args.timeout):
            print("warning: replicas did not converge before timeout",
                  file=sys.stderr)
        status = group.status()
        nq = len(queries)
        print(f"served {nq} queries in {serve_s:.3f} s "
              f"({serve_s / max(nq, 1) * 1e3:.2f} ms/query amortized; "
              f"{sheds} sheds; cold build was {build_s:.3f} s)")
        if args.status_json:
            print(json.dumps(status, indent=2))
        else:
            r, lg = status["router"], status["log"]
            ct = status["cache_totals"]
            print(f"  router: {r['routed']} routed "
                  f"({r['point']} point / {r['global']} global), "
                  f"{r['spills']} spills, {r['sheds']} sheds")
            print(f"  log: {lg['appended']} batches appended, "
                  f"head seq {lg['head_seq']}, "
                  f"{lg['retained']} retained")
            print(f"  cache totals: {ct['hits']} hits / {ct['misses']} "
                  f"misses, {ct['evictions']} evicted, "
                  f"{ct['invalidations']} invalidated")
            for rs in status["per_replica"]:
                c = rs["cache"]
                pins = sum(rs["snapshots"]["pinned"].values())
                print(f"  replica {rs['id']}: epoch {rs['epoch']}, "
                      f"seq {rs['applied_seq']}, "
                      f"{rs['jobs']['completed']} jobs, cache "
                      f"{c['hits']}h/{c['misses']}m/{c['evictions']}e/"
                      f"{c['invalidations']}i "
                      f"(rate {c['hit_rate']:.0%}), {pins} pins, "
                      f"ewma {rs['ewma_latency_s'] * 1e3:.1f} ms")
                reg = rs["snapshots"]["registry"]
                per_read = (f", {reg['engine_pins']} engine pins / "
                            f"{reg['acquired']} snapshot reads"
                            if reg["acquired"] else "")
                print(f"    {_miss_timing(rs['jobs'])}{per_read}")
    finally:
        group.shutdown()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from .service import AdmissionError, AnalyticsEngine

    backend = _resolve_backend(args.backend)
    if backend is None:
        return 2
    if args.queries is None:
        text = _DEFAULT_QUERIES
    elif str(args.queries) == "-":
        text = sys.stdin.read()
    else:
        text = Path(args.queries).read_text()
    try:
        queries = [q for q in
                   (_parse_query_line(ln) for ln in text.splitlines())
                   if q is not None]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    queries = queries * args.repeat

    if args.replicas > 1:
        return _serve_group(args, queries, backend)

    t0 = time.perf_counter()
    engine = AnalyticsEngine(
        args.ranks, path=args.input, width=args.width,
        partition=args.partition,
        checkpoint=args.checkpoint, save_checkpoint=args.save_checkpoint,
        max_pending=args.max_pending,
        cache_capacity=args.cache, default_timeout=args.timeout,
        backend=backend,
    )
    build_s = time.perf_counter() - t0
    print(f"engine up: n={engine.n_global:,}, m={engine.m_global:,}, "
          f"{args.ranks} ranks ({engine.backend}), "
          f"{args.partition} partitioning, "
          f"graph {engine.built_from} in {build_s:.3f} s "
          f"[fingerprint {engine.fingerprint}]")
    try:
        pending: list[tuple[int, str]] = []

        def drain():
            for job_id, kind in pending:
                job = engine.job(job_id)
                res = engine.result(job_id)
                lat = job.latency_s or 0.0
                tag = "cache" if job.cached else "ran"
                print(f"  {kind:<10} {lat * 1e3:9.2f} ms  [{tag:>5}]  "
                      f"{_summarize_result(kind, res)}")
            pending.clear()

        def run_workload() -> float:
            t0 = time.perf_counter()
            for kind, params in queries:
                while True:
                    try:
                        pending.append((engine.submit(kind, **params), kind))
                        break
                    except AdmissionError:
                        drain()  # backlog full: consume results, then retry
            drain()
            return time.perf_counter() - t0

        serve_s = run_workload()
        if args.updates is not None:
            # Live mutation: apply the update batch, then replay the same
            # workload against the new epoch (shows invalidation at work).
            from .stream import read_updates_text

            batch = read_updates_text(args.updates)
            out = engine.apply_updates(batch.src, batch.dst, batch.op,
                                       batch.values)
            print(f"applied {batch.n} updates: epoch {out['epoch']}, "
                  f"+{out['n_inserted']} -{out['n_deleted']} "
                  f"(missing {out['n_missing']}), m={out['m_global']:,} "
                  f"[fingerprint {engine.fingerprint}]")
            serve_s += run_workload()
        status = engine.status()
        nq = len(queries) * (2 if args.updates is not None else 1)
        print(f"served {nq} queries in {serve_s:.3f} s "
              f"({serve_s / max(nq, 1) * 1e3:.2f} ms/query amortized; "
              f"cold build was {build_s:.3f} s)")
        if args.status_json:
            print(json.dumps(status, indent=2))
        else:
            j, c, m = status["jobs"], status["cache"], status["comm"]
            print(f"  jobs: {j['completed']} completed, {j['failed']} failed, "
                  f"{j['batches']} dispatches "
                  f"(largest batch {j['max_batch_size']}, "
                  f"{j['deduped']} deduped); {_miss_timing(j)}")
            print(f"  cache: {c['hits']} hits / {c['misses']} misses "
                  f"(rate {c['hit_rate']:.0%}), {c['evictions']} evicted, "
                  f"{c['invalidations']} invalidated, "
                  f"{c['size']}/{c['capacity']} entries")
            print(f"  comm: {m['bytes_sent'] / 1e6:.2f} MB sent over "
                  f"{m['n_collectives']} collectives, "
                  f"idle {m['idle_s']:.3f} s, xfer {m['comm_s']:.3f} s")
    finally:
        engine.shutdown()
    return 0


# ---------------------------------------------------------------------------
# subcommand: stream-apply
# ---------------------------------------------------------------------------
def _stream_apply_job(comm, cfg: dict):
    """SPMD body of ``repro stream-apply`` (module-level for procs)."""
    from .graph import build_dist_graph
    from .io import striped_read
    from .partition import RandomHashPartition, VertexBlockPartition
    from .stream import (
        DynamicDistGraph,
        IncrementalPageRank,
        IncrementalWCC,
        UpdateBatch,
    )

    n = cfg["n"]
    chunk, _ = striped_read(comm, Path(cfg["input"]), width=cfg["width"])
    if cfg["partition"] == "vblock":
        part = VertexBlockPartition(n, comm.size)
    else:
        part = RandomHashPartition(n, comm.size, seed=7)
    g = build_dist_graph(comm, chunk, part)
    dyn = DynamicDistGraph(comm, g)
    ipr = IncrementalPageRank(comm, dyn, max_iters=cfg["iters"])
    iwcc = IncrementalWCC(comm, dyn)
    log = []
    for b in cfg["batches"]:
        sl = np.array_split(np.arange(b.n), comm.size)[comm.rank]
        my = UpdateBatch(b.src[sl], b.dst[sl], b.op[sl],
                         b.values[sl] if b.values is not None else None)
        comm.barrier()
        t0 = time.perf_counter()
        res = dyn.apply(my)
        t_apply = time.perf_counter() - t0
        t0 = time.perf_counter()
        pr = ipr.run()
        t_pr = time.perf_counter() - t0
        w = iwcc.run()
        log.append((res, t_apply, t_pr, pr.n_iters, w.mode))
    return log


def _cmd_stream_apply(args: argparse.Namespace) -> int:
    from .io import count_edges, read_edge_range
    from .runtime import run_spmd
    from .stream import read_updates_text, split_batch

    backend = _resolve_backend(args.backend)
    if backend is None:
        return 2

    m = count_edges(args.input, width=args.width)
    n = 0
    for lo in range(0, m, 1 << 20):
        chunk = read_edge_range(args.input, lo, min(1 << 20, m - lo),
                                width=args.width)
        n = max(n, int(chunk.max()) + 1 if len(chunk) else 0)
    updates = read_updates_text(args.updates)
    if updates.n:
        # Updates may introduce vertices beyond the base file's id range.
        n = max(n, int(updates.src.max()) + 1, int(updates.dst.max()) + 1)
    batches = (split_batch(updates, args.batch_size)
               if args.batch_size else [updates])

    cfg = {
        "input": str(args.input), "width": args.width, "n": n,
        "partition": args.partition, "iters": args.iters,
        "batches": batches,
    }
    t0 = time.perf_counter()
    log = run_spmd(args.ranks, _stream_apply_job, cfg,
                   timeout=args.timeout or None, backend=backend)[0]
    wall = time.perf_counter() - t0
    print(f"{args.input}: n={n:,}, m={m:,}, {args.ranks} ranks; "
          f"{updates.n} updates in {len(batches)} batch(es)")
    for res, t_apply, t_pr, pr_iters, wcc_mode in log:
        print(f"  epoch {res.epoch}: +{res.n_inserted} -{res.n_deleted} "
              f"(missing {res.n_missing}) m={res.m_global:,} "
              f"apply {t_apply * 1e3:.1f} ms, pagerank {t_pr * 1e3:.1f} ms "
              f"({pr_iters} iters), wcc {wcc_mode}"
              f"{', compacted' if res.compacted else ''}")
    print(f"  total {wall:.3f} s")
    return 0


# ---------------------------------------------------------------------------
# subcommand: check
# ---------------------------------------------------------------------------
def _cmd_check(args: argparse.Namespace) -> int:
    from .check import RULES
    from .check.fixer import fix_files, fixable
    from .check.program import (
        apply_baseline,
        lint_paths,
        load_baseline,
        write_baseline,
    )
    from .check.spmdlint import (
        render_github,
        render_json,
        render_sarif,
        render_text,
    )

    paths = args.paths or [Path(__file__).resolve().parent]
    select = None
    if args.select:
        bad = [r for r in args.select if r not in RULES]
        if bad:
            print(f"error: unknown rule(s): {', '.join(bad)} "
                  f"(known: {', '.join(sorted(RULES))})", file=sys.stderr)
            return 2
        select = args.select

    def lint() -> list:
        return lint_paths(paths, select=select, cache=args.cache)

    findings = lint()
    if args.write_baseline is not None:
        n = write_baseline(args.write_baseline, findings)
        print(f"spmdlint: wrote {n} grandfathered finding(s) to "
              f"{args.write_baseline}", file=sys.stderr)
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
        if baseline_path.exists():
            apply_baseline(findings, load_baseline(baseline_path))
        else:
            print(f"warning: baseline {baseline_path} not found; "
                  f"treating every finding as new", file=sys.stderr)
    if args.fix:
        dry = args.fix_check
        changed = fix_files(fixable(findings), dry_run=dry)
        n_edits = sum(changed.values())
        if dry:
            for path, n in sorted(changed.items()):
                print(f"spmdlint: would fix {n} finding(s) in {path}",
                      file=sys.stderr)
            if n_edits:
                print(f"spmdlint: --fix would change {len(changed)} "
                      f"file(s); run `repro check --fix` and commit",
                      file=sys.stderr)
                return 1
        elif n_edits:
            for path, n in sorted(changed.items()):
                print(f"spmdlint: fixed {n} finding(s) in {path}",
                      file=sys.stderr)
            # Re-lint so the report (and strict exit) reflects the
            # post-fix sources; mechanical findings must be gone.
            findings = lint()
            if args.baseline is not None and Path(args.baseline).exists():
                apply_baseline(findings, load_baseline(args.baseline))
    if args.format == "json":
        print(render_json(findings))
    elif args.format == "sarif":
        print(render_sarif(findings))
    elif args.format == "github":
        out = render_github(findings)
        if out:
            print(out)
    else:
        print(render_text(findings, show_suppressed=args.show_suppressed))
    fresh = sum(1 for f in findings if not f.suppressed and not f.baselined)
    return 1 if (args.strict and fresh) else 0


# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    from .generators import dataset_names

    p = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_backend(sp: argparse.ArgumentParser) -> None:
        # Validated by get_backend (not argparse choices) so the error
        # message can list what is actually available on this host.
        sp.add_argument("--backend", type=str, default=None,
                        metavar="{threads,procs,mpi}",
                        help="rank runtime backend (default: $REPRO_BACKEND "
                             "when set, else threads)")

    g = sub.add_parser("generate", help="synthesize a graph to a binary file")
    g.add_argument("kind", choices=list(dataset_names()) +
                   ["rmat-raw", "er-raw", "web-raw"])
    g.add_argument("output", type=Path)
    g.add_argument("--scale", type=float, default=1.0)
    g.add_argument("--n", type=int, default=10_000)
    g.add_argument("--degree", type=float, default=16.0)
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--width", type=int, default=32, choices=(32, 64))
    g.set_defaults(fn=_cmd_generate)

    c = sub.add_parser("convert", help="convert text <-> binary edge lists")
    c.add_argument("input", type=Path)
    c.add_argument("output", type=Path)
    c.add_argument("--to", choices=("binary", "text"), default="binary")
    c.add_argument("--width", type=int, default=32, choices=(32, 64))
    c.set_defaults(fn=_cmd_convert)

    i = sub.add_parser("info", help="inspect a binary edge list")
    i.add_argument("input", type=Path)
    i.add_argument("--width", type=int, default=32, choices=(32, 64))
    i.set_defaults(fn=_cmd_info)

    q = sub.add_parser("partition", help="score partitioning strategies")
    q.add_argument("input", type=Path)
    q.add_argument("--parts", type=int, default=8)
    q.add_argument("--seed", type=int, default=1)
    q.add_argument("--pulp", action="store_true",
                   help="also run the PuLP-style partitioner")
    q.add_argument("--width", type=int, default=32, choices=(32, 64))
    q.set_defaults(fn=_cmd_partition)

    a = sub.add_parser("analyze", help="run analytics over a binary file")
    a.add_argument("input", type=Path)
    a.add_argument("--ranks", type=int, default=4)
    a.add_argument("--partition", choices=("vblock", "eblock", "rand"),
                   default="vblock")
    a.add_argument("--iters", type=int, default=10)
    a.add_argument("--analytics", nargs="*", choices=ANALYTIC_CHOICES,
                   help="subset to run (default: all)")
    a.add_argument("--width", type=int, default=32, choices=(32, 64))
    a.add_argument("--timeout", type=float, default=120.0,
                   help="per-collective-wait timeout in seconds for the "
                        "SPMD world; 0 disables (default: 120)")
    a.add_argument("--checkpoint", type=Path, default=None,
                   help="load the graph from this checkpoint directory "
                        "when present (skips reconstruction)")
    a.add_argument("--save-checkpoint", type=Path, default=None,
                   help="write the freshly built graph to this directory")
    add_backend(a)
    a.set_defaults(fn=_cmd_analyze)

    s = sub.add_parser(
        "serve", help="serve analytics over one resident graph")
    s.add_argument("input", type=Path)
    s.add_argument("--ranks", type=int, default=4)
    s.add_argument("--partition", choices=("vblock", "eblock", "rand"),
                   default="vblock")
    s.add_argument("--queries", type=str, default=None,
                   help="query script file ('-' for stdin; default: a "
                        "built-in mixed workload). One query per line: "
                        "'pagerank', 'bfs 17', 'ppr 5 max_iters=30', ...")
    s.add_argument("--repeat", type=int, default=1,
                   help="run the workload this many times (shows caching)")
    s.add_argument("--checkpoint", type=Path, default=None,
                   help="load the graph from this checkpoint when present")
    s.add_argument("--save-checkpoint", type=Path, default=None,
                   help="write the built graph to this directory")
    s.add_argument("--timeout", type=float, default=60.0,
                   help="default per-job timeout in seconds")
    s.add_argument("--max-pending", type=int, default=64,
                   help="admission bound on queued jobs")
    s.add_argument("--cache", type=int, default=128,
                   help="result-cache capacity (0 disables)")
    s.add_argument("--updates", type=Path, default=None,
                   help="edge-update file ('[+|-] src dst [w]' per line); "
                        "applied after the first workload pass, then the "
                        "workload replays against the updated graph (with "
                        "--replicas N: fed live, interleaved with queries)")
    s.add_argument("--replicas", type=int, default=1,
                   help="serve through a replica group of this many engine "
                        "replicas (consistent-hash routing, admission "
                        "control, shared update log); 1 = single engine")
    s.add_argument("--max-inflight", type=int, default=8,
                   help="per-replica in-flight admission bound before the "
                        "router spills / sheds (replica group only)")
    s.add_argument("--snapshot-reads", action="store_true",
                   help="pin every read to its replica's current epoch "
                        "(MVCC snapshot isolation; replica group only)")
    s.add_argument("--update-batch", type=int, default=0,
                   help="split --updates into batches of this many updates "
                        "for live feeding (replica group only; 0 = one "
                        "batch)")
    s.add_argument("--status-json", action="store_true",
                   help="dump the final engine status as JSON")
    s.add_argument("--width", type=int, default=32, choices=(32, 64))
    add_backend(s)
    s.set_defaults(fn=_cmd_serve)

    t = sub.add_parser(
        "stream-apply",
        help="apply streaming edge updates with incremental analytics")
    t.add_argument("input", type=Path)
    t.add_argument("updates", type=Path,
                   help="text update file: '[+|-] src dst [weight]' per "
                        "line ('+' insert, '-' delete; '+' is the default)")
    t.add_argument("--ranks", type=int, default=4)
    t.add_argument("--partition", choices=("vblock", "rand"),
                   default="vblock")
    t.add_argument("--batch-size", type=int, default=0,
                   help="split the update file into batches of this many "
                        "updates (0 = one batch)")
    t.add_argument("--iters", type=int, default=10,
                   help="PageRank iterations per epoch")
    t.add_argument("--timeout", type=float, default=120.0,
                   help="per-collective-wait timeout seconds (0 disables)")
    t.add_argument("--width", type=int, default=32, choices=(32, 64))
    add_backend(t)
    t.set_defaults(fn=_cmd_stream_apply)

    k = sub.add_parser(
        "check", help="run the spmdlint SPMD-correctness static analysis "
                      "over the given sources as one whole program")
    k.add_argument("paths", nargs="*", type=Path,
                   help="files or directories to lint "
                        "(default: the installed repro package)")
    k.add_argument("--strict", action="store_true",
                   help="exit 1 when any unsuppressed, non-baselined "
                        "finding remains")
    k.add_argument("--format", choices=("text", "json", "github", "sarif"),
                   default="text",
                   help="output style: human text, machine JSON (with rule "
                        "doc anchors and suppression syntax), GitHub "
                        "Actions ::error annotations, or SARIF 2.1.0")
    k.add_argument("--select", nargs="*", metavar="SPMDxxx",
                   help="restrict to these rule ids (default: all)")
    k.add_argument("--show-suppressed", action="store_true",
                   help="also list suppressed findings in text output")
    k.add_argument("--baseline", type=Path, default=None, metavar="FILE",
                   help="grandfather findings recorded in this baseline "
                        "file (new findings still fail --strict)")
    k.add_argument("--write-baseline", type=Path, default=None,
                   metavar="FILE",
                   help="record current unsuppressed findings as the "
                        "baseline and continue")
    k.add_argument("--cache", type=Path, default=None, metavar="FILE",
                   help="content-hash findings cache (keyed on file "
                        "hash + summary-table digest + analyzer ruleset "
                        "digest)")
    k.add_argument("--fix", action="store_true",
                   help="apply the mechanical autofixes attached to "
                        "findings (SPMD013 unmap-wrap, PERF001/PERF003 "
                        "hoists), then re-lint and report the rest")
    k.add_argument("--check", "--fix-check", dest="fix_check",
                   action="store_true",
                   help="with --fix: dry run; exit 1 if --fix would "
                        "change any file (the CI drift gate)")
    k.set_defaults(fn=_cmd_check)

    return p


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
