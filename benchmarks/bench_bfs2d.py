"""1-D vs 2-D BFS frontier traffic: measured bytes and modeled crossover.

The 2-D checkerboard port (:mod:`repro.analytics.frontier2d`) replaces the
1-D frontier machinery — ghost halo exchanges plus discovered-vertex
``alltoallv`` over all ``p`` ranks — with two ``≈ √p``-member subgroup
collectives per level moving 1-bit/vertex packed bitmaps.  This bench
quantifies the trade on the R-MAT test graph:

1. **Measured traffic** (CommTrace): run ``distributed_bfs_dirop`` from the
   same root on the same edge chunks under the 1-D edge-block and the 2-D
   grid partitions at ``p = 8`` thread ranks, and count the frontier-exchange
   bytes and messages each scheme ships per BFS phase.  Scalar
   ``allreduce`` control traffic (frontier sizes, direction heuristic) is
   identical in both schemes and reported separately.  Both runs must agree
   bitwise on the level array (asserted).
2. **Modeled crossover** (α–β model, :mod:`repro.perf.model`): feed the
   exact per-rank volumes of both schemes (``bfs_like_costs`` vs the 2-D
   bitmap-traversal variant of ``pagerank_like_costs_2d``) through the
   Blue Waters and Compton machine presets across paper-scale node counts
   (the paper scales to 256 Blue Waters nodes) and report the smallest
   ``p`` at which the 2-D traversal is predicted to win.

Acceptance (ISSUE 9): at ``p = 8`` the 2-D kernels ship >= 30% fewer
frontier-exchange bytes per BFS phase than 1-D edge-block.

Run as a pytest-benchmark suite (``pytest benchmarks/bench_bfs2d.py``) or
as a CLI::

    python benchmarks/bench_bfs2d.py --write   # record BENCH_bfs2d.json
    python benchmarks/bench_bfs2d.py --smoke   # CI guard: byte counts are
                                               # deterministic; fail on drift

The smoke guard compares byte/message *ratios* (2-D relative to 1-D),
which depend only on the graph and the partition — not on machine load.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:  # CLI invocation from anywhere
    sys.path.insert(0, str(BENCH_DIR))
if not any((Path(p) / "repro").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import pytest

from _common import fmt_table, rmat_like_wc, rmat_n
from repro.analytics import (
    Frontier2D,
    distributed_bfs_dirop,
    grid_bfs_dirop,
    halo_of,
)
from repro.graph import build_dist_graph, build_grid_graph
from repro.partition import EdgeBlockPartition, GridEdgePartition
from repro.perf.costmodel import (
    PerRankCosts,
    bfs_like_costs,
    predict_iteration,
)
from repro.perf.model import BLUE_WATERS, COMPTON
from repro.perf.twod import pagerank_like_costs_2d
from repro.runtime import run_spmd

P = 8  # acceptance target: >= 30% fewer frontier bytes/phase at 8 ranks
FULL_N = 30_000  # R-MAT vertex universe rmat_n(FULL_N) = 32768
SMOKE_N = 2_000
AVG_DEGREE = 16.0
SEED = 1
MODEL_RANKS = (4, 16, 64, 256, 1024)  # paper scales to 256 BW nodes
BASELINE = BENCH_DIR / "BENCH_bfs2d.json"

#: Scalar control collectives (frontier counts, direction heuristic) are
#: identical in both schemes; everything else a BFS issues is frontier
#: exchange — 1-D: ghost halo + discovered-gid alltoallv on the world
#: communicator; 2-D: packed bitmap gathers/reduces on the subgroups.
#: Trace op names carry reduce-op tags ("allreduce[SUM]"), hence the
#: base-name match.
CTRL_OPS = frozenset({"allreduce", "barrier"})


def _is_ctrl(event) -> bool:
    return event.op.split("[", 1)[0] in CTRL_OPS


def _tally(frontier_events, ctrl_events) -> dict:
    return {
        "frontier_bytes": sum(e.bytes_sent for e in frontier_events),
        "frontier_msgs": sum(e.msg_count for e in frontier_events),
        "ctrl_bytes": sum(e.bytes_sent for e in ctrl_events),
    }


def _measure_traffic(p: int, n: int) -> dict:
    edges = rmat_like_wc(n, AVG_DEGREE, SEED)
    nv = rmat_n(n)
    # Highest out-degree vertex: inside the giant component, so the
    # traversal exercises the full direction-switch schedule.
    root = int(np.bincount(edges[:, 0], minlength=nv).argmax())

    def job(comm):
        chunk = np.array_split(edges, comm.size)[comm.rank]
        out: dict = {}

        # --- 1-D edge-block: halo + alltoallv frontier machinery -------
        part = EdgeBlockPartition.from_edge_chunks(comm, chunk[:, 0], nv)
        g = build_dist_graph(comm, chunk, part)
        halo_of(comm, g)  # setup outside the tally
        comm.barrier()
        comm.trace.reset()
        levels = distributed_bfs_dirop(comm, g, root)
        out["1d"] = _tally([e for e in comm.trace.events if not _is_ctrl(e)],
                           [e for e in comm.trace.events if _is_ctrl(e)])
        out["gids_1d"] = g.unmap[: g.n_loc].copy()
        out["levels_1d"] = levels

        # --- 2-D grid: packed-bitmap subgroup collectives --------------
        gpart = GridEdgePartition.from_edge_chunks(comm, chunk[:, 0], nv,
                                                   fallback=True)
        gg = build_grid_graph(comm, chunk, gpart)
        f2 = Frontier2D(comm, gg)  # pre-warms the cached subcomms
        subs = [s for s in (f2.row_comm, f2.col_comm) if s is not None]
        comm.barrier()
        comm.trace.reset()
        for sub in subs:
            sub.trace.reset()
        levels2 = grid_bfs_dirop(comm, gg, root, f2=f2)
        # The world trace must now hold only scalar control: the grid
        # kernel's frontier traffic runs entirely on the subgroups, so
        # *every* subgroup event (including the bitmap allreduce[BOR]
        # row reduce) counts as frontier exchange.
        assert all(_is_ctrl(e) for e in comm.trace.events)
        out["2d"] = _tally([e for sub in subs for e in sub.trace.events],
                           comm.trace.events)
        out["gids_2d"] = np.arange(gg.own_lo, gg.own_lo + gg.n_own,
                                   dtype=np.int64)
        out["levels_2d"] = levels2
        return out

    outs = run_spmd(p, job, backend="threads", timeout=600.0)

    def merged(gk, lk):
        gids = np.concatenate([o[gk] for o in outs])
        lev = np.concatenate([o[lk] for o in outs])
        return lev[np.argsort(gids)]

    lev_1d = merged("gids_1d", "levels_1d")
    lev_2d = merged("gids_2d", "levels_2d")
    assert np.array_equal(lev_1d, lev_2d)  # layout-invariant, bit for bit
    n_levels = int(lev_1d.max()) + 1

    doc: dict = {"meta": {"p": p, "n": nv, "m": int(len(edges)),
                          "root": root, "n_levels": n_levels}}
    for scheme in ("1d", "2d"):
        tot = {k: sum(o[scheme][k] for o in outs)
               for k in ("frontier_bytes", "frontier_msgs", "ctrl_bytes")}
        tot["frontier_bytes_per_phase"] = tot["frontier_bytes"] / n_levels
        tot["frontier_msgs_per_phase"] = tot["frontier_msgs"] / n_levels
        doc[scheme] = tot
    doc["reduction"] = {
        "bytes": 1.0 - doc["2d"]["frontier_bytes"] / doc["1d"]["frontier_bytes"],
        "msgs": 1.0 - doc["2d"]["frontier_msgs"] / doc["1d"]["frontier_msgs"],
    }
    return doc


# ---------------------------------------------------------------------------
# alpha-beta model: predicted 1-D/2-D crossover at paper-scale node counts
# ---------------------------------------------------------------------------
def _bfs2d_costs(edges: np.ndarray, n: int, p: int,
                 n_levels: int) -> PerRankCosts:
    """Per-traversal volumes of the 2-D bitmap BFS.

    Starts from the per-iteration slice volumes of
    :func:`pagerank_like_costs_2d` and rescales them to the traversal's
    wire format: each of the ``n_levels`` levels moves the full row/column
    slice again, but packed at 1 bit per vertex instead of an 8-byte
    value, over 2 subgroup rounds per level.
    """
    base = pagerank_like_costs_2d(edges, n, p)
    return PerRankCosts(
        nparts=p,
        work_edges=base.work_edges,
        ghost_recv=(n_levels * base.ghost_recv + 7) // 8,
        ghost_send=(n_levels * base.ghost_send + 7) // 8,
        peer_count=base.peer_count,
        rounds=2 * n_levels,
    )


def _model_crossover(edges: np.ndarray, n: int, n_levels: int) -> dict:
    degrees = np.bincount(edges[:, 0], minlength=n).astype(np.int64)
    out: dict = {"ranks": list(MODEL_RANKS), "machines": {}}
    for name, machine in (("blue_waters", BLUE_WATERS),
                          ("compton", COMPTON)):
        t1, t2 = [], []
        for p in MODEL_RANKS:
            c1 = bfs_like_costs(edges, EdgeBlockPartition(degrees, p),
                                n_levels)
            # 1-D ships 8-byte discovered gids; 2-D ships packed bitmaps
            # (bytes_per_value=1: _bfs2d_costs already counts bytes).
            t1.append(predict_iteration(c1, machine).total)
            c2 = _bfs2d_costs(edges, n, p, n_levels)
            t2.append(predict_iteration(c2, machine,
                                        bytes_per_value=1).total)
        cross = next((p for p, a, b in zip(MODEL_RANKS, t1, t2) if b < a),
                     None)
        out["machines"][name] = {"t_1d": t1, "t_2d": t2,
                                 "crossover_p": cross}
    return out


def _measure(smoke: bool) -> dict:
    n = SMOKE_N if smoke else FULL_N
    doc = _measure_traffic(P, n)
    doc["model"] = _model_crossover(
        rmat_like_wc(n, AVG_DEGREE, SEED), rmat_n(n),
        doc["meta"]["n_levels"])
    return doc


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------
def test_bfs2d_smoke_scale(benchmark):
    benchmark.pedantic(lambda: _measure(smoke=True), rounds=1, iterations=1)


def test_report_bfs2d(benchmark, report):
    doc = benchmark.pedantic(lambda: _measure(smoke=False),
                             rounds=1, iterations=1)
    report("", _format(doc))
    # Acceptance: >= 30% fewer frontier-exchange bytes per phase at p=8.
    assert doc["reduction"]["bytes"] >= 0.30


def _format(doc: dict) -> str:
    meta = doc["meta"]
    head = (f"BFS2D 1: R-MAT n={meta['n']:,} m={meta['m']:,} "
            f"p={meta['p']} root={meta['root']} "
            f"({meta['n_levels']} BFS phases)")
    rows = []
    for scheme, label in (("1d", "1-D eblock"), ("2d", "2-D grid")):
        d = doc[scheme]
        rows.append([label, f"{d['frontier_bytes']:,}",
                     f"{d['frontier_bytes_per_phase']:,.0f}",
                     f"{d['frontier_msgs']:,}", f"{d['ctrl_bytes']:,}"])
    rows.append(["reduction", f"{doc['reduction']['bytes']:.1%}", "",
                 f"{doc['reduction']['msgs']:.1%}", ""])
    table = fmt_table(
        ["scheme", "frontier B", "B/phase", "frontier msgs", "ctrl B"],
        rows, title="BFS2D 2: measured frontier-exchange traffic")
    mrows = []
    for name, m in doc["model"]["machines"].items():
        for p, a, b in zip(doc["model"]["ranks"], m["t_1d"], m["t_2d"]):
            mrows.append([name, p, f"{a:.4f}", f"{b:.4f}",
                          "2d" if b < a else "1d"])
        mrows.append([name, "crossover", "", "",
                      f"p>={m['crossover_p']}" if m["crossover_p"]
                      else "none"])
    mtable = fmt_table(["machine", "p", "t_1d (s)", "t_2d (s)", "winner"],
                       mrows,
                       title="BFS2D 3: alpha-beta predicted traversal time")
    return head + "\n" + table + "\n" + mtable


# ---------------------------------------------------------------------------
# CLI: --write records the baseline; --smoke guards against regression
# ---------------------------------------------------------------------------
def _ratios(doc: dict) -> dict[str, float]:
    """Load-invariant shape of a measurement: 2-D/1-D traffic ratios."""
    return {
        "frontier_bytes_ratio": (doc["2d"]["frontier_bytes"]
                                 / doc["1d"]["frontier_bytes"]),
        "frontier_msgs_ratio": (doc["2d"]["frontier_msgs"]
                                / doc["1d"]["frontier_msgs"]),
    }


def _compare(doc: dict, base: dict) -> list[str]:
    want, got = _ratios(base), _ratios(doc)
    failures = []
    for key, base_ratio in want.items():
        now = got.get(key)
        # Byte counts are deterministic for a fixed graph and p; a small
        # tolerance absorbs benign wire-format tweaks, a real regression
        # (2-D shipping relatively more) trips the guard.
        if now is None:
            failures.append(f"{key}: missing from current run")
        elif now > base_ratio * 1.10 + 0.01:
            failures.append(
                f"{key}: {now:.3f} vs baseline {base_ratio:.3f} "
                f"(2-D traffic regressed >10% relative to 1-D)")
        else:
            print(f"ok: {key} {now:.3f} (baseline {base_ratio:.3f})")
    return failures


def main(argv: list[str] | None = None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="small graph; compare traffic ratios against the "
                         "recorded baseline and fail on drift")
    ap.add_argument("--write", action="store_true",
                    help="record the measurement as the new baseline")
    ap.add_argument("--json", type=Path, default=BASELINE,
                    help=f"baseline path (default {BASELINE.name})")
    args = ap.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    doc = _measure(smoke=args.smoke)
    print(_format(doc))
    print()

    if mode == "full" and doc["reduction"]["bytes"] < 0.30:
        print("FAIL: <30% frontier-byte reduction per phase at p=8",
              file=sys.stderr)
        return 1

    stored = (json.loads(args.json.read_text())
              if args.json.exists() else {})
    if args.write or mode not in stored:
        stored[mode] = doc
        args.json.write_text(json.dumps(stored, indent=2) + "\n")
        print(f"baseline[{mode}] written: {args.json}")
        return 0

    failures = _compare(doc, stored[mode])
    if failures:
        print("\n".join("REGRESSION: " + f for f in failures),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
