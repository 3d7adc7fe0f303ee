"""Static SPMD correctness analysis ("spmdlint").

The runtime's invariants are enforced statically by this package, walking
Python sources with :mod:`ast` before any code runs.  ``repro check`` is
one whole-program pass (:mod:`.program`): whatever it is given is one
program, with one module-level call graph (:mod:`.callgraph`) and one
per-function summary table over it (:mod:`.summaries`), and every rule
family runs against that table.  The flow-sensitive families share one
statement walker (:mod:`.walker`):

* **schedule** — every rank of a world calls the same sequence of
  collectives with compatible arguments, within a function and across
  call boundaries (:mod:`.spmdlint`, SPMD001–005 and SPMD009–011; the
  dynamic companion is ``REPRO_VERIFY_COLLECTIVES=1``);
* **ownership** — payloads borrowed from copy=False collectives are never
  mutated or leaked to shared locations (:mod:`.racecheck`, SPMD006–008;
  the dynamic companion is ``REPRO_SANITIZE_BUFFERS=1``);
* **backend portability** — no closures, lambdas, or unpicklable values
  flow into ``run_spmd``/``AnalyticsEngine`` launches (:mod:`.picklecheck`,
  SPMD012; the dynamic companion is the launch-time
  ``find_unpicklable`` diagnostic in :mod:`repro.runtime.backends.base`);
* **distribution state** — id-carrying values stay in their index space
  (global/local/owner) and ghost-extended arrays are fresh when read,
  via flow-sensitive abstract interpretation (:mod:`.distcheck`,
  SPMD013–016 and the PERF001–003 performance rules; mechanical findings
  carry autofixes applied by ``repro check --fix``).

Rules (each suppressible with ``# spmdlint: disable=SPMDxxx``):

========  ==================================================================
SPMD001   collectives differ between the arms of a rank-dependent branch
SPMD002   conditional early exit (return/raise/continue/break) under a
          rank-dependent or rank-local condition skips later collectives
SPMD003   collective inside a loop whose trip count is not derived from a
          replicated value (allreduce/bcast result, argument, constant)
SPMD004   object-pickling collective on a hot path (inside a loop) where a
          buffer collective exists
SPMD005   reduction input built from unordered set iteration
          (non-deterministic ordering across ranks)
SPMD006   in-place mutation of a payload borrowed from a copy=False
          collective (the write aliases every rank)
SPMD007   buffer mutated after being published to a copy=False collective
          (peer ranks may still be reading it)
SPMD008   borrowed collective payload stored to a shared location
          (global/attribute/caller-visible container) without an owning copy
SPMD009   collective (transitively, via helper calls) reachable only under
          rank-dependent control flow
SPMD010   rank-dependent value passed into a parameter the callee uses to
          gate or size a collective
SPMD011   conflicting transitive collective sequences on two paths to the
          same join point
SPMD012   closure/lambda/unpicklable value flows into an SPMD launch
          (fails at spawn on the procs/mpi backends)
SPMD013   index-space confusion: a local id flows into ``map.get`` or a
          global id indexes ``unmap``/a locally-allocated array
          (interprocedural via parameter expectations)
SPMD014   ghost slice of a ghost-extended array read after a local write
          with no intervening halo exchange (stale ghosts)
SPMD015   whole-array reduction over a ghost-extended array
          (ghost copies double-counted; reduce ``x[:n_loc]``)
SPMD016   collective reduction buffer whose shape differs across ranks at
          its construction site (rank-derived or n_loc-sized)
PERF001   loop-invariant collective inside an iteration loop
          (auto-hoisted by ``--fix``)
PERF002   object-list collective over ``np.split`` parts where
          ``alltoallv_flat`` sends the same bytes without pickling
          (flat-path substitution suggested via SARIF fixes)
PERF003   per-iteration ndarray allocation feeding an exchange/collective
          sink in a hot loop (``np.empty`` auto-hoisted by ``--fix``)
========  ==================================================================

Use :func:`lint_paths` (or :func:`lint_file` / :func:`lint_source`)
programmatically, or the CLI::

    python -m repro check src/repro --strict --format sarif
"""

from .distcheck import DIST_RULES, PERF_RULES
from .fixer import apply_fixes, fix_files, fixable
from .picklecheck import PORTABILITY_RULES
from .program import (
    FindingsCache,
    apply_baseline,
    baseline_key,
    lint_file,
    lint_paths,
    lint_source,
    load_baseline,
    write_baseline,
)
from .racecheck import OWNERSHIP_RULES
from .spmdlint import (
    DEEP_RULES,
    RULE_DOCS,
    RULE_FIXES,
    RULES,
    SCHEDULE_RULES,
    Finding,
    suppression_hint,
)

__all__ = ["Finding", "RULES", "SCHEDULE_RULES", "OWNERSHIP_RULES",
           "DEEP_RULES", "PORTABILITY_RULES", "DIST_RULES", "PERF_RULES",
           "RULE_DOCS", "RULE_FIXES", "lint_source", "lint_file",
           "lint_paths", "FindingsCache",
           "load_baseline", "write_baseline", "apply_baseline",
           "baseline_key", "suppression_hint",
           "apply_fixes", "fix_files", "fixable"]
