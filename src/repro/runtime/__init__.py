"""SPMD runtime: the distributed-memory substrate of the reproduction.

The paper's codes run one MPI task per compute node and communicate via
collectives.  This package provides the same programming model in-process:

* :func:`run_spmd` — launch an SPMD function on ``p`` thread-ranks
  (the ``mpiexec -n p`` analogue);
* :class:`Communicator` — per-rank handle with MPI-style collectives
  (``alltoallv``, ``allreduce``, ``allgatherv``, ``bcast``, …), fully traced;
* :mod:`~repro.runtime.reduceops` — predefined reduction operators;
* :class:`~repro.runtime.threadqueue.SharedSendQueues` — the paper's
  OpenMP thread-local queue scheme (Algorithm 3), for ablation studies.

Example
-------
>>> from repro.runtime import run_spmd, SUM
>>> def hello(comm):
...     return comm.allreduce(comm.rank, SUM)
>>> run_spmd(4, hello)
[6, 6, 6, 6]
"""

from .backends import (
    BACKEND_ENV,
    backend_names,
    get_backend,
)
from .comm import AlltoallvPlan, VERIFY_ENV, Communicator, World, verify_from_env
from .errors import (
    BufferRaceError,
    CollectiveMismatchError,
    CommUsageError,
    RankAborted,
    SlotRaceError,
    SpmdError,
    SpmdLaunchError,
)
from .launcher import run_spmd, spmd_traces
from .sanitize import SANITIZE_ENV, GuardedBuffer, sanitize_from_env
from .reduceops import (
    BAND,
    BOR,
    BXOR,
    LAND,
    LOR,
    MAX,
    MAXLOC,
    MIN,
    MINLOC,
    PROD,
    SUM,
    ReduceOp,
)
from .threadqueue import SharedSendQueues, ThreadLocalQueue
from .trace import CommEvent, CommTrace, aggregate_summaries

__all__ = [
    "AlltoallvPlan",
    "Communicator",
    "World",
    "run_spmd",
    "spmd_traces",
    "ReduceOp",
    "SUM",
    "PROD",
    "MAX",
    "MIN",
    "LAND",
    "LOR",
    "BAND",
    "BOR",
    "BXOR",
    "MAXLOC",
    "MINLOC",
    "SpmdError",
    "SpmdLaunchError",
    "BACKEND_ENV",
    "get_backend",
    "backend_names",
    "RankAborted",
    "CommUsageError",
    "CollectiveMismatchError",
    "SlotRaceError",
    "BufferRaceError",
    "GuardedBuffer",
    "VERIFY_ENV",
    "verify_from_env",
    "SANITIZE_ENV",
    "sanitize_from_env",
    "CommEvent",
    "CommTrace",
    "aggregate_summaries",
    "SharedSendQueues",
    "ThreadLocalQueue",
]
