"""Crash recovery for SRUMMA: reassigning a dead rank's remaining work.

When a :class:`~repro.sim.faults.NodeCrash` kills a node mid-run, the
surviving ranks finish the dead ranks' C blocks without a global restart.
The protocol (docs/resilience.md has the full narrative):

1. **Detection.**  Transfers touching the dead node fail in flight with
   :class:`~repro.comm.base.NodeCrashedError` (swept by the ARMCI runtime
   at the crash instant), and any later get blocked on a silent peer
   escalates through the ``get_timeout`` of the installed fault plan.
   Either way the robust wait in :func:`~repro.core.srumma.srumma_rank`
   observes the failure and re-issues against the owner's replica.

2. **Checkpoint board.**  While healthy, every rank ships its C block to
   a *buddy* (the same grid position one node over) every
   ``FaultPlan.checkpoint_interval`` completed tasks.  The board records
   the durable task count — and, on real-payload runs, the snapshot —
   only when the checkpoint put *completes*, so a crash mid-checkpoint
   falls back to the previous durable state.  Checkpoint 0 is free: the
   buddy's replica of the freshly beta-scaled block is established while
   the operands are loaded, exactly like the A/B replication that lets
   gets redirect to :meth:`~repro.sim.cluster.Machine.replica_of`.

3. **Reassignment.**  The first survivor to finish its own task list
   builds the assignment: for every dead rank, rebuild its *ordered*
   task list (the checkpoint count indexes that order), restore the dead
   C block to the durable snapshot, and deal the remaining tasks
   round-robin over the live grid ranks that have not yet left recovery.
   Owner-computes is preserved — each re-executed task still targets the
   dead rank's C block, now accumulated via a survivor-local partial.

4. **Write-back.**  Each survivor runs its share through the dynamic
   executor (remote prefetch + robust waits, operands of dead owners
   fetched from replicas), then ships one partial-C put to the dead
   rank's replica; contributions land when the put completes.

Known limitation, accepted for the model: ranks that returned from
``srumma_rank`` *before* the crash cannot rejoin (their simulated process
is gone), so they take no recovery share.  For the mid-run crashes the
resilience experiment injects (25/50/75 % progress) every survivor is
still inside the call and participates.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = ["RecoveryBoard", "board_for", "build_assignment"]


class RecoveryBoard:
    """Shared (per-machine) recovery state: checkpoints and assignment.

    Lives outside simulated time — it models node-resident metadata that
    survives because checkpoints only become *durable* on put completion.
    """

    def __init__(self) -> None:
        self.durable: dict[int, int] = {}
        """rank -> completed-task count covered by the last durable checkpoint."""
        self.snapshots: dict[int, object] = {}
        """rank -> C-block snapshot at the durable checkpoint (real runs only)."""
        self.finished: set[int] = set()
        """Ranks that completed their own task list (no recovery needed)."""
        self.exited: set[int] = set()
        """Ranks that already left the recovery phase (cannot take work)."""
        self.assignment: Optional[dict[int, list[tuple[int, int]]]] = None
        """survivor rank -> [(dead rank, task index), ...], built once."""
        self.dead_plans: dict[int, tuple] = {}
        """dead rank -> its ordered task tuple (index space of ``durable``)."""
        self.claim_epoch: dict[int, int] = {}
        """dead rank -> membership epoch stamped on recovery write-backs
        (fence-at-claim: recorded when the block is claimed for recovery,
        so the presumed-dead owner's own late commit carries an older
        stamp and is rejected at the distarray layer)."""
        self.staging: dict[int, object] = {}
        """dead rank -> recovery working copy of its C block (real runs).
        Survivors accumulate admitted partials here and refresh the
        segment wholesale, so a retried put never double-adds."""

    def record(self, rank: int, count: int, snapshot=None) -> None:
        """Mark ``count`` tasks durable for ``rank`` (called on put completion).

        Monotone: a stale completion (reordered under contention) never
        regresses the durable state.
        """
        if count >= self.durable.get(rank, -1):
            self.durable[rank] = count
            if snapshot is not None:
                self.snapshots[rank] = snapshot


def board_for(machine) -> RecoveryBoard:
    """The machine's recovery board, created on first use (one per run)."""
    board = getattr(machine, "_recovery_board", None)
    if board is None:
        board = RecoveryBoard()
        machine._recovery_board = board
    return board


def build_assignment(machine, board: RecoveryBoard, dead: list[int],
                     grid_nranks: int,
                     restore: Callable[[int], None],
                     plan_tasks: Callable[[int], tuple]) -> None:
    """Populate ``board.assignment`` for the given dead ranks (idempotent
    by construction: callers only invoke this while ``assignment`` is None).

    ``restore(d)`` rolls rank ``d``'s C block back to its durable snapshot
    (a no-op for synthetic runs); ``plan_tasks(d)`` rebuilds ``d``'s
    ordered task tuple — ordering must match what ``d`` itself executed,
    since the durable count indexes into it.

    With imperfect detection (:class:`~repro.sim.membership.Membership`
    installed) ``dead`` is the *builder's belief* — presumed-dead ranks,
    some possibly alive stragglers.  Claiming a block fences it: the
    membership epoch at claim time is recorded in ``board.claim_epoch``
    and stamped on every recovery write-back, so a falsely-suspected
    owner's later commit (stamped with the pre-claim generation) is
    rejected instead of double-counting.  A presumed-dead rank is also
    excluded from the participant pool even when it is physically alive.
    """
    dead_set = set(dead)
    participants = sorted(
        r for r in range(grid_nranks)
        if not machine.rank_is_dead(r) and r not in dead_set
        and r not in board.exited)
    if not participants:
        raise RuntimeError("no live ranks left to recover crashed work")
    membership = getattr(machine, "membership", None)
    assignment: dict[int, list[tuple[int, int]]] = {r: [] for r in participants}
    dealt = 0
    for d in sorted(dead):
        if d in board.finished:
            continue  # its C block was complete before the node died
        tasks = plan_tasks(d)
        board.dead_plans[d] = tasks
        if membership is not None:
            board.claim_epoch[d] = membership.claim(d)
        restore(d)
        for ti in range(board.durable.get(d, 0), len(tasks)):
            assignment[participants[dealt % len(participants)]].append((d, ti))
            dealt += 1
    board.assignment = assignment
    machine.tracer.bump("fault:recovery_tasks", dealt)

