"""Durability verification: check the paper's guarantee mechanically.

The system's contract is that **every acknowledged commit is durable**:
after any covered failure/recovery sequence, reading each written row at
the transaction's commit timestamp returns exactly that transaction's
version.  :class:`CommitLedger` records acknowledgements as they happen
(wrap your commits with :meth:`executed`) and :meth:`verify` audits the
cluster afterwards, returning every violation -- an empty list is the
proof the chaos tests and examples assert on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.cluster import SimCluster
from repro.kvstore.client import KvClient
from repro.txn.context import TxnContext


@dataclass(frozen=True)
class AcknowledgedCommit:
    """One commit the application saw succeed."""

    commit_ts: int
    client_id: str
    table: str
    cells: Tuple[Tuple[str, str, Any], ...]  # (row, column, value)


@dataclass(frozen=True)
class RecordedTxn:
    """One finished transaction of any outcome (the complete record).

    ``outcome`` is ``"committed"``, ``"aborted"``, or ``"read_only"``
    (a committed transaction that wrote nothing).  Acked *writers* also
    land in :attr:`CommitLedger.commits` for the durability audit; this
    record keeps the rest of the history -- aborts and read-only commits
    -- so recorded histories are complete.
    """

    outcome: str
    client_id: str
    txn_id: int
    start_ts: int
    commit_ts: Optional[int] = None
    abort_reason: Optional[str] = None
    n_writes: int = 0


@dataclass
class Violation:
    """One acknowledged write that is not durably readable."""

    commit_ts: int
    table: str
    row: str
    column: str
    expected: Any
    found: Optional[Tuple[int, Any]]

    def __str__(self) -> str:
        return (
            f"txn {self.commit_ts}: {self.table}/{self.row}/{self.column} "
            f"expected {self.expected!r}, found {self.found!r}"
        )


@dataclass
class CommitLedger:
    """Records finished transactions; audits acked commits against the store.

    :attr:`commits` keeps acknowledged writers (the durability audit's
    input, and the ledger's original surface -- ``len()`` still counts
    only these); :attr:`outcomes` additionally keeps aborted and
    read-only transactions, so the ledger is a complete account of what
    the application observed.
    """

    commits: List[AcknowledgedCommit] = field(default_factory=list)
    outcomes: List[RecordedTxn] = field(default_factory=list)

    def record(self, ctx: TxnContext, table: str) -> None:
        """Record one finished transaction context (any outcome).

        Kept as the one entry point the old API had: committed writers
        land in :attr:`commits` exactly as before, and every call now
        also appends the full outcome record to :attr:`outcomes`.
        """
        self.record_outcome(ctx)
        if ctx.commit_ts is None or ctx.read_only:
            return
        cells = tuple(
            (row, column, value)
            for (t, row, column), value in sorted(ctx.write_set.writes.items())
            if t == table
        )
        self.commits.append(
            AcknowledgedCommit(
                commit_ts=ctx.commit_ts,
                client_id=ctx.client_id,
                table=table,
                cells=cells,
            )
        )

    def record_outcome(self, ctx: TxnContext) -> None:
        """Record a transaction's outcome without auditing its cells."""
        if ctx.commit_ts is None:
            outcome = "aborted"
        elif ctx.read_only:
            outcome = "read_only"
        else:
            outcome = "committed"
        self.outcomes.append(
            RecordedTxn(
                outcome=outcome,
                client_id=ctx.client_id,
                txn_id=ctx.txn_id,
                start_ts=ctx.start_ts,
                commit_ts=ctx.commit_ts,
                abort_reason=ctx.abort_reason,
                n_writes=len(ctx.write_set.writes),
            )
        )

    def outcome_counts(self) -> dict:
        """``{outcome: count}`` over everything recorded (sorted keys)."""
        counts: dict = {}
        for rec in self.outcomes:
            counts[rec.outcome] = counts.get(rec.outcome, 0) + 1
        return {k: counts[k] for k in sorted(counts)}

    def executed(self, cluster: SimCluster, txn_gen, table: str):
        """Run a commit-producing generator and record its context.

        (Generator API.)  ``txn_gen`` must return the committed
        :class:`TxnContext`; aborts should raise, which propagates.
        """
        ctx = yield from txn_gen
        self.record(ctx, table)
        return ctx

    # ------------------------------------------------------------------
    # auditing
    # ------------------------------------------------------------------
    def verify(self, cluster: SimCluster, kv: Optional[KvClient] = None) -> List[Violation]:
        """Audit every recorded commit against the (recovered) store.

        Reads each written cell at the commit timestamp: the store must
        return exactly that version.  A later write cannot shadow it (its
        version would exceed the snapshot), so any mismatch is data loss
        or corruption.  Returns all violations found.
        """
        if kv is None:
            # Named from the client count, which every add_client() grows:
            # the event count can stand still between two audits.
            auditor = cluster.add_client(f"auditor{len(cluster.clients)}")
            kv = auditor.kv
        violations: List[Violation] = []

        def audit_one(commit):
            out = []
            for row, column, value in commit.cells:
                got = yield from kv.get(
                    commit.table, row, column, max_version=commit.commit_ts,
                    max_retries=40,
                )
                expected_value = value  # tombstones recorded as None
                if got is None or got[0] != commit.commit_ts or got[1] != expected_value:
                    if expected_value is None and (
                        got is None or got[1] is None
                    ):
                        continue  # a delete: absence or tombstone is correct
                    out.append(
                        Violation(
                            commit_ts=commit.commit_ts,
                            table=commit.table,
                            row=row,
                            column=column,
                            expected=expected_value,
                            found=got,
                        )
                    )
            return out

        for commit in self.commits:
            violations.extend(cluster.run(audit_one(commit)))
        return violations

    def __len__(self) -> int:
        return len(self.commits)
