//! Transactions and the transaction log.
//!
//! Every committed mutation appends a [`Transaction`] that names the
//! changed records by their **data keys** ([`DataKey`]). The log is the
//! one record of commits: a trigger monitor reads it past its watermark,
//! resolves each data key, by arithmetic, to its underlying-data vertex in
//! the object dependence graph and feeds it to DUP.
//!
//! A site's replica (Figure 5 of the paper) is a log too, one whose ids
//! are the master's: its watermark is its length. It takes a transaction
//! shipped to it only when that is next in sequence ([`TxnLog::deliver`]),
//! so it never holds one out of order, and closes a gap by pulling past
//! its length from whichever log feeds it ([`TxnLog::catch_up`]): the
//! master's, or an upstream site's. Either step keeps the master's
//! allocation of each transaction. Row payloads live in shared storage:
//! what is replicated per site is the stream of commits.

use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nagano_simcore::sync::{Condvar, Mutex};

use crate::key::{DataKey, Datum};

/// Monotonic transaction identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxnId(pub u64);

/// What happened to a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeOp {
    /// Record created.
    Insert,
    /// Record modified.
    Update,
    /// Record deleted.
    Delete,
}

/// One changed record inside a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordChange {
    /// The record's data key (e.g. `data:event:12`).
    pub data_key: DataKey,
    /// The operation applied.
    pub op: ChangeOp,
}

impl RecordChange {
    /// Shorthand constructor for an update.
    pub fn update(datum: Datum) -> Self {
        RecordChange {
            data_key: DataKey::new(datum),
            op: ChangeOp::Update,
        }
    }

    /// Shorthand constructor for an insert.
    pub fn insert(datum: Datum) -> Self {
        RecordChange {
            data_key: DataKey::new(datum),
            op: ChangeOp::Insert,
        }
    }
}

/// A committed transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Log sequence number.
    pub id: TxnId,
    /// Records changed, in application order.
    pub changes: Vec<RecordChange>,
    /// Human-readable description ("XC 10km final results").
    pub label: String,
    /// Day of the Games this commit belongs to (workload context; 0 when
    /// not applicable, e.g. seeding).
    pub day: u32,
}

/// What a replica did with one transaction shipped to it
/// ([`TxnLog::deliver`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliverOutcome {
    /// Next in sequence: pushed onto the log.
    Applied,
    /// At or below the log's length (a reordered or re-sent message that
    /// already arrived another way); ignored.
    Duplicate,
    /// Ahead of the next id: an earlier message was lost. The log stays as
    /// it is; a [`TxnLog::catch_up`] fills the gap.
    Gap {
        /// The id the log takes next.
        expected: TxnId,
    },
}

/// Append-only transaction log. A consumer reads on from the last
/// transaction it took ([`TxnLog::get`], [`TxnLog::since`]), so it misses
/// none; one with nothing to read waits ([`TxnLog::wait_past`]).
#[derive(Debug, Default)]
pub struct TxnLog {
    inner: Mutex<LogInner>,
    /// `inner`'s entry count, polled without the lock.
    committed: AtomicU64,
    /// Woken by an append while a thread waits in [`TxnLog::wait_past`].
    appended: Condvar,
}

#[derive(Debug, Default)]
struct LogInner {
    entries: Vec<Arc<Transaction>>,
    /// Threads in [`TxnLog::wait_past`]: with none, an append wakes none.
    waiting: usize,
}

impl TxnLog {
    /// New empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a transaction, assigning its id, and wake the threads
    /// waiting for it.
    pub fn append(&self, changes: Vec<RecordChange>, label: String, day: u32) -> Arc<Transaction> {
        let Ok(txn) = self.push::<Infallible>(|id| {
            Ok(Arc::new(Transaction {
                id,
                changes,
                label,
                day,
            }))
        });
        txn
    }

    /// Take `txn`, a transaction of the master's log shipped to this
    /// replica, if it is next in sequence; see [`DeliverOutcome`].
    pub fn deliver(&self, txn: &Arc<Transaction>) -> DeliverOutcome {
        let pushed = self.push(|next| {
            if txn.id == next {
                Ok(Arc::clone(txn))
            } else if txn.id < next {
                Err(DeliverOutcome::Duplicate)
            } else {
                Err(DeliverOutcome::Gap { expected: next })
            }
        });
        pushed.map_or_else(|outcome| outcome, |_| DeliverOutcome::Applied)
    }

    /// Pull what `upstream` holds past this replica's length and take it
    /// in order; returns the transactions taken. `upstream` is whichever
    /// log feeds this one: the master's, or another replica's.
    pub fn catch_up(&self, upstream: &TxnLog) -> Vec<Arc<Transaction>> {
        // Read upstream first and let go of its lock: two logs' locks never nest.
        let mut missed = upstream.since(TxnId(self.len() as u64));
        missed.retain(|txn| self.deliver(txn) == DeliverOutcome::Applied);
        missed
    }

    /// The one way onto the log: under its lock `next` is handed the id
    /// the log takes next and returns the transaction to push there, or
    /// why it pushes none. A push moves the committed count on and wakes
    /// the threads waiting for it.
    fn push<E>(
        &self,
        next: impl FnOnce(TxnId) -> Result<Arc<Transaction>, E>,
    ) -> Result<Arc<Transaction>, E> {
        let (pushed, waiting) = {
            let mut inner = self.inner.lock();
            let id = TxnId(inner.entries.len() as u64 + 1);
            let pushed = next(id);
            if let Ok(txn) = &pushed {
                inner.entries.push(Arc::clone(txn));
                self.committed.store(id.0, Ordering::Release);
            }
            (pushed, inner.waiting)
        };
        if pushed.is_ok() && waiting > 0 {
            self.appended.notify_all();
        }
        pushed
    }

    /// Number of committed transactions; takes no lock.
    pub fn len(&self) -> usize {
        self.committed.load(Ordering::Acquire) as usize
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch a committed transaction by id.
    pub fn get(&self, id: TxnId) -> Option<Arc<Transaction>> {
        let inner = self.inner.lock();
        if id.0 == 0 {
            return None;
        }
        inner.entries.get(id.0 as usize - 1).cloned()
    }

    /// All transactions with id strictly greater than `after` (log
    /// shipping pull).
    pub fn since(&self, after: TxnId) -> Vec<Arc<Transaction>> {
        let inner = self.inner.lock();
        inner
            .entries
            .iter()
            .skip(after.0 as usize)
            .cloned()
            .collect()
    }

    /// Wait until the log holds a transaction past `after`, or `timeout`
    /// has passed. A blocking call: make it through
    /// `nagano_simcore::sync::blocking!`.
    pub fn wait_past(&self, after: TxnId, timeout: Duration) {
        let mut inner = self.inner.lock();
        inner.waiting += 1;
        let (mut inner, _) = self.appended.wait_timeout_while(inner, timeout, |inner| {
            inner.entries.len() as u64 <= after.0
        });
        inner.waiting -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_assigns_sequential_ids() {
        let log = TxnLog::new();
        let change = RecordChange::update(Datum::Event(crate::EventId(1)));
        let a = log.append(vec![change], "a".into(), 1);
        let b = log.append(vec![], "b".into(), 1);
        assert_eq!(a.id, TxnId(1));
        assert_eq!(b.id, TxnId(2));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn get_and_since() {
        let log = TxnLog::new();
        for i in 0..5 {
            log.append(vec![], format!("t{i}"), 1);
        }
        assert_eq!(log.get(TxnId(3)).unwrap().label, "t2");
        assert!(log.get(TxnId(0)).is_none());
        assert!(log.get(TxnId(6)).is_none());
        assert_eq!(log.len(), 5);
        let tail = log.since(TxnId(3));
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].id, TxnId(4));
        assert!(log.since(TxnId(5)).is_empty());
    }

    /// Commit `n` transactions to `master`; returns them, in log order.
    fn commit(master: &TxnLog, n: usize) -> Vec<Arc<Transaction>> {
        let change = RecordChange::update(Datum::Event(crate::EventId(1)));
        (0..n)
            .map(|i| master.append(vec![change], format!("t{i}"), 2))
            .collect()
    }

    /// Master transactions `replica` does not hold yet.
    fn lag(master: &TxnLog, replica: &TxnLog) -> usize {
        master.len() - replica.len()
    }

    #[test]
    fn replica_applies_in_order() {
        let (master, tokyo) = (TxnLog::new(), TxnLog::new());
        let txns = commit(&master, 2);
        assert_eq!(lag(&master, &tokyo), 2);
        for txn in &txns {
            assert_eq!(tokyo.deliver(txn), DeliverOutcome::Applied);
        }
        assert_eq!(tokyo.len(), 2);
        assert_eq!(lag(&master, &tokyo), 0);
    }

    #[test]
    fn a_shipped_transaction_is_the_masters_allocation() {
        let (master, schaumburg, columbus) = (TxnLog::new(), TxnLog::new(), TxnLog::new());
        let txns = commit(&master, 2);
        assert_eq!(schaumburg.deliver(&txns[0]), DeliverOutcome::Applied);
        assert_eq!(schaumburg.catch_up(&master).len(), 1);
        assert_eq!(columbus.catch_up(&schaumburg).len(), 2);
        for (id, txn) in (1..).zip(&txns) {
            for log in [&schaumburg, &columbus] {
                let held = log.get(TxnId(id)).expect("shipped");
                assert!(Arc::ptr_eq(&held, txn), "a copy of txn {id}");
            }
        }
    }

    #[test]
    fn chained_replication_fans_out() {
        let (master, schaumburg, columbus) = (TxnLog::new(), TxnLog::new(), TxnLog::new());
        let txns = commit(&master, 1);
        // Columbus sees nothing until Schaumburg applies.
        assert!(columbus.catch_up(&schaumburg).is_empty());
        assert_eq!(schaumburg.deliver(&txns[0]), DeliverOutcome::Applied);
        let relayed = columbus.catch_up(&schaumburg);
        assert_eq!(relayed.len(), 1);
        assert_eq!(relayed[0].changes, txns[0].changes);
        assert_eq!(columbus.len(), 1);
    }

    #[test]
    fn partial_pump_tracks_watermark() {
        let (master, site) = (TxnLog::new(), TxnLog::new());
        let txns = commit(&master, 5);
        for txn in &txns[..2] {
            site.deliver(txn);
        }
        assert_eq!(site.len(), 2);
        assert_eq!(lag(&master, &site), 3);
        assert_eq!(site.catch_up(&master).len(), 3);
        assert_eq!(lag(&master, &site), 0);
    }

    #[test]
    fn the_replica_log_holds_the_delivered_stream() {
        let (master, site) = (TxnLog::new(), TxnLog::new());
        let txns = commit(&master, 1);
        assert!(site.get(TxnId(1)).is_none(), "not visible before delivery");
        assert_eq!(site.deliver(&txns[0]), DeliverOutcome::Applied);
        let txn = site.get(TxnId(1)).unwrap();
        assert!(txn.changes.iter().any(|c| c.data_key == "data:event:1"));
    }

    #[test]
    fn deliver_applies_in_sequence_and_flags_gaps_and_duplicates() {
        let (master, site) = (TxnLog::new(), TxnLog::new());
        let [t1, t2, t3] = <[_; 3]>::try_from(commit(&master, 3)).unwrap();
        assert_eq!(site.deliver(&t1), DeliverOutcome::Applied);
        // Lost t2, t3 arrives first: gap, length unmoved.
        assert_eq!(
            site.deliver(&t3),
            DeliverOutcome::Gap { expected: TxnId(2) }
        );
        assert_eq!(site.len(), 1);
        // t2 arrives late (reordered): applied, then t3 again: applied.
        assert_eq!(site.deliver(&t2), DeliverOutcome::Applied);
        assert_eq!(site.deliver(&t3), DeliverOutcome::Applied);
        // A re-sent old message is a duplicate.
        assert_eq!(site.deliver(&t1), DeliverOutcome::Duplicate);
        assert_eq!(site.len(), 3);
    }

    #[test]
    fn catch_up_closes_the_gap_from_the_watermark() {
        let (master, site) = (TxnLog::new(), TxnLog::new());
        let txns = commit(&master, 4);
        site.deliver(&txns[0]);
        let missed = site.catch_up(&master);
        assert_eq!(missed.len(), 3);
        assert_eq!(missed[0].id, TxnId(2));
        // The replica's ids stay aligned with the master's.
        assert_eq!(site.len(), 4);
        assert_eq!(site.get(TxnId(4)).unwrap().id, TxnId(4));
        assert!(
            site.catch_up(&master).is_empty(),
            "idempotent when caught up"
        );
    }

    #[test]
    fn catch_up_reads_whichever_upstream_it_is_handed() {
        let (master, tokyo, schaumburg) = (TxnLog::new(), TxnLog::new(), TxnLog::new());
        commit(&master, 3);
        // Tokyo is healthy and holds everything; Schaumburg's own feed is
        // partitioned, so it pulls Tokyo's log (the DR re-feed).
        assert_eq!(tokyo.catch_up(&master).len(), 3);
        let missed = schaumburg.catch_up(&tokyo);
        assert_eq!(missed.len(), 3);
        assert_eq!(schaumburg.len(), 3);
        // A pull from Tokyo takes only what Tokyo holds.
        commit(&master, 1);
        assert!(schaumburg.catch_up(&tokyo).is_empty());
        // Back on the master's log, the new commit flows.
        assert_eq!(schaumburg.catch_up(&master).len(), 1);
        assert_eq!(schaumburg.len(), 4);
    }

    #[test]
    fn chained_pull_replicas_catch_up_through_the_chain() {
        let (master, schaumburg, columbus) = (TxnLog::new(), TxnLog::new(), TxnLog::new());
        commit(&master, 2);
        // Columbus's feed is Schaumburg's log: empty until Schaumburg applies.
        assert!(columbus.catch_up(&schaumburg).is_empty());
        assert_eq!(schaumburg.catch_up(&master).len(), 2);
        let missed = columbus.catch_up(&schaumburg);
        assert_eq!(missed.len(), 2);
        assert_eq!(columbus.len(), 2);
    }

    #[test]
    fn wait_past_returns_at_once_when_the_log_is_past_and_else_at_an_append() {
        use nagano_simcore::sync::blocking;
        let log = Arc::new(TxnLog::new());
        // Whether a wait for a transaction past `after` ended before its
        // timeout: a lost wake-up would sit it out.
        let woken = |after| {
            let long = Duration::from_secs(10);
            #[expect(
                clippy::disallowed_methods,
                reason = "bounds a real thread's wait in host time; nothing modelled reads it"
            )]
            let started = std::time::Instant::now();
            blocking!(log.wait_past(TxnId(after), long));
            started.elapsed() < long
        };
        log.append(vec![], "a".into(), 1);
        assert!(woken(0), "the log is past already");
        blocking!(log.wait_past(TxnId(1), Duration::from_millis(1)));
        let appender = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                // Append once the waiter is parked.
                while log.inner.lock().waiting == 0 {
                    std::hint::spin_loop();
                }
                log.append(vec![], "b".into(), 1);
            })
        };
        assert!(woken(1), "the append wakes the waiter");
        assert_eq!(log.len(), 2);
        blocking!(appender.join()).unwrap();
        assert_eq!(log.inner.lock().waiting, 0);
    }
}
