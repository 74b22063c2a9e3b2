//! Transactions and the transaction log.
//!
//! Every committed mutation appends a [`Transaction`] that names the
//! changed records by their **data keys** ([`DataKey`]). The log is the
//! one record of commits: a trigger monitor reads it past its watermark,
//! resolves each data key, by arithmetic, to its underlying-data vertex in
//! the object dependence graph and feeds it to DUP, and a replica pulls it
//! the same way.

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
        let (txn, waiting) = {
            let mut inner = self.inner.lock();
            let id = TxnId(inner.entries.len() as u64 + 1);
            let txn = Arc::new(Transaction {
                id,
                changes,
                label,
                day,
            });
            inner.entries.push(Arc::clone(&txn));
            self.committed.store(id.0, Ordering::Release);
            (txn, inner.waiting)
        };
        if waiting > 0 {
            self.appended.notify_all();
        }
        txn
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
