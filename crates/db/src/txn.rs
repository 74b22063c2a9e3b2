//! Transactions and the transaction log.
//!
//! Every committed mutation appends a [`Transaction`] that names the
//! changed records by their **data keys** ([`DataKey`]). The trigger
//! monitor subscribes to this log: each data key is resolved, by
//! arithmetic, to its underlying-data vertex in the object dependence
//! graph and fed to DUP.

use std::sync::Arc;

use crossbeam::channel::{bounded, Receiver, Sender};
use nagano_simcore::sync::Mutex;

use crate::key::{DataKey, Datum};

/// Default bound on a subscriber's pending-transaction queue. A consumer
/// that falls further behind than this is **disconnected** rather than
/// buffered without limit (DESIGN §10 bans unbounded queues): it must
/// notice the gap between its applied watermark and the log and catch up
/// with [`TxnLog::since`] — the same recovery path a rejoining replica
/// uses.
pub const SUBSCRIBER_CAPACITY: usize = 1024;

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

/// Append-only transaction log with subscriber fan-out.
#[derive(Debug, Default)]
pub struct TxnLog {
    inner: Mutex<LogInner>,
}

#[derive(Debug, Default)]
struct LogInner {
    entries: Vec<Arc<Transaction>>,
    subscribers: Vec<Sender<Arc<Transaction>>>,
}

impl TxnLog {
    /// New empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a transaction, assigning its id. Subscribers are notified;
    /// disconnected subscribers — and subscribers whose bounded queue is
    /// full (they fell [`SUBSCRIBER_CAPACITY`] behind) — are pruned. A
    /// pruned consumer recovers by pulling [`TxnLog::since`] its watermark.
    pub fn append(&self, changes: Vec<RecordChange>, label: String, day: u32) -> Arc<Transaction> {
        let mut inner = self.inner.lock();
        let id = TxnId(inner.entries.len() as u64 + 1);
        let txn = Arc::new(Transaction {
            id,
            changes,
            label,
            day,
        });
        inner.entries.push(Arc::clone(&txn));
        inner
            .subscribers
            .retain(|s| s.try_send(Arc::clone(&txn)).is_ok());
        txn
    }

    /// Subscribe to future transactions (and nothing retroactive), with
    /// the default [`SUBSCRIBER_CAPACITY`] queue bound.
    pub fn subscribe(&self) -> Receiver<Arc<Transaction>> {
        self.subscribe_with_capacity(SUBSCRIBER_CAPACITY)
    }

    /// Subscribe with an explicit queue bound. Falling more than
    /// `capacity` transactions behind disconnects the subscription.
    pub fn subscribe_with_capacity(&self, capacity: usize) -> Receiver<Arc<Transaction>> {
        let (tx, rx) = bounded(capacity.max(1));
        self.inner.lock().subscribers.push(tx);
        rx
    }

    /// Number of committed transactions.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
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
        let tail = log.since(TxnId(3));
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].id, TxnId(4));
        assert!(log.since(TxnId(5)).is_empty());
    }

    #[test]
    fn subscribers_receive_appends() {
        let log = TxnLog::new();
        let rx = log.subscribe();
        log.append(
            vec![RecordChange::update(Datum::Medals)],
            "medals".into(),
            2,
        );
        let txn = rx.try_recv().unwrap();
        assert_eq!(txn.changes[0].data_key, "data:medals:standings");
        assert_eq!(txn.day, 2);
    }

    #[test]
    fn dropped_subscribers_are_pruned() {
        let log = TxnLog::new();
        let rx = log.subscribe();
        drop(rx);
        // Must not error or leak; next append prunes.
        log.append(vec![], "x".into(), 1);
        let rx2 = log.subscribe();
        log.append(vec![], "y".into(), 1);
        assert_eq!(rx2.try_recv().unwrap().label, "y");
    }

    #[test]
    fn overflowing_subscriber_is_disconnected_and_catches_up_via_since() {
        let log = TxnLog::new();
        let rx = log.subscribe_with_capacity(2);
        for i in 0..5 {
            log.append(vec![], format!("t{i}"), 1);
        }
        // The first two fit the queue; the third overflowed and pruned
        // the subscriber (bounded back-pressure).
        let mut streamed = Vec::new();
        while let Ok(txn) = rx.try_recv() {
            streamed.push(txn.id);
        }
        assert_eq!(streamed, vec![TxnId(1), TxnId(2)]);
        // Recovery path: pull the gap from the log by watermark.
        let watermark = *streamed.last().unwrap();
        let missed = log.since(watermark);
        assert_eq!(missed.len(), 3);
        assert_eq!(missed[0].id, TxnId(3));
        assert_eq!(missed[2].id, TxnId(5));
    }

    #[test]
    fn subscription_is_not_retroactive() {
        let log = TxnLog::new();
        log.append(vec![], "before".into(), 1);
        let rx = log.subscribe();
        assert!(rx.try_recv().is_err());
    }
}
