//! Site-to-site replication (Figure 5 of the paper).
//!
//! The production topology shipped database updates
//! Nagano → {Tokyo, Schaumburg} → {Columbus, Bethesda}, with Tokyo also
//! able to re-feed Schaumburg for disaster recovery. What the serving
//! system observes from replication is (a) *which* records changed and
//! (b) *when* the change becomes visible at a site — that is what drives
//! each site's trigger monitor.
//!
//! **Substitution note (documented in DESIGN.md):** row payloads live in
//! shared storage (an `Arc<OlympicDb>`), while the *control plane* — the
//! transaction stream, ordering, applied watermark, and chained fan-out —
//! is fully replicated per site. This preserves every behaviour DUP and
//! the freshness experiments depend on without re-serialising row images.
//!
//! # Failure model
//!
//! Replication links can drop, delay, reorder, or partition (see
//! `nagano-cluster`'s fault plan). The replica end is built so that *any*
//! such fault is recoverable from the applied watermark alone:
//!
//! A replica is driven from outside: the caller delivers each transaction
//! the link carries and recovers with a catch-up, so that link faults
//! control exactly which transactions arrive.
//!
//! * [`Replica::deliver`] applies a pushed transaction only when it is
//!   the next in sequence; anything already applied is a [`DeliverOutcome::Duplicate`]
//!   and anything further ahead is a [`DeliverOutcome::Gap`] — the replica
//!   never applies out of order, so its local log stays id-aligned with
//!   the master's.
//! * [`Replica::catch_up`] closes a gap by pulling [`TxnLog::since`] the
//!   watermark from the current upstream feed.
//! * [`Replica::fail_over`] switches the feed to a peer's re-published
//!   log (the Tokyo → Schaumburg re-feed edge) when the primary feed is
//!   partitioned; [`Replica::restore_primary`] switches back after heal.

use std::sync::Arc;

use nagano_simcore::sync::Mutex;

use crate::database::OlympicDb;
use crate::txn::{Transaction, TxnId, TxnLog};

/// Where a replica pulls missed transactions from.
#[derive(Debug, Clone)]
enum Feed {
    /// Directly from the master database's log.
    Master,
    /// From a peer replica's re-published log (chained sites, or the
    /// disaster-recovery re-feed).
    Peer(Arc<TxnLog>),
}

/// Result of pushing one transaction at a replica ([`Replica::deliver`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliverOutcome {
    /// Next in sequence; applied and re-published on the local log.
    Applied,
    /// At or below the applied watermark (a reordered or re-sent message
    /// that already arrived another way); ignored.
    Duplicate,
    /// Ahead of the next expected id — an earlier message was lost. The
    /// replica stays at its watermark; the caller should schedule a
    /// [`Replica::catch_up`].
    Gap {
        /// The id the replica needed instead (`applied + 1`).
        expected: TxnId,
    },
}

/// A replication endpoint at one serving site.
#[derive(Debug)]
pub struct Replica {
    name: String,
    master: Arc<OlympicDb>,
    /// Locally re-published log; downstream replicas chain off this.
    log: Arc<TxnLog>,
    applied: Mutex<TxnId>,
    /// The configured upstream.
    primary: Feed,
    /// The feed currently in use (differs from `primary` after
    /// [`Replica::fail_over`]).
    current: Mutex<Feed>,
}

impl Replica {
    /// Attach directly to the master database's log: the caller pushes
    /// with [`Replica::deliver`] and recovers with [`Replica::catch_up`].
    pub fn attach(name: impl Into<String>, master: Arc<OlympicDb>) -> Self {
        Self::build(name, master, Feed::Master)
    }

    /// Attach downstream of another replica (e.g. Columbus off
    /// Schaumburg): a catch-up pulls from that replica's re-published log.
    pub fn attach_downstream(name: impl Into<String>, upstream: &Replica) -> Self {
        Self::build(
            name,
            Arc::clone(&upstream.master),
            Feed::Peer(Arc::clone(&upstream.log)),
        )
    }

    fn build(name: impl Into<String>, master: Arc<OlympicDb>, primary: Feed) -> Self {
        Replica {
            name: name.into(),
            master,
            log: Arc::new(TxnLog::new()),
            applied: Mutex::new(TxnId(0)),
            current: Mutex::new(primary.clone()),
            primary,
        }
    }

    /// Site name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Read access to the (shared-storage) database.
    pub fn db(&self) -> &Arc<OlympicDb> {
        &self.master
    }

    /// Push one transaction at this replica (the simulated link delivers
    /// it). Applies only the next-in-sequence id; see [`DeliverOutcome`].
    /// Applied transactions are re-published on this replica's own log,
    /// for chained downstream replicas.
    pub fn deliver(&self, txn: &Arc<Transaction>) -> DeliverOutcome {
        let applied = *self.applied.lock();
        if txn.id.0 <= applied.0 {
            return DeliverOutcome::Duplicate;
        }
        let expected = TxnId(applied.0 + 1);
        if txn.id != expected {
            return DeliverOutcome::Gap { expected };
        }
        self.apply(txn);
        DeliverOutcome::Applied
    }

    /// Close the gap between the applied watermark and the current
    /// upstream feed: pull everything [`TxnLog::since`] the watermark and
    /// apply it in order. Returns the transactions applied (the caller
    /// re-runs DUP over them and forwards them downstream).
    pub fn catch_up(&self) -> Vec<Arc<Transaction>> {
        let missed = {
            let feed = self.current.lock();
            match &*feed {
                Feed::Master => self.master.log().since(*self.applied.lock()),
                Feed::Peer(log) => log.since(*self.applied.lock()),
            }
        };
        for txn in &missed {
            self.apply(txn);
        }
        missed
    }

    /// Number of transactions visible at the current upstream feed (what
    /// this replica *could* know about right now).
    pub fn feed_len(&self) -> u64 {
        let feed = self.current.lock();
        match &*feed {
            Feed::Master => self.master.log().len() as u64,
            Feed::Peer(log) => log.len() as u64,
        }
    }

    /// Switch the upstream feed to `peer`'s re-published log — the
    /// Figure-5 disaster-recovery path (Tokyo re-feeding Schaumburg when
    /// the Nagano → Schaumburg link is partitioned).
    pub fn fail_over(&self, peer: &Replica) {
        *self.current.lock() = Feed::Peer(Arc::clone(&peer.log));
    }

    /// Return to the configured primary feed (after the partition heals).
    pub fn restore_primary(&self) {
        *self.current.lock() = self.primary.clone();
    }

    fn apply(&self, txn: &Arc<Transaction>) {
        *self.applied.lock() = txn.id;
        self.log
            .append(txn.changes.clone(), txn.label.clone(), txn.day);
    }

    /// Highest master transaction id applied at this site.
    pub fn applied(&self) -> TxnId {
        *self.applied.lock()
    }

    /// Master transactions not yet applied here.
    pub fn lag(&self) -> u64 {
        (self.master.log().len() as u64).saturating_sub(self.applied().0)
    }

    /// This site's re-published log.
    pub fn local_log(&self) -> &TxnLog {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{
        Athlete, AthleteId, Country, CountryId, Event, EventId, EventPhase, Sport, SportId,
    };

    fn master() -> Arc<OlympicDb> {
        let db = OlympicDb::new();
        db.load_country(Country {
            id: CountryId(1),
            code: "NOR".into(),
            name: "Norway".into(),
        });
        db.load_sport(Sport {
            id: SportId(1),
            name: "Biathlon".into(),
            venue: "Nozawa Onsen".into(),
        });
        db.load_event(Event {
            id: EventId(1),
            sport: SportId(1),
            name: "Sprint".into(),
            day: 2,
            hour: 10,
            popularity: 1.0,
            phase: EventPhase::Scheduled,
        });
        db.load_athlete(Athlete {
            id: AthleteId(1),
            name: "Ole".into(),
            country: CountryId(1),
            sport: SportId(1),
        });
        Arc::new(db)
    }

    /// Commit `n` result postings to `m`; returns them, in log order.
    fn commit(m: &OlympicDb, n: usize) -> Vec<Arc<Transaction>> {
        (0..n)
            .map(|i| m.record_results(EventId(1), &[(AthleteId(1), i as f64)], false, 2))
            .collect()
    }

    #[test]
    fn replica_applies_in_order() {
        let m = master();
        let tokyo = Replica::attach("tokyo", Arc::clone(&m));
        let txns = commit(&m, 2);
        assert_eq!(tokyo.lag(), 2);
        for txn in &txns {
            assert_eq!(tokyo.deliver(txn), DeliverOutcome::Applied);
        }
        assert_eq!(tokyo.applied(), TxnId(2));
        assert_eq!(tokyo.lag(), 0);
        assert_eq!(tokyo.local_log().len(), 2);
    }

    #[test]
    fn chained_replication_fans_out() {
        let m = master();
        let schaumburg = Replica::attach("schaumburg", Arc::clone(&m));
        let columbus = Replica::attach_downstream("columbus", &schaumburg);
        let txns = commit(&m, 1);
        // Columbus sees nothing until Schaumburg applies.
        assert!(columbus.catch_up().is_empty());
        assert_eq!(schaumburg.deliver(&txns[0]), DeliverOutcome::Applied);
        let relayed = columbus.catch_up();
        assert_eq!(relayed.len(), 1);
        assert_eq!(relayed[0].changes, txns[0].changes);
        assert_eq!(columbus.applied(), TxnId(1));
    }

    #[test]
    fn partial_pump_tracks_watermark() {
        let m = master();
        let site = Replica::attach("bethesda", Arc::clone(&m));
        let txns = commit(&m, 5);
        for txn in &txns[..2] {
            site.deliver(txn);
        }
        assert_eq!(site.applied(), TxnId(2));
        assert_eq!(site.lag(), 3);
        assert_eq!(site.catch_up().len(), 3);
        assert_eq!(site.lag(), 0);
    }

    #[test]
    fn the_local_log_holds_the_replicated_stream() {
        let m = master();
        let site = Replica::attach("tokyo", Arc::clone(&m));
        let txns = commit(&m, 1);
        assert!(
            site.local_log().get(TxnId(1)).is_none(),
            "not visible before delivery"
        );
        assert_eq!(site.deliver(&txns[0]), DeliverOutcome::Applied);
        let txn = site.local_log().get(TxnId(1)).unwrap();
        assert!(txn.changes.iter().any(|c| c.data_key == "data:event:1"));
    }

    #[test]
    fn deliver_applies_in_sequence_and_flags_gaps_and_duplicates() {
        let m = master();
        let site = Replica::attach("schaumburg", Arc::clone(&m));
        for _ in 0..3 {
            m.record_results(EventId(1), &[(AthleteId(1), 1.0)], false, 2);
        }
        let log = m.log();
        let t1 = log.get(TxnId(1)).expect("txn 1");
        let t2 = log.get(TxnId(2)).expect("txn 2");
        let t3 = log.get(TxnId(3)).expect("txn 3");
        assert_eq!(site.deliver(&t1), DeliverOutcome::Applied);
        // Lost t2, t3 arrives first: gap, watermark unmoved.
        assert_eq!(
            site.deliver(&t3),
            DeliverOutcome::Gap { expected: TxnId(2) }
        );
        assert_eq!(site.applied(), TxnId(1));
        // t2 arrives late (reordered): applied, then t3 again: applied.
        assert_eq!(site.deliver(&t2), DeliverOutcome::Applied);
        assert_eq!(site.deliver(&t3), DeliverOutcome::Applied);
        // A re-sent old message is a duplicate.
        assert_eq!(site.deliver(&t1), DeliverOutcome::Duplicate);
        assert_eq!(site.applied(), TxnId(3));
        assert_eq!(site.local_log().len(), 3);
    }

    #[test]
    fn catch_up_closes_the_gap_from_the_watermark() {
        let m = master();
        let site = Replica::attach("tokyo", Arc::clone(&m));
        for _ in 0..4 {
            m.record_results(EventId(1), &[(AthleteId(1), 1.0)], false, 2);
        }
        let t1 = m.log().get(TxnId(1)).expect("txn 1");
        site.deliver(&t1);
        let missed = site.catch_up();
        assert_eq!(missed.len(), 3);
        assert_eq!(missed[0].id, TxnId(2));
        assert_eq!(site.applied(), TxnId(4));
        assert_eq!(site.lag(), 0);
        // Local log ids stay aligned with master ids.
        assert_eq!(site.local_log().len(), 4);
        assert!(site.catch_up().is_empty(), "idempotent when caught up");
    }

    #[test]
    fn fail_over_pulls_from_the_peer_and_restore_returns_to_primary() {
        let m = master();
        let tokyo = Replica::attach("tokyo", Arc::clone(&m));
        let schaumburg = Replica::attach("schaumburg", Arc::clone(&m));
        for _ in 0..3 {
            m.record_results(EventId(1), &[(AthleteId(1), 1.0)], false, 2);
        }
        // Tokyo is healthy and fully applied; Schaumburg's primary feed
        // is partitioned (simulated by simply not delivering anything).
        tokyo.catch_up();
        assert_eq!(tokyo.applied(), TxnId(3));
        // DR re-feed: Schaumburg pulls Tokyo's re-published log.
        schaumburg.fail_over(&tokyo);
        assert_eq!(schaumburg.feed_len(), 3);
        let missed = schaumburg.catch_up();
        assert_eq!(missed.len(), 3);
        assert_eq!(schaumburg.applied(), TxnId(3));
        // After heal, back to the master feed; new commits flow again.
        schaumburg.restore_primary();
        m.record_results(EventId(1), &[(AthleteId(1), 2.0)], true, 2);
        assert_eq!(schaumburg.feed_len(), 4);
        assert_eq!(schaumburg.catch_up().len(), 1);
        assert_eq!(schaumburg.applied(), TxnId(4));
    }

    #[test]
    fn chained_pull_replicas_catch_up_through_the_chain() {
        let m = master();
        let schaumburg = Replica::attach("schaumburg", Arc::clone(&m));
        let columbus = Replica::attach_downstream("columbus", &schaumburg);
        for _ in 0..2 {
            m.record_results(EventId(1), &[(AthleteId(1), 1.0)], false, 2);
        }
        // Columbus's feed is Schaumburg's log: empty until Schaumburg applies.
        assert!(columbus.catch_up().is_empty());
        assert_eq!(schaumburg.catch_up().len(), 2);
        let missed = columbus.catch_up();
        assert_eq!(missed.len(), 2);
        assert_eq!(columbus.applied(), TxnId(2));
    }
}
