//! Replication-chain tests: Nagano master → Tokyo/Schaumburg →
//! Columbus/Bethesda, with per-site trigger monitors (Figure 5 wiring).

use std::sync::Arc;

use nagano_cache::{CacheConfig, PageCache};
use nagano_db::{seed_games, DeliverOutcome, GamesConfig, OlympicDb, TxnId, TxnLog};
use nagano_pagegen::{PageKey, PageRegistry, Renderer};
use nagano_trigger::{ConsistencyPolicy, PageUrls, TriggerMonitor};

/// A site: its replica of the master's log, and a trigger monitor whose
/// renderer reads the shared rows.
struct SiteUnderTest {
    replica: TxnLog,
    monitor: TriggerMonitor,
}

impl SiteUnderTest {
    fn new(master: &Arc<OlympicDb>, registry: Arc<PageRegistry>) -> Self {
        let urls = PageUrls::of(&registry);
        let cache = Arc::new(PageCache::with_keys(CacheConfig::default(), urls));
        let monitor = TriggerMonitor::new(
            Renderer::new(Arc::clone(master)),
            cache,
            registry,
            ConsistencyPolicy::UpdateInPlace,
        );
        monitor.prewarm();
        SiteUnderTest {
            replica: TxnLog::new(),
            monitor,
        }
    }

    /// Pull from `upstream`, then run the local trigger monitor over the
    /// replica past its watermark; returns the transactions pulled.
    fn sync(&self, upstream: &TxnLog) -> usize {
        let pulled = self.replica.catch_up(upstream).len();
        while self.monitor.process_next(&self.replica).is_some() {}
        pulled
    }

    /// Master transactions this site does not hold yet.
    fn lag(&self, master: &OlympicDb) -> usize {
        master.log().len() - self.replica.len()
    }

    fn page_version(&self, key: PageKey) -> u64 {
        self.monitor
            .cache()
            .peek(&key.to_url())
            .map(|p| p.version)
            .unwrap_or(0)
    }
}

fn production_chain() -> (Arc<OlympicDb>, SiteUnderTest, SiteUnderTest, SiteUnderTest) {
    let master = Arc::new(OlympicDb::new());
    seed_games(&master, &GamesConfig::small());
    let registry = Arc::new(PageRegistry::build(&master, 16));
    let schaumburg = SiteUnderTest::new(&master, Arc::clone(&registry));
    let columbus = SiteUnderTest::new(&master, Arc::clone(&registry));
    let tokyo = SiteUnderTest::new(&master, registry);
    (master, schaumburg, columbus, tokyo)
}

#[test]
fn updates_propagate_down_the_chain_in_order() {
    let (master, schaumburg, columbus, tokyo) = production_chain();
    let ev = master.events()[0].clone();
    let pool = master.athletes_of_sport(ev.sport);
    let event_page = PageKey::Event(ev.id);
    let v0 = schaumburg.page_version(event_page);

    master.record_results(ev.id, &[(pool[0].id, 10.0)], false, ev.day);
    master.record_results(ev.id, &[(pool[1].id, 11.0)], true, ev.day);

    // Directly-fed sites update first. A version counts the times the
    // page's bytes changed; `sync` applies both transactions before the
    // monitor sees the first, so the first derivation lands on the final
    // bytes and the second reproduces them — on every site.
    assert_eq!(schaumburg.sync(master.log()), 2);
    assert_eq!(tokyo.sync(master.log()), 2);
    let v = schaumburg.page_version(event_page);
    assert_eq!(v, v0 + 1);
    assert_eq!(tokyo.page_version(event_page), v);

    // Columbus is fed by Schaumburg's replica.
    assert_eq!(columbus.sync(&schaumburg.replica), 2);
    assert_eq!(columbus.page_version(event_page), v);

    // All sites hold byte-identical content.
    let a = schaumburg
        .monitor
        .cache()
        .peek(&event_page.to_url())
        .unwrap();
    let b = columbus.monitor.cache().peek(&event_page.to_url()).unwrap();
    let c = tokyo.monitor.cache().peek(&event_page.to_url()).unwrap();
    assert_eq!(a.body, b.body);
    assert_eq!(a.body, c.body);
}

#[test]
fn downstream_sites_lag_until_upstream_applies() {
    let (master, schaumburg, columbus, _tokyo) = production_chain();
    let ev = master.events()[0].clone();
    let pool = master.athletes_of_sport(ev.sport);
    master.record_results(ev.id, &[(pool[0].id, 10.0)], false, ev.day);
    // Columbus cannot see anything before Schaumburg replicates.
    assert_eq!(columbus.sync(&schaumburg.replica), 0);
    assert_eq!(columbus.lag(&master), 1);
    schaumburg.sync(master.log());
    assert_eq!(columbus.sync(&schaumburg.replica), 1);
    assert_eq!(columbus.lag(&master), 0);
}

#[test]
fn replica_watermarks_track_application() {
    let (master, schaumburg, _columbus, tokyo) = production_chain();
    let ev = master.events()[1].clone();
    let pool = master.athletes_of_sport(ev.sport);
    for _ in 0..4 {
        master.record_results(ev.id, &[(pool[0].id, 5.0)], false, ev.day);
    }
    assert_eq!(schaumburg.lag(&master), 4);
    for id in 1..=2 {
        let txn = master.log().get(TxnId(id)).expect("committed");
        assert_eq!(schaumburg.replica.deliver(&txn), DeliverOutcome::Applied);
    }
    assert_eq!(schaumburg.replica.len(), 2);
    assert_eq!(schaumburg.lag(&master), 2);
    // Tokyo is independent of Schaumburg's progress.
    assert_eq!(tokyo.lag(&master), 4);
    tokyo.sync(master.log());
    assert_eq!(tokyo.lag(&master), 0);
    assert_eq!(tokyo.monitor.watermark(), 4);
}
