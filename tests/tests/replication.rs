//! Replication-chain tests: Nagano master → Tokyo/Schaumburg →
//! Columbus/Bethesda, with per-site trigger monitors (Figure 5 wiring).

use std::sync::Arc;

use nagano_cache::{CacheConfig, PageCache};
use nagano_db::{seed_games, DeliverOutcome, GamesConfig, OlympicDb, Replica, TxnId};
use nagano_pagegen::{PageKey, PageRegistry, Renderer};
use nagano_trigger::{ConsistencyPolicy, PageUrls, TriggerMonitor};

struct SiteUnderTest {
    replica: Replica,
    monitor: TriggerMonitor,
}

impl SiteUnderTest {
    fn new(replica: Replica, registry: Arc<PageRegistry>) -> Self {
        let urls = PageUrls::of(&registry);
        let cache = Arc::new(PageCache::with_keys(CacheConfig::default(), urls));
        let monitor = TriggerMonitor::new(
            Renderer::new(Arc::clone(replica.db())),
            cache,
            registry,
            ConsistencyPolicy::UpdateInPlace,
        );
        monitor.prewarm();
        SiteUnderTest { replica, monitor }
    }

    /// Apply replication then run the local trigger monitor.
    fn sync(&self) -> usize {
        let pulled = self.replica.catch_up();
        for txn in &pulled {
            self.monitor.process_txn(txn);
        }
        pulled.len()
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
    let schaumburg = Replica::attach("schaumburg", Arc::clone(&master));
    let columbus = Replica::attach_downstream("columbus", &schaumburg);
    let tokyo = Replica::attach("tokyo", Arc::clone(&master));
    (
        master,
        SiteUnderTest::new(schaumburg, Arc::clone(&registry)),
        SiteUnderTest::new(columbus, Arc::clone(&registry)),
        SiteUnderTest::new(tokyo, registry),
    )
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
    assert_eq!(schaumburg.sync(), 2);
    assert_eq!(tokyo.sync(), 2);
    let v = schaumburg.page_version(event_page);
    assert_eq!(v, v0 + 1);
    assert_eq!(tokyo.page_version(event_page), v);

    // Columbus is fed by Schaumburg's local log.
    assert_eq!(columbus.sync(), 2);
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
    assert_eq!(columbus.sync(), 0);
    assert_eq!(columbus.replica.lag(), 1);
    schaumburg.sync();
    assert_eq!(columbus.sync(), 1);
    assert_eq!(columbus.replica.lag(), 0);
}

#[test]
fn replica_watermarks_track_application() {
    let (master, schaumburg, _columbus, tokyo) = production_chain();
    let ev = master.events()[1].clone();
    let pool = master.athletes_of_sport(ev.sport);
    for _ in 0..4 {
        master.record_results(ev.id, &[(pool[0].id, 5.0)], false, ev.day);
    }
    assert_eq!(schaumburg.replica.lag(), 4);
    for id in 1..=2 {
        let txn = master.log().get(TxnId(id)).expect("committed");
        assert_eq!(schaumburg.replica.deliver(&txn), DeliverOutcome::Applied);
    }
    assert_eq!(schaumburg.replica.applied().0, 2);
    assert_eq!(schaumburg.replica.lag(), 2);
    // Tokyo is independent of Schaumburg's progress.
    assert_eq!(tokyo.replica.lag(), 4);
    tokyo.sync();
    assert_eq!(tokyo.replica.lag(), 0);
}
