//! Background runner: drives a [`TriggerMonitor`] from the site
//! database's transaction log on its own thread, the way the production
//! monitor ran on each SP2's SMP node.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nagano_db::{OlympicDb, TxnId, TxnLog};
use nagano_simcore::sync::blocking;

use crate::monitor::TriggerMonitor;

/// How long the runner polls for the next transaction after finishing
/// one, before it waits on the log. Updates arrive in bursts (a final is
/// a run of result rows, then medals, then news), and a waiting thread is
/// woken through the kernel: on a two-vCPU guest that wake-up cost the
/// median transaction 20–110 µs of its 200–300 µs from commit to visible,
/// depending on what else the host was doing (DESIGN §13a). Polling
/// through the gap between two transactions of a burst takes the wake-up,
/// and its spread, out of commit → visible; a runner with nothing to do
/// still sleeps, it only falls asleep this much later.
const POLL_AFTER_TXN: Duration = Duration::from_micros(400);

/// Processor pauses between two looks at the log while polling.
const PAUSES_PER_POLL: u32 = 64;

/// Handle to a running background trigger monitor.
pub struct TriggerRunner {
    handle: Option<JoinHandle<u64>>,
    stop: crossbeam::channel::Sender<()>,
}

impl TriggerRunner {
    /// Spawn a thread feeding `monitor` the transactions of `db`'s log past
    /// its watermark, those committed before the spawn too, one at a time
    /// ([`TriggerMonitor::process_next`]) until the runner is stopped.
    pub fn spawn(monitor: Arc<TriggerMonitor>, db: Arc<OlympicDb>) -> Self {
        let (stop_tx, stop_rx) = crossbeam::channel::bounded::<()>(1);
        #[expect(
            clippy::expect_used,
            reason = "one-time startup spawn, not a per-request path; no thread means no monitor at all"
        )]
        let handle = std::thread::Builder::new()
            .name("trigger-monitor".into())
            .spawn(move || {
                let log = db.log();
                let mut processed = 0u64;
                loop {
                    // Seen before the log is read to its end, a stop finds
                    // every commit made before it processed.
                    let stopping = stop_rx.try_recv().is_ok();
                    let mut in_burst = false;
                    while monitor.process_next(log).is_some() {
                        processed += 1;
                        in_burst = true;
                    }
                    if stopping {
                        return processed;
                    }
                    // Poll before waiting if a transaction was just processed.
                    let after = TxnId(monitor.watermark());
                    if !(in_burst && poll(log, after, POLL_AFTER_TXN)) {
                        blocking!(log.wait_past(after, Duration::from_millis(10)));
                    }
                }
            })
            .expect("spawn trigger monitor thread");
        TriggerRunner {
            handle: Some(handle),
            stop: stop_tx,
        }
    }

    /// Stop the thread after it has processed every transaction committed
    /// before the call; returns the number it processed over its
    /// lifetime. A panic on the thread is raised again here, not read as
    /// nothing processed.
    pub fn stop(mut self) -> u64 {
        let _ = blocking!(self.stop.send(()));
        match blocking!(self.handle.take().map(JoinHandle::join)) {
            Some(Ok(processed)) => processed,
            Some(Err(panic)) => std::panic::resume_unwind(panic),
            None => 0,
        }
    }
}

/// Look at `log`'s committed count, without its lock, until it holds a
/// transaction past `after` or `patience` runs out; returns whether it does.
fn poll(log: &TxnLog, after: TxnId, patience: Duration) -> bool {
    #[expect(
        clippy::disallowed_methods,
        reason = "bounds a busy-wait of a real thread in host time, like the wait on the log it precedes; nothing modelled reads it"
    )]
    let started = Instant::now();
    loop {
        if log.len() as u64 > after.0 {
            return true;
        }
        if started.elapsed() >= patience {
            return false;
        }
        for _ in 0..PAUSES_PER_POLL {
            std::hint::spin_loop();
        }
    }
}

impl Drop for TriggerRunner {
    fn drop(&mut self) {
        let _ = blocking!(self.stop.send(()));
        if let Some(Err(panic)) = blocking!(self.handle.take().map(JoinHandle::join)) {
            // A second panic while one unwinds would abort the process.
            if !std::thread::panicking() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConsistencyPolicy;
    use nagano_cache::{CacheConfig, PageCache};
    use nagano_db::{seed_games, GamesConfig, OlympicDb};
    use nagano_pagegen::{PageKey, PageRegistry, Renderer};

    #[test]
    fn runner_processes_live_transactions() {
        let db = Arc::new(OlympicDb::new());
        seed_games(&db, &GamesConfig::small());
        let registry = Arc::new(PageRegistry::build(&db, 16));
        let urls = crate::PageUrls::of(&registry);
        let cache = Arc::new(PageCache::with_keys(CacheConfig::default(), urls));
        let monitor = Arc::new(TriggerMonitor::new(
            Renderer::new(Arc::clone(&db)),
            Arc::clone(&cache),
            registry,
            ConsistencyPolicy::UpdateInPlace,
        ));
        monitor.prewarm();
        let ev = db.events()[0].clone();
        let athletes = db.athletes_of_sport(ev.sport);
        let url = PageKey::Event(ev.id).to_url();
        let v0 = cache.peek(&url).unwrap().version;
        let commit = || db.record_results(ev.id, &[(athletes[0].id, 50.0)], false, ev.day);
        // The runner takes a commit made before it was spawned too.
        commit();
        let runner = TriggerRunner::spawn(Arc::clone(&monitor), Arc::clone(&db));
        commit();
        commit();
        assert_eq!(runner.stop(), 3);
        // Each commit appends a row to the page: its bytes change once
        // per state the runner saw, and the runner saw the last. A
        // transaction processed after a later one committed re-derives
        // what is cached and keeps the version.
        let v1 = cache.peek(&url).unwrap().version;
        assert!((v0 + 1..=v0 + 3).contains(&v1), "v0 {v0} v1 {v1}");
        let stats = monitor.stats().snapshot();
        assert_eq!(stats.txns, 3);
        assert!(stats.pages_regenerated >= 3, "{stats:?}");
        assert!((1..stats.pages_regenerated).contains(&stats.pages_changed));
        // A runner spawned after them has nothing left to take.
        let runner = TriggerRunner::spawn(Arc::clone(&monitor), Arc::clone(&db));
        assert_eq!(runner.stop(), 0);
    }

    #[test]
    fn poll_takes_what_is_queued_and_gives_up_when_patience_runs_out() {
        let log = TxnLog::new();
        let soon = Duration::from_millis(2);
        assert!(!poll(&log, TxnId(0), soon), "nothing committed yet");
        log.append(vec![], "t1".into(), 1);
        // Committed: found even with no patience at all.
        assert!(poll(&log, TxnId(0), Duration::ZERO));
        assert!(!poll(&log, TxnId(1), soon), "nothing past the first");
    }

    #[test]
    fn a_panic_on_the_runner_thread_reaches_stop() {
        let db = Arc::new(OlympicDb::new());
        seed_games(&db, &GamesConfig::small());
        let registry = Arc::new(PageRegistry::build(&db, 16));
        let cache = Arc::new(PageCache::new(CacheConfig::default()));
        // An infinite CPU budget panics in `spin_for` on the first
        // regeneration; the pages are registered from a normal renderer's
        // output, the way `prewarm` registers its own.
        let monitor = Arc::new(TriggerMonitor::new(
            Renderer::new(Arc::clone(&db)).with_simulated_cpu(f64::INFINITY),
            Arc::clone(&cache),
            Arc::clone(&registry),
            ConsistencyPolicy::UpdateInPlace,
        ));
        let normal = Renderer::new(Arc::clone(&db));
        for &(key, _) in registry.pages() {
            let out = normal.render(key);
            monitor.register_render(key, &out);
            let slot = registry.space().slot(key).unwrap();
            cache.distribute_with(slot, out.body, None, None);
        }
        let runner = TriggerRunner::spawn(monitor, Arc::clone(&db));
        let ev = db.events()[0].clone();
        let athletes = db.athletes_of_sport(ev.sport);
        db.record_results(ev.id, &[(athletes[0].id, 50.0)], false, ev.day);
        let stopped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| runner.stop()));
        assert!(stopped.is_err(), "stop() returned {stopped:?}");
    }
}
