//! Background runner: drives a [`TriggerMonitor`] from a transaction
//! subscription on its own thread, the way the production monitor ran on
//! each SP2's SMP node.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError};
use nagano_db::Transaction;
use nagano_simcore::sync::blocking;

use crate::monitor::TriggerMonitor;

/// How long the runner polls for the next transaction after finishing
/// one, before it parks on the channel. Updates arrive in bursts (a final
/// is a run of result rows, then medals, then news), and a parked thread
/// is woken through the kernel: on a two-vCPU guest that wake-up cost the
/// median transaction 20–110 µs of its 200–300 µs from commit to visible,
/// depending on what else the host was doing (DESIGN §13a). Polling
/// through the gap between two transactions of a burst takes the wake-up,
/// and its spread, out of commit → visible; a runner with nothing to do
/// still sleeps, it only falls asleep this much later.
const POLL_AFTER_TXN: Duration = Duration::from_micros(400);

/// Processor pauses between two looks at the channel while polling, so
/// that the committing thread hardly ever finds the channel's lock taken.
const PAUSES_PER_POLL: u32 = 64;

/// Handle to a running background trigger monitor.
pub struct TriggerRunner {
    handle: Option<JoinHandle<u64>>,
    stop: crossbeam::channel::Sender<()>,
}

impl TriggerRunner {
    /// Spawn a thread consuming `rx` and feeding `monitor`, one
    /// transaction at a time. The thread exits when the runner is
    /// stopped/dropped or the sender side of `rx` disconnects.
    pub fn spawn(monitor: Arc<TriggerMonitor>, rx: Receiver<Arc<Transaction>>) -> Self {
        let (stop_tx, stop_rx) = crossbeam::channel::bounded::<()>(1);
        #[expect(
            clippy::expect_used,
            reason = "one-time startup spawn, not a per-request path; no thread means no monitor at all"
        )]
        let handle = std::thread::Builder::new()
            .name("trigger-monitor".into())
            .spawn(move || {
                let mut processed = 0u64;
                let mut process = |txn: Arc<Transaction>| {
                    monitor.process_txn(&txn);
                    processed += 1;
                };
                // A transaction was processed just now: poll before parking.
                let mut in_burst = false;
                loop {
                    if stop_rx.try_recv().is_ok() {
                        // Drain whatever is already queued, then exit.
                        while let Ok(txn) = rx.try_recv() {
                            process(txn);
                        }
                        return processed;
                    }
                    let polled = in_burst.then(|| poll(&rx, POLL_AFTER_TXN)).flatten();
                    in_burst = false;
                    let next = match polled {
                        Some(txn) => Ok(txn),
                        None => blocking!(rx.recv_timeout(Duration::from_millis(10))),
                    };
                    match next {
                        Ok(txn) => {
                            process(txn);
                            in_burst = true;
                        }
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => return processed,
                    }
                }
            })
            .expect("spawn trigger monitor thread");
        TriggerRunner {
            handle: Some(handle),
            stop: stop_tx,
        }
    }

    /// Stop the thread after it drains pending transactions; returns the
    /// number processed over its lifetime. A panic on the thread is
    /// raised again here, not read as nothing processed.
    pub fn stop(mut self) -> u64 {
        let _ = blocking!(self.stop.send(()));
        match blocking!(self.handle.take().map(JoinHandle::join)) {
            Some(Ok(processed)) => processed,
            Some(Err(panic)) => std::panic::resume_unwind(panic),
            None => 0,
        }
    }
}

/// Look at `rx` until a transaction is there or `patience` has run out.
/// An empty and a disconnected channel both come back as `None`: the
/// blocking receive that follows tells them apart.
fn poll(rx: &Receiver<Arc<Transaction>>, patience: Duration) -> Option<Arc<Transaction>> {
    #[expect(
        clippy::disallowed_methods,
        reason = "bounds a busy-wait of a real thread in host time, like the `recv_timeout` it precedes; nothing modelled reads it"
    )]
    let started = Instant::now();
    loop {
        if let Ok(txn) = rx.try_recv() {
            return Some(txn);
        }
        if started.elapsed() >= patience {
            return None;
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
        let rx = db.subscribe();
        let runner = TriggerRunner::spawn(Arc::clone(&monitor), rx);

        let ev = db.events()[0].clone();
        let athletes = db.athletes_of_sport(ev.sport);
        let url = PageKey::Event(ev.id).to_url();
        let v0 = cache.peek(&url).unwrap().version;
        for _ in 0..3 {
            db.record_results(ev.id, &[(athletes[0].id, 50.0)], false, ev.day);
        }
        let processed = runner.stop();
        assert_eq!(processed, 3);
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
    }

    #[test]
    fn poll_takes_what_is_queued_and_gives_up_when_patience_runs_out() {
        let db = Arc::new(OlympicDb::new());
        seed_games(&db, &GamesConfig::small());
        let rx = db.subscribe();
        let soon = Duration::from_millis(2);
        assert!(poll(&rx, soon).is_none(), "nothing committed yet");
        let ev = db.events()[0].clone();
        let athletes = db.athletes_of_sport(ev.sport);
        db.record_results(ev.id, &[(athletes[0].id, 50.0)], false, ev.day);
        // Queued: found even with no patience at all.
        assert!(poll(&rx, Duration::ZERO).is_some());
        assert!(poll(&rx, soon).is_none());
        // A disconnected channel reads as empty; `recv_timeout` reports it.
        let (tx, gone) = crossbeam::channel::bounded::<Arc<Transaction>>(1);
        drop(tx);
        assert!(poll(&gone, soon).is_none());
    }

    #[test]
    fn runner_exits_on_disconnect() {
        let db = Arc::new(OlympicDb::new());
        seed_games(&db, &GamesConfig::small());
        let registry = Arc::new(PageRegistry::build(&db, 16));
        let cache = Arc::new(PageCache::new(CacheConfig::default()));
        let monitor = Arc::new(TriggerMonitor::new(
            Renderer::new(Arc::clone(&db)),
            cache,
            registry,
            ConsistencyPolicy::Invalidate,
        ));
        let (tx, rx) = crossbeam::channel::bounded(1);
        let runner = TriggerRunner::spawn(monitor, rx);
        drop(tx); // disconnect; thread must exit on its own
        assert_eq!(runner.stop(), 0);
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
            cache.distribute_with(slot, out.body, None);
        }
        let runner = TriggerRunner::spawn(monitor, db.subscribe());
        let ev = db.events()[0].clone();
        let athletes = db.athletes_of_sport(ev.sport);
        db.record_results(ev.id, &[(athletes[0].id, 50.0)], false, ev.day);
        let stopped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| runner.stop()));
        assert!(stopped.is_err(), "stop() returned {stopped:?}");
    }
}
