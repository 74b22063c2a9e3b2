//! Simulate one full day of the Games end-to-end: the live update stream
//! (partials, finals, news, photos) runs through a background trigger
//! monitor while client traffic is served, then the day's statistics are
//! printed.
//!
//! Run with: `cargo run -p nagano-examples --bin olympic_day [day]`

use std::sync::Arc;

use nagano::SiteConfig;
use nagano_pagegen::PageKey;
use nagano_simcore::DeterministicRng;
use nagano_workload::{RequestModel, UpdateSchedule};

fn main() {
    let day: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    println!("== simulating day {day} of the Games ==\n");

    let site = Arc::new(nagano::ServingSite::build(SiteConfig::small()));
    let registry = Arc::clone(site.registry());
    let model = RequestModel::new(site.db(), registry, 50_000.0);
    let mut rng = DeterministicRng::seed_from_u64(day as u64);
    let schedule = UpdateSchedule::generate(site.db(), &mut rng);

    // Live trigger monitor on its own thread, as deployed.
    let runner = site.spawn_trigger_runner();

    let todays_updates: Vec<_> = schedule.on_day(day).copied().collect();
    println!("{} database updates scheduled today", todays_updates.len());

    // Walk the day minute by minute: commit updates when due, serve the
    // sampled client traffic for the minute.
    let mut served = 0u64;
    let mut update_iter = todays_updates.iter().peekable();
    for minute in 0..1440u64 {
        let t = nagano_simcore::SimTime::at(day, (minute / 60) as u32, (minute % 60) as u32);
        while let Some(u) = update_iter.peek() {
            if u.at <= t {
                let u = update_iter.next().unwrap();
                let txn = UpdateSchedule::apply(u, site.db(), &mut rng);
                if matches!(
                    u.kind,
                    nagano_workload::UpdateKind::Results { is_final: true, .. }
                ) {
                    println!("  {t}  {}", txn.label);
                }
            } else {
                break;
            }
        }
        let n = model.sample_minute_count(t, &mut rng);
        for _ in 0..n {
            let req = model.sample_request(t, &mut rng);
            if site.handle(0, &req.page.to_url()).is_some() {
                served += 1;
            }
        }
    }

    // Let the monitor drain, then report.
    let processed = runner.stop();
    let m = site.metrics();
    println!("\n--- day {day} summary (scale 1:50,000) ---");
    println!("requests served:      {served}");
    println!("updates processed:    {processed}");
    println!(
        "pages regenerated:    {} (mean {:.1} per update)",
        m.trigger.pages_regenerated,
        m.trigger.pages_regenerated as f64 / processed.max(1) as f64
    );
    println!(
        "cache hit rate:       {:.3}% ({} hits / {} misses)",
        m.cache.hit_rate() * 100.0,
        m.cache.hits,
        m.cache.misses
    );

    // Show the final medal table as clients saw it.
    let medals = site.handle(0, &PageKey::Medals.to_url()).unwrap();
    println!(
        "\n/medals is a cache {} ({} bytes) — standings held in cache all day, always fresh",
        if medals.cache_hit { "HIT" } else { "MISS" },
        medals.body.len()
    );
}
