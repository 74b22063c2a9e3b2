//! Smoke tests for the experiment harness: every experiment id runs in
//! quick mode and produces shape-consistent output.

use nagano_bench::{run_experiment, ExpConfig, ALL_EXPERIMENTS};

fn quick() -> ExpConfig {
    ExpConfig::quick()
}

#[test]
fn every_experiment_runs_in_quick_mode() {
    let config = quick();
    for id in ALL_EXPERIMENTS {
        let result = run_experiment(id, &config).unwrap_or_else(|| panic!("unknown id {id}"));
        assert_eq!(result.id, id);
        assert!(!result.rendered.is_empty(), "{id} produced no output");
        assert!(!result.verdict.is_empty());
        assert!(result.json.is_object(), "{id} json shape");
    }
    assert!(run_experiment("bogus", &config).is_none());
}

#[test]
fn fig20_totals_track_the_calendar() {
    let result = run_experiment("fig20", &quick()).unwrap();
    let total = result.json["total_millions"].as_f64().unwrap();
    assert!(
        (total - 634.7).abs() / 634.7 < 0.10,
        "total {total}M too far from 634.7M"
    );
    assert_eq!(result.json["peak_day"].as_u64(), Some(7));
}

#[test]
fn hitrate_ordering_holds() {
    let result = run_experiment("hitrate", &quick()).unwrap();
    let rows = result.json["rows"].as_array().unwrap();
    let rate = |label: &str| -> f64 {
        rows.iter()
            .find(|r| r["policy"] == label)
            .and_then(|r| r["hit_rate"].as_f64())
            .unwrap()
    };
    let update = rate("dup-update-in-place");
    let invalidate = rate("dup-invalidate");
    let conservative = rate("conservative-96");
    assert!(update > 0.999, "update-in-place {update}");
    assert!(update >= invalidate);
    assert!(invalidate > conservative, "{invalidate} vs {conservative}");
    assert!(conservative < 0.95);
    assert_eq!(rate("no-cache"), 0.0);
}

#[test]
fn fig23_is_a_distribution() {
    let result = run_experiment("fig23", &quick()).unwrap();
    let shares = result.json["shares_percent"].as_array().unwrap();
    let total: f64 = shares.iter().map(|s| s["share"].as_f64().unwrap()).sum();
    assert!((total - 100.0).abs() < 0.5, "shares sum {total}");
    assert_eq!(shares.len(), 6);
}

#[test]
fn odg_reproduces_large_fanout() {
    let result = run_experiment("odg", &quick()).unwrap();
    let affected = result.json["single_update_affected"].as_u64().unwrap();
    // Paper: one update affected 128 pages; small-scale dataset still
    // fans out to tens of pages.
    assert!(affected >= 10, "affected {affected}");
    let sweep = result.json["sweep"].as_array().unwrap();
    assert!(!sweep.is_empty());
    for row in sweep {
        assert!(row["affected"].as_u64().unwrap() > 0);
        assert!(row["propagate_us"].as_f64().unwrap() > 0.0);
    }
}

#[test]
fn avail_is_one_hundred_percent() {
    let result = run_experiment("avail", &quick()).unwrap();
    assert_eq!(result.json["availability"].as_f64(), Some(1.0));
    assert_eq!(result.json["failed"].as_u64(), Some(0));
    let during = result.json["tokyo_share_during"].as_f64().unwrap();
    assert_eq!(during, 0.0, "Tokyo served while dark");
}

#[test]
fn fresh_is_within_the_bound() {
    let result = run_experiment("fresh", &quick()).unwrap();
    let max = result.json["max_s"].as_f64().unwrap();
    assert!(max < 60.0, "max freshness {max}s");
    assert!(result.json["count"].as_u64().unwrap() > 0);
}

#[test]
fn nav_shows_the_3x_reduction() {
    let result = run_experiment("nav", &quick()).unwrap();
    let ratio = result.json["ratio"].as_f64().unwrap();
    assert!((2.0..4.5).contains(&ratio), "ratio {ratio}");
    let home = result.json["home_satisfaction_98"].as_f64().unwrap();
    assert!(home > 0.25, "home satisfaction {home}");
    let projected = result.json["projected_1996_peak_millions"]
        .as_f64()
        .unwrap();
    assert!(projected > 120.0, "projection {projected}M");
}

#[test]
fn memory_fits_in_one_machine() {
    let result = run_experiment("memory", &quick()).unwrap();
    let bytes = result.json["bytes"].as_u64().unwrap();
    assert!(bytes > 0);
    let extrapolated = result.json["extrapolated_21k_mb"].as_f64().unwrap();
    // The paper's bound: a single copy stayed under 175 MB.
    assert!(extrapolated < 400.0, "extrapolated {extrapolated}MB");
}

#[test]
fn fig22_shows_the_us_anomaly() {
    let result = run_experiment("fig22", &quick()).unwrap();
    let us_bad = result.json["us_days7_9"].as_f64().unwrap();
    let us_ok = result.json["us_other"].as_f64().unwrap();
    assert!(
        us_bad > us_ok * 1.15,
        "US anomaly missing: {us_bad} vs {us_ok}"
    );
}

#[test]
fn hybrid_sweep_trades_cpu_for_staleness() {
    let result = run_experiment("hybrid", &quick()).unwrap();
    let rows = result.json["rows"].as_array().unwrap();
    assert_eq!(rows.len(), 5);
    // Acceptance: hot_fraction 0.5 spends less regen CPU than
    // update-in-place while staying fresher than pure invalidation.
    assert_eq!(result.json["checks"]["cpu_below_uip"].as_bool(), Some(true));
    assert_eq!(
        result.json["checks"]["staleness_below_invalidate"].as_bool(),
        Some(true)
    );
    // Regen CPU grows with the hot fraction; traffic capture is monotone.
    let cpu: Vec<u64> = rows
        .iter()
        .map(|r| r["regen_cpu_ms"].as_u64().unwrap())
        .collect();
    for w in cpu.windows(2) {
        assert!(
            w[1] >= w[0],
            "regen CPU must grow with hot fraction: {cpu:?}"
        );
    }
    let capture: Vec<f64> = rows
        .iter()
        .map(|r| r["traffic_captured_pct"].as_f64().unwrap())
        .collect();
    for w in capture.windows(2) {
        assert!(w[1] >= w[0] - 1e-9, "capture monotone: {capture:?}");
    }
    // The endpoints behave like the pure policies they degenerate to.
    assert!(rows[4]["hit_rate"].as_f64().unwrap() >= rows[0]["hit_rate"].as_f64().unwrap());
    assert!(result.verdict.contains("acceptance checks hold"));
}

#[test]
fn staleness_threshold_saves_work_monotonically() {
    let result = run_experiment("staleness", &quick()).unwrap();
    let rows = result.json["rows"].as_array().unwrap();
    let saved: Vec<f64> = rows
        .iter()
        .map(|r| r["saved_pct"].as_f64().unwrap())
        .collect();
    assert_eq!(saved[0], 0.0, "strict is the baseline");
    for w in saved.windows(2) {
        assert!(w[1] >= w[0] - 1e-9, "saving must be monotone: {saved:?}");
    }
    assert!(
        *saved.last().unwrap() > 20.0,
        "high threshold saves real work"
    );
    // Tolerated + regenerated stays conserved-ish (affected set unchanged).
    let strict_total = rows[0]["regenerated"].as_u64().unwrap();
    for r in rows {
        let total = r["regenerated"].as_u64().unwrap() + r["tolerated"].as_u64().unwrap();
        assert_eq!(total, strict_total, "affected set must not change");
    }
}

#[test]
fn batching_reduces_regeneration() {
    let result = run_experiment("batching", &quick()).unwrap();
    let individual = result.json["individual_regenerated"].as_u64().unwrap();
    let batch = result.json["batch_regenerated"].as_u64().unwrap();
    assert!(batch < individual, "{batch} vs {individual}");
    assert!(batch > 0);
}

#[test]
fn shift_moves_traffic_in_twelfths() {
    let result = run_experiment("shift", &quick()).unwrap();
    let rows = result.json["rows"].as_array().unwrap();
    let shares: Vec<f64> = rows
        .iter()
        .map(|r| r["tokyo_share_pct"].as_f64().unwrap())
        .collect();
    // Monotone decrease, roughly linear steps of baseline/12.
    let step = shares[0] / 12.0;
    for w in shares.windows(2) {
        let delta = w[0] - w[1];
        assert!(delta > 0.0, "withdrawal must shed traffic: {shares:?}");
        assert!(
            (delta - step).abs() < step * 0.5,
            "step {delta:.2} vs expected {step:.2}"
        );
    }
}

#[test]
fn mix_centres_on_the_home_page() {
    let result = run_experiment("mix", &quick()).unwrap();
    let shares = result.json["shares"].as_array().unwrap();
    let total: f64 = shares.iter().map(|s| s["share"].as_f64().unwrap()).sum();
    assert!((total - 100.0).abs() < 0.5, "shares sum {total}");
    // Sports + Today dominate the request mix.
    let of = |cat: &str| -> f64 {
        shares
            .iter()
            .find(|s| s["category"] == cat)
            .and_then(|s| s["share"].as_f64())
            .unwrap_or(0.0)
    };
    assert!(of("Sports") + of("Today") > 60.0);
    assert!(
        result.verdict.contains("/day/"),
        "home page is the top destination"
    );
}

#[test]
fn contention_shows_the_1996_colocation_penalty() {
    let result = run_experiment("contention", &quick()).unwrap();
    let r96 = result.json["ratio_1996"].as_f64().unwrap();
    let r98 = result.json["ratio_1998"].as_f64().unwrap();
    assert!(r96 > 3.0, "1996 co-location must degrade: {r96}");
    assert!(r98 < 1.5, "1998 separation must stay flat: {r98}");
}

#[test]
fn tables_rank_olympics_among_the_fastest() {
    for id in ["table1", "table2"] {
        let result = run_experiment(id, &quick()).unwrap();
        let rows = result.json["rows"].as_array().unwrap();
        let olympics_best = rows
            .iter()
            .filter(|r| r["site"].as_str().unwrap().starts_with("Olympics"))
            .map(|r| r["response_s"].as_f64().unwrap())
            .fold(f64::INFINITY, f64::min);
        let comparator_worst = rows
            .iter()
            .filter(|r| !r["site"].as_str().unwrap().starts_with("Olympics"))
            .map(|r| r["response_s"].as_f64().unwrap())
            .fold(0.0, f64::max);
        assert!(
            olympics_best < comparator_worst,
            "{id}: {olympics_best} vs {comparator_worst}"
        );
    }
}
