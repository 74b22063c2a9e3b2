//! Quickstart: build a serving site, serve pages over HTTP, post results,
//! and watch the trigger monitor update cached pages in place.
//!
//! Run with: `cargo run -p nagano-examples --bin quickstart`

use std::sync::Arc;

use nagano::SiteConfig;
use nagano_httpd::{HttpClient, ServerConfig};

fn main() {
    println!("== nagano quickstart ==\n");

    // 1. Build the site: seed a synthetic Games, render every page,
    //    register the object dependence graph, warm the cache.
    let site = Arc::new(nagano::ServingSite::build(SiteConfig::small()));
    let m = site.metrics();
    println!(
        "site built: {} pages, ODG {} nodes / {} edges, {} bytes cached",
        m.pages, m.odg.0, m.odg.1, m.cache.bytes_current,
    );

    // 2. Serve it over real HTTP.
    let server = site
        .serve_http("127.0.0.1:0", 0, ServerConfig::default())
        .expect("bind");
    println!("serving on http://{}", server.addr());
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let (code, body) = client.get("/medals").expect("GET /medals");
    println!("GET /medals -> {code}, {} bytes", body.len());

    // 3. Post final results for the first event.
    let event = site.db().events()[0].clone();
    let athletes = site.db().athletes_of_sport(event.sport);
    let podium: Vec<_> = athletes
        .iter()
        .take(3)
        .enumerate()
        .map(|(i, a)| (a.id, 100.0 - i as f64))
        .collect();
    println!("\nposting final results for '{}'...", event.name);
    site.db().record_results(event.id, &podium, true, event.day);

    // 4. The trigger monitor runs DUP and refreshes every affected page.
    let outcome = site.pump();
    println!(
        "trigger monitor: {} txn processed, {} pages regenerated in place",
        outcome.txns, outcome.regenerated
    );

    // 5. The next fetch is STILL a cache hit — and fresh.
    let (code, fresh) = client.get("/medals").expect("GET /medals");
    let winner = site.db().athlete(podium[0].0).unwrap();
    let gold_code = site.db().country(winner.country).unwrap().code;
    println!(
        "GET /medals -> {code}, fresh: {} (standings now show {} with gold)",
        fresh != body,
        gold_code
    );

    let m = site.metrics();
    println!(
        "\ncache: {} hits / {} misses (hit rate {:.2}%), {} in-place updates",
        m.cache.hits,
        m.cache.misses,
        m.cache.hit_rate() * 100.0,
        m.cache.updates
    );
    drop(client);
    server.shutdown();
    println!("done.");
}
