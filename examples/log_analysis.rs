//! Log analysis: serve a burst of simulated traffic over real HTTP with
//! Common Log Format access logging, then run the aggregations that drove
//! the paper's 1998 redesign (§3.1: "The Web server logs collected during
//! the 1996 games provided significant insight").
//!
//! Run with: `cargo run -p nagano-examples --bin log_analysis`

use std::io::BufReader;
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use nagano::SiteConfig;
use nagano_httpd::{
    AccessLog, HttpClient, LogAnalysis, LogEntry, RequestObserver, Server, ServerConfig,
};
use nagano_simcore::{DeterministicRng, SimTime};
use nagano_workload::RequestModel;

fn main() {
    println!("== access-log analysis ==\n");
    let site = Arc::new(nagano::ServingSite::build(SiteConfig::small()));

    // Serve with a CLF observer attached.
    let log = Arc::new(AccessLog::new(Vec::new()));
    let observer: RequestObserver = {
        let log = Arc::clone(&log);
        Arc::new(move |req, resp| {
            #[expect(
                clippy::disallowed_methods,
                reason = "real HTTP traffic demo stamps real timestamps"
            )]
            let epoch_secs = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0);
            let _ = log.log(&LogEntry::served("203.0.113.1", epoch_secs, req, resp));
        })
    };
    let server = Server::bind_with_observer(
        "127.0.0.1:0",
        site.http_handler(),
        ServerConfig::default(),
        Some(observer),
    )
    .expect("bind");

    // Drive it with the Olympic workload model's page mix (mid-Games
    // afternoon), over a real socket.
    let registry = Arc::clone(site.registry());
    let model = RequestModel::new(site.db(), registry, 1_000.0);
    let mut rng = DeterministicRng::seed_from_u64(31);
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let n = 2_000;
    for _ in 0..n {
        let page = model.sample_page(SimTime::at(8, 15, 0), &mut rng);
        let (code, _) = client.get(&page.to_url()).expect("request");
        assert_eq!(code, 200);
    }
    drop(client);
    server.shutdown();

    // Analyse.
    let buf = Arc::try_unwrap(log).expect("sole owner").into_inner();
    let analysis = LogAnalysis::from_reader(BufReader::new(&buf[..])).expect("parse");
    println!(
        "{} requests logged, {} malformed, {:.1} KB mean transfer, {:.1}% 2xx\n",
        analysis.total,
        analysis.malformed,
        analysis.mean_bytes() / 1_000.0,
        analysis.status_class_share(2) * 100.0
    );
    println!("top 10 pages (the 1998 redesign's 'what are people here for?' question):");
    for (path, count) in analysis.top_pages(10) {
        println!("  {count:>5}  {path}");
    }
    println!(
        "\nThe current day's home page leads — exactly the observation that led the\n\
         1998 team to put results, medals, and news directly on the per-day home page."
    );
}
