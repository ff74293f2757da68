//! CI smoke test for the live-metrics pipeline: attach a registry to
//! a working `CsStack`, scrape it over real HTTP, and validate both
//! exposition formats end to end.
//!
//! Exits non-zero (via panic) if the Prometheus page is malformed,
//! the JSON snapshot disagrees with the object's own telemetry (its
//! path counters, or the fast-path timer's sample count), or the
//! periodic dump fails to appear.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

use cso_bench::measure::timed_run;
use cso_bench::workload::{thread_rng, OpMix};
use cso_core::CsConfig;
use cso_locks::TasLock;
use cso_metrics::prom::validate_prometheus;
use cso_metrics::{Json, MetricsServer, PeriodicDump, Registry};
use cso_stack::CsStack;

const THREADS: usize = 4;

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to scrape endpoint");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: smoke\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header terminator");
    (head.to_owned(), body.to_owned())
}

fn main() {
    println!("metrics smoke: registry + scrape endpoint + periodic dump");

    let registry = Registry::new();
    let stack: CsStack<u32> =
        CsStack::with_config(8192, TasLock::new(), THREADS, CsConfig::COMBINING);
    stack.attach_metrics(&registry, "stack");
    let dump_path =
        std::env::temp_dir().join(format!("cso-metrics-smoke-{}.json", std::process::id()));
    let dump = PeriodicDump::spawn(
        registry.clone(),
        dump_path.clone(),
        Duration::from_millis(50),
    );
    let server = MetricsServer::bind(registry.clone(), "127.0.0.1:0").expect("bind scrape port");
    println!("scraping http://{}/metrics", server.addr());

    // A short contended run so every path (fast, locked, combining)
    // has a chance to fire.
    let result = timed_run(THREADS, Duration::from_millis(200), |thread, stop| {
        let mut rng = thread_rng(thread, 0x540CE);
        let mut ops = 0u64;
        while !stop.load(Ordering::Relaxed) {
            if OpMix::BALANCED.next_is_push(&mut rng) {
                stack.push(thread, thread as u32);
            } else {
                stack.pop(thread);
            }
            ops += 1;
        }
        ops
    });
    println!("workload: {} ops", result.total_ops());

    // 1. Prometheus text page: structurally valid, names present.
    let (head, page) = http_get(server.addr(), "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "bad status: {head}");
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "bad content type: {head}"
    );
    if let Err((line, text)) = validate_prometheus(&page) {
        panic!("malformed Prometheus exposition at line {line}: {text:?}");
    }
    for name in [
        "stack_ops_fast_total",
        "stack_ops_locked_total",
        "stack_fast_aborts_total",
        "stack_lock_acquires_total",
        "stack_gate_abort_ewma",
        "stack_fast_ns",
    ] {
        assert!(page.contains(name), "scrape page is missing {name}");
    }
    println!("prometheus page: {} lines, validated", page.lines().count());

    // 2. JSON snapshot: parses, and the path counters agree with the
    // object's own telemetry (the workload is stopped, so the two
    // reads race nothing).
    let (head, body) = http_get(server.addr(), "/metrics.json");
    assert!(head.starts_with("HTTP/1.1 200"), "bad status: {head}");
    let snapshot = Json::parse(&body).expect("JSON snapshot parses");
    let counter = |name: &str| {
        snapshot
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("JSON snapshot is missing counter {name}"))
    };
    let fast = counter("stack_ops_fast_total");
    let locked = counter("stack_ops_locked_total");
    let combined = counter("stack_ops_combined_total");
    let stats = stack.path_stats();
    assert_eq!(fast, stats.fast, "fast-path counter drifted");
    assert_eq!(
        locked + combined,
        stats.locked,
        "locked + combined must equal the internal locked counter"
    );
    assert_eq!(
        fast + locked + combined,
        result.total_ops(),
        "every completed operation is on exactly one path"
    );
    // Every fast-path completion is timed once, into its process's
    // own row of the object's timer.
    let fast_timed = snapshot
        .get("timers")
        .and_then(|t| t.get("stack_fast_ns"))
        .and_then(|t| t.get("count"))
        .and_then(Json::as_u64)
        .expect("JSON snapshot is missing timer stack_fast_ns");
    assert_eq!(
        fast_timed, fast,
        "stack_fast_ns must count every fast-path completion"
    );
    println!("json snapshot: fast={fast} locked={locked} combined={combined}");

    // 3. The 404 path stays a 404.
    let (head, _) = http_get(server.addr(), "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "bad status: {head}");

    // 4. Periodic dump: final write on stop, parseable, same counters.
    dump.stop();
    let dumped = std::fs::read_to_string(&dump_path).expect("dump file exists");
    let dumped = Json::parse(&dumped).expect("dump file parses");
    assert_eq!(
        dumped
            .get("counters")
            .and_then(|c| c.get("stack_ops_fast_total"))
            .and_then(Json::as_u64),
        Some(fast),
        "dump disagrees with the scrape"
    );
    let _ = std::fs::remove_file(&dump_path);

    server.shutdown();
    println!("metrics smoke: OK");
}
