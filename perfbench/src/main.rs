//! perfbench — the repository's benchmark of `srl serve`.
//!
//! ```text
//! perfbench --workload serve_mix|paper_heavy|tenant_contention
//!           --seed N --seconds S --trace 0|1 [--corrupt-reference]
//! ```
//!
//! Run from the repository root. `--trace 0` starts the release `srl serve`
//! binary as a child process, drives it over TCP with the seeded workload,
//! checks every response against its reference and reports the end-to-end
//! metrics. `--trace 1` replays the same stream in-process through each
//! layer's public functions with spans around the calls and reports the
//! per-layer metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod net;
mod replay;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use net::{Pace, Record, Run, Server};
use workload::{Class, Load, Op, Req, Workload};

/// A run sets the server up before the load and again after it, each time
/// at least `SETUP_REPS` times and for at least `SETUP_SECONDS`, so that
/// `setup_s`, the median of all of them, spans several of the host's
/// changes of pace.
const SETUP_REPS: usize = 11;
const SETUP_SECONDS: f64 = 0.5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        corrupt_reference: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds expects a number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            "--corrupt-reference" => args.corrupt_reference = true,
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if !workload::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}",
            workload::WORKLOADS
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Report {
    fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }
}

fn target_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string()))
}

fn host_label() -> String {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname").unwrap_or_default();
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .and_then(|r| r.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown cpu".to_string());
    format!("{} ({cpu})", host.trim())
}

fn bench(args: &Args) -> Result<(), String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let srl = target_dir().join("release/srl");
    if !srl.is_file() {
        return Err(format!(
            "no srl binary at {} (build it with `cargo build --release -p srl-cli`)",
            srl.display()
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let started = Instant::now();
    let mut wl = Workload::build(&args.workload, args.seed, args.seconds, nproc, &root)?;
    if args.corrupt_reference {
        wl.corrupt_reference();
    }
    let out = target_dir().join("perfbench");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let doc = out.join(format!("tenants-{}-{}.json", wl.name, std::process::id()));
    std::fs::write(&doc, &wl.tenant_doc).map_err(|e| format!("{}: {e}", doc.display()))?;
    let mut flags: Vec<String> = vec![
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--tenant-config".into(),
        doc.display().to_string(),
    ];
    flags.extend(wl.server_flags.iter().cloned());
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("env nproc={nproc} host={}", host_label());
    println!("env server: {} serve {}", srl.display(), flags.join(" "));
    println!("env tenant document: {}", wl.tenant_doc);
    println!(
        "env stream: {} setup + {} load requests, {} distinct run inputs, references computed in {:.2} s",
        wl.setup.len(),
        wl.stream.len(),
        wl.inputs.len(),
        started.elapsed().as_secs_f64()
    );
    let result = if args.trace {
        traced(&wl, &srl, &flags, args, &out)
    } else {
        untraced(&wl, &srl, &flags, args)
    };
    let _ = std::fs::remove_file(&doc);
    let report = result?;
    for m in &report.metrics {
        println!(
            "metric {} = {} {} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "metric fail_frac = {} ratio (n={})",
        if report.attempted == 0 {
            0.0
        } else {
            report.failed as f64 / report.attempted as f64
        },
        report.attempted
    );
    let mut json = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            finite(m.value),
            m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    Ok(())
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Nearest-rank percentile of unsorted samples (0 when empty).
fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The median, over consecutive windows of the measured period, of each
/// window's `p`-th percentile of `(due, latency)` samples. There are as many
/// windows (at most 10) as leave ten samples beyond the percentile in each.
/// A stall of the host inflates the windows it falls in, not the whole
/// run's figure.
fn windowed(samples: &[(f64, f64)], p: f64) -> f64 {
    let per_window = (10.0 / (1.0 - p / 100.0)).ceil() as usize;
    let windows = (samples.len() / per_window).clamp(1, 10);
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let per = sorted.len().div_ceil(windows).max(1);
    let values: Vec<f64> = sorted
        .chunks(per)
        .map(|chunk| percentile(&chunk.iter().map(|s| s.1).collect::<Vec<_>>(), p))
        .collect();
    median(&values)
}

/// Starts a server and brings it to the state the load expects.
fn set_up(wl: &Workload, srl: &Path, flags: &[String]) -> Result<Server, String> {
    let mut server = Server::spawn(srl, flags)?;
    let run = net::drive(
        &mut server,
        wl,
        &wl.setup,
        0,
        Pace::Open {
            offset_us: 0,
            measure_from_us: f64::INFINITY,
        },
    )?;
    if let Some(e) = run.errors.first() {
        return Err(format!("setup failed: {e}"));
    }
    Ok(server)
}

/// The load phase: the stream from `from` on, for at most `seconds` of it.
fn load(
    server: &mut Server,
    wl: &Workload,
    from: usize,
    seconds: f64,
    measure_from_us: f64,
) -> Result<(Run, usize), String> {
    let first_id = (wl.setup.len() + from) as u64;
    let reqs = &wl.stream[from..];
    match wl.load {
        Load::Open => {
            let offset = reqs.first().map_or(0, |r| r.due_us);
            let end = offset + (seconds * 1e6) as u64;
            let n = reqs.partition_point(|r| r.due_us < end);
            let run = net::drive(
                server,
                wl,
                &reqs[..n],
                first_id,
                Pace::Open {
                    offset_us: offset,
                    measure_from_us,
                },
            )?;
            Ok((run, n))
        }
        Load::Closed => {
            let run = net::drive(
                server,
                wl,
                reqs,
                first_id,
                Pace::Closed {
                    stop_after_us: seconds * 1e6,
                    measure_from_us,
                },
            )?;
            let n = run
                .records
                .iter()
                .take_while(|r| r.sent_us > 0.0 || r.answered)
                .count();
            Ok((run, n))
        }
    }
}

/// Sets the server up repeatedly (see `SETUP_REPS`), appending each
/// set-up's duration to `setups`; returns the last server.
fn set_ups(
    wl: &Workload,
    srl: &Path,
    flags: &[String],
    setups: &mut Vec<f64>,
) -> Result<Server, String> {
    let (first, reps) = (Instant::now(), setups.len() + SETUP_REPS);
    loop {
        let t = Instant::now();
        let server = set_up(wl, srl, flags)?;
        setups.push(t.elapsed().as_secs_f64());
        if setups.len() >= reps && first.elapsed().as_secs_f64() >= SETUP_SECONDS {
            return Ok(server);
        }
    }
}

fn untraced(wl: &Workload, srl: &Path, flags: &[String], args: &Args) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut server = set_ups(wl, srl, flags, &mut setups)?;
    let warmup = wl.warmup_us as f64;
    let (run, n) = load(&mut server, wl, 0, warmup / 1e6 + args.seconds, warmup)?;
    let peak_rss = server.peak_rss_mb();
    drop(server);
    set_ups(wl, srl, flags, &mut setups)?;
    for e in &run.errors {
        eprintln!("perfbench: {e}");
    }
    let reqs = &wl.stream[..n];
    let records = &run.records[..n];
    let measured: Vec<(&Req, &Record)> = reqs
        .iter()
        .zip(records)
        .filter(|(_, r)| r.due_us >= warmup)
        .collect();
    let of = |class: Class| -> Vec<(&Req, &Record)> {
        measured
            .iter()
            .copied()
            .filter(|(q, _)| q.class == class)
            .collect()
    };
    let queries = of(Class::Query);
    let stats = of(Class::Stats);
    let ok_lat = |set: &[(&Req, &Record)]| -> Vec<(f64, f64)> {
        set.iter()
            .filter(|(_, r)| r.ok)
            .map(|(_, r)| (r.due_us, r.latency_us()))
            .collect()
    };
    let lat = ok_lat(&queries);
    let stats_lat = ok_lat(&stats);
    let lag: Vec<f64> = measured.iter().map(|(_, r)| r.sent_us - r.due_us).collect();
    let mut report = Report {
        attempted: n,
        failed: records.iter().filter(|r| !r.ok).count(),
        metrics: Vec::new(),
    };
    report.add("setup_s", median(&setups), "s", setups.len());
    let (ops_per_s, cpu_us_per_op, op_samples) = match per_cycle(wl, reqs, records, warmup) {
        Some(figures) => figures,
        None => (
            lat.len() as f64 / (run.window_us / 1e6),
            run.cpu_us / lat.len().max(1) as f64,
            lat.len(),
        ),
    };
    report.add("ops_per_s", ops_per_s, "1/s", op_samples);
    report.add("cpu_us_per_op", cpu_us_per_op, "us", op_samples);
    report.add("peak_rss_mb", peak_rss, "MiB", 1);
    // Latencies are printed for reading, not compared: stalls of the shared
    // host moved them by 2-4x between runs of one seed (see README.md).
    let within = queries
        .iter()
        .filter(|(_, r)| r.ok && r.latency_us() <= wl.slo_us)
        .count();
    println!(
        "latency lat_p50_us = {:.1}, lat_p90_us = {:.1}, lat_p99_us = {:.1} (n={})",
        windowed(&lat, 50.0),
        windowed(&lat, 90.0),
        windowed(&lat, 99.0),
        lat.len()
    );
    println!(
        "latency slo_ok_frac = {:.4} within {} us (n={})",
        within as f64 / queries.len().max(1) as f64,
        wl.slo_us,
        queries.len()
    );
    println!(
        "latency stats_lat_p50_us = {:.1}, stats_lat_p90_us = {:.1}, stats_lat_p99_us = {:.1} (n={})",
        windowed(&stats_lat, 50.0),
        windowed(&stats_lat, 90.0),
        windowed(&stats_lat, 99.0),
        stats_lat.len()
    );
    println!(
        "loadgen lag_p99_us = {:.1}, backlog_max = {} (validity: the generator's own lateness and the most requests due but unanswered)",
        percentile(&lag, 99.0),
        run.backlog_max
    );
    print_kinds(wl, &measured);
    Ok(report)
}

/// Closed loop: `ops_per_s` and `cpu_us_per_op` over the whole cycles of
/// the weighted mix sent after the warm-up, with the number of cycles.
/// Every cycle holds the same queries, so cycles differ only by the host's
/// pace, and a stall of the host moves only the cycles it falls in.
/// `ops_per_s` is the median of the cycles' rates; `cpu_us_per_op` the mean
/// of the middle half of their CPU per query, because the CPU clock counts
/// in ticks of 10 ms and a median would repeat exact values. `None` on the
/// open loops or when no whole cycle was measured.
fn per_cycle(
    wl: &Workload,
    reqs: &[Req],
    records: &[Record],
    warmup: f64,
) -> Option<(f64, f64, usize)> {
    let cycle = wl.cycle;
    if cycle == 0 {
        return None;
    }
    let (mut rates, mut cpus) = (Vec::new(), Vec::new());
    let mut start = cycle;
    while start + cycle <= records.len() {
        let (before, chunk) = (&records[start - 1], &records[start..start + cycle]);
        let ops = reqs[start..start + cycle]
            .iter()
            .zip(chunk)
            .filter(|(q, r)| q.class == Class::Query && r.ok)
            .count() as f64;
        start += cycle;
        if chunk[0].due_us < warmup || !chunk.iter().all(|r| r.answered) || ops == 0.0 {
            continue;
        }
        let last = &chunk[cycle - 1];
        rates.push(ops / ((last.done_us - before.done_us) / 1e6));
        cpus.push((last.cpu_us - before.cpu_us) / ops);
    }
    (!rates.is_empty()).then(|| (median(&rates), middle_mean(&cpus), rates.len()))
}

/// The mean of the samples between the first and third quartile.
fn middle_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quarter = sorted.len() / 4;
    let middle = &sorted[quarter..sorted.len() - quarter];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Latency by request kind, for reading (not compared).
fn print_kinds(wl: &Workload, measured: &[(&Req, &Record)]) {
    let mut kinds: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (req, rec) in measured {
        if rec.ok {
            kinds
                .entry(wl.label(req))
                .or_default()
                .push(rec.latency_us());
        }
    }
    for (label, lat) in kinds {
        println!(
            "kind {label:<18} n={:<6} p50_us={:<10.1} p99_us={:.1}",
            lat.len(),
            median(&lat),
            percentile(&lat, 99.0)
        );
    }
}

/// Reads one tenant's `stats` body with a plain blocking connection.
fn fetch_stats(addr: &str, tenant: &str) -> Result<String, String> {
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("{{\"v\": 1, \"kind\": \"stats\", \"tenant\": \"{tenant}\"}}\n").as_bytes(),
        )
        .map_err(|e| e.to_string())?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| e.to_string())?;
    Ok(line)
}

fn traced(
    wl: &Workload,
    srl: &Path,
    flags: &[String],
    args: &Args,
    out: &Path,
) -> Result<Report, String> {
    let mut server = set_up(wl, srl, flags)?;
    let m = wl.replay_len.min(wl.stream.len());
    let first_id = wl.setup.len() as u64;
    // Served one request at a time: the same requests the replay runs.
    let seq = net::drive(&mut server, wl, &wl.stream[..m], first_id, Pace::Sequential)?;
    let mut server_cache = [0u64; 3];
    for tenant in &wl.tenants {
        let body = fetch_stats(&server.addr, tenant)?;
        for (slot, name) in server_cache.iter_mut().zip(["hits", "misses", "evictions"]) {
            *slot += workload::cache_counter(&body, name).unwrap_or(0);
        }
    }
    if args.corrupt_reference {
        // The server's counters are the reference of the replay's cache.
        server_cache[0] += 1;
    }
    // The workload's own load, for the load-generator and busy-stats figures.
    let (busy, n_busy) = load(&mut server, wl, m, args.seconds / 2.0, 0.0)?;
    drop(server);

    let mut all: Vec<Req> = wl.setup.clone();
    all.extend_from_slice(&wl.stream[..m]);
    let plain = replay::replay(wl, &all, false)?;
    let traced = replay::replay(wl, &all, true)?;
    let spans = &traced.tracer.spans;
    let selfs = replay::self_times(spans);
    let inside = replay::in_request_tree(spans);

    let mut attempted = seq.records.len() + n_busy + 2 * all.len();
    let mut failed = seq.records.iter().filter(|r| !r.ok).count()
        + busy.records[..n_busy].iter().filter(|r| !r.ok).count();
    failed += plain.failed + traced.failed;
    for e in seq
        .errors
        .iter()
        .chain(&busy.errors)
        .chain(&plain.errors)
        .chain(&traced.errors)
    {
        eprintln!("perfbench: {e}");
    }
    if attempted == 0 {
        attempted = 1;
    }

    // Self time per layer over the request trees, and per-call medians.
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut layer_sum: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
    let mut eval_by_label: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut total_ns = 0u64;
    for (i, s) in spans.iter().enumerate() {
        by_name
            .entry(s.name)
            .or_default()
            .push(selfs[i] as f64 / 1e3);
        if inside[i] {
            let layer = layer_sum.entry(s.name).or_default();
            layer.0 += selfs[i];
            layer.1 += 1;
            if s.parent == replay::NO_PARENT {
                total_ns += s.end - s.start;
            }
        }
        if s.name == "core.eval" {
            eval_by_label
                .entry(s.label)
                .or_default()
                .push(selfs[i] as f64 / 1e3);
        }
    }
    let self_sum: u64 = layer_sum.values().map(|l| l.0).sum();
    println!(
        "layer self times over the replayed requests (total {:.1} us; self times sum to {:.1} us):",
        total_ns as f64 / 1e3,
        self_sum as f64 / 1e3
    );
    for (name, (ns, calls)) in &layer_sum {
        println!(
            "  {name:<26} {:>12.1} us  {:>5.1}%  calls={calls}",
            *ns as f64 / 1e3,
            100.0 * *ns as f64 / total_ns.max(1) as f64
        );
    }
    for (label, times) in &eval_by_label {
        println!(
            "core.eval_us.{label} = {:.1} us (n={})",
            median(times),
            times.len()
        );
    }
    let c = &traced.counts;
    println!(
        "serve.cache counters: server hits/misses/evictions = {}/{}/{}, replay = {}/{}/{}",
        server_cache[0], server_cache[1], server_cache[2], c.hits, c.misses, c.evictions,
    );
    // The replay's per-layer figures stand for the server only while its
    // cache behaves the same way; a drift fails the run.
    if server_cache != [c.hits, c.misses, c.evictions] {
        eprintln!("perfbench: the replay's cache counters differ from the server's: the replay no longer mirrors srl-serve");
        failed += 1;
    }

    let s = wl.setup.len();
    let overhead: Vec<f64> = seq
        .records
        .iter()
        .zip(&plain.totals_ns[s..])
        .map(|(r, t)| r.latency_us() - *t as f64 / 1e3)
        .collect();
    let stats_lat = |records: &[Record], reqs: &[Req]| -> Vec<f64> {
        records
            .iter()
            .zip(reqs)
            .filter(|(r, q)| r.ok && matches!(q.op, Op::Stats))
            .map(|(r, _)| r.latency_us())
            .collect()
    };
    let idle_stats = stats_lat(&seq.records, &wl.stream[..m]);
    let busy_stats = stats_lat(&busy.records[..n_busy], &wl.stream[m..m + n_busy]);
    let lag: Vec<f64> = busy.records[..n_busy]
        .iter()
        .map(|r| r.sent_us - r.due_us)
        .collect();
    let plain_total: u64 = plain.totals_ns.iter().sum();
    let traced_total: u64 = traced.totals_ns.iter().sum();

    let med = |name: &str| by_name.get(name).map_or(0.0, |v| median(v));
    let n = |name: &str| by_name.get(name).map_or(0, Vec::len);
    let mut report = Report {
        attempted,
        failed,
        metrics: Vec::new(),
    };
    for (metric, span) in [
        ("api.decode_us", "api.decode"),
        ("api.encode_us", "api.encode"),
        ("api.compact_us", "api.compact"),
        ("syntax.parse_program_us", "syntax.parse_program"),
        ("syntax.parse_expr_us", "syntax.parse_expr"),
        ("syntax.parse_value_us", "syntax.parse_value"),
        ("core.check_us", "core.check"),
        ("core.lower_us", "core.lower"),
        ("core.codegen_us", "core.codegen"),
        ("core.lower_expr_us", "core.lower_expr"),
        ("core.codegen_expr_us", "core.codegen_expr"),
        ("serve.cache.lookup_hit_us", "serve.cache.lookup_hit"),
        ("serve.cache.lookup_miss_us", "serve.cache.lookup_miss"),
        ("analysis.classify_us", "analysis.classify"),
        ("analysis.analyze_us", "analysis.analyze"),
        ("core.eval_us", "core.eval"),
        ("serve.glue_us", "serve.request"),
    ] {
        report.add(metric, med(span), "us", n(span));
    }
    let lookups = c.hits + c.misses;
    report.add("api.resp_bytes", c.resp_bytes as f64, "bytes", all.len());
    report.add("serve.cache.hits", c.hits as f64, "count", all.len());
    report.add("serve.cache.misses", c.misses as f64, "count", all.len());
    report.add(
        "serve.cache.evictions",
        c.evictions as f64,
        "count",
        all.len(),
    );
    report.add(
        "serve.cache.hit_frac",
        if lookups == 0 {
            0.0
        } else {
            c.hits as f64 / lookups as f64
        },
        "ratio",
        lookups as usize,
    );
    report.add("core.eval.steps", c.steps as f64, "count", all.len());
    report.add(
        "core.eval.reduce_iterations",
        c.reduce_iterations as f64,
        "count",
        all.len(),
    );
    report.add("core.eval.inserts", c.inserts as f64, "count", all.len());
    report.add(
        "core.parallel.folds",
        c.parallel_folds as f64,
        "count",
        all.len(),
    );
    report.add(
        "core.setrepr.tier_atoms",
        c.tier_atoms as f64,
        "count",
        all.len(),
    );
    report.add(
        "core.setrepr.tier_bits",
        c.tier_bits as f64,
        "count",
        all.len(),
    );
    report.add(
        "core.setrepr.tier_rows",
        c.tier_rows as f64,
        "count",
        all.len(),
    );
    report.add("serve.overhead_us", median(&overhead), "us", overhead.len());
    let stats_wait = if busy_stats.is_empty() || idle_stats.is_empty() {
        0.0
    } else {
        median(&busy_stats) - median(&idle_stats)
    };
    report.add("serve.stats_wait_us", stats_wait, "us", busy_stats.len());
    report.add(
        "loadgen.lag_p99_us",
        percentile(&lag, 99.0),
        "us",
        lag.len(),
    );
    report.add(
        "loadgen.backlog_max",
        busy.backlog_max as f64,
        "count",
        n_busy,
    );
    report.add(
        "trace.overhead_frac",
        (traced_total as f64 - plain_total as f64) / plain_total.max(1) as f64,
        "ratio",
        all.len(),
    );

    let path = out.join(format!("spans-{}-{}.tsv", wl.name, args.seed));
    let mut tsv = String::from("name\tlabel\tstart_ns\tend_ns\tparent\treq\n");
    for s in spans {
        let parent = if s.parent == replay::NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let _ = writeln!(
            tsv,
            "{}\t{}\t{}\t{}\t{parent}\t{}",
            s.name, s.label, s.start, s.end, s.req
        );
    }
    std::fs::write(&path, tsv).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans: {} written to {}", spans.len(), path.display());
    Ok(report)
}
