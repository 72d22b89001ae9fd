//! The two service workloads: `serve-cached` (the read path: HTTP, API,
//! store lookup and report encoding, no simulation) and `serve-miss`
//! (the path for new work: submit, queue, scheduler, executor, store
//! write, fetch). Both drive an in-process `ptb_serve` over loopback
//! with at most [`CONNS`] connections of load.

use crate::oracle::{body_digest, report_digest};
use crate::probe;
use crate::trace::{SpanId, Tracer};
use crate::{timed_setup, Args, Outcome, Scratch};
use ptb_core::{MechanismKind, RunReport, SimConfig, Simulation};
use ptb_farm::{Farm, FarmJob};
use ptb_metrics::{median, percentile};
use ptb_serve::{api, http_call, Request, ServeConfig, ServeHandle, ServerConfig};
use ptb_workloads::{Benchmark, Scale};
use rand::{Rng, SeedableRng, SmallRng};
use serde::{json, Map, Serialize, Value};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load connections (the host has two cores).
pub const CONNS: usize = 2;

/// Entries in the `serve-cached` store.
pub const CACHED_ENTRIES: usize = 5_000;

/// Template reports the cached store is built from: one simulation
/// each, stored under many keys, of different report sizes.
pub const TEMPLATES: [(Benchmark, usize); 3] = [
    (Benchmark::Fft, 2),
    (Benchmark::Radix, 4),
    (Benchmark::Fft, 8),
];

/// Stored keys submitted (and then fetched) per cached request:
/// `ptb_loadgen`'s default `--batch`.
pub const KEYS_PER_REQUEST: usize = 4;

/// Open-loop ladder of request rates (requests/s).
pub const LADDER: [f64; 6] = [50.0, 100.0, 200.0, 300.0, 400.0, 600.0];

/// The ladder rate `p50_ms`/`p90_ms` are reported at. Two closed-loop
/// connections reach 170-350 requests/s on a 2-vCPU shared host, so the
/// step keeps its headroom when the host runs slower. A lower rate
/// leaves the vCPUs idle between requests, and waking them then costs
/// more than the request: on that host 50 requests/s gave a higher
/// `p50_ms` (8.5-11.3 ms) than 100 or 200 (4.5-8.2 ms).
pub const REFERENCE_RATE: f64 = 100.0;

/// Length of one measured segment at [`REFERENCE_RATE`]: 100 requests,
/// so that its p90 has 10 samples beyond it.
pub const SEGMENT_SECS: f64 = 1.0;

/// Segments per run, at least; more are run until `--seconds` has
/// passed. Each segment is followed by one closed-loop burst, so both
/// kinds of sample are spread over the whole run, and their medians
/// over the run discount a host stall that covers less than half of it.
pub const MIN_SEGMENTS: usize = 5;

/// A ladder step passes when its p99 stays within this limit...
pub const P99_LIMIT_MS: f64 = 10.0;

/// ...and no more than this many due requests are still unsent when
/// the step ends (a growing backlog).
pub const BACKLOG_LIMIT: usize = CONNS;

/// Requests in one closed-loop burst of `serve-cached` (`wall_s`).
pub const BURST_REQUESTS: usize = 200;

/// Jobs per submit in `serve-miss`: `ptb_loadgen`'s default `--batch`.
pub const MISS_BATCH: usize = 4;

/// How often a `serve-miss` client polls `/v1/jobs/{key}`. No client in
/// the repository polls per job (`examples/submit_batch.rs` polls its
/// batch every 200 ms, far coarser than a job), so this is the
/// benchmark's own choice: fine enough that it adds little to a job's
/// turnaround, and at two clients about 100 cheap requests/s.
pub const POLL_INTERVAL: Duration = Duration::from_millis(20);

fn serve_config() -> ServeConfig {
    ServeConfig {
        sim_threads: 2,
        job_timeout: Some(Duration::from_secs(120)),
        batch_max: 64,
        local_execution: true,
        // Shutdown waits out one reaper tick; a short tick keeps the
        // repeated set-up cheap to tear down (no leases are ever taken).
        reaper_tick: Duration::from_millis(20),
        ..ServeConfig::default()
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 4,
        queue_depth: 64,
        read_timeout: Duration::from_secs(10),
    }
}

/// A running in-process service over a scratch farm; stopped and its
/// directory removed on drop.
struct Service {
    handle: Option<ServeHandle>,
    addr: SocketAddr,
    _dir: Scratch,
}

impl Service {
    fn start(farm: Farm, dir: Scratch) -> Result<Service, String> {
        let handle = ptb_serve::start(
            Arc::new(farm),
            "127.0.0.1:0",
            serve_config(),
            server_config(),
        )
        .map_err(|e| format!("start server: {e}"))?;
        Ok(Service {
            addr: handle.addr(),
            handle: Some(handle),
            _dir: dir,
        })
    }

    fn state(&self) -> &Arc<ptb_serve::ServeState> {
        self.handle.as_ref().expect("service is running").state()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
    }
}

fn job(bench: Benchmark, n_cores: usize, max_cycles: u64) -> FarmJob {
    FarmJob::new(
        bench,
        SimConfig {
            n_cores,
            scale: Scale::Test,
            mechanism: MechanismKind::None,
            max_cycles,
            capture_trace: false,
            ..SimConfig::default()
        },
    )
}

fn batch_body(jobs: &[&FarmJob]) -> String {
    let mut m = Map::new();
    m.insert(
        "jobs".into(),
        Value::Array(jobs.iter().map(|j| j.to_value()).collect()),
    );
    json::to_string(&Value::Object(m))
}

/// `POST /v1/batches`; the `(key, disposition)` of every job.
fn submit(addr: SocketAddr, body: &str) -> Result<Vec<(String, String)>, String> {
    let (status, resp) =
        http_call(addr, "POST", "/v1/batches", Some(body)).map_err(|e| format!("submit: {e}"))?;
    if status != 200 {
        return Err(format!("submit: HTTP {status}: {resp}"));
    }
    let v = json::parse(&resp).map_err(|e| format!("submit response: {e}"))?;
    let jobs = v
        .get("jobs")
        .and_then(Value::as_array)
        .ok_or("submit response has no jobs")?;
    Ok(jobs
        .iter()
        .map(|j| {
            let s = |f: &str| j.get(f).and_then(Value::as_str).unwrap_or("").to_string();
            (s("key"), s("disposition"))
        })
        .collect())
}

/// `GET path`, requiring status 200.
fn get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let (status, body) =
        http_call(addr, "GET", path, None).map_err(|e| format!("GET {path}: {e}"))?;
    if status != 200 {
        return Err(format!("GET {path}: HTTP {status}: {body}"));
    }
    Ok(body)
}

/// Server-side per-layer metrics from `GET /v1/metrics`.
fn server_metrics(addr: SocketAddr, out: &mut Outcome) -> Result<(), String> {
    let body = get(addr, "/v1/metrics")?;
    let v = json::parse(&body).map_err(|e| format!("metrics: {e}"))?;
    let m = |name: &str| v.get(name).and_then(Value::as_f64).unwrap_or(0.0);
    out.set(
        "serve.handler.submit_ms_p50",
        m("serve.latency.submit.p50_ms"),
    );
    out.set(
        "serve.handler.report_ms_p50",
        m("serve.latency.report.p50_ms"),
    );
    out.set(
        "serve.handler.report_ms_p99",
        m("serve.latency.report.p99_ms"),
    );
    out.set(
        "serve.handler.execute_ms_p50",
        m("serve.latency.execute.p50_ms"),
    );
    out.set("http.rejected", m("serve.http.rejected"));
    out.set("http.errors", m("serve.http.errors"));
    out.set("serve.enqueued", m("serve.enqueued"));
    out.set("serve.completed", m("serve.completed"));
    out.set("serve.failed", m("serve.failed"));
    out.set("farm.hits", m("farm.hits"));
    out.set("farm.misses", m("farm.misses"));
    out.set("farm.exec.utilization_pct", m("farm.exec.utilization_pct"));
    out.set("farm.exec.busy_ms", m("farm.exec.busy_ms"));
    out.set("farm.exec.steals", m("farm.exec.steals"));
    Ok(())
}

/// `farm.store.bytes_per_entry` of the service's store.
fn bytes_per_entry(svc: &Service, out: &mut Outcome) -> Result<(), String> {
    let disk = svc
        .state()
        .farm()
        .store()
        .disk_stats()
        .map_err(|e| format!("store stats: {e}"))?;
    out.set(
        "farm.store.bytes_per_entry",
        disk.total_bytes as f64 / disk.entries.max(1) as f64,
    );
    Ok(())
}

/// Direct, socket-free calls: `api::handle` for report fetches and
/// report encoding, each under a span; every answer must be 200.
fn direct_calls(
    svc: &Service,
    tracer: &Tracer,
    keys: &[String],
    reports: &[RunReport],
    out: &mut Outcome,
) {
    for key in keys {
        let req = Request {
            method: "GET".into(),
            path: format!("/v1/reports/{key}"),
            query: Vec::new(),
            body: String::new(),
        };
        let resp = tracer.span("api.handle", 0, |_| api::handle(svc.state(), &req, 0));
        out.check(resp.status == 200);
    }
    for report in reports {
        let text = tracer.span("report.encode", 0, |_| json::to_string(&report.to_value()));
        out.check(!text.is_empty());
    }
    out.set(
        "serve.api.report_us_p50",
        median(&tracer.durations_us("api.handle")),
    );
    out.set(
        "report.encode_us_p50",
        median(&tracer.durations_us("report.encode")),
    );
}

// ---------------------------------------------------------------- cached

/// The stored entries as the client knows them: entry `i` is template
/// `i % TEMPLATES.len()` under a distinct config (one hashed field the
/// run never reaches differs), so every key is distinct.
struct Entries {
    jobs: Vec<FarmJob>,
    keys: Vec<String>,
}

impl Entries {
    fn new() -> Entries {
        let specs: Vec<_> = TEMPLATES
            .iter()
            .map(|&(b, n)| b.spec(n, Scale::Test))
            .collect();
        let (jobs, keys) = (0..CACHED_ENTRIES)
            .map(|i| {
                let t = i % TEMPLATES.len();
                let (bench, n) = TEMPLATES[t];
                let j = job(bench, n, 1_000_000 + i as u64);
                let key = ptb_farm::hash::job_key(&j.config, &specs[t]);
                (j, key)
            })
            .unzip();
        Entries { jobs, keys }
    }

    /// Entry indices of request `i` of ladder step `step`.
    fn picks(&self, seed: u64, step: u64, i: u64) -> [usize; KEYS_PER_REQUEST] {
        let mut rng = SmallRng::seed_from_u64(seed ^ (step << 48) ^ (i << 8));
        std::array::from_fn(|_| rng.random_range(0..self.keys.len()))
    }
}

/// The service over the populated store.
struct Cached {
    svc: Service,
    templates: Vec<RunReport>,
    digests: Vec<String>,
}

impl Cached {
    /// Simulate the templates, store every entry, start the service.
    fn setup(e: &Entries) -> Result<Cached, String> {
        let templates: Vec<RunReport> = TEMPLATES
            .iter()
            .map(|&(bench, n)| {
                Simulation::new(job(bench, n, SimConfig::default().max_cycles).config)
                    .run(bench)
                    .map_err(|e| format!("template {bench}/{n}c: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let dir = Scratch::new("cached")?;
        let farm = Farm::open(dir.path()).map_err(|e| format!("open farm: {e}"))?;
        for (i, (j, key)) in e.jobs.iter().zip(&e.keys).enumerate() {
            farm.store()
                .put(key, j, &templates[i % TEMPLATES.len()])
                .map_err(|e| format!("populate: {e}"))?;
        }
        let digests = templates.iter().map(report_digest).collect();
        Ok(Cached {
            svc: Service::start(farm, dir)?,
            templates,
            digests,
        })
    }
}

/// Client-side tallies of one thread (merged per step).
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    lat_ms: Vec<f64>,
    late_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    fetch_ms: Vec<f64>,
    unsent: usize,
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.lat_ms.extend(o.lat_ms);
        self.late_ms.extend(o.late_ms);
        self.submit_ms.extend(o.submit_ms);
        self.fetch_ms.extend(o.fetch_ms);
        self.unsent += o.unsent;
    }
}

/// Shared state of one cached-traffic run.
struct CachedLoad<'a> {
    e: &'a Entries,
    c: &'a Cached,
    seed: u64,
    tracer: &'a Tracer,
    fetched: Vec<AtomicBool>,
    reused: AtomicUsize,
    fetches: AtomicUsize,
}

impl<'a> CachedLoad<'a> {
    fn new(e: &'a Entries, c: &'a Cached, seed: u64, tracer: &'a Tracer) -> CachedLoad<'a> {
        CachedLoad {
            e,
            c,
            seed,
            tracer,
            fetched: (0..e.keys.len()).map(|_| AtomicBool::new(false)).collect(),
            reused: AtomicUsize::new(0),
            fetches: AtomicUsize::new(0),
        }
    }

    /// One request: submit the picked keys (each must resolve as
    /// cached), then fetch and verify each report. `memo` holds, per
    /// template, a body already decoded and verified.
    fn request(&self, picks: &[usize], t: &mut Tally, memo: &mut [Option<String>]) -> bool {
        self.tracer.span("request", 0, |root| {
            let jobs: Vec<&FarmJob> = picks.iter().map(|&p| &self.e.jobs[p]).collect();
            let body = batch_body(&jobs);
            let t0 = Instant::now();
            let sub = self
                .tracer
                .span("http.submit", root, |_| submit(self.c.svc.addr, &body));
            t.submit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let mut ok = match sub {
                Ok(d) => {
                    d.len() == picks.len()
                        && d.iter()
                            .zip(picks)
                            .all(|((k, disp), &p)| *k == self.e.keys[p] && disp == "cached")
                }
                Err(e) => {
                    eprintln!("[serve-cached] {e}");
                    false
                }
            };
            for &p in picks {
                ok &= self.fetch(root, p, t, memo);
            }
            ok
        })
    }

    fn fetch(&self, root: SpanId, p: usize, t: &mut Tally, memo: &mut [Option<String>]) -> bool {
        self.fetches.fetch_add(1, Ordering::Relaxed);
        if self.fetched[p].swap(true, Ordering::Relaxed) {
            self.reused.fetch_add(1, Ordering::Relaxed);
        }
        let t0 = Instant::now();
        let path = format!("/v1/reports/{}", self.e.keys[p]);
        let r = self
            .tracer
            .span("http.fetch", root, |_| get(self.c.svc.addr, &path));
        t.fetch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let tpl = p % TEMPLATES.len();
        match r {
            Ok(body) if memo[tpl].as_deref() == Some(body.as_str()) => true,
            Ok(body) => {
                let ok = body_digest(&body).as_deref() == Ok(self.c.digests[tpl].as_str());
                if ok {
                    memo[tpl] = Some(body);
                }
                ok
            }
            Err(e) => {
                eprintln!("[serve-cached] {e}");
                false
            }
        }
    }

    /// Open loop: `rate × secs` requests, request `i` due at
    /// `i / rate`, sent from [`CONNS`] connections and timed from its
    /// due time. Requests not started by the step's end are unsent.
    fn step(&self, step: u64, rate: f64, secs: f64) -> Tally {
        let n = (rate * secs).round() as u64;
        let next = AtomicUsize::new(0);
        let t0 = Instant::now() + Duration::from_millis(20);
        let end = t0 + Duration::from_secs_f64(secs) + Duration::from_millis(50);
        self.run_threads(|t, memo| loop {
            let i = next.fetch_add(1, Ordering::Relaxed) as u64;
            if i >= n {
                break;
            }
            let due = t0 + Duration::from_secs_f64(i as f64 / rate);
            let picks = self.e.picks(self.seed, step, i);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            if sent > end {
                t.unsent += 1;
                continue;
            }
            let ok = self.request(&picks, t, memo);
            t.attempted += 1;
            t.failed += u64::from(!ok);
            t.lat_ms.push(due.elapsed().as_secs_f64() * 1e3);
            t.late_ms.push(sent.duration_since(due).as_secs_f64() * 1e3);
        })
    }

    /// Closed loop: [`BURST_REQUESTS`] requests back to back from
    /// [`CONNS`] connections; returns the tallies and the wall time.
    fn burst(&self, step: u64) -> (Tally, f64) {
        let next = AtomicUsize::new(0);
        let t0 = Instant::now();
        let tally = self.run_threads(|t, memo| loop {
            let i = next.fetch_add(1, Ordering::Relaxed) as u64;
            if i >= BURST_REQUESTS as u64 {
                break;
            }
            let picks = self.e.picks(self.seed, step, i);
            let ok = self.request(&picks, t, memo);
            t.attempted += 1;
            t.failed += u64::from(!ok);
        });
        (tally, t0.elapsed().as_secs_f64())
    }

    fn run_threads(&self, body: impl Fn(&mut Tally, &mut [Option<String>]) + Sync) -> Tally {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..CONNS)
                .map(|_| {
                    s.spawn(|| {
                        let mut t = Tally::default();
                        let mut memo = vec![None; TEMPLATES.len()];
                        body(&mut t, &mut memo);
                        t
                    })
                })
                .collect();
            let mut all = Tally::default();
            for h in handles {
                all.merge(h.join().expect("load thread panicked"));
            }
            all
        })
    }
}

fn passes(t: &Tally) -> bool {
    t.failed == 0 && t.unsent <= BACKLOG_LIMIT && percentile(&t.lat_ms, 99.0) <= P99_LIMIT_MS
}

/// `serve-cached`: unit of work (`wall_s`) is a closed-loop burst of
/// [`BURST_REQUESTS`] requests; operation (`p50_ms`, `p90_ms`) is one
/// request at [`REFERENCE_RATE`], timed from its due time. Each metric
/// is the median over the run's segments (see [`MIN_SEGMENTS`]).
pub fn run_cached(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let e = Entries::new();
    let (c, setup_s) = timed_setup(|| Cached::setup(&e))?;
    let tracer = if args.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let off = Tracer::off();
    // The segments at the reference rate run traced in a traced run; the
    // bursts never are.
    let ladder_load = CachedLoad::new(&e, &c, args.seed, &tracer);
    let burst_load = CachedLoad::new(&e, &c, args.seed, &off);
    let mut step = 0u64;
    let mut next_step = || {
        step += 1;
        step
    };

    let warm_up = ladder_load.step(next_step(), REFERENCE_RATE, 1.0);
    out.attempted += warm_up.attempted;
    out.failed += warm_up.failed;
    let start = Instant::now();
    let mut segments: Vec<Tally> = Vec::new();
    let mut bursts = Vec::new();
    while segments.len() < MIN_SEGMENTS
        || (!args.trace && start.elapsed().as_secs_f64() < args.seconds)
    {
        segments.push(ladder_load.step(next_step(), REFERENCE_RATE, SEGMENT_SECS));
        let (t, wall) = burst_load.burst(next_step());
        out.attempted += t.attempted;
        out.failed += t.failed;
        bursts.push(wall);
    }
    for t in &segments {
        out.attempted += t.attempted;
        out.failed += t.failed;
    }

    if !args.trace {
        let seg_pct =
            |q: f64| -> Vec<f64> { segments.iter().map(|t| percentile(&t.lat_ms, q)).collect() };
        out.set("wall_s", median(&bursts));
        out.set("p50_ms", median(&seg_pct(50.0)));
        out.set("p90_ms", median(&seg_pct(90.0)));
        out.set("setup_s", setup_s);
        return Ok(());
    }

    let mut reference = Tally::default();
    for t in segments {
        reference.merge(t);
    }
    // The whole ladder, one second per step, for `serve.max_rps`.
    let mut ladder: Vec<(f64, Tally)> = Vec::new();
    for rate in LADDER {
        let t = ladder_load.step(next_step(), rate, 1.0);
        out.attempted += t.attempted;
        out.failed += t.failed;
        ladder.push((rate, t));
    }
    let (t, traced_wall) = ladder_load.burst(next_step());
    out.attempted += t.attempted;
    out.failed += t.failed;
    out.set(
        "trace.overhead_pct",
        (traced_wall / median(&bursts) - 1.0) * 100.0,
    );
    let max_rps = ladder
        .iter()
        .filter(|(_, t)| passes(t))
        .map(|(r, _)| *r)
        .fold(0.0, f64::max);
    out.set("serve.max_rps", max_rps);
    out.set(
        "loadgen.lateness_p99_ms",
        percentile(&reference.late_ms, 99.0),
    );
    out.set("http.submit_ms_p50", median(&reference.submit_ms));
    out.set("http.submit_ms_p99", percentile(&reference.submit_ms, 99.0));
    out.set("http.fetch_ms_p50", median(&reference.fetch_ms));
    out.set("http.fetch_ms_p99", percentile(&reference.fetch_ms, 99.0));
    out.set(
        "serve.key_reuse_frac",
        ladder_load.reused.load(Ordering::Relaxed) as f64
            / ladder_load.fetches.load(Ordering::Relaxed).max(1) as f64,
    );
    server_metrics(c.svc.addr, out)?;
    bytes_per_entry(&c.svc, out)?;
    let sample: Vec<String> = e.keys.iter().take(300).cloned().collect();
    direct_calls(&c.svc, &tracer, &sample, &c.templates, out);
    let entries: Vec<(FarmJob, RunReport)> = (0..300)
        .map(|i| (e.jobs[i].clone(), c.templates[i % TEMPLATES.len()].clone()))
        .collect();
    probe::store_calls(&tracer, 0, &entries, out)?;
    tracer.write(&crate::trace_path("serve-cached", args.seed))
}

// ------------------------------------------------------------------ miss

/// One closed-loop client's share of a unit: submit its jobs
/// [`MISS_BATCH`] at a time, poll each until done, fetch and verify.
/// Each job's turnaround goes to `t.lat_ms`, and each verified job with
/// its key to `done`.
fn miss_client(
    svc: &Service,
    tracer: &Tracer,
    jobs: &[FarmJob],
    reference: &[(Benchmark, String)],
    t: &mut Tally,
    done: &mut Vec<(FarmJob, String)>,
) {
    for chunk in jobs.chunks(MISS_BATCH) {
        let refs: Vec<&FarmJob> = chunk.iter().collect();
        let body = batch_body(&refs);
        let t0 = Instant::now();
        tracer.span("request", 0, |root| {
            let sub = tracer.span("http.submit", root, |_| submit(svc.addr, &body));
            t.submit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let keys: Vec<Option<String>> = match sub {
                Ok(d) if d.len() == chunk.len() => d
                    .into_iter()
                    .map(|(k, disp)| (disp == "enqueued").then_some(k))
                    .collect(),
                Ok(_) => vec![None; chunk.len()],
                Err(e) => {
                    eprintln!("[serve-miss] {e}");
                    vec![None; chunk.len()]
                }
            };
            for (job, key) in chunk.iter().zip(keys) {
                t.attempted += 1;
                let ok = key.is_some_and(|key| {
                    let ok = miss_job(svc, tracer, root, job, &key, reference, t);
                    if ok {
                        done.push((job.clone(), key));
                    }
                    ok
                });
                t.failed += u64::from(!ok);
                t.lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        });
    }
}

/// Poll one job to completion, fetch its report, and check it against
/// both the report stored under its key and a direct simulation.
fn miss_job(
    svc: &Service,
    tracer: &Tracer,
    root: SpanId,
    job: &FarmJob,
    key: &str,
    reference: &[(Benchmark, String)],
    t: &mut Tally,
) -> bool {
    let deadline = Instant::now() + Duration::from_secs(60);
    let status_path = format!("/v1/jobs/{key}");
    loop {
        let state = tracer
            .span("http.poll", root, |_| get(svc.addr, &status_path))
            .and_then(|b| json::parse(&b).map_err(|e| e.to_string()))
            .map(|v| {
                v.get("state")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string()
            });
        match state.as_deref() {
            Ok("done") => break,
            Ok("queued" | "running" | "leased") if Instant::now() < deadline => {
                std::thread::sleep(POLL_INTERVAL);
            }
            other => {
                eprintln!("[serve-miss] {}: {other:?}", job.label());
                return false;
            }
        }
    }
    let t0 = Instant::now();
    let body = tracer.span("http.fetch", root, |_| {
        get(svc.addr, &format!("/v1/reports/{key}"))
    });
    t.fetch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    let Ok(Ok(got)) = body.map(|b| body_digest(&b)) else {
        return false;
    };
    let stored = match svc.state().farm().store().read_entry(key) {
        Ok(Some((_, report))) => report_digest(&report),
        _ => return false,
    };
    let direct = reference
        .iter()
        .find(|(b, _)| *b == job.bench)
        .map(|(_, d)| d);
    got == stored && Some(&got) == direct
}

/// `serve-miss`: unit of work (`wall_s`) is 28 new jobs (each client
/// one job of each of the 14 models at 2 cores, in a seeded order);
/// operation (`p50_ms`, `p90_ms`) is one job's turnaround, from its
/// submit until its report is fetched.
pub fn run_miss(args: &Args, out: &mut Outcome) -> Result<(), String> {
    // The oracle: each model's report from a direct simulation (not part
    // of the service's set-up).
    let reference: Vec<(Benchmark, String)> = Benchmark::ALL
        .iter()
        .map(|&b| {
            let r = Simulation::new(job(b, 2, SimConfig::default().max_cycles).config)
                .run(b)
                .map_err(|e| format!("reference {b}: {e}"))?;
            Ok((b, report_digest(&r)))
        })
        .collect::<Result<_, String>>()?;
    let (svc, setup_s) = timed_setup(|| {
        let dir = Scratch::new("miss")?;
        let farm = Farm::open(dir.path()).map_err(|e| format!("open farm: {e}"))?;
        Service::start(farm, dir)
    })?;

    let seq = AtomicUsize::new(0);
    let unit = |u: u64, tracer: &Tracer| -> (Tally, f64, Vec<(FarmJob, String)>) {
        let per_client: Vec<Vec<FarmJob>> = (0..CONNS as u64)
            .map(|c| {
                let mut benches = Benchmark::ALL.to_vec();
                crate::shuffle(&mut benches, args.seed ^ (u << 8) ^ c);
                benches
                    .into_iter()
                    .map(|b| {
                        // A key no earlier job in this run used.
                        let n = seq.fetch_add(1, Ordering::Relaxed) as u64;
                        job(b, 2, 10_000_000 + n)
                    })
                    .collect()
            })
            .collect();
        let t0 = Instant::now();
        let results: Vec<(Tally, Vec<(FarmJob, String)>)> = std::thread::scope(|s| {
            let handles: Vec<_> = per_client
                .iter()
                .map(|jobs| {
                    let (svc, reference) = (&svc, &reference);
                    s.spawn(move || {
                        let mut t = Tally::default();
                        let mut done = Vec::new();
                        miss_client(svc, tracer, jobs, reference, &mut t, &mut done);
                        (t, done)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall = t0.elapsed().as_secs_f64();
        let mut all = Tally::default();
        let mut done = Vec::new();
        for (t, d) in results {
            all.merge(t);
            done.extend(d);
        }
        (all, wall, done)
    };

    let off = Tracer::off();
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut tally = Tally::default();
    let mut u = 0u64;
    while walls.is_empty() || (!args.trace && start.elapsed().as_secs_f64() < args.seconds) {
        let (t, wall, _) = unit(u, &off);
        u += 1;
        tally.merge(t);
        walls.push(wall);
    }
    if !args.trace {
        out.attempted += tally.attempted;
        out.failed += tally.failed;
        out.set("wall_s", median(&walls));
        out.set("p50_ms", median(&tally.lat_ms));
        out.set("p90_ms", percentile(&tally.lat_ms, 90.0));
        out.set("setup_s", setup_s);
        return Ok(());
    }

    let tracer = Tracer::on();
    let mut traced = Tally::default();
    let mut traced_walls = Vec::new();
    let mut done = Vec::new();
    for _ in 0..3 {
        let (t, wall, d) = unit(u, &tracer);
        u += 1;
        traced.merge(t);
        traced_walls.push(wall);
        done.extend(d);
    }
    out.attempted += tally.attempted + traced.attempted;
    out.failed += tally.failed + traced.failed;
    out.set(
        "trace.overhead_pct",
        (median(&traced_walls) / median(&walls) - 1.0) * 100.0,
    );
    out.set(
        "farm.jobs_per_s",
        2.0 * Benchmark::ALL.len() as f64 / median(&walls),
    );
    out.set("http.submit_ms_p50", median(&traced.submit_ms));
    out.set("http.submit_ms_p99", percentile(&traced.submit_ms, 99.0));
    out.set("http.fetch_ms_p50", median(&traced.fetch_ms));
    out.set("http.fetch_ms_p99", percentile(&traced.fetch_ms, 99.0));
    server_metrics(svc.addr, out)?;
    bytes_per_entry(&svc, out)?;
    let keys: Vec<String> = done.iter().map(|(_, k)| k.clone()).collect();
    let entries: Vec<(FarmJob, RunReport)> = done
        .iter()
        .filter_map(|(j, k)| Some((j.clone(), svc.state().farm().store().read_entry(k).ok()??.1)))
        .collect();
    let reports: Vec<RunReport> = entries.iter().map(|(_, r)| r.clone()).collect();
    direct_calls(&svc, &tracer, &keys, &reports, out);
    probe::store_calls(&tracer, 0, &entries, out)?;
    tracer.write(&crate::trace_path("serve-miss", args.seed))
}
