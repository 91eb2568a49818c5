//! `serve_read` and `serve_update`: a resident `GraphService` over the
//! control program, driven through its TCP server.
//!
//! `serve_read` runs two closed-loop reader connections against a
//! service without a data directory: frame → pin → lookup → encode, with
//! the incremental session and the store idle. `serve_update` opens the
//! same service durably and adds one writer connection paced open-loop
//! beside one reader, then recovers a copy of the data directory.

use std::collections::{BTreeSet, HashSet};
use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use datalog::{
    goal_matches, ChangeSet, Const, Database, Engine, IncrementalEngine, Program, Query,
};
use serve::server::dispatch;
use serve::{
    Body, Client, EpochRegistry, GraphService, Op, Request, Response, Server, ServiceConfig,
};
use store::{replay_tail, DurableStore, FsyncPolicy, StoreConfig};
use vada_link::mapping::load_facts;
use vada_link::model::CompanyGraph;
use vada_link::programs::CONTROL_PROGRAM;

use crate::inputs::{digest, register};
use crate::load::{GoalMix, OpenLoop, UpdateFeed};
use crate::report::{timed, Report};
use crate::stats::{median, percentile, supported_percentile};
use crate::trace::Tracer;
use crate::{median_setup, Ctx, Scale};

/// Persons at full scale.
const PERSONS: usize = 15_000;
/// Closed-loop reader connections of `serve_read`.
const READERS: usize = 2;
/// Reads each connection issues before the timed window.
const WARMUP_READS: usize = 1_000;
/// Updates per second at full scale: a register feed arrives on
/// schedule. A tenth of the graph takes ten times the rate, which keeps
/// the writer as busy as at full scale.
const UPDATE_RATE_HZ: f64 = 6.0;
/// Goals checked against an independently evaluated database.
const SAMPLED_GOALS: usize = 500;
/// Times the copied data directory is recovered.
const RECOVERIES: usize = 3;
/// Reads and updates of the traced run.
const TRACED_READS: usize = 2_000;
const TRACED_UPDATES: usize = 50;

/// `fsync` on every commit, a snapshot every 64 commits.
const STORE: StoreConfig = StoreConfig {
    fsync: FsyncPolicy::Always,
    snapshot_every: 64,
};

fn update_rate(scale: Scale) -> f64 {
    UPDATE_RATE_HZ * (PERSONS / scale.of(PERSONS)) as f64
}

fn program() -> Program {
    Program::parse(CONTROL_PROGRAM).expect("bundled program")
}

struct Booted {
    svc: Arc<GraphService>,
    /// Taken by `drop`, which stops the accept loop.
    server: Option<Server>,
    addr: SocketAddr,
    g: CompanyGraph,
    names: Arc<Vec<String>>,
    first_company: usize,
}

/// Generates the register, loads it and starts the service on an
/// ephemeral port; durable when `data_dir` is given (created afresh).
fn boot(ctx: &Ctx, data_dir: Option<&Path>) -> Booted {
    let reg = register(ctx.scale.of(PERSONS), ctx.structure, ctx.seed);
    let (names, first_company) = reg.node_names();
    let g = reg.g;
    let mut db = Database::new();
    load_facts(&g, &mut db);
    let cfg = ServiceConfig::default();
    let svc = match data_dir {
        None => GraphService::new(&program(), db, cfg).expect("service opens"),
        Some(dir) => {
            fresh_dir(dir);
            GraphService::open_durable(&program(), db, cfg, STORE, dir)
                .expect("durable service opens")
                .0
        }
    };
    let svc = Arc::new(svc);
    let server = Server::spawn(svc.clone(), "127.0.0.1:0").expect("bind");
    Booted {
        svc,
        addr: server.addr(),
        server: Some(server),
        g,
        names,
        first_company,
    }
}

fn fresh_dir(dir: &Path) {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).expect("data directory");
}

/// Stops the accept loop and waits for it, which releases the service
/// and with it the store's lock.
impl Drop for Booted {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.join();
        }
    }
}

/// Latencies of one connection's reads, in issue order, by direction.
#[derive(Default)]
struct Reads {
    forward_ns: Vec<u64>,
    backward_ns: Vec<u64>,
    failed: u64,
}

impl Reads {
    fn len(&self) -> usize {
        self.forward_ns.len() + self.backward_ns.len()
    }
}

/// Closed-loop reads on one connection until `done` says stop. Every
/// goal asks about a node that controls itself, so an empty answer is a
/// wrong one.
fn read_loop(client: &mut Client, mix: &mut GoalMix, mut done: impl FnMut(usize) -> bool) -> Reads {
    let mut r = Reads::default();
    while !done(r.len()) {
        let goal = mix.next_goal();
        let start = Instant::now();
        let answer = client.query(&goal);
        let ns = start.elapsed().as_nanos() as u64;
        if goal.ends_with(", X)?") {
            r.forward_ns.push(ns);
        } else {
            r.backward_ns.push(ns);
        }
        if !matches!(answer, Ok((_, rows)) if !rows.is_empty()) {
            r.failed += 1;
        }
    }
    r
}

/// The latencies of one class of reads over the whole window, ascending.
fn sorted_ns(per_connection: &[&[u64]]) -> Vec<u64> {
    let mut all: Vec<u64> = per_connection
        .iter()
        .flat_map(|c| c.iter().copied())
        .collect();
    all.sort_unstable();
    all
}

fn p50_ms(sorted: &[u64]) -> f64 {
    percentile(sorted, 0.50) as f64 / 1e6
}

/// The `want` percentile of a class of reads, in milliseconds; the
/// sample count and the count beyond the tail are printed. A sample too
/// small for it gives the highest percentile it supports, and the run
/// fails its check.
fn tail_ms(what: &str, sorted: &[u64], want: f64, rep: &mut Report) -> f64 {
    let tail = supported_percentile(sorted.len(), want);
    rep.check(tail == want, || {
        format!("{} {what} support no p{:.0}", sorted.len(), want * 100.0)
    });
    eprintln!(
        "  {what}: {} samples, tail p{:.0} with {} beyond it",
        sorted.len(),
        tail * 100.0,
        sorted.len() - (tail * sorted.len() as f64).ceil() as usize
    );
    percentile(sorted, tail) as f64 / 1e6
}

/// Counts the reads and names `read_qps`, `read_p50_us` and
/// `read_p99_us` over both directions; returns their latencies, ascending.
fn name_read_figures(reads: &[Reads], window_s: f64, rep: &mut Report) -> Vec<u64> {
    let total: usize = reads.iter().map(Reads::len).sum();
    rep.ops(total as u64, reads.iter().map(|r| r.failed).sum());
    let all = sorted_ns(
        &reads
            .iter()
            .flat_map(|r| [r.forward_ns.as_slice(), r.backward_ns.as_slice()])
            .collect::<Vec<_>>(),
    );
    let qps = total as f64 / window_s;
    rep.name("read_qps", qps, "1/s");
    rep.put("rate_per_s", qps);
    rep.name("read_p50_us", p50_ms(&all) * 1e3, "us");
    let p99_ms = tail_ms("reads", &all, 0.99, rep);
    rep.name("read_p99_us", p99_ms * 1e3, "us");
    all
}

/// The control fixpoint evaluated from scratch, outside the service:
/// the register's facts, then every acknowledged update (deletions
/// before insertions, as the service applies them), then one run.
fn reference_db(g: &CompanyGraph, updates: &[String]) -> Database {
    let mut db = Database::new();
    load_facts(g, &mut db);
    for update in updates {
        let (mut inserts, mut deletes) = (Vec::new(), Vec::new());
        for line in update.lines() {
            let args: Vec<&str> = line[1..]
                .trim_start_matches("own(")
                .trim_end_matches(')')
                .split(',')
                .collect();
            let tuple = [
                db.sym(args[0]),
                db.sym(args[1]),
                Const::float(args[2].parse().expect("weight")),
            ];
            if line.starts_with('+') {
                inserts.push(tuple);
            } else {
                deletes.push(tuple);
            }
        }
        for t in deletes {
            db.retract_fact("own", &t);
        }
        for t in inserts {
            db.assert_fact("own", &t).expect("arity");
        }
    }
    Engine::new(&program())
        .expect("bundled program")
        .run(&mut db)
        .expect("fixpoint");
    db
}

/// Asks the service `SAMPLED_GOALS` goals of the read mix and compares
/// each answer with the reference database.
fn check_sampled_goals(b: &Booted, reference: &Database, seed: u64, rep: &mut Report) {
    let mut client = Client::connect(b.addr).expect("checker connects");
    let mut mix = GoalMix::new(b.names.clone(), seed ^ 0x5A3B1E);
    for _ in 0..SAMPLED_GOALS {
        let goal = mix.next_goal();
        let want = goal_matches(reference, &Query::parse(&goal).expect("goal parses"));
        let got = client.query(&goal).map(|(_, rows)| rows);
        rep.check(got.as_ref().ok() == Some(&want), || {
            format!("{goal} answered {got:?}, reference has {} rows", want.len())
        });
    }
}

fn warm_up(b: &Booted, connections: usize, seed: u64) {
    std::thread::scope(|s| {
        for r in 0..connections {
            let mut mix = GoalMix::new(b.names.clone(), seed ^ 0x3A43 ^ r as u64);
            let addr = b.addr;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("reader connects");
                read_loop(&mut client, &mut mix, |n| n >= WARMUP_READS);
            });
        }
    })
}

/// One set-up of a serve workload: boot, then the warm-up reads.
fn set_up(ctx: &Ctx, data_dir: Option<&Path>, connections: usize) -> Booted {
    let b = boot(ctx, data_dir);
    warm_up(&b, connections, ctx.seed);
    b
}

/// Untraced `serve_read`: returns the set-up time.
pub fn measure_read(ctx: &Ctx, rep: &mut Report) -> f64 {
    let (setup_s, b) = median_setup(|| set_up(ctx, None, READERS));

    let window = Duration::from_secs_f64(ctx.budget_s);
    let start = Instant::now();
    let reads: Vec<Reads> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..READERS)
            .map(|r| {
                let mut mix = GoalMix::new(b.names.clone(), ctx.seed ^ 0xB0B ^ r as u64);
                let addr = b.addr;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("reader connects");
                    read_loop(&mut client, &mut mix, |_| start.elapsed() >= window)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect()
    });
    name_read_figures(&reads, start.elapsed().as_secs_f64(), rep);
    // Class a: forward lookups `control("nK", X)?`; class b: backward.
    let forward: Vec<&[u64]> = reads.iter().map(|r| r.forward_ns.as_slice()).collect();
    let backward: Vec<&[u64]> = reads.iter().map(|r| r.backward_ns.as_slice()).collect();
    let (forward, backward) = (sorted_ns(&forward), sorted_ns(&backward));
    let a_tail = tail_ms("forward lookups", &forward, 0.99, rep);
    let b_tail = tail_ms("backward lookups", &backward, 0.99, rep);
    rep.put("a_p50_ms", p50_ms(&forward));
    rep.put("a_tail_ms", a_tail);
    rep.put("b_p50_ms", p50_ms(&backward));
    rep.put("b_tail_ms", b_tail);

    check_sampled_goals(&b, &reference_db(&b.g, &[]), ctx.seed, rep);
    drop(b);
    setup_s
}

struct Written {
    /// Acknowledged updates, in commit order.
    acked: Vec<String>,
    pacing: OpenLoop,
    failed: u64,
    /// Send-to-acknowledge time per update, nanoseconds.
    service_ns: Vec<u64>,
}

/// One writer connection paced open-loop: update `i` is due at
/// `i / rate` seconds whether or not the previous one was acknowledged.
fn write_paced(b: &Booted, feed: &mut UpdateFeed, n: usize, rate_hz: f64) -> Written {
    let mut client = Client::connect(b.addr).expect("writer connects");
    let mut w = Written {
        acked: Vec::with_capacity(n),
        pacing: OpenLoop::new(rate_hz),
        failed: 0,
        service_ns: Vec::with_capacity(n),
    };
    let start = Instant::now();
    for _ in 0..n {
        let due = Duration::from_nanos(w.pacing.next_due_ns());
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let delta = feed.next_update();
        let sent = start.elapsed().as_nanos() as u64;
        let answer = client.update(&delta);
        let done = start.elapsed().as_nanos() as u64;
        w.pacing.record(sent, done);
        w.service_ns.push(done - sent);
        match answer {
            Ok(_) => w.acked.push(delta),
            Err(_) => w.failed += 1,
        }
    }
    w
}

/// One reader beside one paced writer; the reader stops with the writer.
fn read_beside_writer(
    b: &Booted,
    feed: &mut UpdateFeed,
    n: usize,
    rate_hz: f64,
    seed: u64,
) -> (Reads, Written, f64) {
    let writing = AtomicBool::new(true);
    let start = Instant::now();
    let (reads, written) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut client = Client::connect(b.addr).expect("reader connects");
            let mut mix = GoalMix::new(b.names.clone(), seed ^ 0xB0B);
            read_loop(&mut client, &mut mix, |_| !writing.load(Ordering::SeqCst))
        });
        let written = write_paced(b, feed, n, rate_hz);
        writing.store(false, Ordering::SeqCst);
        (reader.join().expect("reader thread"), written)
    });
    (reads, written, start.elapsed().as_secs_f64())
}

/// Copies a data directory, leaving out the `LOCK` file: the owner is
/// this live process, whereas a crashed owner's lock would be stale.
fn copy_data_dir(from: &Path, to: &Path) {
    fresh_dir(to);
    for entry in fs::read_dir(from).expect("data directory lists") {
        let path = entry.expect("entry").path();
        if path.file_name().is_some_and(|n| n != "LOCK") {
            fs::copy(&path, to.join(path.file_name().expect("name"))).expect("copy");
        }
    }
}

/// The `own` facts the acknowledged updates leave present.
fn surviving_inserts(acked: &[String]) -> BTreeSet<String> {
    let mut live = BTreeSet::new();
    for update in acked {
        let (deletes, inserts): (Vec<&str>, Vec<&str>) =
            update.lines().partition(|l| l.starts_with('-'));
        for l in deletes {
            live.remove(&l[1..]);
        }
        for l in inserts {
            live.insert(l[1..].to_owned());
        }
    }
    live
}

/// Recovers the copied data directory `RECOVERIES` times and checks the
/// recovered state against the live service's last epoch.
fn recover(b: &Booted, copy: &Path, acked: &[String], rep: &mut Report) -> f64 {
    let live = b.svc.pin();
    let want_control = digest(live.db().dump_canonical("control"));
    let mut secs = Vec::new();
    for i in 0..RECOVERIES {
        let (s, opened) = timed(|| {
            GraphService::open_durable(
                &program(),
                Database::new(),
                ServiceConfig::default(),
                STORE,
                copy,
            )
        });
        secs.push(s);
        let Ok((svc, info)) = opened else {
            rep.check(false, || format!("recovery {i} failed to open the copy"));
            continue;
        };
        let pin = svc.pin();
        let db = pin.db();
        rep.check(info.seq == acked.len() as u64, || {
            format!(
                "recovery {i} restored seq {}, {} updates were acknowledged",
                info.seq,
                acked.len()
            )
        });
        rep.check(digest(db.dump_canonical("control")) == want_control, || {
            format!("recovery {i}: control differs from the live service's last epoch")
        });
        rep.check(db.total_facts() == live.db().total_facts(), || {
            format!(
                "recovery {i}: {} facts, live service has {}",
                db.total_facts(),
                live.db().total_facts()
            )
        });
        if i == 0 {
            for fact in surviving_inserts(acked) {
                let goal = Query::parse(&format!("{fact}?")).expect("fact parses");
                rep.check(!goal_matches(db, &goal).is_empty(), || {
                    format!("acknowledged {fact} is missing after recovery")
                });
            }
        }
    }
    median(&secs)
}

fn data_dir(ctx: &Ctx, tag: &str) -> PathBuf {
    ctx.out_dir.join(format!(
        "data-{}-{tag}-{}",
        ctx.scale.as_str(),
        std::process::id()
    ))
}

/// Untraced `serve_update`: returns the set-up time.
pub fn measure_update(ctx: &Ctx, rep: &mut Report) -> f64 {
    let dir = data_dir(ctx, "live");
    let (setup_s, b) = median_setup(|| set_up(ctx, Some(&dir), 1));

    let rate = update_rate(ctx.scale);
    // The window holds a whole number of updates at the feed's rate.
    let n = (ctx.budget_s * rate).round() as usize;
    let mut feed = UpdateFeed::new(b.names.clone(), b.first_company, ctx.seed ^ 0xA11CE);
    let (reads, written, window_s) = read_beside_writer(&b, &mut feed, n, rate, ctx.seed);
    // Class a: reads beside the writer, both directions. Their p99 sits
    // where the scheduler's time slices start to show (three busy
    // threads on two cores) and did not repeat within any bound the
    // contract allows; p95 does, so it is the gated tail, and the p99 is
    // the per-layer metric `serve.read_p99_under_write_us`.
    let all = name_read_figures(std::slice::from_ref(&reads), window_s, rep);
    let p95_ms = tail_ms("reads beside the writer", &all, 0.95, rep);
    rep.name("read_p95_us", p95_ms * 1e3, "us");
    rep.put("a_p50_ms", p50_ms(&all));
    rep.put("a_tail_ms", p95_ms);

    // Class b: updates, timed from when each was due.
    rep.ops(n as u64, written.failed);
    let mut lat = written.pacing.latency_ns.clone();
    lat.sort_unstable();
    let tail = supported_percentile(lat.len(), 0.90);
    rep.check(tail == 0.90, || {
        format!(
            "{} updates support only p{:.0}, not p90",
            lat.len(),
            tail * 100.0
        )
    });
    let late_ms = *written.pacing.late_ns.iter().max().unwrap_or(&0) as f64 / 1e6;
    eprintln!(
        "  updates: {} samples, tail p{:.0}, writer at most {late_ms:.3} ms late",
        lat.len(),
        tail * 100.0
    );
    let (b_p50, b_tail) = (
        percentile(&lat, 0.50) as f64 / 1e6,
        percentile(&lat, tail) as f64 / 1e6,
    );
    rep.put("b_p50_ms", b_p50);
    rep.put("b_tail_ms", b_tail);
    rep.name("update_p50_ms", b_p50, "ms");
    rep.name("update_p90_ms", b_tail, "ms");

    // No shutdown or flush: what recovery finds is what the commits left.
    let copy = data_dir(ctx, "copy");
    copy_data_dir(&dir, &copy);
    let recover_s = recover(&b, &copy, &written.acked, rep);
    rep.name("recover_s", recover_s, "s");
    check_sampled_goals(&b, &reference_db(&b.g, &written.acked), ctx.seed, rep);

    drop(b);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&copy);
    setup_s
}

fn median_ns(ns: &[u64]) -> f64 {
    median(&ns.iter().map(|&n| n as f64).collect::<Vec<_>>())
}

/// Traced `serve_read`: the request path re-composed from the public
/// calls the connection thread makes. Returns the tracing overhead.
pub fn trace_read(ctx: &Ctx, rep: &mut Report, t: &mut Tracer) -> f64 {
    let b = boot(ctx, None);
    warm_up(&b, 1, ctx.seed);
    let mut mix = GoalMix::new(b.names.clone(), ctx.seed ^ 0xB0B);
    let lines: Vec<String> = (0..TRACED_READS)
        .map(|i| {
            Request {
                id: Some(i as i64),
                op: Op::Query {
                    goal: mix.next_goal(),
                },
            }
            .encode()
        })
        .collect();

    // End to end over TCP, for the share the socket adds.
    let mut client = Client::connect(b.addr).expect("reader connects");
    let mut tcp_ns = Vec::with_capacity(lines.len());
    for line in &lines {
        let start = Instant::now();
        client.raw(line).expect("lookup");
        tcp_ns.push(start.elapsed().as_nanos() as u64);
    }

    // The monolithic call, in process.
    let shutdown = AtomicBool::new(false);
    let (untraced_s, want) = timed(|| {
        digest(lines.iter().map(|line| {
            dispatch(&b.svc, &shutdown, Request::decode(line).expect("decodes")).encode()
        }))
    });

    let mut replies = Vec::with_capacity(lines.len());
    let mut rows_total = 0usize;
    let root = t.enter("serve_read.pass");
    for line in &lines {
        t.next_pass();
        let req = t.span("serve.decode", || Request::decode(line).expect("decodes"));
        let Op::Query { goal } = &req.op else {
            unreachable!("only queries are generated")
        };
        let pin = t.span("serve.pin", || b.svc.pin());
        let rows = t.span("serve.lookup", || {
            b.svc.lookup_on(&pin, goal).expect("lookup")
        });
        rows_total += rows.len();
        let resp = Response {
            id: req.id,
            body: Body::Rows {
                epoch: pin.id(),
                rows,
            },
        };
        replies.push(t.span("serve.encode", || resp.encode()));
    }
    t.exit(root);
    rep.ops(lines.len() as u64, 0);
    rep.check(digest(&replies) == want, || {
        "re-composed read path differs from dispatch()".into()
    });

    let in_process_ns = ["serve.decode", "serve.pin", "serve.lookup", "serve.encode"]
        .map(|name| median_ns(&t.durations_ns(name)));
    rep.put("serve.decode_ns", in_process_ns[0]);
    rep.put("serve.pin_ns", in_process_ns[1]);
    rep.put("serve.lookup_us", in_process_ns[2] / 1e3);
    rep.put("serve.encode_ns", in_process_ns[3]);
    rep.put(
        "serve.rows_per_lookup",
        rows_total as f64 / lines.len() as f64,
    );
    rep.put(
        "serve.tcp_overhead_us",
        (median_ns(&tcp_ns) - in_process_ns.iter().sum::<f64>()) / 1e3,
    );

    // The two datalog calls inside `lookup_on`, on their own.
    let pin = b.svc.pin();
    let (mut parse_ns, mut match_ns) = (Vec::new(), Vec::new());
    for line in &lines {
        let Op::Query { goal } = Request::decode(line).expect("decodes").op else {
            unreachable!("only queries are generated")
        };
        let start = Instant::now();
        let q = std::hint::black_box(Query::parse(&goal).expect("goal parses"));
        parse_ns.push(start.elapsed().as_nanos() as u64);
        let start = Instant::now();
        std::hint::black_box(goal_matches(pin.db(), &q));
        match_ns.push(start.elapsed().as_nanos() as u64);
    }
    let matches_ns = median_ns(&match_ns);
    rep.put("datalog.query_parse_ns", median_ns(&parse_ns));
    rep.put("datalog.goal_matches_us", matches_ns / 1e3);
    rep.put(
        "datalog.goal_matches_ns_per_row",
        matches_ns / pin.db().fact_count("control").max(1) as f64,
    );
    drop(pin);
    drop(b);
    t.total_s("serve_read.pass") / untraced_s - 1.0
}

/// Bytes of the snapshot files (`*.vsnap`) of a data directory. The
/// `LOCK` file holds the owner's pid as text, so its size is not the
/// program's to repeat.
fn snapshot_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| e.path().extension().is_some_and(|x| x == "vsnap"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn file_bytes(path: &Path) -> u64 {
    fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// The write path of the service re-composed from public calls: what
/// `open_durable` sets up and what `apply_delta` does per update.
struct WritePath {
    session: IncrementalEngine,
    store: DurableStore,
    registry: EpochRegistry,
    dir: PathBuf,
}

impl WritePath {
    /// Returns the path with the seconds the session and the boot
    /// snapshot took.
    fn open(ctx: &Ctx, g: &CompanyGraph, program: &Program, tag: &str) -> (WritePath, f64, f64) {
        let derived: HashSet<String> = program
            .rules
            .iter()
            .flat_map(|r| r.head.iter().map(|a| a.pred.clone()))
            .collect();
        let mut db = Database::new();
        load_facts(g, &mut db);
        let (session_s, session) = timed(|| IncrementalEngine::new(program, db));
        let session = session.expect("session opens");
        let dir = data_dir(ctx, tag);
        fresh_dir(&dir);
        let (mut store, _) = DurableStore::open(&dir, STORE).expect("store opens");
        let (snapshot_s, snapshot) = timed(|| store.write_snapshot(session.db(), &derived));
        snapshot.expect("boot snapshot");
        let registry = EpochRegistry::new(session.db().clone());
        let path = WritePath {
            session,
            store,
            registry,
            dir,
        };
        (path, session_s, snapshot_s)
    }

    /// One update as one pass: parse, apply, render the diff, append to
    /// the WAL, clone the database, commit the epoch.
    fn apply(&mut self, delta: &str, t: &mut Tracer) -> ChangeSet {
        let root = t.enter("serve_update.pass");
        let update = t.span("incr.parse_update", || {
            self.session.parse_update(delta).expect("update parses")
        });
        let cs = t.span("incr.apply_update", || {
            self.session.apply_update(&update).expect("update applies")
        });
        t.span("serve.render_delta", || {
            let db = self.session.db();
            for (pred, tuple) in cs.inserted.iter().chain(&cs.deleted) {
                let cells: Vec<String> = tuple.iter().map(|c| db.canonical(*c)).collect();
                std::hint::black_box(format!("{pred}({})", cells.join(",")));
            }
        });
        t.span("store.wal_append", || {
            self.store
                .append(&update, self.session.db())
                .expect("wal append")
        });
        let snapshot = t.span("serve.db_clone", || Arc::new(self.session.db().clone()));
        t.span("serve.epoch_commit", || {
            self.registry.begin_write().commit(snapshot)
        });
        t.exit(root);
        cs
    }

    /// Releases the store and removes its directory.
    fn close(self) {
        drop(self.store);
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// Traced `serve_update`: the service takes a short paced feed, then a
/// second session takes the same updates through the write path
/// re-composed from public calls. Returns the tracing overhead.
pub fn trace_update(ctx: &Ctx, rep: &mut Report, t: &mut Tracer) -> f64 {
    let dir = data_dir(ctx, "live");
    let b = boot(ctx, Some(&dir));
    warm_up(&b, 1, ctx.seed);
    let mut feed = UpdateFeed::new(b.names.clone(), b.first_company, ctx.seed ^ 0xA11CE);
    let rate = update_rate(ctx.scale);
    let (reads, written, _) = read_beside_writer(&b, &mut feed, TRACED_UPDATES, rate, ctx.seed);
    rep.ops(
        (reads.len() + TRACED_UPDATES) as u64,
        reads.failed + written.failed,
    );
    let all = sorted_ns(&[&reads.forward_ns, &reads.backward_ns]);
    let p99_ms = tail_ms("reads beside the writer", &all, 0.99, rep);
    rep.put("serve.read_p99_under_write_us", p99_ms * 1e3);
    let max_ms = |ns: &[u64]| *ns.iter().max().unwrap_or(&0) as f64 / 1e6;
    rep.put("serve.update_max_ms", max_ms(&written.pacing.latency_ns));
    rep.put("serve.writer_late_ms_max", max_ms(&written.pacing.late_ns));
    rep.put(
        "serve.swap_stall_max_ns",
        b.svc.registry().snapshot_stats().swap_stall_max_ns as f64,
    );
    let want = digest(b.svc.pin().db().dump_canonical("control"));

    // A second session takes the same updates through the write path
    // re-composed from public calls: first untraced, then traced.
    let program = program();
    let (mut plain, ..) = WritePath::open(ctx, &b.g, &program, "plain");
    let (untraced_s, _) = timed(|| {
        let mut off = Tracer::off();
        for delta in &written.acked {
            plain.apply(delta, &mut off);
        }
    });
    plain.close();
    let (mut path, session_s, snapshot_s) = WritePath::open(ctx, &b.g, &program, "traced");
    rep.put("incr.session_new_s", session_s);
    rep.put("store.snapshot_write_ms", snapshot_s * 1e3);
    let dir2 = path.dir.clone();
    let wal = dir2.join("wal.log");
    rep.put("store.snapshot_bytes", snapshot_bytes(&dir2) as f64);
    let wal_before = file_bytes(&wal);
    let (mut replayed, mut changed, mut full) = (0usize, 0usize, 0usize);
    for delta in &written.acked {
        t.next_pass();
        let cs = path.apply(delta, t);
        replayed += cs.stats.replayed_units;
        changed += cs.inserted.len() + cs.deleted.len();
        full += usize::from(cs.stats.full_recompute);
    }
    let WritePath { session, store, .. } = path;
    let n = written.acked.len().max(1) as f64;
    rep.check(
        digest(session.db().dump_canonical("control")) == want,
        || "re-composed write path differs from apply_delta()".into(),
    );

    let per_update_ms = |name: &str| median_ns(&t.durations_ns(name)) / 1e6;
    let apply_ms = per_update_ms("incr.apply_update");
    rep.put(
        "incr.parse_update_us",
        per_update_ms("incr.parse_update") * 1e3,
    );
    rep.put("incr.apply_update_ms", apply_ms);
    rep.put("incr.full_recompute_frac", full as f64 / n);
    rep.put("incr.replayed_units_per_update", replayed as f64 / n);
    rep.put("incr.changed_facts_per_update", changed as f64 / n);
    rep.put("store.wal_append_ms", per_update_ms("store.wal_append"));
    rep.put(
        "store.wal_bytes_per_update",
        (file_bytes(&wal) - wal_before) as f64 / n,
    );
    rep.put("serve.db_clone_ms", per_update_ms("serve.db_clone"));
    rep.put("serve.epoch_commit_ms", per_update_ms("serve.epoch_commit"));
    let base_facts = session.db().total_facts() - session.db().fact_count("control");
    rep.put(
        "store.bytes_per_fact",
        (snapshot_bytes(&dir2) + file_bytes(&wal)) as f64 / base_facts.max(1) as f64,
    );

    // A from-scratch run on the same extensional facts.
    let engine = Engine::new(&program).expect("bundled program");
    let base: Vec<&str> = ["person", "company", "own"].to_vec();
    let recompute: Vec<f64> = (0..3)
        .map(|_| {
            let mut scratch = session.db().project(&base);
            timed(|| engine.run(&mut scratch).expect("fixpoint")).0
        })
        .collect();
    rep.put(
        "incr.apply_vs_recompute_ratio",
        apply_ms / 1e3 / median(&recompute),
    );

    // Recovery, layer by layer: snapshot read, then the tail replayed
    // through a rebuilt session.
    drop(store);
    let (open_s, opened) = timed(|| DurableStore::open(&dir2, STORE));
    let (store, recovery) = opened.expect("store reopens");
    rep.put("store.open_s", open_s);
    let mut rebuilt = IncrementalEngine::new(&program, recovery.base.expect("boot snapshot"))
        .expect("session rebuilds");
    let (replay_s, frames) = timed(|| replay_tail(&mut rebuilt, &recovery.tail));
    let frames = frames.expect("tail replays");
    rep.put("store.replay_tail_s", replay_s);
    rep.put(
        "store.replay_ms_per_frame",
        replay_s * 1e3 / frames.max(1) as f64,
    );
    rep.check(
        frames == written.acked.len() && digest(rebuilt.db().dump_canonical("control")) == want,
        || format!("layered recovery replayed {frames} frames and differs from the live service"),
    );

    drop(store);
    drop(b);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&dir2);
    t.total_s("serve_update.pass") / untraced_s - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_bytes_leave_out_the_lock_and_the_log() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        fresh_dir(&dir);
        fs::write(dir.join("snap-00000000000000000000.vsnap"), [0u8; 300]).unwrap();
        fs::write(dir.join("snap-00000000000000000064.vsnap"), [0u8; 45]).unwrap();
        fs::write(dir.join("wal.log"), [0u8; 70]).unwrap();
        fs::write(dir.join("LOCK"), "4711").unwrap();
        let with_short_pid = snapshot_bytes(&dir);
        fs::write(dir.join("LOCK"), "1234567").unwrap();
        assert_eq!(with_short_pid, 345);
        assert_eq!(snapshot_bytes(&dir), 345, "a longer pid changes nothing");
        assert_eq!(file_bytes(&dir.join("wal.log")), 70);
        fs::remove_dir_all(&dir).unwrap();
    }
}
