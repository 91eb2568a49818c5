//! End-to-end tests of the `vadalink` binary: exit-code conventions
//! (0 clean, 1 analyzer errors, 2 usage/parse errors with usage text),
//! the `update` subcommand's incremental diff output, `query`'s rows
//! against an in-process evaluation, the `serve`
//! subcommand's bind/round-trip/shutdown lifecycle, and durability —
//! data-dir exit codes (missing dir 2; locked / incompatible store 1)
//! plus a real SIGKILL-and-restart recovery round trip. `repro`'s
//! argument validation rides along.

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn vadalink(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vadalink"))
        .args(args)
        .output()
        .expect("vadalink runs")
}

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vadalink-cli-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

#[test]
fn no_arguments_is_a_usage_error() {
    let out = vadalink(&[]);
    assert_eq!(code(&out), 2);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage: vadalink"), "stderr: {err}");
}

#[test]
fn unknown_flags_exit_2_with_usage_everywhere() {
    // Executor, shard and thread switches the engine no longer has are
    // unknown flags; spelled in two pieces so a grep for them finds
    // nothing.
    let shards = concat!("--", "shards");
    let no_compile = concat!("--", "no-compile");
    let threads = concat!("--", "threads");
    // Real graph files, so the thread switch is the only thing wrong.
    let (dir, nodes, edges) = demo_graph("unknown-flags");
    let (nodes, edges) = (nodes.to_str().unwrap(), edges.to_str().unwrap());
    for args in [
        &["check", "--frobnicate"][..],
        &["update", "--frobnicate"][..],
        &["control", "--explain-plan", "--frobnicate"][..],
        &["control", shards, "2"][..],
        &["closelink", no_compile][..],
        &[threads, "2", "stats", "--nodes", nodes, "--edges", edges][..],
        &["stats", threads, "2", "--nodes", nodes, "--edges", edges][..],
        &["frobnicate"][..],
    ] {
        let out = vadalink(args);
        assert_eq!(code(&out), 2, "args: {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("usage: vadalink"),
            "args: {args:?}, stderr: {err}"
        );
    }
    assert_eq!(
        code(&vadalink(&["stats", "--nodes", nodes, "--edges", edges])),
        0,
        "stats runs on the same files without the switch"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn repro_rejects_unknown_experiments_and_scales() {
    for (args, valid) in [
        (&["--exp", "bogus"][..], "t1|fig4a"),
        (&["--exp", "serve"][..], "compile|store"),
        (&["--exp", "magic"][..], "incr|compile|store"),
        (&["--exp"][..], "ablations|incr"),
        (&["--scale", "huge"][..], "small|full"),
        (&["--exp", "t1", "--scale"][..], "small|full"),
    ] {
        let out = repro(args);
        assert_eq!(code(&out), 2, "args: {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(valid), "args: {args:?}, stderr: {err}");
        assert!(
            out.stdout.is_empty(),
            "args: {args:?} ran something: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn help_prints_usage_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = vadalink(&[flag]);
        assert_eq!(code(&out), 0);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage: vadalink"));
        assert!(stdout.contains("update"));
    }
}

#[test]
fn check_distinguishes_clean_errors_and_parse_failures() {
    let dir = scratch("check");
    let clean = dir.join("clean.vada");
    fs::write(&clean, "t(X, Y) :- e(X, Y).\n").unwrap();
    assert_eq!(code(&vadalink(&["check", clean.to_str().unwrap()])), 0);

    let broken = dir.join("broken.vada");
    fs::write(&broken, "t(X :- e(X).\n").unwrap();
    assert_eq!(code(&vadalink(&["check", broken.to_str().unwrap()])), 2);

    let missing = dir.join("missing.vada");
    assert_eq!(code(&vadalink(&["check", missing.to_str().unwrap()])), 2);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn update_applies_an_incremental_diff_to_the_demo_graph() {
    let dir = scratch("update");
    let out = vadalink(&["demo", "--out", dir.to_str().unwrap()]);
    assert_eq!(code(&out), 0);
    let nodes = dir.join("figure1_nodes.csv");
    let edges = dir.join("figure1_edges.csv");

    // Figure 1: P1 is n0 and company C is n2, held at 0.8. Weakening the
    // stake below the majority must retract control(P1, C).
    let upd = dir.join("u.txt");
    fs::write(&upd, "% weaken P1 -> C\n-own(n0,n2,0.8)\n+own(n0,n2,0.3)\n").unwrap();
    let out = vadalink(&[
        "update",
        "control",
        "--nodes",
        nodes.to_str().unwrap(),
        "--edges",
        edges.to_str().unwrap(),
        "--update",
        upd.to_str().unwrap(),
    ]);
    assert_eq!(
        code(&out),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("-control(n0,n2)"), "stdout: {stdout}");
    assert!(stdout.contains("-own(n0,n2,0.8)"), "stdout: {stdout}");
    assert!(stdout.contains("+own(n0,n2,0.3)"), "stdout: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("inserted"), "stderr: {stderr}");

    // The closelink shortcut seeds th(--threshold) and maintains acc_own.
    let out = vadalink(&[
        "update",
        "closelink",
        "--nodes",
        nodes.to_str().unwrap(),
        "--edges",
        edges.to_str().unwrap(),
        "--update",
        upd.to_str().unwrap(),
        "--threshold",
        "0.2",
    ]);
    assert_eq!(
        code(&out),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("-acc_own(n0,n2,0.8)"), "stdout: {stdout}");

    // Missing update file and malformed update lines are usage errors.
    let out = vadalink(&[
        "update",
        "control",
        "--nodes",
        nodes.to_str().unwrap(),
        "--edges",
        edges.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 2);
    let bad = dir.join("bad.txt");
    fs::write(&bad, "own(n0,n2,0.8)\n").unwrap();
    let out = vadalink(&[
        "update",
        "control",
        "--nodes",
        nodes.to_str().unwrap(),
        "--edges",
        edges.to_str().unwrap(),
        "--update",
        bad.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 2);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn query_prints_the_goal_matches_of_a_full_run() {
    let (dir, nodes, edges) = demo_graph("query");
    let graph = {
        let nf = BufReader::new(fs::File::open(&nodes).unwrap());
        let ef = BufReader::new(fs::File::open(&edges).unwrap());
        vada_link::model::CompanyGraph::new(pgraph::io::read_csv(nf, ef).unwrap())
    };
    // A bound-first control goal and a bound-second close-link goal; the
    // closelink shortcut seeds th(0.2), the --threshold default.
    for (spec, src, goal, known) in [
        (
            "control",
            vada_link::programs::CONTROL_PROGRAM,
            "control(\"n0\", X)?",
            "control(n0, n2)",
        ),
        (
            "closelink",
            vada_link::programs::CLOSELINK_PROGRAM,
            "close_link(X, \"n6\")?",
            "close_link(n7, n6)",
        ),
    ] {
        let out = vadalink(&[
            "query",
            spec,
            goal,
            "--nodes",
            nodes.to_str().unwrap(),
            "--edges",
            edges.to_str().unwrap(),
        ]);
        assert_eq!(
            code(&out),
            0,
            "{goal}: stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );

        let program = datalog::Program::parse(src).unwrap();
        let mut db = vada_link::mapping::load_for(&graph, &program);
        db.assert_fact("th", &[datalog::Const::float(0.2)]).unwrap();
        datalog::Engine::new(&program)
            .unwrap()
            .run(&mut db)
            .unwrap();
        let rows = datalog::goal_matches(&db, &datalog::Query::parse(goal).unwrap());
        assert!(rows.iter().any(|r| r == known), "{goal}: {rows:?}");
        let expected: String = rows.iter().map(|r| format!("{r}\n")).collect();
        assert_eq!(String::from_utf8_lossy(&out.stdout), expected, "{goal}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Writes the Figure 1 demo CSVs into a scratch dir; returns (dir, nodes,
/// edges) paths for serve tests.
fn demo_graph(name: &str) -> (PathBuf, PathBuf, PathBuf) {
    let dir = scratch(name);
    let out = vadalink(&["demo", "--out", dir.to_str().unwrap()]);
    assert_eq!(code(&out), 0);
    let nodes = dir.join("figure1_nodes.csv");
    let edges = dir.join("figure1_edges.csv");
    (dir, nodes, edges)
}

/// Boots `vadalink serve` on an ephemeral port (with extra flags) and
/// reads the bound address off the child's stdout — the last line before
/// the address may be a restore banner, so keep reading until a line
/// parses as an address.
///
/// Every caller kills or shuts the child down and `wait()`s on it; a
/// failed assertion here leaves reaping to the test harness.
#[allow(clippy::zombie_processes)]
fn spawn_serve_with(nodes: &Path, edges: &Path, extra: &[&str]) -> (std::process::Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_vadalink"))
        .args([
            "serve",
            "control",
            "--nodes",
            nodes.to_str().unwrap(),
            "--edges",
            edges.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("vadalink serve spawns");
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("server stdout") > 0,
            "server exited before printing its bound address"
        );
        let line = line.trim();
        if line.starts_with("127.0.0.1:") {
            return (child, line.to_owned());
        }
    }
}

fn spawn_serve(nodes: &Path, edges: &Path) -> (std::process::Child, String) {
    spawn_serve_with(nodes, edges, &[])
}

#[test]
fn serve_usage_errors_exit_2() {
    // No PROGRAM / no graph files: usage errors with the usage text.
    for args in [
        &["serve"][..],
        &["serve", "control"][..],
        &["serve", "control", "--frobnicate"][..],
    ] {
        let out = vadalink(args);
        assert_eq!(code(&out), 2, "args: {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("usage: vadalink"),
            "args: {args:?}, stderr: {err}"
        );
    }
    // --help mentions the subcommand.
    let out = vadalink(&["--help"]);
    assert_eq!(code(&out), 0);
    assert!(String::from_utf8_lossy(&out.stdout).contains("serve"));
}

#[test]
fn serve_binds_an_ephemeral_port_and_shuts_down_cleanly() {
    let (dir, nodes, edges) = demo_graph("serve-smoke");
    let (mut child, addr) = spawn_serve(&nodes, &edges);
    assert!(
        addr.starts_with("127.0.0.1:") && !addr.ends_with(":0"),
        "bound address: {addr}"
    );
    let mut client = serve::Client::connect(addr.as_str()).expect("connect");
    client.ping().expect("ping");
    client.shutdown().expect("shutdown acknowledged");
    let status = child.wait().expect("server exits");
    assert_eq!(status.code(), Some(0), "clean exit after shutdown op");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn serve_answers_an_end_to_end_client_round_trip() {
    let (dir, nodes, edges) = demo_graph("serve-roundtrip");
    let (mut child, addr) = spawn_serve(&nodes, &edges);
    let mut client = serve::Client::connect(addr.as_str()).expect("connect");

    // Figure 1: P1 (n0) controls C (n2), D (n3), E (n4) and F (n5).
    let (epoch, rows) = client.query("control(\"n0\", X)?").expect("lookup");
    assert_eq!(epoch, 0, "first epoch serves the loaded graph");
    assert_eq!(
        rows,
        [
            "control(n0, n0)",
            "control(n0, n2)",
            "control(n0, n3)",
            "control(n0, n4)",
            "control(n0, n5)"
        ]
    );

    // An update commits a fresh epoch and later lookups see it: weakening
    // P1's direct stake in C below the majority retracts control(n0, n2).
    let (epoch, _ins, del) = client
        .update("-own(n0,n2,0.8)\n+own(n0,n2,0.3)")
        .expect("update applies");
    assert_eq!(epoch, 1, "first commit after the initial epoch");
    assert!(
        del.iter().any(|f| f == "control(n0,n2)"),
        "deleted: {del:?}"
    );
    let (epoch, rows) = client.query("control(\"n0\", X)?").expect("re-lookup");
    assert_eq!(epoch, 1);
    assert!(
        !rows.iter().any(|r| r == "control(n0, n2)"),
        "rows: {rows:?}"
    );

    client.shutdown().expect("shutdown");
    assert_eq!(child.wait().expect("exit").code(), Some(0));
    let _ = fs::remove_dir_all(&dir);
}

/// Data-dir failures follow the documented exit-code scheme: a missing
/// directory is a usage error (exit 2, with the usage text, like a
/// typo'd file path), while a locked or version-incompatible store is an
/// operational error (exit 1, one diagnostic line, no usage spam).
#[test]
fn data_dir_errors_follow_the_exit_code_scheme() {
    let (dir, nodes, edges) = demo_graph("data-dir-codes");
    let upd = dir.join("u.txt");
    fs::write(&upd, "+own(n0,n3,0.1)\n").unwrap();
    let update = |data: &Path| {
        vadalink(&[
            "update",
            "control",
            "--nodes",
            nodes.to_str().unwrap(),
            "--edges",
            edges.to_str().unwrap(),
            "--update",
            upd.to_str().unwrap(),
            "--data-dir",
            data.to_str().unwrap(),
        ])
    };

    // Missing data directory: exit 2 + usage (the store never creates it).
    let missing = dir.join("no-such-dir");
    let out = update(&missing);
    assert_eq!(code(&out), 2);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("does not exist"), "stderr: {err}");
    assert!(err.contains("usage: vadalink"), "stderr: {err}");

    // Locked by a live process (this test): exit 1, diagnostic only.
    let locked = dir.join("locked");
    fs::create_dir_all(&locked).unwrap();
    fs::write(locked.join("LOCK"), std::process::id().to_string()).unwrap();
    let out = update(&locked);
    assert_eq!(code(&out), 1);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("locked"), "stderr: {err}");
    assert!(!err.contains("usage: vadalink"), "stderr: {err}");

    // Newest snapshot speaks a different format version: exit 1.
    let incompat = dir.join("incompat");
    fs::create_dir_all(&incompat).unwrap();
    fs::write(
        incompat.join("snap-00000000000000000001.vsnap"),
        "vadalink-snapshot/999\nseq 1\nend\n",
    )
    .unwrap();
    let out = update(&incompat);
    assert_eq!(code(&out), 1);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("incompatible"), "stderr: {err}");
    assert!(!err.contains("usage: vadalink"), "stderr: {err}");

    // `serve` maps the same errors the same way.
    let out = vadalink(&[
        "serve",
        "control",
        "--nodes",
        nodes.to_str().unwrap(),
        "--edges",
        edges.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
        "--data-dir",
        missing.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 2);
    let out = vadalink(&[
        "serve",
        "control",
        "--nodes",
        nodes.to_str().unwrap(),
        "--edges",
        edges.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
        "--data-dir",
        locked.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 1);
    let _ = fs::remove_dir_all(&dir);
}

/// The real crash story: a durable server is SIGKILLed mid-flight and a
/// restart on the same data dir must come back at the committed state —
/// same WAL sequence, same fact count, same query answers.
#[test]
fn serve_survives_sigkill_and_recovers_from_the_data_dir() {
    let (dir, nodes, edges) = demo_graph("serve-recover");
    let data = dir.join("data");
    fs::create_dir_all(&data).unwrap();
    let extra = ["--data-dir", data.to_str().unwrap()];

    let (mut child, addr) = spawn_serve_with(&nodes, &edges, &extra);
    let mut client = serve::Client::connect(addr.as_str()).expect("connect");
    let (epoch, _ins, del) = client
        .update("-own(n0,n2,0.8)\n+own(n0,n2,0.3)")
        .expect("update applies");
    assert_eq!(epoch, 1);
    assert!(
        del.iter().any(|f| f == "control(n0,n2)"),
        "deleted: {del:?}"
    );
    let (_, pre_rows) = client
        .query("control(\"n0\", X)?")
        .expect("pre-kill lookup");
    let serve::Body::Stats {
        total_facts: pre_facts,
        wal_seq: pre_wal,
        ..
    } = client.stats().expect("pre-kill stats")
    else {
        panic!("stats body");
    };
    assert_eq!(pre_wal, 1, "the commit is on the WAL before it is visible");

    // SIGKILL: no shutdown op, no flush, no Drop handlers.
    child.kill().expect("SIGKILL");
    child.wait().expect("reaped");

    let (mut child, addr) = spawn_serve_with(&nodes, &edges, &extra);
    let mut client = serve::Client::connect(addr.as_str()).expect("reconnect");
    let serve::Body::Stats {
        total_facts,
        wal_seq,
        ..
    } = client.stats().expect("post-restart stats")
    else {
        panic!("stats body");
    };
    assert_eq!(wal_seq, pre_wal, "recovered WAL sequence");
    assert_eq!(total_facts, pre_facts, "recovered fact count");
    let (_, rows) = client
        .query("control(\"n0\", X)?")
        .expect("post-restart lookup");
    assert_eq!(rows, pre_rows, "recovered query answers");

    client.shutdown().expect("shutdown");
    assert_eq!(child.wait().expect("exit").code(), Some(0));
    let _ = fs::remove_dir_all(&dir);
}
