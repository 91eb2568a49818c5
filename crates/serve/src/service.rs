//! The query service over one maintained graph.
//!
//! A [`GraphService`] owns three cooperating engines around one program:
//!
//! * a long-lived [`IncrementalEngine`] session — the **single writer**.
//!   [`GraphService::apply_delta`] parses a signed-fact update, applies
//!   it through the session and commits the resulting database as a new
//!   epoch; the whole path runs under the epoch registry's writer token,
//!   so there is never more than one update in flight;
//! * a plain [`Engine`] shared by all **readers**. Point lookups answer
//!   from a pinned epoch with [`datalog::goal_matches`]. The session
//!   keeps every epoch at fixpoint, so nothing is derived at read time,
//!   and [`Database::query`] underneath makes the read an index read: a
//!   goal with a bound argument binary-searches that column's lookup
//!   index (built by the epoch's first reader to bind the column, shared
//!   by the others and by later epochs that leave the relation alone), a
//!   fully bound goal probes the dedup index, and only an all-free goal
//!   walks the relation ([`ServiceStats::scan_lookups`] counts those).
//!   The engine doubles as the differential reference:
//!   [`GraphService::query_on`] re-derives the answer from scratch over
//!   the same snapshot's base facts, and the concurrency suite asserts
//!   the two are byte-identical;
//! * a provenance-enabled engine for **explanations**: the pinned
//!   epoch's extensional facts are projected out ([`Database::project`])
//!   and re-derived once with provenance on, cached per epoch, and
//!   [`datalog::explain::explain`] renders the derivation tree.
//!
//! The snapshot-isolation contract is inherited from [`EpochRegistry`]:
//! readers see exactly one committed epoch per request, never a
//! half-applied update.
//!
//! With a data directory ([`GraphService::open_durable`]) the service is
//! also **durable**: recovery loads the newest snapshot and replays the
//! WAL tail before the first epoch is published, and every committed
//! update is appended to the WAL *before* its epoch swap makes it
//! visible — a fact a reader can observe is a fact that survives a kill.

use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use store::{DurableStore, StoreConfig, StoreError};

use datalog::ast::Literal;
use datalog::{
    Const, Database, DatalogError, Engine, EngineOptions, FunctionRegistry, IncrementalEngine,
    Program, Query,
};

use crate::epoch::{EpochRegistry, EpochStats, PinnedEpoch};
use crate::protocol::ErrorCode;

/// A service-level failure, carrying the wire error code.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeError {
    /// Stable protocol code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ServeError {
    fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ServeError {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for ServeError {}

/// Service construction knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Program name reported by `stats` (e.g. `control`).
    pub name: String,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            name: "program".into(),
        }
    }
}

/// The net effect of one committed update.
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedDelta {
    /// Epoch id the commit produced.
    pub epoch: u64,
    /// Rendered facts that entered the database (base and derived).
    pub inserted: Vec<String>,
    /// Rendered facts that left the database.
    pub deleted: Vec<String>,
}

/// Counters reported by the `stats` operation.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Program name.
    pub name: String,
    /// Total stored facts in the current epoch.
    pub total_facts: usize,
    /// Point lookups answered since construction.
    pub lookups: u64,
    /// Of those, goals with no bound argument — the only lookups that
    /// walk a relation instead of reading an index.
    pub scan_lookups: u64,
    /// Updates committed since construction.
    pub updates: u64,
    /// Epoch lifecycle counters.
    pub epochs: EpochStats,
    /// Highest WAL commit sequence (`None` when running without a data
    /// directory). Survives restarts — the kill-and-recover smoke pins
    /// its pre-kill transcript on this.
    pub wal_seq: Option<u64>,
}

/// What recovery found when a durable service booted.
#[derive(Debug, Clone)]
pub struct RestoreInfo {
    /// Highest committed sequence restored from the store.
    pub seq: u64,
    /// WAL-tail updates replayed over the snapshot.
    pub replayed: usize,
    /// Whether a snapshot existed (false on first boot of a directory).
    pub had_snapshot: bool,
    /// Recovery warnings: truncated WAL tails, skipped snapshots.
    pub warnings: Vec<String>,
}

/// A durable boot can fail in the store layer (missing directory, lock
/// held, incompatible version) or the engine layer; the CLI maps the two
/// onto different exit codes.
#[derive(Debug)]
pub enum DurableOpenError {
    Store(StoreError),
    Engine(DatalogError),
}

impl std::fmt::Display for DurableOpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableOpenError::Store(e) => write!(f, "{e}"),
            DurableOpenError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DurableOpenError {}

/// A query service over one maintained graph. Shareable across threads
/// (`Arc<GraphService>`); all methods take `&self`.
pub struct GraphService {
    name: String,
    /// Reader engine: the from-scratch reference of [`GraphService::query_on`].
    engine: Engine,
    /// The single writer's maintained session.
    session: Mutex<IncrementalEngine>,
    /// Set when an update died mid-propagation: the session state is
    /// unspecified, so further writes are refused (reads stay safe — they
    /// only ever see committed epochs).
    poisoned: AtomicBool,
    registry: EpochRegistry,
    /// Provenance-enabled engine for explanations.
    explain_engine: Engine,
    /// Extensional predicates of the program (mentioned, never a head) —
    /// the projection for the explanation re-derivation.
    edb_preds: Vec<String>,
    /// Head predicates — omitted from snapshots (recovery re-derives).
    derived_preds: HashSet<String>,
    /// Durable store, when booted with a data directory. WAL appends run
    /// under the session lock (commit order = WAL order); snapshots are
    /// cut after the epoch swap from the committed `Arc`.
    store: Option<Mutex<DurableStore>>,
    /// Last provenance database, keyed by epoch id.
    explain_cache: Mutex<Option<(u64, Arc<Database>)>>,
    lookups: AtomicU64,
    scan_lookups: AtomicU64,
    updates: AtomicU64,
}

impl GraphService {
    /// Builds a service with default (standard-library) registries.
    pub fn new(program: &Program, db: Database, cfg: ServiceConfig) -> Result<Self, DatalogError> {
        Self::with_registries(program, db, cfg, FunctionRegistry::default)
    }

    /// Builds a service whose engines use external functions from
    /// `make_registry` (called once per engine — registries hold boxed
    /// closures and cannot be cloned).
    pub fn with_registries(
        program: &Program,
        db: Database,
        cfg: ServiceConfig,
        make_registry: impl Fn() -> FunctionRegistry,
    ) -> Result<Self, DatalogError> {
        let engine = Engine::with(program, make_registry(), EngineOptions::default())?;
        let explain_engine = Engine::with(
            program,
            make_registry(),
            EngineOptions {
                provenance: true,
                ..EngineOptions::default()
            },
        )?;
        let session_engine = Engine::with(program, make_registry(), EngineOptions::default())?;
        let session = IncrementalEngine::with(session_engine, db)?;
        let registry = EpochRegistry::new(session.db().clone());

        let mut heads: Vec<&str> = Vec::new();
        let mut mentioned: Vec<String> = Vec::new();
        for rule in &program.rules {
            for atom in &rule.head {
                heads.push(&atom.pred);
            }
            for lit in &rule.body {
                if let Literal::Atom(a) | Literal::Negated(a) = lit {
                    if !mentioned.contains(&a.pred) {
                        mentioned.push(a.pred.clone());
                    }
                }
            }
        }
        let mut edb_preds: Vec<String> = mentioned
            .into_iter()
            .filter(|p| !heads.contains(&p.as_str()))
            .collect();
        edb_preds.sort();
        let derived_preds: HashSet<String> = heads.iter().map(|h| h.to_string()).collect();

        Ok(GraphService {
            name: cfg.name,
            engine,
            session: Mutex::new(session),
            poisoned: AtomicBool::new(false),
            registry,
            explain_engine,
            edb_preds,
            derived_preds,
            store: None,
            explain_cache: Mutex::new(None),
            lookups: AtomicU64::new(0),
            scan_lookups: AtomicU64::new(0),
            updates: AtomicU64::new(0),
        })
    }

    /// Builds a durable service over `data_dir`: recovery (newest
    /// snapshot + WAL-tail replay) runs before the first epoch is
    /// published, every later commit is WAL-appended before its epoch
    /// swap, and snapshots are cut on the configured cadence. `initial_db`
    /// seeds the register only on the first boot of an empty directory.
    pub fn open_durable(
        program: &Program,
        initial_db: Database,
        cfg: ServiceConfig,
        store_cfg: StoreConfig,
        data_dir: &Path,
    ) -> Result<(Self, RestoreInfo), DurableOpenError> {
        Self::open_durable_with(
            program,
            initial_db,
            cfg,
            store_cfg,
            data_dir,
            FunctionRegistry::default,
        )
    }

    /// [`Self::open_durable`] with external functions (see
    /// [`Self::with_registries`]).
    pub fn open_durable_with(
        program: &Program,
        initial_db: Database,
        cfg: ServiceConfig,
        store_cfg: StoreConfig,
        data_dir: &Path,
        make_registry: impl Fn() -> FunctionRegistry,
    ) -> Result<(Self, RestoreInfo), DurableOpenError> {
        let (mut store, recovery) =
            DurableStore::open(data_dir, store_cfg).map_err(DurableOpenError::Store)?;
        let had_snapshot = recovery.base.is_some();
        let base = recovery.base.unwrap_or(initial_db);
        let service = Self::with_registries(program, base, cfg, make_registry)
            .map_err(DurableOpenError::Engine)?;

        // Replay the WAL tail through the session, then publish the
        // replayed state as the boot epoch.
        let replayed = {
            let mut session = service.lock_session();
            let n = store::replay_tail(&mut session, &recovery.tail)
                .map_err(DurableOpenError::Engine)?;
            if n > 0 {
                let snapshot = Arc::new(session.db().clone());
                drop(session);
                let writer = service.registry.begin_write();
                writer.commit(snapshot);
            }
            n
        };

        // First boot of an empty directory gets its boot snapshot right
        // away; a long replayed tail is also folded down immediately.
        if !had_snapshot || store.should_snapshot() {
            let session = service.lock_session();
            store
                .write_snapshot(session.db(), &service.derived_preds)
                .map_err(DurableOpenError::Store)?;
        }

        let info = RestoreInfo {
            seq: store.seq(),
            replayed,
            had_snapshot,
            warnings: recovery.warnings,
        };
        let mut service = service;
        service.store = Some(Mutex::new(store));
        Ok((service, info))
    }

    /// The epoch registry (pin/commit introspection for tests and stats).
    pub fn registry(&self) -> &EpochRegistry {
        &self.registry
    }

    /// Pins the current epoch for a sequence of snapshot-consistent reads.
    pub fn pin(&self) -> PinnedEpoch {
        self.registry.pin()
    }

    /// Answers a point lookup on the current epoch; returns the answering
    /// epoch's id and the canonically rendered matching facts, sorted.
    pub fn lookup(&self, goal: &str) -> Result<(u64, Vec<String>), ServeError> {
        let pin = self.pin();
        let rows = self.lookup_on(&pin, goal)?;
        Ok((pin.id(), rows))
    }

    /// As [`GraphService::lookup`] but on a caller-pinned epoch. Because
    /// every epoch is a fixpoint database, the lookup is a read of the
    /// goal's relation — through its lookup index whenever the goal binds
    /// an argument (see [`Database::query`]); its answer is byte-identical
    /// to [`GraphService::query_on`] against the same pin (the
    /// concurrency differential suite enforces this).
    pub fn lookup_on(&self, pin: &PinnedEpoch, goal: &str) -> Result<Vec<String>, ServeError> {
        let q =
            Query::parse(goal).map_err(|e| ServeError::new(ErrorCode::BadGoal, e.to_string()))?;
        let db: &Database = pin.db();
        if db.find_pred(&q.pred).is_none() {
            return Err(ServeError::new(
                ErrorCode::UnknownPredicate,
                format!("unknown predicate '{}'", q.pred),
            ));
        }
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if q.args.iter().all(Option::is_none) {
            self.scan_lookups.fetch_add(1, Ordering::Relaxed);
        }
        Ok(datalog::goal_matches(db, &q))
    }

    /// The differential reference of [`GraphService::lookup_on`]: the
    /// goal's matching facts after a from-scratch run over `db`'s base
    /// facts. Every derived relation is projected away and re-derived, so
    /// a row the maintained session got wrong cannot answer here.
    /// Differential tests compare this against [`GraphService::lookup_on`]
    /// on the same pinned epoch.
    pub fn query_on(&self, db: &Database, goal: &str) -> Result<Vec<String>, DatalogError> {
        let q = Query::parse(goal)?;
        let base = (0..db.pred_count() as u32)
            .map(|p| db.pred_name(p))
            .filter(|p| !self.derived_preds.contains(*p));
        let mut scratch = db.project(base);
        self.engine.run(&mut scratch)?;
        Ok(datalog::goal_matches(&scratch, &q))
    }

    /// Applies a signed-fact update (`vadalink update` file format)
    /// through the single writer and commits the result as a new epoch.
    pub fn apply_delta(&self, delta: &str) -> Result<AppliedDelta, ServeError> {
        let writer = self.registry.begin_write();
        if self.poisoned.load(Ordering::Acquire) {
            return Err(ServeError::new(
                ErrorCode::Internal,
                "writer session poisoned by an earlier failed update",
            ));
        }
        let mut session = self.lock_session();
        let update = session
            .parse_update(delta)
            .map_err(|e| ServeError::new(ErrorCode::BadUpdate, e.to_string()))?;
        let cs = match session.apply_update(&update) {
            Ok(cs) => cs,
            Err(DatalogError::BadFact(m)) => {
                // Update validation rejects before mutating; still safe.
                return Err(ServeError::new(ErrorCode::BadUpdate, m));
            }
            Err(e) => {
                // Mid-propagation failure: session state is unspecified.
                self.poisoned.store(true, Ordering::Release);
                return Err(ServeError::new(ErrorCode::Internal, e.to_string()));
            }
        };
        let db = session.db();
        let render = |facts: &[(String, Vec<Const>)]| -> Vec<String> {
            facts
                .iter()
                .map(|(pred, tuple)| {
                    let cells: Vec<String> = tuple.iter().map(|c| db.canonical(*c)).collect();
                    format!("{pred}({})", cells.join(","))
                })
                .collect()
        };
        let inserted = render(&cs.inserted);
        let deleted = render(&cs.deleted);
        // Durability point: the WAL append happens under the session lock
        // (so WAL order is commit order) and *before* the epoch swap — no
        // reader ever observes a fact that would not survive a kill. An
        // append failure refuses the commit and poisons the writer: the
        // in-memory session has already applied an update the log lost.
        if let Some(store) = &self.store {
            let mut store = store.lock().unwrap_or_else(|e| e.into_inner());
            if let Err(e) = store.append(&update, session.db()) {
                self.poisoned.store(true, Ordering::Release);
                return Err(ServeError::new(
                    ErrorCode::Internal,
                    format!("wal append failed: {e}"),
                ));
            }
        }
        let snapshot = Arc::new(db.clone());
        drop(session);
        let epoch = writer.commit(snapshot.clone());
        self.updates.fetch_add(1, Ordering::Relaxed);
        // Cadence snapshots ride on the committed Arc, off the session
        // lock; a failed snapshot write is reported but does not unwind a
        // commit the WAL already made durable.
        if let Some(store) = &self.store {
            let mut store = store.lock().unwrap_or_else(|e| e.into_inner());
            if store.should_snapshot() {
                if let Err(e) = store.write_snapshot(&snapshot, &self.derived_preds) {
                    eprintln!("vadalink: snapshot write failed: {e}");
                }
            }
        }
        Ok(AppliedDelta {
            epoch,
            inserted,
            deleted,
        })
    }

    /// Explains a fully bound fact on the current epoch. Returns the
    /// answering epoch and `Some(rendered tree)` when the fact holds,
    /// `None` when it is absent from the snapshot.
    pub fn explain(&self, fact: &str, depth: usize) -> Result<(u64, Option<String>), ServeError> {
        let pin = self.pin();
        let q =
            Query::parse(fact).map_err(|e| ServeError::new(ErrorCode::BadGoal, e.to_string()))?;
        if q.args.iter().any(|a| a.is_none()) {
            return Err(ServeError::new(
                ErrorCode::BadGoal,
                "explain needs a fully bound fact, e.g. control(\"n0\", \"n2\")?",
            ));
        }
        let db: &Database = pin.db();
        if db.find_pred(&q.pred).is_none() {
            return Err(ServeError::new(
                ErrorCode::UnknownPredicate,
                format!("unknown predicate '{}'", q.pred),
            ));
        }
        // Resolve the goal's constants in the snapshot; a symbol the
        // database never interned cannot be part of a present fact.
        let mut tuple: Vec<Const> = Vec::with_capacity(q.args.len());
        for a in q.args.iter().flatten() {
            use datalog::ast::Lit;
            match a {
                Lit::Str(s) => match db.find_sym(s) {
                    Some(c) => tuple.push(c),
                    None => return Ok((pin.id(), None)),
                },
                Lit::Int(i) => tuple.push(Const::Int(*i)),
                Lit::Float(f) => tuple.push(Const::float(*f)),
                Lit::Bool(b) => tuple.push(Const::Bool(*b)),
            }
        }
        // Existence is one probe of the relation's dedup index.
        if db.relation(&q.pred).and_then(|r| r.find(&tuple)).is_none() {
            return Ok((pin.id(), None));
        }
        let prov = self.provenance_db(&pin)?;
        let tree = datalog::explain::explain(&prov, &q.pred, &tuple, depth).map(|d| d.render());
        Ok((pin.id(), tree))
    }

    /// Service counters.
    pub fn stats(&self) -> ServiceStats {
        let pin = self.pin();
        ServiceStats {
            name: self.name.clone(),
            total_facts: pin.db().total_facts(),
            lookups: self.lookups.load(Ordering::Relaxed),
            scan_lookups: self.scan_lookups.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            epochs: self.registry.snapshot_stats(),
            wal_seq: self
                .store
                .as_ref()
                .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).seq()),
        }
    }

    /// Program name (for banners and stats).
    pub fn name(&self) -> &str {
        &self.name
    }

    fn lock_session(&self) -> MutexGuard<'_, IncrementalEngine> {
        self.session.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The provenance database of `pin`'s epoch: project the extensional
    /// relations out of the snapshot and re-derive once with provenance
    /// enabled. Cached per epoch — explanations of one epoch pay the
    /// re-derivation once.
    ///
    /// Derived-predicate facts seeded before the initial run are axioms
    /// of the session but invisible to this projection; programs relying
    /// on derived seeds get partial trees (leaves render as `[fact]`).
    fn provenance_db(&self, pin: &PinnedEpoch) -> Result<Arc<Database>, ServeError> {
        {
            let cache = self.explain_cache.lock().unwrap_or_else(|e| e.into_inner());
            if let Some((id, db)) = &*cache {
                if *id == pin.id() {
                    return Ok(db.clone());
                }
            }
        }
        let mut scratch = pin.db().project(self.edb_preds.iter());
        self.explain_engine
            .run(&mut scratch)
            .map_err(|e| ServeError::new(ErrorCode::Internal, e.to_string()))?;
        let arc = Arc::new(scratch);
        let mut cache = self.explain_cache.lock().unwrap_or_else(|e| e.into_inner());
        *cache = Some((pin.id(), arc.clone()));
        Ok(arc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROGRAM: &str = r#"
        @output("reach").
        reach(X, Y) :- edge(X, Y).
        reach(X, Z) :- reach(X, Y), edge(Y, Z).
    "#;

    fn service() -> GraphService {
        let program = Program::parse(PROGRAM).unwrap();
        let mut db = Database::new();
        db.assert_str_facts("edge", &[&["a", "b"], &["b", "c"]]);
        GraphService::new(&program, db, ServiceConfig::default()).unwrap()
    }

    #[test]
    fn lookup_answers_from_the_current_epoch() {
        let svc = service();
        let (epoch, rows) = svc.lookup("reach(\"a\", X)?").unwrap();
        assert_eq!(epoch, 0);
        assert_eq!(rows, vec!["reach(a, b)", "reach(a, c)"]);
    }

    #[test]
    fn lookup_matches_from_scratch_reference() {
        let svc = service();
        let pin = svc.pin();
        for goal in ["reach(\"a\", X)?", "reach(\"b\", X)?", "reach(X, \"c\")?"] {
            let direct = svc.lookup_on(&pin, goal).unwrap();
            let reference = svc.query_on(pin.db(), goal).unwrap();
            assert_eq!(direct, reference, "{goal}");
        }
    }

    #[test]
    fn reference_rederives_instead_of_reading_the_epoch() {
        let svc = service();
        let mut planted = Database::clone(svc.pin().db());
        planted.assert_str_facts("reach", &[&["c", "a"]]);
        for goal in ["reach(X, Y)?", "reach(\"c\", X)?"] {
            let rows = svc.query_on(&planted, goal).unwrap();
            assert!(
                !rows.contains(&"reach(c, a)".to_owned()),
                "{goal}: the reference read the planted row: {rows:?}"
            );
        }
        assert_eq!(
            svc.query_on(&planted, "reach(X, Y)?").unwrap(),
            vec!["reach(a, b)", "reach(a, c)", "reach(b, c)"]
        );
    }

    #[test]
    fn update_commits_a_new_epoch_and_readers_keep_their_pin() {
        let svc = service();
        let pin = svc.pin();
        let applied = svc.apply_delta("+edge(c,d)").unwrap();
        assert_eq!(applied.epoch, 1);
        assert!(applied.inserted.contains(&"edge(c,d)".to_owned()));
        assert!(applied.inserted.contains(&"reach(a,d)".to_owned()));
        // The pinned epoch still answers from the old snapshot.
        let old = svc.lookup_on(&pin, "reach(\"a\", X)?").unwrap();
        assert_eq!(old, vec!["reach(a, b)", "reach(a, c)"]);
        // A fresh lookup sees the new epoch.
        let (epoch, rows) = svc.lookup("reach(\"a\", X)?").unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(rows, vec!["reach(a, b)", "reach(a, c)", "reach(a, d)"]);
    }

    #[test]
    fn epochs_share_the_relations_an_update_leaves_alone() {
        let program = Program::parse(PROGRAM).unwrap();
        let mut db = Database::new();
        db.assert_str_facts("edge", &[&["a", "b"], &["b", "c"]]);
        db.assert_str_facts("label", &[&["a", "x"]]);
        let svc = GraphService::new(&program, db, ServiceConfig::default()).unwrap();
        let first = svc.pin();
        svc.apply_delta("+edge(c,d)").unwrap();
        let second = svc.pin();
        assert!(second.db().shares_relation(first.db(), "label"));
        assert!(!second.db().shares_relation(first.db(), "edge"));
        assert!(!second.db().shares_relation(first.db(), "reach"));
        // A shortcut derives no new pair: reach stays shared.
        svc.apply_delta("+edge(a,c)").unwrap();
        let third = svc.pin();
        assert!(third.db().shares_relation(second.db(), "reach"));
        assert!(!third.db().shares_relation(second.db(), "edge"));
        // The old epochs answer from their own contents.
        assert_eq!(
            svc.lookup_on(&first, "reach(\"a\", X)?").unwrap(),
            vec!["reach(a, b)", "reach(a, c)"]
        );
    }

    #[test]
    fn bad_requests_map_to_stable_codes() {
        let svc = service();
        let err = svc.lookup("nonsense(").unwrap_err();
        assert_eq!(err.code, ErrorCode::BadGoal);
        let err = svc.lookup("nosuch(X)?").unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownPredicate);
        let err = svc.apply_delta("edge(a,b)").unwrap_err();
        assert_eq!(err.code, ErrorCode::BadUpdate);
        let err = svc.apply_delta("+reach(a,b)").unwrap_err();
        assert_eq!(err.code, ErrorCode::BadUpdate, "derived predicate");
        // Failed updates must not commit epochs.
        assert_eq!(svc.registry().current_id(), 0);
    }

    #[test]
    fn explain_renders_a_derivation_tree() {
        let svc = service();
        let (epoch, tree) = svc.explain("reach(\"a\", \"c\")?", 8).unwrap();
        assert_eq!(epoch, 0);
        let tree = tree.expect("fact holds");
        assert!(tree.contains("reach(a, c)"), "{tree}");
        assert!(tree.contains("edge(b, c)   [fact]"), "{tree}");
        // Absent facts are a found=false result, not an error.
        let (_, tree) = svc.explain("reach(\"c\", \"a\")?", 8).unwrap();
        assert!(tree.is_none());
        let (_, tree) = svc.explain("reach(\"zzz\", \"a\")?", 8).unwrap();
        assert!(tree.is_none(), "never-interned symbol");
        // Explanations track updates.
        svc.apply_delta("+edge(c,d)").unwrap();
        let (epoch, tree) = svc.explain("reach(\"a\", \"d\")?", 8).unwrap();
        assert_eq!(epoch, 1);
        assert!(tree.unwrap().contains("edge(c, d)   [fact]"));
    }

    #[test]
    fn stats_count_work() {
        let svc = service();
        let _ = svc.lookup("reach(\"a\", X)?").unwrap();
        let _ = svc.lookup("reach(\"a\", \"b\")?").unwrap();
        let _ = svc.lookup("reach(X, Y)?").unwrap();
        svc.apply_delta("+edge(c,d)").unwrap();
        let stats = svc.stats();
        assert_eq!(stats.lookups, 3);
        assert_eq!(stats.scan_lookups, 1, "only the all-free goal scans");
        assert_eq!(stats.updates, 1);
        assert_eq!(stats.epochs.current, 1);
        assert!(stats.total_facts > 0);
    }
}
