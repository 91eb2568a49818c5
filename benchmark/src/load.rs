//! Load generation: key popularity, the read mix, the update feed and
//! open-loop pacing. Everything is a pure function of the seed.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Zipf exponent of the key popularity: a few hot nodes absorb most
/// lookups, as in the paper's analyst workload.
pub const ZIPF_S: f64 = 1.1;

/// Share of lookups that bind the first column (`control("nK", X)?`);
/// the rest bind the second, so an index on one column earns only its
/// share.
pub const FORWARD_SHARE: f64 = 0.7;

/// Zipfian sampler over ranks `0..n` via an explicit CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs a non-empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 1..=n {
            total += 1.0 / (r as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Maps a uniform draw in `[0, 1)` to a rank.
    pub fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The read mix: zipf-popular node keys (persons first, then companies,
/// in generation order), 70 % forward and 30 % backward control goals.
pub struct GoalMix {
    names: Arc<Vec<String>>,
    zipf: Zipf,
    rng: StdRng,
}

impl GoalMix {
    pub fn new(names: Arc<Vec<String>>, seed: u64) -> Self {
        GoalMix {
            zipf: Zipf::new(names.len(), ZIPF_S),
            names,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    pub fn next_goal(&mut self) -> String {
        let key = &self.names[self.zipf.sample(self.rng.random_range(0.0..1.0))];
        if self.rng.random_bool(FORWARD_SHARE) {
            format!("control(\"{key}\", X)?")
        } else {
            format!("control(X, \"{key}\")?")
        }
    }
}

/// Exactly representable decimal weights: a delete's re-parse lands on
/// the identical f64 the insert produced.
const WEIGHTS: [&str; 4] = ["0.05", "0.1", "0.15", "0.25"];

/// Probability that an update also withdraws an earlier insert.
const DELETE_P: f64 = 0.4;

/// The register feed: each update holds 1–3 `+own(a,b,w)` lines (any
/// node buys into a company) and, with probability 0.4, a `-own` of an
/// earlier insert.
pub struct UpdateFeed {
    names: Arc<Vec<String>>,
    first_company: usize,
    rng: StdRng,
    inserted: Vec<(String, String, &'static str)>,
}

impl UpdateFeed {
    /// `names[first_company..]` are the companies.
    pub fn new(names: Arc<Vec<String>>, first_company: usize, seed: u64) -> Self {
        assert!(first_company < names.len(), "feed needs a company");
        UpdateFeed {
            names,
            first_company,
            rng: StdRng::seed_from_u64(seed),
            inserted: Vec::new(),
        }
    }

    pub fn next_update(&mut self) -> String {
        let mut lines = Vec::new();
        for _ in 0..self.rng.random_range(1..4usize) {
            let a = self.names[self.rng.random_range(0..self.names.len())].clone();
            let b = self.names[self.rng.random_range(self.first_company..self.names.len())].clone();
            let w = WEIGHTS[self.rng.random_range(0..WEIGHTS.len())];
            lines.push(format!("+own({a},{b},{w})"));
            self.inserted.push((a, b, w));
        }
        if self.rng.random_bool(DELETE_P) {
            let i = self.rng.random_range(0..self.inserted.len());
            let (a, b, w) = self.inserted.swap_remove(i);
            lines.push(format!("-own({a},{b},{w})"));
        }
        lines.join("\n")
    }
}

/// Open-loop accounting: request `i` is due at `i × period` whether or
/// not the previous one has finished. Latency counts from the due time,
/// so a stall charges the requests queued behind it; lateness is how
/// long after its due time the generator got to send.
pub struct OpenLoop {
    period_ns: u64,
    pub latency_ns: Vec<u64>,
    pub late_ns: Vec<u64>,
}

impl OpenLoop {
    pub fn new(rate_hz: f64) -> Self {
        OpenLoop {
            period_ns: (1e9 / rate_hz) as u64,
            latency_ns: Vec::new(),
            late_ns: Vec::new(),
        }
    }

    /// Due time of the next request, nanoseconds after the start.
    pub fn next_due_ns(&self) -> u64 {
        self.period_ns * self.latency_ns.len() as u64
    }

    /// Records the next request as sent and answered at the given
    /// nanoseconds after the start.
    pub fn record(&mut self, sent_ns: u64, done_ns: u64) {
        let due = self.next_due_ns();
        self.late_ns.push(sent_ns.saturating_sub(due));
        self.latency_ns.push(done_ns.saturating_sub(due));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Arc<Vec<String>> {
        Arc::new((0..n).map(|i| format!("n{i}")).collect())
    }

    #[test]
    fn zipf_skews_toward_low_ranks_and_stays_in_range() {
        let z = Zipf::new(100, ZIPF_S);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(rng.random_range(0.0..1.0))] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[60]);
        assert_eq!(z.sample(0.0), 0);
        assert_eq!(z.sample(0.999_999_9), 99);
    }

    #[test]
    fn goal_mix_is_deterministic_and_mixes_directions() {
        let draw = |seed| {
            let mut m = GoalMix::new(names(50), seed);
            (0..400).map(|_| m.next_goal()).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let goals = draw(3);
        let forward = goals.iter().filter(|g| g.ends_with(", X)?")).count();
        assert!(
            (220..=340).contains(&forward),
            "forward share {forward}/400"
        );
    }

    #[test]
    fn update_feed_repeats_and_only_deletes_what_it_inserted() {
        let run = |seed| {
            let mut f = UpdateFeed::new(names(30), 20, seed);
            (0..60).map(|_| f.next_update()).collect::<Vec<_>>()
        };
        let a = run(11);
        assert_eq!(a, run(11));
        let mut live: Vec<String> = Vec::new();
        for update in &a {
            let lines: Vec<&str> = update.lines().collect();
            let inserts = lines.iter().filter(|l| l.starts_with('+')).count();
            assert!((1..=3).contains(&inserts) && lines.len() <= inserts + 1);
            for l in lines {
                let fact = l[1..].to_owned();
                if l.starts_with('+') {
                    // Targets are companies: names[20..].
                    let target: usize = fact.split(',').nth(1).unwrap()[1..].parse().unwrap();
                    assert!(target >= 20);
                    live.push(fact);
                } else {
                    let at = live
                        .iter()
                        .position(|f| *f == fact)
                        .expect("earlier insert");
                    live.swap_remove(at);
                }
            }
        }
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_behind_it() {
        // 10 requests/s: due at 0, 100 ms, 200 ms.
        let mut o = OpenLoop::new(10.0);
        let ms = 1_000_000u64;
        o.record(0, 250 * ms); // on time, but takes 250 ms
        assert_eq!(o.next_due_ns(), 100 * ms);
        o.record(250 * ms, 280 * ms); // sent 150 ms late, 30 ms of service
        o.record(280 * ms, 300 * ms); // still 80 ms behind
        assert_eq!(o.late_ns, vec![0, 150 * ms, 80 * ms]);
        assert_eq!(o.latency_ns, vec![250 * ms, 180 * ms, 100 * ms]);
    }
}
