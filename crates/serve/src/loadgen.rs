//! The load generator: many concurrent TCP clients stampeding and
//! overloading a `slicc-serve` instance, with the scenario's governance
//! invariants checked as assertions — coalescing really coalesced,
//! shedding really shed and recovered, and every duplicate submission
//! got byte-identical results.
//!
//! Used three ways: as the `slicc-loadgen` binary (the CI smoke lane),
//! from the serve integration tests, and from the bench harness (it
//! reports end-to-end submits/second).

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use slicc_common::{lock_unpoisoned, JsonValue};

use crate::client::Client;

/// Which drill to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// Every connection submits the same key sequence concurrently: the
    /// server must execute each distinct key at most once (coalescing
    /// plus memoization absorb the rest) and shed nothing. Keys already
    /// resident from an earlier drill are all absorbed, so the drill
    /// repeats against a warm server.
    Stampede,
    /// More concurrent distinct submissions than the server will admit
    /// (run it with `--queue-limit 0`): some must come back as
    /// `RETRY-AFTER`, and a serial resubmission afterwards must succeed
    /// — shed and recover, not shed and stay down.
    Overload,
}

impl Scenario {
    pub fn parse(text: &str) -> Option<Scenario> {
        match text {
            "stampede" => Some(Scenario::Stampede),
            "overload" => Some(Scenario::Overload),
            _ => None,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Scenario::Stampede => "stampede",
            Scenario::Overload => "overload",
        }
    }
}

/// Drill sizing.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// `host:port` of the server.
    pub addr: String,
    /// Concurrent client connections.
    pub connections: usize,
    /// Submissions per connection.
    pub per_connection: usize,
    /// Distinct simulation points cycled through.
    pub distinct: usize,
    pub scenario: Scenario,
}

impl LoadgenConfig {
    pub fn new(addr: impl Into<String>, scenario: Scenario) -> Self {
        LoadgenConfig {
            addr: addr.into(),
            connections: 8,
            per_connection: 125,
            distinct: 8,
            scenario,
        }
    }

    /// The submission body for distinct point `which`: the tiny trace on
    /// the miniature test machine, so throughput measures the serving
    /// stack rather than one heavyweight simulation.
    fn submission(&self, which: usize) -> String {
        format!(r#"{{"workload":"tpcc1","scale":"tiny","machine":"tiny","seed":{which}}}"#)
    }
}

/// What the drill observed. [`LoadgenReport::check`] turns it into the
/// scenario's pass/fail verdict.
#[derive(Clone, Debug, Default)]
pub struct LoadgenReport {
    pub scenario: String,
    pub submitted: usize,
    /// Distinct keys cycled through by the drill.
    pub distinct: usize,
    pub ok: usize,
    pub from_cache_or_coalesced: usize,
    /// Keys that came back fresh (`from_cache=false`) more than once.
    pub refreshed_keys: usize,
    pub retry_after: usize,
    pub run_errors: usize,
    /// Frames we could not decode, digest mismatches between duplicates
    /// of one key, broken connections. Always fatal.
    pub client_errors: Vec<String>,
    /// Server-side counter deltas across the drill (from `STATS`).
    pub delta_cache_misses: u64,
    pub delta_coalesced_hits: u64,
    pub delta_cache_hits: u64,
    pub delta_shed_points: u64,
    /// Overload only: the post-burst serial submission succeeded.
    pub recovered: bool,
    pub elapsed: Duration,
}

impl LoadgenReport {
    /// End-to-end submissions per wall-clock second (completed OK).
    pub fn submits_per_sec(&self) -> f64 {
        if self.elapsed.as_secs_f64() <= 0.0 {
            return 0.0;
        }
        self.ok as f64 / self.elapsed.as_secs_f64()
    }

    /// The scenario's invariants. `Err` carries the first violation.
    pub fn check(&self) -> Result<(), String> {
        if !self.client_errors.is_empty() {
            return Err(format!(
                "{} client error(s), first: {}",
                self.client_errors.len(),
                self.client_errors[0]
            ));
        }
        match self.scenario.as_str() {
            "stampede" => {
                if self.ok != self.submitted {
                    return Err(format!(
                        "stampede: {} of {} submissions failed",
                        self.submitted - self.ok,
                        self.submitted
                    ));
                }
                if self.delta_shed_points != 0 {
                    return Err(format!(
                        "stampede: {} submissions shed under a roomy queue",
                        self.delta_shed_points
                    ));
                }
                if self.refreshed_keys != 0 {
                    return Err(format!(
                        "stampede: {} key(s) simulated fresh more than once — \
                         duplicates must coalesce to one flight per key",
                        self.refreshed_keys
                    ));
                }
                // A warm server answers every key from its cache, so the
                // fresh count is whatever the clients saw, not `distinct`.
                let fresh = self.ok - self.from_cache_or_coalesced;
                if self.delta_cache_misses != fresh as u64 {
                    return Err(format!(
                        "stampede: clients saw {fresh} fresh result(s) but the server \
                         counted {} fresh simulations",
                        self.delta_cache_misses
                    ));
                }
                let absorbed = self.delta_coalesced_hits + self.delta_cache_hits;
                if absorbed != (self.submitted - fresh) as u64 {
                    return Err(format!(
                        "stampede: {absorbed} submissions absorbed by cache+coalescing, \
                         expected {}",
                        self.submitted - fresh
                    ));
                }
                Ok(())
            }
            "overload" => {
                if self.retry_after == 0 {
                    return Err("overload: no submission was answered RETRY-AFTER".into());
                }
                if self.delta_shed_points == 0 {
                    return Err("overload: the server reports zero shed points".into());
                }
                if !self.recovered {
                    return Err("overload: post-burst submission did not succeed".into());
                }
                Ok(())
            }
            other => Err(format!("unknown scenario {other:?}")),
        }
    }

    /// One-line JSON rendering for scripts and the bench harness.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"scenario\":{},\"submitted\":{},\"distinct\":{},\"ok\":{},",
                "\"from_cache_or_coalesced\":{},\"refreshed_keys\":{},",
                "\"retry_after\":{},\"run_errors\":{},",
                "\"client_errors\":{},\"delta_cache_misses\":{},\"delta_coalesced_hits\":{},",
                "\"delta_cache_hits\":{},\"delta_shed_points\":{},\"recovered\":{},",
                "\"elapsed_ms\":{},\"submits_per_sec\":{}}}"
            ),
            slicc_common::json_str(&self.scenario),
            self.submitted,
            self.distinct,
            self.ok,
            self.from_cache_or_coalesced,
            self.refreshed_keys,
            self.retry_after,
            self.run_errors,
            self.client_errors.len(),
            self.delta_cache_misses,
            self.delta_coalesced_hits,
            self.delta_cache_hits,
            self.delta_shed_points,
            self.recovered,
            self.elapsed.as_millis(),
            slicc_common::json_f64(self.submits_per_sec()),
        )
    }
}

/// Per-key digest registry: every duplicate submission of one key must
/// report the same digest, no matter which client it raced in on. Also
/// counts each key's fresh (`from_cache=false`) results.
#[derive(Default)]
struct DigestBook {
    /// Key -> (first digest seen, fresh results).
    seen: Mutex<HashMap<String, (String, usize)>>,
    mismatches: Mutex<Vec<String>>,
}

impl DigestBook {
    fn record(&self, key: &str, digest: &str, from_cache: bool) {
        let mut seen = lock_unpoisoned(&self.seen);
        let (expected, fresh) =
            seen.entry(key.to_string()).or_insert_with(|| (digest.to_string(), 0));
        *fresh += usize::from(!from_cache);
        if expected != digest {
            lock_unpoisoned(&self.mismatches).push(format!(
                "key {key}: digest {digest} disagrees with earlier {expected}"
            ));
        }
    }

    /// Keys with more than one fresh result.
    fn refreshed_keys(&self) -> usize {
        lock_unpoisoned(&self.seen).values().filter(|(_, fresh)| *fresh > 1).count()
    }
}

fn stat(stats: &JsonValue, field: &str) -> u64 {
    stats.get(field).and_then(JsonValue::as_u64).unwrap_or(0)
}

/// Runs the drill. `Err` means the drill itself could not run (server
/// unreachable); scenario violations are reported through
/// [`LoadgenReport::check`] instead so callers can still inspect the
/// numbers.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenReport, String> {
    let mut report = LoadgenReport {
        scenario: cfg.scenario.label().to_string(),
        distinct: cfg.distinct.max(1),
        ..LoadgenReport::default()
    };
    let distinct = cfg.distinct.max(1);

    let before = Client::connect(&cfg.addr)?.stats()?;
    let digests = DigestBook::default();

    #[derive(Default)]
    struct Tally {
        ok: usize,
        cached: usize,
        retry_after: usize,
        run_errors: usize,
        errors: Vec<String>,
    }

    let started = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let digests = &digests;
        let handles: Vec<_> = (0..cfg.connections.max(1))
            .map(|_| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut client = match Client::connect(&cfg.addr) {
                        Ok(c) => c,
                        Err(e) => {
                            tally.errors.push(e);
                            return tally;
                        }
                    };
                    for j in 0..cfg.per_connection {
                        // Every connection walks the same key sequence,
                        // so early keys see the hardest stampede.
                        let body = cfg.submission(j % distinct);
                        match client.submit(&body) {
                            Ok(crate::client::Submitted::Result { key, digest, from_cache }) => {
                                tally.ok += 1;
                                if from_cache {
                                    tally.cached += 1;
                                }
                                digests.record(&key, &digest, from_cache);
                            }
                            Ok(crate::client::Submitted::RetryAfter { .. }) => {
                                tally.retry_after += 1;
                            }
                            Ok(crate::client::Submitted::RunError { message }) => {
                                tally.run_errors += 1;
                                tally.errors.push(format!("run error: {message}"));
                            }
                            Err(e) => {
                                tally.errors.push(e);
                                return tally;
                            }
                        }
                    }
                    let _ = client.quit();
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut t = Tally::default();
                    t.errors.push("client thread panicked".into());
                    t
                })
            })
            .collect()
    });
    report.elapsed = started.elapsed();

    report.submitted = cfg.connections.max(1) * cfg.per_connection;
    for tally in tallies {
        report.ok += tally.ok;
        report.from_cache_or_coalesced += tally.cached;
        report.retry_after += tally.retry_after;
        report.run_errors += tally.run_errors;
        report.client_errors.extend(tally.errors);
    }
    report
        .client_errors
        .extend(std::mem::take(&mut *lock_unpoisoned(&digests.mismatches)));
    report.refreshed_keys = digests.refreshed_keys();

    // Overload: prove the server recovers once the burst subsides — a
    // fresh serial submission (new key, nothing to coalesce onto) must
    // be admitted and succeed.
    if cfg.scenario == Scenario::Overload {
        let mut prober = Client::connect(&cfg.addr)?;
        let fresh = format!(
            r#"{{"workload":"tpcc1","scale":"tiny","machine":"tiny","seed":{}}}"#,
            distinct + 1_000_003
        );
        report.recovered = (0..50).any(|_| {
            match prober.submit(&fresh) {
                Ok(crate::client::Submitted::Result { .. }) => true,
                Ok(crate::client::Submitted::RetryAfter { millis, .. }) => {
                    std::thread::sleep(Duration::from_millis(millis.clamp(10, 500)));
                    false
                }
                _ => false,
            }
        });
        let _ = prober.quit();
    }

    let after = Client::connect(&cfg.addr)?.stats()?;
    report.delta_cache_misses = stat(&after, "cache_misses") - stat(&before, "cache_misses");
    report.delta_coalesced_hits =
        stat(&after, "coalesced_hits") - stat(&before, "coalesced_hits");
    report.delta_cache_hits = stat(&after, "cache_hits") - stat(&before, "cache_hits");
    report.delta_shed_points = stat(&after, "shed_points") - stat(&before, "shed_points");
    // The recovery probe executes one fresh point; keep the stampede
    // accounting exact. (Overload never asserts exact miss counts.)
    if cfg.scenario == Scenario::Overload && report.recovered {
        report.delta_cache_misses = report.delta_cache_misses.saturating_sub(1);
    }
    Ok(report)
}
