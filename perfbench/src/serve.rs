//! `serve-mix`: a fresh in-process `slicc-serve` (binary defaults) on
//! loopback, driven by two closed-loop connections of this benchmark's
//! own minimal client. Most submissions hit a few warm keys filled during
//! set-up; every tenth carries a fresh key private to its connection, which costs one tiny-scale simulation and a cache insert.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use slicc_common::{parse_json, JsonValue, SplitMix64};
use slicc_serve::protocol::{
    decode_request, decode_response, encode_response, submission_from_json, Response,
};
use slicc_serve::{Server, ServerConfig};
use slicc_sim::{RunRequest, RunResult, Runner, RunnerStats, ServiceConfig, SimService};

use crate::layers::{self, Counts};
use crate::spans::Tracer;
use crate::{stats, Args, Loop, Named, Outcome};

const CONNECTIONS: usize = 2;
const WORKLOADS: [&str; 4] = ["tpcc1", "tpcc10", "tpce", "mapreduce"];
/// Every this many submissions of a connection, one uses a fresh key.
const FRESH_ONE_IN: u64 = 10;
/// A reply slower than this counts as a timeout.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Length of the serve-mix probe that measures the serving layers on
/// workloads that do not load them.
const PROBE: Duration = Duration::from_secs(2);

/// Submission bodies derived from the seed. Key seeds are
/// `base + index`: 0..4 are the warm keys, and fresh key `n` of
/// connection `c` is `4 + n * CONNECTIONS + c`, so no two keys collide.
#[derive(Clone)]
pub struct Bodies {
    base: u64,
    pub warm: Vec<String>,
}

impl Bodies {
    pub fn new(seed: u64) -> Self {
        // Below 2^40 so every key seed survives JSON's f64 numbers.
        let base = SplitMix64::new(seed).next_u64() >> 24;
        let warm = (0..WORKLOADS.len())
            .map(|i| body(WORKLOADS[i], base + i as u64))
            .collect();
        Bodies { base, warm }
    }

    /// Fresh keys cycle through the workloads, so every run simulates the
    /// same mix.
    fn fresh(&self, conn: usize, n: u64) -> String {
        let workload = WORKLOADS[(n % WORKLOADS.len() as u64) as usize];
        body(
            workload,
            self.base + WORKLOADS.len() as u64 + n * CONNECTIONS as u64 + conn as u64,
        )
    }
}

fn body(workload: &str, seed: u64) -> String {
    format!("{{\"workload\":\"{workload}\",\"seed\":{seed}}}")
}

/// The request a `SUBMIT` body describes, decoded as the server does.
fn request(body: &str) -> Result<RunRequest, String> {
    let json = parse_json(body).map_err(|e| e.to_string())?;
    submission_from_json(&json).map_err(|e| e.to_string())
}

/// The in-process reference: the same body, run on this thread.
fn reference(body: &str) -> Result<RunResult, String> {
    request(body)?.try_execute().map_err(|e| e.to_string())
}

/// A `SimService` configured as the `slicc-serve` binary's defaults.
fn default_service() -> SimService {
    let jobs = crate::host_cpus();
    let limits = ServiceConfig {
        max_inflight: jobs,
        queue_limit: jobs * 2,
    };
    SimService::new(Arc::new(Runner::new(jobs)), limits)
}

/// A served digest must equal the in-process reference's.
pub fn check_digest(served: &str, reference: u64) -> Result<(), String> {
    let want = format!("{reference:016x}");
    if served == want {
        Ok(())
    } else {
        Err(format!("served digest {served} != in-process {want}"))
    }
}

/// The value of `"key":` in a compact JSON frame, unquoted.
fn field<'a>(frame: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = frame.find(&pat)? + pat.len();
    let rest = &frame[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

/// One connection of the minimal client: writes `SUBMIT` frames and
/// splits replies on `\n`, extracting only the fields it checks.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

struct Reply {
    digest: String,
    from_cache: bool,
    wall_ms: f64,
    event_to_result: Duration,
    frame: String,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    fn read_frame(&mut self) -> Result<String, String> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(i) = self.buf.iter().position(|&b| b == b'\n') {
                let frame: Vec<u8> = self.buf.drain(..=i).collect();
                return String::from_utf8(frame[..i].to_vec())
                    .map_err(|_| "non-UTF-8 frame".into());
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read failed (timeout?): {e}")),
            }
        }
    }

    fn submit(
        &mut self,
        body: &str,
        tracer: &Tracer,
        parent: u64,
        request: u64,
    ) -> Result<Reply, String> {
        let op = tracer.open();
        self.stream
            .write_all(format!("SUBMIT {body}\n").as_bytes())
            .map_err(|e| format!("write failed: {e}"))?;
        tracer.close(op, "submit.write", parent, request);
        let op = tracer.open();
        let first = self.read_frame()?;
        tracer.close(op, "submit.first_frame", parent, request);
        if !first.starts_with("EVENT ") {
            return Err(format!("expected EVENT, got {first:?}"));
        }
        let event_at = Instant::now();
        let op = tracer.open();
        let frame = self.read_frame()?;
        tracer.close(op, "submit.result", parent, request);
        let event_to_result = event_at.elapsed();
        if !frame.starts_with("RESULT ") {
            return Err(format!("expected RESULT, got {frame:?}"));
        }
        let digest = field(&frame, "digest")
            .ok_or("RESULT without digest")?
            .to_string();
        let from_cache = field(&frame, "from_cache") == Some("true");
        let number = |key: &str| {
            field(&frame, key)
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0)
        };
        let wall_ms = number("wall_ms");
        Ok(Reply {
            digest,
            from_cache,
            wall_ms,
            event_to_result,
            frame,
        })
    }

    fn stats(&mut self) -> Result<JsonValue, String> {
        self.stream
            .write_all(b"STATS\n")
            .map_err(|e| format!("write failed: {e}"))?;
        let frame = self.read_frame()?;
        match decode_response(frame.as_bytes()) {
            Ok(Response::Stats(json)) => Ok(json),
            other => Err(format!("expected STATS, got {other:?}")),
        }
    }
}

/// A booted server with its connections and warm keys filled.
pub struct Booted {
    server: Arc<Server>,
    handle: Option<JoinHandle<std::io::Result<()>>>,
    conns: Vec<Conn>,
    bodies: Bodies,
    /// Served digests of the warm keys, from the fill.
    warm_digests: Vec<String>,
    fill_failures: Vec<String>,
}

impl Drop for Booted {
    fn drop(&mut self) {
        self.conns.clear();
        self.server.cancel_token().cancel();
        if let Some(h) = self.handle.take() {
            // The drain result is checked by `shutdown`; here we only join.
            let _ = h.join();
        }
    }
}

impl Booted {
    /// Stops the server and joins it, reporting a failed drain.
    fn shutdown(mut self) -> Result<(), String> {
        self.conns.clear();
        self.server.cancel_token().cancel();
        match self.handle.take().map(JoinHandle::join) {
            Some(Ok(Ok(()))) | None => Ok(()),
            Some(Ok(Err(e))) => Err(format!("server drain failed: {e}")),
            Some(Err(_)) => Err("server thread panicked".into()),
        }
    }
}

/// Boots a server exactly as the `slicc-serve` binary does with no
/// options, connects the clients and fills the warm keys.
pub fn boot(seed: u64) -> Booted {
    let server = Arc::new(Server::new(
        Arc::new(default_service()),
        ServerConfig::default(),
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let handle = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(listener))
    };
    let conns = (0..CONNECTIONS)
        .map(|_| Conn::connect(addr).expect("connect to the server"))
        .collect();
    let mut booted = Booted {
        server,
        handle: Some(handle),
        conns,
        bodies: Bodies::new(seed),
        warm_digests: Vec::new(),
        fill_failures: Vec::new(),
    };
    for body in booted.bodies.warm.clone() {
        match booted.conns[0].submit(&body, &Tracer::new(false), 0, 0) {
            Ok(r) => booted.warm_digests.push(r.digest),
            Err(e) => {
                booted.fill_failures.push(format!("warm fill {body}: {e}"));
                booted.warm_digests.push(String::new());
            }
        }
    }
    booted
}

/// One submission as the client saw it.
struct Sample {
    body: String,
    fresh: bool,
    rtt: Duration,
    reply: Result<Reply, String>,
}

struct ServeLoop {
    out: Loop,
    samples: Vec<Sample>,
    wall_s: f64,
    fresh_refs: Vec<RunResult>,
}

fn stat(json: &JsonValue, key: &str) -> u64 {
    json.get(key)
        .and_then(JsonValue::as_u64)
        .unwrap_or(u64::MAX)
}

fn measure(b: &mut Booted, budget: Duration, tracer: &Tracer, salt: u64) -> ServeLoop {
    let mut out = Loop::default();
    let before = b.conns[0].stats();
    let bodies = b.bodies.clone();
    let start = Instant::now();
    let per_conn: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let workers: Vec<_> = b
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let bodies = &bodies;
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(bodies.base)
                        .split(salt * CONNECTIONS as u64 + c as u64 + 1);
                    // Every tenth submission, at a phase drawn from the
                    // seed, is fresh: a run of a given length inserts the
                    // same number of results whatever the seed.
                    let phase = rng.next_below(FRESH_ONE_IN);
                    // Fresh-key numbering continues across loops on one server.
                    let mut fresh_n = salt << 32;
                    let mut samples = Vec::new();
                    while start.elapsed() < budget {
                        let fresh = samples.len() as u64 % FRESH_ONE_IN == phase;
                        let body = if fresh {
                            fresh_n += 1;
                            bodies.fresh(c, fresh_n)
                        } else {
                            bodies.warm[rng.next_below(bodies.warm.len() as u64) as usize].clone()
                        };
                        let request = ((c as u64) << 40) | samples.len() as u64;
                        let op = tracer.open();
                        let parent = op.id;
                        let reply = conn.submit(&body, tracer, parent, request);
                        let rtt = tracer.close(op, "submit", 0, request);
                        let broken = reply.is_err();
                        samples.push(Sample {
                            body,
                            fresh,
                            rtt,
                            reply,
                        });
                        if broken {
                            // The connection's state is unknown after a
                            // failed exchange: stop this client.
                            break;
                        }
                    }
                    samples
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    out.peak_rss_mb = crate::peak_rss_mb();
    let after = b.conns[0].stats();
    let samples: Vec<Sample> = per_conn.into_iter().flatten().collect();

    // Check every reply against the in-process reference of its body.
    out.attempted = samples.len() as u64;
    let warm_refs: Vec<u64> = bodies
        .warm
        .iter()
        .map(|w| reference(w).map_or(0, |r| r.metrics.digest()))
        .collect();
    let fresh_bodies: Vec<&str> = samples
        .iter()
        .filter(|s| s.fresh)
        .map(|s| s.body.as_str())
        .collect();
    let mut fresh_refs = Vec::new();
    let mut refs = fresh_bodies.iter().map(|b| reference(b));
    // Simulated instructions per second of a client's cold round trip,
    // per workload. Equal digests mean the reference's instruction count
    // is the served one.
    let mut cold_mips: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for s in &samples {
        let reference = if s.fresh {
            let r = refs.next().expect("one reference per fresh body");
            if let (Ok(_), Ok(r), Some(w)) = (&s.reply, &r, field(&s.body, "workload")) {
                let mips = r.metrics.instructions as f64 / s.rtt.as_secs_f64() / 1e6;
                cold_mips.entry(w).or_default().push(mips);
            }
            r.map(|r| {
                let digest = r.metrics.digest();
                fresh_refs.push(r);
                digest
            })
        } else {
            let i = bodies
                .warm
                .iter()
                .position(|w| *w == s.body)
                .expect("warm body");
            Ok(warm_refs[i])
        };
        let verdict = match (&s.reply, reference) {
            (Err(e), _) => Err(e.clone()),
            (_, Err(e)) => Err(format!("in-process reference failed: {e}")),
            (Ok(r), Ok(want)) => check_digest(&r.digest, want).and_then(|()| {
                if r.from_cache == s.fresh {
                    Err(format!(
                        "from_cache {} on a {} key",
                        r.from_cache,
                        if s.fresh { "fresh" } else { "warm" }
                    ))
                } else {
                    Ok(())
                }
            }),
        };
        if let Err(e) = verdict {
            out.fail(format!("{}: {e}", s.body));
        }
    }
    // Each fresh key simulated exactly once, each warm key a resident hit.
    match (before, after) {
        (Ok(before), Ok(after)) => {
            let delta = |k: &str| stat(&after, k).wrapping_sub(stat(&before, k));
            let sent_fresh = samples
                .iter()
                .filter(|s| s.fresh && s.reply.is_ok())
                .count() as u64;
            let sent_warm = samples
                .iter()
                .filter(|s| !s.fresh && s.reply.is_ok())
                .count() as u64;
            if delta("cache_misses") != sent_fresh {
                out.fail(format!(
                    "{} simulations for {sent_fresh} fresh keys",
                    delta("cache_misses")
                ));
            }
            if delta("cache_hits") + delta("coalesced_hits") != sent_warm {
                out.fail(format!(
                    "{} hits for {sent_warm} warm submissions",
                    delta("cache_hits")
                ));
            }
            if delta("shed_points") != 0 {
                out.fail(format!("{} submissions shed", delta("shed_points")));
            }
        }
        (b, a) => out.fail(format!("STATS failed: {:?} / {:?}", b.err(), a.err())),
    }
    let ms = |d: &Duration| d.as_secs_f64() * 1e3;
    let hits: Vec<f64> = samples
        .iter()
        .filter(|s| !s.fresh && s.reply.is_ok())
        .map(|s| ms(&s.rtt))
        .collect();
    let colds: Vec<f64> = samples
        .iter()
        .filter(|s| s.fresh && s.reply.is_ok())
        .map(|s| ms(&s.rtt))
        .collect();
    // The median per workload (a burst of host noise moves few keys),
    // combined over the workloads by geometric mean.
    let logs: Vec<f64> = cold_mips
        .values()
        .filter_map(|v| stats::median(v))
        .map(f64::ln)
        .collect();
    out.op_s = hits.iter().map(|m| m / 1e3).collect();
    out.ops_per_s = (hits.len() + colds.len()) as f64 / wall_s;
    out.sim_mips = (logs.iter().sum::<f64>() / logs.len() as f64).exp();
    let us = |r: Result<f64, String>| r.map(|v| v * 1e3);
    out.named = vec![
        Named::new(
            "hit_rtt_p50_us",
            us(stats::median(&hits).ok_or_else(|| "no hits".into())),
            "us",
            hits.len(),
        ),
        Named::new(
            "hit_rtt_p99_us",
            us(stats::percentile(&hits, 99.0)),
            "us",
            hits.len(),
        ),
        Named::new(
            "cold_rtt_p50_ms",
            stats::median(&colds).ok_or_else(|| "no fresh keys".into()),
            "ms",
            colds.len(),
        ),
        Named::new(
            "cold_rtt_p90_ms",
            stats::percentile(&colds, 90.0),
            "ms",
            colds.len(),
        ),
        Named::new(
            "serve_ops_per_s",
            Ok(out.ops_per_s),
            "ops/s",
            hits.len() + colds.len(),
        ),
        Named::new("sim_mips", Ok(out.sim_mips), "M instr/s", colds.len()),
    ];
    ServeLoop {
        out,
        samples,
        wall_s,
        fresh_refs,
    }
}

/// Host time per call of `f`, in microseconds: the median of seven
/// rounds of 2000 calls, so a burst of host noise moves one round.
fn us_per_call(mut f: impl FnMut(usize)) -> f64 {
    let rounds: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for i in 0..2000 {
                f(i);
            }
            t.elapsed().as_secs_f64() * 1e6 / 2000.0
        })
        .collect();
    stats::median(&rounds).expect("seven rounds")
}

/// The service, protocol and server figures, from a traced loop on
/// `booted` plus in-process replays on the same bodies.
/// `before` is the server runner's counters when the traced loop began.
fn serving_layers(
    b: &Booted,
    traced: &ServeLoop,
    before: &RunnerStats,
    tracer: &Tracer,
) -> Vec<(&'static str, f64)> {
    let bodies = &b.bodies;
    let after = b.server.service().runner().stats();
    // sim::service in-process: cold submits of bodies it has not seen,
    // then resident hits on the warm keys.
    let (hit_us, cold_ms) = tracer.span("replay.service", 0, |_| {
        let service = default_service();
        let reqs: Vec<_> = bodies
            .warm
            .iter()
            .map(|w| request(w).expect("warm body is valid"))
            .collect();
        let cold: Vec<f64> = reqs
            .iter()
            .map(|r| {
                let t = Instant::now();
                let ok = service.submit(r).is_ok();
                assert!(ok, "in-process cold submit failed");
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let hit = us_per_call(|i| {
            std::hint::black_box(service.submit(&reqs[i % reqs.len()]).is_ok());
        });
        (hit, stats::median(&cold).expect("warm bodies"))
    });

    // serve::protocol: request decode + validation, reply encode.
    let frames: Vec<Vec<u8>> = bodies
        .warm
        .iter()
        .map(|w| format!("SUBMIT {w}").into_bytes())
        .collect();
    let decode_us = tracer.span("replay.protocol.decode", 0, |_| {
        us_per_call(|i| {
            if let Ok(slicc_serve::protocol::Request::Submit(json)) =
                decode_request(&frames[i % frames.len()])
            {
                std::hint::black_box(submission_from_json(&json).is_ok());
            }
        })
    });
    let result = traced
        .samples
        .iter()
        .find_map(|s| s.reply.as_ref().ok().map(|r| r.frame.clone()))
        .and_then(|f| decode_response(f.as_bytes()).ok())
        .unwrap_or(Response::Pong);
    let key = match &result {
        Response::Result(json) => json.get("key").cloned().unwrap_or(JsonValue::Null),
        _ => JsonValue::Null,
    };
    let event = Response::Event(JsonValue::Object(
        [
            ("state".to_string(), JsonValue::String("accepted".into())),
            ("key".to_string(), key),
        ]
        .into_iter()
        .collect(),
    ));
    // One submit's replies: the EVENT and the RESULT frame.
    let encode_us = tracer.span("replay.protocol.encode", 0, |_| {
        us_per_call(|_| {
            std::hint::black_box(encode_response(&event));
            std::hint::black_box(encode_response(&result));
        })
    });

    // serve::server, from the traced loop's own spans.
    let warm: Vec<&Sample> = traced
        .samples
        .iter()
        .filter(|s| !s.fresh && s.reply.is_ok())
        .collect();
    let e2r: Vec<f64> = warm
        .iter()
        .filter_map(|s| {
            s.reply
                .as_ref()
                .ok()
                .map(|r| r.event_to_result.as_secs_f64() * 1e6)
        })
        .collect();
    let rtts: Vec<f64> = warm.iter().map(|s| s.rtt.as_secs_f64() * 1e6).collect();
    let hit_rtt_p50_us = stats::median(&rtts).unwrap_or(f64::NAN);
    vec![
        ("service.hit_us", hit_us),
        ("service.cold_ms", cold_ms),
        (
            "service.coalesced_hits",
            (after.coalesced_hits - before.coalesced_hits) as f64,
        ),
        (
            "service.shed",
            (after.shed_points - before.shed_points) as f64,
        ),
        ("protocol.decode_us", decode_us),
        ("protocol.encode_us", encode_us),
        (
            "server.event_to_result_us",
            stats::median(&e2r).unwrap_or(f64::NAN),
        ),
        (
            "server.residual_us",
            hit_rtt_p50_us - hit_us - decode_us - encode_us,
        ),
    ]
}

/// The serving layers measured by a short serve-mix run, for workloads
/// that do not load them.
pub fn probe(seed: u64, tracer: &Tracer) -> Vec<(&'static str, f64)> {
    let mut b = boot(seed);
    let before = b.server.service().runner().stats();
    let traced = measure(&mut b, PROBE, tracer, 1);
    serving_layers(&b, &traced, &before, tracer)
}

pub fn run(args: &Args) -> Outcome {
    // Set-up and round trips here wait on loopback timers more than on
    // the CPU, so serve-mix reports times as measured.
    let (mut b, setup_s) = crate::repeated_setup(None, || boot(args.seed));
    let fill = std::mem::take(&mut b.fill_failures);
    let budget = crate::loop_budget(args);
    let mut first = measure(&mut b, budget, &Tracer::new(false), 0);
    // The warm keys' fill must match the in-process reference too.
    for (body, served) in b.bodies.warm.iter().zip(&b.warm_digests) {
        if let Err(e) = reference(body).and_then(|r| check_digest(served, r.metrics.digest())) {
            first.out.fail(format!("warm fill {body}: {e}"));
        }
    }
    for f in fill {
        first.out.fail(f);
    }
    if !args.trace {
        if let Err(e) = b.shutdown() {
            first.out.fail(e);
        }
        return Outcome {
            setup_s,
            loops: vec![first.out],
            layers: Vec::new(),
            spans: None,
        };
    }

    let tracer = Tracer::new(true);
    let before = b.server.service().runner().stats();
    let traced = measure(&mut b, budget, &tracer, 1);
    let mut layers = serving_layers(&b, &traced, &before, &tracer);
    let after = b.server.service().runner().stats();

    let mut counts = Counts::default();
    let mut sim_ns = 0.0;
    for r in &traced.fresh_refs {
        counts.add(&r.metrics);
        sim_ns += r.wall.as_nanos() as f64;
    }
    let specs: Vec<_> = b
        .bodies
        .warm
        .iter()
        .map(|w| {
            let req = request(w).expect("warm body is valid");
            (req.spec(), req.config)
        })
        .collect();
    let replay = tracer.span("replay", 0, |id| layers::replay(&specs, &tracer, id));
    layers.extend(layers::engine_metrics(
        sim_ns,
        counts.instructions,
        &counts,
        &replay,
    ));
    layers.extend(replay);
    layers.extend(counts.metrics());
    let fresh_walls: Vec<f64> = traced
        .samples
        .iter()
        .filter(|s| s.fresh)
        .filter_map(|s| s.reply.as_ref().ok().map(|r| r.wall_ms / 1e3))
        .collect();
    let jobs = crate::host_cpus() as f64;
    layers.extend([
        (
            "runner.simulated",
            (after.cache_misses - before.cache_misses) as f64,
        ),
        (
            "runner.cache_hits",
            (after.cache_hits - before.cache_hits) as f64,
        ),
        (
            "runner.spec_builds",
            (after.spec_builds - before.spec_builds) as f64,
        ),
        (
            "runner.point_s_max",
            fresh_walls.iter().cloned().fold(0.0, f64::max),
        ),
        (
            "runner.parallel_efficiency",
            fresh_walls.iter().sum::<f64>() / (jobs * traced.wall_s),
        ),
    ]);
    layers.push((
        "tracing.overhead_ratio",
        crate::overhead_ratio(&first.out, &traced.out),
    ));
    let mut traced_out = traced.out;
    if let Err(e) = b.shutdown() {
        traced_out.fail(e);
    }
    Outcome {
        setup_s,
        loops: vec![first.out, traced_out],
        layers,
        spans: Some(tracer),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tampered_served_digest_is_flagged() {
        assert!(check_digest("00000000000000ff", 0xff).is_ok());
        assert!(check_digest("00000000000000fe", 0xff).is_err());
        assert!(check_digest("ff", 0xff).is_err(), "unpadded digest passes");
    }

    #[test]
    fn key_seeds_never_collide() {
        let b = Bodies::new(crate::DEFAULT_SEED);
        let mut seen: std::collections::BTreeSet<String> = b.warm.iter().cloned().collect();
        for n in 0..500 {
            for c in 0..CONNECTIONS {
                let body = b.fresh(c, n);
                let seed = field(&body, "seed").unwrap().to_string();
                assert!(
                    seen.iter().all(|s| field(s, "seed").unwrap() != seed),
                    "{body} reuses a seed"
                );
                seen.insert(body);
            }
        }
    }

    #[test]
    fn minimal_field_extraction_reads_compact_json() {
        let frame = r#"RESULT {"digest":"00ab","from_cache":true,"wall_ms":1.5}"#;
        assert_eq!(field(frame, "digest"), Some("00ab"));
        assert_eq!(field(frame, "from_cache"), Some("true"));
        assert_eq!(field(frame, "wall_ms"), Some("1.5"));
        assert_eq!(field(frame, "nope"), None);
    }
}
