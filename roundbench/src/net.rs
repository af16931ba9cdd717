//! `net_dense_r20`: the real `Coordinator` over loopback TCP.
//!
//! The benchmark process is the coordinator (its peak RSS is the
//! coordinator's own). It starts a generator child process — this binary
//! with `--role gen` — that holds two client connections on one thread
//! and, every round, reads both assignments, replays two distinct
//! pre-encoded dense uploads, and answers the evaluation pass. Nothing is
//! trained. In a traced run the generator timestamps its side of each
//! traced round and reports the spans when the session ends; the
//! in-process decode, fold, finish and encode of the same frames are
//! timed afterwards on a shadow `RoundDriver` over the first
//! `CHECK_ROUNDS` rounds, which also gives the reference the broadcast
//! after those rounds must match bit for bit. Each of those rounds is also
//! re-derived at sampled coordinates from the generator's formulas, apart
//! from the program's decode and fold.

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use spatl_fl::{FlConfig, GlobalState, LocalOutcome, RoundDriver};
use spatl_net::{
    session_fingerprint, Coordinator, CoordinatorConfig, Hello, HelloRole, Join, RoundAssign,
    RoundDone, RoundMode,
};
use spatl_wire::{open, read_frame, seal, write_frame, MsgType, HEADER_LEN, MAX_FRAME_PAYLOAD};

use crate::replay::{dense_config, dense_global, fedavg_mismatches, make_pool, Upload};
use crate::{Fnv, Inject, Opts, Outcome, RoundSample};

/// Client connections the generator holds.
const CLIENTS: usize = 2;
/// Distinct uploads the generator replays.
const POOL: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Phases of a generated round: eval-turnaround, assignment receive,
/// upload send, turnaround, eval receive, eval send.
const PHASES: usize = 6;
/// Rounds whose result is checked bit for bit against the in-process
/// fold (every later round runs the same code path on the same kind of
/// upload, and re-folding them all would double the run).
const CHECK_ROUNDS: usize = 32;

/// The pool upload client `id` replays in `round`.
fn slot(round: usize, id: usize) -> usize {
    (CLIENTS * round + id) % POOL
}

/// Hash of a broadcast's sealed frames.
fn frames_hash(frames: &[Vec<u8>]) -> u64 {
    let mut h = Fnv::default();
    for f in frames {
        h.bytes(&(f.len() as u64).to_le_bytes()).bytes(f);
    }
    h.finish()
}

/// Kills and reaps the generator if the run bails out early.
struct Generator {
    child: Child,
    stdout: Option<ChildStdout>,
}

impl Generator {
    /// Read the generator's report line, then wait for it to exit.
    fn finish(mut self) -> Result<String, String> {
        let stdout = self.stdout.take().ok_or("generator stdout taken")?;
        let mut report = String::new();
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("read generator: {e}"))?;
            if let Some(body) = line.strip_prefix("GEN ") {
                report = body.to_string();
            }
        }
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait generator: {e}"))?;
        if !status.success() {
            return Err(format!("generator exited with {status}"));
        }
        Ok(report)
    }
}

impl Drop for Generator {
    fn drop(&mut self) {
        if self.stdout.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn coordinator_options() -> CoordinatorConfig {
    CoordinatorConfig {
        addr: "127.0.0.1:0".into(),
        join_timeout: Duration::from_secs(60),
        round_timeout: Duration::from_secs(60),
        io_timeout: Duration::from_secs(60),
        decode_workers: Some(CLIENTS),
        ..CoordinatorConfig::default()
    }
}

/// Bind a coordinator, start the generator, complete the handshake.
fn setup(opts: &Opts, cfg: FlConfig) -> Result<(Coordinator, Generator), String> {
    let driver = RoundDriver::new(cfg, dense_global(opts.seed), None);
    let mut coord =
        Coordinator::bind(driver, coordinator_options()).map_err(|e| format!("bind: {e}"))?;
    let addr = coord.local_addr().map_err(|e| format!("local addr: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let inject = match opts.inject {
        Inject::DropUpload => "drop-upload",
        _ => "none",
    };
    let mut child = Command::new(exe)
        .args(["--role", "gen", "--addr", &addr.to_string()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .args(["--inject", inject])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn generator: {e}"))?;
    let stdout = child.stdout.take();
    let gen = Generator { child, stdout };
    let joined = coord.wait_for_clients();
    if joined != CLIENTS {
        return Err(format!(
            "only {joined} of {CLIENTS} generator connections joined"
        ));
    }
    Ok((coord, gen))
}

/// Per-round shadow timings in seconds.
#[derive(Clone, Copy)]
struct Shadow {
    /// Sum of the decode calls' own times.
    decode_calls: f64,
    /// Wall-clock of the round's decodes, one thread per upload as the
    /// coordinator's decode workers run them.
    decode_wall: f64,
    fold: f64,
    finish: f64,
    encode: f64,
}
/// A traced round as the generator reports it: round index and phase
/// seconds.
type GenRound = (usize, [f64; PHASES]);

/// Fold the same uploads through an in-process `RoundDriver`; returns the
/// final broadcast hash, the final global, and per-round timings.
fn shadow_fold(cfg: FlConfig, seed: u64, rounds: usize) -> (u64, GlobalState, Vec<Shadow>) {
    let global = dense_global(seed);
    let pool = make_pool(&cfg, &global, seed, POOL);
    let mut driver = RoundDriver::new(cfg, global, None);
    let mut times = Vec::with_capacity(rounds);
    let mut hash = 0;
    for round in 0..rounds {
        let sampled = driver.sample_round();
        let mut faults = spatl_fl::FaultRecord::for_sample(sampled.len());
        let mut acc = driver.begin_accumulation();
        let t = Instant::now();
        // One thread per upload, as the coordinator's decode workers.
        let decoded: Vec<(LocalOutcome, f64)> = std::thread::scope(|s| {
            let driver = &driver;
            let workers: Vec<_> = sampled
                .iter()
                .map(|&id| {
                    let up: &Upload = &pool[slot(round, id)];
                    s.spawn(move || {
                        let t = Instant::now();
                        let d = driver
                            .decode_client_upload(&up.meta_for(id), &up.frames)
                            .expect("replayed upload must decode");
                        (d, t.elapsed().as_secs_f64())
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("decode thread"))
                .collect()
        });
        let decode_wall = t.elapsed().as_secs_f64();
        let (mut decode_calls, mut fold) = (0.0, 0.0);
        for (d, secs) in decoded {
            decode_calls += secs;
            let t = Instant::now();
            acc.fold(d);
            fold += t.elapsed().as_secs_f64();
        }
        let t = Instant::now();
        driver.finish_accumulation(acc, &mut faults);
        let finish = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let down = driver.broadcast();
        let encode = t.elapsed().as_secs_f64();
        hash = frames_hash(&down.frames);
        driver.finish_round(&[], Default::default(), Vec::new(), faults);
        times.push(Shadow {
            decode_calls,
            decode_wall,
            fold,
            finish,
            encode,
        });
    }
    (hash, driver.global, times)
}

/// Run `net_dense_r20`.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cfg = dense_config(CLIENTS, opts.seed);
    let mut session = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let (mut coord, gen) = setup(opts, cfg)?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            coord.finish().map_err(|e| format!("finish: {e}"))?;
            gen.finish()?;
        } else {
            session = Some((coord, gen));
        }
    }
    let (mut coord, gen) = session.expect("measured session");

    let start = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    // The coordinator's global after the checked rounds (a clone between
    // rounds; the digest waits until the timing is over).
    let mut checked = None;
    let initial = coord.driver.global.clone();
    let mut mismatches = 0usize;
    loop {
        let round = coord.driver.round_index();
        let before = (round < CHECK_ROUNDS).then(|| coord.driver.global.clone());
        crate::reset_peak_rss();
        let t = Instant::now();
        let rec = coord.run_round();
        let secs = t.elapsed().as_secs_f64();
        let peak_rss_mb = crate::peak_rss_mb();
        if let Some(before) = before {
            let uploads: Vec<usize> = (0..CLIENTS).map(|id| slot(round, id)).collect();
            let flip = opts.inject == Inject::FlipReference && round == 0;
            mismatches += fedavg_mismatches(
                opts.seed,
                &before,
                &coord.driver.global,
                &initial,
                &uploads,
                flip,
            );
        }
        if round + 1 == CHECK_ROUNDS {
            checked = Some(coord.driver.global.clone());
        }
        out.rounds.push(RoundSample {
            secs,
            traced: crate::traced_round(opts.trace, round),
            sampled: rec.faults.sampled,
            folded: rec.faults.survivors,
            peak_rss_mb,
        });
        if opts.inject == Inject::PhaseGap && !crate::traced_round(true, round) {
            crate::phase_gap(t);
        }
        if out.rounds.len() >= 4 && start.elapsed() >= budget {
            break;
        }
    }
    coord.finish().map_err(|e| format!("finish: {e}"))?;
    let report = gen.finish()?;
    let (checked_hash, gen_rounds) = parse_generator(&report)?;

    let rounds = out.rounds.len().min(CHECK_ROUNDS);
    let coord_global = checked.as_ref().unwrap_or(&coord.driver.global);
    let coord_digest = crate::global_digest(coord_global);
    let (shadow_hash, shadow_global, shadow) = shadow_fold(cfg, opts.seed, rounds);
    out.digest = format!("{shadow_hash:016x}@{rounds}");
    out.checks.push(crate::digest_check(
        "broadcast after the checked rounds matches an in-process RoundDriver fold",
        checked_hash,
        shadow_hash,
        opts.inject,
    ));
    out.checks.push(crate::digest_check(
        "coordinator global bits match the in-process fold",
        coord_digest,
        crate::global_digest(&shadow_global),
        opts.inject,
    ));
    out.check(
        "sample-weighted mean matches an independent re-derivation",
        mismatches == 0,
        format!("{mismatches} mismatching coordinates over the first {rounds} rounds"),
    );

    if opts.trace {
        trace_metrics(&mut out, &gen_rounds, &shadow, cfg);
    }
    Ok(out)
}

/// `(checked eval-broadcast hash, [(round, phase seconds…)])`.
fn parse_generator(report: &str) -> Result<(u64, Vec<GenRound>), String> {
    let mut fields = report.split_whitespace();
    let hash = fields
        .next()
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or("generator reported no broadcast hash")?;
    let mut rounds = Vec::new();
    for rec in fields {
        let v: Vec<&str> = rec.split(',').collect();
        if v.len() != PHASES + 1 {
            return Err(format!("bad generator round record {rec:?}"));
        }
        let round = v[0].parse().map_err(|_| "bad round index")?;
        let mut phases = [0.0; PHASES];
        for (slot, s) in phases.iter_mut().zip(&v[1..]) {
            *slot = s.parse().map_err(|_| "bad phase seconds")?;
        }
        rounds.push((round, phases));
    }
    Ok((hash, rounds))
}

fn trace_metrics(out: &mut Outcome, gen: &[GenRound], shadow: &[Shadow], cfg: FlConfig) {
    // Round 0's eval-turnaround starts at the handshake: skip it.
    let gen: Vec<&GenRound> = gen.iter().filter(|(r, _)| *r > 0).collect();
    // The shadow fold times the checked rounds only; every round does the
    // same in-process work, so their mean stands for all of them.
    let shadow_mean = |f: &dyn Fn(&Shadow) -> f64| {
        shadow.iter().skip(1).map(f).sum::<f64>() / (shadow.len().max(2) - 1) as f64
    };
    let in_process = shadow_mean(&|s| s.decode_wall + s.fold + s.finish + s.encode);
    let n = gen.len().max(1) as f64;
    let mean = |i: usize| gen.iter().map(|(_, p)| p[i]).sum::<f64>() / n;
    out.set("net.eval_turnaround_s", mean(0));
    out.set("net.assign_recv_s", mean(1) + mean(4));
    out.set("net.upload_send_s", mean(2));
    out.set("net.turnaround_s", mean(3));
    out.set("net.eval_send_s", mean(5));
    out.set("net.unattributed_s", mean(3) - in_process);

    // The generator's phases tile its own side of each round, so their sum
    // is the generator's round interval; the check compares it with the
    // coordinator's wall-clock of the same rounds, which catches time the
    // coordinator spends outside the rounds the generator sees. Time
    // inside the coordinator's round is split by `net.unattributed_s`,
    // which is reported, not checked: loopback transfer, framing and
    // overlap with the generator's sends live there.
    let window: f64 = gen.iter().map(|(_, p)| p.iter().sum::<f64>()).sum();
    let wall: f64 = gen.iter().map(|(r, _)| out.rounds[*r].secs).sum();
    let frac = 1.0 - window / wall.max(1e-12);
    out.check(
        "generator round phases sum to the coordinator round wall-clock within 5%",
        frac.abs() <= crate::PHASE_SUM_TOLERANCE,
        format!(
            "generator phases {window:.4} s vs coordinator rounds {wall:.4} s over {} traced rounds",
            gen.len()
        ),
    );
    out.set("fl.round_unattributed_frac", frac);

    let decode = shadow_mean(&|s| s.decode_calls);
    let fold = shadow_mean(&|s| s.fold);
    out.set("wire.upload_decode_s", decode / CLIENTS as f64);
    out.set("fl.fold_s", fold);
    out.set("fl.finish_s", shadow_mean(&|s| s.finish));
    out.set("wire.broadcast_encode_s", shadow_mean(&|s| s.encode));

    let global = dense_global(cfg.seed);
    let pool = make_pool(&cfg, &global, cfg.seed, 1);
    let upload = pool[0].meta.wire.upload_framed as f64;
    let broadcast = spatl_fl::encode_download(&cfg, &global).framed() as f64;
    let uploads = CLIENTS as f64;
    out.set("wire.upload_bytes", upload);
    out.set("wire.broadcast_bytes", broadcast);
    out.set(
        "wire.upload_decode_mb_per_s",
        upload * uploads / decode.max(1e-12) / 1e6,
    );
    out.set(
        "fl.fold_mcoords_per_s",
        global.shared.len() as f64 * uploads / fold.max(1e-12) / 1e6,
    );
    crate::replay::overhead_metrics(out);
}

// ---------------------------------------------------------------------------
// Generator process
// ---------------------------------------------------------------------------

fn read_one(s: &mut TcpStream) -> Result<Vec<u8>, String> {
    read_frame(s, MAX_FRAME_PAYLOAD)
        .map_err(|e| format!("generator read: {e}"))?
        .ok_or_else(|| "generator read: connection closed".to_string())
}

/// Read an assignment header; `None` on a shutdown.
fn read_header(s: &mut TcpStream) -> Result<Option<RoundAssign>, String> {
    let frame = read_one(s)?;
    let (msg, payload) = open(&frame).map_err(|e| format!("open: {e}"))?;
    match msg {
        MsgType::Shutdown => Ok(None),
        MsgType::RoundAssign => RoundAssign::decode(payload)
            .map(Some)
            .map_err(|e| format!("decode assignment: {e}")),
        other => Err(format!("unexpected {other:?}")),
    }
}

fn read_frames(s: &mut TcpStream, n: u32) -> Result<Vec<Vec<u8>>, String> {
    (0..n).map(|_| read_one(s)).collect()
}

fn send(s: &mut TcpStream, frame: &[u8]) -> Result<(), String> {
    write_frame(s, frame).map_err(|e| format!("generator write: {e}"))
}

fn done_for(round: u32, mode: RoundMode, id: usize, up: Option<&Upload>) -> RoundDone {
    let meta = up.map(|u| &u.meta);
    RoundDone {
        round,
        mode,
        client_id: id as u32,
        n_samples: meta.map_or(0, |m| m.n_samples as u64),
        tau: meta.map_or(0, |m| m.tau as u64),
        diverged: false,
        keep_ratio: meta.map_or(0.0, |m| m.keep_ratio),
        flops_ratio: meta.map_or(0.0, |m| m.flops_ratio),
        accuracy: if up.is_some() { 0.0 } else { 0.5 },
        bytes_download: meta.map_or(0, |m| m.bytes.download),
        bytes_upload: meta.map_or(0, |m| m.bytes.upload),
        upload_payload: meta.map_or(0, |m| m.wire.upload_payload),
        upload_framed: meta.map_or(0, |m| m.wire.upload_framed),
        n_frames: up.map_or(0, |u| u.frames.len() as u32),
    }
}

/// The generator role: two client connections on one thread, replaying
/// uploads until the coordinator shuts the session down. Prints
/// `GEN <checked-broadcast-hash> <round,phase…>…` on exit.
pub fn generator(args: &[String]) -> Result<(), String> {
    let get = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("generator: missing {name}"))
    };
    let addr = get("--addr")?.clone();
    let seed: u64 = get("--seed")?
        .parse()
        .map_err(|_| "generator: bad --seed")?;
    let trace = get("--trace")? == "1";
    let drop_upload = get("--inject")? == "drop-upload";

    let cfg = dense_config(CLIENTS, seed);
    let global = dense_global(seed);
    let mut pool = make_pool(&cfg, &global, seed, POOL);
    if drop_upload {
        // Corrupt one upload's payload: the CRC rejects it, so the round
        // that replays it loses one survivor.
        let frame = &mut pool[slot(1, 1)].frames[0];
        frame[HEADER_LEN + 8] ^= 0x10;
    }
    let fingerprint = session_fingerprint(&cfg);
    let mut conns = Vec::with_capacity(CLIENTS);
    for id in 0..CLIENTS {
        let mut s = TcpStream::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        let hello = Hello {
            client_id: id as u32,
            fingerprint,
            role: HelloRole::Client,
        };
        send(&mut s, &seal(MsgType::Hello, &hello.encode()))?;
        let frame = read_one(&mut s)?;
        let (msg, payload) = open(&frame).map_err(|e| format!("open join: {e}"))?;
        let joined = msg == MsgType::Join
            && Join::decode(payload)
                .map_err(|e| format!("join: {e}"))?
                .accepted;
        if !joined {
            return Err("generator registration rejected".into());
        }
        conns.push(s);
    }

    // Eval broadcast after the checked rounds; hashed once the session
    // is over, so the check costs the measured rounds nothing.
    let mut checked_eval: Vec<Vec<u8>> = Vec::new();
    let mut records = Vec::new();
    let mut prev_end = Instant::now();
    'session: loop {
        // Train assignments, both connections, before any upload: the
        // coordinator broadcasts ascending with blocking writes.
        let mut round = 0u32;
        let mut t_header = prev_end;
        for (id, s) in conns.iter_mut().enumerate() {
            let Some(a) = read_header(s)? else {
                break 'session;
            };
            if id == 0 {
                t_header = Instant::now();
                round = a.round;
            }
            if a.mode != RoundMode::Train {
                return Err("expected a train assignment".into());
            }
            read_frames(s, a.n_frames)?;
        }
        let t_recv = Instant::now();
        for (id, s) in conns.iter_mut().enumerate() {
            let up = &pool[slot(round as usize, id)];
            send(
                s,
                &seal(
                    MsgType::RoundDone,
                    &done_for(round, RoundMode::Train, id, Some(up)).encode(),
                ),
            )?;
            for f in &up.frames {
                send(s, f)?;
            }
        }
        let t_sent = Instant::now();
        let mut t_eval_header = t_sent;
        for (id, s) in conns.iter_mut().enumerate() {
            let a = read_header(s)?.ok_or("shutdown mid-round")?;
            if id == 0 {
                t_eval_header = Instant::now();
            }
            if a.mode != RoundMode::Eval {
                return Err("expected an eval assignment".into());
            }
            let frames = read_frames(s, a.n_frames)?;
            if id == 0 && (round as usize) < CHECK_ROUNDS {
                checked_eval = frames;
            }
        }
        let t_eval_recv = Instant::now();
        for (id, s) in conns.iter_mut().enumerate() {
            send(
                s,
                &seal(
                    MsgType::RoundDone,
                    &done_for(round, RoundMode::Eval, id, None).encode(),
                ),
            )?;
        }
        let t_end = Instant::now();
        if crate::traced_round(trace, round as usize) {
            let d = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
            records.push(format!(
                "{round},{},{},{},{},{},{}",
                d(prev_end, t_header),
                d(t_header, t_recv),
                d(t_recv, t_sent),
                d(t_sent, t_eval_header),
                d(t_eval_header, t_eval_recv),
                d(t_eval_recv, t_end)
            ));
        }
        prev_end = t_end;
    }
    let mut stdout = std::io::stdout().lock();
    writeln!(
        stdout,
        "GEN {:016x} {}",
        frames_hash(&checked_eval),
        records.join(" ")
    )
    .map_err(|e| format!("generator report: {e}"))?;
    Ok(())
}
