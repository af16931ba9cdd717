//! Round benchmark for the SPATL federated runtime.
//!
//! ```text
//! roundbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!            [--out-dir <dir>] [--inject flip-reference|drop-upload|phase-gap]
//! roundbench describe                 # workloads, metrics, per-layer map (JSON)
//! roundbench compare <a.json> <b.json>
//! ```
//!
//! One run builds its inputs from `--seed`, sets the workload up several
//! times (the median is `setup_s`), runs closed-loop rounds for
//! `--seconds`, checks the outputs, and prints a human-readable table then,
//! as the last line, one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). A failed output
//! check prints `"correct": false` and exits 1. Every run also writes a
//! report with the run metadata to the out directory (default
//! `.bench_out`); traced runs write their spans there too. `compare`
//! refuses two reports taken with different host CPU or thread counts.

mod metrics;
mod net;
mod replay;
mod sim;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Report schema version; bump when a metric's meaning changes.
const SCHEMA: u32 = 1;
/// Worker threads a run uses. The measured host has two CPUs; a pool as
/// wide as the host made every fork-join wait on whichever CPU a
/// neighbour held, and spread sim rounds 2–3× wider from run to run.
const THREADS: &str = "1";
/// Leading measured rounds left out of the time metrics.
const WARMUP_ROUNDS: usize = 1;
/// Bar for traced round phases summing to the round wall-clock.
pub const PHASE_SUM_TOLERANCE: f64 = 0.05;

/// A deliberate fault, for the self-tests that prove every output check
/// can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    None,
    /// Flip one bit of every reference the run is compared against: a
    /// digest, or one value an independent re-derivation gives.
    FlipReference,
    /// Drop (or corrupt) one sampled upload so it is not folded.
    DropUpload,
    /// Spend time inside traced rounds that no phase covers.
    PhaseGap,
}

/// Whether round `round` of a run is recorded with spans: every other
/// round of a traced run, so the untraced rounds between them give the
/// tracing overhead in the same run.
pub fn traced_round(trace: bool, round: usize) -> bool {
    trace && round.is_multiple_of(2)
}

/// [`Inject::PhaseGap`]: idle for half the time since `since`, outside
/// every phase span.
pub fn phase_gap(since: std::time::Instant) {
    std::thread::sleep(since.elapsed() / 2);
}

/// Parsed run options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub inject: Inject,
    pub out_dir: PathBuf,
}

/// One measured round.
#[derive(Debug, Clone, Copy)]
pub struct RoundSample {
    pub secs: f64,
    /// Whether this round was recorded with spans (even rounds of a
    /// traced run).
    pub traced: bool,
    pub sampled: usize,
    pub folded: usize,
    /// Peak RSS during the round, in MB: [`reset_peak_rss`] right before
    /// it, [`peak_rss_mb`] right after.
    pub peak_rss_mb: f64,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    pub rounds: Vec<RoundSample>,
    pub checks: Vec<Check>,
    /// Per-layer values (traced runs); every key must be a catalogue name.
    pub layers: BTreeMap<String, f64>,
    /// Extra human-readable figures: `(name, value, unit)`.
    pub extras: Vec<(String, f64, &'static str)>,
    /// Digest the run's state reached after its checked rounds.
    pub digest: String,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extras.push((name.to_string(), value, unit));
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check::new(name, ok, detail));
    }

    /// Rounds the time metrics use: after the warm-up round (workspaces
    /// and caches fill), traced or untraced as asked.
    pub fn timed(&self, traced: bool) -> Vec<RoundSample> {
        self.rounds
            .iter()
            .skip(WARMUP_ROUNDS)
            .copied()
            .filter(|r| r.traced == traced)
            .collect()
    }
}

/// Peak resident set of this process (`VmHWM`) since the last
/// [`reset_peak_rss`], in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart the peak-RSS count (`VmHWM`) from the current resident set, so a
/// later [`peak_rss_mb`] covers only what runs after this call.
pub fn reset_peak_rss() {
    // "5" resets the high-water mark (Linux 4.0+); where it is refused the
    // peak keeps covering set-up too.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A reference value with one bit flipped, for [`Inject::FlipReference`]:
/// bit 30 (the exponent's top bit) moves any value past every tolerance.
pub fn flip_bit(x: f32) -> f32 {
    f32::from_bits(x.to_bits() ^ (1 << 30))
}

/// Whether `got` equals a reference computed in another order of
/// operations: within two `f32` units in the last place of the larger of
/// the two and `scale` (the magnitude of the terms that were summed).
pub fn close(got: f32, want: f32, scale: f32) -> bool {
    let mag = got.abs().max(want.abs()).max(scale);
    (got - want).abs() <= 2.0 * f32::EPSILON * mag + f32::MIN_POSITIVE
}

/// FNV-1a 64 over a byte stream.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) -> &mut Fnv {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn floats(&mut self, v: &[f32]) -> &mut Fnv {
        self.bytes(&(v.len() as u64).to_le_bytes());
        for x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Bit-level digest of a global state.
pub fn global_digest(g: &spatl_fl::GlobalState) -> u64 {
    Fnv::default()
        .floats(&g.shared)
        .floats(&g.control)
        .floats(&g.momentum)
        .floats(&g.buffers)
        .finish()
}

/// Digest of a sequence of round records (their `Debug` text carries every
/// float with round-trip precision).
pub fn records_digest(records: &[spatl_fl::RoundRecord]) -> u64 {
    let mut h = Fnv::default();
    for r in records {
        h.bytes(format!("{r:?}").as_bytes());
    }
    h.finish()
}

/// Compare a run digest against its reference, honouring
/// [`Inject::FlipReference`].
pub fn digest_check(name: &'static str, got: u64, mut reference: u64, inject: Inject) -> Check {
    if inject == Inject::FlipReference {
        reference ^= 1;
    }
    Check::new(
        name,
        got == reference,
        format!("{got:016x} vs reference {reference:016x}"),
    )
}

fn arg<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let need = |name: &str| arg(args, name).ok_or_else(|| format!("missing {name}"));
    let workload = need("--workload")?.to_string();
    if !metrics::WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = need("--seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number".to_string())?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match arg(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let inject = match arg(args, "--inject").unwrap_or("none") {
        "none" => Inject::None,
        "flip-reference" => Inject::FlipReference,
        "drop-upload" => Inject::DropUpload,
        "phase-gap" => Inject::PhaseGap,
        other => return Err(format!("unknown --inject {other:?}")),
    };
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        inject,
        out_dir: PathBuf::from(arg(args, "--out-dir").unwrap_or(".bench_out")),
    })
}

/// The commit the checkout came from, when it is a git checkout.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// `(steal, total)` CPU ticks of the host so far, from `/proc/stat`.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// JSON text of a finite number (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Uploads folded per second of round wall-clock over all timed rounds:
/// the whole run's throughput, which spreads less from run to run than a
/// median of shorter windows when host interference comes in stretches.
fn upload_rate(rounds: &[RoundSample]) -> f64 {
    let folded: usize = rounds.iter().map(|r| r.folded).sum();
    folded as f64 / rounds.iter().map(|r| r.secs).sum::<f64>().max(1e-12)
}

/// The end-to-end metrics of a run, in catalogue order.
fn end_to_end(o: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let rounds = o.timed(false);
    let secs: Vec<f64> = rounds.iter().map(|r| r.secs).collect();
    let peaks: Vec<f64> = rounds.iter().map(|r| r.peak_rss_mb).collect();
    let values = [
        trace::median(&o.setup_s),
        trace::median(&secs),
        upload_rate(&rounds),
        trace::median(&peaks),
    ];
    metrics::END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect()
}

fn run(opts: &Opts) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "sim_spatl_r20" => Ok(sim::run(opts)),
        "net_dense_r20" => net::run(opts),
        "agg_robust_r20" => Ok(replay::run_agg(opts)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn bench(opts: &Opts) -> Result<bool, String> {
    trace::set_enabled(false);
    let (steal0, total0) = cpu_ticks();
    let mut o = run(opts)?;
    let (steal1, total1) = cpu_ticks();
    // Share of the host's CPU time its hypervisor withheld during the run:
    // a noisy-neighbour gauge for reading the timings.
    let steal = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
    let attempted: usize = o.rounds.iter().map(|r| r.sampled).sum();
    let failed: usize = o
        .rounds
        .iter()
        .map(|r| r.sampled - r.folded.min(r.sampled))
        .sum();
    o.check(
        "every sampled upload folded",
        failed == 0,
        format!("{failed} of {attempted} sampled uploads not folded"),
    );
    let correct = o.checks.iter().all(|c| c.ok);

    let threads = rayon::current_num_threads();
    let kernel = spatl_tensor::active_kernel();
    let commit = git_commit();
    let e2e = end_to_end(&o);
    let catalogue = metrics::layers();
    for name in o.layers.keys() {
        assert!(
            catalogue.iter().any(|l| &l.name == name),
            "workload set unknown per-layer metric {name}"
        );
    }
    let layer_values: Vec<(String, f64, &'static str)> = catalogue
        .iter()
        .map(|l| {
            (
                l.name.clone(),
                o.layers.get(&l.name).copied().unwrap_or(0.0),
                l.unit,
            )
        })
        .collect();

    // Human-readable table.
    println!(
        "# roundbench {} seed={} seconds={} trace={} schema={SCHEMA}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );
    println!(
        "# host_cpus={} threads={threads} kernel={kernel} commit={commit} host_steal={:.2}%",
        host_cpus(),
        100.0 * steal
    );
    let secs: Vec<f64> = o.timed(false).iter().map(|r| r.secs).collect();
    println!(
        "rounds: {} measured ({} untraced after {WARMUP_ROUNDS} warm-up), setups: {}",
        o.rounds.len(),
        secs.len(),
        o.setup_s.len()
    );
    for (name, v, unit) in &e2e {
        println!("{name:<32} {v:>14.6} {unit}");
    }
    if secs.len() >= 100 {
        println!(
            "{:<32} {:>14.6} s (n={})",
            "round_s_p90",
            trace::quantile(&secs, 0.9),
            secs.len()
        );
    } else {
        println!(
            "{:<32} {:>14} (n={} < 100: fewer than ten rounds beyond p90)",
            "round_s_p90",
            "-",
            secs.len()
        );
    }
    println!(
        "{:<32} {:>14.6} ratio ({failed}/{attempted})",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64
    );
    for (name, v, unit) in &o.extras {
        println!("{name:<32} {v:>14.6} {unit}");
    }
    if opts.trace {
        println!("-- per-layer (traced rounds) --");
        for (name, v, unit) in &layer_values {
            println!("{name:<48} {v:>14.6} {unit}");
        }
        println!(
            "tracing overhead: {:+.6} s per round (traced p50 {:.6} s - untraced p50 {:.6} s)",
            o.layers.get("trace.overhead_s").copied().unwrap_or(0.0),
            o.layers.get("round.traced_p50_s").copied().unwrap_or(0.0),
            o.layers.get("round.untraced_p50_s").copied().unwrap_or(0.0),
        );
    }
    println!("digest: {}", o.digest);
    for c in &o.checks {
        println!(
            "check {}: {} ({})",
            if c.ok { "ok  " } else { "FAIL" },
            c.name,
            c.detail
        );
    }

    // Report file with the run metadata, for `compare`.
    let metrics_json = |vals: &[(String, f64, &'static str)]| {
        vals.iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(n),
                    num(*v),
                    json_str(u)
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let e2e_owned: Vec<(String, f64, &'static str)> = e2e
        .iter()
        .map(|(n, v, u)| (n.to_string(), *v, *u))
        .collect();
    let checks = o
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                json_str(c.name),
                c.ok,
                json_str(&c.detail)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let report = format!(
        "{{\"schema\": {SCHEMA}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_cpus\": {}, \"threads\": {threads}, \"kernel\": {}, \"commit\": {}, \"host_steal_frac\": {}, \
         \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"rounds\": {}, \
         \"round_secs\": [{}], \"setup_secs\": [{}], \"digest\": {}, \"end_to_end\": {{{}}}, \
         \"per_layer\": {{{}}}, \"extras\": {{{}}}, \"checks\": [{checks}]}}\n",
        json_str(&opts.workload),
        opts.seed,
        num(opts.seconds),
        opts.trace as u8,
        host_cpus(),
        json_str(kernel),
        json_str(&commit),
        num(steal),
        o.rounds.len(),
        o.rounds.iter().map(|r| num(r.secs)).collect::<Vec<_>>().join(", "),
        o.setup_s.iter().map(|v| num(*v)).collect::<Vec<_>>().join(", "),
        json_str(&o.digest),
        metrics_json(&e2e_owned),
        metrics_json(&layer_values),
        metrics_json(&o.extras),
    );
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| format!("create out dir: {e}"))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload, opts.seed, opts.trace as u8
    );
    let report_path = opts.out_dir.join(format!("report-{stem}.json"));
    std::fs::write(&report_path, report).map_err(|e| format!("write report: {e}"))?;
    if opts.trace {
        let spans = trace::take_all();
        trace::write_jsonl(&spans, &opts.out_dir.join(format!("spans-{stem}.jsonl")))
            .map_err(|e| format!("write spans: {e}"))?;
    }
    println!("report: {}", report_path.display());

    // Last line: the machine-readable result.
    let result_metrics = if opts.trace { layer_values } else { e2e_owned };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics_json(&result_metrics)
    );
    Ok(correct)
}

fn load_report(path: &str) -> Result<serde::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn field<'a>(v: &'a serde::Value, key: &str) -> Option<&'a serde::Value> {
    match v {
        serde::Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_f64(v: Option<&serde::Value>) -> Option<f64> {
    match v? {
        serde::Value::Int(i) => Some(*i as f64),
        serde::Value::UInt(u) => Some(*u as f64),
        serde::Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Compare two reports like for like: refuse different hosts, thread
/// counts, workloads or schemas; otherwise print each metric's change.
fn compare(a_path: &str, b_path: &str) -> Result<(), String> {
    let a = load_report(a_path)?;
    let b = load_report(b_path)?;
    for key in ["schema", "workload", "host_cpus", "threads", "trace"] {
        let (x, y) = (field(&a, key), field(&b, key));
        if x != y {
            return Err(format!(
                "reports are not like for like: {key} differs ({x:?} vs {y:?})"
            ));
        }
    }
    for section in ["end_to_end", "per_layer"] {
        let (Some(serde::Value::Map(xs)), Some(ys)) = (field(&a, section), field(&b, section))
        else {
            continue;
        };
        println!("-- {section} --");
        for (name, xv) in xs {
            let x = as_f64(field(xv, "value")).unwrap_or(0.0);
            let y = as_f64(field(ys, name).and_then(|v| field(v, "value"))).unwrap_or(0.0);
            let change = if x != 0.0 {
                (y - x) / x.abs() * 100.0
            } else {
                0.0
            };
            println!("{name:<48} {x:>14.6} {y:>14.6} {change:>+8.2}%");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    // The workloads are defined on a one-thread pool: pin it before any
    // parallel call, whatever the environment says.
    std::env::set_var("SPATL_THREADS", THREADS);
    let args: Vec<String> = std::env::args().collect();
    let result = match args.get(1).map(String::as_str) {
        Some("describe") => {
            print!("{}", metrics::describe());
            Ok(true)
        }
        Some("compare") => match (args.get(2), args.get(3)) {
            (Some(a), Some(b)) => compare(a, b).map(|_| true),
            _ => Err("usage: roundbench compare <a.json> <b.json>".into()),
        },
        _ if arg(&args, "--role") == Some("gen") => net::generator(&args).map(|_| true),
        _ => parse_opts(&args).and_then(|o| bench(&o)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("roundbench: {e}");
            ExitCode::from(2)
        }
    }
}
