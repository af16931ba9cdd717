//! Replayed dense uploads, and the `agg_robust_r20` workload.
//!
//! A replay pool holds distinct, pre-encoded dense FedAvg uploads of the
//! full-width ResNet-20 parameter vector (273,258 shared parameters plus
//! batch-norm buffers). Every delta coordinate is a pure function of
//! `(seed, upload, coordinate)`, so a check can recompute any value
//! without keeping the pool's tensors.

use std::time::{Duration, Instant};

use spatl_fl::{
    encode_upload, AggregatorKind, Algorithm, CommModel, FaultRecord, FlConfig, GlobalState,
    LocalOutcome, RoundDriver, RoundRecord, ScreenPolicy, TransportStats, WireBytes,
};
use spatl_models::{ModelConfig, ModelKind};

use crate::trace::{self, span, timed, PhaseTable};
use crate::{Inject, Opts, Outcome, RoundSample};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Cohort of the robust-aggregation workload.
const COHORT: usize = 32;
/// Distinct uploads in its pool; cohorts rotate through them.
const AGG_POOL: usize = 48;
/// Coordinates (and buffer entries) whose aggregate a round re-derives
/// independently of the program.
const PROBES: usize = 256;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(seed: u64, upload: usize, j: usize, lane: u64) -> f32 {
    let h = splitmix(seed ^ splitmix((upload as u64) << 32 ^ j as u64 ^ lane << 60));
    (h >> 40) as f32 / (1u64 << 24) as f32 - 0.5
}

/// Delta coordinate `j` of pool upload `k`.
pub fn delta_at(seed: u64, k: usize, j: usize) -> f32 {
    2e-3 * unit(seed, k, j, 1)
}

/// Batch-norm buffer coordinate `j` of pool upload `k`.
pub fn buffer_at(seed: u64, global: &GlobalState, k: usize, j: usize) -> f32 {
    global.buffers[j] + 2e-2 * unit(seed, k, j, 2)
}

/// The initial global state of the replay workloads: full-width ResNet-20.
pub fn dense_global(seed: u64) -> GlobalState {
    let model = ModelConfig::cifar(ModelKind::ResNet20)
        .with_width(1.0)
        .with_seed(seed)
        .build();
    GlobalState::from_model(&model, &Algorithm::FedAvg)
}

/// A dense FedAvg session configuration.
pub fn dense_config(n_clients: usize, seed: u64) -> FlConfig {
    let mut cfg = FlConfig::new(Algorithm::FedAvg);
    cfg.n_clients = n_clients;
    cfg.sample_ratio = 1.0;
    cfg.rounds = usize::MAX;
    cfg.seed = seed;
    cfg
}

/// One pre-encoded upload: the bookkeeping half a transport carries in
/// its header (tensors empty) and the sealed frames.
pub struct Upload {
    pub meta: LocalOutcome,
    pub frames: Vec<Vec<u8>>,
}

impl Upload {
    /// The header as client `id` would send it.
    pub fn meta_for(&self, id: usize) -> LocalOutcome {
        let mut m = self.meta.clone();
        m.client_id = id;
        m
    }
}

/// Local sample count (the FedAvg weight) of pool upload `k`.
pub fn samples_of(seed: u64, k: usize) -> usize {
    16 + (splitmix(seed ^ k as u64) % 48) as usize
}

/// Generate and encode `n` distinct uploads.
pub fn make_pool(cfg: &FlConfig, global: &GlobalState, seed: u64, n: usize) -> Vec<Upload> {
    let p = global.shared.len();
    (0..n)
        .map(|k| {
            let n_samples = samples_of(seed, k);
            let mut o = LocalOutcome {
                client_id: 0,
                n_samples,
                tau: n_samples.div_ceil(16),
                delta: (0..p).map(|j| delta_at(seed, k, j)).collect(),
                selected: None,
                compressed: None,
                control_delta: None,
                velocity: None,
                buffers: (0..global.buffers.len())
                    .map(|j| buffer_at(seed, global, k, j))
                    .collect(),
                diverged: false,
                masked: None,
                fixed: None,
                bytes: CommModel::dense(p),
                wire: WireBytes::default(),
                frames: Vec::new(),
                keep_ratio: 1.0,
                flops_ratio: 1.0,
            };
            let enc = encode_upload(cfg, global, &o, 0);
            o.wire.upload_payload = enc.payload;
            o.wire.upload_framed = enc.framed();
            o.delta = Vec::new();
            o.buffers = Vec::new();
            Upload {
                meta: o,
                frames: enc.frames,
            }
        })
        .collect()
}

/// The pool upload client `id` replays in `round` of the robust workload.
fn agg_slot(round: usize, id: usize) -> usize {
    (id + 7 * round) % AGG_POOL
}

fn agg_config(seed: u64) -> FlConfig {
    let mut cfg = dense_config(COHORT, seed);
    cfg.screen = Some(ScreenPolicy::default());
    cfg.aggregator = AggregatorKind::CoordinateMedian;
    cfg
}

struct AggRound {
    record: RoundRecord,
    coords: u64,
    bytes: u64,
}

/// One in-process round: sample, decode and fold every replayed upload,
/// screen and take the coordinate median, record.
fn agg_round(driver: &mut RoundDriver, pool: &[Upload], inject: Inject) -> AggRound {
    let round = driver.round_index();
    let root = span("round", round);
    let started = Instant::now();
    let sampled = timed("fl.sample", round, || driver.sample_round());
    let mut faults = FaultRecord::for_sample(sampled.len());
    let mut acc = timed("fl.begin", round, || driver.begin_accumulation());
    let mut metas = Vec::with_capacity(sampled.len());
    let (mut coords, mut bytes) = (0u64, 0u64);
    for (k, &id) in sampled.iter().enumerate() {
        let up = &pool[agg_slot(round, id)];
        let meta = up.meta_for(id);
        let decoded = timed("wire.upload_decode", round, || {
            driver.decode_client_upload(&meta, &up.frames)
        })
        .expect("replayed upload must decode");
        bytes += meta.wire.upload_framed;
        if !(inject == Inject::DropUpload && round == 0 && k == 0) {
            coords += decoded.delta.len() as u64;
            timed("fl.fold", round, || acc.fold(decoded));
        }
        metas.push(meta);
    }
    timed("fl.finish", round, || {
        driver.finish_accumulation(acc, &mut faults)
    });
    let record = timed("fl.finish_round", round, || {
        driver.finish_round(&metas, TransportStats::default(), Vec::new(), faults)
    });
    if inject == Inject::PhaseGap {
        crate::phase_gap(started);
    }
    drop(root);
    AggRound {
        record,
        coords,
        bytes,
    }
}

fn median_f32(xs: &mut [f32]) -> f32 {
    xs.sort_unstable_by(f32::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Re-derive the coordinate median at evenly spaced coordinates from the
/// generator, independently of the program; returns mismatches. `flip`
/// flips a bit of the first expected value ([`Inject::FlipReference`]).
fn median_mismatches(
    seed: u64,
    before: &GlobalState,
    after: &GlobalState,
    initial: &GlobalState,
    round: usize,
    cohort: &[usize],
    flip: bool,
) -> usize {
    let mut bad = 0;
    let p = before.shared.len();
    let mut sample = Vec::with_capacity(cohort.len());
    for q in 0..PROBES {
        let j = q * p / PROBES;
        sample.clear();
        sample.extend(
            cohort
                .iter()
                .map(|&id| delta_at(seed, agg_slot(round, id), j)),
        );
        let mut want = before.shared[j] + median_f32(&mut sample);
        if flip && q == 0 {
            want = crate::flip_bit(want);
        }
        bad += usize::from(want.to_bits() != after.shared[j].to_bits());
    }
    let b = before.buffers.len();
    for q in 0..PROBES.min(b) {
        let j = q * b / PROBES.min(b);
        sample.clear();
        sample.extend(
            cohort
                .iter()
                .map(|&id| buffer_at(seed, initial, agg_slot(round, id), j)),
        );
        bad += usize::from(median_f32(&mut sample).to_bits() != after.buffers[j].to_bits());
    }
    bad
}

/// Re-derive a FedAvg round at evenly spaced coordinates from the
/// generator, independently of the program: the sample-weighted mean of
/// the cohort's deltas added to `before`, and the plain mean of their
/// buffers. `uploads` are the pool slots folded; returns mismatches.
/// `flip` flips a bit of the first expected value
/// ([`Inject::FlipReference`]).
pub fn fedavg_mismatches(
    seed: u64,
    before: &GlobalState,
    after: &GlobalState,
    initial: &GlobalState,
    uploads: &[usize],
    flip: bool,
) -> usize {
    let mut bad = 0;
    let p = before.shared.len();
    let total: usize = uploads.iter().map(|&k| samples_of(seed, k)).sum();
    for q in 0..PROBES {
        let j = q * p / PROBES;
        let sum: f64 = uploads
            .iter()
            .map(|&k| samples_of(seed, k) as f64 * delta_at(seed, k, j) as f64)
            .sum();
        let inc = (sum / total as f64) as f32;
        let mut want = before.shared[j] + inc;
        if flip && q == 0 {
            want = crate::flip_bit(want);
        }
        let scale = before.shared[j].abs() + inc.abs();
        bad += usize::from(!crate::close(after.shared[j], want, scale));
    }
    let b = before.buffers.len();
    for q in 0..PROBES.min(b) {
        let j = q * b / PROBES.min(b);
        let sum: f64 = uploads
            .iter()
            .map(|&k| buffer_at(seed, initial, k, j) as f64)
            .sum();
        let want = (sum / uploads.len() as f64) as f32;
        bad += usize::from(!crate::close(after.buffers[j], want, want.abs()));
    }
    bad
}

/// Time the screen and the robust statistic separately on a re-decoded
/// copy of the round's cohort; returns `(screen_s, robust_s, digest of the
/// resulting global)`.
fn finish_probe(
    cfg: &FlConfig,
    before: &GlobalState,
    driver: &RoundDriver,
    pool: &[Upload],
    round: usize,
    cohort: &[usize],
) -> (f64, f64, u64) {
    let mut decoded: Vec<LocalOutcome> = cohort
        .iter()
        .map(|&id| {
            let up = &pool[agg_slot(round, id)];
            driver
                .decode_client_upload(&up.meta_for(id), &up.frames)
                .expect("replayed upload must decode")
        })
        .collect();
    decoded.sort_by_key(|o| o.client_id);
    let policy = cfg.screen.expect("screen policy");
    let mut ledger = FaultRecord::for_sample(cohort.len());
    let t = Instant::now();
    let kept = spatl_fl::screen_updates(&policy, decoded, &mut ledger);
    let screen_s = t.elapsed().as_secs_f64();
    let mut global = before.clone();
    let t = Instant::now();
    global.aggregate(cfg, &kept, cfg.n_clients);
    let robust_s = t.elapsed().as_secs_f64();
    (screen_s, robust_s, crate::global_digest(&global))
}

/// Run `agg_robust_r20`.
pub fn run_agg(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let seed = opts.seed;
    let cfg = agg_config(seed);
    let mut setup = None;
    for _ in 0..SETUPS {
        // Free the previous set-up first, so two never coexist.
        drop(setup.take());
        let t = Instant::now();
        let global = dense_global(seed);
        let pool = make_pool(&cfg, &global, seed, AGG_POOL);
        let driver = RoundDriver::new(cfg, global.clone(), None);
        out.setup_s.push(t.elapsed().as_secs_f64());
        setup = Some((global, pool, driver));
    }
    let (initial, pool, mut driver) = setup.expect("set up");

    let mut mismatches = 0usize;
    let mut probe_ok = true;
    let (mut screen, mut robust) = (Vec::new(), Vec::new());
    let (mut coords, mut bytes, mut uploads) = (0u64, 0u64, 0usize);
    let start = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    loop {
        let round = driver.round_index();
        let traced = crate::traced_round(opts.trace, round);
        let before = driver.global.clone();
        trace::set_enabled(traced);
        crate::reset_peak_rss();
        let t = Instant::now();
        let r = agg_round(&mut driver, &pool, opts.inject);
        let secs = t.elapsed().as_secs_f64();
        let peak_rss_mb = crate::peak_rss_mb();
        trace::set_enabled(false);
        let cohort: Vec<usize> = (0..COHORT).collect();
        let flip = opts.inject == Inject::FlipReference && round == 0;
        mismatches += median_mismatches(
            seed,
            &before,
            &driver.global,
            &initial,
            round,
            &cohort,
            flip,
        );
        if traced {
            let (s, rb, digest) = finish_probe(&cfg, &before, &driver, &pool, round, &cohort);
            screen.push(s);
            robust.push(rb);
            let reference = crate::global_digest(&driver.global) ^ u64::from(flip);
            probe_ok &= digest == reference;
            coords += r.coords;
            bytes += r.bytes;
            uploads += r.record.faults.sampled;
        }
        out.rounds.push(RoundSample {
            secs,
            traced,
            sampled: r.record.faults.sampled,
            folded: r.record.faults.survivors,
            peak_rss_mb,
        });
        if out.rounds.len() >= 4 && start.elapsed() >= budget {
            break;
        }
    }
    out.digest = format!(
        "{:016x}@{}",
        crate::global_digest(&driver.global),
        driver.round_index()
    );
    out.check(
        "coordinate median matches an independent re-derivation",
        mismatches == 0,
        format!(
            "{mismatches} mismatching coordinates of {} probed per round",
            2 * PROBES
        ),
    );

    if opts.trace {
        out.check(
            "screen + robust-statistic probe reproduces the round's global bits",
            probe_ok,
            format!("{} traced rounds probed", screen.len()),
        );
        let spans = trace::snapshot();
        let phases = PhaseTable::build(&spans, "round");
        phase_metrics(&mut out, &phases);
        let decode_total = phases
            .phases
            .get("wire.upload_decode")
            .copied()
            .unwrap_or(0.0);
        let fold_total = phases.phases.get("fl.fold").copied().unwrap_or(0.0);
        out.set(
            "wire.upload_decode_s",
            trace::mean_secs(&spans, "wire.upload_decode"),
        );
        out.set(
            "wire.upload_decode_mb_per_s",
            bytes as f64 / decode_total.max(1e-12) / 1e6,
        );
        out.set(
            "fl.fold_mcoords_per_s",
            coords as f64 / fold_total.max(1e-12) / 1e6,
        );
        out.set("wire.upload_bytes", bytes as f64 / uploads.max(1) as f64);
        out.set("fl.screen_s", trace::median(&screen));
        out.set("fl.robust_stat_s", trace::median(&robust));
        overhead_metrics(&mut out);
    }
    out
}

/// Phase-sum check and the per-round phase metrics every composed
/// workload shares.
pub fn phase_metrics(out: &mut Outcome, phases: &PhaseTable) {
    out.check(
        "traced round phases sum to the round wall-clock within 5%",
        phases.unattributed_frac() <= crate::PHASE_SUM_TOLERANCE,
        format!(
            "{:.3}% of {:.3} s unattributed over {} traced rounds",
            100.0 * phases.unattributed_frac(),
            phases.wall(),
            phases.rounds.len()
        ),
    );
    out.set("fl.round_unattributed_frac", phases.unattributed_frac());
    out.set("fl.sample_s", phases.per_round("fl.sample"));
    out.set("fl.fold_s", phases.per_round("fl.fold"));
    out.set("fl.finish_s", phases.per_round("fl.finish"));
    out.set("fl.finish_round_s", phases.per_round("fl.finish_round"));
}

/// Traced and untraced round p50 of one run, and their difference.
pub fn overhead_metrics(out: &mut Outcome) {
    let p50 = |traced: bool| {
        let v: Vec<f64> = out.timed(traced).iter().map(|r| r.secs).collect();
        trace::median(&v)
    };
    let (t50, u50) = (p50(true), p50(false));
    out.set("round.traced_p50_s", t50);
    out.set("round.untraced_p50_s", u50);
    out.set("trace.overhead_s", t50 - u50);
}
