//! The simulator workload (`sim_spatl_r20`).
//!
//! Untraced rounds call `Simulation::run_round` itself. Traced rounds are
//! composed from the public calls `run_round` makes on a fault-free
//! configuration, with a span around each; after every traced round,
//! probes replay each client's local update on clones of the round's own
//! client states and batches, timing the nn, agent, graph, pruning and
//! wire calls inside it. Every run checks that composed rounds and
//! `run_round` reach the same global-state bits and round records, that
//! each composed round's global matches an independent re-derivation from
//! the clients' uploads, and that every convolution of the trained
//! encoder matches a direct convolution.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rayon::prelude::*;
use spatl_agent::{
    finetune_agent, pretrain_agent, project_to_budget, ActorCritic, AgentConfig, PruningEnv,
};
use spatl_data::{dirichlet_partition, synth_cifar10, Dataset, SynthConfig};
use spatl_fl::{
    decode_download, encode_upload, Algorithm, ClientState, FaultKind, FaultRecord, FlConfig,
    GlobalState, LocalOutcome, RoundRecord, Simulation, SpatlOptions, TransportStats, WireBytes,
};
use spatl_models::{ModelConfig, ModelKind};
use spatl_nn::{Conv2d, CrossEntropyLoss, Network, Node, Optimizer, Sgd};
use spatl_pruning::{apply_sparsities, salient_param_indices, Criterion};
use spatl_tensor::{Conv2dGeometry, Tensor, TensorRng, Workspace};

use crate::trace::{self, span, span_under, timed, PhaseTable};
use crate::{global_digest, records_digest, Inject, Opts, Outcome, RoundSample};

// `sim_spatl_r20`: SPATL with default options, quarter-width ResNet-20,
// 10 clients of 80 samples, 1 local epoch, batch 16.
const WIDTH: f32 = 0.25;
const CLIENTS: usize = 10;
const SAMPLES_PER_CLIENT: usize = 80;
const LOCAL_EPOCHS: usize = 1;
const BATCH: usize = 16;
/// Rounds compared against the reference path: the agent fine-tune rounds
/// and at least one steady round.
const CHECK_ROUNDS: usize = 4;

/// Set-ups per run; `setup_s` is their median. More than the replay
/// workloads' five: a set-up takes about 0.2 s and single ones vary by a
/// third within a run.
const SETUPS: usize = 15;
/// Label-skew concentration of the client partition.
const BETA: f64 = 0.5;
/// Seed of the Dirichlet partition and train/validation split. Fixed, so
/// the clients' shard sizes — the work of each local update — are part
/// of the workload's definition; `--seed` varies the samples, the model
/// initialisation and every training draw.
const PARTITION_SEED: u64 = 0xDA7A;

fn config(seed: u64) -> FlConfig {
    let mut cfg = FlConfig::new(Algorithm::Spatl(SpatlOptions::default()));
    cfg.n_clients = CLIENTS;
    cfg.sample_ratio = 1.0;
    cfg.rounds = usize::MAX;
    cfg.local_epochs = LOCAL_EPOCHS;
    cfg.batch_size = BATCH;
    cfg.seed = seed;
    cfg
}

fn model_config(seed: u64) -> ModelConfig {
    ModelConfig::cifar(ModelKind::ResNet20)
        .with_width(WIDTH)
        .with_seed(seed)
}

/// Data synthesis, Dirichlet partition and `Simulation::new` (model
/// init, client copies and agent pre-training).
fn build(seed: u64) -> Simulation {
    // The experiment builder's CIFAR-like task difficulty.
    let synth = SynthConfig {
        noise_std: 2.5,
        ..SynthConfig::cifar10_like()
    };
    let n = CLIENTS * SAMPLES_PER_CLIENT;
    let data = timed("data.synth", 0, || synth_cifar10(&synth, n, seed));
    let shards: Vec<(Dataset, Dataset)> = timed("data.partition", 0, || {
        let mut rng = TensorRng::seed_from(PARTITION_SEED);
        let parts = dirichlet_partition(&data.labels, synth.num_classes, CLIENTS, BETA, &mut rng);
        parts
            .into_iter()
            .map(|idx| data.subset(&idx).split(0.75, &mut rng))
            .collect()
    });
    let cfg = config(seed);
    timed("fl.sim_new", 0, || {
        Simulation::new(cfg, model_config(seed), shards)
    })
}

/// Work counts of one traced round.
#[derive(Default)]
struct Tally {
    uploads: usize,
    upload_bytes: u64,
    broadcast_bytes: u64,
    /// Coordinates folded.
    coords: u64,
}

/// What a composed round hands to the probes.
struct Composed {
    record: RoundRecord,
    wire_global: GlobalState,
    outcomes: Vec<LocalOutcome>,
    in_round: Vec<bool>,
    tally: Tally,
}

/// Coordinates a decoded upload contributes to the fold.
fn folded_coords(o: &LocalOutcome) -> u64 {
    match &o.selected {
        Some(sel) => sel.indices.len() as u64,
        None => o.delta.len() as u64,
    }
}

/// One fault-free round composed from the public calls
/// `Simulation::run_round` makes, each inside a span.
fn composed_round(sim: &mut Simulation, inject: Inject) -> Composed {
    let round = sim.driver.round_index();
    let root = span("round", round);
    let started = Instant::now();
    let sampled = timed("fl.sample", round, || sim.driver.sample_round());
    let mut faults = FaultRecord::for_sample(sampled.len());
    let mut in_round = vec![false; sim.driver.cfg.n_clients];
    for &i in &sampled {
        in_round[i] = true;
    }
    let cfg = sim.driver.cfg;
    let p = sim.driver.global.shared.len();
    let down = timed("wire.broadcast_encode", round, || sim.driver.broadcast());
    let wire_global = timed("wire.download_decode", round, || {
        decode_download(&cfg, &down.frames, p).expect("server broadcast must decode")
    });

    let mut outcomes: Vec<LocalOutcome> = {
        let region = span("fl.client_region", round);
        let parent = region.id();
        let global = &wire_global;
        let in_round = &in_round;
        sim.clients
            .par_iter_mut()
            .enumerate()
            .filter(|(i, _)| in_round[*i])
            .map(|(_, c)| {
                let _s = span_under("fl.local_update", round, parent);
                c.local_update(&cfg, global, round)
            })
            .collect()
    };
    for o in &outcomes {
        if o.diverged {
            faults.push(o.client_id, FaultKind::LocalDivergence);
        }
    }

    let mut wire_total = WireBytes::default();
    let mut survivors = Vec::with_capacity(outcomes.len());
    let (mut wall_s, mut device_s) = (0f64, 0f64);
    let mut tally = Tally {
        uploads: outcomes.len(),
        broadcast_bytes: down.framed(),
        ..Tally::default()
    };
    for o in &mut outcomes {
        o.wire.download_payload = down.payload;
        o.wire.download_framed = down.framed();
        let meta: &LocalOutcome = o;
        let decoded = timed("wire.upload_decode", round, || {
            sim.driver.decode_client_upload(meta, &meta.frames)
        })
        .expect("client upload must decode");
        tally.upload_bytes += o.wire.upload_framed;
        wire_total.accumulate(&o.wire);
        let t = sim.driver.net.client_time(
            o.wire.download_framed as usize,
            o.wire.upload_framed as usize,
        );
        device_s += t;
        wall_s = wall_s.max(t);
        survivors.push(decoded);
    }

    let mut acc = timed("fl.begin", round, || sim.driver.begin_accumulation());
    for (k, o) in survivors.into_iter().enumerate() {
        if inject == Inject::DropUpload && k == 0 {
            continue;
        }
        tally.coords += folded_coords(&o);
        timed("fl.fold", round, || acc.fold(o));
    }
    timed("fl.finish", round, || {
        sim.driver.finish_accumulation(acc, &mut faults)
    });
    let per_client_acc = timed("fl.eval", round, || sim.evaluate_all());
    let stats = TransportStats {
        wire: wire_total,
        transfer_wall_s: wall_s,
        transfer_device_s: device_s,
        measured_wall_s: 0.0,
    };
    let record = timed("fl.finish_round", round, || {
        sim.driver
            .finish_round(&outcomes, stats, per_client_acc, faults)
    });
    if inject == Inject::PhaseGap {
        crate::phase_gap(started);
    }
    drop(root);
    Composed {
        record,
        wire_global,
        outcomes,
        in_round,
        tally,
    }
}

/// Per-client timings of one probed local update.
#[derive(Debug, Default, Clone)]
struct ClientProbe {
    sync: f64,
    batch: f64,
    fwd: Vec<f64>,
    bwd: Vec<f64>,
    loss: f64,
    opt: f64,
    train_flops: f64,
    env_new: f64,
    finetune: Option<f64>,
    env_steps: usize,
    env_step: Option<f64>,
    graph: f64,
    evaluate: f64,
    project: f64,
    apply: f64,
    salient: f64,
    flops: f64,
    selected: bool,
    encode: f64,
    eval_fwd: f64,
}

impl ClientProbe {
    /// Seconds of `ClientState::local_update` this probe accounts for.
    fn explained(&self) -> f64 {
        self.sync
            + self.batch
            + self.fwd.iter().sum::<f64>()
            + self.bwd.iter().sum::<f64>()
            + self.loss
            + self.opt
            + self.env_new
            + self.finetune.unwrap_or(0.0)
            + self.graph
            + self.evaluate
            + self.project
            + self.apply
            + self.salient
            + self.flops
            + self.encode
    }
}

/// Scratch pools a probe keeps per client across rounds (a cloned model
/// starts with an empty workspace; the real client's stays warm).
#[derive(Default)]
struct ProbeWs {
    enc: Workspace,
    pred: Workspace,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

thread_local! {
    /// Seconds this thread spent running probes nested inside another
    /// probe's timed call: the worker pool runs queued jobs (another
    /// client's whole probe) on a thread that waits for a nested parallel
    /// call, and that time belongs to the other client.
    static FOREIGN: std::cell::Cell<f64> = const { std::cell::Cell::new(0.0) };
}

/// A probe timer that excludes nested foreign probes.
struct Clock {
    t: Instant,
    foreign: f64,
}

fn clock() -> Clock {
    Clock {
        t: Instant::now(),
        foreign: FOREIGN.with(|f| f.get()),
    }
}

impl Clock {
    fn secs(&self) -> f64 {
        secs(self.t) - (FOREIGN.with(|f| f.get()) - self.foreign)
    }
}

/// `Network::forward`, one node at a time, adding each node's seconds
/// into `acc`.
fn fwd_nodes(net: &mut Network, ws: &mut Workspace, input: &Tensor, acc: &mut [f64]) -> Tensor {
    let mut x: Option<Tensor> = None;
    for (i, node) in net.nodes.iter_mut().enumerate() {
        let t = clock();
        let y = match &x {
            Some(prev) => node.forward_ws(prev, true, ws),
            None => node.forward_ws(input, true, ws),
        };
        acc[i] += t.secs();
        if let Some(prev) = x.replace(y) {
            ws.recycle(prev);
        }
    }
    x.unwrap_or_else(|| input.clone())
}

/// `Network::backward`, one node at a time.
fn bwd_nodes(net: &mut Network, ws: &mut Workspace, grad: &Tensor, acc: &mut [f64]) -> Tensor {
    let mut g: Option<Tensor> = None;
    for (i, node) in net.nodes.iter_mut().enumerate().rev() {
        let t = clock();
        let y = match &g {
            Some(prev) => node.backward_ws(prev, ws),
            None => node.backward_ws(grad, ws),
        };
        acc[i] += t.secs();
        if let Some(prev) = g.replace(y) {
            ws.recycle(prev);
        }
    }
    g.unwrap_or_else(|| grad.clone())
}

/// Replay `ClientState::local_update` on a clone of the client as it was
/// before the round, timing each public call it makes.
fn probe_client(
    c: &mut ClientState,
    ws: &mut ProbeWs,
    cfg: &FlConfig,
    global: &GlobalState,
    round: usize,
    outcome: &LocalOutcome,
) -> ClientProbe {
    let n_enc = c.model.encoder.nodes.len();
    let n_all = n_enc + c.model.predictor.nodes.len();
    let mut p = ClientProbe {
        fwd: vec![0.0; n_all],
        bwd: vec![0.0; n_all],
        ..Default::default()
    };
    let dense_flops = c.model.flops_dense() as f64;

    // 1. Download sync (under transfer the shared vector is the encoder).
    let t = clock();
    let enc_len = c.model.encoder.num_params();
    c.model.encoder.from_flat(&global.shared[..enc_len]);
    if !global.buffers.is_empty() {
        c.model.encoder.set_buffers_flat(&global.buffers);
    }
    c.model.clear_masks();
    let uses_control = cfg.algorithm.uses_control();
    if uses_control && c.control.len() != global.shared.len() {
        c.control = vec![0.0; global.shared.len()];
    }
    let correction: Option<Vec<f32>> = uses_control.then(|| {
        global
            .control
            .iter()
            .zip(&c.control)
            .map(|(g, ci)| g - ci)
            .collect()
    });
    p.sync = t.secs();

    // 2. Local epochs, after a head-only epoch (transfer learning).
    let mut rng = TensorRng::seed_from(
        cfg.seed ^ (round as u64).wrapping_mul(0x9E37_79B9) ^ (c.id as u64) << 32,
    );
    let mut opt_enc = Sgd::with_momentum(cfg.lr, cfg.momentum, cfg.weight_decay);
    let mut opt_pred = Sgd::with_momentum(cfg.lr, cfg.momentum, cfg.weight_decay);
    let mut loss = CrossEntropyLoss::new();
    let (fwd_enc, fwd_pred) = p.fwd.split_at_mut(n_enc);
    let (bwd_enc, bwd_pred) = p.bwd.split_at_mut(n_enc);
    let t = clock();
    let batches = c.train.batches(cfg.batch_size, &mut rng);
    p.batch += t.secs();
    for batch in batches {
        let t = clock();
        c.model.zero_grad();
        p.opt += t.secs();
        let emb = fwd_nodes(&mut c.model.encoder, &mut ws.enc, &batch.images, fwd_enc);
        let logits = fwd_nodes(&mut c.model.predictor, &mut ws.pred, &emb, fwd_pred);
        ws.enc.recycle(emb);
        let t = clock();
        loss.forward(&logits, &batch.labels);
        ws.pred.recycle(logits);
        let g = loss.backward();
        p.loss += t.secs();
        let gemb = bwd_nodes(&mut c.model.predictor, &mut ws.pred, &g, bwd_pred);
        ws.pred.recycle(g);
        ws.pred.recycle(gemb);
        let t = clock();
        opt_pred.step(&mut c.model.predictor);
        p.opt += t.secs();
        p.train_flops += batch.labels.len() as f64 * dense_flops;
    }
    let t = clock();
    c.model.encoder.clear_caches();
    p.opt += t.secs();
    for _ in 0..cfg.local_epochs {
        let t = clock();
        let batches = c.train.batches(cfg.batch_size, &mut rng);
        p.batch += t.secs();
        for batch in batches {
            let t = clock();
            c.model.zero_grad();
            p.opt += t.secs();
            let emb = fwd_nodes(&mut c.model.encoder, &mut ws.enc, &batch.images, fwd_enc);
            let logits = fwd_nodes(&mut c.model.predictor, &mut ws.pred, &emb, fwd_pred);
            ws.enc.recycle(emb);
            let t = clock();
            loss.forward(&logits, &batch.labels);
            ws.enc.recycle(logits);
            let g = loss.backward();
            p.loss += t.secs();
            let g_emb = bwd_nodes(&mut c.model.predictor, &mut ws.pred, &g, bwd_pred);
            let gx = bwd_nodes(&mut c.model.encoder, &mut ws.enc, &g_emb, bwd_enc);
            ws.pred.recycle(g_emb);
            ws.enc.recycle(g);
            ws.enc.recycle(gx);
            let t = clock();
            if let Some(corr) = &correction {
                c.model.encoder.add_to_grads(&corr[..enc_len]);
            }
            opt_enc.step(&mut c.model.encoder);
            opt_pred.step(&mut c.model.predictor);
            p.opt += t.secs();
            // Forward plus a backward of twice its cost.
            p.train_flops += 3.0 * batch.labels.len() as f64 * dense_flops;
        }
    }

    // 3. SPATL salient selection.
    if !outcome.diverged {
        p.selected = true;
        let opts = SpatlOptions::default();
        let budget = c.flops_budget.unwrap_or(opts.target_flops_ratio);
        let mut rng = TensorRng::seed_from(cfg.seed ^ 0xA6E47 ^ (c.id as u64) << 17 ^ round as u64);
        let t = clock();
        let mut env_model = c.model.clone();
        env_model.clear_caches();
        let env = PruningEnv::new(env_model, c.val.clone(), budget);
        p.env_new = t.secs();
        let agent = c.agent.as_mut().expect("SPATL clients hold an agent");
        let finetuned = c.participations < opts.finetune_rounds;
        if finetuned {
            let t = clock();
            finetune_agent(
                agent,
                &env,
                1,
                opts.agent_steps,
                opts.agent_epochs,
                &mut rng,
            );
            p.finetune = Some(t.secs());
            p.env_steps = opts.agent_steps;
        }
        let t = clock();
        let graph = env.graph();
        p.graph = t.secs();
        let t = clock();
        let mu = agent.evaluate(&graph).mu;
        p.evaluate = t.secs();
        let t = clock();
        let applied = project_to_budget(&c.model, &mu, budget, Criterion::L2);
        p.project = t.secs();
        let t = clock();
        apply_sparsities(&mut c.model, &applied, Criterion::L2);
        p.apply = t.secs();
        let t = clock();
        let _ = salient_param_indices(&c.model);
        p.salient = t.secs();
        let t = clock();
        let _ = c.model.flops() as f32 / c.model.flops_dense() as f32;
        p.flops = t.secs();
        if finetuned {
            // One reward evaluation, as fine-tuning runs `agent_steps`
            // of them (not part of the explained local update).
            let t = clock();
            let _ = env.step(&mu);
            p.env_step = Some(t.secs());
        }
    }

    // 4. Sealing the upload.
    let t = clock();
    let _ = encode_upload(cfg, global, outcome, round);
    p.encode = t.secs();

    // Evaluation forward pass (what `evaluate_all` runs per client).
    let t = clock();
    let _ = c.evaluate();
    p.eval_fwd = t.secs();
    p
}

/// Probe every client of a traced round, in parallel like the round.
fn probe_round(
    clones: Vec<ClientState>,
    ws: &mut Vec<ProbeWs>,
    cfg: &FlConfig,
    round: &Composed,
    index: usize,
) -> Vec<ClientProbe> {
    let mut pairs: Vec<(ClientState, ProbeWs)> = clones.into_iter().zip(ws.drain(..)).collect();
    let by_id: Vec<Option<&LocalOutcome>> = (0..pairs.len())
        .map(|id| round.outcomes.iter().find(|o| o.client_id == id))
        .collect();
    let by_id = &by_id;
    let global = &round.wire_global;
    let in_round = &round.in_round;
    let probes: Vec<ClientProbe> = pairs
        .par_iter_mut()
        .enumerate()
        .filter(|(i, _)| in_round[*i])
        .map(|(i, (c, w))| {
            let outcome = by_id[i].expect("participant outcome");
            let before = FOREIGN.with(|f| f.get());
            let t = Instant::now();
            let probe = probe_client(c, w, cfg, global, index, outcome);
            FOREIGN.with(|f| f.set(before + secs(t)));
            probe
        })
        .collect();
    ws.extend(pairs.into_iter().map(|(_, w)| w));
    probes
}

/// One convolution's GEMM: `M = n·oh·ow`, `K = c·k·k`, `N = out_channels`.
struct ConvGemm {
    input: [usize; 4],
    g: Conv2dGeometry,
    m: usize,
    k: usize,
    n: usize,
}

impl ConvGemm {
    fn of(input: [usize; 4], conv: &spatl_nn::Conv2d) -> ConvGemm {
        let g = Conv2dGeometry {
            in_channels: input[1],
            in_h: input[2],
            in_w: input[3],
            kernel: conv.kernel,
            stride: conv.stride,
            padding: conv.padding,
        };
        ConvGemm {
            input,
            m: input[0] * g.cols(),
            k: g.patch_len(),
            n: conv.out_channels,
            g,
        }
    }

    fn output(&self) -> [usize; 4] {
        [self.input[0], self.n, self.g.out_h(), self.g.out_w()]
    }

    /// Ordering key: multiply-adds, then depth.
    fn size(&self) -> (usize, usize) {
        (self.m * self.k * self.n, self.k)
    }
}

/// The largest conv GEMM of the encoder for an input batch.
fn largest_conv(model: &spatl_models::SplitModel, batch: &Tensor) -> ConvGemm {
    let mut model = model.clone();
    let mut convs = Vec::new();
    let mut x = batch.clone();
    for node in model.encoder.nodes.iter_mut() {
        let Ok(input) = <[usize; 4]>::try_from(x.dims()) else {
            break;
        };
        match node {
            Node::Conv(conv) => convs.push(ConvGemm::of(input, conv)),
            Node::Residual(block) => {
                let conv1 = ConvGemm::of(input, &block.conv1);
                convs.push(ConvGemm::of(conv1.output(), &block.conv2));
                convs.push(conv1);
                if let Some(down) = &block.down_conv {
                    convs.push(ConvGemm::of(input, down));
                }
            }
            _ => {}
        }
        x = node.forward(&x, false);
    }
    convs
        .into_iter()
        .max_by_key(ConvGemm::size)
        .expect("model has a convolution")
}

fn filled(shape: &[usize], seed: u64) -> Tensor {
    let n: usize = shape.iter().product();
    let mut s = seed;
    let data = (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect();
    Tensor::from_vec(shape.to_vec(), data).expect("shape matches data")
}

/// `(GEMM GFLOP/s, im2col GB/s)` at the model's largest conv GEMM.
fn kernel_probes(model: &spatl_models::SplitModel, batch: &Tensor) -> (f64, f64) {
    let ConvGemm { input, g, m, k, n } = largest_conv(model, batch);
    let budget = Duration::from_millis(200);

    let cols = filled(&[m, k], 1);
    let w = filled(&[n, k], 2);
    let mut out = Tensor::zeros([m, n]);
    let (mut reps, t) = (0u64, Instant::now());
    while reps < 3 || t.elapsed() < budget {
        spatl_tensor::matmul_nt_into(black_box(&cols), black_box(&w), &mut out);
        black_box(&mut out);
        reps += 1;
    }
    let gflops = 2.0 * (m * k * n) as f64 * reps as f64 / secs(t) / 1e9;

    let input = filled(&input, 3);
    let mut patches = Tensor::zeros([m, k]);
    let (mut reps, t) = (0u64, Instant::now());
    while reps < 3 || t.elapsed() < budget {
        spatl_tensor::im2col_into(black_box(&input), &g, &mut patches);
        black_box(&mut patches);
        reps += 1;
    }
    let bytes = 4.0 * (input.numel() + patches.numel()) as f64;
    let gbps = bytes * reps as f64 / secs(t) / 1e9;
    (gflops, gbps)
}

/// State after the checked rounds: global digest and record digest.
fn state_digest(sim: &Simulation) -> (u64, u64) {
    (
        global_digest(&sim.driver.global),
        records_digest(&sim.driver.history),
    )
}

/// Re-derive a composed SPATL round from the clients' own outcomes, apart
/// from the program's wire decode and fold: every shared coordinate moves
/// by the mean of the values uploaded for it, and the buffers become the
/// mean of the uploaded buffers. Returns `(mismatches, values checked)`.
/// `flip` flips a bit of the first expected value
/// ([`Inject::FlipReference`]).
fn spatl_mismatches(
    before: &GlobalState,
    after: &GlobalState,
    outcomes: &[LocalOutcome],
    flip: bool,
) -> (usize, usize) {
    let p = before.shared.len();
    let (mut sum, mut count) = (vec![0f64; p], vec![0u32; p]);
    let valid: Vec<&LocalOutcome> = outcomes.iter().filter(|o| !o.diverged).collect();
    for o in &valid {
        let sel = o.selected.as_ref().expect("SPATL uploads are selected");
        for (&i, &v) in sel.indices.iter().zip(&sel.values) {
            sum[i as usize] += v as f64;
            count[i as usize] += 1;
        }
    }
    let mut bad = 0;
    for j in 0..p {
        let inc = if count[j] > 0 {
            (sum[j] / count[j] as f64) as f32
        } else {
            0.0
        };
        let mut want = before.shared[j] + inc;
        if flip && j == 0 {
            want = crate::flip_bit(want);
        }
        let scale = before.shared[j].abs() + inc.abs();
        bad += usize::from(!crate::close(after.shared[j], want, scale));
    }
    let b = before.buffers.len();
    if !valid.is_empty() {
        for j in 0..b {
            let mean = valid.iter().map(|o| o.buffers[j] as f64).sum::<f64>() / valid.len() as f64;
            let want = mean as f32;
            bad += usize::from(!crate::close(after.buffers[j], want, want.abs()));
        }
    }
    (bad, p + b)
}

/// Direct convolution of `input` by `conv` at every output, in `f64`,
/// against the layer's own forward pass (im2col and GEMM). Returns
/// `(mismatches, outputs checked)`; `flip` flips a bit of the first
/// expected output.
fn conv_mismatches(conv: &Conv2d, input: &Tensor, flip: bool) -> (usize, usize) {
    let got = conv.clone().forward(input, false);
    let [n, c, h, w]: [usize; 4] = input.dims().try_into().expect("NCHW input");
    let [_, oc_n, oh, ow]: [usize; 4] = got.dims().try_into().expect("NCHW output");
    let (k, stride, pad) = (conv.kernel, conv.stride, conv.padding);
    let (x, wt, bias) = (
        input.data(),
        conv.weight.value.data(),
        conv.bias.value.data(),
    );
    let mut bad = 0;
    for img in 0..n {
        for oc in 0..oc_n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let (mut acc, mut mag) = (bias[oc] as f64, bias[oc].abs() as f64);
                    for ch in 0..c {
                        for ky in 0..k {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if ix < 0 || ix as usize >= w {
                                    continue;
                                }
                                let term = wt[oc * c * k * k + (ch * k + ky) * k + kx] as f64
                                    * x[((img * c + ch) * h + iy as usize) * w + ix as usize]
                                        as f64;
                                acc += term;
                                mag += term.abs();
                            }
                        }
                    }
                    let mut want = (acc * conv.channel_mask[oc] as f64) as f32;
                    let at = ((img * oc_n + oc) * oh + oy) * ow + ox;
                    if flip && at == 0 {
                        want = crate::flip_bit(want);
                    }
                    let tol = 1e-4 * mag + 1e-6;
                    bad += usize::from(((got.data()[at] - want) as f64).abs() > tol);
                }
            }
        }
    }
    (bad, got.numel())
}

/// Check every convolution of the encoder (stem, both convolutions of each
/// residual block, projection shortcuts) on activations of a random batch.
/// Returns `(mismatches, outputs checked)`.
fn encoder_conv_mismatches(model: &spatl_models::SplitModel, flip: bool) -> (usize, usize) {
    let c = &model.config;
    let mut x = filled(&[2, c.in_channels, c.input_hw, c.input_hw], 5);
    let mut encoder = model.encoder.clone();
    let (mut bad, mut checked) = (0, 0);
    let mut tally = |(b, n): (usize, usize)| {
        bad += b;
        checked += n;
    };
    for node in encoder.nodes.iter_mut() {
        if x.dims().len() != 4 {
            break;
        }
        match node {
            Node::Conv(conv) => tally(conv_mismatches(conv, &x, flip)),
            Node::Residual(block) => {
                tally(conv_mismatches(&block.conv1, &x, false));
                let mid = block.conv1.clone().forward(&x, false);
                tally(conv_mismatches(&block.conv2, &mid, false));
                if let Some(down) = &block.down_conv {
                    tally(conv_mismatches(down, &x, false));
                }
            }
            _ => {}
        }
        x = node.forward(&x, false);
    }
    (bad, checked)
}

/// Run `sim_spatl_r20`.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let seed = opts.seed;
    let flip = opts.inject == Inject::FlipReference;

    // Set-ups (traced: data synthesis, partition and Simulation::new get
    // spans); the last one is measured.
    trace::set_enabled(opts.trace);
    let mut sim = None;
    for _ in 0..SETUPS {
        // Free the previous set-up first, so two never coexist.
        drop(sim.take());
        let t = Instant::now();
        sim = Some(build(seed));
        out.setup_s.push(secs(t));
    }
    trace::set_enabled(false);
    let mut sim = sim.expect("measured simulation");

    let mut ws: Vec<ProbeWs> = (0..CLIENTS).map(|_| ProbeWs::default()).collect();
    let mut probes: Vec<ClientProbe> = Vec::new();
    let mut tallies: Vec<Tally> = Vec::new();
    let mut checked: Option<(u64, u64)> = None;
    // Composed rounds re-derived: (mismatches, values checked).
    let mut rederived = (0usize, 0usize);
    let start = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    loop {
        let index = sim.driver.round_index();
        let traced = crate::traced_round(opts.trace, index);
        let (record, secs_round, peak_rss_mb) = if traced {
            let clones = sim.clients.clone();
            let before = sim.driver.global.clone();
            trace::set_enabled(true);
            crate::reset_peak_rss();
            let t = Instant::now();
            let composed = composed_round(&mut sim, opts.inject);
            let dt = secs(t);
            let peak = crate::peak_rss_mb();
            trace::set_enabled(false);
            if index < CHECK_ROUNDS {
                let (b, n) = spatl_mismatches(
                    &before,
                    &sim.driver.global,
                    &composed.outcomes,
                    flip && index == 0,
                );
                rederived = (rederived.0 + b, rederived.1 + n);
            }
            probes.extend(probe_round(
                clones,
                &mut ws,
                &sim.driver.cfg,
                &composed,
                index,
            ));
            tallies.push(composed.tally);
            (composed.record, dt, peak)
        } else {
            crate::reset_peak_rss();
            let t = Instant::now();
            let record = sim.run_round();
            let dt = secs(t);
            (record, dt, crate::peak_rss_mb())
        };
        out.rounds.push(RoundSample {
            secs: secs_round,
            traced,
            sampled: record.faults.sampled,
            folded: record.faults.survivors,
            peak_rss_mb,
        });
        if index + 1 == CHECK_ROUNDS {
            checked = Some(state_digest(&sim));
        }
        let enough = out.rounds.len() >= CHECK_ROUNDS;
        if enough && start.elapsed() >= budget {
            break;
        }
    }

    // Reference for the checked rounds, built after the measured rounds:
    // the other round path than the measured run's first round.
    // Untraced runs re-derive the composed reference rounds.
    let mut reference = build(seed);
    for index in 0..CHECK_ROUNDS {
        if opts.trace {
            reference.run_round();
        } else {
            let before = reference.driver.global.clone();
            let composed = composed_round(&mut reference, opts.inject);
            let (b, n) = spatl_mismatches(
                &before,
                &reference.driver.global,
                &composed.outcomes,
                flip && index == 0,
            );
            rederived = (rederived.0 + b, rederived.1 + n);
        }
    }
    let (ref_global, ref_records) = state_digest(&reference);
    drop(reference);

    let (got_global, got_records) = checked.expect("checked rounds ran");
    out.digest = format!("{got_global:016x}@{CHECK_ROUNDS}");
    out.checks.push(crate::digest_check(
        "composed rounds and run_round reach the same global bits",
        got_global,
        ref_global,
        opts.inject,
    ));
    out.checks.push(crate::digest_check(
        "composed rounds and run_round write the same round records",
        got_records,
        ref_records,
        opts.inject,
    ));
    out.check(
        "composed rounds match an independent re-derivation from the uploads",
        rederived.0 == 0 && rederived.1 > 0,
        format!(
            "{} of {} values mismatch over {CHECK_ROUNDS} rounds",
            rederived.0, rederived.1
        ),
    );
    let (bad, n) = encoder_conv_mismatches(&sim.clients[0].model, flip);
    out.check(
        "every encoder convolution matches a direct convolution",
        bad == 0 && n > 0,
        format!("{bad} of {n} outputs mismatch"),
    );

    let last = sim.driver.history.last().expect("at least one round");
    out.extra("final_acc", last.mean_acc as f64, "fraction");
    let samples_per_round: usize =
        sim.clients.iter().map(|c| c.train.len()).sum::<usize>() * LOCAL_EPOCHS;
    let untraced: Vec<f64> = out.timed(false).iter().map(|r| r.secs).collect();
    out.extra(
        "train_samples_per_s",
        samples_per_round as f64 * untraced.len() as f64 / untraced.iter().sum::<f64>().max(1e-12),
        "samples/s",
    );

    if opts.trace {
        let spans = trace::snapshot();
        layer_metrics(&mut out, &spans, &probes, &tallies, &sim);
    }
    out
}

fn layer_metrics(
    out: &mut Outcome,
    spans: &[trace::Span],
    probes: &[ClientProbe],
    tallies: &[Tally],
    sim: &Simulation,
) {
    let phases = PhaseTable::build(spans, "round");
    crate::replay::phase_metrics(out, &phases);
    out.set(
        "wire.broadcast_encode_s",
        phases.per_round("wire.broadcast_encode"),
    );
    out.set(
        "wire.download_decode_s",
        phases.per_round("wire.download_decode"),
    );
    out.set("fl.client_region_s", phases.per_round("fl.client_region"));
    out.set("fl.eval_s", phases.per_round("fl.eval"));
    out.set(
        "wire.upload_decode_s",
        trace::mean_secs(spans, "wire.upload_decode"),
    );

    let coords: u64 = tallies.iter().map(|t| t.coords).sum();
    let up_bytes: u64 = tallies.iter().map(|t| t.upload_bytes).sum();
    let uploads: usize = tallies.iter().map(|t| t.uploads).sum();
    let fold_total = phases.phases.get("fl.fold").copied().unwrap_or(0.0);
    let decode_total = phases
        .phases
        .get("wire.upload_decode")
        .copied()
        .unwrap_or(0.0);
    out.set(
        "fl.fold_mcoords_per_s",
        coords as f64 / fold_total.max(1e-12) / 1e6,
    );
    out.set(
        "wire.upload_decode_mb_per_s",
        up_bytes as f64 / decode_total.max(1e-12) / 1e6,
    );
    out.set("wire.upload_bytes", up_bytes as f64 / uploads.max(1) as f64);
    out.set(
        "wire.broadcast_bytes",
        tallies.iter().map(|t| t.broadcast_bytes).sum::<u64>() as f64 / tallies.len().max(1) as f64,
    );

    // Client updates: per call, and idle share of the parallel region.
    let updates = trace::exclusive_secs(&trace::named(spans, "fl.local_update"));
    out.set("fl.local_update_s_p50", trace::median(&updates));
    out.set("fl.local_update_s_p90", trace::quantile(&updates, 0.9));
    out.set("fl.local_update_calls", updates.len() as f64);
    let region: f64 = trace::named(spans, "fl.client_region")
        .iter()
        .map(|s| s.secs())
        .sum();
    let threads = rayon::current_num_threads() as f64;
    let busy: f64 = updates.iter().sum();
    out.set(
        "fl.client_idle_frac",
        (1.0 - busy / (threads * region).max(1e-12)).max(0.0),
    );

    // Probes: per local-update call, plus agent/pruning per call made.
    let n = probes.len().max(1) as f64;
    let explained: f64 = probes.iter().map(ClientProbe::explained).sum();
    out.set(
        "fl.local_update_unexplained_frac",
        1.0 - explained / busy.max(1e-12),
    );
    let per_call = |f: &dyn Fn(&ClientProbe) -> f64| probes.iter().map(f).sum::<f64>() / n;
    out.set("fl.sync_s", per_call(&|p| p.sync));
    out.set("data.batch_s", per_call(&|p| p.batch));
    let fwd = per_call(&|p| p.fwd.iter().sum());
    let bwd = per_call(&|p| p.bwd.iter().sum());
    out.set("nn.train_fwd_s", fwd);
    out.set("nn.train_bwd_s", bwd);
    out.set("nn.loss_s", per_call(&|p| p.loss));
    out.set("nn.opt_step_s", per_call(&|p| p.opt));
    out.set("nn.eval_fwd_s", per_call(&|p| p.eval_fwd));
    out.set("wire.upload_encode_s", per_call(&|p| p.encode));
    let train_flops: f64 = probes.iter().map(|p| p.train_flops).sum();
    out.set(
        "nn.train_gflops",
        train_flops / ((fwd + bwd) * n).max(1e-12) / 1e9,
    );
    for (i, path) in crate::metrics::node_paths().iter().enumerate() {
        out.set(
            &format!("nn.node.{path}.fwd_s"),
            per_call(&|p| p.fwd.get(i).copied().unwrap_or(0.0)),
        );
        out.set(
            &format!("nn.node.{path}.bwd_s"),
            per_call(&|p| p.bwd.get(i).copied().unwrap_or(0.0)),
        );
    }

    let selected: Vec<&ClientProbe> = probes.iter().filter(|p| p.selected).collect();
    if !selected.is_empty() {
        let m = selected.len() as f64;
        let mean = |f: &dyn Fn(&ClientProbe) -> f64| selected.iter().map(|p| f(p)).sum::<f64>() / m;
        out.set("agent.env_new_s", mean(&|p| p.env_new));
        out.set("graph.extract_s", mean(&|p| p.graph));
        out.set("agent.evaluate_s", mean(&|p| p.evaluate));
        out.set("pruning.project_s", mean(&|p| p.project));
        out.set("pruning.apply_s", mean(&|p| p.apply));
        out.set("pruning.salient_s", mean(&|p| p.salient));
        out.set("models.flops_s", mean(&|p| p.flops));
        let finetunes: Vec<f64> = probes.iter().filter_map(|p| p.finetune).collect();
        out.set(
            "agent.finetune_s",
            finetunes.iter().sum::<f64>() / finetunes.len().max(1) as f64,
        );
        let steps: Vec<f64> = probes.iter().filter_map(|p| p.env_step).collect();
        out.set(
            "agent.env_step_s",
            steps.iter().sum::<f64>() / steps.len().max(1) as f64,
        );
        out.set(
            "agent.env_steps",
            probes.iter().map(|p| p.env_steps).sum::<usize>() as f64,
        );
    }

    // Set-up layers.
    out.set("data.synth_s", trace::mean_secs(spans, "data.synth"));
    out.set(
        "data.partition_s",
        trace::mean_secs(spans, "data.partition"),
    );
    out.set("fl.sim_new_s", trace::mean_secs(spans, "fl.sim_new"));
    out.set("agent.pretrain_s", pretrain_probe(sim));

    // Kernel probes at the workload's largest conv GEMM.
    let model = &sim.clients[0].model;
    let c = &model.config;
    let batch = filled(&[BATCH, c.in_channels, c.input_hw, c.input_hw], 4);
    let (gflops, gbps) = kernel_probes(model, &batch);
    out.set("tensor.gemm_gflops", gflops);
    out.set("tensor.im2col_gbps", gbps);

    crate::replay::overhead_metrics(out);
}

/// Seconds of the agent pre-training `Simulation::new` runs, replayed
/// with the same public calls on a fresh model.
fn pretrain_probe(sim: &Simulation) -> f64 {
    let seed = sim.driver.cfg.seed;
    let model = model_config(seed).build();
    let val = sim.clients[0].val.clone();
    let t = Instant::now();
    let mut agent = ActorCritic::new(AgentConfig::default(), seed ^ 0xA9E27);
    let env = PruningEnv::new(model, val, 0.7);
    let mut rng = TensorRng::seed_from(seed ^ 0x77);
    pretrain_agent(&mut agent, &env, 3, 3, 3, &mut rng);
    secs(t)
}
