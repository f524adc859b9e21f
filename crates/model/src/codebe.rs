//! CodeBE: the pre-trained sequence model behind VEGA (paper §3.3).
//!
//! The paper fine-tunes UniXcoder; we (1) *pre-train* a from-scratch
//! transformer with a denoising objective over corpus code — the analog of
//! starting from a code-pretrained checkpoint — and (2) *fine-tune* it on
//! `(feature vector → statement)` pairs. A GRU variant and a no-pretraining
//! variant support the paper's model ablation.

use crate::backend::{BackendHandle, DecodeAbort};
use crate::vocab::{Special, Vocab};
use std::sync::Arc;
use std::time::Instant;
use vega_nn::{
    BatchDecode, GruConfig, GruSeq2Seq, ScoreSession, Seq2Seq, Transformer, TransformerConfig,
};
use vega_obs::json::{Json, JsonError};
use vega_obs::{CurvePoint, TrainingCurve};

/// Which architecture backs CodeBE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelChoice {
    /// Encoder–decoder transformer (the CodeBE default).
    Transformer,
    /// GRU seq2seq — the "RNN-based VEGA" ablation arm.
    Gru,
}

#[derive(Debug, Clone)]
enum ModelKind {
    Transformer(Transformer),
    Gru(GruSeq2Seq),
}

impl ModelKind {
    fn as_seq2seq(&mut self) -> &mut dyn Seq2Seq {
        match self {
            ModelKind::Transformer(t) => t,
            ModelKind::Gru(g) => g,
        }
    }
}

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Denoising pre-training steps (0 = no pre-training, the ablation arm).
    pub pretrain_steps: usize,
    /// Fine-tuning epochs over the paired data.
    pub finetune_epochs: usize,
    /// Learning rate (the paper uses 6e-5 at 125M parameters; this scale
    /// wants more).
    pub lr: f32,
    /// Shuffling/masking seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            pretrain_steps: 600,
            finetune_epochs: 36,
            lr: 2e-3,
            seed: 1,
        }
    }
}

impl TrainConfig {
    /// Tiny settings for unit tests.
    pub fn tiny() -> Self {
        TrainConfig {
            pretrain_steps: 0,
            finetune_epochs: 20,
            lr: 3e-3,
            seed: 1,
        }
    }
}

/// The CodeBE model: vocabulary plus sequence model.
#[derive(Debug, Clone)]
pub struct CodeBe {
    /// The shared subword vocabulary.
    pub vocab: Vocab,
    model: ModelKind,
    /// Per-epoch telemetry from the most recent [`CodeBe::finetune`] call
    /// (not serialized).
    curve: TrainingCurve,
    /// Optional decode backend: when set, [`CodeBe::try_generate`] and
    /// [`CodeBe::try_sequence_logprob`] route through it instead of running
    /// the in-process incremental path (not serialized; clones share it).
    backend: Option<BackendHandle>,
    /// Optional speculative-decoding draft: a cheap GRU that proposes tokens
    /// the transformer verifies in multi-position passes
    /// ([`vega_nn::speculative_greedy`]). `None` or depth 0 means plain
    /// greedy. Not serialized; clones share the draft weights via the `Arc`.
    draft: Option<Arc<GruSeq2Seq>>,
    /// Speculation depth k (tokens drafted per verifier pass).
    spec_depth: usize,
}

/// A decode session over one input, opened by [`CodeBe::begin_session`].
pub struct ModelSession<'a> {
    inner: SessionInner<'a>,
    bos: usize,
    eos: usize,
}

/// Where a session's calls go. One lives on the stack per open session,
/// so the variants' size difference is not worth a `Box`.
#[allow(clippy::large_enum_variant)]
enum SessionInner<'a> {
    Local(ScoreSession<'a>),
    Backend {
        backend: &'a BackendHandle,
        input: Vec<usize>,
    },
}

impl ModelSession<'_> {
    /// The first token greedy generation emits for the session's input —
    /// the first token of `try_generate(input, 2, deadline)`, `None` when
    /// that is empty. In template-guided generation this is the statement's
    /// confidence score token.
    ///
    /// # Errors
    /// Returns [`DecodeAbort`] only when a backend is installed and aborts.
    pub fn try_head(&mut self, deadline: Option<Instant>) -> Result<Option<usize>, DecodeAbort> {
        match &mut self.inner {
            SessionInner::Local(s) => Ok(s.head(self.bos, self.eos)),
            SessionInner::Backend { backend, input } => Ok(backend
                .backend()
                .generate(input, 2, deadline)?
                .first()
                .copied()),
        }
    }

    /// Log-probability of the model emitting `output` for the session's
    /// input; bit-identical to [`CodeBe::try_sequence_logprob`].
    ///
    /// # Errors
    /// Returns [`DecodeAbort`] only when a backend is installed and aborts.
    pub fn try_sequence_logprob(
        &mut self,
        output: &[usize],
        deadline: Option<Instant>,
    ) -> Result<f32, DecodeAbort> {
        match &mut self.inner {
            SessionInner::Local(s) => Ok(s.score_sequence(output, self.bos, self.eos)),
            SessionInner::Backend { backend, input } => {
                backend.backend().sequence_logprob(input, output, deadline)
            }
        }
    }
}

/// Deterministic shuffling/masking RNG (splitmix64, private copy).
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
    fn chance(&mut self, p: f64) -> bool {
        (self.next() as f64 / u64::MAX as f64) < p
    }
}

impl CodeBe {
    /// Creates a transformer-backed CodeBE with the given width scale.
    pub fn transformer(
        vocab: Vocab,
        cfg_for_vocab: impl FnOnce(usize) -> TransformerConfig,
    ) -> Self {
        let cfg = cfg_for_vocab(vocab.len());
        CodeBe {
            vocab,
            model: ModelKind::Transformer(Transformer::new(cfg)),
            curve: TrainingCurve::new(),
            backend: None,
            draft: None,
            spec_depth: 0,
        }
    }

    /// Creates a GRU-backed CodeBE (ablation).
    pub fn gru(vocab: Vocab, cfg_for_vocab: impl FnOnce(usize) -> GruConfig) -> Self {
        let cfg = cfg_for_vocab(vocab.len());
        CodeBe {
            vocab,
            model: ModelKind::Gru(GruSeq2Seq::new(cfg)),
            curve: TrainingCurve::new(),
            backend: None,
            draft: None,
            spec_depth: 0,
        }
    }

    /// Per-epoch loss/lr/throughput telemetry recorded by the most recent
    /// [`CodeBe::finetune`] call (empty before the first call).
    pub fn training_curve(&self) -> &TrainingCurve {
        &self.curve
    }

    /// The maximum input sequence length the underlying architecture was
    /// sized for — checkpoints trained at one scale must not silently serve
    /// longer inputs, so loaders validate against this.
    pub fn max_len(&self) -> usize {
        match &self.model {
            ModelKind::Transformer(t) => t.cfg.max_len,
            ModelKind::Gru(g) => g.cfg.max_len,
        }
    }

    /// Short architecture name (`"transformer"` or `"gru"`), for checkpoint
    /// metadata and load-time diagnostics.
    pub fn arch_name(&self) -> &'static str {
        match &self.model {
            ModelKind::Transformer(_) => "transformer",
            ModelKind::Gru(_) => "gru",
        }
    }

    /// Denoising pre-training: mask ~30% of pieces, reconstruct the original.
    /// Returns the running loss at the end.
    pub fn pretrain(&mut self, sequences: &[Vec<usize>], steps: usize, lr: f32, seed: u64) -> f32 {
        if sequences.is_empty() || steps == 0 {
            return 0.0;
        }
        let span = vega_obs::global().span("pretrain");
        let mask_id = self.vocab.special(Special::Mask);
        let bos = self.vocab.special(Special::Bos);
        let eos = self.vocab.special(Special::Eos);
        let mut rng = Rng(seed ^ 0xDEC0DE);
        let mut running = f32::NAN;
        // Sample the running loss every CURVE_EVERY steps as pseudo-epochs.
        const CURVE_EVERY: usize = 20;
        let t0 = std::time::Instant::now();
        let mut last_sample = 0.0f64;
        for step in 0..steps {
            let seq = &sequences[rng.below(sequences.len())];
            if seq.is_empty() {
                continue;
            }
            let corrupted: Vec<usize> = seq
                .iter()
                .map(|&id| if rng.chance(0.3) { mask_id } else { id })
                .collect();
            let loss = self
                .model
                .as_seq2seq()
                .train_example(&corrupted, seq, bos, eos);
            self.model.as_seq2seq().step(lr);
            running = if running.is_nan() {
                loss
            } else {
                0.95 * running + 0.05 * loss
            };
            if (step + 1) % CURVE_EVERY == 0 {
                let now = t0.elapsed().as_secs_f64();
                vega_obs::global().curve_point(
                    "pretrain",
                    CurvePoint {
                        epoch: step / CURVE_EVERY,
                        loss: running,
                        lr,
                        examples: CURVE_EVERY,
                        seconds: now - last_sample,
                    },
                );
                last_sample = now;
            }
        }
        let _ = span.finish();
        running
    }

    /// Fine-tunes on `(input, output)` id sequences for the configured number
    /// of epochs, shuffling each epoch. Returns the mean loss of the final
    /// epoch.
    ///
    /// Micro-batches are data-parallel: each micro-batch is split into
    /// gradient shards of a fixed size, every shard trains on a cloned
    /// replica (possibly on a `vega-par` worker), and the shard gradients
    /// are merged in shard-index order before the single Adam step. Because
    /// the shard structure and merge order never depend on the thread count,
    /// loss curves and final weights are bit-identical for any
    /// `VEGA_THREADS`, including 1.
    pub fn finetune(&mut self, pairs: &[(Vec<usize>, Vec<usize>)], cfg: &TrainConfig) -> f32 {
        if pairs.is_empty() {
            return 0.0;
        }
        let span = vega_obs::global().span("finetune");
        let bos = self.vocab.special(Special::Bos);
        let eos = self.vocab.special(Special::Eos);
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        let mut rng = Rng(cfg.seed ^ 0xF17E);
        let mut last_epoch_loss = 0.0;
        self.curve = TrainingCurve::new();
        const MICRO_BATCH: usize = 8;
        /// Examples per gradient shard — a constant so the f32 reduction
        /// tree is fixed by the data, not by the machine.
        const GRAD_SHARD: usize = 2;
        for epoch in 0..cfg.finetune_epochs {
            let epoch_start = std::time::Instant::now();
            // Inverse-decay schedule smooths late epochs.
            let lr = cfg.lr / (1.0 + 0.04 * epoch as f32);
            // Fisher-Yates shuffle.
            for i in (1..order.len()).rev() {
                let j = rng.below(i + 1);
                order.swap(i, j);
            }
            let mut sum = 0.0f32;
            for batch in order.chunks(MICRO_BATCH) {
                let shards: Vec<&[usize]> = batch.chunks(GRAD_SHARD).collect();
                let model_ref = &self.model;
                let sharded: Vec<(f32, Vec<vega_nn::Tensor>)> =
                    vega_par::par_map_slice(&shards, |_, shard| {
                        let mut replica = model_ref.clone();
                        let s2s = replica.as_seq2seq();
                        let mut loss = 0.0f32;
                        for &i in shard.iter() {
                            let (src, tgt) = &pairs[i];
                            loss += s2s.train_example(src, tgt, bos, eos);
                        }
                        (loss, s2s.take_grads())
                    });
                // Merge in shard order, then one Adam step per micro-batch.
                for (loss, grads) in &sharded {
                    sum += loss;
                    self.model.as_seq2seq().merge_grads(grads);
                }
                self.model.as_seq2seq().step(lr);
            }
            last_epoch_loss = sum / pairs.len() as f32;
            let point = CurvePoint {
                epoch,
                loss: last_epoch_loss,
                lr,
                examples: pairs.len(),
                seconds: epoch_start.elapsed().as_secs_f64(),
            };
            self.curve.push(point);
            vega_obs::global().curve_point("finetune", point);
        }
        let _ = span.finish();
        last_epoch_loss
    }

    /// Installs (or with `None`, removes) a decode backend. See the
    /// [`crate::backend`] module docs: backends must be bit-identical to the
    /// local path; clones made after this call share the handle.
    pub fn set_decode_backend(&mut self, backend: Option<BackendHandle>) {
        self.backend = backend;
    }

    /// Whether a decode backend is installed.
    pub fn has_decode_backend(&self) -> bool {
        self.backend.is_some()
    }

    /// A clone of the installed decode backend handle, if any. Callers that
    /// want several decode calls in flight at once (the serve-side `score`
    /// op fanning candidates into a batching broker) clone the handle and
    /// call it from their own threads instead of serializing on `&mut self`.
    pub fn backend_handle(&self) -> Option<BackendHandle> {
        self.backend.clone()
    }

    /// Installs (or with `None`, removes) a speculative-decoding draft model
    /// with depth `k` tokens per verifier pass. The draft must share this
    /// model's vocabulary (same subword table) — drafts are only consulted
    /// for *proposals*, so a mismatched draft degrades throughput, never
    /// correctness. Speculation applies to [`CodeBe::try_generate`] on a
    /// transformer model without a decode backend (not to
    /// [`ModelSession::try_head`], so in stage 3 only the signature decode
    /// speculates and the `spec.*` counters cover it alone); every other combination
    /// degrades gracefully to plain greedy with a logged warning (mirroring
    /// `VEGA_KERNEL=avx2` on a non-AVX2 CPU).
    pub fn set_speculative(&mut self, draft: Option<Arc<GruSeq2Seq>>, k: usize) {
        self.draft = draft;
        self.spec_depth = k;
    }

    /// The configured speculation depth, or 0 when speculation is off
    /// (no draft installed or depth 0).
    pub fn speculation_depth(&self) -> usize {
        if self.draft.is_some() {
            self.spec_depth
        } else {
            0
        }
    }

    /// The underlying GRU when this CodeBE is GRU-backed — how a serve
    /// process turns a small GRU checkpoint into a speculation draft for a
    /// transformer model.
    pub fn gru_model(&self) -> Option<&GruSeq2Seq> {
        match &self.model {
            ModelKind::Gru(g) => Some(g),
            ModelKind::Transformer(_) => None,
        }
    }

    /// Consumes this CodeBE and returns its GRU, if GRU-backed.
    pub fn into_gru(self) -> Option<GruSeq2Seq> {
        match self.model {
            ModelKind::Gru(g) => Some(g),
            ModelKind::Transformer(_) => None,
        }
    }

    /// Greedy generation for an input id sequence.
    ///
    /// # Panics
    /// Panics if an installed decode backend aborts; use
    /// [`CodeBe::try_generate`] to observe deadline expiry.
    pub fn generate(&mut self, input: &[usize], max_len: usize) -> Vec<usize> {
        self.try_generate(input, max_len, None)
            .expect("decode backend aborted a deadline-free generate")
    }

    /// Greedy generation with an optional deadline, honored at token
    /// boundaries when a decode backend is installed. Without a backend the
    /// in-process path runs to completion and never aborts (generation of a
    /// single function is short; deadlines are enforced by the callers that
    /// install backends).
    ///
    /// # Errors
    /// Returns [`DecodeAbort::Expired`] when the backend stopped at the
    /// deadline, [`DecodeAbort::Broken`] when the backend itself failed.
    pub fn try_generate(
        &mut self,
        input: &[usize],
        max_len: usize,
        deadline: Option<Instant>,
    ) -> Result<Vec<usize>, DecodeAbort> {
        if let Some(b) = &self.backend {
            return b.backend().generate(input, max_len, deadline);
        }
        let bos = self.vocab.special(Special::Bos);
        let eos = self.vocab.special(Special::Eos);
        if let Some(draft) = &self.draft {
            if self.spec_depth > 0 {
                match &self.model {
                    ModelKind::Transformer(t) => {
                        // Exact by construction: the stream is bit-identical
                        // to the plain greedy branch below.
                        let (out, _report) = vega_nn::speculative_greedy(
                            t,
                            draft,
                            input,
                            bos,
                            eos,
                            max_len,
                            self.spec_depth,
                        );
                        return Ok(out);
                    }
                    ModelKind::Gru(_) => {
                        // A GRU drafting for a GRU verifier has nothing to
                        // amortize (no multi-position KV prefill); warn once
                        // and serve plain greedy.
                        static WARNED: std::sync::Once = std::sync::Once::new();
                        WARNED.call_once(|| {
                            vega_obs::global().event(
                                vega_obs::Level::Warn,
                                "speculative decoding requires a transformer verifier; \
                                 GRU model falls back to plain greedy",
                            );
                        });
                    }
                }
            }
        }
        Ok(self.model.as_seq2seq().greedy(input, bos, eos, max_len))
    }

    /// Log-probability of the model emitting `output` for `input` —
    /// the scoring primitive behind template-guided decoding.
    ///
    /// # Panics
    /// Panics if an installed decode backend aborts; use
    /// [`CodeBe::try_sequence_logprob`] to observe deadline expiry.
    pub fn sequence_logprob(&mut self, input: &[usize], output: &[usize]) -> f32 {
        self.try_sequence_logprob(input, output, None)
            .expect("decode backend aborted a deadline-free logprob")
    }

    /// Forced-sequence log-probability with an optional deadline; deadline
    /// semantics match [`CodeBe::try_generate`]. A one-candidate
    /// [`CodeBe::begin_session`].
    ///
    /// # Errors
    /// Returns [`DecodeAbort`] only when a backend is installed and aborts.
    pub fn try_sequence_logprob(
        &mut self,
        input: &[usize],
        output: &[usize],
        deadline: Option<Instant>,
    ) -> Result<f32, DecodeAbort> {
        self.begin_session(input)
            .try_sequence_logprob(output, deadline)
    }

    /// Opens a decode session over `input`: one encoder pass serves the
    /// greedy head ([`ModelSession::try_head`]) and every candidate scoring
    /// ([`ModelSession::try_sequence_logprob`]) of that input, with shared
    /// candidate prefixes decoded once (see [`vega_nn::ScoreSession`]).
    /// Results are bit-identical to calling [`CodeBe::try_generate`] and
    /// [`CodeBe::try_sequence_logprob`] separately. With a decode backend
    /// installed, the session forwards each call to the backend unchanged.
    pub fn begin_session(&self, input: &[usize]) -> ModelSession<'_> {
        let inner = match (&self.backend, &self.model) {
            (Some(backend), _) => SessionInner::Backend {
                backend,
                input: input.to_vec(),
            },
            (None, ModelKind::Transformer(t)) => SessionInner::Local(t.begin_scoring(input)),
            (None, ModelKind::Gru(g)) => SessionInner::Local(g.begin_scoring(input)),
        };
        ModelSession {
            inner,
            bos: self.vocab.special(Special::Bos),
            eos: self.vocab.special(Special::Eos),
        }
    }

    /// Starts a batch of `capacity` incremental decode slots over this
    /// model's weights (see [`vega_nn::BatchDecode`]): per-slot logits are
    /// bit-identical to the single-session decode path at any batch
    /// composition. The batch borrows the weights, so the model is
    /// immutable while it lives.
    pub fn begin_batch_decode(&self, capacity: usize) -> Box<dyn BatchDecode + '_> {
        match &self.model {
            ModelKind::Transformer(t) => Box::new(t.begin_batch_decode(capacity)),
            ModelKind::Gru(g) => Box::new(g.begin_batch_decode(capacity)),
        }
    }

    /// Exact-match rate over a verification set (the paper reports 99.03%).
    pub fn exact_match(&mut self, pairs: &[(Vec<usize>, Vec<usize>)], max_len: usize) -> f64 {
        if pairs.is_empty() {
            return 1.0;
        }
        let hits = pairs
            .iter()
            .filter(|(src, tgt)| &self.generate(src, max_len) == tgt)
            .count();
        hits as f64 / pairs.len() as f64
    }

    /// Serializes vocabulary and weights to JSON. The model is externally
    /// tagged by architecture: `{"vocab":{...},"model":{"Transformer":{...}}}`.
    pub fn save_json(&self) -> String {
        let model = match &self.model {
            ModelKind::Transformer(t) => Json::obj([("Transformer", t.to_json_value())]),
            ModelKind::Gru(g) => Json::obj([("Gru", g.to_json_value())]),
        };
        Json::obj([("vocab", self.vocab.to_json_value()), ("model", model)]).render()
    }

    /// Scalars held in owned (heap) storage rather than borrowed from a
    /// shared checkpoint mapping. Zero right after a v2 binary load; any
    /// weight mutation (training) copies the touched tensors out.
    pub fn owned_scalars(&self) -> usize {
        match &self.model {
            ModelKind::Transformer(t) => t.owned_scalars(),
            ModelKind::Gru(g) => g.owned_scalars(),
        }
    }

    /// Renders the `vega-ckpt/v2` header JSON: same shape as
    /// [`CodeBe::save_json`], but every tensor is an `{rows, cols, off}`
    /// descriptor whose data went into `table`.
    pub(crate) fn header_json_tabled(&self, table: &mut vega_nn::TensorTable) -> String {
        let model = match &self.model {
            ModelKind::Transformer(t) => {
                Json::obj([("Transformer", t.to_json_value_tabled(table))])
            }
            ModelKind::Gru(g) => Json::obj([("Gru", g.to_json_value_tabled(table))]),
        };
        Json::obj([("vocab", self.vocab.to_json_value()), ("model", model)]).render()
    }

    /// Rebuilds a model from a `vega-ckpt/v2` header, borrowing tensor data
    /// from `region` (the mapped checkpoint) starting at `data_base`.
    pub(crate) fn from_header_tabled(
        v: &Json,
        region: &std::sync::Arc<vega_nn::ByteRegion>,
        data_base: usize,
    ) -> Result<Self, JsonError> {
        let vocab = Vocab::from_json_value(v.field("vocab")?)?;
        let m = v.field("model")?;
        let model = if let Ok(t) = m.field("Transformer") {
            ModelKind::Transformer(Transformer::from_json_value_tabled(t, region, data_base)?)
        } else if let Ok(g) = m.field("Gru") {
            ModelKind::Gru(GruSeq2Seq::from_json_value_tabled(g, region, data_base)?)
        } else {
            return Err(JsonError {
                msg: "unknown model kind".into(),
            });
        };
        Ok(CodeBe {
            vocab,
            model,
            curve: TrainingCurve::new(),
            backend: None,
            draft: None,
            spec_depth: 0,
        })
    }

    /// Restores a model saved with [`CodeBe::save_json`].
    ///
    /// # Errors
    /// Returns an error if the JSON does not describe a CodeBE model.
    pub fn load_json(s: &str) -> Result<Self, JsonError> {
        let v = Json::parse(s)?;
        let vocab = Vocab::from_json_value(v.field("vocab")?)?;
        let m = v.field("model")?;
        let model = if let Ok(t) = m.field("Transformer") {
            ModelKind::Transformer(Transformer::from_json_value(t)?)
        } else if let Ok(g) = m.field("Gru") {
            ModelKind::Gru(GruSeq2Seq::from_json_value(g)?)
        } else {
            return Err(JsonError {
                msg: "unknown model kind".into(),
            });
        };
        Ok(CodeBe {
            vocab,
            model,
            curve: TrainingCurve::new(),
            backend: None,
            draft: None,
            spec_depth: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subtok::tokens_to_pieces;
    use vega_cpplite::lex;

    fn tiny_codebe(samples: &[&str]) -> (CodeBe, Vec<Vec<usize>>) {
        let mut all_pieces: Vec<String> = Vec::new();
        let mut seqs = Vec::new();
        for s in samples {
            let toks = lex(s).unwrap();
            all_pieces.extend(tokens_to_pieces(&toks));
        }
        let vocab = Vocab::build(all_pieces.iter().map(String::as_str));
        for s in samples {
            let toks = lex(s).unwrap();
            seqs.push(vocab.encode_pieces(&tokens_to_pieces(&toks)));
        }
        (CodeBe::transformer(vocab, TransformerConfig::tiny), seqs)
    }

    #[test]
    fn finetune_memorizes_small_mapping() {
        let (mut m, seqs) = tiny_codebe(&["x = 1;", "return x;"]);
        let pairs: Vec<(Vec<usize>, Vec<usize>)> = vec![
            (seqs[0].clone(), seqs[1].clone()),
            (seqs[1].clone(), seqs[0].clone()),
        ];
        let mut cfg = TrainConfig::tiny();
        cfg.finetune_epochs = 900; // micro-batched: one step per epoch here
        let loss = m.finetune(&pairs, &cfg);
        assert!(loss < 0.25, "loss {loss}");
        let out = m.generate(&seqs[0], 16);
        assert_eq!(
            m.vocab.decode_spellings(&out),
            m.vocab.decode_spellings(&seqs[1])
        );
        assert!(m.exact_match(&pairs, 16) > 0.4);
    }

    #[test]
    fn finetune_records_one_curve_point_per_epoch() {
        let (mut m, seqs) = tiny_codebe(&["x = 1;", "return x;"]);
        let pairs = vec![(seqs[0].clone(), seqs[1].clone())];
        let mut cfg = TrainConfig::tiny();
        cfg.finetune_epochs = 5;
        assert!(m.training_curve().is_empty());
        let loss = m.finetune(&pairs, &cfg);
        let curve = m.training_curve();
        assert_eq!(curve.len(), 5);
        assert_eq!(curve.final_loss(), Some(loss));
        for (i, p) in curve.points.iter().enumerate() {
            assert_eq!(p.epoch, i);
            assert_eq!(p.examples, pairs.len());
            assert!(p.lr > 0.0 && p.lr <= cfg.lr);
        }
        // The inverse-decay schedule makes lr strictly decreasing.
        assert!(curve.points.windows(2).all(|w| w[1].lr < w[0].lr));
    }

    #[test]
    fn pretrain_runs_and_reduces_loss() {
        let (mut m, seqs) = tiny_codebe(&["return Value & 255;", "return Value;"]);
        let final_loss = m.pretrain(&seqs, 120, 3e-3, 9);
        assert!(final_loss.is_finite());
        assert!(final_loss < 4.0, "denoising loss {final_loss}");
    }

    #[test]
    fn save_load_roundtrip() {
        let (mut m, seqs) = tiny_codebe(&["x = 1;"]);
        let json = m.save_json();
        let mut m2 = CodeBe::load_json(&json).unwrap();
        assert_eq!(m.generate(&seqs[0], 8), m2.generate(&seqs[0], 8));
        // Architecture metadata survives the round trip.
        assert_eq!(m2.arch_name(), "transformer");
        assert_eq!(m2.max_len(), m.max_len());
        assert_eq!(m2.vocab.len(), m.vocab.len());
    }

    #[test]
    fn gru_variant_trains() {
        let toks = lex("a = 1; b = 2;").unwrap();
        let vocab = Vocab::build(tokens_to_pieces(&toks).iter().map(String::as_str));
        let seq = vocab.encode_pieces(&tokens_to_pieces(&lex("a = 1;").unwrap()));
        let mut m = CodeBe::gru(vocab, GruConfig::tiny);
        let pairs = vec![(seq.clone(), seq.clone())];
        let mut cfg = TrainConfig::tiny();
        cfg.finetune_epochs = 80;
        let loss = m.finetune(&pairs, &cfg);
        assert!(loss.is_finite());
    }
}
