//! A GRU encoder–decoder baseline (no attention).
//!
//! The paper reports that the UniXcoder-based VEGA beats an RNN-based
//! variant by 35–78% in function accuracy; this model is the "RNN-based
//! VEGA" side of that ablation.

use crate::graph::{Graph, NodeId};
use crate::params::{Init, OutProjCache, ParamId, ParamStore};
use crate::seq2seq::Seq2Seq;
use crate::tensor::Tensor;
use std::sync::Arc;
use vega_obs::json::{Json, JsonError};

/// GRU hyperparameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GruConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Hidden width.
    pub d_model: usize,
    /// Maximum sequence length processed.
    pub max_len: usize,
    /// Weight-init seed.
    pub seed: u64,
}

impl GruConfig {
    /// Configuration matched in width to [`crate::TransformerConfig::small`].
    pub fn small(vocab: usize) -> Self {
        GruConfig {
            vocab,
            d_model: 64,
            max_len: 96,
            seed: 0x6B0,
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny(vocab: usize) -> Self {
        GruConfig {
            vocab,
            d_model: 16,
            max_len: 24,
            seed: 5,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct GruCell {
    pub(crate) wz: ParamId,
    pub(crate) bz: ParamId,
    pub(crate) wr: ParamId,
    pub(crate) br: ParamId,
    pub(crate) wh: ParamId,
    pub(crate) bh: ParamId,
}

fn pid_json(p: ParamId) -> Json {
    Json::num_usize(p.0)
}

fn pid_from(v: &Json) -> Result<ParamId, JsonError> {
    Ok(ParamId(v.as_usize()?))
}

impl GruCell {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("wz", pid_json(self.wz)),
            ("bz", pid_json(self.bz)),
            ("wr", pid_json(self.wr)),
            ("br", pid_json(self.br)),
            ("wh", pid_json(self.wh)),
            ("bh", pid_json(self.bh)),
        ])
    }

    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        Ok(GruCell {
            wz: pid_from(v.field("wz")?)?,
            bz: pid_from(v.field("bz")?)?,
            wr: pid_from(v.field("wr")?)?,
            br: pid_from(v.field("br")?)?,
            wh: pid_from(v.field("wh")?)?,
            bh: pid_from(v.field("bh")?)?,
        })
    }
}

/// GRU encoder–decoder with trainable parameters.
#[derive(Debug, Clone)]
pub struct GruSeq2Seq {
    /// Hyperparameters.
    pub cfg: GruConfig,
    pub(crate) store: ParamStore,
    pub(crate) emb: ParamId,
    pub(crate) enc: GruCell,
    pub(crate) dec: GruCell,
    pub(crate) w_out: ParamId,
    pub(crate) b_out: ParamId,
    /// Cached `w_out` transpose for the dot-form logits path (see
    /// [`crate::Transformer`]'s field of the same name).
    pub(crate) out_t: OutProjCache,
}

fn make_cell(store: &mut ParamStore, init: &mut Init, name: &str, d: usize) -> GruCell {
    GruCell {
        wz: store.add(format!("{name}.wz"), init.xavier(2 * d, d)),
        bz: store.add(format!("{name}.bz"), init.zeros(1, d)),
        wr: store.add(format!("{name}.wr"), init.xavier(2 * d, d)),
        br: store.add(format!("{name}.br"), init.zeros(1, d)),
        wh: store.add(format!("{name}.wh"), init.xavier(2 * d, d)),
        bh: store.add(format!("{name}.bh"), init.zeros(1, d)),
    }
}

fn cell_step(g: &mut Graph<'_>, cell: &GruCell, x: NodeId, h: NodeId) -> NodeId {
    let xin = g.concat_cols(x, h);
    let wz = g.param(cell.wz);
    let bz = g.param(cell.bz);
    let zlin = g.matmul(xin, wz, false);
    let zlin = g.add_row_broadcast(zlin, bz);
    let z = g.sigmoid(zlin);
    let wr = g.param(cell.wr);
    let br = g.param(cell.br);
    let rlin = g.matmul(xin, wr, false);
    let rlin = g.add_row_broadcast(rlin, br);
    let r = g.sigmoid(rlin);
    let rh = g.hadamard(r, h);
    let xrh = g.concat_cols(x, rh);
    let wh = g.param(cell.wh);
    let bh = g.param(cell.bh);
    let hlin = g.matmul(xrh, wh, false);
    let hlin = g.add_row_broadcast(hlin, bh);
    let hcand = g.tanh(hlin);
    // h' = (1 - z) ⊙ h + z ⊙ ĥ
    let negz = g.scale(z, -1.0);
    let one_minus_z = g.add_scalar(negz, 1.0);
    let keep = g.hadamard(one_minus_z, h);
    let new = g.hadamard(z, hcand);
    g.add(keep, new)
}

impl GruSeq2Seq {
    /// Initializes a GRU seq2seq model.
    pub fn new(cfg: GruConfig) -> Self {
        let mut store = ParamStore::new();
        let mut init = Init::new(cfg.seed);
        let d = cfg.d_model;
        let emb = store.add("emb", init.xavier(cfg.vocab, d));
        let enc = make_cell(&mut store, &mut init, "enc", d);
        let dec = make_cell(&mut store, &mut init, "dec", d);
        let w_out = store.add("w_out", init.xavier(d, cfg.vocab));
        let b_out = store.add("b_out", init.zeros(1, cfg.vocab));
        GruSeq2Seq {
            cfg,
            store,
            emb,
            enc,
            dec,
            w_out,
            b_out,
            out_t: OutProjCache::default(),
        }
    }

    /// Number of trainable scalars.
    pub fn num_params(&self) -> usize {
        self.store.num_scalars()
    }

    /// The output projection pre-transposed to `vocab × d` (see
    /// [`crate::Transformer::out_proj_t`]).
    pub(crate) fn out_proj_t(&self) -> Arc<Tensor> {
        self.out_t.get(&self.store, self.w_out)
    }

    /// Projects hidden rows to logits exactly as the incremental fast path
    /// does, including the dot-form branch (see
    /// [`crate::Transformer::project_rows`]).
    fn project_rows(&self, hs: &Tensor) -> Tensor {
        let w = self.store.value(self.w_out);
        let b = self.store.value(self.b_out);
        let wt = self.out_proj_t();
        let mut out = Tensor::zeros(hs.rows, self.cfg.vocab);
        for r in 0..hs.rows {
            crate::decode::project_logits_row(hs.row(r), w, &wt, b.as_slice(), out.row_mut(r));
        }
        out
    }

    /// Restores a model saved with [`Seq2Seq::save_json`].
    ///
    /// # Errors
    /// Returns an error if the JSON does not describe a GRU model.
    pub fn load_json(s: &str) -> Result<Self, JsonError> {
        Self::from_json_value(&Json::parse(s)?)
    }

    /// Scalars held in owned (heap) storage, as opposed to borrowed from a
    /// shared checkpoint mapping. Zero for a freshly mapped model; grows
    /// only when weights are mutated (copy-on-write).
    pub fn owned_scalars(&self) -> usize {
        self.store.owned_scalars()
    }

    /// Serializes to a JSON value for embedding in a larger document.
    pub fn to_json_value(&self) -> Json {
        self.to_json_with(self.store.to_json_value())
    }

    /// Like [`GruSeq2Seq::to_json_value`], but tensor data goes into `table`
    /// and the JSON holds only shapes and byte offsets (the `vega-ckpt/v2`
    /// binary layout).
    pub fn to_json_value_tabled(&self, table: &mut crate::storage::TensorTable) -> Json {
        let store = self.store.to_json_value_tabled(table);
        self.to_json_with(store)
    }

    fn to_json_with(&self, store: Json) -> Json {
        let cfg = Json::obj([
            ("vocab", Json::num_usize(self.cfg.vocab)),
            ("d_model", Json::num_usize(self.cfg.d_model)),
            ("max_len", Json::num_usize(self.cfg.max_len)),
            ("seed", Json::num_u64(self.cfg.seed)),
        ]);
        Json::obj([
            ("cfg", cfg),
            ("store", store),
            ("emb", pid_json(self.emb)),
            ("enc", self.enc.to_json_value()),
            ("dec", self.dec.to_json_value()),
            ("w_out", pid_json(self.w_out)),
            ("b_out", pid_json(self.b_out)),
        ])
    }

    /// Restores from [`GruSeq2Seq::to_json_value`] output.
    ///
    /// # Errors
    /// Returns an error if the value does not describe a GRU model.
    pub fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        let store = ParamStore::from_json_value(v.field("store")?)?;
        Self::from_json_with(v, store)
    }

    /// Restores from [`GruSeq2Seq::to_json_value_tabled`] output, reading
    /// tensor data straight out of `region` (shared, zero-copy where the
    /// platform allows).
    ///
    /// # Errors
    /// Returns an error if the value does not describe a tabled GRU model or
    /// a tensor entry falls outside the region.
    pub fn from_json_value_tabled(
        v: &Json,
        region: &std::sync::Arc<crate::storage::ByteRegion>,
        data_base: usize,
    ) -> Result<Self, JsonError> {
        let store = ParamStore::from_json_value_tabled(v.field("store")?, region, data_base)?;
        Self::from_json_with(v, store)
    }

    fn from_json_with(v: &Json, store: ParamStore) -> Result<Self, JsonError> {
        let c = v.field("cfg")?;
        let cfg = GruConfig {
            vocab: c.field("vocab")?.as_usize()?,
            d_model: c.field("d_model")?.as_usize()?,
            max_len: c.field("max_len")?.as_usize()?,
            seed: c.field("seed")?.as_u64()?,
        };
        let m = GruSeq2Seq {
            cfg,
            store,
            emb: pid_from(v.field("emb")?)?,
            enc: GruCell::from_json_value(v.field("enc")?)?,
            dec: GruCell::from_json_value(v.field("dec")?)?,
            w_out: pid_from(v.field("w_out")?)?,
            b_out: pid_from(v.field("b_out")?)?,
            out_t: OutProjCache::default(),
        };
        // Pre-transpose the output projection once at checkpoint load.
        let _ = m.out_proj_t();
        Ok(m)
    }

    fn encode(cell: &GruCell, emb: ParamId, g: &mut Graph<'_>, src: &[usize], d: usize) -> NodeId {
        let table = g.param(emb);
        let mut h = g.constant(Tensor::zeros(1, d));
        for &id in src {
            let x = g.embed(table, &[id]);
            h = cell_step(g, cell, x, h);
        }
        h
    }
}

impl Seq2Seq for GruSeq2Seq {
    fn train_pair(&mut self, src: &[usize], tgt_in: &[usize], tgt_out: &[usize]) -> f32 {
        let src = &src[..src.len().min(self.cfg.max_len)];
        let n = tgt_in.len().min(tgt_out.len()).min(self.cfg.max_len);
        let (tgt_in, tgt_out) = (&tgt_in[..n], &tgt_out[..n]);
        let me = self.clone_descriptors();
        let mut g = Graph::new(&mut self.store);
        let h = Self::encode(&me.0, me.1, &mut g, src, me.2);
        let logits = me.3.decode_logits_ref(&mut g, h, tgt_in);
        g.cross_entropy_backward(logits, tgt_out)
    }

    fn step(&mut self, lr: f32) {
        self.store.adam_step(lr);
    }

    fn take_grads(&mut self) -> Vec<Tensor> {
        self.store.take_grads()
    }

    fn merge_grads(&mut self, grads: &[Tensor]) {
        self.store.merge_grads(grads);
    }

    fn greedy(&mut self, src: &[usize], bos: usize, eos: usize, max_len: usize) -> Vec<usize> {
        let cap = max_len.min(self.cfg.max_len);
        let mut st = self.begin_decode(src);
        let mut out = vec![bos];
        let obs = vega_obs::global();
        while out.len() < cap {
            let t0 = std::time::Instant::now();
            let last = *out.last().expect("out starts with bos");
            let next = crate::seq2seq::argmax(st.step(last)).unwrap_or(eos);
            let dt = t0.elapsed().as_secs_f64();
            obs.observe("decode.step_seconds", dt);
            obs.counter_add("decode.tokens", 1);
            crate::decode::tally::bump(dt);
            if next == eos {
                break;
            }
            out.push(next);
            if crate::seq2seq::looks_degenerate(&out) {
                break;
            }
        }
        out.remove(0);
        out
    }

    fn save_json(&self) -> String {
        self.to_json_value().render()
    }

    fn forced_logprob(&mut self, src: &[usize], tgt_in: &[usize], tgt_out: &[usize]) -> f32 {
        self.begin_scoring(src).score(tgt_in, tgt_out)
    }
}

impl GruSeq2Seq {
    /// The pre-fast-path greedy decode: re-encodes `src` and re-runs the
    /// decoder over the whole prefix on a fresh autograd [`Graph`] for every
    /// emitted token. Kept as the reference implementation the equivalence
    /// suite compares the incremental [`Seq2Seq::greedy`] against.
    pub fn greedy_graph(
        &mut self,
        src: &[usize],
        bos: usize,
        eos: usize,
        max_len: usize,
    ) -> Vec<usize> {
        let src = src[..src.len().min(self.cfg.max_len)].to_vec();
        let me = self.clone_descriptors();
        let cap = max_len.min(self.cfg.max_len);
        let mut out = vec![bos];
        while out.len() < cap {
            let hs = {
                let mut g = Graph::new(&mut self.store);
                let h = Self::encode(&me.0, me.1, &mut g, &src, me.2);
                let hs = me.3.decode_hidden_ref(&mut g, h, &out);
                g.value(hs).clone()
            };
            let v = self.project_rows(&hs);
            let next = crate::seq2seq::argmax(v.row(v.rows - 1)).unwrap_or(eos);
            vega_obs::global().counter_add("decode.graph_tokens", 1);
            if next == eos {
                break;
            }
            out.push(next);
            if crate::seq2seq::looks_degenerate(&out) {
                break;
            }
        }
        out.remove(0);
        out
    }

    /// Graph-path teacher-forced log-probability (reference twin of the
    /// incremental [`Seq2Seq::forced_logprob`]; the two must agree bitwise).
    pub fn forced_logprob_graph(
        &mut self,
        src: &[usize],
        tgt_in: &[usize],
        tgt_out: &[usize],
    ) -> f32 {
        let src = &src[..src.len().min(self.cfg.max_len)];
        let n = tgt_in.len().min(tgt_out.len()).min(self.cfg.max_len);
        let (tgt_in, tgt_out) = (&tgt_in[..n], &tgt_out[..n]);
        let me = self.clone_descriptors();
        let hs = {
            let mut g = Graph::new(&mut self.store);
            let h = Self::encode(&me.0, me.1, &mut g, src, me.2);
            let hs = me.3.decode_hidden_ref(&mut g, h, tgt_in);
            g.value(hs).clone()
        };
        let probs = self.project_rows(&hs).softmax_rows();
        let mut lp = 0.0f32;
        for (r, &t) in tgt_out.iter().enumerate() {
            lp += probs.at(r, t).max(1e-12).ln();
        }
        lp
    }

    /// Graph-path logits for a full teacher-forced decode (see
    /// [`Transformer::logits_rows_graph`](crate::Transformer::logits_rows_graph)).
    pub fn logits_rows_graph(&mut self, src: &[usize], tgt_in: &[usize]) -> Tensor {
        let src = &src[..src.len().min(self.cfg.max_len)];
        let tgt_in = &tgt_in[..tgt_in.len().min(self.cfg.max_len)];
        let me = self.clone_descriptors();
        let hs = {
            let mut g = Graph::new(&mut self.store);
            let h = Self::encode(&me.0, me.1, &mut g, src, me.2);
            let hs = me.3.decode_hidden_ref(&mut g, h, tgt_in);
            g.value(hs).clone()
        };
        self.project_rows(&hs)
    }

    /// Graph-path forced decode twin of [`GruSeq2Seq::forced_steps`],
    /// re-running encoder and decoder from scratch per step exactly as the
    /// old greedy loop did.
    pub fn forced_steps_graph(&mut self, src: &[usize], feed: &[usize]) -> Vec<usize> {
        let src = src[..src.len().min(self.cfg.max_len)].to_vec();
        let feed = &feed[..feed.len().min(self.cfg.max_len)];
        let me = self.clone_descriptors();
        let mut out = Vec::with_capacity(feed.len());
        for i in 1..=feed.len() {
            let hs = {
                let mut g = Graph::new(&mut self.store);
                let h = Self::encode(&me.0, me.1, &mut g, &src, me.2);
                let hs = me.3.decode_hidden_ref(&mut g, h, &feed[..i]);
                g.value(hs).clone()
            };
            let v = self.project_rows(&hs);
            out.push(crate::seq2seq::argmax(v.row(v.rows - 1)).unwrap_or(0));
            vega_obs::global().counter_add("decode.graph_tokens", 1);
        }
        out
    }
}

/// Detached descriptors mirroring [`GruSeq2Seq`] minus the store.
struct GruRef {
    emb: ParamId,
    dec: GruCell,
    w_out: ParamId,
    b_out: ParamId,
}

impl GruRef {
    fn decode_logits_ref(&self, g: &mut Graph<'_>, mut h: NodeId, tgt_in: &[usize]) -> NodeId {
        let table = g.param(self.emb);
        let w_out = g.param(self.w_out);
        let b_out = g.param(self.b_out);
        let mut rows = Vec::with_capacity(tgt_in.len());
        for &id in tgt_in {
            let x = g.embed(table, &[id]);
            h = cell_step(g, &self.dec, x, h);
            let logit = g.matmul(h, w_out, false);
            rows.push(g.add_row_broadcast(logit, b_out));
        }
        g.concat_rows(&rows)
    }

    /// The decoder hidden state after each fed token, *without* the output
    /// projection — the twins take these rows out of the graph and project
    /// them through [`GruSeq2Seq::project_rows`] so they branch on the same
    /// dot-form predicate the incremental fast path uses. Training keeps
    /// [`GruRef::decode_logits_ref`] (the projection must live on the tape
    /// for backprop).
    fn decode_hidden_ref(&self, g: &mut Graph<'_>, mut h: NodeId, tgt_in: &[usize]) -> NodeId {
        let table = g.param(self.emb);
        let mut rows = Vec::with_capacity(tgt_in.len());
        for &id in tgt_in {
            let x = g.embed(table, &[id]);
            h = cell_step(g, &self.dec, x, h);
            rows.push(h);
        }
        g.concat_rows(&rows)
    }
}

impl GruSeq2Seq {
    fn clone_descriptors(&self) -> (GruCell, ParamId, usize, GruRef) {
        (
            self.enc.clone(),
            self.emb,
            self.cfg.d_model,
            GruRef {
                emb: self.emb,
                dec: self.dec.clone(),
                w_out: self.w_out,
                b_out: self.b_out,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq2seq::train_until;

    #[test]
    fn learns_a_tiny_mapping() {
        let mut m = GruSeq2Seq::new(GruConfig::tiny(8));
        let pairs = vec![(vec![2usize, 3], vec![3usize]), (vec![4, 5], vec![5])];
        let loss = train_until(&mut m, &pairs, 0, 1, 400, 5e-3, 0.05);
        assert!(loss < 0.3, "gru did not converge: {loss}");
        assert_eq!(m.greedy(&[2, 3], 0, 1, 4), vec![3]);
    }

    #[test]
    fn save_load_roundtrip() {
        let mut m = GruSeq2Seq::new(GruConfig::tiny(8));
        let json = m.save_json();
        let mut m2 = GruSeq2Seq::load_json(&json).unwrap();
        assert_eq!(m.greedy(&[2], 0, 1, 4), m2.greedy(&[2], 0, 1, 4));
        assert_eq!(m.num_params(), m2.num_params());
    }
}
