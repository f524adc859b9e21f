//! Encode-once scoring sessions (template-guided generation's hot path).
//!
//! Stage 3 asks one statement context several questions: the greedy head
//! (the first decoded token is the confidence score) and then the
//! log-probability of every candidate realization of the statement's slots.
//! All of them share the same encoder input, and every candidate shares the
//! `[bos, score]` prefix plus whatever pattern tokens precede the slot being
//! chosen. A [`ScoreSession`] answers all of them from **one** encoder pass:
//!
//! * the encoder output and the cross-attention K/V are computed once, when
//!   the session opens ([`Transformer::begin_scoring`] /
//!   [`GruSeq2Seq::begin_scoring`]);
//! * the decoder keeps the tokens it has been fed; a candidate reuses the
//!   longest common prefix with them, rolls the decoder back to it
//!   ([`DecodeState::truncate`], or a saved GRU hidden state) and feeds only
//!   its own suffix ([`DecodeState::step_many`]);
//! * each fed position keeps its softmaxed logits row, so a reused position
//!   costs one lookup.
//!
//! # Bit-identity
//!
//! A session's answers are bit-identical to the per-call primitives they
//! replace. Row `r` of the decoder depends only on the tokens at positions
//! `0..=r`: `step_many` rows are pinned equal to repeated `step` calls
//! (`spec_equivalence`), and re-feeding after a rollback reproduces the
//! sequential bits. A row computed for one candidate is therefore the row
//! any other candidate with the same prefix would compute. The score sums
//! `ln(max(p, 1e-12))` over positions in order from position 0, exactly as
//! `forced_logprob` always has, so the f32 sum is the same too.
//! [`Seq2Seq::forced_logprob`](crate::Seq2Seq::forced_logprob) is itself a
//! one-candidate session, so there is one scoring implementation.

use crate::decode::{softmax_row, tally, DecodeState, GruDecodeState};
use crate::gru::GruSeq2Seq;
use crate::seq2seq::{argmax, frame};
use crate::transformer::Transformer;
use std::time::Instant;

/// The incremental decoder a session drives. One lives on the stack per
/// open session, so the variants' size difference costs nothing a `Box`
/// (an allocation per session) would save.
#[allow(clippy::large_enum_variant)]
enum Decoder<'m> {
    Transformer(DecodeState<'m>),
    /// The GRU state plus its hidden state after every fed prefix
    /// (`hidden[i * d..(i + 1) * d]` after `i` tokens), the recurrent form
    /// of a rollback point per position.
    Gru {
        st: GruDecodeState<'m>,
        hidden: Vec<f32>,
    },
}

/// One encoder pass serving many teacher-forced scorings of the same input.
/// Open with [`Transformer::begin_scoring`] or [`GruSeq2Seq::begin_scoring`].
pub struct ScoreSession<'m> {
    dec: Decoder<'m>,
    max_len: usize,
    vocab: usize,
    /// Tokens the decoder has consumed, in position order.
    fed: Vec<usize>,
    /// The softmaxed logits row of every fed position (`fed.len() × vocab`).
    probs: Vec<f32>,
    /// Argmax of position 0's raw logits row (the greedy head).
    first_argmax: Option<usize>,
}

impl Transformer {
    /// Opens a scoring session over `src` (clamped to `max_len`): one
    /// encoder pass and one cross-attention K/V projection serve every
    /// later [`ScoreSession::head`] and [`ScoreSession::score`] call.
    pub fn begin_scoring(&self, src: &[usize]) -> ScoreSession<'_> {
        ScoreSession::new(
            Decoder::Transformer(self.begin_decode(src)),
            self.cfg.max_len,
            self.cfg.vocab,
        )
    }
}

impl GruSeq2Seq {
    /// Opens a scoring session over `src` (see
    /// [`Transformer::begin_scoring`]).
    pub fn begin_scoring(&self, src: &[usize]) -> ScoreSession<'_> {
        let st = self.begin_decode(src);
        let hidden = st.hidden().to_vec();
        ScoreSession::new(
            Decoder::Gru { st, hidden },
            self.cfg.max_len,
            self.cfg.vocab,
        )
    }
}

impl<'m> ScoreSession<'m> {
    fn new(dec: Decoder<'m>, max_len: usize, vocab: usize) -> Self {
        ScoreSession {
            dec,
            max_len,
            vocab,
            fed: Vec::with_capacity(max_len),
            probs: Vec::new(),
            first_argmax: None,
        }
    }

    /// The first token greedy decoding emits — what
    /// `greedy(src, bos, eos, 2)` returns (`bos` counts toward that length,
    /// so it emits at most one token): `None` when the model would emit
    /// `eos` first or its `max_len` leaves no room for a token.
    ///
    /// The step that feeds `bos` is a decode step: it bumps
    /// `decode.tokens`, `decode.step_seconds` and [`tally`] like a greedy
    /// step. The `bos` row then serves position 0 of every candidate.
    pub fn head(&mut self, bos: usize, eos: usize) -> Option<usize> {
        if self.max_len < 2 {
            return None;
        }
        if self.fed.first() != Some(&bos) {
            let t0 = Instant::now();
            self.feed(&[bos]);
            let dt = t0.elapsed().as_secs_f64();
            let obs = vega_obs::global();
            obs.observe("decode.step_seconds", dt);
            obs.counter_add("decode.tokens", 1);
            tally::bump(dt);
        }
        self.first_argmax.filter(|&t| t != eos)
    }

    /// Teacher-forced log-probability of `tgt_out` given the decoder input
    /// `tgt_in`, both clamped to the shorter of the two and to `max_len` —
    /// bit-identical to a fresh `forced_logprob` (see the module docs).
    ///
    /// # Panics
    /// Panics if a token id is outside the vocabulary.
    pub fn score(&mut self, tgt_in: &[usize], tgt_out: &[usize]) -> f32 {
        let t0 = Instant::now();
        let n = tgt_in.len().min(tgt_out.len()).min(self.max_len);
        self.feed(&tgt_in[..n]);
        let vocab = self.vocab;
        let mut lp = 0.0f32;
        for (r, &to) in tgt_out[..n].iter().enumerate() {
            lp += self.probs[r * vocab..(r + 1) * vocab][to].max(1e-12).ln();
        }
        vega_obs::global().counter_add("decode.scored_tokens", n as u64);
        tally::bump_model(t0.elapsed().as_secs_f64());
        lp
    }

    /// Log-probability of emitting `tgt` then `eos` after `bos`: [`score`]
    /// with `tgt_in = [bos] + tgt` and `tgt_out = tgt + [eos]`.
    ///
    /// [`score`]: ScoreSession::score
    pub fn score_sequence(&mut self, tgt: &[usize], bos: usize, eos: usize) -> f32 {
        let (tgt_in, tgt_out) = frame(tgt, bos, eos);
        self.score(&tgt_in, &tgt_out)
    }

    /// Makes the decoder's fed tokens start with `tokens`: keeps the longest
    /// common prefix, rolls back past it, and feeds the rest. Fed positions
    /// beyond `tokens` are kept when `tokens` is a prefix of them.
    fn feed(&mut self, tokens: &[usize]) {
        let keep = self
            .fed
            .iter()
            .zip(tokens)
            .take_while(|(a, b)| a == b)
            .count();
        if keep == tokens.len() {
            return;
        }
        let vocab = self.vocab;
        let new = &tokens[keep..];
        match &mut self.dec {
            Decoder::Transformer(st) => {
                st.truncate(keep);
                self.probs.truncate(keep * vocab);
                self.probs.extend_from_slice(st.step_many(new));
            }
            Decoder::Gru { st, hidden } => {
                let d = st.hidden().len();
                st.restore(&hidden[keep * d..(keep + 1) * d]);
                hidden.truncate((keep + 1) * d);
                self.probs.truncate(keep * vocab);
                for &t in new {
                    self.probs.extend_from_slice(st.step(t));
                    hidden.extend_from_slice(st.hidden());
                }
            }
        }
        if keep == 0 {
            self.first_argmax = argmax(&self.probs[..vocab]);
        }
        for row in self.probs[keep * vocab..].chunks_exact_mut(vocab) {
            softmax_row(row);
        }
        self.fed.truncate(keep);
        self.fed.extend_from_slice(new);
    }
}
