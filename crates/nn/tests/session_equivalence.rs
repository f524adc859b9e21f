//! Scoring-session equivalence.
//!
//! A `ScoreSession` encodes its input once and answers the greedy head and
//! any number of candidate scorings from that one pass, reusing the decoder
//! rows of every prefix candidates share. Its answers must be
//! **bit-identical** to the per-call primitives: the head to
//! `greedy(src, bos, eos, 2)`, each score to a fresh `forced_logprob` (and
//! to the autograd-graph reference `forced_logprob_graph`). Stage 3 and the
//! serve `score` op pick their outputs by these numbers, so a single
//! flipped bit could change a generated backend.
//!
//! The candidate lists mix shared prefixes, exact repeats, a strict prefix
//! of an earlier candidate, a candidate past `max_len` (truncation), an
//! empty candidate and decoder inputs that do not start with `bos` (which
//! roll the session back to nothing). `ci.sh` runs this suite at
//! `VEGA_THREADS=1` and `4` and under every kernel mode of the kernel
//! matrix.

use vega_nn::{GruConfig, GruSeq2Seq, ScoreSession, Seq2Seq, Transformer, TransformerConfig};

const BOS: usize = 0;
const EOS: usize = 1;

/// Deterministic pseudo-random token ids in `[lo, hi)` (splitmix64).
fn tokens(seed: u64, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            lo + (z as usize) % (hi - lo)
        })
        .collect()
}

/// A seeded candidate list in the order a session sees it: shared
/// prefixes, an exact repeat, a strict prefix of an earlier candidate, one
/// past `max_len` plus a near-copy of it, an empty one, and a return to an
/// earlier candidate after the long ones moved the decoder far away.
fn candidates(seed: u64, vocab: usize, max_len: usize) -> Vec<Vec<usize>> {
    let base = tokens(seed, 12, 2, vocab);
    let mut shared = base[..5].to_vec();
    shared.extend(tokens(seed + 1, 7, 2, vocab));
    let long = tokens(seed + 2, max_len + 10, 2, vocab);
    let mut near_long = long[..max_len - 4].to_vec();
    near_long.extend(tokens(seed + 3, 9, 2, vocab));
    vec![
        base.clone(),
        shared,
        base.clone(),
        base[..3].to_vec(),
        tokens(seed + 4, 8, 2, vocab),
        long,
        near_long,
        Vec::new(),
        base[..1].to_vec(),
        base,
    ]
}

/// `[bos] + c` and `c + [eos]`, the sequence framing stage 3 scores in.
fn framed(c: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut tgt_in = vec![BOS];
    tgt_in.extend_from_slice(c);
    let mut tgt_out = c.to_vec();
    tgt_out.push(EOS);
    (tgt_in, tgt_out)
}

/// The head of a fresh greedy decode capped at two tokens (`bos` counts).
fn greedy_head<M: Seq2Seq>(m: &mut M, src: &[usize]) -> Option<usize> {
    let out = m.greedy(src, BOS, EOS, 2);
    assert!(
        out.len() <= 1,
        "a two-token greedy decode emits at most one"
    );
    out.first().copied()
}

/// Runs the whole candidate list through one session (head first, as stage
/// 3 does) and checks every answer against fresh per-call primitives.
fn check_session<M: Seq2Seq>(
    m: &mut M,
    open: impl Fn(&M) -> ScoreSession<'_>,
    graph: impl Fn(&mut M, &[usize], &[usize], &[usize]) -> f32,
    src: &[usize],
    cands: &[Vec<usize>],
) {
    let want_head = greedy_head(m, src);
    let mut want = Vec::new();
    for c in cands {
        let (tgt_in, tgt_out) = framed(c);
        let fresh = m.forced_logprob(src, &tgt_in, &tgt_out);
        assert_eq!(
            fresh.to_bits(),
            m.sequence_logprob(src, c, BOS, EOS).to_bits()
        );
        assert_eq!(
            fresh.to_bits(),
            graph(m, src, &tgt_in, &tgt_out).to_bits(),
            "forced_logprob left the graph reference for {c:?}"
        );
        want.push(fresh);
    }
    let mut session = open(m);
    assert_eq!(session.head(BOS, EOS), want_head, "session head");
    for (c, w) in cands.iter().zip(&want) {
        let got = session.score_sequence(c, BOS, EOS);
        assert_eq!(got.to_bits(), w.to_bits(), "session score for {c:?}");
    }
    // Decoder inputs that do not start with `bos` roll the session back to
    // position 0; the head must still be the greedy one afterwards.
    let tgt_in = tokens(src.len() as u64, 6, 2, 8);
    let tgt_out = tokens(src.len() as u64 + 1, 9, 2, 8);
    let fresh = m.forced_logprob(src, &tgt_in, &tgt_out);
    let mut session = open(m);
    assert_eq!(session.score(&tgt_in, &tgt_out).to_bits(), fresh.to_bits());
    assert_eq!(session.head(BOS, EOS), want_head, "head after a rollback");
    let (tgt_in, tgt_out) = framed(&cands[0]);
    assert_eq!(
        session.score(&tgt_in, &tgt_out).to_bits(),
        want[0].to_bits(),
        "score after the head re-fed bos"
    );
    // Empty decoder inputs score zero, like the per-call path.
    assert_eq!(session.score(&[], &[EOS]), 0.0);
    assert_eq!(m.forced_logprob(src, &[], &[EOS]), 0.0);
}

fn trained_copy_transformer() -> Transformer {
    let mut t = Transformer::new(TransformerConfig::tiny(10));
    let pairs: Vec<(Vec<usize>, Vec<usize>)> = vec![
        (vec![2, 3, 4], vec![2, 3, 4]),
        (vec![5, 6], vec![5, 6]),
        (vec![7, 8, 2], vec![7, 8, 2]),
        (vec![4, 4, 5], vec![4, 4, 5]),
    ];
    let loss = vega_nn::train_until(&mut t, &pairs, BOS, EOS, 300, 3e-3, 0.05);
    assert!(loss < 0.3, "copy task did not converge: {loss}");
    t
}

#[test]
fn transformer_session_matches_fresh_scoring_when_trained() {
    let mut t = trained_copy_transformer();
    let max_len = t.cfg.max_len;
    for (seed, src) in [
        (1u64, vec![5usize, 6]),
        (2, vec![2, 3, 4]),
        (3, vec![7, 8, 2]),
    ] {
        // A trained head is a real score token, not eos.
        assert!(greedy_head(&mut t, &src).is_some());
        let cands = candidates(seed, 10, max_len);
        check_session(
            &mut t,
            |m| m.begin_scoring(&src),
            |m, s, i, o| m.forced_logprob_graph(s, i, o),
            &src,
            &cands,
        );
    }
}

#[test]
fn transformer_session_matches_fresh_scoring_untrained_small() {
    let mut t = Transformer::new(TransformerConfig::small(64));
    let max_len = t.cfg.max_len;
    for seed in 0..3u64 {
        // One source longer than max_len, clamped alike on both sides.
        let src = tokens(seed, if seed == 2 { 130 } else { 17 }, 2, 64);
        let cands = candidates(seed + 10, 64, max_len);
        check_session(
            &mut t,
            |m| m.begin_scoring(&src),
            |m, s, i, o| m.forced_logprob_graph(s, i, o),
            &src,
            &cands,
        );
    }
}

#[test]
fn gru_session_matches_fresh_scoring() {
    let mut trained = GruSeq2Seq::new(GruConfig::tiny(10));
    let pairs = vec![
        (vec![2usize, 3, 4], vec![2usize, 3, 4]),
        (vec![5, 6], vec![5, 6]),
    ];
    vega_nn::train_until(&mut trained, &pairs, BOS, EOS, 200, 5e-3, 0.05);
    let mut untrained = GruSeq2Seq::new(GruConfig::small(64));
    for (m, vocab) in [(&mut trained, 10usize), (&mut untrained, 64)] {
        let max_len = m.cfg.max_len;
        for seed in 0..2u64 {
            let src = tokens(seed + 20, 9, 2, vocab);
            let cands = candidates(seed + 30, vocab, max_len);
            check_session(
                m,
                |m| m.begin_scoring(&src),
                |m, s, i, o| m.forced_logprob_graph(s, i, o),
                &src,
                &cands,
            );
        }
    }
}

#[test]
fn session_head_counts_eos_as_no_token() {
    // Whatever the untrained model's first argmax is, asking the head with
    // that token as `eos` must answer `None`, as greedy returns nothing.
    let t = Transformer::new(TransformerConfig::small(64));
    let src = tokens(40, 11, 2, 64);
    let first = t
        .begin_scoring(&src)
        .head(BOS, EOS)
        .expect("untrained head");
    assert_eq!(t.begin_scoring(&src).head(BOS, first), None);
    let mut t = t;
    assert_eq!(t.greedy(&src, BOS, first, 2), Vec::<usize>::new());
}
