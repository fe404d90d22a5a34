//! The bytes the load generator sends are pinned: the paper-mix stream
//! rendered to ingest lines is a fixed byte sequence, so a change to the
//! population, the stream's cursor or the line renderer that moves one
//! byte fails here before it moves a benchmark's input.

use hp_core::Feedback;
use hp_edge::wire::render_feedback_line;
use hp_load::{FeedbackStream, PopulationMix};

/// FNV-1a (the pinned-bytes fingerprint).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Length and fingerprint of the first 100 000 lines of the 4096-server
/// paper mix at seed 1, drawn in 512-feedback batches as `hp-load`
/// draws them, as computed at the commit whose renderer still wrote
/// through `core::fmt` and whose stream advanced its cursor by `%`.
#[test]
fn paper_mix_lines_are_pinned() {
    let mut stream = FeedbackStream::new(PopulationMix::paper_mix(4096, 1_000_000, 1));
    let (mut body, mut batch) = (String::new(), Vec::<Feedback>::new());
    let mut lines = 0;
    while lines < 100_000 {
        stream.next_batch(512.min(100_000 - lines), &mut batch);
        for feedback in &batch {
            render_feedback_line(&mut body, feedback);
        }
        lines += batch.len();
    }
    assert_eq!(body.lines().count(), 100_000);
    assert_eq!(
        (body.len(), fnv1a(body.as_bytes())),
        (1_620_321, 0xf02b_15da_854f_2844),
        "the generator or the renderer moved a byte"
    );
}
