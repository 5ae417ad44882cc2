//! Deterministic checkpoint-parser fuzzing: `TrainerCheckpoint::from_text`
//! and `FrameworkSnapshot::from_text` must answer mutated valid
//! checkpoints with `Ok` or a typed error, never a panic or an abort, and
//! every accepted value must re-parse from its rendered form to an equal
//! value.
//!
//! Inputs start from real checkpoints and splice hostile counts into
//! their header lines — `u64::MAX`, one past it, `2^40`, negative and
//! non-numeric spellings — or swap two headers' counts, drop, duplicate
//! or truncate lines, so random cases reach deep into each grammar.

use std::sync::OnceLock;

use proptest::prelude::*;
use qmarl_core::prelude::*;

/// A trained paper-config trainer's checkpoint: every section populated,
/// replay and history included.
fn trainer_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let mut cfg = ExperimentConfig::paper_default();
        cfg.env.episode_limit = 3;
        let mut trainer = build_trainer(FrameworkKind::Proposed, &cfg).expect("builds");
        trainer.train(2).expect("trains");
        trainer.capture_state("fuzz").to_text()
    })
}

fn snapshot_text() -> String {
    FrameworkSnapshot {
        label: "fuzz".into(),
        actor_params: vec![vec![0.1, -2.5e-17], vec![1.0]],
        critic_params: vec![3.0, -0.5],
    }
    .to_text()
}

/// Counts to splice into headers: zero and small, one past the parsers'
/// capacity cap, `2^40`, `u64::MAX` and one past it, negative, fractional
/// and non-numeric spellings, and the empty string.
const COUNTS: [&str; 12] = [
    "0",
    "1",
    "3",
    "4097",
    "1099511627776",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "1.5",
    "x",
    "",
    "NaN",
];

/// Header tags whose lines carry element counts.
const HEADERS: [&str; 9] = [
    "actors ",
    "actor ",
    "critic ",
    "replay ",
    "episode ",
    "step agents ",
    "history ",
    "opt actor ",
    "opt critic ",
];

fn is_header(line: &str) -> bool {
    HEADERS.iter().any(|h| line.starts_with(h))
}

/// Both parsers on one text: no panic, and an accepted value re-parses
/// from its rendering to an equal value.
fn check_text(text: &str) -> Result<(), TestCaseError> {
    if let Ok(ck) = TrainerCheckpoint::from_text(text) {
        prop_assert_eq!(TrainerCheckpoint::from_text(&ck.to_text()).ok(), Some(ck));
    }
    if let Ok(snap) = FrameworkSnapshot::from_text(text) {
        prop_assert_eq!(
            FrameworkSnapshot::from_text(&snap.to_text()).ok(),
            Some(snap)
        );
    }
    Ok(())
}

/// `text` with token `at` of line `line` replaced by `with`.
fn splice(text: &str, line: usize, at: usize, with: &str) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let mut tokens: Vec<&str> = lines[line].split(' ').collect();
    let at = at % tokens.len();
    tokens[at] = with;
    lines[line] = tokens.join(" ");
    lines.join("\n") + "\n"
}

/// A valid text with one mutation: a count spliced into a header token,
/// two header counts swapped, or a line dropped, duplicated or cut short.
fn mutated() -> impl Strategy<Value = String> {
    (
        0..2usize,
        0..4usize,
        0..4096usize,
        0..4096usize,
        0..COUNTS.len(),
    )
        .prop_map(|(which, kind, a, b, count)| {
            let text = if which == 0 {
                trainer_text().to_string()
            } else {
                snapshot_text()
            };
            let lines: Vec<&str> = text.lines().collect();
            let headers: Vec<usize> = (0..lines.len()).filter(|&i| is_header(lines[i])).collect();
            let pick = |k: usize| headers[k % headers.len()];
            match kind {
                0 => splice(&text, pick(a), b % 5 + 1, COUNTS[count]),
                1 => {
                    // Swap the last tokens of two headers (their counts).
                    let (la, lb) = (pick(a), pick(b));
                    let last = |i: usize| lines[i].rsplit(' ').next().unwrap_or("").to_string();
                    let (ta, tb) = (last(la), last(lb));
                    let ka = lines[la].split(' ').count() - 1;
                    let kb = lines[lb].split(' ').count() - 1;
                    splice(&splice(&text, la, ka, &tb), lb, kb, &ta)
                }
                2 => {
                    let mut out: Vec<&str> = lines.clone();
                    let i = a % out.len();
                    if b % 2 == 0 {
                        out.remove(i);
                    } else {
                        out.insert(i, lines[i]);
                    }
                    out.join("\n") + "\n"
                }
                _ => {
                    let mut cut = (a * text.len() / 4096).min(text.len());
                    while !text.is_char_boundary(cut) {
                        cut -= 1;
                    }
                    text[..cut].to_string()
                }
            }
        })
}

/// Up to `max` tokens of header words, counts and separators.
fn soup(max: usize) -> impl Strategy<Value = String> {
    let words: Vec<&'static str> = HEADERS
        .iter()
        .copied()
        .chain(COUNTS)
        .chain([
            "qmarl-trainer-checkpoint v1\n",
            "qmarl-checkpoint v1\n",
            "label x\n",
            "seed 1\n",
            "epoch 1\n",
            "rounds 0\n",
            "rng 1 2 3 4\n",
            "target",
            "m",
            "v",
            "t ",
            "done 0",
            "s",
            "o",
            "u 1",
            "r 0",
            "\n",
            " ",
        ])
        .collect();
    prop::collection::vec(0..words.len(), 0..max)
        .prop_map(move |picks| picks.into_iter().map(|i| words[i]).collect())
}

proptest! {
    #[test]
    fn checkpoint_parsers_never_panic_and_roundtrip(
        structured in mutated(),
        random in soup(40),
    ) {
        for text in [&structured, &random] {
            check_text(text)?;
        }
    }
}

/// Every hostile count in every count-bearing token of every header kind,
/// enumerated rather than sampled, so the worst spellings are always hit.
#[test]
fn hostile_counts_in_every_header_are_typed_errors() {
    for text in [trainer_text().to_string(), snapshot_text()] {
        let lines: Vec<&str> = text.lines().collect();
        let mut seen: Vec<&str> = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            let Some(tag) = HEADERS.iter().find(|h| line.starts_with(**h)) else {
                continue;
            };
            if seen.contains(tag) {
                continue;
            }
            seen.push(tag);
            for at in 1..line.split(' ').count() {
                for count in COUNTS {
                    check_text(&splice(&text, i, at, count)).unwrap();
                }
            }
        }
    }
}

/// The unmutated checkpoints parse and re-render to exactly their text.
#[test]
fn valid_checkpoints_roundtrip_exactly() {
    let ck = TrainerCheckpoint::from_text(trainer_text()).expect("valid trainer checkpoint");
    assert_eq!(ck.to_text(), trainer_text());
    assert!(!ck.replay.is_empty() && !ck.history.is_empty());
    let text = snapshot_text();
    let snap = FrameworkSnapshot::from_text(&text).expect("valid snapshot");
    assert_eq!(snap.to_text(), text);
}
