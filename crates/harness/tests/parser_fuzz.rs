//! Deterministic parser fuzzing: every user-facing string parser must
//! answer random input over its own alphabet with `Ok` or `Err`, never a
//! panic or an abort, and every accepted value must re-parse from its
//! rendered form to an equal value.
//!
//! Inputs are built from the parser's own tokens (key names, separators,
//! numbers, huge and reversed `a..b` ranges), so random cases reach deep
//! into each grammar instead of failing on the first byte: a `key=value`
//! generator that a share of cases gets through, plus a free token soup.

use proptest::prelude::*;
use qmarl_chaos::FaultPlan;
use qmarl_harness::spec::ExperimentSpec;
use qmarl_runtime::backend::ExecutionBackend;

/// Zero, small counts, rates, signs, non-finite spellings, `u64::MAX` and
/// one past it, huge, reversed and empty ranges, and the empty string.
const NUMBERS: &str = "0|1|2|7|64|0.01|0.5|1.5|-0|-1|NaN|inf|1e-300|18446744073709551615|\
                       18446744073709551616|0..3|3..0|5..5|0..18446744073709551615|\
                       0..1099511627776|1099511627776..1099511627778|";
const SEPARATORS: &str = "=|;|:|,|.|..| ";
const SPEC_KEYS: &str = "name|scenarios|frameworks|backends|engines|seeds|epochs|episodes|\
                         lanes|mode|checkpoint|limit|x";
const SPEC_WORDS: &str = "x|single-hop|two-tier|single-hop,two-tier|nope|Proposed|Comp2|\
                          RandomWalk|ideal|sampled:shots=8|ideal,noisy:p1=0.01|batched|serial|\
                          batched,serial|vec|2,2|0,1..4";
const JSON_TOKENS: &str = "{|}|[|]|:|,| |\"|\\|\\u|D800|\"name\"|\"scenarios\"|\"seeds\"|\
                           \"epochs\"|\"x\"|\"single-hop\"|\"0..3\"|\"0..18446744073709551615\"|\
                           \"0..1099511627776\"|0|1|-1|1e308|18446744073709551615|true|null";
const BACKEND_KINDS: &str = "ideal|sampled|noisy|trajectory|x|";
const BACKEND_KEYS: &str = "shots|seed|p1|p2|samples|channel1|";
const FAULT_HEADS: &str = "faults|fault|";
const FAULT_KEYS: &str = "drop|torn|stall|stall_ms|slow|kill|seed|x|";

/// The tokens of `|`-separated lists (empty tokens allowed).
fn tokens(lists: &[&'static str]) -> Vec<&'static str> {
    lists.iter().flat_map(|list| list.split('|')).collect()
}

/// Up to `max` tokens drawn from `lists`, concatenated.
fn soup(lists: &[&'static str], max: usize) -> impl Strategy<Value = String> {
    let alphabet = tokens(lists);
    prop::collection::vec(0..alphabet.len(), 0..max)
        .prop_map(move |picks| picks.into_iter().map(|i| alphabet[i]).collect())
}

/// A head token followed by `sep`-joined `key=value` segments.
fn segments(
    heads: &'static str,
    sep: &'static str,
    keys: &'static str,
    values: &[&'static str],
) -> impl Strategy<Value = String> {
    let (heads, keys, values) = (tokens(&[heads]), tokens(&[keys]), tokens(values));
    let pair = (0..keys.len(), 0..values.len());
    (0..heads.len(), prop::collection::vec(pair, 0..6)).prop_map(move |(h, pairs)| {
        let mut out = heads[h].to_string();
        for (k, v) in pairs {
            out.push_str(&format!("{sep}{}={}", keys[k], values[v]));
        }
        out
    })
}

/// A compact spec: the four required fields alone, the required fields
/// plus random extra ones, or random fields only.
fn compact_spec() -> impl Strategy<Value = String> {
    let seeds = tokens(&[SPEC_WORDS, NUMBERS]);
    let required = (0..seeds.len(), 0..3usize).prop_map(move |(s, e)| {
        let epochs = ["1", "2", "0"][e];
        format!(
            "name=x;scenarios=single-hop;seeds={};epochs={epochs}",
            seeds[s]
        )
    });
    let extra = segments("", ";", SPEC_KEYS, &[SPEC_WORDS, NUMBERS]);
    (required, extra, 0..4usize).prop_map(|(head, extra, shape)| match shape {
        0 | 1 => head,
        2 => head + &extra,
        _ => extra,
    })
}

fn backend_spec() -> impl Strategy<Value = String> {
    segments(BACKEND_KINDS, ":", BACKEND_KEYS, &[NUMBERS])
}

fn fault_plan() -> impl Strategy<Value = String> {
    segments(FAULT_HEADS, ":", FAULT_KEYS, &[NUMBERS])
}

proptest! {
    #[test]
    fn experiment_spec_from_str_never_panics(
        structured in compact_spec(),
        random in soup(&[SPEC_KEYS, NUMBERS, SEPARATORS], 24),
    ) {
        for text in [&structured, &random] {
            if let Ok(spec) = text.parse::<ExperimentSpec>() {
                let again = spec.to_spec_string().parse::<ExperimentSpec>().ok();
                prop_assert_eq!(again, Some(spec), "{}", text);
            }
        }
    }

    #[test]
    fn experiment_spec_from_json_never_panics(
        (seeds, epochs) in (0..tokens(&[JSON_TOKENS]).len(), 0..tokens(&[JSON_TOKENS]).len()),
        random in soup(&[JSON_TOKENS], 32),
    ) {
        let values = tokens(&[JSON_TOKENS]);
        let structured = format!(
            r#"{{"name":"x","scenarios":["single-hop"],"seeds":{},"epochs":{}}}"#,
            values[seeds], values[epochs]
        );
        for text in [&structured, &random] {
            // Only the absence of a panic or abort is under test here.
            let _ = ExperimentSpec::from_json(text);
        }
    }

    #[test]
    fn execution_backend_from_str_never_panics_and_roundtrips(
        structured in backend_spec(),
        random in soup(&[BACKEND_KINDS, BACKEND_KEYS, NUMBERS, SEPARATORS], 16),
    ) {
        for text in [&structured, &random] {
            if let Ok(backend) = text.parse::<ExecutionBackend>() {
                let again = backend.to_string().parse::<ExecutionBackend>().ok();
                prop_assert_eq!(again, Some(backend), "{}", text);
            }
        }
    }

    #[test]
    fn fault_plan_from_str_never_panics_and_roundtrips(
        structured in fault_plan(),
        random in soup(&[FAULT_HEADS, FAULT_KEYS, NUMBERS, SEPARATORS], 16),
    ) {
        for text in [&structured, &random] {
            if let Ok(plan) = text.parse::<FaultPlan>() {
                let again = plan.to_string().parse::<FaultPlan>().ok();
                prop_assert_eq!(again, Some(plan), "{}", text);
            }
        }
    }
}

/// The structured generators must reach the accepting paths: a fixed
/// draw of 256 cases from each parses a share of its inputs.
#[test]
fn structured_generators_reach_accepted_inputs() {
    use rand::SeedableRng;
    fn accepted<S: Strategy<Value = String>>(strategy: S, ok: impl Fn(&str) -> bool) -> usize {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        (0..256).filter(|_| ok(&strategy.sample(&mut rng))).count()
    }
    let specs = accepted(compact_spec(), |t| t.parse::<ExperimentSpec>().is_ok());
    let backends = accepted(backend_spec(), |t| t.parse::<ExecutionBackend>().is_ok());
    let plans = accepted(fault_plan(), |t| t.parse::<FaultPlan>().is_ok());
    assert!(specs >= 8, "{specs} specs accepted");
    assert!(backends >= 8, "{backends} backends accepted");
    assert!(plans >= 8, "{plans} fault plans accepted");
}
