//! One fixture per rule, seeded into an engine crate, and the gate's
//! verdict on it: every violation found, every justification consumed.

use lint_gate::{cases, levels, root, run, store_bytes, LIB};

const MEMBERSHIP: &str =
    "#[expect(clippy::disallowed_types, reason = \"membership only, never iterated\")]\n";
/// A duplicate check over the set type `set`, under [`MEMBERSHIP`].
fn dup(set: &str) -> String {
    format!("{MEMBERSHIP}pub fn dup(v: &[u8]) -> bool {{\n    let mut seen = {set}::new();\n    !v.iter().all(|x| seen.insert(x))\n}}\n")
}

cases! {
    golden_nondeterminism(LIB) {
        "use std::collections::{HashMap, HashSet};\n\
         pub fn f(m: &HashMap<u8, u8>, s: &HashSet<u8>) -> usize { m.len() + s.len() }\n\
         pub type H = std::hash::RandomState;\n\
         pub type C = (std::time::Instant, std::time::SystemTime);\n\
         pub fn id() -> String { format!(\"{:?}\", std::thread::current().id()) }\n"
            => ["clippy::disallowed_types@1", "clippy::disallowed_types@2", "clippy::disallowed_types@3",
                "clippy::disallowed_types@4", "clippy::disallowed_methods@5"];
    }
    golden_entropy(LIB) {
        "pub mod rng {\n    pub struct RngSource;\n    \
         impl RngSource { pub fn from_entropy() -> Self { Self } }\n}\n\
         pub fn coin() -> rng::RngSource { rng::RngSource::from_entropy() }\n\
         #[expect(clippy::disallowed_methods, reason = \"the observer must not know this seed\")]\n\
         pub fn secret() -> rng::RngSource { rng::RngSource::from_entropy() }\n"
            => ["clippy::disallowed_methods@5"];
    }
    golden_panic_surface(LIB) {
        "pub fn first(v: &[u8]) -> u8 { *v.first().unwrap() }\n\
         #[expect(clippy::expect_used, reason = \"the slice is never empty here\")]\n\
         pub fn last(v: &[u8]) -> u8 { *v.last().expect(\"non-empty\") }\n"
            => ["clippy::unwrap_used@1"];
    }
    golden_unsafe_audit(LIB) {
        "pub struct P(pub *const u8);\nunsafe impl Send for P {}\npub fn read(p: &P) -> u8 { unsafe { *p.0 } }\n"
            => ["unsafe_code@2", "unsafe_code@3"];
    }
    live_toml_suppression_is_consumed(LIB) {
        dup("std::collections::HashSet") => [];
    }
    /// The site was since fixed: the expectation it left behind fails the
    /// gate, so the set of escape hatches can only shrink.
    stale_toml_suppression_fails_the_run(LIB) {
        dup("std::collections::BTreeSet") => ["unfulfilled_lint_expectations@1"];
    }
}

/// An image committed once, and again after one to three other images,
/// leaves the same data and journal files.
#[test]
fn golden_persisted_history() {
    let once = store_bytes(&[4], None);
    for others in 1..=3 {
        let history: Vec<usize> = [4].into_iter().chain(5..5 + others).chain([4]).collect();
        assert!(store_bytes(&history, None) == once, "after {history:?}");
    }
}

/// The real `clippy.toml` loads cleanly under every scope's levels.
#[test]
fn workspace_is_clean_under_the_real_suppression_file() {
    for manifest in [
        LIB,
        "Cargo.toml",
        "crates/bench/Cargo.toml",
        "crates/test-support/Cargo.toml",
    ] {
        let (found, raw) = run("pub fn f() -> u8 { 1 }\n", &levels(manifest), &root());
        assert!(
            found.is_empty() && !raw.contains("Clippy's configuration"),
            "{manifest}: {raw}"
        );
    }
}
