//! Expectations: a justified site is excused, a stale one fails the gate,
//! and the root package states the levels its manifest cannot.

#[cfg(test)]
mod tests {
    use crate::{cases, levels, read, root, run, LIB};

    const UNWRAP: &str = "#[expect(clippy::unwrap_used, reason = \"the caller checked\")]\n";
    /// A function whose arms 1 and 2 are `a` and `b`, under one expectation.
    fn arms(a: &str, b: &str) -> String {
        format!(
            "#[expect(clippy::unreachable, reason = \"callers pass 0 or 1\")]\n\
                 pub fn f(x: u8) -> u8 {{ match x {{ 0 => 1, 1 => {a}, 2 => {b}, _ => 0 }} }}\n"
        )
    }

    cases! {
        annotation_suppresses_and_is_consumed(LIB) {
            format!("{UNWRAP}pub fn f(x: Option<u8>) -> u8 {{ x.unwrap() }}\n") => [];
        }
        stale_annotation_fails(LIB) {
            format!("{UNWRAP}pub fn f(x: Option<u8>) -> u8 {{ x.unwrap_or(0) }}\n")
                => ["unfulfilled_lint_expectations@1"];
        }
        /// One expectation over a whole item excuses every site in it, and
        /// fails once none is left.
        toml_suppression_matches_and_stale_entry_fails(LIB) {
            arms("unreachable!()", "unreachable!()") => [];
            arms("2", "3") => ["unfulfilled_lint_expectations@1"];
        }
    }

    /// The root package's tests and examples share its manifest, so
    /// `src/lib.rs` states the gate's levels as crate-root attributes.
    #[test]
    fn missing_audited_file_is_reported_when_required() {
        let lib = read("src/lib.rs");
        for flag in levels(LIB) {
            let (level, lint) = flag.trim_start_matches("--").split_once('=').unwrap();
            let stated = lib
                .split(&format!("#![{level}("))
                .nth(1)
                .and_then(|s| s.split(")]").next());
            assert!(
                stated.is_some_and(|s| s.contains(lint)),
                "src/lib.rs lacks #![{level}({lint})]"
            );
        }
    }

    /// Findings come in source order and carry `clippy.toml`'s reasons.
    #[test]
    fn report_is_sorted_and_rendered() {
        let src =
            "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\npub type T = std::time::Instant;\n";
        let (found, raw) = run(src, &levels(LIB), &root());
        assert_eq!(
            found,
            ["clippy::unwrap_used@1", "clippy::disallowed_types@2"]
        );
        assert!(raw.contains("a clock read makes a layout decision time-dependent"));
    }
}
