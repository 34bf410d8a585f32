//! How a justification binds, what it must carry, and what the
//! configuration may say.

#[cfg(test)]
mod tests {
    use crate::{cases, levels, read, root, run, LIB};

    /// The `{ path = "…", reason = "…" }` entries of `clippy.toml`.
    fn entries() -> Vec<(String, String)> {
        let field =
            |line: &str, key: &str| Some(line.split_once(key)?.1.split('"').next()?.to_string());
        let toml = read("clippy.toml");
        let lines = toml
            .lines()
            .filter(|l| l.trim_start().starts_with("{ path"));
        lines
            .map(|l| {
                (
                    field(l, "path = \"").unwrap(),
                    field(l, "reason = \"").unwrap_or_default(),
                )
            })
            .collect()
    }

    /// Every std entry of `clippy.toml` fires on its path and renders its
    /// reason.
    #[test]
    fn toml_roundtrip() {
        for (path, reason) in entries()
            .into_iter()
            .filter(|(path, _)| path.starts_with("std::"))
        {
            let src = match path.as_str() {
                "std::thread::current" => {
                    "pub fn f() { let _ = std::thread::current(); }\n".to_string()
                }
                _ => format!("pub use {path};\n"),
            };
            let (found, raw) = run(&src, &levels(LIB), &root());
            assert_eq!(found.len(), 1, "{path}: {found:?}");
            assert!(raw.contains(&reason), "{path} does not render its reason");
        }
    }

    /// Every entry and every expectation carries a reason.
    #[test]
    fn toml_rejects_missing_reason() {
        assert!(entries().len() >= 10);
        for (path, reason) in entries() {
            assert!(!reason.is_empty(), "clippy.toml: {path} has no reason");
        }
        let bare = "#[expect(clippy::unwrap_used)]\npub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(
            crate::gate(LIB, bare),
            ["clippy::allow_attributes_without_reason@1"]
        );
    }

    /// An expectation of a lint that does not exist fails, and so does a
    /// `clippy.toml` key that clippy does not know.
    #[test]
    fn toml_rejects_unknown_rule_and_key() {
        let src = "#[expect(clippy::no_such_lint, reason = \"typo\")]\npub fn f() {}\n";
        assert_eq!(crate::gate(LIB, src), ["unknown_lints@1"]);
        let conf = std::env::temp_dir().join(format!("lint-gate-conf-{}", std::process::id()));
        std::fs::create_dir_all(&conf).unwrap();
        std::fs::write(conf.join("clippy.toml"), "disallowed-typez = []\n").unwrap();
        let (_, raw) = run("pub fn f() {}\n", &levels(LIB), &conf);
        std::fs::remove_dir_all(&conf).ok();
        assert!(raw.contains("unknown field `disallowed-typez`"), "{raw}");
    }

    const WHY: &str = "#[expect(clippy::unwrap_used, reason = \"the caller checked x\")]";

    cases! {
        /// On a statement an expectation covers that statement alone; on a
        /// function it covers the tail chain too.
        annotations_bind_trailing_and_standalone(LIB) {
            format!("pub fn f(x: Option<u8>, y: Option<u8>) -> u8 {{\n{WHY}\nlet a = x.unwrap();\na + y.unwrap()\n}}\n")
                => ["clippy::unwrap_used@4"];
            format!("{WHY}\npub fn g(x: Option<u8>) -> u8 {{ x.map(|v| v / 2).unwrap() }}\n") => [];
        }
        malformed_annotations_are_reported(LIB) {
            "#[expect(clippy::unwrap_used, reason = 3)]\npub fn f() {}\n" => ["E0452@1"];
        }
    }
}
