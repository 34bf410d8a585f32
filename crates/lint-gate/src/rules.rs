//! Each rule, in the scope it covers: layout-affecting library code, plus
//! `examples/` for unseeded entropy.

#[cfg(test)]
mod tests {
    use crate::{cases, levels, read, root, store_bytes, LIB};

    const HASHMAP: &str = "pub type M = std::collections::HashMap<u8, u8>;\n";
    const OPT_IN: &str = "#![deny(clippy::disallowed_types, clippy::disallowed_methods)]\n";
    const INTAKE: &str = "pub mod rng {\n    pub struct RngSource;\n    \
                          impl RngSource { pub fn from_entropy() -> Self { Self } }\n}\n\
                          pub fn seed() -> rng::RngSource { rng::RngSource::from_entropy() }\n";
    /// A test module that builds a `HashSet`, under the attribute `attr`.
    fn set_in_tests(attr: &str) -> String {
        format!("#[cfg(test)]\nmod tests {{\n{attr}\n#[test]\nfn t() {{ assert!(std::collections::HashSet::<u8>::new().is_empty()) }}\n}}\n")
    }

    cases! {
        nondeterminism_fires_in_engine_crates_only(LIB) {
            HASHMAP => ["clippy::disallowed_types@1"];
        }
        /// Test modules of an engine crate are read too, so a process-random
        /// collection there needs a justification.
        nondeterminism_covers_test_modules(LIB) {
            set_in_tests("") => ["clippy::disallowed_types@5"];
            set_in_tests("#[expect(clippy::disallowed_types, reason = \"membership only\")]") => [];
        }
        thread_current_fires(LIB) {
            "pub fn f() -> String { format!(\"{:?}\", std::thread::current().id()) }\n"
                => ["clippy::disallowed_methods@1"];
        }
        /// The panic lints know types: a free function named `unwrap` or a
        /// fallback does not fire; each panicking form does.
        panic_surface_needs_method_call_shape(LIB) {
            "fn unwrap() {}\npub fn f(x: Option<u8>) -> u8 { unwrap(); x.unwrap_or(3) + x.unwrap_or_default() }\n" => [];
            "pub fn f(x: Option<u8>, y: Result<u8, ()>) -> u8 {\n\
             if x == Some(1) { todo!() } else if x == Some(2) { unimplemented!() }\n\
             match x { Some(0) => panic!(\"zero\"), Some(9) => unreachable!(), _ => {} }\n\
             x.unwrap() + y.expect(\"checked\")\n}\n"
                => ["clippy::todo@2", "clippy::unimplemented@2", "clippy::panic@3",
                    "clippy::unreachable@3", "clippy::expect_used@4", "clippy::unwrap_used@4"];
        }
        /// `unsafe` is forbidden, and a forbid cannot be lowered.
        unsafe_audit_checks_roots_and_tokens(LIB) {
            "pub fn f(v: &[u8]) -> u8 { unsafe { *v.as_ptr() } }\n" => ["unsafe_code@1"];
            "#[allow(unsafe_code, reason = \"hot loop\")]\npub fn f(v: &[u8]) -> u8 { unsafe { *v.as_ptr() } }\n"
                => ["E0453@1", "unsafe_code@2"];
        }
        /// Examples opt back in at their crate roots; `tests/` stays out.
        entropy_applies_to_examples_but_not_tests("Cargo.toml") {
            format!("{OPT_IN}{INTAKE}") => ["clippy::disallowed_methods@6"];
            INTAKE => [];
        }
    }

    /// Engine crates deny; the root package's tests, the bench, test
    /// support and this crate allow the nondeterminism lints; the vendored
    /// shims read a `clippy.toml` with no entries.
    #[test]
    fn classify_paths() {
        assert!(levels(LIB).contains(&"--deny=clippy::disallowed_types".to_string()));
        let out = [
            "--allow=clippy::disallowed_types",
            "--allow=clippy::disallowed_methods",
        ];
        for tool in [
            "",
            "crates/bench/",
            "crates/test-support/",
            "crates/lint-gate/",
        ] {
            assert_eq!(
                levels(&format!("{tool}Cargo.toml")),
                out,
                "{tool}Cargo.toml"
            );
            assert_eq!(crate::gate(&format!("{tool}Cargo.toml"), HASHMAP), [""; 0]);
        }
        assert!(read("vendor/clippy.toml")
            .lines()
            .all(|l| l.is_empty() || l.starts_with('#')));
        for example in std::fs::read_dir(root().join("examples")).unwrap() {
            let path = example.unwrap().path();
            assert!(
                std::fs::read_to_string(&path).unwrap().contains(OPT_IN),
                "{path:?} opts in"
            );
        }
    }

    /// Every entropy intake a library crate defines is listed in
    /// `clippy.toml`, so a new one cannot slip past the gate.
    #[test]
    fn entropy_intakes_are_all_listed() {
        fn defined(dir: &std::path::Path) -> usize {
            let paths = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
            let count = |p: std::path::PathBuf| match p.is_dir() {
                true => defined(&p),
                false => std::fs::read_to_string(&p)
                    .unwrap()
                    .matches("pub fn from_entropy(")
                    .count(),
            };
            paths.filter(|p| !p.ends_with("lint-gate")).map(count).sum()
        }
        let toml = read("clippy.toml");
        let listed = toml
            .lines()
            .filter(|l| l.contains("::from_entropy\"") && !l.contains("\"rand::"));
        assert_eq!(
            listed.count(),
            defined(&root().join("crates")) + defined(&root().join("src"))
        );
    }

    /// The image a store persists follows its contents alone: other
    /// contents give other bytes, and the same contents the same bytes.
    #[test]
    fn persisted_history_accepts_the_allowlist() {
        assert_ne!(store_bytes(&[4], None).0, store_bytes(&[5], None).0);
        assert_eq!(store_bytes(&[5, 4], None), store_bytes(&[4], None));
    }

    /// Committing A after three other images leaves the bytes that
    /// committing A once does, though the generation went from 1 to 5.
    #[test]
    fn persisted_history_catches_a_generation_leak() {
        assert_eq!(store_bytes(&[4, 5, 6, 7, 4], None), store_bytes(&[4], None));
    }

    /// A commit torn at any block write leaves the same data and journal
    /// files whatever history came before it.
    #[test]
    fn persisted_history_catches_rogue_writes_and_missing_anchors() {
        for at in 0..6 {
            let (long, short) = (
                store_bytes(&[4, 5, 6, 7, 4], Some(at)),
                store_bytes(&[4], Some(at)),
            );
            assert!(long == short, "torn at {at}");
        }
    }
}
