//! The determinism gate, specified by example.
//!
//! `ci.sh` runs `cargo clippy --workspace --all-targets -- -D warnings`
//! under `clippy.toml` and each manifest's lint levels. [`run`] does the
//! same for a one-file fixture, so each rule, its scope and the
//! `#[expect(…, reason)]` policy are pinned by a test that fails if the
//! configuration drifts. The persisted-history rule is about bytes on disk,
//! so [`store_bytes`] reads those.

use block_store::{BlockStore, Fault, FaultPlan, StoreOptions};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

mod engine;
mod lexer;
mod rules;
mod suppress;
mod walk;

/// A layout-affecting library crate's manifest: it inherits the gate.
pub const LIB: &str = "crates/pma/Cargo.toml";

/// The workspace root.
pub fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A workspace file, by its path from the root.
pub fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The lint flags cargo passes for the package whose manifest is `manifest`:
/// its `[lints.*]` tables, or `[workspace.lints.*]` when it inherits them.
pub fn levels(manifest: &str) -> Vec<String> {
    let own = read(manifest);
    let (text, prefix) = match own.contains("[lints]\nworkspace = true") {
        true => (read("Cargo.toml"), "[workspace.lints."),
        false => (own, "[lints."),
    };
    let (mut tool, mut flags) = (None, Vec::new());
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        if line.starts_with('[') {
            tool = line.strip_prefix(prefix).and_then(|t| t.strip_suffix(']'));
        } else if let (Some(tool), Some((lint, level))) = (tool, line.split_once(" = ")) {
            let lint = [tool, "::", lint].concat().replace("rust::", "");
            flags.push(format!("--{}={lint}", level.trim_matches('"')));
        }
    }
    flags
}

/// What the gate reports on `src` compiled as one crate's library and test
/// harness under `flags` and `-D warnings`, reading `clippy.toml` from
/// `conf`: the findings as `lint@line` in source order, and the raw JSON
/// diagnostics. The crate is named `hi_common`, so a fixture can declare
/// the workspace's own entropy intake at its configured path.
pub fn run(src: &str, flags: &[String], conf: &Path) -> (Vec<String>, String) {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("lint-gate-{}-{seq}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("fixture.rs"), src).unwrap();
    // `clippy-driver` ships beside the toolchain's `cargo`, which runs the tests.
    let cargo = PathBuf::from(std::env::var_os("CARGO").unwrap_or_default());
    let driver = Some(cargo.with_file_name("clippy-driver")).filter(|d| d.exists());
    let (mut found, mut raw) = (BTreeSet::new(), String::new());
    for target in ["--crate-type=lib", "--test"] {
        let out = Command::new(driver.clone().unwrap_or("clippy-driver".into()))
            .env("CLIPPY_CONF_DIR", conf)
            .args(["--edition=2021", "--crate-name=hi_common"])
            .args(["--emit=metadata", "--error-format=json", target])
            .args(flags)
            .args(["-D", "warnings", "-o"])
            .args([dir.join("out"), dir.join("fixture.rs")])
            .output()
            .expect("clippy-driver runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        for diag in stderr.lines() {
            let field = |key: &str| diag.split_once(key)?.1.split(['"', ',']).next();
            if let (Some(lint), Some(line)) =
                (field("\"code\":{\"code\":\""), field("\"line_start\":"))
            {
                found.insert((line.parse::<u32>().unwrap(), lint.to_string()));
            }
        }
        raw += &stderr;
    }
    std::fs::remove_dir_all(&dir).ok();
    let found = found
        .into_iter()
        .map(|(line, lint)| format!("{lint}@{line}"));
    (found.collect(), raw)
}

/// [`run`] under the levels of `manifest` and the workspace's `clippy.toml`.
pub fn gate(manifest: &str, src: &str) -> Vec<String> {
    run(src, &levels(manifest), &root()).0
}

/// One `#[test]` per case: each fixture, gated under the manifest's levels,
/// reports exactly the listed findings.
#[macro_export]
macro_rules! cases {
    ($($(#[$doc:meta])* $name:ident($manifest:expr) { $($src:expr => [$($want:expr),*];)+ })*) => {$(
        $(#[$doc])*
        #[test]
        fn $name() {
            $(let want: &[&str] = &[$($want),*];
            assert_eq!($crate::gate($manifest, &$src), want, "{}", $src);)+
        }
    )*};
}

/// The data and journal files of a block store that committed the images
/// `history` in order, where image `s` sets every `s`-th slot of 512; with
/// `tear`, after a commit of image 3 that crashes at that block write.
pub fn store_bytes(history: &[usize], tear: Option<u64>) -> (Vec<u8>, Vec<u8>) {
    let path = block_store::temp_path("lint-gate");
    let mut store = BlockStore::open(&path, StoreOptions::new(128).no_sync()).unwrap();
    let commit = |store: &mut BlockStore, step| {
        let set: Vec<u64> = (0..512).step_by(step).collect();
        let mut words = vec![0u64; 8];
        set.iter()
            .for_each(|&s| words[s as usize / 64] |= 1 << (s % 64));
        store.commit(&words, 512, set.len() as u64, set.iter().copied(), 5)
    };
    for &step in history {
        commit(&mut store, step).unwrap();
    }
    if let Some(at) = tear {
        store.set_fault_plan(FaultPlan::new([Fault::TornWrite { at }]));
        assert!(
            commit(&mut store, 3).is_err(),
            "the commit tears at write {at}"
        );
    }
    let bytes = store.raw_bytes().unwrap();
    std::fs::remove_file(store.path()).ok();
    std::fs::remove_file(store.journal_path()).ok();
    bytes
}
