//! Which code the gate covers: `cargo clippy --workspace` reaches only
//! workspace members.

#[cfg(test)]
mod tests {
    use crate::{read, root};

    #[test]
    fn scans_this_workspace() {
        let manifest = read("Cargo.toml");
        let crates = std::fs::read_dir(root().join("crates")).unwrap();
        let names: Vec<String> = crates
            .map(|d| d.unwrap().file_name().to_string_lossy().into())
            .collect();
        assert!(names.len() >= 12, "{names:?}");
        for name in names {
            let listed = manifest.matches(&format!("\"crates/{name}\",")).count();
            assert_eq!(listed, 2, "crates/{name} in members and default-members");
        }
    }
}
