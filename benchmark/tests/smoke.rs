//! The contract between `BENCHMARK.json` and the binary: every name the
//! manifest declares is printed, with its unit, by a real (smoke-sized) run.

use std::process::Command;

use hi_benchmark::script::Workload;
use hi_benchmark::{END_TO_END, RUN_SECONDS};

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The objects of the array under `"key"`. The manifest's arrays hold flat
/// objects only, so brace matching is enough.
fn objects<'a>(manifest: &'a str, key: &str) -> Vec<&'a str> {
    let at = manifest
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key:?} in BENCHMARK.json"));
    let rest = &manifest[at..];
    let array = &rest[rest.find('[').unwrap()..rest.find(']').unwrap()];
    array
        .split('{')
        .skip(1)
        .map(|o| &o[..o.find('}').expect("closed object")])
        .collect()
}

/// The value of `"field"` inside one flat object, quotes stripped.
fn field<'a>(object: &'a str, name: &str) -> &'a str {
    let at = object
        .find(&format!("\"{name}\""))
        .unwrap_or_else(|| panic!("no {name:?} in {object:?}"));
    let value = object[at..].split_once(':').unwrap().1;
    value.split(',').next().unwrap().trim().trim_matches('"')
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn manifest_agrees_with_the_code() {
    let manifest = manifest();
    let declared: Vec<_> = objects(&manifest, "end_to_end")
        .iter()
        .map(|o| {
            (
                field(o, "name").to_string(),
                field(o, "unit").to_string(),
                field(o, "better") == "higher",
                field(o, "bound").parse::<f64>().unwrap(),
            )
        })
        .collect();
    let coded: Vec<_> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.higher_is_better,
                m.bound,
            )
        })
        .collect();
    assert_eq!(declared, coded);

    let workloads: Vec<_> = objects(&manifest, "workloads")
        .iter()
        .map(|o| field(o, "name").to_string())
        .collect();
    let coded: Vec<_> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, coded);

    let seconds = manifest.split_once("\"run_seconds\":").unwrap().1;
    let seconds: u64 = seconds.split(',').next().unwrap().trim().parse().unwrap();
    assert_eq!(seconds, RUN_SECONDS);

    for section in ["workloads", "end_to_end", "per_layer"] {
        for object in objects(&manifest, section) {
            assert!(well_formed(field(object, "name")), "{object}");
        }
    }
}

/// Runs the smoke configuration and returns the result line.
fn smoke(workload: Workload, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hi-benchmark"))
        .args(["--smoke", "--workload", workload.name(), "--seed", "3"])
        .args(["--seconds", "20", "--trace", trace])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{}: {}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("not comparable"), "smoke runs are marked");
    stdout.lines().last().unwrap().to_string()
}

#[test]
fn smoke_run_prints_every_declared_metric() {
    let manifest = manifest();
    for workload in Workload::ALL {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let line = smoke(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
            let declared = objects(&manifest, section);
            for object in &declared {
                let printed = format!("\"{}\": {{\"value\": ", field(object, "name"));
                let at = line
                    .find(&printed)
                    .unwrap_or_else(|| panic!("{}: no {printed} in {line}", workload.name()));
                let unit = format!("\"unit\": \"{}\"}}", field(object, "unit"));
                let rest = &line[at + printed.len()..];
                let end = rest.find('}').unwrap() + 1;
                assert!(rest[..end].ends_with(&unit), "{printed}{}", &rest[..end]);
            }
            assert_eq!(
                line.matches("{\"value\": ").count(),
                declared.len(),
                "{}: exactly the declared metrics, trace {trace}",
                workload.name()
            );
        }
    }
}
