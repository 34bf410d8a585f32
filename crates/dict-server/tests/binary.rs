//! The `dict-server` binary end to end: boot it on a store file, write
//! through [`Client`], FLUSH, kill it, and boot it again on the same file.
//!
//! A restart serves the last flushed image and nothing written since, and a
//! store whose seed is not `--seed`'s is refused before the address is
//! bound. At most one server process runs at a time: the tests serialize on
//! [`ONE_SERVER`].

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "the helpers are test steps: a failed step fails the test"
)]

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::Mutex;
use std::time::Duration;

use dict_server::Client;

static ONE_SERVER: Mutex<()> = Mutex::new(());

/// A directory of its own for one test's store and address files, removed
/// on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("dict-server-bin-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the test directory");
        Self(dir)
    }

    fn addr_file(&self) -> PathBuf {
        self.0.join("addr")
    }

    fn store(&self) -> PathBuf {
        self.0.join("store.bin")
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running `dict-server`, killed on drop.
struct Running {
    child: Child,
    addr: SocketAddr,
}

impl Running {
    /// Kills the process, as a crash or an operator would: nothing is
    /// flushed on the way out.
    fn kill(mut self) {
        self.child.kill().expect("kill dict-server");
        self.child.wait().expect("reap dict-server");
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts the binary on `dir`'s store under `seed`, with its address
/// file removed first so that only this process can write it.
fn spawn(dir: &TempDir, seed: u64) -> Child {
    let _ = std::fs::remove_file(dir.addr_file());
    Command::new(env!("CARGO_BIN_EXE_dict-server"))
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--addr-file")
        .arg(dir.addr_file())
        .arg("--persist")
        .arg(dir.store())
        .arg("--seed")
        .arg(seed.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dict-server")
}

/// Boots the binary and waits (up to 20 s) for the address it bound.
fn boot(dir: &TempDir, seed: u64) -> Running {
    let mut child = spawn(dir, seed);
    for _ in 0..2_000 {
        if let Some(status) = child.try_wait().expect("poll dict-server") {
            panic!("dict-server exited during boot: {status}");
        }
        // The file may be caught half written: parse until it is whole.
        let addr = std::fs::read_to_string(dir.addr_file())
            .ok()
            .and_then(|text| text.parse().ok());
        if let Some(addr) = addr {
            return Running { child, addr };
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = child.kill();
    panic!("dict-server never wrote its address");
}

/// Waits (up to 20 s) for `child` to exit and returns its status and stderr.
fn exit_of(mut child: Child) -> (ExitStatus, String) {
    for _ in 0..2_000 {
        if let Some(status) = child.try_wait().expect("poll dict-server") {
            let mut stderr = String::new();
            if let Some(mut pipe) = child.stderr.take() {
                std::io::Read::read_to_string(&mut pipe, &mut stderr).expect("read stderr");
            }
            return (status, stderr);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = child.kill();
    panic!("dict-server kept running");
}

/// Every key of `0..keys` the server at `addr` holds, and its `LEN`.
fn served(addr: SocketAddr, keys: u64) -> (BTreeMap<u64, u64>, u64) {
    let mut c = Client::connect(addr).expect("connect");
    let contents = (0..keys)
        .filter_map(|k| c.get(k).expect("get").map(|v| (k, v)))
        .collect();
    (contents, c.len().expect("len"))
}

#[test]
fn a_rebooted_binary_serves_exactly_the_flushed_image() {
    let _one = ONE_SERVER.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TempDir::new("reboot");
    let server = boot(&dir, 11);
    let mut c = Client::connect(server.addr).expect("connect");
    let mut flushed = BTreeMap::new();
    for k in 0..300u64 {
        c.put(k, k * 3 + 1).expect("put");
        flushed.insert(k, k * 3 + 1);
    }
    for k in (0..300u64).step_by(7) {
        c.del(k).expect("del");
        flushed.remove(&k);
    }
    c.flush_store().expect("flush");
    // Writes after the FLUSH: served now, gone after a restart.
    for k in 300..350u64 {
        c.put(k, k).expect("put");
    }
    for k in 1..20u64 {
        c.del(k).expect("del");
    }
    drop(c);
    let (before_kill, _) = served(server.addr, 400);
    assert!(before_kill.contains_key(&300) && !before_kill.contains_key(&1));
    server.kill();

    let server = boot(&dir, 11);
    let (contents, len) = served(server.addr, 400);
    assert_eq!(contents, flushed, "the reboot must serve the flushed image");
    assert_eq!(len, flushed.len() as u64, "a key outside the flushed image");
    server.kill();
}

#[test]
fn a_reboot_under_another_seed_exits_non_zero_without_an_address() {
    let _one = ONE_SERVER.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TempDir::new("seed");
    let server = boot(&dir, 5);
    let mut c = Client::connect(server.addr).expect("connect");
    c.put(1, 2).expect("put");
    c.flush_store().expect("flush");
    drop(c);
    server.kill();

    let (status, stderr) = exit_of(spawn(&dir, 6));
    assert!(!status.success(), "a seed mismatch was served: {status}");
    assert!(stderr.contains("seed"), "stderr names no seed: {stderr:?}");
    assert!(
        !dir.addr_file().exists(),
        "the refused boot wrote its address file"
    );
}
