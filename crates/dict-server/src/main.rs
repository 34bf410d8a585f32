//! `dict-server`: serve a sharded HI dictionary over TCP.
//!
//! ```text
//! dict-server [--addr 127.0.0.1:0] [--addr-file PATH]
//!             [--seed N] [--shards N]
//!             [--epoch-ops N] [--queue-bound N]
//!             [--acceptors N] [--max-frame N]
//!             [--dedup-window N] [--inflight-bound N]
//!             [--write-timeout-millis N] [--idle-timeout-millis N]
//!             [--persist PATH]
//! ```
//!
//! Binds the address (port 0 picks an ephemeral port), prints the bound
//! address on stdout as `listening on ADDR`, optionally writes the bare
//! address to `--addr-file` (how `tests/binary.rs` discovers the port), then
//! serves until the process is killed. With `--persist`, the server boots
//! from the given block-store file's last committed image, and the `FLUSH`
//! operation canonicalizes the served contents into it. An existing file's
//! seed must be `--seed`'s; a mismatch is refused before the address is
//! bound.
//!
//! A restart therefore serves what was last flushed, and nothing since:
//! shutdown does not flush, and the retry dedup registry lives in RAM, so
//! a request retried across a restart is applied again. Each shard's
//! in-RAM layout is a fresh draw of `f(contents, seed)`.
//!
//! The shards are HI-PMAs: the baseline engines are not served, so there is
//! no backend to choose.
//!
//! There is no epoch timer to set: a connection applies what has been
//! queued — by every connection — when it is about to block, or when it
//! holds `--epoch-ops` requests of its own.

use std::process::ExitCode;
use std::str::FromStr;

use anti_persistence::dict::{Backend, Dict, DictConfig};
use dict_server::{Server, ServerOptions};

struct Args {
    addr: String,
    addr_file: Option<String>,
    persist: Option<String>,
    config: DictConfig,
}

fn parse_args(it: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:0".to_string(),
        addr_file: None,
        persist: None,
        config: DictConfig {
            backend: Backend::HiPma,
            seed: 7,
            shards: 4,
            ..DictConfig::default()
        },
    };
    let mut it = it.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--addr-file" => args.addr_file = Some(value("--addr-file")?),
            "--persist" => args.persist = Some(value("--persist")?),
            "--seed" => args.config.seed = parse_num(&value("--seed")?, "--seed")?,
            "--shards" => {
                args.config.shards = parse_num::<usize>(&value("--shards")?, "--shards")?;
            }
            "--epoch-ops" => {
                args.config.server.epoch_ops = parse_num(&value("--epoch-ops")?, "--epoch-ops")?;
            }
            "--queue-bound" => {
                args.config.server.queue_bound =
                    parse_num(&value("--queue-bound")?, "--queue-bound")?;
            }
            "--acceptors" => {
                args.config.server.acceptors = parse_num(&value("--acceptors")?, "--acceptors")?;
            }
            "--max-frame" => {
                args.config.server.max_frame = parse_num(&value("--max-frame")?, "--max-frame")?;
            }
            "--dedup-window" => {
                args.config.server.dedup_window =
                    parse_num(&value("--dedup-window")?, "--dedup-window")?;
            }
            "--inflight-bound" => {
                args.config.server.inflight_bound =
                    parse_num(&value("--inflight-bound")?, "--inflight-bound")?;
            }
            "--write-timeout-millis" => {
                args.config.server.write_timeout = std::time::Duration::from_millis(parse_num(
                    &value("--write-timeout-millis")?,
                    "--write-timeout-millis",
                )?);
            }
            "--idle-timeout-millis" => {
                args.config.server.idle_timeout = std::time::Duration::from_millis(parse_num(
                    &value("--idle-timeout-millis")?,
                    "--idle-timeout-millis",
                )?);
            }
            other => return Err(format!("unknown flag {other:?} (see the crate docs)")),
        }
    }
    Ok(args)
}

fn parse_num<T: FromStr>(raw: &str, flag: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag}: {raw:?} is not a valid number"))
}

fn run() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    let persist = match &args.persist {
        Some(path) => Some(
            Dict::builder()
                .backend(Backend::HiPma)
                .seed(args.config.seed)
                .build_persistent(path)
                .map_err(|e| format!("--persist {path}: {e}"))?,
        ),
        None => None,
    };
    let server = Server::spawn(
        &args.addr,
        ServerOptions {
            config: args.config,
            persist,
        },
    )
    .map_err(|e| format!("serve on {}: {e}", args.addr))?;
    println!("listening on {}", server.addr());
    if let Some(path) = &args.addr_file {
        std::fs::write(path, server.addr().to_string())
            .map_err(|e| format!("--addr-file {path}: {e}"))?;
    }
    // Serve until killed; the connection threads own all the work.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("dict-server: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn the_epoch_timer_flag_is_gone_and_refused_by_name() {
        // Every retired flag: the epoch timer, the backend choice and the
        // worker fan-out's batch-size cut-over.
        for flag in ["--epoch-micros", "--backend", "--parallel-threshold"] {
            let err = parse(&[flag, "200"]).map(|_| ()).unwrap_err();
            assert!(err.contains("unknown flag") && err.contains(flag), "{err}");
        }
        let args = parse(&["--epoch-ops", "64"]).expect("the op budget stays");
        assert_eq!(args.config.server.epoch_ops, 64);
    }

    #[test]
    fn the_backend_flag_is_gone_and_the_shards_are_hi_pmas() {
        let err = parse(&["--backend", "btree"]).map(|_| ()).unwrap_err();
        assert!(
            err.contains("unknown flag") && err.contains("--backend"),
            "{err}"
        );
        assert_eq!(parse(&[]).expect("defaults").config.backend, Backend::HiPma);
    }
}
