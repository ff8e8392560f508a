//! The shared command-line surface of the `pfcim` binaries.
//!
//! `pfcim` and `repro` accept the same two
//! cross-cutting flags. They are parsed here — one implementation, one
//! spelling, one error message — so the binaries cannot drift:
//!
//! * `--threads N` — miner worker count for the parallel phases.
//!   `0` = auto (the machine's available parallelism); `1` is the
//!   sequential miner. Exact-mode output is identical at every count.
//! * `--telemetry ADDR` — start a live [`Telemetry`] session: background
//!   sampler, flight recorder, and an HTTP scrape endpoint on `ADDR`
//!   serving `GET /metrics`, `/healthz` and `/flight` while the process
//!   runs. Port `0` picks a free port; the bound address is printed to
//!   stderr as `telemetry listening on http://…`.
//!
//! # Environment fallbacks
//!
//! This is the one place the `PFCIM_*` fallbacks are documented. A
//! flag wins over its variable; the variable wins over the built-in
//! default. [`MinerConfig::effective_threads`](crate::MinerConfig::effective_threads)
//! reads the variable, so it also reaches runs whose configs are built
//! deep inside a driver (the `repro` experiment drivers, the bench
//! matrix):
//!
//! | variable        | flag        | meaning                   |
//! |-----------------|-------------|---------------------------|
//! | `PFCIM_THREADS` | `--threads` | worker count (`0` = auto) |
//!
//! There is no environment fallback for `--telemetry`: binding a
//! listening socket stays an explicit per-invocation decision.

use crate::config::MinerConfig;
use crate::telemetry::Telemetry;

/// The values of the shared flags, `None` where a flag was not given
/// (the [environment fallbacks](self) then apply).
#[derive(Debug, Clone, Default)]
pub struct CommonArgs {
    /// `--threads N` (`0` = auto).
    pub threads: Option<usize>,
    /// `--telemetry ADDR`.
    pub telemetry: Option<String>,
}

impl CommonArgs {
    /// The usage-line fragment for the shared flags, so every binary
    /// prints the same spelling.
    pub const USAGE: &'static str = "[--threads N] [--telemetry ADDR]";

    /// Try to consume `arg` as one of the shared flags, pulling the
    /// value from `next` (the caller's argument iterator). Returns
    /// `Ok(true)` when consumed, `Ok(false)` when `arg` is not a shared
    /// flag, and `Err` on a missing or malformed value.
    pub fn accept(
        &mut self,
        arg: &str,
        mut next: impl FnMut() -> Option<String>,
    ) -> Result<bool, String> {
        match arg {
            "--threads" => {
                let v = next().ok_or("--threads needs a value")?;
                self.threads = Some(v.parse().map_err(|_| format!("bad thread count {v:?}"))?);
            }
            "--telemetry" => {
                self.telemetry = Some(next().ok_or("--telemetry needs a value")?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Fold the explicitly-given flags into `config` (absent flags keep
    /// the config's values, which already honour the environment
    /// fallbacks).
    pub fn apply(&self, mut config: MinerConfig) -> MinerConfig {
        if let Some(threads) = self.threads {
            config = config.with_threads(threads);
        }
        config
    }

    /// Forward the explicitly-given flags through their environment
    /// variables — for binaries whose mining configs are built deep
    /// inside a driver rather than at the call site (`repro`).
    pub fn export_env(&self) {
        if let Some(threads) = self.threads {
            std::env::set_var("PFCIM_THREADS", threads.to_string());
        }
    }

    /// Start the live-telemetry session when `--telemetry` was given:
    /// binds the endpoint, prints the canonical
    /// `telemetry listening on http://…` line to stderr, and returns the
    /// running session (shut down on drop). `Ok(None)` without the flag.
    pub fn start_telemetry(&self) -> Result<Option<Telemetry>, String> {
        let Some(addr) = &self.telemetry else {
            return Ok(None);
        };
        let mut telemetry = Telemetry::start();
        match telemetry.serve(addr) {
            Ok(local) => eprintln!("telemetry listening on http://{local}"),
            Err(e) => return Err(format!("cannot bind telemetry endpoint {addr}: {e}")),
        }
        Ok(Some(telemetry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CommonArgs, String> {
        let mut common = CommonArgs::default();
        let mut iter = args.iter().map(|s| s.to_string());
        while let Some(arg) = iter.next() {
            if !common.accept(&arg, || iter.next())? {
                return Err(format!("unknown argument {arg:?}"));
            }
        }
        Ok(common)
    }

    #[test]
    fn accept_consumes_only_shared_flags() {
        let common = parse(&["--threads", "4", "--telemetry", "127.0.0.1:0"]).unwrap();
        assert_eq!(common.threads, Some(4));
        assert_eq!(common.telemetry.as_deref(), Some("127.0.0.1:0"));
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--event-cache", "0"]).is_err());
        assert!(parse(&["--threads"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--threads", "x"])
            .unwrap_err()
            .contains("bad thread count"));
    }

    #[test]
    fn apply_folds_flags_into_the_config() {
        let common = parse(&["--threads", "2"]).unwrap();
        let cfg = common.apply(MinerConfig::new(2, 0.5));
        assert_eq!(cfg.threads, 2);
        // Absent flags keep the config untouched.
        let cfg = CommonArgs::default().apply(MinerConfig::new(2, 0.5).with_threads(3));
        assert_eq!(cfg.threads, 3);
    }
}
