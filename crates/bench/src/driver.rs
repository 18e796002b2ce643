//! The bench driver: one command-line parser for every binary under
//! `src/bin/`, the canonical-run rule, and the only code that writes a
//! results CSV or touches a `BENCH_*.json` baseline.
//!
//! A binary starts with [`Cli::parse`], naming what it accepts beyond
//! the universal `--trace <path>`:
//!
//! - `--check` evaluates the binary's shape checks and baseline
//!   [`Gate`](crate::baseline::Gate)s and exits 1 if any fails;
//! - `--write` records the binary's metric sections into its baseline;
//! - `--smoke` shortens the windows to the CI configuration;
//! - `--seed <n>` reseeds the run;
//! - a name without leading dashes declares an optional positional
//!   argument.
//!
//! Anything else — an unknown flag, a missing or unparsable value, an
//! undeclared positional argument — exits 2 with a usage line.
//!
//! A run is *canonical* when it has no `--smoke`, no `--seed` and no
//! `SKYLOFT_FAST` scaling. Only canonical runs write the committed
//! goldens under `results/`; the others write their CSVs under
//! `target/results-scratch/`, and `--write` is refused for them before
//! anything runs. `SKYLOFT_THREADS` keeps a run canonical: threaded
//! sweeps are bit-identical to serial ones.

use std::fs;
use std::path::{Path, PathBuf};

use skyloft::machine::Machine;
use skyloft_apps::harness::{slug, SweepSpec};
use skyloft_metrics::Table;
use skyloft_sim::{Distribution, Nanos};

use crate::baseline::{upsert_section, Baseline, Section};

/// The parsed command line of a bench binary.
#[derive(Debug, Default)]
pub struct Cli {
    /// Binary name, prefixed to the driver's messages.
    pub bin: String,
    pub check: bool,
    pub write: bool,
    pub smoke: bool,
    pub seed: Option<u64>,
    /// Base path for Chrome-trace dumps (see [`Cli::dump_trace`]).
    pub trace: Option<PathBuf>,
    /// Positional arguments, in declaration order.
    pub args: Vec<String>,
    /// The `SKYLOFT_FAST` window divisor (1 = full windows).
    pub fast: u64,
}

/// The `SKYLOFT_FAST` divisor: `SKYLOFT_FAST=10` runs ten times shorter
/// windows (smoke runs). 1 when unset, unparsable or not above 1.
pub fn fast_factor() -> u64 {
    std::env::var("SKYLOFT_FAST")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&f| f > 1)
        .unwrap_or(1)
}

/// Scales a duration down by `SKYLOFT_FAST`.
pub fn scaled(d: Nanos) -> Nanos {
    d / fast_factor()
}

fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn usage(bin: &str, accepts: &[&str]) -> String {
    let mut u = format!("usage: {bin} [--trace <path>]");
    for a in accepts {
        match *a {
            "--seed" => u.push_str(" [--seed <n>]"),
            a => u.push_str(&format!(" [{a}]")),
        }
    }
    u
}

impl Cli {
    /// Parses the process's command line and `SKYLOFT_FAST`; on bad input
    /// prints the error and a usage line, then exits 2.
    pub fn parse(accepts: &[&str]) -> Cli {
        let mut argv = std::env::args();
        let bin = argv
            .next()
            .as_deref()
            .and_then(|p| Path::new(p).file_stem()?.to_str().map(String::from))
            .unwrap_or_default();
        Cli::parse_from(&bin, accepts, argv, fast_factor()).unwrap_or_else(|e| {
            eprintln!("{bin}: {e}\n{}", usage(&bin, accepts));
            std::process::exit(2)
        })
    }

    /// Parses `args` (without the program name) for a binary accepting
    /// `accepts`, with `SKYLOFT_FAST` divisor `fast`.
    pub fn parse_from(
        bin: &str,
        accepts: &[&str],
        args: impl IntoIterator<Item = String>,
        fast: u64,
    ) -> Result<Cli, String> {
        let mut cli = Cli {
            bin: bin.to_string(),
            fast,
            ..Cli::default()
        };
        let positional = accepts.iter().filter(|a| !a.starts_with("--")).count();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                if cli.args.len() == positional {
                    return Err(format!("unexpected argument `{arg}`"));
                }
                cli.args.push(arg);
                continue;
            }
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f, Some(v.to_string())),
                None => (arg.as_str(), None),
            };
            if flag != "--trace" && !accepts.contains(&flag) {
                return Err(format!("unknown flag `{flag}`"));
            }
            let valued = matches!(flag, "--trace" | "--seed");
            let value = if valued {
                inline
                    .or_else(|| args.next())
                    .filter(|v| !v.is_empty() && !v.starts_with("--"))
                    .ok_or(format!("{flag} needs a value"))?
            } else if inline.is_some() {
                return Err(format!("{flag} takes no value"));
            } else {
                String::new()
            };
            match flag {
                "--trace" => cli.trace = Some(value.into()),
                "--seed" => {
                    let seed = value
                        .parse()
                        .map_err(|_| format!("--seed takes an unsigned integer, got `{value}`"))?;
                    cli.seed = Some(seed);
                }
                "--check" => cli.check = true,
                "--write" => cli.write = true,
                "--smoke" => cli.smoke = true,
                _ => unreachable!("accepted flag {flag} has no parser"),
            }
        }
        if cli.write && !cli.canonical() {
            return Err("--write records baselines, so it needs a canonical run \
                        (no --smoke, --seed or SKYLOFT_FAST)"
                .into());
        }
        Ok(cli)
    }

    /// Whether this run may write goldens and baselines.
    pub fn canonical(&self) -> bool {
        !self.smoke && self.seed.is_none() && self.fast == 1
    }

    /// Where this run's CSVs go: the committed `results/` for a canonical
    /// run, `target/results-scratch/` otherwise.
    pub fn results_dir(&self) -> PathBuf {
        if self.canonical() {
            repo_root().join("results")
        } else {
            repo_root().join("target/results-scratch")
        }
    }

    /// Prints `table` under a heading and writes it as `<id>.csv` into
    /// [`Cli::results_dir`].
    pub fn emit(&self, id: &str, heading: &str, table: &Table) {
        println!("== {heading} ==");
        println!("{}", table.render());
        let dir = self.results_dir();
        let path = dir.join(format!("{id}.csv"));
        match fs::create_dir_all(&dir).and_then(|()| fs::write(&path, table.to_csv())) {
            Ok(()) => {
                let shown = path.strip_prefix(repo_root()).unwrap_or(&path);
                println!("(csv: {})\n", shown.display())
            }
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }

    /// A sweep spec that dumps each measured point's trace when `--trace`
    /// was given (see [`SweepSpec::trace`]).
    pub fn sweep(&self, name: &str, rates: Vec<f64>, service: Distribution) -> SweepSpec {
        SweepSpec {
            trace: self.trace.clone(),
            ..SweepSpec::new(name, rates, service)
        }
    }

    /// Writes `m`'s scheduling trace (Chrome-trace JSON, loadable in
    /// Perfetto / `chrome://tracing`) to `<path>.<label>.json` when
    /// `--trace <path>` was given, `label` being `what` as a slug — so a
    /// binary that runs several machines keeps every trace.
    pub fn dump_trace(&self, m: &Machine, what: &str) {
        let Some(base) = &self.trace else { return };
        let path = PathBuf::from(format!("{}.{}.json", base.display(), slug(what)));
        match m.write_trace(&path) {
            Ok(()) => eprintln!("trace: wrote {} ({what})", path.display()),
            Err(e) => eprintln!("trace: failed to write {}: {e}", path.display()),
        }
    }

    /// Ends a gated run. `--write` splices `sections` into the baseline
    /// file, leaving every other section byte-identical. `--check` reports
    /// the binary's shape-check failures (`shape` runs only under
    /// `--check`), holds each gate's measured value — the metric `sections`
    /// records under the same name — within its bound of the committed
    /// one, and exits 1 if anything failed.
    pub fn finish(
        &self,
        baseline: &Baseline,
        sections: &[Section],
        shape: impl FnOnce() -> Vec<String>,
    ) {
        let path = repo_root().join(baseline.file);
        let bin = &self.bin;
        if self.write {
            for s in sections {
                if let Err(e) = upsert_section(&path, &s.name, &s.body()) {
                    eprintln!("{bin}: failed to write {}: {e}", baseline.file);
                    std::process::exit(1);
                }
            }
            eprintln!("{bin}: wrote {}", baseline.file);
        }
        if !self.check {
            return;
        }
        let failures = shape();
        for f in &failures {
            eprintln!("{bin}: FAIL — {f}");
        }
        let mut ok = failures.is_empty();
        let json = fs::read_to_string(&path).unwrap_or_default();
        for g in baseline.gates {
            let name = format!("{}.{}", g.section, g.key);
            let measured = sections
                .iter()
                .find(|s| s.name == g.section)
                .and_then(|s| s.get(g.key))
                .unwrap_or_else(|| panic!("gate {name} names a metric {bin} does not record"));
            match g.evaluate(&json, measured) {
                None => eprintln!(
                    "{bin}: no baseline for {name} in {} — skipped",
                    baseline.file
                ),
                Some((base, true)) => {
                    eprintln!("{bin}: {name} {measured:.1} vs baseline {base:.1} — ok")
                }
                Some((base, false)) => {
                    eprintln!(
                        "{bin}: REGRESSION on {name}: measured {measured:.1} vs baseline \
                         {base:.1} ({:?})",
                        g.bound
                    );
                    ok = false;
                }
            }
        }
        if !ok {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GATED: &[&str] = &["--check", "--write", "--smoke", "--seed"];

    fn parse(accepts: &[&str], args: &[&str]) -> Result<Cli, String> {
        parse_fast(accepts, args, 1)
    }

    fn parse_fast(accepts: &[&str], args: &[&str], fast: u64) -> Result<Cli, String> {
        Cli::parse_from("t", accepts, args.iter().map(|a| a.to_string()), fast)
    }

    #[test]
    fn no_arguments_is_a_plain_canonical_run() {
        let cli = parse(&[], &[]).unwrap();
        assert!(!cli.check && !cli.write && !cli.smoke);
        assert_eq!((cli.seed, cli.trace.clone(), cli.fast), (None, None, 1));
        assert!(cli.canonical());
        assert!(cli.results_dir().ends_with("results"));
    }

    #[test]
    fn accepted_flags_parse_in_both_value_forms() {
        let cli = parse(
            GATED,
            &["--check", "--smoke", "--seed", "7", "--trace=t.json"],
        )
        .unwrap();
        assert!(cli.check && cli.smoke && !cli.write);
        assert_eq!(cli.seed, Some(7));
        assert_eq!(cli.trace, Some(PathBuf::from("t.json")));
        let cli = parse(GATED, &["--seed=2024", "--trace", "t.json"]).unwrap();
        assert_eq!(cli.seed, Some(2024));
        assert_eq!(cli.trace, Some(PathBuf::from("t.json")));
    }

    #[test]
    fn unknown_and_undeclared_flags_are_rejected() {
        assert!(parse(GATED, &["--chek"]).is_err());
        // Every binary takes --trace; the rest must be declared.
        assert!(parse(&[], &["--trace", "t.json"]).is_ok());
        assert!(parse(&[], &["--check"]).is_err());
        assert!(parse(&["--smoke", "--seed"], &["--write"]).is_err());
        assert!(parse(GATED, &["--check=yes"]).is_err());
    }

    #[test]
    fn bad_or_missing_values_are_rejected() {
        assert!(parse(GATED, &["--seed", "abc"]).is_err());
        assert!(parse(GATED, &["--seed", "-1"]).is_err());
        assert!(parse(GATED, &["--seed"]).is_err());
        assert!(parse(GATED, &["--seed", "--check"]).is_err());
        assert!(parse(GATED, &["--seed="]).is_err());
        assert!(parse(&[], &["--trace"]).is_err());
    }

    #[test]
    fn positional_arguments_only_where_declared() {
        assert!(parse(GATED, &["extra"]).is_err());
        let cli = parse(&["SYSTEM", "RATE"], &["sky", "--trace", "t", "350000"]).unwrap();
        assert_eq!(cli.args, ["sky", "350000"]);
        assert!(parse(&["SYSTEM", "RATE"], &["a", "b", "c"]).is_err());
    }

    #[test]
    fn smoke_seed_and_fast_runs_are_not_canonical() {
        for cli in [
            parse(GATED, &["--smoke"]).unwrap(),
            parse(GATED, &["--seed", "1"]).unwrap(),
            parse_fast(GATED, &["--check"], 10).unwrap(),
        ] {
            assert!(!cli.canonical());
            assert!(cli.results_dir().ends_with("target/results-scratch"));
        }
    }

    #[test]
    fn write_is_refused_outside_canonical_runs() {
        assert!(parse(GATED, &["--write"]).unwrap().canonical());
        assert!(parse(GATED, &["--smoke", "--write"]).is_err());
        assert!(parse(GATED, &["--write", "--seed", "1"]).is_err());
        assert!(parse_fast(GATED, &["--write"], 10).is_err());
    }

    #[test]
    fn usage_lists_the_accepted_flags() {
        assert_eq!(
            usage("slo_sweep", GATED),
            "usage: slo_sweep [--trace <path>] [--check] [--write] [--smoke] [--seed <n>]"
        );
    }
}
