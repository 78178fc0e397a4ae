//! The `rip` binary: thin argument parsing over `rip_cli`'s command
//! implementations.

use rip_cli::{
    cmd_baseline, cmd_batch, cmd_batch_tree, cmd_bench, cmd_client, cmd_generate,
    cmd_generate_trees, cmd_profile, cmd_serve, cmd_solve, cmd_solve_tree, cmd_tmin, usage,
    BenchOptions, CliError, ClientOptions, ProfileOptions, ServeOptions, Target,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        // A failed batch still prints its full per-net report; only the
        // exit code and a one-line summary signal the failure (no usage
        // dump — the command line was fine).
        Err(CliError::BatchFailed { report, failed }) => {
            print!("{report}");
            eprintln!("rip: batch failed: {failed} net(s) did not solve");
            ExitCode::FAILURE
        }
        // A protocol failure means the command line was fine and the
        // service misbehaved — the usage dump would only bury the
        // failing request/response.
        Err(e @ CliError::Protocol(_)) => {
            eprintln!("rip: {e}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("rip: {e}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, CliError> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("solve") => {
            let rest: Vec<&str> = it.collect();
            let (tree_mode, rest) = match rest.split_first() {
                Some((&"--tree", tail)) => (true, tail.to_vec()),
                _ => (false, rest),
            };
            let (file, flags) = split_flags(rest.into_iter())?;
            let target = parse_target(&flags)?;
            let text = std::fs::read_to_string(&file)?;
            if tree_mode {
                cmd_solve_tree(&text, target)
            } else {
                cmd_solve(&text, target)
            }
        }
        Some("baseline") => {
            let (file, flags) = split_flags(it)?;
            let target = parse_target(&flags)?;
            let g = flag_value(&flags, "--granularity")?
                .ok_or_else(|| CliError::Usage("--granularity <g_u> required".into()))?
                .parse::<f64>()
                .map_err(|_| CliError::Usage("granularity must be a number".into()))?;
            let text = std::fs::read_to_string(&file)?;
            cmd_baseline(&text, target, g)
        }
        Some("tmin") => {
            let (file, _) = split_flags(it)?;
            let text = std::fs::read_to_string(&file)?;
            cmd_tmin(&text)
        }
        Some("batch") => {
            let flags: Vec<String> = it.map(String::from).collect();
            let target = parse_target(&flags)?;
            if flags.iter().any(|f| f == "--tree") {
                let named_trees = match flag_value(&flags, "--dir")? {
                    Some(dir) => read_labeled_dir(&dir, "tree")?,
                    None => {
                        let seed = flag_value(&flags, "--seed")?
                            .unwrap_or_else(|| "2005".into())
                            .parse::<u64>()
                            .map_err(|_| CliError::Usage("seed must be an integer".into()))?;
                        let count = flag_value(&flags, "--count")?
                            .ok_or_else(|| {
                                CliError::Usage(
                                    "batch --tree needs --dir <dir> or --count <k>".into(),
                                )
                            })?
                            .parse::<usize>()
                            .map_err(|_| CliError::Usage("count must be an integer".into()))?;
                        cmd_generate_trees(seed, count)?
                            .into_iter()
                            .enumerate()
                            .map(|(i, text)| (format!("tree_{seed}_{i:02}"), text))
                            .collect()
                    }
                };
                return cmd_batch_tree(&named_trees, target);
            }
            let named_nets = match flag_value(&flags, "--dir")? {
                Some(dir) => read_labeled_dir(&dir, "net")?,
                None => {
                    let seed = flag_value(&flags, "--seed")?
                        .unwrap_or_else(|| "2005".into())
                        .parse::<u64>()
                        .map_err(|_| CliError::Usage("seed must be an integer".into()))?;
                    let count = flag_value(&flags, "--count")?
                        .ok_or_else(|| {
                            CliError::Usage("batch needs --dir <dir> or --count <k>".into())
                        })?
                        .parse::<usize>()
                        .map_err(|_| CliError::Usage("count must be an integer".into()))?;
                    cmd_generate(seed, count)?
                        .into_iter()
                        .enumerate()
                        .map(|(i, text)| (format!("gen_{seed}_{i:02}"), text))
                        .collect()
                }
            };
            cmd_batch(&named_nets, target)
        }
        Some("generate") => {
            let flags: Vec<String> = it.map(String::from).collect();
            let seed = flag_value(&flags, "--seed")?
                .unwrap_or_else(|| "2005".into())
                .parse::<u64>()
                .map_err(|_| CliError::Usage("seed must be an integer".into()))?;
            let count = flag_value(&flags, "--count")?
                .unwrap_or_else(|| "1".into())
                .parse::<usize>()
                .map_err(|_| CliError::Usage("count must be an integer".into()))?;
            let tree_mode = flags.iter().any(|f| f == "--tree");
            let (nets, kind, ext) = if tree_mode {
                (cmd_generate_trees(seed, count)?, "tree", "tree")
            } else {
                (cmd_generate(seed, count)?, "net", "net")
            };
            match flag_value(&flags, "--out-dir")? {
                Some(dir) => {
                    std::fs::create_dir_all(&dir)?;
                    let mut summary = String::new();
                    for (i, text) in nets.iter().enumerate() {
                        let path = format!("{dir}/{kind}_{seed}_{i:02}.{ext}");
                        std::fs::write(&path, text)?;
                        summary.push_str(&format!("wrote {path}\n"));
                    }
                    Ok(summary)
                }
                None => {
                    let mut out = String::new();
                    for (i, text) in nets.iter().enumerate() {
                        out.push_str(&format!("# --- {kind} {i} ---\n{text}"));
                    }
                    Ok(out)
                }
            }
        }
        Some("bench") => {
            let flags: Vec<String> = it.map(String::from).collect();
            reject_unknown_flags(&flags, &[], &BENCH_SWITCHES)?;
            cmd_bench(&BenchOptions {
                quick: flags.iter().any(|f| f == "--quick"),
                check_baseline: flags.iter().any(|f| f == "--check-baseline"),
            })
        }
        Some("profile") => {
            let flags: Vec<String> = it.map(String::from).collect();
            reject_unknown_flags(&flags, &PROFILE_FLAGS, &PROFILE_SWITCHES)?;
            let mut opts = ProfileOptions {
                quick: flags.iter().any(|f| f == "--quick"),
                ..ProfileOptions::default()
            };
            if let Some(t) = flag_value(&flags, "--trees")? {
                opts.trees = Some(
                    t.parse::<usize>()
                        .map_err(|_| CliError::Usage("--trees must be an integer".into()))?,
                );
            }
            if let Some(s) = flag_value(&flags, "--seed")? {
                opts.seed = Some(
                    s.parse::<u64>()
                        .map_err(|_| CliError::Usage("--seed must be an integer".into()))?,
                );
            }
            cmd_profile(&opts)
        }
        Some("serve") => {
            let flags: Vec<String> = it.map(String::from).collect();
            reject_unknown_flags(&flags, &SERVE_FLAGS, &[])?;
            let mut opts = ServeOptions::default();
            let parse_usize = |name: &str, v: String| {
                v.parse::<usize>()
                    .map_err(|_| CliError::Usage(format!("{name} must be an integer")))
            };
            if let Some(p) = flag_value(&flags, "--port")? {
                opts.port = p
                    .parse::<u16>()
                    .map_err(|_| CliError::Usage("--port must be a port number".into()))?;
            }
            if let Some(b) = flag_value(&flags, "--bind")? {
                opts.bind = b;
            }
            if let Some(w) = flag_value(&flags, "--workers")? {
                opts.workers = parse_usize("--workers", w)?;
                if opts.workers == 0 {
                    return Err(CliError::Usage("--workers must be at least 1".into()));
                }
            }
            if let Some(m) = flag_value(&flags, "--max-conns")? {
                opts.max_conns = parse_usize("--max-conns", m)?;
            }
            if let Some(t) = flag_value(&flags, "--timeout-secs")? {
                opts.timeout_secs = t
                    .parse::<u64>()
                    .map_err(|_| CliError::Usage("--timeout-secs must be an integer".into()))?;
            }
            if let Some(c) = flag_value(&flags, "--value-cache-cap")? {
                opts.value_cache_cap = parse_usize("--value-cache-cap", c)?;
            }
            if let Some(d) = flag_value(&flags, "--drain-secs")? {
                opts.drain_secs = d
                    .parse::<u64>()
                    .map_err(|_| CliError::Usage("--drain-secs must be an integer".into()))?;
            }
            if let Some(ms) = flag_value(&flags, "--log-slow-ms")? {
                opts.log_slow_ms = ms
                    .parse::<u64>()
                    .map_err(|_| CliError::Usage("--log-slow-ms must be an integer".into()))?;
            }
            // Deterministic fault injection (chaos testing; see the
            // README's resilience section). Off unless a cadence flag
            // is given.
            let parse_u64 = |name: &str, v: String| {
                v.parse::<u64>()
                    .map_err(|_| CliError::Usage(format!("{name} must be an integer")))
            };
            if let Some(n) = flag_value(&flags, "--fault-panic-every")? {
                opts.faults.panic_every = parse_u64("--fault-panic-every", n)?;
            }
            if let Some(n) = flag_value(&flags, "--fault-delay-every")? {
                opts.faults.delay_every = parse_u64("--fault-delay-every", n)?;
            }
            if let Some(n) = flag_value(&flags, "--fault-delay-ms")? {
                opts.faults.delay_ms = parse_u64("--fault-delay-ms", n)?;
            }
            if let Some(n) = flag_value(&flags, "--fault-drop-every")? {
                opts.faults.drop_every = parse_u64("--fault-drop-every", n)?;
            }
            if let Some(n) = flag_value(&flags, "--fault-seed")? {
                opts.faults.seed = parse_u64("--fault-seed", n)?;
            }
            cmd_serve(&opts)
        }
        Some("client") => {
            let rest: Vec<String> = it.map(String::from).collect();
            let Some(addr) = rest.first().filter(|a| !a.starts_with("--")) else {
                return Err(CliError::Usage("client needs <addr> (host:port)".into()));
            };
            reject_unknown_flags(&rest[1..], &CLIENT_FLAGS, &CLIENT_SWITCHES)?;
            let file = flag_value(&rest, "--file")?;
            // The target flags are only meaningful with --file; parse
            // them lazily so plain relay/smoke sessions don't require
            // them.
            let target = if file.is_some() {
                Some(parse_target(&rest)?)
            } else {
                None
            };
            let retries = match flag_value(&rest, "--retries")? {
                Some(r) => r
                    .parse::<u32>()
                    .map_err(|_| CliError::Usage("--retries must be an integer".into()))?,
                None => 0,
            };
            let backoff_ms = match flag_value(&rest, "--backoff-ms")? {
                Some(b) => b
                    .parse::<u64>()
                    .map_err(|_| CliError::Usage("--backoff-ms must be an integer".into()))?,
                // A sane default once retries are on; irrelevant when
                // they are off.
                None => 50,
            };
            let opts = ClientOptions {
                smoke: rest.iter().any(|f| f == "--smoke"),
                metrics: rest.iter().any(|f| f == "--metrics"),
                shutdown: rest.iter().any(|f| f == "--shutdown"),
                file,
                target,
                retries,
                backoff_ms,
            };
            let stdin = std::io::stdin();
            cmd_client(addr, &opts, &mut stdin.lock())
        }
        Some("help") | Some("--help") | Some("-h") | None => Ok(usage().to_string()),
        Some(other) => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

/// Reads every `*.{extension}` file in a directory, sorted by name for
/// deterministic batch order.
fn read_labeled_dir(dir: &str, extension: &str) -> Result<Vec<(String, String)>, CliError> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == extension))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(CliError::Usage(format!(
            "no .{extension} files found in {dir:?}"
        )));
    }
    paths
        .into_iter()
        .map(|p| {
            let label = p
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| p.display().to_string());
            Ok((label, std::fs::read_to_string(&p)?))
        })
        .collect()
}

/// Splits `<file> [flags...]` style arguments.
fn split_flags<'a>(
    mut it: impl Iterator<Item = &'a str>,
) -> Result<(String, Vec<String>), CliError> {
    let file = it
        .next()
        .ok_or_else(|| CliError::Usage("missing <net-file> argument".into()))?;
    Ok((file.to_string(), it.map(String::from).collect()))
}

/// Every `rip serve` flag; each takes exactly one value.
const SERVE_FLAGS: [&str; 13] = [
    "--port",
    "--bind",
    "--workers",
    "--max-conns",
    "--timeout-secs",
    "--value-cache-cap",
    "--drain-secs",
    "--log-slow-ms",
    "--fault-panic-every",
    "--fault-delay-every",
    "--fault-delay-ms",
    "--fault-drop-every",
    "--fault-seed",
];

/// The value-less `rip bench` switches (it has no valued flags).
const BENCH_SWITCHES: [&str; 2] = ["--quick", "--check-baseline"];

/// The `rip profile` flags that take a value.
const PROFILE_FLAGS: [&str; 2] = ["--trees", "--seed"];

/// The value-less `rip profile` switches.
const PROFILE_SWITCHES: [&str; 1] = ["--quick"];

/// The `rip client` flags after `<addr>` that take a value.
const CLIENT_FLAGS: [&str; 5] = [
    "--file",
    "--target-ns",
    "--target-mult",
    "--retries",
    "--backoff-ms",
];

/// The value-less `rip client` switches.
const CLIENT_SWITCHES: [&str; 3] = ["--smoke", "--metrics", "--shutdown"];

/// Fails with a usage error naming the first token of `flags` that is
/// neither one of the `valued` flags (whose value is skipped) nor one of
/// the value-less `switches`, so a misspelt or retired flag stops the
/// command instead of being ignored.
fn reject_unknown_flags(
    flags: &[String],
    valued: &[&str],
    switches: &[&str],
) -> Result<(), CliError> {
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        if valued.contains(&flag.as_str()) {
            // The value; a missing one is reported by `flag_value`.
            it.next();
        } else if !switches.contains(&flag.as_str()) {
            return Err(CliError::Usage(format!("unknown flag {flag:?}")));
        }
    }
    Ok(())
}

/// Looks up `--flag value` in a flag list.
fn flag_value(flags: &[String], name: &str) -> Result<Option<String>, CliError> {
    let mut it = flags.iter();
    while let Some(f) = it.next() {
        if f == name {
            return match it.next() {
                Some(v) => Ok(Some(v.clone())),
                None => Err(CliError::Usage(format!("{name} requires a value"))),
            };
        }
    }
    Ok(None)
}

fn parse_target(flags: &[String]) -> Result<Target, CliError> {
    let ns = flag_value(flags, "--target-ns")?;
    let mult = flag_value(flags, "--target-mult")?;
    match (ns, mult) {
        (Some(ns), None) => {
            Ok(Target::Ns(ns.parse().map_err(|_| {
                CliError::Usage("--target-ns must be a number".into())
            })?))
        }
        (None, Some(m)) => {
            Ok(Target::Multiplier(m.parse().map_err(|_| {
                CliError::Usage("--target-mult must be a number".into())
            })?))
        }
        (None, None) => Err(CliError::Usage(
            "one of --target-ns or --target-mult is required".into(),
        )),
        (Some(_), Some(_)) => Err(CliError::Usage(
            "--target-ns and --target-mult are mutually exclusive".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn serve_rejects_unknown_flags_by_name() {
        for (args, bad) in [
            (
                &["--port", "0", "--shardz", "2", "--bogus", "1"][..],
                "--shardz",
            ),
            (&["--workers", "2", "--shards", "2"][..], "--shards"),
            (&["--queue-cap", "8"][..], "--queue-cap"),
            (&["--fault-seed", "3", "stray"][..], "stray"),
        ] {
            match reject_unknown_flags(&flags(args), &SERVE_FLAGS, &[]) {
                Err(CliError::Usage(msg)) => assert!(msg.contains(bad), "{args:?}: {msg}"),
                other => panic!("{args:?} must be a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn serve_accepts_every_known_flag_and_skips_its_value() {
        // Values are skipped, never checked as flags: a value that
        // happens to look like an unknown flag is the known flag's.
        let all: Vec<String> = SERVE_FLAGS
            .iter()
            .flat_map(|f| [f.to_string(), "--not-a-flag".to_string()])
            .collect();
        assert!(reject_unknown_flags(&all, &SERVE_FLAGS, &[]).is_ok());
        assert!(reject_unknown_flags(&[], &SERVE_FLAGS, &[]).is_ok());
        // A trailing flag without its value passes here; `flag_value`
        // reports it when the value is read.
        assert!(reject_unknown_flags(&flags(&["--port"]), &SERVE_FLAGS, &[]).is_ok());
        assert!(matches!(
            run(&flags(&["serve", "--port", "0", "--shards", "2"])),
            Err(CliError::Usage(_))
        ));
    }

    fn usage_error_naming(args: &[&str], bad: &str) {
        match run(&flags(args)) {
            Err(CliError::Usage(msg)) => assert!(msg.contains(bad), "{args:?}: {msg}"),
            other => panic!("{args:?} must be a usage error, got {other:?}"),
        }
    }

    #[test]
    fn bench_profile_and_client_reject_retired_and_misspelt_flags() {
        // Rejected before any bench runs or any connection is opened.
        usage_error_naming(&["bench", "--tolerance", "0.25"], "--tolerance");
        usage_error_naming(
            &["bench", "--quick", "--check-baselines"],
            "--check-baselines",
        );
        usage_error_naming(&["profile", "--quick", "--tree", "3"], "--tree");
        usage_error_naming(&["profile", "--seed", "7", "--quik"], "--quik");
        usage_error_naming(&["client", "127.0.0.1:1", "--smoek"], "--smoek");
        usage_error_naming(
            &["client", "127.0.0.1:1", "--retries", "2", "--backoff", "5"],
            "--backoff",
        );
    }

    #[test]
    fn bench_profile_and_client_accept_every_known_flag() {
        for (valued, switches) in [
            (&[][..], &BENCH_SWITCHES[..]),
            (&PROFILE_FLAGS[..], &PROFILE_SWITCHES[..]),
            (&CLIENT_FLAGS[..], &CLIENT_SWITCHES[..]),
        ] {
            // Switches take no value: a switch right before a valued
            // flag must not swallow it.
            let all: Vec<String> = switches
                .iter()
                .map(|f| f.to_string())
                .chain(valued.iter().flat_map(|f| [f.to_string(), "1".to_string()]))
                .collect();
            assert!(
                reject_unknown_flags(&all, valued, switches).is_ok(),
                "{all:?}"
            );
        }
        assert!(matches!(
            reject_unknown_flags(&flags(&["--quick", "7"]), &[], &BENCH_SWITCHES),
            Err(CliError::Usage(msg)) if msg.contains("\"7\"")
        ));
    }
}
