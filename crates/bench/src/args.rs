//! Minimal command-line handling shared by the figure binaries.

/// Common options for figure binaries.
#[derive(Clone, Copy, Debug)]
pub struct HarnessArgs {
    /// Epochs per run (paper: 20 000).
    pub epochs: u64,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Whether `--quick` was given.
    pub quick: bool,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs { epochs: 20_000, seed: 42, threads: 0, quick: false }
    }
}

impl HarnessArgs {
    /// Parse from an iterator of argument strings (without `argv[0]`).
    ///
    /// Recognised: `--epochs N`, `--seed S`, `--threads T`, `--quick`.
    /// Unknown arguments abort with a usage message.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = HarnessArgs::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--epochs" => {
                    out.epochs = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--epochs needs a number"));
                }
                "--seed" => {
                    out.seed = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs a number"));
                }
                "--threads" => {
                    out.threads = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--threads needs a number"));
                }
                "--quick" => {
                    out.epochs = 4_000;
                    out.quick = true;
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown argument {other:?}")),
            }
        }
        out
    }

    /// Parse from the process arguments.
    pub fn from_env() -> Self {
        HarnessArgs::parse(std::env::args().skip(1))
    }

    /// The line a figure binary prints to stderr before its runs: `what`,
    /// the epochs per run and, unless `--quick` was given, a hint at it.
    pub fn banner(&self, what: &str) -> String {
        let hint = if self.quick { "" } else { " (use --quick for a fast pass)" };
        format!("{what}, {} epochs each{hint}", self.epochs)
    }

    /// Warm-up epochs to exclude from aggregates for this run length.
    pub fn measure_from(&self) -> u64 {
        (self.epochs / 10).clamp(200, 2_000)
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage: <bin> [--epochs N] [--seed S] [--threads T] [--quick]");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> HarnessArgs {
        HarnessArgs::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.epochs, 20_000);
        assert_eq!(a.seed, 42);
        assert_eq!(a.threads, 0);
    }

    #[test]
    fn explicit_values() {
        let a = parse(&["--epochs", "1234", "--seed", "9", "--threads", "4"]);
        assert_eq!(a.epochs, 1234);
        assert_eq!(a.seed, 9);
        assert_eq!(a.threads, 4);
    }

    #[test]
    fn quick_mode() {
        let a = parse(&["--quick"]);
        assert_eq!(a.epochs, 4_000);
        assert!(a.quick && !parse(&[]).quick);
    }

    #[test]
    fn banner_hints_at_quick_only_without_it() {
        assert_eq!(
            parse(&[]).banner("fig6: 4 policies"),
            "fig6: 4 policies, 20000 epochs each (use --quick for a fast pass)"
        );
        assert_eq!(
            parse(&["--quick"]).banner("fig6: 4 policies"),
            "fig6: 4 policies, 4000 epochs each"
        );
        assert_eq!(
            parse(&["--quick", "--epochs", "900"]).banner("cost_ratio: 6 runs"),
            "cost_ratio: 6 runs, 900 epochs each"
        );
        assert_eq!(
            parse(&["--epochs", "900"]).banner("cost_ratio: 6 runs"),
            "cost_ratio: 6 runs, 900 epochs each (use --quick for a fast pass)"
        );
    }

    #[test]
    fn measure_from_scales() {
        let with_epochs = |epochs| HarnessArgs { epochs, ..HarnessArgs::default() };
        assert_eq!(with_epochs(20_000).measure_from(), 2_000);
        assert_eq!(with_epochs(4_000).measure_from(), 400);
        assert_eq!(with_epochs(500).measure_from(), 200);
    }
}
