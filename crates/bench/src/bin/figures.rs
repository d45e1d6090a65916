//! Regenerates the paper's tables and figures as text reports.
//!
//! ```text
//! figures              # list available experiments
//! figures all          # run everything (experiments run concurrently)
//! figures fig5 fig17   # run specific experiments
//! figures --jobs 4 all # cap the executor at 4 threads
//! ```
//!
//! Reports always print in experiment order, whatever the thread count;
//! per-experiment wall-clock timings go to stderr.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use sudc_bench::experiments::{find, EXPERIMENTS};

/// Parses the `--jobs` argument: any positive integer is a thread count;
/// everything else (including 0) is a configuration error.
fn parse_jobs(arg: &str) -> Result<usize, String> {
    match arg.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "--jobs must be a positive integer (got {arg:?}); \
             use --jobs N with N >= 1 or drop the flag for automatic resolution"
        )),
    }
}

fn main() -> ExitCode {
    // Fail fast on an invalid SUDC_THREADS (e.g. 0) rather than panicking
    // mid-run or silently using a different thread count.
    if let Err(e) = sudc_par::try_threads() {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }

    let mut args: Vec<String> = std::env::args().skip(1).collect();

    // Optional: --out <dir> writes each report to <dir>/<id>.txt as well.
    let mut out_dir: Option<PathBuf> = None;
    if let Some(pos) = args.iter().position(|a| a == "--out") {
        if pos + 1 >= args.len() {
            eprintln!("--out requires a directory argument");
            return ExitCode::FAILURE;
        }
        out_dir = Some(PathBuf::from(args.remove(pos + 1)));
        args.remove(pos);
    }

    // Optional: --jobs <n> overrides the executor's thread count (also
    // settable via the SUDC_THREADS environment variable).
    if let Some(pos) = args.iter().position(|a| a == "--jobs") {
        if pos + 1 >= args.len() {
            eprintln!("--jobs requires a thread count");
            return ExitCode::FAILURE;
        }
        let n = args.remove(pos + 1);
        args.remove(pos);
        match parse_jobs(&n) {
            Ok(n) => sudc_par::set_threads(n),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if args.is_empty() {
        eprintln!(
            "usage: figures [--out DIR] [--jobs N] <experiment id>... | all\n\navailable experiments:"
        );
        for (id, desc, _) in EXPERIMENTS {
            eprintln!("  {id:8} {desc}");
        }
        return ExitCode::FAILURE;
    }
    let ids: Vec<String> = if args.iter().any(|a| a == "all") {
        EXPERIMENTS
            .iter()
            .map(|(id, ..)| (*id).to_string())
            .collect()
    } else {
        args
    };
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    // Run the experiments concurrently on the executor; collect (report,
    // elapsed) per id, then print sequentially in the order requested.
    let start = Instant::now();
    let results: Vec<(Option<String>, f64)> = sudc_par::par_map(&ids, |_, id| {
        let t = Instant::now();
        let report = find(id).map(|generate| generate());
        (report, t.elapsed().as_secs_f64() * 1e3)
    });
    let total_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut failed = false;
    for (id, (report, elapsed_ms)) in ids.iter().zip(results) {
        match report {
            Some(report) => {
                println!("{report}");
                eprintln!("[{id}: {elapsed_ms:.0} ms]");
                if let Some(dir) = &out_dir {
                    let path = dir.join(format!("{id}.txt"));
                    if let Err(e) = std::fs::write(&path, &report) {
                        eprintln!("cannot write {}: {e}", path.display());
                        failed = true;
                    }
                }
            }
            None => {
                eprintln!("unknown experiment: {id} (run with no args to list)");
                failed = true;
            }
        }
    }
    eprintln!(
        "[{} experiments in {total_ms:.0} ms on {} threads]",
        ids.len(),
        sudc_par::threads()
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::parse_jobs;

    #[test]
    fn positive_jobs_parse() {
        assert_eq!(parse_jobs("1"), Ok(1));
        assert_eq!(parse_jobs(" 8 "), Ok(8));
    }

    #[test]
    fn zero_and_garbage_jobs_error_with_a_clear_message() {
        for bad in ["0", "-2", "four", ""] {
            let err = parse_jobs(bad).unwrap_err();
            assert!(
                err.contains("--jobs must be a positive integer"),
                "jobs {bad:?}: {err}"
            );
        }
    }
}
