//! What a `repro` command returns, and the one exit path that turns it
//! into stdout, files, diagnostics and an exit code.
//!
//! A command either fails outright with a [`CommandError`] (the
//! simulation or configuration rejected the run) or returns an
//! [`Outcome`]: the text for stdout, the files to write, stderr notes,
//! and the named [`Check`]s it ran. [`emit`] is the only place that
//! prints any of it, so every command reports the same way.

use std::error::Error;
use std::fmt;
use std::io::Write as _;
use std::path::PathBuf;

use crate::render_diagnostic;

/// One named invariant a command verifies, with every violation found.
#[derive(Debug)]
pub struct Check {
    name: &'static str,
    failures: Vec<String>,
}

impl Check {
    /// A check that has seen no violation yet.
    pub fn new(name: &'static str) -> Check {
        Check {
            name,
            failures: Vec::new(),
        }
    }

    /// Records a violation (described lazily by `why`) unless `ok`;
    /// returns `ok`.
    pub fn require(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failures.push(why());
        }
        ok
    }

    /// True when no violation was recorded.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Everything a command produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The text for stdout.
    pub stdout: String,
    /// Files to write, in order, as `(path, contents)`.
    pub files: Vec<(PathBuf, String)>,
    /// Lines for stderr, printed after the files are written.
    pub notes: Vec<String>,
    /// The checks the command ran; any violation makes the exit code 1.
    pub checks: Vec<Check>,
}

impl Outcome {
    /// One ``check `NAME` failed: WHY`` line per violation.
    pub fn failures(&self) -> Vec<String> {
        self.checks
            .iter()
            .flat_map(|c| {
                c.failures
                    .iter()
                    .map(move |why| format!("check `{}` failed: {why}", c.name))
            })
            .collect()
    }

    /// 0 when every check passed, 1 otherwise.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.checks.iter().all(Check::passed))
    }
}

/// A command that could not produce an [`Outcome`], with the exit code
/// of its class.
#[derive(Debug)]
pub struct CommandError {
    code: i32,
    error: Box<dyn Error>,
}

impl CommandError {
    /// An error exiting with `code` (2 for usage, 3 for configuration).
    pub fn new(code: i32, error: impl Into<Box<dyn Error>>) -> CommandError {
        CommandError {
            code,
            error: error.into(),
        }
    }

    /// The process exit code for this error.
    pub fn exit_code(&self) -> i32 {
        self.code
    }
}

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.error.fmt(f)
    }
}

impl Error for CommandError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        self.error.source()
    }
}

impl From<sdds::SddsError> for CommandError {
    fn from(e: sdds::SddsError) -> CommandError {
        CommandError::new(e.exit_code(), e)
    }
}

impl From<sdds::ExperimentError> for CommandError {
    fn from(e: sdds::ExperimentError) -> CommandError {
        CommandError::new(e.exit_code(), e)
    }
}

/// A rebuild scenario rejected before it starts is a configuration
/// error (exit code 3).
impl From<sdds_runtime::RebuildError> for CommandError {
    fn from(e: sdds_runtime::RebuildError) -> CommandError {
        CommandError::new(3, e)
    }
}

/// Turns a command's result into output and an exit code: the one exit
/// path of `repro`.
///
/// An error prints its [`render_diagnostic`] (with the cause chain when
/// `verbose`) and returns its class's code. An outcome prints its
/// stdout, writes its files (`[wrote PATH]` on stderr; a write failure
/// exits 1), prints its notes and one `repro: check ...` line per
/// violation, and returns 1 if anything failed, 0 otherwise.
pub fn emit(result: Result<Outcome, CommandError>, verbose: bool) -> i32 {
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}", render_diagnostic(&e, verbose));
            return e.exit_code();
        }
    };
    let mut stdout = std::io::stdout().lock();
    let _ = stdout.write_all(outcome.stdout.as_bytes());
    let _ = stdout.flush();
    let mut code = outcome.exit_code();
    for (path, contents) in &outcome.files {
        match std::fs::write(path, contents) {
            Ok(()) => eprintln!("[wrote {}]", path.display()),
            Err(e) => {
                eprintln!("repro: cannot write {}: {e}", path.display());
                code = 1;
            }
        }
    }
    for note in &outcome.notes {
        eprintln!("{note}");
    }
    for failure in outcome.failures() {
        eprintln!("repro: {failure}");
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_names_itself_and_exits_non_zero() {
        let mut determinism = Check::new("determinism across repeats");
        assert!(determinism.require(true, || unreachable!()));
        assert!(!determinism.require(false, || "event count 10 then 11".to_owned()));
        let outcome = Outcome {
            checks: vec![Check::new("byte parity"), determinism],
            ..Outcome::default()
        };
        assert_eq!(
            outcome.failures(),
            ["check `determinism across repeats` failed: event count 10 then 11"]
        );
        assert_eq!(outcome.exit_code(), 1);
        assert_eq!(emit(Ok(outcome), false), 1);
    }

    #[test]
    fn passing_checks_exit_zero() {
        let outcome = Outcome {
            checks: vec![Check::new("byte parity")],
            ..Outcome::default()
        };
        assert!(outcome.failures().is_empty());
        assert_eq!(emit(Ok(outcome), false), 0);
    }

    #[test]
    fn errors_keep_their_class_exit_code() {
        let config = sdds::SddsError::Config(sdds::ConfigError::ZeroProcs);
        assert_eq!(emit(Err(config.into()), true), 3);
        assert_eq!(emit(Err(CommandError::new(2, "bad flag")), false), 2);
    }
}
