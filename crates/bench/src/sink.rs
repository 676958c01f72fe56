//! Capturable output sink for the experiment drivers.
//!
//! Every table/figure driver writes its human-readable output through
//! [`crate::outln!`]/[`crate::out!`] and its file artifacts (JSON rows)
//! through [`artifact`]. The orchestration harness installs a
//! thread-local capture before it runs an experiment, and the bytes are
//! collected there: that is what gets cached, diffed, and written with
//! deterministic ordering regardless of worker-thread interleaving.
//! Outside a capture the text goes to stdout (the `sparten_cli` tables).

use std::cell::RefCell;
use std::fmt;

/// Everything one experiment run emitted: the stdout text plus any file
/// artifacts (path, contents) it produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Capture {
    /// The bytes the experiment would have written to stdout.
    pub text: String,
    /// File artifacts as `(repo-relative path, contents)` pairs, in the
    /// order they were produced.
    pub artifacts: Vec<(String, String)>,
}

thread_local! {
    static ACTIVE: RefCell<Option<Capture>> = const { RefCell::new(None) };
}

/// Starts capturing this thread's experiment output.
///
/// # Panics
///
/// Panics if a capture is already active on this thread — captures do not
/// nest; the harness runs one experiment point per thread at a time.
pub fn begin_capture() {
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        assert!(slot.is_none(), "output capture already active");
        *slot = Some(Capture::default());
    });
}

/// Stops capturing and returns everything collected since
/// [`begin_capture`].
///
/// # Panics
///
/// Panics if no capture is active.
pub fn end_capture() -> Capture {
    ACTIVE.with(|a| a.borrow_mut().take().expect("no active output capture"))
}

/// Whether this thread is currently capturing.
pub fn is_capturing() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Writes a line (plus `\n`) to the capture, or stdout if none is active.
/// Use via [`crate::outln!`].
pub fn outln_args(args: fmt::Arguments<'_>) {
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        match slot.as_mut() {
            Some(c) => {
                fmt::write(&mut c.text, args).expect("string write");
                c.text.push('\n');
            }
            None => println!("{args}"),
        }
    });
}

/// Writes without a newline to the capture, or stdout if none is active.
/// Use via [`crate::out!`].
pub fn out_args(args: fmt::Arguments<'_>) {
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        match slot.as_mut() {
            Some(c) => fmt::write(&mut c.text, args).expect("string write"),
            None => print!("{args}"),
        }
    });
}

/// Records a file artifact in the active capture; the harness writes it
/// (atomically) once the experiment's output is final.
///
/// # Panics
///
/// Panics if no capture is active: artifacts exist only under the harness.
pub fn artifact(path: &str, contents: &str) {
    ACTIVE.with(|a| {
        a.borrow_mut()
            .as_mut()
            .expect("artifact outside an output capture")
            .artifacts
            .push((path.to_string(), contents.to_string()));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_collects_text_and_artifacts() {
        begin_capture();
        crate::outln!("hello {}", 7);
        crate::out!("a");
        crate::out!("b");
        crate::outln!();
        artifact("results/test.json", "[]");
        let c = end_capture();
        assert_eq!(c.text, "hello 7\nab\n");
        assert_eq!(c.artifacts, vec![("results/test.json".into(), "[]".into())]);
        assert!(!is_capturing());
    }

    #[test]
    fn captures_are_per_thread() {
        begin_capture();
        crate::outln!("outer");
        let inner = std::thread::spawn(|| {
            begin_capture();
            crate::outln!("inner");
            end_capture().text
        })
        .join()
        .unwrap();
        let outer = end_capture();
        assert_eq!(outer.text, "outer\n");
        assert_eq!(inner, "inner\n");
    }
}
