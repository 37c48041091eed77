//! A leveled stderr logger for the binaries.
//!
//! One process-global level filters the [`error!`](crate::error),
//! [`warn!`](crate::warn), [`info!`](crate::info),
//! [`debug!`](crate::debug) and [`trace!`](crate::trace) macros. The
//! level comes from the `CSM_LOG` environment variable (via
//! [`init_from_env`]) or a `--log-level` flag (via [`set_level`]);
//! filtered-out calls cost one relaxed atomic load.
//!
//! Log lines go to stderr so the binaries' stable stdout contract
//! (per-client commit lines and the `… OK` / `… FAILED` verdicts CI
//! reads) is untouched.

use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Unrecoverable or protocol-breaking conditions.
    Error = 0,
    /// Suspicious but tolerated conditions (Byzantine evidence,
    /// divergence notices, dropped input).
    Warn = 1,
    /// Lifecycle milestones (startup, shutdown, resync).
    Info = 2,
    /// Per-round diagnostics.
    Debug = 3,
    /// Per-message diagnostics.
    Trace = 4,
}

impl LogLevel {
    /// The level's lowercase name.
    pub fn as_str(&self) -> &'static str {
        match self {
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
            LogLevel::Trace => "trace",
        }
    }

    /// Parses a level name (case-insensitive).
    pub fn from_str_opt(s: &str) -> Option<LogLevel> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(LogLevel::Error),
            "warn" | "warning" => Some(LogLevel::Warn),
            "info" => Some(LogLevel::Info),
            "debug" => Some(LogLevel::Debug),
            "trace" => Some(LogLevel::Trace),
            _ => None,
        }
    }
}

/// The process-global maximum level that still logs.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(LogLevel::Info as u8);

/// Marker type carrying the logger's documentation; all state is the
/// process-global level.
#[derive(Debug, Clone, Copy)]
pub struct Logger;

/// Sets the global level: calls at or above `level`'s severity log.
pub fn set_level(level: LogLevel) {
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current global level.
pub fn level() -> LogLevel {
    match MAX_LEVEL.load(Ordering::Relaxed) {
        0 => LogLevel::Error,
        1 => LogLevel::Warn,
        2 => LogLevel::Info,
        3 => LogLevel::Debug,
        _ => LogLevel::Trace,
    }
}

/// Whether a call at `level` would currently log.
pub fn enabled(level: LogLevel) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Initializes the level from the `CSM_LOG` environment variable, when
/// set to a valid level name. Returns the resulting level.
pub fn init_from_env() -> LogLevel {
    if let Ok(v) = std::env::var("CSM_LOG") {
        if let Some(l) = LogLevel::from_str_opt(&v) {
            set_level(l);
        }
    }
    level()
}

/// Writes one log line to stderr if `level` passes the filter. Called
/// through the level macros, which supply the module path as `target`.
pub fn log(level: LogLevel, target: &str, args: fmt::Arguments<'_>) {
    if !enabled(level) {
        return;
    }
    let line = format!("[{:5}] {target}: {args}\n", level.as_str());
    // A single write keeps concurrent nodes' lines from interleaving.
    let _ = std::io::stderr().lock().write_all(line.as_bytes());
}

/// Logs at [`LogLevel::Error`].
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        $crate::logger::log($crate::LogLevel::Error, module_path!(), format_args!($($arg)*))
    };
}

/// Logs at [`LogLevel::Warn`].
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::logger::log($crate::LogLevel::Warn, module_path!(), format_args!($($arg)*))
    };
}

/// Logs at [`LogLevel::Info`].
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::logger::log($crate::LogLevel::Info, module_path!(), format_args!($($arg)*))
    };
}

/// Logs at [`LogLevel::Debug`].
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        $crate::logger::log($crate::LogLevel::Debug, module_path!(), format_args!($($arg)*))
    };
}

/// Logs at [`LogLevel::Trace`].
#[macro_export]
macro_rules! trace {
    ($($arg:tt)*) => {
        $crate::logger::log($crate::LogLevel::Trace, module_path!(), format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing_and_ordering() {
        assert_eq!(LogLevel::from_str_opt("WARN"), Some(LogLevel::Warn));
        assert_eq!(LogLevel::from_str_opt("warning"), Some(LogLevel::Warn));
        assert_eq!(LogLevel::from_str_opt("Trace"), Some(LogLevel::Trace));
        assert_eq!(LogLevel::from_str_opt("loud"), None);
        assert!(LogLevel::Error < LogLevel::Trace);
    }

    #[test]
    fn filter_follows_global_level() {
        // Tests share the process-global level; restore it when done.
        let before = level();
        set_level(LogLevel::Warn);
        assert!(enabled(LogLevel::Error));
        assert!(enabled(LogLevel::Warn));
        assert!(!enabled(LogLevel::Info));
        set_level(LogLevel::Trace);
        assert!(enabled(LogLevel::Trace));
        crate::trace!("exercises the macro path: {}", 42);
        set_level(before);
    }
}
