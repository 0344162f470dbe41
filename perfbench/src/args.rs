//! Command-line parsing: `--workload <name> --seed <n> --seconds <n>
//! --trace <0|1>`, each flag also accepted as `--flag=value`.
//!
//! Every malformed input maps to a typed [`ArgError`]; `main` prints it
//! and exits with code 2, so a bad seed or workload name never panics.

use std::fmt;

/// The benchmark's workloads (see `layers.json` for what each isolates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's ten scenarios, each searched cold on a 3×3 and a 6×6 MCM.
    PaperSearch,
    /// Burst AR/VR traffic on one 3×3 MCM with preemption and admission.
    ServeOverload,
    /// Burst AR/VR traffic across a 4-replica fleet, almost all cache hits.
    FleetAffinity,
}

impl Workload {
    /// Every workload, in the order `layers.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSearch,
        Workload::ServeOverload,
        Workload::FleetAffinity,
    ];

    /// The name the `--workload` flag takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSearch => "paper_search",
            Workload::ServeOverload => "serve_overload",
            Workload::FleetAffinity => "fleet_affinity",
        }
    }

    /// The seed used when `--seed` is absent.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::PaperSearch => 0x5CA2,
            Workload::ServeOverload => 0x0B57,
            Workload::FleetAffinity => 0xF1EE7,
        }
    }

    /// Looks a workload up by its flag name.
    ///
    /// # Errors
    ///
    /// [`ArgError::UnknownWorkload`] for any other name.
    pub fn parse(name: &str) -> Result<Self, ArgError> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| ArgError::UnknownWorkload(name.to_string()))
    }
}

/// One parsed invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Host seconds the measurement loop runs for.
    pub seconds: u64,
    /// `false`: report end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
}

/// Longest measurement a single invocation accepts, seconds.
pub const MAX_SECONDS: u64 = 600;

/// Why an argument list was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// `--workload` was not given.
    MissingWorkload,
    /// `--workload` named no known workload.
    UnknownWorkload(String),
    /// `--seed` is not an unsigned 64-bit integer.
    BadSeed(String),
    /// `--seconds` is not a whole number in `1..=MAX_SECONDS`.
    BadSeconds(String),
    /// `--trace` is neither `0` nor `1`.
    BadTrace(String),
    /// A flag was given without its value.
    MissingValue(String),
    /// A flag was given twice.
    Duplicate(String),
    /// An argument that is not one of the four flags.
    UnknownFlag(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingWorkload => write!(f, "--workload is required"),
            ArgError::UnknownWorkload(w) => {
                let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                write!(f, "unknown workload {w:?} (known: {})", known.join(", "))
            }
            ArgError::BadSeed(s) => write!(f, "--seed {s:?} is not an unsigned 64-bit integer"),
            ArgError::BadSeconds(s) => {
                write!(
                    f,
                    "--seconds {s:?} is not a whole number in 1..={MAX_SECONDS}"
                )
            }
            ArgError::BadTrace(s) => write!(f, "--trace {s:?} is neither 0 nor 1"),
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::Duplicate(flag) => write!(f, "{flag} given more than once"),
            ArgError::UnknownFlag(a) => write!(
                f,
                "unexpected argument {a:?} (usage: --workload <name> --seed <n> \
                 --seconds <n> --trace <0|1>)"
            ),
        }
    }
}

impl std::error::Error for ArgError {}

/// Parses the arguments after the program name. Absent `--seed`,
/// `--seconds`, and `--trace` default to the workload's seed, 10 s, and 0.
///
/// # Errors
///
/// The first malformed argument, as an [`ArgError`].
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Args, ArgError> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
            _ => (arg.clone(), None),
        };
        let slot: &mut Option<String> = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(ArgError::UnknownFlag(arg)),
        };
        if slot.is_some() {
            return Err(ArgError::Duplicate(flag));
        }
        let value = match inline {
            Some(v) => v,
            None => it
                .next()
                .ok_or_else(|| ArgError::MissingValue(flag.clone()))?,
        };
        *slot = Some(value);
    }

    let workload = Workload::parse(&workload.ok_or(ArgError::MissingWorkload)?)?;
    let seed = match seed {
        None => workload.default_seed(),
        Some(s) => s.trim().parse::<u64>().map_err(|_| ArgError::BadSeed(s))?,
    };
    let seconds = match seconds {
        None => 10,
        Some(s) => match s.trim().parse::<u64>() {
            Ok(n) if (1..=MAX_SECONDS).contains(&n) => n,
            _ => return Err(ArgError::BadSeconds(s)),
        },
    };
    let trace = match trace.as_deref().map(str::trim) {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return Err(ArgError::BadTrace(trace.unwrap_or_default())),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}
