//! Full-tree analytic branch-gradient configuration.
//!
//! The gradient sweep (see [`Engine::edge_gradient`](super::Engine::edge_gradient))
//! computes `dlnL/dt` (and curvature) for **every** edge in one post-order +
//! pre-order pass, so a full-tree gradient needs a single fat collective
//! instead of one small derivative allreduce per edge (Ji et al., "Gradients
//! do grow on trees"). The mode selects how `Evaluator::full_gradient`
//! computes and reduces — from the sweep or edge by edge, bitwise-identical
//! numbers either way — and branch smoothing does not call it (a smoothing
//! pass is per-edge Newton), so the mode changes nothing a run computes or
//! sends. Like the kernel backend and site-repeat compression it is a run
//! mode every rank resolves alike and part of the replica sentinel's backend
//! fingerprint, so a world whose ranks disagree on it is refused at the
//! first sync.

use serde::{Deserialize, Serialize};

/// Whether branch-length optimization is driven by the one-pass full-tree
/// gradient sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GradientMode {
    On,
    Off,
}

impl GradientMode {
    /// Stable lowercase label (CLI values, trace/health stamps).
    pub fn label(&self) -> &'static str {
        match self {
            GradientMode::On => "on",
            GradientMode::Off => "off",
        }
    }
}

impl std::fmt::Display for GradientMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The route of `Evaluator::full_gradient`, as requested on the command
/// line or in a run's configuration. Both routes give bitwise-equal
/// numbers, and branch smoothing calls neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GradientChoice {
    /// `Evaluator::full_gradient` reads every edge from one sweep and
    /// reduces them in a single collective.
    On,
    /// `Evaluator::full_gradient` walks the edges one by one.
    Off,
    /// On: the sweep is pure software.
    Auto,
}

impl GradientChoice {
    /// Parse a CLI value (`on`, `off`, `auto`).
    pub fn parse(s: &str) -> Option<GradientChoice> {
        match s {
            "on" => Some(GradientChoice::On),
            "off" => Some(GradientChoice::Off),
            "auto" => Some(GradientChoice::Auto),
            _ => None,
        }
    }

    /// Stable lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            GradientChoice::On => "on",
            GradientChoice::Off => "off",
            GradientChoice::Auto => "auto",
        }
    }

    /// Resolve this policy (`auto` is on).
    pub fn resolve_local(self) -> GradientMode {
        match self {
            GradientChoice::On => GradientMode::On,
            GradientChoice::Off => GradientMode::Off,
            GradientChoice::Auto => GradientMode::On,
        }
    }
}

impl std::fmt::Display for GradientChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip_through_parse() {
        for choice in [
            GradientChoice::On,
            GradientChoice::Off,
            GradientChoice::Auto,
        ] {
            assert_eq!(GradientChoice::parse(choice.label()), Some(choice));
        }
        assert_eq!(GradientChoice::parse("newton"), None);
    }

    #[test]
    fn auto_resolves_on() {
        assert_eq!(GradientChoice::Auto.resolve_local(), GradientMode::On);
        assert_eq!(GradientChoice::Off.resolve_local(), GradientMode::Off);
    }
}
