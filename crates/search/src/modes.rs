//! The resolved compute modes of a run, as one record.
//!
//! Every replica of a world must compute with the same kernel backend,
//! site-repeats setting, reduction mode, thread count and gradient route
//! (and packs its partitions under the same `batch` switch). The driver
//! resolves the run's configuration once per world into a [`Modes`]
//! (`examl_core::RunConfig::modes`) and hands that one value to every
//! consumer. The record owns the two views
//! every sink derives from it: the sentinel digest and the label table
//! ([`Modes::labels`]) that the trace marks, heartbeats and health reports
//! all carry without knowing which modes exist.

use exa_comm::ReduceKind;
use exa_phylo::engine::{GradientMode, KernelKind, SiteRepeats, ThreadCount};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What a world computes with, after `auto` has been resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Modes {
    pub kernel: KernelKind,
    pub site_repeats: SiteRepeats,
    pub reduce: ReduceKind,
    /// Intra-rank worker-pool width.
    pub threads: ThreadCount,
    pub gradient: GradientMode,
    /// Pack small partitions into cache-sized kernel batches. Not part of
    /// [`Modes::fingerprint`]: packing is rank-local by construction.
    pub batch: bool,
}

impl Modes {
    /// Every mode as `(key, label)`: the one table the trace marks, the
    /// heartbeat and health JSON (`modes.<key>`) and the trace's
    /// `otherData.<key>` are written from.
    pub fn labels(&self) -> [(&'static str, &'static str); 6] {
        [
            ("kernel", self.kernel.label()),
            ("site_repeats", self.site_repeats.label()),
            ("reduce", self.reduce.label()),
            ("threads", self.threads.label()),
            ("gradient", self.gradient.label()),
            ("batch", if self.batch { "on" } else { "off" }),
        ]
    }

    /// The [`crate::Evaluator::backend_fingerprint`] digest: FNV-1a over
    /// the five resolved labels (`batch` aside). Identical modes hash identically across
    /// schemes, and a rank that silently resolved a different repeats
    /// setting, reduction mode (which would change the bits of every
    /// collective sum), thread count or gradient mode (result-neutral, but
    /// it changes the collective sequence ranks must agree on) trips the
    /// sentinel like a kernel mismatch does, at the first fingerprint sync.
    pub fn fingerprint(&self) -> u64 {
        exa_obs::fnv1a(
            format!(
                "{}+repeats:{}+reduce:{}+threads:{}+gradient:{}",
                self.kernel.label(),
                self.site_repeats.label(),
                self.reduce.label(),
                self.threads.label(),
                self.gradient.label()
            )
            .as_bytes(),
        )
    }

    /// [`Modes::labels`] as the owned `modes` table the heartbeat and
    /// health records carry.
    pub fn label_map(&self) -> BTreeMap<String, String> {
        self.labels().map(|(k, l)| (k.into(), l.into())).into()
    }

    /// Stamp one `mode:<key>=<label>` mark per mode into the calling
    /// rank's trace (`exa_obs::chrome_trace` hoists them into `otherData`).
    /// Every rank of a world stamps identically, preserving cross-rank
    /// event-sequence parity.
    pub fn stamp_trace(&self) {
        for (key, label) in self.labels() {
            exa_obs::mark(|| format!("{}{key}={label}", exa_obs::MODE_MARK));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_covers_the_five_negotiated_modes_and_not_batch() {
        let base = Modes {
            kernel: KernelKind::Scalar,
            site_repeats: SiteRepeats::Off,
            reduce: ReduceKind::Fast,
            threads: ThreadCount::new(1),
            gradient: GradientMode::Off,
            batch: true,
        };
        let variants = [
            Modes {
                kernel: KernelKind::Simd,
                ..base
            },
            Modes {
                site_repeats: SiteRepeats::On,
                ..base
            },
            Modes {
                reduce: ReduceKind::Reproducible,
                ..base
            },
            Modes {
                threads: ThreadCount::new(2),
                ..base
            },
            Modes {
                gradient: GradientMode::On,
                ..base
            },
        ];
        for v in variants {
            assert_ne!(v.fingerprint(), base.fingerprint(), "{v:?}");
        }
        let unbatched = Modes {
            batch: false,
            ..base
        };
        assert_eq!(unbatched.fingerprint(), base.fingerprint());
        assert_eq!(
            base.fingerprint(),
            exa_obs::fnv1a(b"scalar+repeats:off+reduce:fast+threads:1+gradient:off")
        );
    }
}
