//! Unified capability negotiation.
//!
//! Five per-rank compute settings must be uniform across a world before
//! any engine is built: the likelihood-kernel backend, the subtree-repeat
//! compression setting, the collective reduction mode, the intra-rank
//! thread count, and the gradient-driven BLO mode. Each is a small
//! totally-ordered capability (a higher level is a superset of a lower
//! one), so heterogeneous worlds agree by everyone adopting the minimum
//! advertised level — the same protocol MPI codes use for feature
//! negotiation at startup. The outcome is one [`Modes`] record.
//!
//! Historically each setting ran its own one-byte allgather, and only when
//! its choice was `Auto`. This module replaces those with ONE packed
//! exchange that always runs: every rank contributes one byte per
//! capability slot on a single `Control` allgather, forced slots simply
//! ignore the gathered minimum. Running the exchange unconditionally keeps
//! the collective sequence identical across ranks and across
//! configurations, which the trace rank-parity invariants and the
//! divergence sentinel both rely on.

use exa_comm::{CommCategory, Rank, ReduceChoice, ReduceKind};
use exa_phylo::engine::{
    GradientChoice, GradientMode, KernelChoice, KernelKind, RepeatsChoice, SiteRepeats,
    ThreadCount, ThreadsChoice,
};
use exa_search::Modes;

/// A negotiable setting as the operator asks for it: either an explicit
/// mode or `auto`. The mode is a small totally-ordered capability — a
/// monotone level, reconstructible from a negotiated minimum level.
///
/// The impl is also where a mode's operator surface is written, once: the
/// command-line rows of [`crate::cli`] are generated from these constants.
pub trait Choice: Copy + PartialEq {
    /// The resolved mode this choice negotiates down to.
    type Mode: Copy;
    /// The "let the world decide" value.
    const AUTO: Self;
    /// The command-line flag that sets this choice, as `--help` shows it
    /// (`--name VALUE`).
    const FLAG: &'static str;
    /// The environment variable the type's `from_env` reads the default
    /// from.
    const ENV: &'static str;
    /// The accepted values, as an error message names them.
    const VALUES: &'static str;
    /// The `--help` paragraph of [`Choice::FLAG`].
    const HELP: &'static str;
    /// Parse a [`Choice::FLAG`] / [`Choice::ENV`] value.
    fn parse(s: &str) -> Option<Self>;
    /// What this choice resolves to without a world (`auto` = the best this
    /// host offers).
    fn resolve_local(self) -> Self::Mode;
    /// Monotone capability level a mode advertises on the wire.
    fn level(mode: Self::Mode) -> u8;
    /// The mode a negotiated minimum level resolves to.
    fn from_level(level: u8) -> Self::Mode;
}

impl Choice for KernelChoice {
    type Mode = KernelKind;
    const AUTO: Self = KernelChoice::Auto;
    const FLAG: &'static str = "--kernel MODE";
    const ENV: &'static str = "EXAML_KERNEL";
    const VALUES: &'static str = "scalar, simd or auto";
    const HELP: &'static str = "likelihood-kernel backend: scalar | simd | auto (default auto: \
        ranks negotiate the fastest backend all of them support)";
    fn parse(s: &str) -> Option<Self> {
        KernelChoice::parse(s)
    }
    fn resolve_local(self) -> KernelKind {
        KernelChoice::resolve_local(self)
    }
    fn level(mode: KernelKind) -> u8 {
        mode.capability_level()
    }
    fn from_level(level: u8) -> KernelKind {
        KernelKind::from_capability_level(level)
    }
}

impl Choice for RepeatsChoice {
    type Mode = SiteRepeats;
    const AUTO: Self = RepeatsChoice::Auto;
    const FLAG: &'static str = "--site-repeats MODE";
    const ENV: &'static str = "EXAML_SITE_REPEATS";
    const VALUES: &'static str = "on, off or auto";
    const HELP: &'static str = "subtree-repeat CLV compression: on | off | auto (default auto: \
        ranks negotiate a uniform setting, resolving to on)";
    fn parse(s: &str) -> Option<Self> {
        RepeatsChoice::parse(s)
    }
    fn resolve_local(self) -> SiteRepeats {
        RepeatsChoice::resolve_local(self)
    }
    fn level(mode: SiteRepeats) -> u8 {
        mode.capability_level()
    }
    fn from_level(level: u8) -> SiteRepeats {
        SiteRepeats::from_capability_level(level)
    }
}

impl Choice for ReduceChoice {
    type Mode = ReduceKind;
    const AUTO: Self = ReduceChoice::Auto;
    const FLAG: &'static str = "--reduce MODE";
    const ENV: &'static str = "EXAML_REDUCE";
    const VALUES: &'static str = "fast, reproducible or auto";
    const HELP: &'static str = "collective reduction mode: fast | reproducible | auto \
        (reproducible sums are bitwise invariant to rank count and summation order; default fast)";
    fn parse(s: &str) -> Option<Self> {
        ReduceChoice::parse(s)
    }
    fn resolve_local(self) -> ReduceKind {
        ReduceChoice::resolve_local(self)
    }
    fn level(mode: ReduceKind) -> u8 {
        mode.capability_level()
    }
    fn from_level(level: u8) -> ReduceKind {
        ReduceKind::from_capability_level(level)
    }
}

/// `auto` resolves to one thread: threading is strictly opt-in, so an auto
/// world always runs serial ranks.
impl Choice for ThreadsChoice {
    type Mode = ThreadCount;
    const AUTO: Self = ThreadsChoice::Auto;
    const FLAG: &'static str = "--threads MODE";
    const ENV: &'static str = "EXAML_THREADS";
    const VALUES: &'static str = "a count or auto";
    const HELP: &'static str = "intra-rank worker threads per rank executing kernel batches \
        task-parallel: a count or auto (bitwise invisible: the lnL trajectory is identical at \
        any count; default auto, negotiated to the world minimum)";
    fn parse(s: &str) -> Option<Self> {
        ThreadsChoice::parse(s)
    }
    fn resolve_local(self) -> ThreadCount {
        ThreadsChoice::resolve_local(self)
    }
    fn level(mode: ThreadCount) -> u8 {
        mode.capability_level()
    }
    fn from_level(level: u8) -> ThreadCount {
        ThreadCount::from_capability_level(level)
    }
}

/// `auto` resolves to `on`: the sweep is pure software, so a world of auto
/// ranks runs the gradient pass.
impl Choice for GradientChoice {
    type Mode = GradientMode;
    const AUTO: Self = GradientChoice::Auto;
    const FLAG: &'static str = "--gradient MODE";
    const ENV: &'static str = "EXAML_GRADIENT";
    const VALUES: &'static str = "on, off or auto";
    const HELP: &'static str = "full-tree branch gradient route: on | off | auto (on computes \
        all edge derivatives in one sweep and reduces them in a single collective, off walks \
        the edges; bitwise-equal numbers; branch smoothing does not call it, so a run is the \
        same either way; default auto, negotiated to the world minimum)";
    fn parse(s: &str) -> Option<Self> {
        GradientChoice::parse(s)
    }
    fn resolve_local(self) -> GradientMode {
        GradientChoice::resolve_local(self)
    }
    fn level(mode: GradientMode) -> u8 {
        mode.capability_level()
    }
    fn from_level(level: u8) -> GradientMode {
        GradientMode::from_capability_level(level)
    }
}

/// How one rank enters the exchange for one capability slot.
#[derive(Debug, Clone, Copy)]
pub enum Request<C: Choice> {
    /// Resolve locally (an explicit choice or a forced per-rank mode).
    /// The forced level is still advertised — so the packed exchange stays
    /// uniform — but the gathered minimum is ignored.
    Forced(C::Mode),
    /// `auto`: advertise this level, adopt the world minimum.
    Negotiate { advertise: u8 },
}

impl<C: Choice> Request<C> {
    /// The one request rule, shared by every slot: a non-empty per-rank
    /// `forced` table (a test fault, indexed cyclically by rank id) forces
    /// its entry; an explicit choice forces itself; `auto` advertises what
    /// this host resolves it to and adopts the world minimum.
    pub fn new(rank_id: usize, choice: C, forced: &[C::Mode]) -> Request<C> {
        match forced {
            [] if choice == C::AUTO => Request::Negotiate {
                advertise: C::level(choice.resolve_local()),
            },
            [] => Request::Forced(choice.resolve_local()),
            table => Request::Forced(table[rank_id % table.len()]),
        }
    }

    fn advertised(&self) -> u8 {
        match self {
            Request::Forced(mode) => C::level(*mode),
            Request::Negotiate { advertise } => *advertise,
        }
    }

    fn resolve(&self, world_min: u8) -> C::Mode {
        match self {
            Request::Forced(mode) => *mode,
            Request::Negotiate { .. } => C::from_level(world_min),
        }
    }
}

/// All five capability requests of one rank, in wire-slot order, plus the
/// configured (never negotiated) batching switch that completes a
/// [`Modes`].
#[derive(Debug, Clone, Copy)]
pub struct CapabilityRequests {
    pub kernel: Request<KernelChoice>,
    pub site_repeats: Request<RepeatsChoice>,
    pub reduce: Request<ReduceChoice>,
    pub threads: Request<ThreadsChoice>,
    pub gradient: Request<GradientChoice>,
    pub batch: bool,
}

impl CapabilityRequests {
    /// The wire packet: one advertised level per slot.
    fn advertised(&self) -> [u8; 5] {
        [
            self.kernel.advertised(),
            self.site_repeats.advertised(),
            self.reduce.advertised(),
            self.threads.advertised(),
            self.gradient.advertised(),
        ]
    }

    /// Resolve every slot against the per-slot world minimum.
    fn resolve(&self, world_min: [u8; 5]) -> Modes {
        Modes {
            kernel: self.kernel.resolve(world_min[0]),
            site_repeats: self.site_repeats.resolve(world_min[1]),
            reduce: self.reduce.resolve(world_min[2]),
            threads: self.threads.resolve(world_min[3]),
            gradient: self.gradient.resolve(world_min[4]),
            batch: self.batch,
        }
    }
}

/// Run the one-time packed capability exchange: a single 5-byte `Control`
/// allgather, min per slot over every rank that contributed (a failed rank
/// leaves an empty slot, which the survivors skip — they still agree
/// because they all saw the same gather).
pub fn negotiate(rank: &Rank, req: &CapabilityRequests) -> Modes {
    let mut world_min = req.advertised();
    let gathered = rank
        .allgather_bytes(world_min.to_vec(), CommCategory::Control)
        .expect("capability negotiation cannot proceed after a rank failure");
    let n_slots = world_min.len();
    for packet in gathered.iter().filter(|b| b.len() == n_slots) {
        for (min, &level) in world_min.iter_mut().zip(packet) {
            *min = (*min).min(level);
        }
    }
    req.resolve(world_min)
}

/// Resolve the requests without any communication — what a single-rank
/// world would negotiate, and (every rank of an in-process world shares the
/// host) what a uniform world of any width negotiates. Used by the
/// fork-join scheme (whose workers take the master's resolved settings via
/// the command stream, not a gather), by bootstrap resume (the original
/// world is gone) and by daemon capability reporting.
pub fn resolve_local(req: &CapabilityRequests) -> Modes {
    req.resolve(req.advertised())
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_comm::World;

    /// The requests of a rank whose five choices are these and which is
    /// forced into nothing.
    fn requests(
        kernel: KernelChoice,
        site_repeats: RepeatsChoice,
        reduce: ReduceChoice,
        threads: ThreadsChoice,
        gradient: GradientChoice,
    ) -> CapabilityRequests {
        CapabilityRequests {
            kernel: Request::new(0, kernel, &[]),
            site_repeats: Request::new(0, site_repeats, &[]),
            reduce: Request::new(0, reduce, &[]),
            threads: Request::new(0, threads, &[]),
            gradient: Request::new(0, gradient, &[]),
            batch: true,
        }
    }

    fn auto_requests() -> CapabilityRequests {
        requests(
            KernelChoice::Auto,
            RepeatsChoice::Auto,
            ReduceChoice::Auto,
            ThreadsChoice::Auto,
            GradientChoice::Auto,
        )
    }

    #[test]
    fn auto_world_agrees_on_local_resolution() {
        let modes: Vec<Modes> = World::run(4, |rank| negotiate(&rank, &auto_requests()));
        let local = resolve_local(&auto_requests());
        for m in &modes {
            assert_eq!(m.kernel, local.kernel);
            assert_eq!(m.site_repeats, local.site_repeats);
            assert_eq!(m.reduce, ReduceKind::Reproducible);
            assert_eq!(m.threads.get(), 1, "auto threads resolve serial");
            assert_eq!(m.gradient, GradientMode::On, "auto gradient is on");
            assert_eq!(*m, local);
        }
    }

    #[test]
    fn min_capability_wins_across_heterogeneous_advertisements() {
        // One rank advertises a weaker kernel level; the whole world adopts
        // it. The weak rank forces (local resolution), the others negotiate
        // — forced slots keep their value, negotiated slots take the min.
        let modes: Vec<Modes> = World::run(3, |rank| {
            let req = CapabilityRequests {
                kernel: if rank.id() == 1 {
                    Request::Forced(KernelKind::Scalar)
                } else {
                    Request::Negotiate {
                        advertise: KernelKind::Simd.capability_level(),
                    }
                },
                ..requests(
                    KernelChoice::Auto,
                    RepeatsChoice::On,
                    ReduceChoice::Fast,
                    ThreadsChoice::Auto,
                    GradientChoice::Auto,
                )
            };
            negotiate(&rank, &req)
        });
        for (id, m) in modes.iter().enumerate() {
            assert_eq!(m.kernel, KernelKind::Scalar, "rank {id}");
            assert_eq!(m.site_repeats, SiteRepeats::On);
            assert_eq!(m.reduce, ReduceKind::Fast);
        }
    }

    #[test]
    fn forced_slots_ignore_the_gathered_minimum() {
        let modes: Vec<Modes> = World::run(2, |rank| {
            let req = CapabilityRequests {
                // Rank 0 forces Simd while rank 1 advertises Scalar: the
                // forced rank keeps Simd (mixed worlds are a test hook; the
                // sentinel catches them).
                kernel: Request::new(
                    rank.id(),
                    KernelChoice::Auto,
                    &[KernelKind::Simd, KernelKind::Scalar],
                ),
                reduce: Request::new(
                    rank.id(),
                    ReduceChoice::Fast,
                    &[ReduceKind::Fast, ReduceKind::Reproducible],
                ),
                gradient: Request::new(
                    rank.id(),
                    GradientChoice::Auto,
                    &[GradientMode::On, GradientMode::Off],
                ),
                ..requests(
                    KernelChoice::Auto,
                    RepeatsChoice::Off,
                    ReduceChoice::Fast,
                    ThreadsChoice::Auto,
                    GradientChoice::Auto,
                )
            };
            negotiate(&rank, &req)
        });
        assert_eq!(modes[0].kernel, KernelKind::Simd);
        assert_eq!(modes[1].kernel, KernelKind::Scalar);
        assert_eq!(modes[0].reduce, ReduceKind::Fast);
        assert_eq!(modes[1].reduce, ReduceKind::Reproducible);
        // Forced (per-rank table) gradient slots likewise keep their value.
        assert_eq!(modes[0].gradient, GradientMode::On);
        assert_eq!(modes[1].gradient, GradientMode::Off);
    }

    #[test]
    fn negotiated_thread_counts_adopt_the_world_minimum() {
        let modes: Vec<Modes> = World::run(3, |rank| {
            let req = CapabilityRequests {
                // Heterogeneous advertisements: 8, 2, 4 — negotiated slots
                // must all land on 2, the only width every rank can run.
                threads: Request::Negotiate {
                    advertise: ThreadCount::new([8, 2, 4][rank.id()]).capability_level(),
                },
                ..requests(
                    KernelChoice::Scalar,
                    RepeatsChoice::Off,
                    ReduceChoice::Fast,
                    ThreadsChoice::Auto,
                    GradientChoice::Off,
                )
            };
            negotiate(&rank, &req)
        });
        for (id, m) in modes.iter().enumerate() {
            assert_eq!(m.threads.get(), 2, "rank {id}");
        }
    }

    #[test]
    fn uniform_world_negotiates_what_resolve_local_answers() {
        // The equivalence fork-join, bootstrap resume and the daemon rely
        // on instead of negotiating: over every combination of choices, a
        // world whose ranks all ask for the same thing resolves to exactly
        // what one rank resolves locally.
        use {GradientChoice as G, KernelChoice as K, ReduceChoice as R, RepeatsChoice as S};
        let threads = [
            ThreadsChoice::Auto,
            ThreadsChoice::Count(ThreadCount::new(2)),
        ];
        for kernel in [K::Scalar, K::Simd, K::Auto] {
            for site_repeats in [S::On, S::Off, S::Auto] {
                for reduce in [R::Fast, R::Reproducible, R::Auto] {
                    for threads in threads {
                        for gradient in [G::On, G::Off, G::Auto] {
                            let req = requests(kernel, site_repeats, reduce, threads, gradient);
                            let local = resolve_local(&req);
                            for m in World::run(2, |rank| negotiate(&rank, &req)) {
                                assert_eq!(m, local, "{req:?}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_override_table_is_no_override() {
        // `"reduce_override": []` in a submitted job spec used to index out
        // of bounds on every rank thread; an empty forced table means "not
        // forced" in all five slots (and no job spec carries one any more).
        for rank_id in [0, 3] {
            let req = CapabilityRequests {
                kernel: Request::new(rank_id, KernelChoice::Scalar, &[]),
                site_repeats: Request::new(rank_id, RepeatsChoice::Off, &[]),
                reduce: Request::new(rank_id, ReduceChoice::Reproducible, &[]),
                threads: Request::new(rank_id, ThreadsChoice::Count(ThreadCount::new(3)), &[]),
                gradient: Request::new(rank_id, GradientChoice::Off, &[]),
                batch: false,
            };
            assert_eq!(
                resolve_local(&req),
                Modes {
                    kernel: KernelKind::Scalar,
                    site_repeats: SiteRepeats::Off,
                    reduce: ReduceKind::Reproducible,
                    threads: ThreadCount::new(3),
                    gradient: GradientMode::Off,
                    batch: false,
                }
            );
        }
    }
}
