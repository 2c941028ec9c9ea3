//! `exa-comm` — the message-passing substrate `examl-rs` runs on.
//!
//! The paper's two parallelization schemes are defined by *what they
//! communicate*: the fork-join baseline broadcasts traversal descriptors and
//! model-parameter arrays and reduces likelihoods back to a master; the
//! de-centralized scheme needs nothing but `MPI_Allreduce`. This crate
//! provides those primitives for in-process "ranks" (OS threads):
//!
//! * [`World::run`] spawns `n` rank threads and hands each a [`Rank`] handle,
//! * collectives ([`Rank::allreduce_sum`], [`Rank::reduce_sum`],
//!   [`Rank::broadcast_bytes`], [`Rank::barrier`]) follow MPI semantics:
//!   every active rank must call the same operation in the same order,
//! * reductions are **deterministic**: contributions are summed in fixed
//!   rank order by one thread and the identical bit pattern is returned to
//!   every rank — the paper's §III-B correctness requirement ("MPI_Allreduce
//!   needs to yield exactly identical numerical values at all processors"),
//! * every collective is accounted in [`CommStats`] under a
//!   [`CommCategory`] using the paper's hardware-independent byte-counting
//!   convention (an allreduce of 3 doubles = 24 bytes, Table I),
//! * ranks can **fail** at quiescent points ([`Rank::fail`]); survivors see
//!   [`CommError::RanksFailed`] from their next collective, acknowledge via
//!   [`Rank::recover`], and continue with the shrunken rank set — the
//!   substrate for the paper's §V fault-tolerance design.
//!
//! # The rendezvous: slots, a generation word, spin-then-park
//!
//! The price of one small allreduce is the price of the de-centralized
//! scheme, so the common case — all active ranks arrive within microseconds
//! of each other — neither parks a thread nor touches the allocator.
//!
//! **State.** Each rank owns a cache-line-padded *slot* holding reusable
//! contribution buffers (f64 / [`BinnedSum`] / bytes). One *board* holds the
//! combined result and the [`CommStats`]. Two atomic words drive the
//! protocol: `ctl = [CLOSED | n_active | arrived]` and the generation
//! `epoch`, the count of collectives completed or aborted so far. Slots and
//! board sit behind locks that the protocol keeps uncontended (there is no
//! `unsafe` here); failure bookkeeping sits behind a mutex + condvar that
//! only `fail`, `recover`, poisoning and parked waiters touch.
//!
//! **One collective of generation `g`.** A rank (1) checks `ctl` is open and
//! reads `epoch = g`, (2) fills its own slot, (3) `fetch_add`s `arrived`.
//! The value that add returns is one consistent snapshot of
//! `(CLOSED, n_active, arrived)`, so exactly one rank learns it is the last
//! arrival. That rank (4) reads every active slot **in rank order** and
//! writes the result to the board (the binned path merges exactly and
//! renders once), records the operation in `CommStats` once, zeroes
//! `arrived`, and (5) stores `epoch = g + 1`. The others wait for
//! `epoch != g`, then (6) every rank copies the result from the board
//! straight into the caller's buffer.
//!
//! **Spin, then park.** A waiter polls `epoch` — back to back for about a
//! microsecond, then yielding its core between polls — for `SPIN_BUDGET`,
//! about the cost of one park + wake, so an unlucky spin at most doubles the
//! old price, and only then sleeps on the condvar. When the world has more
//! active ranks than [`std::thread::available_parallelism`] the spin is
//! skipped: a spinner would hold the core the rank it waits for needs.
//!
//! **No wake-up is lost.** A parker increments `sleepers`, re-checks
//! `epoch` under the mutex and only then waits; the publisher stores `epoch`
//! and then reads `sleepers`; all four accesses are `SeqCst`. Either the
//! publisher's read sees the parker — then it takes the mutex before
//! notifying, so the parker is already inside `wait` (which released the
//! mutex) or has yet to re-check and will see the new `epoch` — or the
//! increment comes after that read in the total order, hence after the
//! `epoch` store, and the parker's re-check sees it.
//!
//! **No buffer is overwritten before its last reader.** The board is
//! written only in step 4 of generation `g + 1`, which needs every active
//! rank's step 3 of `g + 1`, which follows that rank's step 6 of `g` in
//! program order. A slot is written by its owner in step 2 of `g + 1`,
//! after the owner saw `epoch = g + 1`, which was stored after step 4 of `g`
//! finished reading slots; per-rank results (gather to the root, scatter)
//! are moved into the recipient's own slot in step 4 and taken by it in
//! step 6. Release on the `arrived` add / the `epoch` store and acquire on
//! the matching loads (plus the locks themselves) carry the data.
//!
//! **Failure and poison stay on the slow path.** `fail` sets `CLOSED` and
//! decrements `n_active` in one atomic update under the mutex; if deposits
//! were in flight it names `g` the aborted generation and bumps `epoch`.
//! A rank that finds `CLOSED` — on entry, in the value its `arrived` add
//! returned, or after its wait — takes the mutex to learn which of
//! *poisoned* (panic), *this generation aborted* or *failure pending*
//! (`RanksFailed`) applies; `CLOSED` is set before `epoch` moves, so no
//! waiter can miss it. One aborted-generation word suffices because nothing
//! can be in flight again until every survivor has passed `recover`, which
//! reopens `ctl` with `arrived = 0`. A signature mismatch or a malformed
//! reduction is detected by the last arrival while combining; it poisons
//! the world so every rank unwinds instead of deadlocking.
//!
//! The [`cluster`] module contains the analytic performance model that maps
//! measured kernel-work and communication profiles onto the paper's
//! 48-core-node cluster (DESIGN.md §2 documents this substitution).

pub mod cluster;
pub mod reduce;

pub use reduce::{BinnedSum, ReduceChoice, ReduceKind};

/// Communication accounting types. These moved to `exa-obs` (the bottom of
/// the crate stack) so the trace aggregation can share them; re-exported
/// here for existing call sites.
pub mod stats {
    pub use exa_obs::{CategoryStats, CommCategory, CommStats, OpKind};
}

pub use stats::{CategoryStats, CommCategory, CommStats, OpKind};

use exa_obs::{Recorder, RegionGuard, RegionKind, Tracer};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::{Duration, Instant};

/// Errors surfaced by collective operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// One or more ranks have failed; the collective was aborted. Survivors
    /// must call [`Rank::recover`] before communicating again.
    RanksFailed(BTreeSet<usize>),
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::RanksFailed(set) => write!(f, "ranks failed: {set:?}"),
        }
    }
}

impl std::error::Error for CommError {}

/// How long a waiter polls the generation word before it parks: of the
/// order of one park + wake on the condvar (35–45 µs measured between two
/// ranks), so a wait the spin does not catch costs at most about twice what
/// parking at once would have.
const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// Polls of the generation word a waiter makes back to back (a microsecond
/// or so) before it starts yielding the core between polls.
const PAUSE_POLLS: u32 = 64;

/// `ctl` layout: bit 63 closes the fast path (failure pending or world
/// poisoned), bits 32..63 count the active ranks, bits 0..32 the deposits
/// of the generation in flight.
const CLOSED: u64 = 1 << 63;
const ARRIVED_MASK: u64 = (1 << 32) - 1;
const ONE_ACTIVE: u64 = 1 << 32;

fn arrived(ctl: u64) -> usize {
    (ctl & ARRIVED_MASK) as usize
}

fn n_active(ctl: u64) -> usize {
    ((ctl & !CLOSED) >> 32) as usize
}

/// Lock a slot buffer or the failure bookkeeping. A rank that panics
/// poisons the world itself (`Ctx::poison`, from the combine or from
/// `World::run_on`), and that flag is what the other ranks act on: the std
/// lock's own poison flag adds nothing and is stepped over.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Cores this process may run on, read once (the query walks cgroup files).
fn cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Collective signature checked for consistency across ranks. The stats
/// `category` is deliberately NOT part of the signature: for broadcasts the
/// receivers cannot know the category before decoding the payload, so the
/// root's category is authoritative (falling back to the lowest active
/// rank's when the root rank is dead, which can only happen for root-less
/// ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpSig {
    kind: OpKind,
    root: usize,
}

/// Which of a slot's (or the board's) buffers holds the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Held {
    Nothing,
    F64,
    /// Reproducible-mode reduction contribution: one superaccumulator per
    /// output element. Merged exactly; the combined result is rendered to
    /// f64 once so every reader sees the identical bits.
    Bins,
    Bytes,
    /// One byte blob per rank (scatter input / gather result).
    PerRank,
}

/// One rank's deposit for the collective in flight. The buffers keep their
/// capacity from call to call; payloads the API takes by value are moved in.
struct SlotBuf {
    op: OpSig,
    category: CommCategory,
    held: Held,
    f64s: Vec<f64>,
    bins: Vec<BinnedSum>,
    bytes: Vec<u8>,
    per_rank: Vec<Vec<u8>>,
}

/// Padded to two cache lines (adjacent-line prefetch) so one rank filling
/// its slot never invalidates a neighbour's.
#[repr(align(128))]
struct Slot {
    /// Cleared by [`Rank::fail`] (under the slow-path mutex); read lock-free
    /// by [`Rank::active_ranks`] and by the combining rank.
    active: AtomicBool,
    buf: Mutex<SlotBuf>,
}

#[repr(align(128))]
struct Padded<T>(T);

/// The combined result of the last completed collective, plus the world's
/// statistics (recorded by the one rank that combines, so they need no
/// lock of their own).
struct Board {
    stats: CommStats,
    category: CommCategory,
    wire_bytes: u64,
    held: Held,
    f64s: Vec<f64>,
    bins: Vec<BinnedSum>,
    bytes: Vec<u8>,
    per_rank: Vec<Vec<u8>>,
}

/// Failure bookkeeping, behind the mutex the condvar pairs with.
struct Slow {
    /// Set when a rank panicked mid-collective; all other ranks panic too
    /// instead of deadlocking.
    poisoned: bool,
    pending_failure: bool,
    failed: BTreeSet<usize>,
    /// The generation `fail` aborted while deposits were in flight.
    aborted: Option<u64>,
    // Recovery barrier.
    rec_gen: u64,
    rec_arrived: usize,
}

struct Ctx {
    size: usize,
    /// A waiter spins only while the active ranks number at most `cores`,
    /// and for at most `spin_budget` (tests force either path with these).
    cores: usize,
    spin_budget: Duration,
    ctl: Padded<AtomicU64>,
    epoch: Padded<AtomicU64>,
    /// Waiters parked (or about to park) on `cv`.
    sleepers: AtomicUsize,
    slots: Box<[Slot]>,
    board: RwLock<Board>,
    slow: Mutex<Slow>,
    cv: Condvar,
}

const POISONED: &str = "communicator poisoned by another rank's panic";

impl Ctx {
    fn new(size: usize, cores: usize, spin_budget: Duration) -> Ctx {
        let slots = (0..size)
            .map(|_| Slot {
                active: AtomicBool::new(true),
                buf: Mutex::new(SlotBuf {
                    op: OpSig {
                        kind: OpKind::Barrier,
                        root: 0,
                    },
                    category: CommCategory::Control,
                    held: Held::Nothing,
                    f64s: Vec::new(),
                    bins: Vec::new(),
                    bytes: Vec::new(),
                    per_rank: Vec::new(),
                }),
            })
            .collect();
        Ctx {
            size,
            cores,
            spin_budget,
            ctl: Padded(AtomicU64::new(size as u64 * ONE_ACTIVE)),
            epoch: Padded(AtomicU64::new(0)),
            sleepers: AtomicUsize::new(0),
            slots,
            board: RwLock::new(Board {
                stats: CommStats::default(),
                category: CommCategory::Control,
                wire_bytes: 0,
                held: Held::Nothing,
                f64s: Vec::new(),
                bins: Vec::new(),
                bytes: Vec::new(),
                per_rank: Vec::new(),
            }),
            slow: Mutex::new(Slow {
                poisoned: false,
                pending_failure: false,
                failed: BTreeSet::new(),
                aborted: None,
                rec_gen: 0,
                rec_arrived: 0,
            }),
            cv: Condvar::new(),
        }
    }

    // A rank that panics while combining unwinds through the board's write
    // guard; the world is poisoned by then and every later access only
    // reads statistics, so the std lock's own poison flag carries nothing.
    fn board(&self) -> RwLockReadGuard<'_, Board> {
        self.board.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn board_mut(&self) -> RwLockWriteGuard<'_, Board> {
        self.board.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn active_slots(&self) -> impl Iterator<Item = (usize, &Slot)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.active.load(Ordering::Acquire))
    }

    fn active_ranks(&self) -> Vec<usize> {
        self.active_slots().map(|(r, _)| r).collect()
    }

    /// Step 1: the generation a collective entered now belongs to, or the
    /// reason the fast path is closed.
    fn enter(&self) -> Result<u64, CommError> {
        if self.ctl.0.load(Ordering::Acquire) & CLOSED != 0 {
            return Err(self.refusal());
        }
        Ok(self.epoch.0.load(Ordering::Acquire))
    }

    /// The failure bookkeeping of a world found closed — unless the cause
    /// is poison: then this rank unwinds like the one that panicked.
    fn closed_cause(&self) -> MutexGuard<'_, Slow> {
        let slow = lock(&self.slow);
        if slow.poisoned {
            drop(slow);
            panic!("{POISONED}");
        }
        slow
    }

    /// Why a closed world refuses a deposit: a failure awaits
    /// acknowledgement.
    fn refusal(&self) -> CommError {
        let slow = self.closed_cause();
        debug_assert!(slow.pending_failure, "ctl closed without a cause");
        CommError::RanksFailed(slow.failed.clone())
    }

    /// Steps 3–5 for the caller's slot, already filled: arrive, then
    /// combine (last arrival) or wait for generation `gen` to end.
    fn arrive(&self, op: OpSig, gen: u64) -> Result<(), CommError> {
        // AcqRel: releases this rank's slot to the combiner and, for the
        // last arrival, acquires every earlier depositor's.
        let prev = self.ctl.0.fetch_add(1, Ordering::AcqRel);
        if prev & CLOSED != 0 {
            // `fail` or a poisoning got in between `enter` and here; the
            // stray count is wiped when `recover` reopens the word.
            return Err(self.refusal());
        }
        if arrived(prev) + 1 == n_active(prev) {
            self.complete(op, gen);
            return Ok(());
        }
        self.wait(gen, n_active(prev));
        if self.ctl.0.load(Ordering::Acquire) & CLOSED == 0 {
            return Ok(());
        }
        // Closed since: poisoned, this generation aborted, or a failure
        // that landed after it completed (then the result stands).
        let slow = self.closed_cause();
        if slow.aborted == Some(gen) {
            return Err(CommError::RanksFailed(slow.failed.clone()));
        }
        Ok(())
    }

    /// Last arrival: combine, then publish the next generation.
    fn complete(&self, op: OpSig, gen: u64) {
        // A combine panic (signature mismatch, malformed payloads) poisons
        // the world so waiters unwind too.
        if let Err(e) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.combine(op)))
        {
            self.poison();
            std::panic::resume_unwind(e);
        }
        // No rank is outside this collective, so nothing races the reset.
        self.ctl.0.fetch_and(!ARRIVED_MASK, Ordering::AcqRel);
        self.epoch.0.store(gen + 1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _slow = lock(&self.slow);
            self.cv.notify_all();
        }
    }

    fn poison(&self) {
        let mut slow = lock(&self.slow);
        slow.poisoned = true;
        self.ctl.0.fetch_or(CLOSED, Ordering::SeqCst);
        self.epoch.0.fetch_add(1, Ordering::SeqCst);
        self.cv.notify_all();
    }

    /// Block until `epoch` leaves `gen`: poll for the spin budget when every
    /// active rank can have a core — back to back first, then yielding the
    /// core between polls — and park after that.
    fn wait(&self, gen: u64, n_active: usize) {
        if n_active <= self.cores {
            let t0 = Instant::now();
            let mut polls = 0u32;
            loop {
                if self.epoch.0.load(Ordering::Acquire) != gen {
                    return;
                }
                polls += 1;
                if polls <= PAUSE_POLLS {
                    std::hint::spin_loop();
                } else if t0.elapsed() < self.spin_budget {
                    // Past the first microsecond the rank awaited may be
                    // off-core (another world, a pool thread): let it run.
                    std::thread::yield_now();
                } else {
                    break;
                }
            }
        }
        let mut slow = lock(&self.slow);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while self.epoch.0.load(Ordering::SeqCst) == gen {
            slow = self.cv.wait(slow).unwrap_or_else(PoisonError::into_inner);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// The recovery barrier's last arrival (or a failure that completes it):
    /// clear the failure state and reopen the fast path with no deposits.
    fn finish_recovery(&self, slow: &mut Slow) {
        slow.pending_failure = false;
        slow.aborted = None;
        slow.rec_gen += 1;
        slow.rec_arrived = 0;
        if !slow.poisoned {
            // Every survivor is inside `recover`, so nothing races this.
            let ctl = self.ctl.0.load(Ordering::Acquire);
            self.ctl
                .0
                .store(ctl & !(CLOSED | ARRIVED_MASK), Ordering::Release);
        }
    }

    /// Step 4: deterministic combination of the deposited payloads onto the
    /// board (or, for per-rank results, into the recipients' slots), and the
    /// one `CommStats` record of this collective. Only the last arrival runs
    /// this, while every other active rank waits.
    fn combine(&self, op: OpSig) {
        let mut board = self.board_mut();
        let board = &mut *board;

        // Pass 1: signatures, the authoritative category (the root's, else
        // the lowest active rank's) and whether any rank shipped bins.
        let mut category = None;
        let mut any_bins = false;
        for (r, slot) in self.active_slots() {
            let buf = lock(&slot.buf);
            assert!(
                buf.op == op,
                "collective mismatch: rank {r} called {:?} while {:?} is in flight",
                buf.op,
                op
            );
            if category.is_none() || r == op.root {
                category = Some(buf.category);
            }
            any_bins |= buf.held == Held::Bins;
        }
        let category = category.expect("the combining rank is active");

        board.held = Held::Nothing;
        let wire_bytes = match op.kind {
            OpKind::Allreduce | OpKind::Reduce => {
                if any_bins {
                    self.sum_binned(board);
                } else {
                    self.sum_in_rank_order(board);
                }
                board.held = Held::F64;
                8 * board.f64s.len() as u64
            }
            OpKind::Broadcast => {
                // Swap, not copy: the root's buffer becomes the board's and
                // the board's old one the root's next deposit buffer.
                let root = &self.slots[op.root];
                assert!(
                    root.active.load(Ordering::Acquire),
                    "root {} of the broadcast has failed",
                    op.root
                );
                let mut buf = lock(&root.buf);
                assert!(
                    buf.held == Held::Bytes,
                    "broadcast root {} contributed no data",
                    op.root
                );
                board.held = Held::Bytes;
                std::mem::swap(&mut board.bytes, &mut buf.bytes);
                board.bytes.len() as u64
            }
            OpKind::Gather | OpKind::Allgather => {
                // Every active rank's blob in rank order; inactive ranks
                // leave empty slots so indices stay stable.
                board.per_rank.clear();
                board.per_rank.resize_with(self.size, Vec::new);
                for (r, slot) in self.active_slots() {
                    let mut buf = lock(&slot.buf);
                    if buf.held == Held::Bytes {
                        board.per_rank[r] = std::mem::take(&mut buf.bytes);
                    }
                }
                let bytes = board.per_rank.iter().map(|b| b.len() as u64).sum();
                if op.kind == OpKind::Allgather {
                    board.held = Held::PerRank;
                } else {
                    // Only the root reads a gather: hand it the blobs.
                    let mut root = lock(&self.slots[op.root].buf);
                    root.per_rank = std::mem::take(&mut board.per_rank);
                }
                bytes
            }
            OpKind::Barrier => 0,
            OpKind::Scatter => unreachable!("no collective scatters; `Rank::account` models it"),
        };
        board.category = category;
        board.wire_bytes = wire_bytes;
        board.stats.record(category, op.kind, wire_bytes);
    }

    /// Fast-mode reduction: the first active rank's vector, plus every
    /// other's in rank order.
    fn sum_in_rank_order(&self, board: &mut Board) {
        let mut first = true;
        for (r, slot) in self.active_slots() {
            let buf = lock(&slot.buf);
            assert!(
                buf.held == Held::F64,
                "rank {r} contributed a non-f64 payload to a reduction"
            );
            if std::mem::take(&mut first) {
                board.f64s.clear();
                board.f64s.extend_from_slice(&buf.f64s);
                continue;
            }
            assert_eq!(
                board.f64s.len(),
                buf.f64s.len(),
                "reduction length mismatch at rank {r}"
            );
            for (x, y) in board.f64s.iter_mut().zip(&buf.f64s) {
                *x += y;
            }
        }
    }

    /// Reproducible contributions force the binned path: bins merge exactly
    /// (order- and grouping-invariant) and stray fast-mode f64 contributions
    /// — possible only in a world whose ranks compute with different modes,
    /// which the sentinel aborts at its first sync — are deposited into the bins so the collective still completes
    /// deterministically. The result is rendered to f64 exactly once.
    fn sum_binned(&self, board: &mut Board) {
        let mut first = true;
        for (r, slot) in self.active_slots() {
            let buf = lock(&slot.buf);
            let len = match buf.held {
                Held::Bins => buf.bins.len(),
                Held::F64 => buf.f64s.len(),
                _ => panic!("rank {r} contributed a non-reduction payload"),
            };
            if std::mem::take(&mut first) {
                board.bins.clear();
                board.bins.resize(len, BinnedSum::new());
            }
            assert_eq!(
                board.bins.len(),
                len,
                "reduction length mismatch at rank {r}"
            );
            if buf.held == Held::Bins {
                for (x, b) in board.bins.iter_mut().zip(&buf.bins) {
                    x.merge(b);
                }
            } else {
                for (x, &y) in board.bins.iter_mut().zip(&buf.f64s) {
                    x.add(y);
                }
            }
        }
        board.f64s.clear();
        board.f64s.extend(board.bins.iter().map(BinnedSum::render));
    }
}

/// Registry handles for collective instrumentation, resolved once so the
/// per-collective cost is two relaxed atomic adds.
struct CollectiveMetrics {
    calls: Arc<exa_obs::metrics::Counter>,
    wait_ns: Arc<exa_obs::metrics::Counter>,
}

impl CollectiveMetrics {
    fn observe(&self, elapsed_ns: u64) {
        self.calls.inc();
        self.wait_ns.add(elapsed_ns);
    }
}

fn collective_metrics() -> &'static CollectiveMetrics {
    static HANDLES: std::sync::OnceLock<CollectiveMetrics> = std::sync::OnceLock::new();
    HANDLES.get_or_init(|| {
        let reg = exa_obs::metrics::global();
        CollectiveMetrics {
            calls: reg.counter(
                "exa_collectives_total",
                "Collective operations completed across all ranks.",
                &[],
            ),
            wait_ns: reg.counter(
                "exa_collective_wait_ns_total",
                "Nanoseconds ranks spent inside collectives (sync + exchange), summed over ranks.",
                &[],
            ),
        }
    })
}

/// Handle a rank thread uses to communicate.
#[derive(Clone)]
pub struct Rank {
    id: usize,
    ctx: Arc<Ctx>,
    /// This rank's trace handle (present under [`World::run_traced`]).
    /// `Tracer` is `!Send`, so a `Rank` carrying one is pinned to its
    /// thread — which is the intended discipline anyway.
    tracer: Option<Tracer>,
}

/// Factory for rank worlds.
pub struct World;

impl World {
    /// Run `f` on `n` rank threads; returns each rank's result in rank
    /// order. A panic in any rank poisons the world (every other rank
    /// panics at its next collective) and propagates.
    pub fn run<F, T>(n: usize, f: F) -> Vec<T>
    where
        F: Fn(Rank) -> T + Sync,
        T: Send,
    {
        Self::run_traced(n, None, f)
    }

    /// Like [`World::run`], with per-rank tracing: each rank claims its
    /// buffer in `recorder` and installs itself as the thread's current
    /// tracer (so `exa_obs::region`/`mark` in deeper layers attribute to
    /// the right rank). Collectives emit events automatically. Pass the
    /// recorder to [`exa_obs::Recorder::finish`] after this returns to
    /// obtain the merged trace.
    pub fn run_traced<F, T>(n: usize, recorder: Option<&Arc<Recorder>>, f: F) -> Vec<T>
    where
        F: Fn(Rank) -> T + Sync,
        T: Send,
    {
        Self::run_on(Ctx::new(n, cores(), SPIN_BUDGET), recorder, f)
    }

    fn run_on<F, T>(ctx: Ctx, recorder: Option<&Arc<Recorder>>, f: F) -> Vec<T>
    where
        F: Fn(Rank) -> T + Sync,
        T: Send,
    {
        let n = ctx.size;
        assert!(n >= 1, "need at least one rank");
        if let Some(rec) = recorder {
            assert!(
                rec.n_ranks() >= n,
                "recorder has {} rank buffers, world needs {n}",
                rec.n_ranks()
            );
        }
        let ctx = Arc::new(ctx);
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|id| {
                    let ctx = Arc::clone(&ctx);
                    let recorder = recorder.map(Arc::clone);
                    // The Rank is constructed *inside* the spawned thread:
                    // its tracer must be claimed on the thread that emits
                    // the rank's events (Tracer is !Send).
                    scope.spawn(move || {
                        let tracer = recorder.as_ref().map(|r| r.tracer(id));
                        let _tls = tracer.clone().map(exa_obs::install_tracer);
                        let rank = Rank {
                            id,
                            ctx: Arc::clone(&ctx),
                            tracer,
                        };
                        // A rank that unwinds out of `f` will never join
                        // another collective: poison the world first, so
                        // peers parked in one (or entering one later)
                        // unwind too instead of waiting for it forever.
                        let run = std::panic::AssertUnwindSafe(|| f(rank));
                        std::panic::catch_unwind(run).unwrap_or_else(|e| {
                            ctx.poison();
                            std::panic::resume_unwind(e)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked"))
                .collect()
        })
    }
}

impl Rank {
    /// This rank's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The initial world size.
    pub fn world_size(&self) -> usize {
        self.ctx.size
    }

    /// The currently active (non-failed) ranks, ascending. Lock-free: read
    /// from the per-rank flags [`Rank::fail`] clears.
    pub fn active_ranks(&self) -> Vec<usize> {
        self.ctx.active_ranks()
    }

    /// Snapshot of the accumulated communication statistics.
    pub fn stats(&self) -> CommStats {
        self.ctx.board().stats.clone()
    }

    /// Reset the accumulated statistics (benchmark harness use).
    pub fn reset_stats(&self) {
        self.ctx.board_mut().stats = CommStats::default();
    }

    /// Account traffic that is modeled but not physically moved through the
    /// in-process communicator (e.g. the initial data distribution, which
    /// real ExaML performs via MPI I/O but a shared-memory world reads
    /// directly). Recorded once, exactly like a completed collective — but
    /// **not** traced: the event trace holds only observed operations, so
    /// rank timelines stay identical when a single rank accounts modeled
    /// traffic on behalf of the world.
    pub fn account(&self, category: CommCategory, kind: OpKind, bytes: u64) {
        self.ctx.board_mut().stats.record(category, kind, bytes);
    }

    /// This rank's trace handle, when running under [`World::run_traced`].
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// One collective up to the point where its result can be read:
    /// `deposit` fills this rank's slot, then the rank arrives and the
    /// collective is combined or waited for.
    fn exchange(
        &self,
        op: OpSig,
        category: CommCategory,
        deposit: impl FnOnce(&mut SlotBuf),
    ) -> Result<Delivery<'_>, CommError> {
        let wait = self
            .tracer
            .as_ref()
            .map(|t| t.region(RegionKind::CollectiveWait));
        // Live-metrics twin of the trace span: pay for the clock read only
        // when the registry is on.
        let metrics_t0 = exa_obs::metrics::enabled().then(Instant::now);
        let ctx = &*self.ctx;
        let slot = &ctx.slots[self.id];
        debug_assert!(
            slot.active.load(Ordering::Acquire),
            "failed rank {} called a collective",
            self.id
        );
        let gen = ctx.enter()?;
        {
            let mut buf = lock(&slot.buf);
            buf.op = op;
            buf.category = category;
            buf.held = Held::Nothing;
            deposit(&mut buf);
        }
        ctx.arrive(op, gen)?;
        Ok(Delivery {
            board: ctx.board(),
            slot,
            rank: self,
            kind: op.kind,
            metrics_t0,
            _wait: wait,
        })
    }

    /// Start a [`Collective`] under `category`. New operation variants
    /// (binned exchange, non-zero roots) hang off the builder instead of
    /// multiplying `Rank` method signatures.
    pub fn collective(&self, category: CommCategory) -> Collective<'_> {
        Collective {
            rank: self,
            category,
            root: 0,
        }
    }

    /// Deterministic sum-allreduce over `data` (in place). All active ranks
    /// receive the bit-identical result.
    pub fn allreduce_sum(&self, data: &mut [f64], category: CommCategory) -> Result<(), CommError> {
        self.collective(category).allreduce_sum(data)
    }

    /// Sum-reduce toward `root`; non-root buffers are left untouched.
    pub fn reduce_sum(
        &self,
        root: usize,
        data: &mut [f64],
        category: CommCategory,
    ) -> Result<(), CommError> {
        self.collective(category).root(root).reduce_sum(data)
    }

    /// Broadcast a byte blob from `root`. On non-root ranks the buffer is
    /// replaced with the root's bytes.
    pub fn broadcast_bytes(
        &self,
        root: usize,
        data: &mut Vec<u8>,
        category: CommCategory,
    ) -> Result<(), CommError> {
        let op = OpSig {
            kind: OpKind::Broadcast,
            root,
        };
        let is_root = self.id == root;
        let d = self.exchange(op, category, |buf| {
            if is_root {
                buf.held = Held::Bytes;
                buf.bytes.clear();
                buf.bytes.extend_from_slice(data);
            }
        })?;
        if !is_root {
            assert!(d.board.held == Held::Bytes, "broadcast returns bytes");
            data.clear();
            data.extend_from_slice(&d.board.bytes);
        }
        Ok(())
    }

    /// Gather every rank's byte blob to `root` (rank-indexed; failed ranks
    /// yield empty slots). Non-root ranks receive an empty vector.
    pub fn gather_bytes(
        &self,
        root: usize,
        data: Vec<u8>,
        category: CommCategory,
    ) -> Result<Vec<Vec<u8>>, CommError> {
        let op = OpSig {
            kind: OpKind::Gather,
            root,
        };
        let d = self.exchange(op, category, |buf| {
            buf.held = Held::Bytes;
            buf.bytes = data;
        })?;
        Ok(if self.id == root {
            std::mem::take(&mut lock(&d.slot.buf).per_rank)
        } else {
            Vec::new()
        })
    }

    /// Gather every rank's byte blob and hand the full rank-indexed set to
    /// **every** rank (failed ranks yield empty slots). This is the
    /// sentinel's exchange primitive: each rank must see all fingerprints
    /// so every rank reaches the same verdict and the abort is symmetric.
    pub fn allgather_bytes(
        &self,
        data: Vec<u8>,
        category: CommCategory,
    ) -> Result<Vec<Vec<u8>>, CommError> {
        let op = OpSig {
            kind: OpKind::Allgather,
            root: 0,
        };
        let d = self.exchange(op, category, |buf| {
            buf.held = Held::Bytes;
            buf.bytes = data;
        })?;
        Ok(d.board.per_rank.clone())
    }

    /// Synchronization barrier (a zero-byte parallel region).
    pub fn barrier(&self, category: CommCategory) -> Result<(), CommError> {
        self.collective(category).barrier()
    }

    /// Declare this rank failed. May only be called at a quiescent point
    /// (not between depositing into a collective and reading its result).
    /// The rank must not communicate afterwards.
    pub fn fail(&self) {
        let ctx = &*self.ctx;
        let mut slow = lock(&ctx.slow);
        assert!(
            ctx.slots[self.id].active.swap(false, Ordering::AcqRel),
            "rank {} failed twice",
            self.id
        );
        slow.failed.insert(self.id);
        slow.pending_failure = true;
        // Close the fast path and shrink the world in one step, so the
        // value a depositor's `arrived` add returns never pairs the old
        // open flag with the new rank count.
        let prev = ctx
            .ctl
            .0
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| {
                Some((c | CLOSED) - ONE_ACTIVE)
            })
            .expect("the update closure always returns Some");
        if prev & CLOSED == 0 && arrived(prev) > 0 {
            // Abort the in-flight collecting phase: depositors will observe
            // the aborted generation and unwind.
            let gen = ctx.epoch.0.load(Ordering::SeqCst);
            slow.aborted = Some(gen);
            ctx.epoch.0.store(gen + 1, Ordering::SeqCst);
        }
        // A failure can shrink the world while every survivor is already
        // parked in the recovery barrier (simultaneous deaths where the
        // survivors acknowledged the first failure before the second rank
        // declared itself). The barrier completes on `rec_arrived ==
        // n_active`, so re-check it here — no survivor will arrive again.
        if slow.rec_arrived > 0 && slow.rec_arrived == n_active(prev) - 1 {
            ctx.finish_recovery(&mut slow);
        }
        ctx.cv.notify_all();
    }

    /// Acknowledge a failure: blocks until every surviving rank has done the
    /// same, then clears the failure flag. Returns the set of failed ranks
    /// (cumulative) and the surviving rank list.
    pub fn recover(&self) -> (BTreeSet<usize>, Vec<usize>) {
        let ctx = &*self.ctx;
        let mut slow = lock(&ctx.slow);
        let my_rec = slow.rec_gen;
        slow.rec_arrived += 1;
        if slow.rec_arrived == n_active(ctx.ctl.0.load(Ordering::Acquire)) {
            ctx.finish_recovery(&mut slow);
            ctx.cv.notify_all();
        } else {
            while slow.rec_gen == my_rec {
                if slow.poisoned {
                    drop(slow);
                    panic!("{POISONED}");
                }
                slow = ctx.cv.wait(slow).unwrap_or_else(PoisonError::into_inner);
            }
        }
        (slow.failed.clone(), ctx.active_ranks())
    }
}

/// A collective this rank has come out of: the board (read-locked — no rank
/// can write it before this rank deposits again), the rank's own slot, and
/// on drop the trace event and live metrics of the operation.
struct Delivery<'a> {
    board: RwLockReadGuard<'a, Board>,
    slot: &'a Slot,
    rank: &'a Rank,
    kind: OpKind,
    metrics_t0: Option<Instant>,
    // Declared last so the span closes after the event is emitted and the
    // board released: it covers synchronization + payload exchange.
    _wait: Option<RegionGuard>,
}

impl Drop for Delivery<'_> {
    fn drop(&mut self) {
        // The authoritative (root-preferred) category — every rank traces
        // the identical event.
        if let Some(t) = &self.rank.tracer {
            t.collective(self.kind, self.board.category, self.board.wire_bytes);
        }
        if let Some(t0) = self.metrics_t0 {
            collective_metrics().observe(t0.elapsed().as_nanos() as u64);
        }
    }
}

/// Builder for one collective operation: category and root are set up
/// front; the terminal method names the op. Obtained
/// via [`Rank::collective`]; the classic [`Rank::allreduce_sum`] /
/// [`Rank::reduce_sum`] methods are thin wrappers over this.
#[must_use = "a Collective does nothing until a terminal method runs it"]
pub struct Collective<'a> {
    rank: &'a Rank,
    category: CommCategory,
    root: usize,
}

impl Collective<'_> {
    /// Set the root rank (reductions toward a root; default 0).
    pub fn root(mut self, root: usize) -> Self {
        self.root = root;
        self
    }

    fn op(&self, kind: OpKind) -> OpSig {
        let root = match kind {
            OpKind::Reduce => self.root,
            _ => 0,
        };
        OpSig { kind, root }
    }

    fn exchange_sum(&self, kind: OpKind, data: &[f64]) -> Result<Delivery<'_>, CommError> {
        self.rank.exchange(self.op(kind), self.category, |buf| {
            buf.held = Held::F64;
            buf.f64s.clear();
            buf.f64s.extend_from_slice(data);
        })
    }

    fn exchange_bins(&self, kind: OpKind, bins: Vec<BinnedSum>) -> Result<Delivery<'_>, CommError> {
        self.rank.exchange(self.op(kind), self.category, |buf| {
            buf.held = Held::Bins;
            buf.bins = bins;
        })
    }

    /// Sum-allreduce `data` in place; every active rank receives the
    /// bit-identical result.
    pub fn allreduce_sum(self, data: &mut [f64]) -> Result<(), CommError> {
        let d = self.exchange_sum(OpKind::Allreduce, data)?;
        data.copy_from_slice(&d.board.f64s);
        Ok(())
    }

    /// Sum-reduce toward the configured root; non-root buffers are left
    /// untouched.
    pub fn reduce_sum(self, data: &mut [f64]) -> Result<(), CommError> {
        let d = self.exchange_sum(OpKind::Reduce, data)?;
        if self.rank.id == self.root {
            data.copy_from_slice(&d.board.f64s);
        }
        Ok(())
    }

    /// Reproducible-mode allreduce over locally accumulated bins: the
    /// communicator merges the superaccumulators exactly and renders the
    /// result to f64 once, so the bits every rank receives depend only on
    /// the global addend multiset — not on the rank count or the split.
    pub fn allreduce_binned(self, bins: Vec<BinnedSum>) -> Result<Vec<f64>, CommError> {
        let d = self.exchange_bins(OpKind::Allreduce, bins)?;
        Ok(d.board.f64s.clone())
    }

    /// Reproducible-mode reduce toward the configured root. Only the root
    /// receives the rendered sums; other ranks get an empty vector.
    pub fn reduce_binned(self, bins: Vec<BinnedSum>) -> Result<Vec<f64>, CommError> {
        let d = self.exchange_bins(OpKind::Reduce, bins)?;
        Ok(if self.rank.id == self.root {
            d.board.f64s.clone()
        } else {
            Vec::new()
        })
    }

    /// Synchronization barrier under this builder's category (resize and
    /// recovery points).
    pub fn barrier(self) -> Result<(), CommError> {
        self.rank
            .exchange(self.op(OpKind::Barrier), self.category, |_| ())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_sums_across_ranks() {
        let results = World::run(4, |rank| {
            let mut data = vec![rank.id() as f64, 1.0];
            rank.allreduce_sum(&mut data, CommCategory::SiteLikelihoods)
                .unwrap();
            data
        });
        for r in &results {
            assert_eq!(r, &vec![6.0, 4.0]); // 0+1+2+3, 1×4
        }
    }

    #[test]
    fn allreduce_bitwise_identical_across_ranks() {
        // Sum of values that do NOT commute bit-identically under arbitrary
        // order; fixed-order combination must give every rank the same bits.
        let results = World::run(8, |rank| {
            let mut data = vec![
                0.1 * (rank.id() as f64 + 1.0).powi(3),
                1e-17 * rank.id() as f64,
            ];
            rank.allreduce_sum(&mut data, CommCategory::SiteLikelihoods)
                .unwrap();
            (data[0].to_bits(), data[1].to_bits())
        });
        for w in results.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }

    #[test]
    fn reduce_only_updates_root() {
        let results = World::run(3, |rank| {
            let mut data = vec![1.0 + rank.id() as f64];
            rank.reduce_sum(1, &mut data, CommCategory::BranchLength)
                .unwrap();
            data[0]
        });
        assert_eq!(results[0], 1.0);
        assert_eq!(results[1], 6.0);
        assert_eq!(results[2], 3.0);
    }

    #[test]
    fn broadcast_bytes_from_root() {
        let results = World::run(5, |rank| {
            let mut data = if rank.id() == 2 {
                vec![7u8, 8, 9]
            } else {
                Vec::new()
            };
            rank.broadcast_bytes(2, &mut data, CommCategory::TraversalDescriptor)
                .unwrap();
            data
        });
        for r in results {
            assert_eq!(r, vec![7, 8, 9]);
        }
    }

    #[test]
    fn sequence_of_collectives() {
        let results = World::run(4, |rank| {
            let mut acc = 0.0;
            for round in 0..50 {
                let mut d = vec![(rank.id() * round) as f64];
                rank.allreduce_sum(&mut d, CommCategory::SiteLikelihoods)
                    .unwrap();
                acc += d[0];
                rank.barrier(CommCategory::Control).unwrap();
            }
            acc
        });
        let expect: f64 = (0..50).map(|r| (6 * r) as f64).sum();
        for r in results {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn stats_record_regions_and_bytes() {
        let results = World::run(2, |rank| {
            let mut d = vec![0.0; 3];
            rank.allreduce_sum(&mut d, CommCategory::SiteLikelihoods)
                .unwrap();
            let mut b = if rank.id() == 0 {
                vec![0u8; 100]
            } else {
                Vec::new()
            };
            rank.broadcast_bytes(0, &mut b, CommCategory::TraversalDescriptor)
                .unwrap();
            rank.barrier(CommCategory::Control).unwrap();
            rank.stats()
        });
        let s = &results[0];
        // An allreduce of 3 doubles is the paper's canonical 24-byte example.
        assert_eq!(s.get(CommCategory::SiteLikelihoods).bytes, 24);
        assert_eq!(s.get(CommCategory::SiteLikelihoods).regions, 1);
        assert_eq!(s.get(CommCategory::TraversalDescriptor).bytes, 100);
        assert_eq!(s.total_regions(), 3);
        assert_eq!(s.total_bytes(), 124);
    }

    #[test]
    fn single_rank_world_works() {
        let results = World::run(1, |rank| {
            let mut d = vec![5.0];
            rank.allreduce_sum(&mut d, CommCategory::SiteLikelihoods)
                .unwrap();
            d[0]
        });
        assert_eq!(results, vec![5.0]);
    }

    #[test]
    fn second_failure_completes_an_already_entered_recovery_barrier() {
        // Regression test for a recovery deadlock: rank 1 fails, both
        // survivors acknowledge and park inside `recover()` (the barrier
        // needs n_active = 3 arrivals), and only then does rank 2 declare
        // its own failure. Shrinking n_active to 2 must complete the
        // barrier — the two parked survivors will never arrive again.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let entering = AtomicUsize::new(0);
        let results = World::run(4, |rank| {
            match rank.id() {
                1 => {
                    rank.fail();
                    return vec![];
                }
                2 => {
                    // Wait until both survivors are at (or inside) the
                    // recovery barrier before failing.
                    while entering.load(Ordering::SeqCst) < 2 {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    rank.fail();
                    return vec![];
                }
                _ => {}
            }
            // Survivors: observe rank 1's failure via an aborted collective.
            let mut d = vec![1.0];
            match rank.allreduce_sum(&mut d, CommCategory::SiteLikelihoods) {
                Err(CommError::RanksFailed(set)) => assert!(set.contains(&1)),
                Ok(()) => panic!("collective must abort after failure"),
            }
            entering.fetch_add(1, Ordering::SeqCst);
            let (failed, survivors) = rank.recover();
            assert!(failed.contains(&1));
            // Depending on timing rank 2's death lands before or after the
            // barrier releases; either way the world must keep working with
            // the survivor set recover() reported.
            if failed.contains(&2) {
                assert_eq!(survivors, vec![0, 3]);
            }
            let mut d = vec![1.0];
            match rank.allreduce_sum(&mut d, CommCategory::SiteLikelihoods) {
                Ok(()) => {}
                Err(CommError::RanksFailed(set)) => {
                    // Rank 2 died after the first recovery: acknowledge and
                    // retry on the final two-rank world.
                    assert!(set.contains(&2));
                    let (_, survivors) = rank.recover();
                    assert_eq!(survivors, vec![0, 3]);
                    d = vec![1.0];
                    rank.allreduce_sum(&mut d, CommCategory::SiteLikelihoods)
                        .unwrap();
                }
            }
            d
        });
        assert_eq!(results[0], vec![2.0]);
        assert_eq!(results[3], vec![2.0]);
    }

    #[test]
    fn failure_surfaces_to_survivors_and_recovery_shrinks_world() {
        let results = World::run(4, |rank| {
            // Round 1: everyone participates.
            let mut d = vec![1.0];
            rank.allreduce_sum(&mut d, CommCategory::SiteLikelihoods)
                .unwrap();
            assert_eq!(d[0], 4.0);

            if rank.id() == 2 {
                rank.fail();
                return -1.0;
            }
            // Round 2: rank 2 never joins; survivors see the failure,
            // possibly immediately or after depositing.
            let mut d = vec![1.0];
            match rank.allreduce_sum(&mut d, CommCategory::SiteLikelihoods) {
                Err(CommError::RanksFailed(set)) => assert!(set.contains(&2)),
                Ok(()) => panic!("collective must abort after failure"),
            }
            let (failed, survivors) = rank.recover();
            assert_eq!(failed, BTreeSet::from([2]));
            assert_eq!(survivors, vec![0, 1, 3]);

            // Round 3: the shrunken world functions.
            let mut d = vec![1.0];
            rank.allreduce_sum(&mut d, CommCategory::SiteLikelihoods)
                .unwrap();
            d[0]
        });
        assert_eq!(results[0], 3.0);
        assert_eq!(results[1], 3.0);
        assert_eq!(results[2], -1.0);
        assert_eq!(results[3], 3.0);
    }

    #[test]
    fn two_sequential_failures() {
        let results = World::run(4, |rank| {
            for round in 0..2u32 {
                let failer = round as usize; // rank 0 fails first, then 1
                if rank.id() == failer {
                    rank.fail();
                    return rank.id() as f64 - 100.0;
                }
                let mut d = vec![1.0];
                match rank.allreduce_sum(&mut d, CommCategory::SiteLikelihoods) {
                    Err(_) => {
                        rank.recover();
                    }
                    Ok(()) => panic!("expected abort in round {round}"),
                }
            }
            let mut d = vec![1.0];
            rank.allreduce_sum(&mut d, CommCategory::SiteLikelihoods)
                .unwrap();
            d[0]
        });
        assert_eq!(results[2], 2.0);
        assert_eq!(results[3], 2.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_collectives_panic() {
        World::run(2, |rank| {
            if rank.id() == 0 {
                let mut d = vec![0.0];
                let _ = rank.allreduce_sum(&mut d, CommCategory::SiteLikelihoods);
            } else {
                let _ = rank.barrier(CommCategory::Control);
            }
        });
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let results = World::run(4, |rank| {
            let blob = vec![rank.id() as u8; rank.id() + 1];
            rank.gather_bytes(1, blob, CommCategory::Control).unwrap()
        });
        assert!(results[0].is_empty() && results[2].is_empty() && results[3].is_empty());
        let gathered = &results[1];
        assert_eq!(gathered.len(), 4);
        for (r, blob) in gathered.iter().enumerate() {
            assert_eq!(blob, &vec![r as u8; r + 1]);
        }
    }

    #[test]
    fn allgather_delivers_all_blobs_to_every_rank() {
        let results = World::run(4, |rank| {
            let blob = vec![rank.id() as u8; rank.id() + 1];
            rank.allgather_bytes(blob, CommCategory::Control).unwrap()
        });
        for gathered in &results {
            assert_eq!(gathered.len(), 4);
            for (r, blob) in gathered.iter().enumerate() {
                assert_eq!(blob, &vec![r as u8; r + 1]);
            }
        }
    }

    #[test]
    fn traced_world_records_identical_collective_sequences() {
        let rec = Recorder::new(3);
        let stats = World::run_traced(3, Some(&rec), |rank| {
            let mut d = vec![1.0; 2];
            rank.allreduce_sum(&mut d, CommCategory::SiteLikelihoods)
                .unwrap();
            let mut b = if rank.id() == 0 {
                vec![1u8; 10]
            } else {
                Vec::new()
            };
            rank.broadcast_bytes(0, &mut b, CommCategory::TraversalDescriptor)
                .unwrap();
            rank.barrier(CommCategory::Control).unwrap();
            rank.stats()
        });
        let trace = Recorder::finish(rec);
        let s0 = trace.signatures(0);
        assert_eq!(s0, trace.signatures(1));
        assert_eq!(s0, trace.signatures(2));
        // Per collective: begin:collective_wait, coll:…, end:collective_wait.
        assert_eq!(s0.len(), 9);
        assert!(
            s0.contains(&"coll:allreduce:SiteLikelihoods:16".to_string()),
            "{s0:?}"
        );
        assert!(s0.contains(&"coll:broadcast:TraversalDescriptor:10".to_string()));

        // Aggregated comm traffic must agree with the communicator's own
        // accounting (both count each collective once).
        let m = trace.aggregate();
        assert_eq!(m.comm, stats[0]);
        assert_eq!(m.collective_events, 9); // 3 collectives × 3 ranks
        assert_eq!(m.region(exa_obs::RegionKind::CollectiveWait).count, 9);
    }

    #[test]
    fn traced_world_installs_thread_local_tracer() {
        let rec = Recorder::new(2);
        World::run_traced(2, Some(&rec), |rank| {
            exa_obs::mark(|| format!("hello:{}", rank.id()));
            rank.barrier(CommCategory::Control).unwrap();
        });
        let trace = Recorder::finish(rec);
        assert_eq!(trace.signatures(0)[0], "mark:hello:0");
        assert_eq!(trace.signatures(1)[0], "mark:hello:1");
    }

    #[test]
    fn untraced_world_has_no_tracer() {
        World::run(2, |rank| {
            assert!(rank.tracer().is_none());
            assert!(exa_obs::with_tracer(|_| ()).is_none());
            rank.barrier(CommCategory::Control).unwrap();
        });
    }

    #[test]
    fn binned_allreduce_is_rank_count_invariant() {
        // The same addend multiset split across 1, 2, 4, and 8 ranks must
        // render the identical bits — the property the fast path lacks.
        let terms: Vec<f64> = (0..64)
            .map(|i| 0.1 * ((i as f64) + 1.0).powi(3) * if i % 3 == 0 { -1.0 } else { 1e-9 })
            .collect();
        let mut renders = Vec::new();
        for n in [1usize, 2, 4, 8] {
            let results = World::run(n, |rank| {
                let mut b = BinnedSum::new();
                // Strided split: every width groups the terms differently.
                for (i, &t) in terms.iter().enumerate() {
                    if i % n == rank.id() {
                        b.add(t);
                    }
                }
                rank.collective(CommCategory::SiteLikelihoods)
                    .allreduce_binned(vec![b])
                    .unwrap()[0]
                    .to_bits()
            });
            for w in results.windows(2) {
                assert_eq!(w[0], w[1]);
            }
            renders.push(results[0]);
        }
        for w in renders.windows(2) {
            assert_eq!(w[0], w[1], "render differs across rank counts");
        }
    }

    #[test]
    fn mixed_mode_reduction_completes_deterministically() {
        // One rank still in fast mode (a mixed-mode world the sentinel
        // will abort) must not deadlock or poison the collective: its f64
        // contribution is deposited into the bins.
        let results = World::run(3, |rank| {
            if rank.id() == 1 {
                let mut d = vec![2.5];
                rank.allreduce_sum(&mut d, CommCategory::SiteLikelihoods)
                    .unwrap();
                d[0]
            } else {
                let mut b = BinnedSum::new();
                b.add(1.0);
                rank.collective(CommCategory::SiteLikelihoods)
                    .allreduce_binned(vec![b])
                    .unwrap()[0]
            }
        });
        for r in results {
            assert_eq!(r, 4.5);
        }
    }

    #[test]
    fn builder_reduce_binned_targets_root() {
        let results = World::run(3, |rank| {
            let mut b = BinnedSum::new();
            b.add(rank.id() as f64 + 1.0);
            rank.collective(CommCategory::BranchLength)
                .root(2)
                .reduce_binned(vec![b])
                .unwrap()
        });
        assert!(results[0].is_empty() && results[1].is_empty());
        assert_eq!(results[2], vec![6.0]);
    }

    #[test]
    fn heavy_concurrency_smoke() {
        // Many ranks, many rounds — exercises the generation machinery.
        let n = 16;
        let results = World::run(n, |rank| {
            let mut total = 0.0;
            for _ in 0..200 {
                let mut d = vec![1.0];
                rank.allreduce_sum(&mut d, CommCategory::SiteLikelihoods)
                    .unwrap();
                total += d[0];
            }
            total
        });
        for r in results {
            assert_eq!(r, 200.0 * n as f64);
        }
    }

    /// How waiters of a test world wait: spinning for good (a budget no test
    /// outlives, on however many cores) or parking at once.
    #[derive(Debug, Clone, Copy)]
    enum Waiters {
        Spin,
        Park,
    }

    /// Runs the world on a watched thread: a waiter the failure or poison
    /// never reaches would otherwise hang the suite instead of failing it.
    fn run_waiting<T: Send + 'static>(
        n: usize,
        how: Waiters,
        f: impl Fn(Rank) -> T + Send + Sync + 'static,
    ) -> Vec<T> {
        let ctx = match how {
            Waiters::Spin => Ctx::new(n, usize::MAX, Duration::from_secs(3600)),
            Waiters::Park => Ctx::new(n, 0, Duration::ZERO),
        };
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(World::run_on(ctx, None, f));
        });
        rx.recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{how:?}: a waiter is stuck"))
    }

    /// Spin until `n` ranks have deposited into the generation in flight —
    /// from then on they are inside their wait.
    fn await_deposits(rank: &Rank, n: usize) {
        while arrived(rank.ctx.ctl.0.load(Ordering::Acquire)) < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn failure_aborts_waiters_and_recovery_shrinks_the_world() {
        for how in [Waiters::Spin, Waiters::Park] {
            let results = run_waiting(3, how, move |rank| {
                if rank.id() == 2 {
                    // Both survivors have deposited: the failure must reach
                    // them inside their wait, not at their entry check.
                    await_deposits(&rank, 2);
                    rank.fail();
                    return -1.0;
                }
                let mut d = [1.0];
                match rank.allreduce_sum(&mut d, CommCategory::SiteLikelihoods) {
                    Err(CommError::RanksFailed(set)) => assert_eq!(set, BTreeSet::from([2])),
                    Ok(()) => panic!("{how:?}: the aborted generation completed"),
                }
                assert_eq!(rank.active_ranks(), vec![0, 1]);
                let (failed, survivors) = rank.recover();
                assert_eq!(failed, BTreeSet::from([2]));
                assert_eq!(survivors, vec![0, 1]);
                let mut d = [1.0];
                rank.allreduce_sum(&mut d, CommCategory::SiteLikelihoods)
                    .unwrap();
                d[0]
            });
            assert_eq!(results, vec![2.0, 2.0, -1.0], "{how:?}");
        }
    }

    #[test]
    fn a_panic_outside_any_collective_poisons_the_world() {
        // Rank 1 unwinds out of its closure before its first collective —
        // alone, with nothing mid-combine to notice it. Rank 0 must unwind
        // out of the collective it is waiting in, and out of any later one,
        // instead of hanging; rank 1's panic then propagates at the join.
        for how in [Waiters::Spin, Waiters::Park] {
            let refused = Arc::new(AtomicUsize::new(0));
            let seen = Arc::clone(&refused);
            let joined = std::panic::catch_unwind(move || {
                run_waiting(2, how, move |rank| {
                    if rank.id() == 1 {
                        await_deposits(&rank, 1);
                        panic!("rank 1 gives up");
                    }
                    for _ in 0..2 {
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                rank.barrier(CommCategory::Control)
                            }));
                        let payload = outcome.expect_err("a dead rank's peer must unwind");
                        assert_eq!(payload.downcast_ref::<String>().unwrap(), POISONED);
                        seen.fetch_add(1, Ordering::SeqCst);
                    }
                })
            });
            assert!(joined.is_err(), "{how:?}: rank 1's panic must propagate");
            assert_eq!(refused.load(Ordering::SeqCst), 2, "{how:?}");
        }
    }

    #[test]
    fn a_panic_while_combining_poisons_every_waiter() {
        // Rank 2 arrives last with a payload that cannot be combined (wrong
        // length) or another operation altogether: it panics while
        // combining, and the two ranks already waiting must unwind too.
        for how in [Waiters::Spin, Waiters::Park] {
            for mismatch_op in [false, true] {
                let messages = run_waiting(3, how, move |rank| {
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        if rank.id() != 2 {
                            let mut d = [1.0];
                            let _ = rank.allreduce_sum(&mut d, CommCategory::SiteLikelihoods);
                        } else if mismatch_op {
                            await_deposits(&rank, 2);
                            let _ = rank.barrier(CommCategory::Control);
                        } else {
                            await_deposits(&rank, 2);
                            let mut d = [1.0, 2.0];
                            let _ = rank.allreduce_sum(&mut d, CommCategory::SiteLikelihoods);
                        }
                    }));
                    let payload = outcome.expect_err("every rank must panic");
                    payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_default()
                });
                let cause = if mismatch_op {
                    "collective mismatch"
                } else {
                    "reduction length mismatch"
                };
                assert!(messages[2].contains(cause), "{how:?}: {messages:?}");
                assert_eq!(messages[0], POISONED, "{how:?}");
                assert_eq!(messages[1], POISONED, "{how:?}");
            }
        }
    }

    #[test]
    fn a_failure_after_completion_leaves_the_result_standing() {
        // Rank 1 fails right after the collective completed, possibly before
        // rank 0 has looked at the closed word: rank 0 must still read the
        // result, and only its *next* collective reports the failure.
        for how in [Waiters::Spin, Waiters::Park] {
            let results = run_waiting(2, how, |rank| {
                let mut d = [rank.id() as f64 + 1.0];
                rank.allreduce_sum(&mut d, CommCategory::SiteLikelihoods)
                    .unwrap();
                if rank.id() == 1 {
                    rank.fail();
                    return d[0];
                }
                let mut e = [1.0];
                assert!(rank
                    .allreduce_sum(&mut e, CommCategory::SiteLikelihoods)
                    .is_err());
                assert_eq!(rank.recover().1, vec![0]);
                d[0]
            });
            assert_eq!(results, vec![3.0, 3.0], "{how:?}");
        }
    }
}
