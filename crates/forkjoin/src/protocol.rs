//! The master→worker command protocol and its compact binary wire format.
//!
//! Sizes follow the paper's byte-counting conventions (Table I): node ids
//! are 4 bytes, branch lengths and parameters 8 bytes. The one-byte command
//! tag and small fixed headers are included — they are what a real
//! implementation would send too.

use exa_phylo::tree::traversal::{
    GradSource, GradStep, GradientPlan, TraversalDescriptor, TraversalEntry,
};
use exa_search::exchange::Op;

/// Commands the master broadcasts to the workers.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerCmd {
    /// Execute a traversal descriptor, then evaluate at its virtual root
    /// and reduce the overall log-likelihood (one double) to the master.
    Evaluate(TraversalDescriptor),
    /// As `Evaluate`, but reduce the full per-partition log-likelihood
    /// vector (model optimization).
    EvaluatePartitioned(TraversalDescriptor),
    /// Execute a descriptor and build derivative sumtables for its root.
    PrepareDerivatives(TraversalDescriptor),
    /// Compute derivatives at the candidate branch length(s) and reduce.
    Derivatives(Vec<f64>),
    /// Install new Γ shapes for all partitions.
    SetAlphas(Vec<f64>),
    /// Install new values of free GTR rate `index` for all partitions.
    SetGtrRate { index: u8, values: Vec<f64> },
    /// Optimize PSR per-site rates locally (full descriptor supplied) and
    /// reduce the normalization sums.
    OptimizeSiteRates(TraversalDescriptor),
    /// Apply the PSR normalization scale.
    SetPsrScale(f64),
    /// End of run.
    Shutdown,
    /// Checkpoint support: gather each worker's data-local PSR per-pattern
    /// rates to the master (workers answer with a
    /// [`encode_site_rate_capture`] blob on a gather).
    GatherSiteRates,
    /// Restart support: install a full per-pattern PSR rate table
    /// (`table[partition][pattern]` = rate bits); each worker applies its
    /// own slice.
    SetSiteRates(Vec<Vec<u64>>),
    /// Execute the descriptor (orienting every inward CLV toward the plan's
    /// root edge), then run the one-pass full-tree gradient sweep over the
    /// plan and join the single fat `[d1 | d2]` reduction. One broadcast +
    /// one collective replace `n_edges` per-edge prepare/derivative command
    /// pairs.
    Gradient {
        descriptor: TraversalDescriptor,
        plan: GradientPlan,
    },
}

const TAG_EVALUATE: u8 = 1;
const TAG_PREPARE: u8 = 2;
const TAG_DERIVATIVES: u8 = 3;
const TAG_SET_ALPHAS: u8 = 4;
const TAG_SET_GTR: u8 = 5;
const TAG_OPT_SITE_RATES: u8 = 6;
const TAG_SET_PSR_SCALE: u8 = 7;
const TAG_SHUTDOWN: u8 = 8;
const TAG_EVALUATE_PARTITIONED: u8 = 9;
const TAG_GATHER_SITE_RATES: u8 = 10;
const TAG_SET_SITE_RATES: u8 = 11;
const TAG_GRADIENT: u8 = 12;

/// Wire encoding of [`GradSource::from_outside`]'s `None` (node ids are
/// bounded by `2n - 2`, so the sentinel can never collide).
const NO_OUTSIDE: u32 = u32::MAX;

struct W(Vec<u8>);

impl W {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64s(&mut self, vs: &[u64]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u64(v);
        }
    }
    fn f64s(&mut self, vs: &[f64]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.f64(v);
        }
    }
    fn descriptor(&mut self, d: &TraversalDescriptor) {
        self.u32(d.entries.len() as u32);
        for e in &d.entries {
            self.u32(e.parent as u32);
            self.u32(e.left as u32);
            self.u32(e.right as u32);
            self.f64s(&e.left_lengths);
            self.f64s(&e.right_lengths);
        }
        self.u32(d.root_a as u32);
        self.u32(d.root_b as u32);
        self.f64s(&d.root_lengths);
    }
    fn grad_source(&mut self, s: &GradSource) {
        self.u32(s.node as u32);
        self.u32(s.from_outside.map_or(NO_OUTSIDE, |e| e as u32));
        self.f64s(&s.lengths);
    }
    /// A search-level operation, straight from the borrowed descriptor /
    /// plan / parameter slice the evaluator holds.
    fn op(&mut self, op: &Op<'_>) {
        match *op {
            Op::Evaluate(d) => {
                self.u8(TAG_EVALUATE);
                self.descriptor(d);
            }
            Op::EvaluatePartitioned(d) => {
                self.u8(TAG_EVALUATE_PARTITIONED);
                self.descriptor(d);
            }
            Op::PrepareDerivatives(d) => {
                self.u8(TAG_PREPARE);
                self.descriptor(d);
            }
            Op::Derivatives(ts) => {
                self.u8(TAG_DERIVATIVES);
                self.f64s(ts);
            }
            Op::SetAlphas(a) => {
                self.u8(TAG_SET_ALPHAS);
                self.f64s(a);
            }
            Op::SetGtrRate { index, values } => {
                self.u8(TAG_SET_GTR);
                self.u8(index as u8);
                self.f64s(values);
            }
            Op::OptimizeSiteRates(d) => {
                self.u8(TAG_OPT_SITE_RATES);
                self.descriptor(d);
            }
            Op::SetPsrScale(s) => {
                self.u8(TAG_SET_PSR_SCALE);
                self.f64(s);
            }
            Op::Gradient { descriptor, plan } => {
                self.u8(TAG_GRADIENT);
                self.descriptor(descriptor);
                self.plan(plan);
            }
        }
    }
    fn plan(&mut self, p: &GradientPlan) {
        self.u32(p.root_edge as u32);
        self.u32(p.root_a as u32);
        self.u32(p.root_b as u32);
        self.f64s(&p.root_lengths);
        self.u32(p.n_edges as u32);
        self.u32(p.steps.len() as u32);
        for s in &p.steps {
            self.u32(s.edge as u32);
            self.u32(s.parent as u32);
            self.u32(s.child as u32);
            self.u8(s.swap_sides as u8);
            self.f64s(&s.lengths);
            self.grad_source(&s.left);
            self.grad_source(&s.right);
        }
    }
}

struct R<'a> {
    b: &'a [u8],
    pos: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl<'a> R<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.b.len() {
            return Err(DecodeError(format!(
                "truncated command at byte {}",
                self.pos
            )));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64s(&mut self) -> Result<Vec<f64>, DecodeError> {
        let n = self.u32()? as usize;
        if n > self.b.len() {
            return Err(DecodeError(format!("implausible f64 array length {n}")));
        }
        (0..n).map(|_| self.f64()).collect()
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn u64s(&mut self) -> Result<Vec<u64>, DecodeError> {
        let n = self.u32()? as usize;
        if n > self.b.len() {
            return Err(DecodeError(format!("implausible u64 array length {n}")));
        }
        (0..n).map(|_| self.u64()).collect()
    }
    fn descriptor(&mut self) -> Result<TraversalDescriptor, DecodeError> {
        let n = self.u32()? as usize;
        if n > self.b.len() {
            return Err(DecodeError(format!("implausible entry count {n}")));
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let parent = self.u32()? as usize;
            let left = self.u32()? as usize;
            let right = self.u32()? as usize;
            let left_lengths = self.f64s()?;
            let right_lengths = self.f64s()?;
            entries.push(TraversalEntry {
                parent,
                left,
                right,
                left_lengths,
                right_lengths,
            });
        }
        let root_a = self.u32()? as usize;
        let root_b = self.u32()? as usize;
        let root_lengths = self.f64s()?;
        Ok(TraversalDescriptor {
            entries,
            root_a,
            root_b,
            root_lengths,
        })
    }
    fn grad_source(&mut self) -> Result<GradSource, DecodeError> {
        let node = self.u32()? as usize;
        let outside = self.u32()?;
        let lengths = self.f64s()?;
        Ok(GradSource {
            node,
            lengths,
            from_outside: (outside != NO_OUTSIDE).then_some(outside as usize),
        })
    }
    fn plan(&mut self) -> Result<GradientPlan, DecodeError> {
        let root_edge = self.u32()? as usize;
        let root_a = self.u32()? as usize;
        let root_b = self.u32()? as usize;
        let root_lengths = self.f64s()?;
        let n_edges = self.u32()? as usize;
        let n_steps = self.u32()? as usize;
        if n_steps > self.b.len() {
            return Err(DecodeError(format!("implausible step count {n_steps}")));
        }
        let mut steps = Vec::with_capacity(n_steps);
        for _ in 0..n_steps {
            let edge = self.u32()? as usize;
            let parent = self.u32()? as usize;
            let child = self.u32()? as usize;
            let swap_sides = self.u8()? != 0;
            let lengths = self.f64s()?;
            let left = self.grad_source()?;
            let right = self.grad_source()?;
            steps.push(GradStep {
                edge,
                parent,
                child,
                lengths,
                swap_sides,
                left,
                right,
            });
        }
        Ok(GradientPlan {
            root_edge,
            root_a,
            root_b,
            root_lengths,
            n_edges,
            steps,
        })
    }
}

/// Encode a search-level operation for broadcast without owning (or
/// cloning) its descriptor, plan or parameter array. Byte-identical to
/// [`encode`] of the corresponding [`WorkerCmd`].
pub fn encode_op(op: &Op<'_>) -> Vec<u8> {
    let mut w = W(Vec::new());
    w.op(op);
    w.0
}

/// Encode a command for broadcast.
pub fn encode(cmd: &WorkerCmd) -> Vec<u8> {
    let mut w = W(Vec::new());
    match cmd {
        WorkerCmd::Evaluate(d) => w.op(&Op::Evaluate(d)),
        WorkerCmd::EvaluatePartitioned(d) => w.op(&Op::EvaluatePartitioned(d)),
        WorkerCmd::PrepareDerivatives(d) => w.op(&Op::PrepareDerivatives(d)),
        WorkerCmd::Derivatives(ts) => w.op(&Op::Derivatives(ts)),
        WorkerCmd::SetAlphas(a) => w.op(&Op::SetAlphas(a)),
        WorkerCmd::SetGtrRate { index, values } => w.op(&Op::SetGtrRate {
            index: *index as usize,
            values,
        }),
        WorkerCmd::OptimizeSiteRates(d) => w.op(&Op::OptimizeSiteRates(d)),
        WorkerCmd::SetPsrScale(s) => w.op(&Op::SetPsrScale(*s)),
        WorkerCmd::Gradient { descriptor, plan } => w.op(&Op::Gradient { descriptor, plan }),
        WorkerCmd::Shutdown => w.u8(TAG_SHUTDOWN),
        WorkerCmd::GatherSiteRates => w.u8(TAG_GATHER_SITE_RATES),
        WorkerCmd::SetSiteRates(table) => {
            w.u8(TAG_SET_SITE_RATES);
            w.u32(table.len() as u32);
            for part in table {
                w.u64s(part);
            }
        }
    }
    w.0
}

/// One share's PSR rate capture: the global partition index, its global
/// pattern indices, and the rate bits.
pub type SiteRateShare = (usize, Vec<usize>, Vec<u64>);

/// Encode one rank's data-local PSR rate capture (the gather payload
/// answering [`WorkerCmd::GatherSiteRates`]): per share, the global
/// partition index, its global pattern indices, and the rate bits.
pub fn encode_site_rate_capture(parts: &[SiteRateShare]) -> Vec<u8> {
    let mut w = W(Vec::new());
    w.u32(parts.len() as u32);
    for (global, patterns, rates) in parts {
        w.u32(*global as u32);
        w.u32(patterns.len() as u32);
        for &p in patterns {
            w.u32(p as u32);
        }
        w.u64s(rates);
    }
    w.0
}

/// Decode a [`encode_site_rate_capture`] blob.
pub fn decode_site_rate_capture(bytes: &[u8]) -> Result<Vec<SiteRateShare>, DecodeError> {
    let mut r = R { b: bytes, pos: 0 };
    let n = r.u32()? as usize;
    if n > bytes.len() {
        return Err(DecodeError(format!("implausible share count {n}")));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let global = r.u32()? as usize;
        let np = r.u32()? as usize;
        if np > bytes.len() {
            return Err(DecodeError(format!("implausible pattern count {np}")));
        }
        let patterns = (0..np)
            .map(|_| r.u32().map(|v| v as usize))
            .collect::<Result<Vec<_>, _>>()?;
        let rates = r.u64s()?;
        out.push((global, patterns, rates));
    }
    if r.pos != bytes.len() {
        return Err(DecodeError(format!(
            "{} trailing bytes",
            bytes.len() - r.pos
        )));
    }
    Ok(out)
}

/// Decode a broadcast command.
pub fn decode(bytes: &[u8]) -> Result<WorkerCmd, DecodeError> {
    let mut r = R { b: bytes, pos: 0 };
    let cmd = match r.u8()? {
        TAG_EVALUATE => WorkerCmd::Evaluate(r.descriptor()?),
        TAG_EVALUATE_PARTITIONED => WorkerCmd::EvaluatePartitioned(r.descriptor()?),
        TAG_PREPARE => WorkerCmd::PrepareDerivatives(r.descriptor()?),
        TAG_DERIVATIVES => WorkerCmd::Derivatives(r.f64s()?),
        TAG_SET_ALPHAS => WorkerCmd::SetAlphas(r.f64s()?),
        TAG_SET_GTR => {
            let index = r.u8()?;
            WorkerCmd::SetGtrRate {
                index,
                values: r.f64s()?,
            }
        }
        TAG_OPT_SITE_RATES => WorkerCmd::OptimizeSiteRates(r.descriptor()?),
        TAG_SET_PSR_SCALE => WorkerCmd::SetPsrScale(r.f64()?),
        TAG_SHUTDOWN => WorkerCmd::Shutdown,
        TAG_GATHER_SITE_RATES => WorkerCmd::GatherSiteRates,
        TAG_SET_SITE_RATES => {
            let n = r.u32()? as usize;
            if n > bytes.len() {
                return Err(DecodeError(format!("implausible partition count {n}")));
            }
            let table = (0..n).map(|_| r.u64s()).collect::<Result<Vec<_>, _>>()?;
            WorkerCmd::SetSiteRates(table)
        }
        TAG_GRADIENT => WorkerCmd::Gradient {
            descriptor: r.descriptor()?,
            plan: r.plan()?,
        },
        t => return Err(DecodeError(format!("unknown command tag {t}"))),
    };
    if r.pos != bytes.len() {
        return Err(DecodeError(format!(
            "{} trailing bytes",
            bytes.len() - r.pos
        )));
    }
    Ok(cmd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_phylo::tree::Tree;

    fn sample_descriptor(blens: usize) -> TraversalDescriptor {
        let mut t = Tree::random(8, blens, 3);
        t.full_traversal_descriptor(2)
    }

    #[test]
    fn roundtrip_all_commands() {
        let cmds = vec![
            WorkerCmd::Evaluate(sample_descriptor(1)),
            WorkerCmd::EvaluatePartitioned(sample_descriptor(2)),
            WorkerCmd::PrepareDerivatives(sample_descriptor(3)),
            WorkerCmd::Derivatives(vec![0.1, 0.2, 0.3]),
            WorkerCmd::SetAlphas(vec![0.5; 10]),
            WorkerCmd::SetGtrRate {
                index: 3,
                values: vec![1.0, 2.0],
            },
            WorkerCmd::OptimizeSiteRates(sample_descriptor(1)),
            WorkerCmd::SetPsrScale(1.25),
            WorkerCmd::Shutdown,
            WorkerCmd::GatherSiteRates,
            WorkerCmd::SetSiteRates(vec![
                vec![1.0f64.to_bits(), 2.5f64.to_bits()],
                vec![0.25f64.to_bits()],
            ]),
            WorkerCmd::Gradient {
                descriptor: sample_descriptor(1),
                plan: Tree::random(8, 1, 3).gradient_plan(2),
            },
            WorkerCmd::Gradient {
                descriptor: sample_descriptor(4),
                plan: Tree::random(8, 4, 3).gradient_plan(2),
            },
        ];
        for cmd in cmds {
            let bytes = encode(&cmd);
            let back = decode(&bytes).unwrap();
            assert_eq!(cmd, back);
        }
    }

    #[test]
    fn descriptor_wire_size_tracks_paper_convention() {
        // Encoded size should be within a small constant of the paper's
        // theoretical wire_bytes (tag + per-entry/array length prefixes).
        let d = sample_descriptor(1);
        let bytes = encode(&WorkerCmd::Evaluate(d.clone()));
        let theoretical = d.wire_bytes();
        let overhead = bytes.len() as u64 - theoretical;
        // 1 tag + 3 u32 array-length prefixes per entry + 1 for root.
        assert!(
            overhead <= 1 + 8 * (d.entries.len() as u64 + 1),
            "overhead {overhead} too large for {} entries",
            d.entries.len()
        );
    }

    #[test]
    fn per_partition_lengths_inflate_descriptor() {
        let d1 = encode(&WorkerCmd::Evaluate(sample_descriptor(1)));
        let d10 = encode(&WorkerCmd::Evaluate(sample_descriptor(10)));
        assert!(d10.len() > 4 * d1.len(), "{} vs {}", d10.len(), d1.len());
    }

    #[test]
    fn rejects_corrupt_input() {
        let good = encode(&WorkerCmd::SetAlphas(vec![1.0, 2.0]));
        assert!(decode(&good[..good.len() - 3]).is_err());
        assert!(decode(&[99]).is_err());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode(&trailing).is_err());
    }

    #[test]
    fn site_rate_capture_roundtrips_and_rejects_corruption() {
        let parts = vec![
            (0usize, vec![0usize, 2, 4], vec![1.0f64.to_bits(); 3]),
            (3usize, vec![1usize], vec![0.5f64.to_bits()]),
        ];
        let bytes = encode_site_rate_capture(&parts);
        assert_eq!(decode_site_rate_capture(&bytes).unwrap(), parts);
        assert!(decode_site_rate_capture(&bytes[..bytes.len() - 2]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(7);
        assert!(decode_site_rate_capture(&trailing).is_err());
    }
}
