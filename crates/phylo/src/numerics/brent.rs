//! One-dimensional minimization: Brent's method as a state machine
//! ([`BrentState`]), and a *batched* form that advances many independent
//! minimizations in lockstep.
//!
//! The batched driver is the numerical half of the paper's load-balance fix
//! from ref. 23: when optimizing per-partition parameters (α, GTR rates), a
//! proposal must be made for **all** partitions simultaneously so one
//! parallel region evaluates all of them at once. `BatchedBrent` exposes the
//! candidate points for every partition each round; the caller evaluates them
//! in a single (parallel) likelihood call and feeds the values back.

const GOLD: f64 = 0.381_966_011_250_105_1; // 2 - phi

/// State machine form of Brent minimization: `proposal()` yields the next
/// point to evaluate (or `None` when converged), `update()` feeds the value
/// back. This inversion of control is what allows batching across
/// partitions.
#[derive(Debug, Clone)]
pub struct BrentState {
    a: f64,
    b: f64,
    x: f64,
    w: f64,
    v: f64,
    fx: f64,
    fw: f64,
    fv: f64,
    d: f64,
    e: f64,
    evaluated_init: u8,
    done: bool,
}

impl BrentState {
    /// Begin minimizing on `[a, b]`.
    pub fn new(a: f64, b: f64) -> BrentState {
        assert!(a < b, "invalid bracket [{a}, {b}]");
        let x = a + GOLD * (b - a);
        BrentState {
            a,
            b,
            x,
            w: x,
            v: x,
            fx: f64::INFINITY,
            fw: f64::INFINITY,
            fv: f64::INFINITY,
            d: 0.0,
            e: 0.0,
            evaluated_init: 0,
            done: false,
        }
    }

    /// Has the minimization converged?
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Best point found so far.
    pub fn best_x(&self) -> f64 {
        self.x
    }

    /// Function value at the best point.
    pub fn best_f(&self) -> f64 {
        self.fx
    }

    /// Next point to evaluate, or `None` if converged to tolerance `tol`.
    pub fn proposal(&mut self, tol: f64) -> Option<f64> {
        if self.done {
            return None;
        }
        if self.evaluated_init == 0 {
            return Some(self.x);
        }
        let xm = 0.5 * (self.a + self.b);
        let tol1 = tol * self.x.abs() + 1e-12;
        let tol2 = 2.0 * tol1;
        if (self.x - xm).abs() <= tol2 - 0.5 * (self.b - self.a) {
            self.done = true;
            return None;
        }
        let mut use_golden = true;
        let mut d_new = 0.0;
        if self.e.abs() > tol1 {
            // Parabolic fit through (x, w, v).
            let r = (self.x - self.w) * (self.fx - self.fv);
            let mut q = (self.x - self.v) * (self.fx - self.fw);
            let mut p = (self.x - self.v) * q - (self.x - self.w) * r;
            q = 2.0 * (q - r);
            if q > 0.0 {
                p = -p;
            }
            q = q.abs();
            let e_old = self.e;
            self.e = self.d;
            if p.abs() < (0.5 * q * e_old).abs()
                && p > q * (self.a - self.x)
                && p < q * (self.b - self.x)
            {
                d_new = p / q;
                let u = self.x + d_new;
                if u - self.a < tol2 || self.b - u < tol2 {
                    d_new = if xm >= self.x { tol1 } else { -tol1 };
                }
                use_golden = false;
            }
        }
        if use_golden {
            self.e = if self.x >= xm {
                self.a - self.x
            } else {
                self.b - self.x
            };
            d_new = GOLD * self.e;
        }
        self.d = d_new;
        let u = if d_new.abs() >= tol1 {
            self.x + d_new
        } else {
            self.x + if d_new >= 0.0 { tol1 } else { -tol1 }
        };
        Some(u)
    }

    /// Feed the function value `fu` at the proposed point `u` back in.
    pub fn update(&mut self, u: f64, fu: f64) {
        if self.evaluated_init == 0 {
            self.evaluated_init = 1;
            self.fx = fu;
            return;
        }
        if fu <= self.fx {
            if u >= self.x {
                self.a = self.x;
            } else {
                self.b = self.x;
            }
            self.v = self.w;
            self.fv = self.fw;
            self.w = self.x;
            self.fw = self.fx;
            self.x = u;
            self.fx = fu;
        } else {
            if u < self.x {
                self.a = u;
            } else {
                self.b = u;
            }
            if fu <= self.fw || self.w == self.x {
                self.v = self.w;
                self.fv = self.fw;
                self.w = u;
                self.fw = fu;
            } else if fu <= self.fv || self.v == self.x || self.v == self.w {
                self.v = u;
                self.fv = fu;
            }
        }
    }
}

/// Lockstep driver over many independent Brent minimizations.
///
/// Every round, [`BatchedBrent::proposals`] returns one candidate per still-
/// active instance; the caller evaluates all of them in a single batched
/// call and reports values with [`BatchedBrent::update`]. Instances that
/// converge keep returning their current best so the batch width stays
/// constant (mirroring how ExaML evaluates all partitions every region even
/// when some parameters have converged).
#[derive(Debug, Clone)]
pub struct BatchedBrent {
    states: Vec<BrentState>,
    tol: f64,
    pending: Vec<Option<f64>>,
}

impl BatchedBrent {
    /// One instance per `(a, b)` bracket.
    pub fn new(brackets: &[(f64, f64)], tol: f64) -> BatchedBrent {
        let states = brackets
            .iter()
            .map(|&(a, b)| BrentState::new(a, b))
            .collect();
        BatchedBrent {
            states,
            tol,
            pending: vec![None; brackets.len()],
        }
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when there are no instances.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// All instances converged?
    pub fn all_done(&self) -> bool {
        self.states.iter().all(|s| s.is_done())
    }

    /// The candidate vector for this round: converged instances contribute
    /// their best-so-far point. Returns `None` once every instance is done.
    pub fn proposals(&mut self) -> Option<Vec<f64>> {
        if self.all_done() {
            return None;
        }
        let mut out = Vec::with_capacity(self.states.len());
        for (i, st) in self.states.iter_mut().enumerate() {
            match st.proposal(self.tol) {
                Some(x) => {
                    self.pending[i] = Some(x);
                    out.push(x);
                }
                None => {
                    self.pending[i] = None;
                    out.push(st.best_x());
                }
            }
        }
        Some(out)
    }

    /// Report the batched function values for the last `proposals()` vector.
    pub fn update(&mut self, values: &[f64]) {
        assert_eq!(values.len(), self.states.len());
        for (i, st) in self.states.iter_mut().enumerate() {
            if let Some(u) = self.pending[i].take() {
                st.update(u, values[i]);
            }
        }
    }

    /// Best point of instance `i`.
    pub fn best_x(&self, i: usize) -> f64 {
        self.states[i].best_x()
    }

    /// Best value of instance `i`.
    pub fn best_f(&self, i: usize) -> f64 {
        self.states[i].best_f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Result of a scalar minimization.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct MinResult {
        x: f64,
        fx: f64,
        iterations: usize,
    }

    /// Brent's method on `[a, b]` (no derivative), tolerance `tol` on `x`: the
    /// one-minimization loop the `BatchedBrent` tests take as their reference.
    fn brent_min<F: FnMut(f64) -> f64>(
        a: f64,
        b: f64,
        tol: f64,
        max_iter: usize,
        mut f: F,
    ) -> MinResult {
        let mut st = BrentState::new(a, b);
        let mut iterations = 0;
        for _ in 0..max_iter {
            let x = match st.proposal(tol) {
                Some(x) => x,
                None => break,
            };
            iterations += 1;
            let fx = f(x);
            st.update(x, fx);
        }
        MinResult {
            x: st.best_x(),
            fx: st.best_f(),
            iterations,
        }
    }

    #[test]
    fn quadratic_minimum() {
        let r = brent_min(0.0, 5.0, 1e-10, 200, |x| (x - 2.0) * (x - 2.0) + 1.0);
        assert!((r.x - 2.0).abs() < 1e-7, "{r:?}");
        assert!((r.fx - 1.0).abs() < 1e-12);
    }

    #[test]
    fn asymmetric_function() {
        // min of x^4 - 3x at x = (3/4)^(1/3).
        let r = brent_min(0.0, 3.0, 1e-10, 200, |x| x.powi(4) - 3.0 * x);
        let expect = (0.75f64).powf(1.0 / 3.0);
        assert!((r.x - expect).abs() < 1e-6, "{r:?} vs {expect}");
    }

    #[test]
    fn boundary_minimum() {
        // Monotone increasing: minimum at left edge.
        let r = brent_min(1.0, 4.0, 1e-9, 200, |x| x);
        assert!(r.x < 1.01, "{r:?}");
    }

    #[test]
    fn narrow_spike() {
        let r = brent_min(0.0, 10.0, 1e-10, 500, |x| {
            -(-((x - 7.3) * (x - 7.3)) * 50.0).exp()
        });
        // Brent is a local method; from the golden start it may or may not
        // find the spike — but it must terminate and return a valid point.
        assert!((0.0..=10.0).contains(&r.x));
    }

    #[test]
    fn batched_matches_sequential() {
        let funcs: Vec<Box<dyn Fn(f64) -> f64>> = vec![
            Box::new(|x| (x - 1.0) * (x - 1.0)),
            Box::new(|x| (x - 2.5) * (x - 2.5) + 3.0),
            Box::new(|x| (x + 0.5) * (x + 0.5)),
        ];
        let brackets = [(-2.0, 4.0), (-2.0, 4.0), (-2.0, 4.0)];
        let mut batch = BatchedBrent::new(&brackets, 1e-9);
        while let Some(xs) = batch.proposals() {
            let vals: Vec<f64> = xs.iter().zip(&funcs).map(|(&x, f)| f(x)).collect();
            batch.update(&vals);
        }
        let seq: Vec<MinResult> = funcs
            .iter()
            .map(|f| brent_min(-2.0, 4.0, 1e-9, 500, f))
            .collect();
        for i in 0..3 {
            assert!((batch.best_x(i) - seq[i].x).abs() < 1e-7, "instance {i}");
            assert!((batch.best_f(i) - seq[i].fx).abs() < 1e-12, "instance {i}");
        }
    }

    #[test]
    fn batched_converges_at_different_speeds() {
        // A flat function converges immediately; a quadratic takes longer.
        let mut batch = BatchedBrent::new(&[(0.0, 1.0), (0.0, 1.0)], 1e-10);
        let mut rounds = 0;
        while let Some(xs) = batch.proposals() {
            let vals = vec![0.0, (xs[1] - 0.77) * (xs[1] - 0.77)];
            batch.update(&vals);
            rounds += 1;
            assert!(rounds < 300, "failed to converge");
        }
        assert!((batch.best_x(1) - 0.77).abs() < 1e-6);
    }

    #[test]
    fn state_machine_equivalent_to_closure_form() {
        let f = |x: f64| x * x * x * x - 2.0 * x * x + 0.3 * x;
        let direct = brent_min(-2.0, 0.5, 1e-10, 300, f);
        let mut st = BrentState::new(-2.0, 0.5);
        while let Some(x) = st.proposal(1e-10) {
            st.update(x, f(x));
        }
        assert!((st.best_x() - direct.x).abs() < 1e-12);
    }
}
