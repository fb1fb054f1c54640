//! Order statistics, a seeded generator and the run-wide counters every
//! workload fills in.

/// The `q`-quantile of `values` by linear interpolation between the closest
/// ranks (the numpy default). `values` need not be sorted; empty input gives
/// `None`.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// SplitMix64: the benchmark's own input generator, so inputs depend only on
/// `--seed` and never on the library under test.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one seeded run.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform integer in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Operations attempted and failed in one run, with the first few failure
/// messages kept for the log.
#[derive(Debug, Default)]
pub struct Outcomes {
    /// Measured operations whose output was checked.
    pub attempted: u64,
    /// Operations that returned an error or a wrong answer.
    pub failed: u64,
    /// The first failure messages, for stderr.
    pub messages: Vec<String>,
}

impl Outcomes {
    /// Records `ops` checked operations.
    pub fn attempt(&mut self, ops: u64) {
        self.attempted += ops;
    }

    /// Records `ops` failed operations and why.
    pub fn fail(&mut self, ops: u64, why: impl Into<String>) {
        self.failed += ops;
        if self.messages.len() < 8 {
            self.messages.push(why.into());
        }
    }

    /// Checks `ok`, recording one failure with `why` when it does not hold.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(1, why());
        }
    }

    /// Folds another run's outcomes into this one.
    pub fn absorb(&mut self, other: Outcomes) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_numpy() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert!((quantile(&v, 0.9).unwrap() - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn rng_streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }
}
