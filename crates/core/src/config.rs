//! SpliDT model configuration — the hyper-parameters the design search
//! explores (paper §3.2.1: tree depth `D`, features per subtree `k`, and
//! the partition-size vector `[i1, …, ip]` with `Σ i_j = D`).

/// A partitioned-tree configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplidtConfig {
    /// Per-partition subtree depths `[i1, …, ip]`; total depth `D` is the
    /// sum, the number of partitions `p` is the length.
    pub partitions: Vec<usize>,
    /// Feature slots per subtree (`k`).
    pub k: usize,
    /// Feature value precision in bits (24 by default; 16/8 for the
    /// bit-precision ablation of Figure 12).
    pub feature_bits: u8,
    /// Minimum training samples for a leaf.
    pub min_samples_leaf: usize,
    /// Minimum samples a leaf must route onward to spawn a next-partition
    /// subtree (below this the leaf becomes an early exit).
    pub min_subtree_samples: usize,
    /// Hard cap on total subtrees (the paper's operator-selection MATs
    /// hold ≤ 200 entries each).
    pub max_subtrees: usize,
    /// Candidate-threshold cap per feature per split (0 = exact search).
    pub max_thresholds_per_feature: usize,
}

impl Default for SplidtConfig {
    fn default() -> Self {
        Self {
            partitions: vec![2, 2, 2],
            k: 4,
            feature_bits: crate::FEATURE_BITS_DEFAULT,
            min_samples_leaf: 3,
            min_subtree_samples: 24,
            max_subtrees: 200,
            max_thresholds_per_feature: 32,
        }
    }
}

impl SplidtConfig {
    /// Number of partitions `p`.
    pub fn n_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Total tree depth `D = Σ i_j`.
    pub fn total_depth(&self) -> usize {
        self.partitions.iter().sum()
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.partitions.is_empty() {
            return Err("at least one partition".into());
        }
        if self.partitions.contains(&0) {
            return Err("partition depths must be ≥ 1".into());
        }
        if self.partitions.len() > 16 {
            return Err("too many partitions (sid budget)".into());
        }
        if self.k == 0 || self.k > 16 {
            return Err("k must be in 1..=16".into());
        }
        if !matches!(self.feature_bits, 8 | 16 | 24) {
            return Err("feature_bits must be 8, 16 or 24".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        let c = SplidtConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.n_partitions(), 3);
        assert_eq!(c.total_depth(), 6);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = SplidtConfig { partitions: vec![], ..Default::default() };
        assert!(c.validate().is_err());
        c.partitions = vec![2, 0];
        assert!(c.validate().is_err());
        c.partitions = vec![2];
        c.k = 0;
        assert!(c.validate().is_err());
        c.k = 4;
        c.feature_bits = 12;
        assert!(c.validate().is_err());
    }
}
