//! The top-level motif finder: frequent-subgraph growth followed by
//! uniqueness testing — Tasks 1 and 2 of the paper's pipeline, i.e. the
//! role NeMoFinder plays upstream of LaMoFinder.

use crate::motif::Motif;
use crate::nemo::{grow_frequent_subgraphs, grow_frequent_subgraphs_supervised, GrowthConfig};
use crate::uniqueness::{uniqueness_scores_supervised, UniquenessConfig};
use par_util::{Interrupted, RunContext};
use ppi_graph::Graph;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Full motif-finding configuration.
#[derive(Clone, Debug)]
pub struct MotifFinderConfig {
    /// Frequent-subgraph growth parameters.
    pub growth: GrowthConfig,
    /// Uniqueness-test parameters.
    pub uniqueness: UniquenessConfig,
    /// Minimum uniqueness for a frequent class to qualify as a motif
    /// (paper: > 0.95).
    pub uniqueness_threshold: f64,
    /// RNG seed for the randomized-network ensemble.
    pub seed: u64,
}

impl Default for MotifFinderConfig {
    fn default() -> Self {
        MotifFinderConfig {
            growth: GrowthConfig::default(),
            uniqueness: UniquenessConfig::default(),
            uniqueness_threshold: 0.95,
            seed: 0x5eed,
        }
    }
}

/// Statistics of one finder run.
#[derive(Clone, Debug, Default)]
pub struct FinderReport {
    /// Frequent classes examined per size (before uniqueness filtering).
    pub frequent_classes: usize,
    /// Motifs that passed the uniqueness filter.
    pub motifs_found: usize,
    /// Growth levels truncated by candidate caps.
    pub truncated_levels: Vec<usize>,
}

/// Network motif finder (see [`MotifFinderConfig`]).
#[derive(Clone, Debug, Default)]
pub struct MotifFinder {
    config: MotifFinderConfig,
}

impl MotifFinder {
    /// Finder with the given configuration.
    pub fn new(config: MotifFinderConfig) -> Self {
        MotifFinder { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &MotifFinderConfig {
        &self.config
    }

    /// Find repeated-and-unique motifs in `network`.
    ///
    /// Uninterruptible entry point: runs [`MotifFinder::find_supervised`]
    /// under a passive [`RunContext`].
    pub fn find(&self, network: &Graph) -> (Vec<Motif>, FinderReport) {
        self.find_supervised(network, &RunContext::unbounded())
            .expect("a passive context without injected faults never interrupts the finder")
    }

    /// [`MotifFinder::find`] under `ctx`: growth and the null model both
    /// run supervised. An interruption in either stage returns
    /// [`Interrupted`] without a checkpoint; resume growth alone with
    /// [`crate::resume_growth`].
    pub fn find_supervised(
        &self,
        network: &Graph,
        ctx: &RunContext,
    ) -> Result<(Vec<Motif>, FinderReport), Interrupted<()>> {
        let growth = grow_frequent_subgraphs_supervised(network, &self.config.growth, ctx)
            .map_err(|e| e.map_checkpoint(|_| ()))?;
        let mut report = FinderReport {
            frequent_classes: growth.classes.len(),
            motifs_found: 0,
            truncated_levels: growth.truncated_levels,
        };

        let patterns: Vec<(&Graph, usize)> = growth
            .classes
            .iter()
            .map(|c| (&c.pattern, c.frequency))
            .collect();
        let mut rng = SmallRng::seed_from_u64(self.config.seed);
        let scores =
            uniqueness_scores_supervised(network, &patterns, &self.config.uniqueness, &mut rng, ctx)?;

        let motifs: Vec<Motif> = growth
            .classes
            .into_iter()
            .zip(scores)
            .filter(|(_, s)| *s >= self.config.uniqueness_threshold)
            .map(|(class, s)| Motif {
                pattern: class.pattern,
                occurrences: class.occurrences,
                frequency: class.frequency,
                uniqueness: Some(s),
            })
            .collect();
        report.motifs_found = motifs.len();
        Ok((motifs, report))
    }

    /// Find repeated motifs only (skip uniqueness; every frequent class
    /// is returned with `uniqueness: None`). Useful when the caller will
    /// score uniqueness separately or labels all frequent subgraphs.
    pub fn find_frequent(&self, network: &Graph) -> (Vec<Motif>, FinderReport) {
        let growth = grow_frequent_subgraphs(network, &self.config.growth);
        let report = FinderReport {
            frequent_classes: growth.classes.len(),
            motifs_found: growth.classes.len(),
            truncated_levels: growth.truncated_levels,
        };
        let motifs = growth
            .classes
            .into_iter()
            .map(|class| Motif {
                pattern: class.pattern,
                occurrences: class.occurrences,
                frequency: class.frequency,
                uniqueness: None,
            })
            .collect();
        (motifs, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 25 disjoint triangles + a path tail: triangles are frequent and
    /// unique; 3-paths are frequent but not unique.
    fn network() -> Graph {
        let mut edges = Vec::new();
        for t in 0..25u32 {
            let b = t * 3;
            edges.extend_from_slice(&[(b, b + 1), (b + 1, b + 2), (b, b + 2)]);
        }
        for i in 75..130u32 {
            edges.push((i, i + 1));
        }
        Graph::from_edges(131, &edges)
    }

    fn config() -> MotifFinderConfig {
        MotifFinderConfig {
            growth: GrowthConfig {
                min_size: 3,
                max_size: 3,
                frequency_threshold: 20,
                ..Default::default()
            },
            uniqueness: UniquenessConfig {
                n_random: 8,
                threads: 2,
                ..Default::default()
            },
            uniqueness_threshold: 0.9,
            seed: 42,
        }
    }

    #[test]
    fn finds_triangle_motif_and_rejects_paths() {
        let g = network();
        let (motifs, report) = MotifFinder::new(config()).find(&g);
        assert!(report.frequent_classes >= 2, "triangle and path are frequent");
        assert_eq!(motifs.len(), 1, "only the triangle is unique");
        let m = &motifs[0];
        assert_eq!(m.pattern.edge_count(), 3);
        assert_eq!(m.frequency, 25);
        assert!(m.uniqueness.unwrap() >= 0.9);
        assert!(m.validate_against(&g));
    }

    #[test]
    fn find_frequent_skips_uniqueness() {
        let g = network();
        let (motifs, _) = MotifFinder::new(config()).find_frequent(&g);
        assert!(motifs.len() >= 2);
        assert!(motifs.iter().all(|m| m.uniqueness.is_none()));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = network();
        let (m1, _) = MotifFinder::new(config()).find(&g);
        let (m2, _) = MotifFinder::new(config()).find(&g);
        assert_eq!(m1.len(), m2.len());
        for (a, b) in m1.iter().zip(&m2) {
            assert_eq!(a.frequency, b.frequency);
            assert_eq!(a.uniqueness, b.uniqueness);
        }
    }
}
