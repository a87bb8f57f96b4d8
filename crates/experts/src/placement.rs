//! Expert distribution control: the `count_per_node` argument of
//! Figure 17.

use std::fmt;

/// How global experts are laid out over GPUs.
///
/// Mirrors the paper's `count_per_node = x` API: a positive `x` gives
/// every GPU `x` local experts; a negative `x` splits every expert
/// across `-x` GPUs (each GPU handling `1/(-x)` of that expert's
/// input). `count_per_node` only affects throughput — the training
/// algorithm is unchanged.
///
/// # Example
///
/// ```
/// use tutel_experts::ExpertPlacement;
///
/// // Figure 17a: #GPU = 2, count_per_node = 2 → 4 global experts.
/// let p = ExpertPlacement::from_count_per_node(2, 2).unwrap();
/// assert_eq!(p.global_experts(), 4);
/// assert_eq!(p.owners_of(3), vec![1]);
///
/// // Figure 17b: #GPU = 8, count_per_node = -2 → 4 experts, 2 GPUs each.
/// let p = ExpertPlacement::from_count_per_node(-2, 8).unwrap();
/// assert_eq!(p.global_experts(), 4);
/// assert_eq!(p.owners_of(2), vec![4, 5]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpertPlacement {
    world: usize,
    /// Experts per GPU (≥ 1) — `Some` for positive `count_per_node`.
    local_experts: Option<usize>,
    /// GPUs per expert (≥ 1) — `Some` for negative `count_per_node`.
    shards_per_expert: Option<usize>,
}

impl ExpertPlacement {
    /// Parses a `count_per_node` value for a world of `world` GPUs.
    ///
    /// # Errors
    ///
    /// Returns an error string if `x == 0`, or a negative `x` does not
    /// divide the world size.
    pub fn from_count_per_node(x: i64, world: usize) -> Result<Self, String> {
        if world == 0 {
            return Err("world size must be positive".into());
        }
        match x.cmp(&0) {
            std::cmp::Ordering::Greater => Ok(ExpertPlacement {
                world,
                local_experts: Some(x as usize),
                shards_per_expert: None,
            }),
            std::cmp::Ordering::Less => {
                let shards = (-x) as usize;
                if !world.is_multiple_of(shards) {
                    return Err(format!(
                        "count_per_node = {x}: {shards} GPUs per expert does not divide world {world}"
                    ));
                }
                Ok(ExpertPlacement {
                    world,
                    local_experts: None,
                    shards_per_expert: Some(shards),
                })
            }
            std::cmp::Ordering::Equal => Err("count_per_node must be nonzero".into()),
        }
    }

    /// World size.
    pub fn world(&self) -> usize {
        self.world
    }

    /// Total number of global experts under this placement.
    pub fn global_experts(&self) -> usize {
        match (self.local_experts, self.shards_per_expert) {
            (Some(le), _) => le * self.world,
            (_, Some(sh)) => self.world / sh,
            _ => unreachable!("one of the two modes is always set"),
        }
    }

    /// GPUs into which each expert is sharded (1 when unsharded) —
    /// "n-sharded" in the paper's P2 description.
    pub fn shards_per_expert(&self) -> usize {
        self.shards_per_expert.unwrap_or(1)
    }

    /// The GPUs owning (a shard of) expert `e`, in shard order.
    ///
    /// # Panics
    ///
    /// Panics if `e >= global_experts()`.
    pub fn owners_of(&self, e: usize) -> Vec<usize> {
        assert!(e < self.global_experts(), "expert {e} out of range");
        match (self.local_experts, self.shards_per_expert) {
            (Some(le), _) => vec![e / le],
            (_, Some(sh)) => (e * sh..(e + 1) * sh).collect(),
            _ => unreachable!("one of the two modes is always set"),
        }
    }

    /// The experts (ids) whose parameters live (possibly as shards) on
    /// `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= world()`.
    pub fn experts_on(&self, rank: usize) -> Vec<usize> {
        assert!(rank < self.world, "rank {rank} out of range");
        match (self.local_experts, self.shards_per_expert) {
            (Some(le), _) => (rank * le..(rank + 1) * le).collect(),
            (_, Some(sh)) => vec![rank / sh],
            _ => unreachable!("one of the two modes is always set"),
        }
    }
}

impl fmt::Display for ExpertPlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.local_experts, self.shards_per_expert) {
            (Some(le), _) => write!(f, "{} GPUs × {le} local experts", self.world),
            (_, Some(sh)) => {
                write!(
                    f,
                    "{} experts × {sh}-way sharded over {} GPUs",
                    self.global_experts(),
                    self.world
                )
            }
            _ => unreachable!(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_count_per_node_figure17a() {
        let p = ExpertPlacement::from_count_per_node(2, 2).unwrap();
        assert_eq!(p.global_experts(), 4);
        assert_eq!(p.experts_on(0), vec![0, 1]);
        assert_eq!(p.experts_on(1), vec![2, 3]);
        assert_eq!(p.owners_of(0), vec![0]);
        assert_eq!(p.shards_per_expert(), 1);
    }

    #[test]
    fn negative_count_per_node_figure17b() {
        let p = ExpertPlacement::from_count_per_node(-2, 8).unwrap();
        assert_eq!(p.global_experts(), 4);
        assert_eq!(p.owners_of(0), vec![0, 1]);
        assert_eq!(p.owners_of(3), vec![6, 7]);
        assert_eq!(p.experts_on(5), vec![2]);
        assert_eq!(p.shards_per_expert(), 2);
    }

    #[test]
    fn rejects_invalid_arguments() {
        assert!(ExpertPlacement::from_count_per_node(0, 4).is_err());
        assert!(ExpertPlacement::from_count_per_node(-3, 8).is_err());
        assert!(ExpertPlacement::from_count_per_node(1, 0).is_err());
    }

    #[test]
    fn ownership_is_a_partition() {
        for (x, w) in [(2i64, 4usize), (-2, 8), (1, 8), (-4, 8)] {
            let p = ExpertPlacement::from_count_per_node(x, w).unwrap();
            let mut seen = vec![0usize; p.global_experts()];
            for r in 0..w {
                for e in p.experts_on(r) {
                    seen[e] += 1;
                }
            }
            // Each expert appears on exactly shards_per_expert ranks.
            assert!(seen.iter().all(|&c| c == p.shards_per_expert()), "{x} {w}");
        }
    }
}
