use std::fmt;

/// All-to-All algorithm choice.
///
/// Figure 5 of the paper shows neither algorithm dominates: linear wins
/// at large message sizes / small scale, 2DH at small sizes / large
/// scale — so adaptive pipelining searches over this enum jointly with
/// the pipelining degree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllToAllAlgo {
    /// Point-to-point loop (Algorithm 1) — NCCL's default.
    #[default]
    Linear,
    /// Two-Dimensional Hierarchical (Algorithm 3).
    TwoDh,
}

impl AllToAllAlgo {
    /// All algorithms, in search order.
    pub const ALL: [AllToAllAlgo; 2] = [AllToAllAlgo::Linear, AllToAllAlgo::TwoDh];

    /// Short label for grids, reports and audit records.
    pub fn label(&self) -> &'static str {
        match self {
            AllToAllAlgo::Linear => "lin",
            AllToAllAlgo::TwoDh => "2dh",
        }
    }
}

impl fmt::Display for AllToAllAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllToAllAlgo::Linear => write!(f, "Linear"),
            AllToAllAlgo::TwoDh => write!(f, "2DH"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_and_labels() {
        assert_eq!(AllToAllAlgo::Linear.to_string(), "Linear");
        assert_eq!(AllToAllAlgo::TwoDh.to_string(), "2DH");
        assert_eq!(AllToAllAlgo::Linear.label(), "lin");
        assert_eq!(AllToAllAlgo::TwoDh.label(), "2dh");
    }
}
