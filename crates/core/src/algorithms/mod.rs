//! Allreduce schedule compilers.

pub mod dpml;
pub mod flat;
pub mod hierarchical;
pub mod sharp_designs;

use dpml_engine::program::{ByteRange, ProgramBuilder, WorldProgram, BUF_RESULT};
use dpml_topology::{LeaderPolicy, RankMap};
use serde::{Deserialize, Serialize};

/// A flat (non-hierarchical) allreduce algorithm, used standalone or as the
/// inter-leader stage of hierarchical designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlatAlg {
    /// Recursive doubling: `ceil(lg p)` exchange-and-reduce steps on the
    /// full vector (latency-optimal for small messages).
    RecursiveDoubling,
    /// Rabenseifner: recursive-halving reduce-scatter followed by a
    /// recursive-doubling allgather (bandwidth-efficient).
    Rabenseifner,
    /// Ring reduce-scatter + ring allgather (`2(p-1)` steps; bandwidth
    /// optimal, latency poor).
    Ring,
}

/// An allreduce algorithm over the whole job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algorithm {
    /// Flat recursive doubling over all `p` ranks.
    RecursiveDoubling,
    /// Flat Rabenseifner over all `p` ranks.
    Rabenseifner,
    /// Flat ring over all `p` ranks.
    Ring,
    /// Binomial-tree reduce to rank 0 followed by binomial broadcast.
    BinomialReduceBcast,
    /// Classic hierarchical design: shared-memory gather to one leader per
    /// node, `inner` allreduce among leaders, shared-memory broadcast.
    SingleLeader {
        /// Inter-leader stage.
        inner: FlatAlg,
    },
    /// Data Partitioning-based Multi-Leader allreduce (the paper's
    /// proposal): `leaders` per node each own `1/leaders` of the vector.
    Dpml {
        /// Leaders per node (`l`).
        leaders: u32,
        /// Inter-leader stage.
        inner: FlatAlg,
    },
    /// DPML with the phase-3 allreduce pipelined over `chunks`
    /// sub-partitions (Section 4.2).
    DpmlPipelined {
        /// Leaders per node (`l`).
        leaders: u32,
        /// Sub-partitions per leader (`k`).
        chunks: u32,
    },
    /// SHArP with a single node-level leader (Section 4.3).
    SharpNodeLeader,
    /// SHArP with one leader per socket (Section 4.3).
    SharpSocketLeader,
}

impl Algorithm {
    /// Human-readable name used by the bench harnesses.
    pub fn name(&self) -> String {
        match self {
            Algorithm::RecursiveDoubling => "recursive-doubling".into(),
            Algorithm::Rabenseifner => "rabenseifner".into(),
            Algorithm::Ring => "ring".into(),
            Algorithm::BinomialReduceBcast => "binomial".into(),
            Algorithm::SingleLeader { .. } => "single-leader".into(),
            Algorithm::Dpml { leaders, .. } => format!("dpml-l{leaders}"),
            Algorithm::DpmlPipelined { leaders, chunks } => format!("dpml-l{leaders}-k{chunks}"),
            Algorithm::SharpNodeLeader => "sharp-node-leader".into(),
            Algorithm::SharpSocketLeader => "sharp-socket-leader".into(),
        }
    }

    /// Parse a CLI/protocol algorithm spec:
    /// `rd | rabenseifner | ring | binomial | single-leader[:rd|rab|ring]
    ///  | dpml:<l>[:rd|rab|ring] | dpml-pipelined:<l>:<k>
    ///  | sharp-node | sharp-socket`.
    ///
    /// Shared by the `dpml` CLI and the `dpml-serve` network protocol, so
    /// a job spec uses exactly the grammar the command line does.
    pub fn parse(s: &str) -> Result<Algorithm, String> {
        let parts: Vec<&str> = s.split(':').collect();
        let flat = |name: &str| -> Result<FlatAlg, String> {
            match name {
                "rd" => Ok(FlatAlg::RecursiveDoubling),
                "rab" | "rabenseifner" => Ok(FlatAlg::Rabenseifner),
                "ring" => Ok(FlatAlg::Ring),
                other => Err(format!("unknown inner algorithm `{other}`")),
            }
        };
        match parts[0] {
            "rd" | "recursive-doubling" => Ok(Algorithm::RecursiveDoubling),
            "rab" | "rabenseifner" => Ok(Algorithm::Rabenseifner),
            "ring" => Ok(Algorithm::Ring),
            "binomial" => Ok(Algorithm::BinomialReduceBcast),
            "single-leader" => {
                let inner = if parts.len() > 1 {
                    flat(parts[1])?
                } else {
                    FlatAlg::RecursiveDoubling
                };
                Ok(Algorithm::SingleLeader { inner })
            }
            "dpml" => {
                let leaders: u32 = parts
                    .get(1)
                    .ok_or("dpml needs a leader count, e.g. dpml:16")?
                    .parse()
                    .map_err(|e| format!("bad leader count: {e}"))?;
                let inner = if parts.len() > 2 {
                    flat(parts[2])?
                } else {
                    FlatAlg::RecursiveDoubling
                };
                Ok(Algorithm::Dpml { leaders, inner })
            }
            "dpml-pipelined" => {
                let leaders: u32 = parts
                    .get(1)
                    .ok_or("dpml-pipelined needs leaders, e.g. dpml-pipelined:16:8")?
                    .parse()
                    .map_err(|e| format!("bad leader count: {e}"))?;
                let chunks: u32 = parts
                    .get(2)
                    .ok_or("dpml-pipelined needs a chunk count, e.g. dpml-pipelined:16:8")?
                    .parse()
                    .map_err(|e| format!("bad chunk count: {e}"))?;
                Ok(Algorithm::DpmlPipelined { leaders, chunks })
            }
            "sharp-node" => Ok(Algorithm::SharpNodeLeader),
            "sharp-socket" => Ok(Algorithm::SharpSocketLeader),
            other => Err(format!("unknown algorithm `{other}` (see `dpml info`)")),
        }
    }

    /// True when the schedule issues `Sharp` instructions (requires a
    /// SHArP-capable fabric and oracle).
    pub fn needs_sharp(&self) -> bool {
        matches!(
            self,
            Algorithm::SharpNodeLeader | Algorithm::SharpSocketLeader
        )
    }

    /// Compile the schedule for a cluster and message size.
    pub fn build(&self, map: &RankMap, n: u64) -> Result<WorldProgram, BuildError> {
        if n == 0 {
            return Err(BuildError::EmptyVector);
        }
        let mut w = WorldProgram::new(map.world_size(), n);
        let mut b = ProgramBuilder::new();
        self.emit(&mut w, &mut b, map, ByteRange::whole(n))?;
        Ok(w)
    }

    /// Emit the allreduce over `range` into an existing world program —
    /// the composition entry point used by the application skeletons in
    /// `dpml-workloads`, which interleave compute steps with collectives
    /// of different sizes.
    pub fn emit(
        &self,
        w: &mut WorldProgram,
        b: &mut ProgramBuilder,
        map: &RankMap,
        range: ByteRange,
    ) -> Result<(), BuildError> {
        if range.is_empty() {
            return Err(BuildError::EmptyVector);
        }
        let all: Vec<dpml_topology::Rank> = map.all_ranks().collect();
        match *self {
            Algorithm::RecursiveDoubling => {
                flat::emit_initial_copy(w, &all, range);
                flat::emit_recursive_doubling_range(w, b, &all, BUF_RESULT, range);
                Ok(())
            }
            Algorithm::Rabenseifner => {
                flat::emit_initial_copy(w, &all, range);
                flat::emit_rabenseifner_range(w, b, &all, BUF_RESULT, range);
                Ok(())
            }
            Algorithm::Ring => {
                flat::emit_initial_copy(w, &all, range);
                flat::emit_ring_range(w, b, &all, BUF_RESULT, range);
                Ok(())
            }
            Algorithm::BinomialReduceBcast => {
                flat::emit_initial_copy(w, &all, range);
                flat::emit_binomial_range(w, b, &all, BUF_RESULT, range);
                Ok(())
            }
            Algorithm::SingleLeader { inner } => {
                hierarchical::emit_single_leader(w, b, map, range, inner)
            }
            Algorithm::Dpml { leaders, inner } => dpml::emit_dpml(w, b, map, range, leaders, inner),
            Algorithm::DpmlPipelined { leaders, chunks } => {
                dpml::emit_dpml_pipelined(w, b, map, range, leaders, chunks)
            }
            Algorithm::SharpNodeLeader => {
                sharp_designs::emit_sharp_leader(w, b, map, range, LeaderPolicy::NodeLevel)
            }
            Algorithm::SharpSocketLeader => {
                sharp_designs::emit_sharp_leader(w, b, map, range, LeaderPolicy::SocketLevel)
            }
        }
    }
}

/// Schedule compilation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// Message size zero.
    EmptyVector,
    /// More leaders requested than processes per node.
    TooManyLeaders {
        /// Requested leader count.
        leaders: u32,
        /// Available processes per node.
        ppn: u32,
    },
    /// Pipelining needs at least one chunk.
    ZeroChunks,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::EmptyVector => write!(f, "allreduce vector must be non-empty"),
            BuildError::TooManyLeaders { leaders, ppn } => {
                write!(f, "{leaders} leaders > {ppn} processes per node")
            }
            BuildError::ZeroChunks => write!(f, "pipeline chunk count must be >= 1"),
        }
    }
}

impl std::error::Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;
    use dpml_topology::ClusterSpec;

    #[test]
    fn names_are_distinct_and_stable() {
        assert_eq!(
            Algorithm::Dpml {
                leaders: 8,
                inner: FlatAlg::RecursiveDoubling
            }
            .name(),
            "dpml-l8"
        );
        assert_eq!(
            Algorithm::DpmlPipelined {
                leaders: 16,
                chunks: 4
            }
            .name(),
            "dpml-l16-k4"
        );
        assert_eq!(Algorithm::SharpSocketLeader.name(), "sharp-socket-leader");
    }

    #[test]
    fn parse_covers_the_cli_grammar() {
        assert_eq!(Algorithm::parse("rd"), Ok(Algorithm::RecursiveDoubling));
        assert_eq!(
            Algorithm::parse("recursive-doubling"),
            Ok(Algorithm::RecursiveDoubling)
        );
        assert_eq!(Algorithm::parse("rab"), Ok(Algorithm::Rabenseifner));
        assert_eq!(Algorithm::parse("ring"), Ok(Algorithm::Ring));
        assert_eq!(
            Algorithm::parse("binomial"),
            Ok(Algorithm::BinomialReduceBcast)
        );
        assert_eq!(
            Algorithm::parse("single-leader"),
            Ok(Algorithm::SingleLeader {
                inner: FlatAlg::RecursiveDoubling
            })
        );
        assert_eq!(
            Algorithm::parse("single-leader:ring"),
            Ok(Algorithm::SingleLeader {
                inner: FlatAlg::Ring
            })
        );
        assert_eq!(
            Algorithm::parse("dpml:16"),
            Ok(Algorithm::Dpml {
                leaders: 16,
                inner: FlatAlg::RecursiveDoubling
            })
        );
        assert_eq!(
            Algorithm::parse("dpml:8:rab"),
            Ok(Algorithm::Dpml {
                leaders: 8,
                inner: FlatAlg::Rabenseifner
            })
        );
        assert_eq!(
            Algorithm::parse("dpml-pipelined:16:8"),
            Ok(Algorithm::DpmlPipelined {
                leaders: 16,
                chunks: 8
            })
        );
        assert_eq!(
            Algorithm::parse("sharp-node"),
            Ok(Algorithm::SharpNodeLeader)
        );
        assert_eq!(
            Algorithm::parse("sharp-socket"),
            Ok(Algorithm::SharpSocketLeader)
        );
        assert!(Algorithm::parse("dpml").is_err());
        assert!(Algorithm::parse("dpml:x").is_err());
        assert!(Algorithm::parse("dpml:4:bogus").is_err());
        assert!(Algorithm::parse("dpml-pipelined:4").is_err());
        assert!(Algorithm::parse("no-such-alg").is_err());
    }

    #[test]
    fn zero_vector_rejected() {
        let spec = ClusterSpec::new(2, 1, 4, 2).unwrap();
        let map = RankMap::block(&spec);
        assert_eq!(Algorithm::Ring.build(&map, 0), Err(BuildError::EmptyVector));
    }

    #[test]
    fn needs_sharp_only_for_sharp_designs() {
        // `run::simulate` attaches the SHArP oracle when the compiled
        // world has SHArP groups; that must be exactly the SHArP designs.
        let preset = dpml_fabric::presets::cluster_a();
        let all = [
            Algorithm::RecursiveDoubling,
            Algorithm::Rabenseifner,
            Algorithm::Ring,
            Algorithm::BinomialReduceBcast,
            Algorithm::SingleLeader {
                inner: FlatAlg::RecursiveDoubling,
            },
            Algorithm::Dpml {
                leaders: 4,
                inner: FlatAlg::Ring,
            },
            Algorithm::DpmlPipelined {
                leaders: 4,
                chunks: 2,
            },
            Algorithm::SharpNodeLeader,
            Algorithm::SharpSocketLeader,
        ];
        for nodes in [1, 4] {
            let map = RankMap::block(&preset.spec(nodes, 8).unwrap());
            for alg in all {
                let world = alg.build(&map, 4096).unwrap();
                assert_eq!(
                    alg.needs_sharp(),
                    !world.sharp_groups.is_empty(),
                    "{} on {nodes} node(s)",
                    alg.name()
                );
            }
        }
        assert!(Algorithm::SharpNodeLeader.needs_sharp());
        assert!(Algorithm::SharpSocketLeader.needs_sharp());
    }
}
