//! A serving *node*: one `Platform`'s server loop behind a typed
//! message-passing interface.
//!
//! [`Node`] wraps a [`LoopDriver`] so that everything an admission
//! controller does to a shard — membership deltas, slot advancement,
//! report extraction — flows through one [`NodeCommand`] request /
//! [`NodeResponse`] reply seam. In-process callers dispatch commands
//! directly with [`Node::handle`]; the commands are plain data
//! (`Serialize`/`Deserialize`), so a wire protocol can bind the same
//! seam later without touching the driver. The cluster layer
//! (`medvt-cluster`) runs one `Node` per worker; single-host serving
//! (`admission::serve_online_with`) drives its shards through the same
//! commands, so both tiers exercise identical driver transitions.

use crate::backend::ExecutionBackend;
use crate::server::{DemandSource, LoopDriver, LoopReport, ServerLoopConfig, UserLoopStats};
use medvt_telemetry::{NoopRecorder, Recorder};
use serde::{Deserialize, Serialize};

/// A request to a serving node. Every variant is plain data so the
/// enum can cross a process boundary unchanged.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeCommand {
    /// Apply a membership delta at a GOP boundary
    /// ([`LoopDriver::update_membership`]).
    UpdateMembership {
        /// Users admitted onto this node.
        add: Vec<usize>,
        /// Users leaving this node (departed or evicted).
        remove: Vec<usize>,
    },
    /// Execute `slots` frame slots against the node's demand source.
    Advance {
        /// Number of slots to run.
        slots: usize,
    },
    /// Snapshot the aggregate report so far without stopping.
    Report,
    /// Finish the run: fold telemetry into the recorder and return the
    /// final report. The node accepts no further commands.
    Stop,
}

/// A serving node's reply to one [`NodeCommand`].
#[derive(Debug, Clone, PartialEq)]
pub enum NodeResponse {
    /// The command was applied; nothing to return.
    Done,
    /// Reply to [`NodeCommand::Report`].
    Report(Box<LoopReport>),
    /// Reply to [`NodeCommand::Stop`]: the final report.
    Stopped(Box<LoopReport>),
    /// The node already stopped; the command was ignored.
    Gone,
}

impl NodeResponse {
    /// The report carried by a `Report`/`Stopped` reply, if any.
    pub fn into_report(self) -> Option<LoopReport> {
        match self {
            NodeResponse::Report(r) | NodeResponse::Stopped(r) => Some(*r),
            _ => None,
        }
    }
}

/// One serving node: a [`LoopDriver`] owning its backend (and thereby
/// its `Platform` view), addressed through [`NodeCommand`]s.
#[derive(Debug)]
pub struct Node<B: ExecutionBackend, R: Recorder = NoopRecorder> {
    driver: Option<LoopDriver<B, R>>,
}

impl<B: ExecutionBackend> Node<B> {
    /// A node with telemetry disabled, starting with an empty admitted
    /// set.
    pub fn new(backend: B, cfg: ServerLoopConfig) -> Self {
        Node::with_recorder(backend, cfg, NoopRecorder, 0)
    }
}

impl<B: ExecutionBackend, R: Recorder> Node<B, R> {
    /// A node stamping telemetry onto `track` of `recorder`.
    ///
    /// # Panics
    ///
    /// Panics when the config's `fps` or `gop_slots` is not positive.
    pub fn with_recorder(backend: B, cfg: ServerLoopConfig, recorder: R, track: u16) -> Self {
        Node {
            driver: Some(LoopDriver::with_recorder(
                backend,
                cfg,
                Vec::new(),
                Vec::new(),
                recorder,
                track,
            )),
        }
    }

    /// Dispatches one command against the node's demand source.
    /// Returns [`NodeResponse::Gone`] for every command after `Stop`.
    pub fn handle(&mut self, cmd: NodeCommand, source: &impl DemandSource) -> NodeResponse {
        let Some(driver) = self.driver.as_mut() else {
            return NodeResponse::Gone;
        };
        match cmd {
            NodeCommand::UpdateMembership { add, remove } => {
                driver.update_membership(&add, &remove);
                NodeResponse::Done
            }
            NodeCommand::Advance { slots } => {
                driver.advance(source, slots);
                NodeResponse::Done
            }
            NodeCommand::Report => NodeResponse::Report(Box::new(driver.report())),
            NodeCommand::Stop => {
                let driver = self.driver.take().expect("checked above");
                NodeResponse::Stopped(Box::new(driver.into_report()))
            }
        }
    }

    /// Whether the node still accepts commands (false after `Stop`).
    pub fn is_live(&self) -> bool {
        self.driver.is_some()
    }

    /// The next slot the node will execute (0 after `Stop`).
    pub fn slot(&self) -> usize {
        self.driver.as_ref().map_or(0, |d| d.slot())
    }

    /// Members currently on a consecutive-window-miss streak, in id
    /// order — the read-path an eviction scan needs. Local queries
    /// stay synchronous; only state *transitions* go through
    /// [`NodeCommand`]s.
    pub fn miss_streaks(&self) -> impl Iterator<Item = usize> + '_ {
        self.driver.iter().flat_map(|d| d.miss_streaks())
    }

    /// Running per-user accounting (None before the user's first
    /// scheduled slot, or after `Stop`).
    pub fn user_stats(&self, user: usize) -> Option<&UserLoopStats> {
        self.driver.as_ref().and_then(|d| d.user_stats(user))
    }

    /// Direct access to the wrapped driver (None after `Stop`) — the
    /// colocated-coordinator escape hatch for reads the command seam
    /// doesn't model.
    pub fn driver(&self) -> Option<&LoopDriver<B, R>> {
        self.driver.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ReplanPolicy;
    use crate::sim::SimBackend;
    use medvt_mpsoc::{Platform, PowerModel};

    struct Flat;
    impl DemandSource for Flat {
        fn demand_at(&self, _user: usize, _slot: usize) -> Vec<f64> {
            vec![0.01; 2]
        }
        fn steady(&self, _user: usize) -> bool {
            true
        }
    }

    fn node() -> Node<SimBackend> {
        let p = Platform::xeon_e5_2667_quad();
        let cfg = ServerLoopConfig {
            fps: 24.0,
            slots: 0,
            policy: medvt_mpsoc::DvfsPolicy::RaceToIdle,
            replan: ReplanPolicy::PerGop { headroom: 1.15 },
            gop_slots: 8,
            window_slots: Some(24),
        };
        Node::new(
            SimBackend::new(p.socket_view(0), PowerModel::default()),
            cfg,
        )
    }

    #[test]
    fn command_seam_matches_direct_driver_calls() {
        let src = Flat;
        let mut n = node();
        assert!(matches!(
            n.handle(
                NodeCommand::UpdateMembership {
                    add: vec![3, 1],
                    remove: vec![],
                },
                &src
            ),
            NodeResponse::Done
        ));
        assert!(matches!(
            n.handle(NodeCommand::Advance { slots: 16 }, &src),
            NodeResponse::Done
        ));
        assert_eq!(n.slot(), 16);

        let via_cmd = n
            .handle(NodeCommand::Report, &src)
            .into_report()
            .expect("report");

        // Reference: the same transitions applied to a bare driver.
        let p = Platform::xeon_e5_2667_quad();
        let mut d = LoopDriver::new(
            SimBackend::new(p.socket_view(0), PowerModel::default()),
            *n.driver().unwrap().config(),
            Vec::new(),
            Vec::new(),
        );
        d.update_membership(&[3, 1], &[]);
        d.advance(&src, 16);
        assert_eq!(via_cmd.modeled_only(), d.report().modeled_only());
    }

    #[test]
    fn stop_finishes_and_further_commands_bounce() {
        let src = Flat;
        let mut n = node();
        n.handle(
            NodeCommand::UpdateMembership {
                add: vec![0],
                remove: vec![],
            },
            &src,
        );
        n.handle(NodeCommand::Advance { slots: 8 }, &src);
        let report = n
            .handle(NodeCommand::Stop, &src)
            .into_report()
            .expect("final report");
        assert_eq!(report.slots, 8);
        assert!(!n.is_live());
        assert!(matches!(
            n.handle(NodeCommand::Advance { slots: 8 }, &src),
            NodeResponse::Gone
        ));
        assert!(n.user_stats(0).is_none());
    }

    #[test]
    fn commands_are_wire_shaped() {
        // Plain-data commands serialize to a stable tagged form — the
        // contract a wire protocol binds against. (The offline
        // serde_json shim has no parser; the `Deserialize` derive is
        // exercised at compile time.)
        let cmd = NodeCommand::UpdateMembership {
            add: vec![1, 2],
            remove: vec![3],
        };
        let json = serde_json::to_string(&cmd).expect("serializes");
        assert!(json.contains("UpdateMembership"), "{json}");
        assert!(json.contains("\"add\":[1,2]"), "{json}");
        assert_eq!(
            serde_json::to_string(&NodeCommand::Advance { slots: 8 }).unwrap(),
            serde_json::to_string(&NodeCommand::Advance { slots: 8 }).unwrap()
        );
    }
}
