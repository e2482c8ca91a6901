//! Platform description: the multicore server the scheduler targets.
//!
//! Real MPSoCs are heterogeneous — big.LITTLE clusters with distinct
//! frequency ladders, power envelopes and per-cycle throughput — so a
//! [`Platform`] is a set of [`CoreClass`]es replicated across sockets.
//! The single-class constructors ([`Platform::new`],
//! [`Platform::xeon_e5_2667_quad`]) reproduce the paper's homogeneous
//! evaluation server exactly; [`Platform::big_little`] models an
//! Arm-style asymmetric MPSoC.

use crate::freq::{FreqLevel, FrequencySet};
use crate::power::PowerModel;
use serde::{Deserialize, Serialize};

/// One class of identical cores present in every socket — e.g. the
/// "big" or "LITTLE" cluster of an asymmetric MPSoC.
///
/// Workload across the workspace is expressed in *reference*
/// fmax-seconds: CPU time on a speed-1.0 core running at its maximum
/// frequency. A class with `speed_factor` 0.5 retires the same work at
/// half that rate even at its own f_max, so one reference fmax-second
/// costs two wall seconds there.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreClass {
    /// Human-readable class name ("big", "LITTLE", "core", …).
    pub name: String,
    /// Cores of this class per socket.
    pub cores_per_socket: usize,
    /// The class's own DVFS ladder.
    freqs: FrequencySet,
    /// Work retired per second at this class's f_max, relative to the
    /// reference class (1.0 = reference speed).
    pub speed_factor: f64,
    /// Class-specific power model; `None` uses the platform-wide model
    /// the caller passes to `simulate_slot`.
    power: Option<PowerModel>,
}

impl CoreClass {
    /// Builds a core class.
    ///
    /// # Panics
    ///
    /// Panics when `cores_per_socket` is zero or `speed_factor` is not
    /// strictly positive and finite.
    pub fn new(
        name: impl Into<String>,
        cores_per_socket: usize,
        freqs: FrequencySet,
        speed_factor: f64,
    ) -> Self {
        assert!(cores_per_socket > 0, "class needs at least one core");
        assert!(
            speed_factor.is_finite() && speed_factor > 0.0,
            "speed factor must be positive and finite"
        );
        Self {
            name: name.into(),
            cores_per_socket,
            freqs,
            speed_factor,
            power: None,
        }
    }

    /// Attaches a class-specific power model (builder style).
    pub fn with_power(mut self, power: PowerModel) -> Self {
        self.power = Some(power);
        self
    }

    /// The class's DVFS ladder.
    pub(crate) fn freqs(&self) -> &FrequencySet {
        &self.freqs
    }

    /// Highest operating point of this class.
    pub fn fmax(&self) -> FreqLevel {
        self.freqs.max()
    }

    /// Lowest operating point of this class.
    pub fn fmin(&self) -> FreqLevel {
        self.freqs.min()
    }

    /// Class-specific power model, when one is attached.
    pub fn power(&self) -> Option<&PowerModel> {
        self.power.as_ref()
    }
}

/// An MPSoC / multicore-server description.
///
/// Cores are numbered socket-major, classes in declaration order
/// within each socket: socket 0 holds class 0's cores first, then
/// class 1's, …; socket 1 repeats the layout.
///
/// # Examples
///
/// ```
/// use medvt_mpsoc::Platform;
///
/// let server = Platform::xeon_e5_2667_quad();
/// assert_eq!(server.total_cores(), 32);
/// assert!((server.freqs().max().ghz() - 3.6).abs() < 1e-12);
///
/// let bl = Platform::big_little();
/// assert!(bl.is_heterogeneous());
/// assert!(bl.core_speeds().iter().any(|&s| s < 1.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    /// Human-readable platform name.
    pub name: String,
    /// Number of processor sockets.
    pub sockets: usize,
    /// Core classes replicated in every socket.
    classes: Vec<CoreClass>,
    /// DVFS transition latency in seconds (paper: 10 µs).
    pub dvfs_transition_secs: f64,
}

impl Platform {
    /// Builds a homogeneous platform: one class of identical cores at
    /// reference speed — the paper's setting.
    ///
    /// # Panics
    ///
    /// Panics when sockets or cores are zero, or the transition latency
    /// is negative.
    pub fn new(
        name: impl Into<String>,
        sockets: usize,
        cores_per_socket: usize,
        freqs: FrequencySet,
        dvfs_transition_secs: f64,
    ) -> Self {
        Self::with_classes(
            name,
            sockets,
            vec![CoreClass::new("core", cores_per_socket, freqs, 1.0)],
            dvfs_transition_secs,
        )
    }

    /// Builds a platform from explicit core classes.
    ///
    /// # Panics
    ///
    /// Panics when sockets is zero, no class is given, or the
    /// transition latency is negative. (Class invariants are enforced
    /// by [`CoreClass::new`].)
    pub fn with_classes(
        name: impl Into<String>,
        sockets: usize,
        classes: Vec<CoreClass>,
        dvfs_transition_secs: f64,
    ) -> Self {
        assert!(sockets > 0, "need at least one socket");
        assert!(!classes.is_empty(), "need at least one core class");
        assert!(
            dvfs_transition_secs >= 0.0,
            "transition latency cannot be negative"
        );
        Self {
            name: name.into(),
            sockets,
            classes,
            dvfs_transition_secs,
        }
    }

    /// The paper's evaluation server: four 8-core Intel Xeon E5-2667
    /// processors, DVFS levels {2.9, 3.2, 3.6} GHz, 10 µs transition
    /// latency (§IV-A).
    pub fn xeon_e5_2667_quad() -> Self {
        Self::new(
            "4x Intel Xeon E5-2667",
            4,
            8,
            FrequencySet::xeon_e5_2667(),
            10e-6,
        )
    }

    /// A small embedded-style MPSoC useful for tests (1 socket, 4
    /// cores, same ladder).
    pub fn quad_core() -> Self {
        Self::new("quad-core MPSoC", 1, 4, FrequencySet::xeon_e5_2667(), 10e-6)
    }

    /// An Arm-style asymmetric MPSoC: two sockets, each with a 4-core
    /// "big" cluster (2.0 GHz peak, reference speed) and a 4-core
    /// "LITTLE" cluster (1.4 GHz peak, 0.45× reference throughput,
    /// much lighter power envelope). The heterogeneous counterpart of
    /// [`Platform::xeon_e5_2667_quad`] for speed-aware scheduling.
    pub fn big_little() -> Self {
        let big =
            CoreClass::new("big", 4, FrequencySet::big_cluster(), 1.0).with_power(PowerModel {
                ceff_w_per_ghz_v2: 3.0,
                static_w: 0.8,
                idle_w: 0.3,
                clock_idle_frac: 0.25,
                transition_j: 1e-4,
            });
        let little = CoreClass::new("LITTLE", 4, FrequencySet::little_cluster(), 0.45).with_power(
            PowerModel {
                ceff_w_per_ghz_v2: 1.1,
                static_w: 0.25,
                idle_w: 0.08,
                clock_idle_frac: 0.2,
                transition_j: 4e-5,
            },
        );
        Self::with_classes("big.LITTLE MPSoC", 2, vec![big, little], 50e-6)
    }

    /// The core classes replicated in each socket.
    pub fn classes(&self) -> &[CoreClass] {
        &self.classes
    }

    /// `true` when the platform has more than one core class or any
    /// class off reference speed.
    pub fn is_heterogeneous(&self) -> bool {
        self.classes.len() > 1 || self.classes.iter().any(|c| c.speed_factor != 1.0)
    }

    /// Physical cores per socket, summed over classes.
    pub fn cores_per_socket(&self) -> usize {
        self.classes.iter().map(|c| c.cores_per_socket).sum()
    }

    /// Total physical cores.
    pub fn total_cores(&self) -> usize {
        self.sockets * self.cores_per_socket()
    }

    /// Index (into [`Platform::classes`]) of the class core `core`
    /// belongs to.
    ///
    /// # Panics
    ///
    /// Panics when `core` is out of range.
    pub(crate) fn class_index_of(&self, core: usize) -> usize {
        assert!(core < self.total_cores(), "core {core} out of range");
        let mut within = core % self.cores_per_socket();
        for (i, class) in self.classes.iter().enumerate() {
            if within < class.cores_per_socket {
                return i;
            }
            within -= class.cores_per_socket;
        }
        unreachable!("core within socket must land in a class");
    }

    /// The class core `core` belongs to.
    ///
    /// # Panics
    ///
    /// Panics when `core` is out of range.
    pub fn class_of(&self, core: usize) -> &CoreClass {
        &self.classes[self.class_index_of(core)]
    }

    /// The class of every core, in core-id order: the socket-major
    /// layout walked once instead of a [`Platform::class_of`] lookup
    /// per core.
    pub(crate) fn core_classes(&self) -> impl Iterator<Item = &CoreClass> {
        (0..self.sockets).flat_map(move |_| {
            self.classes
                .iter()
                .flat_map(|class| std::iter::repeat_n(class, class.cores_per_socket))
        })
    }

    /// Per-core speed factors, indexed by core id — what speed-aware
    /// placement normalizes loads with.
    pub fn core_speeds(&self) -> Vec<f64> {
        self.core_classes()
            .map(|class| class.speed_factor)
            .collect()
    }

    /// Per-core minimum operating points, indexed by core id — the
    /// cold-start DVFS state of each core's own ladder.
    pub fn core_fmins(&self) -> Vec<FreqLevel> {
        self.core_classes().map(CoreClass::fmin).collect()
    }

    /// Effective capacity in reference cores: the sum of all cores'
    /// speed factors — what fractional-core admission checks against.
    pub fn speed_capacity(&self) -> f64 {
        self.core_speeds().iter().sum()
    }

    /// A single-socket view of socket `socket` — the shard a
    /// per-socket server loop schedules against. Same class layout,
    /// power behaviour and transition latency; one socket's worth of
    /// cores, labelled with the socket index so shard reports stay
    /// attributable.
    ///
    /// # Panics
    ///
    /// Panics when `socket` is out of range.
    pub fn socket_view(&self, socket: usize) -> Platform {
        assert!(socket < self.sockets, "socket {socket} out of range");
        Platform::with_classes(
            format!("{} (socket {socket})", self.name),
            1,
            self.classes.clone(),
            self.dvfs_transition_secs,
        )
    }

    /// The reference DVFS ladder (class 0's). Homogeneous platforms
    /// have exactly one ladder; heterogeneous callers should read each
    /// core class's own.
    pub fn freqs(&self) -> &FrequencySet {
        self.classes[0].freqs()
    }

    /// Highest operating point across all classes.
    pub fn fmax(&self) -> FreqLevel {
        self.classes
            .iter()
            .map(CoreClass::fmax)
            .max()
            .expect("non-empty by construction")
    }

    /// Lowest operating point across all classes.
    pub fn fmin(&self) -> FreqLevel {
        self.classes
            .iter()
            .map(CoreClass::fmin)
            .min()
            .expect("non-empty by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_platform_geometry() {
        let p = Platform::xeon_e5_2667_quad();
        assert_eq!(p.sockets, 4);
        assert_eq!(p.cores_per_socket(), 8);
        assert_eq!(p.total_cores(), 32);
        assert!((p.dvfs_transition_secs - 10e-6).abs() < 1e-12);
        assert_eq!(p.freqs().len(), 3);
        assert!(!p.is_heterogeneous());
        assert!(p.core_speeds().iter().all(|&s| s == 1.0));
        assert!((p.speed_capacity() - 32.0).abs() < 1e-12);
    }

    #[test]
    fn layout_walk_yields_class_of_every_core() {
        let sockets = Platform::new("4x64", 4, 64, FrequencySet::xeon_e5_2667(), 10e-6);
        for p in [
            Platform::quad_core(),
            Platform::big_little(),
            sockets.socket_view(2),
            sockets,
        ] {
            let walked: Vec<&CoreClass> = p.core_classes().collect();
            assert_eq!(walked.len(), p.total_cores(), "{}", p.name);
            for (k, class) in walked.into_iter().enumerate() {
                assert!(std::ptr::eq(class, p.class_of(k)), "{} core {k}", p.name);
            }
        }
    }

    #[test]
    fn fmax_fmin() {
        let p = Platform::quad_core();
        assert!((p.fmax().ghz() - 3.6).abs() < 1e-12);
        assert!((p.fmin().ghz() - 2.9).abs() < 1e-12);
    }

    #[test]
    fn socket_topology_accessors() {
        let p = Platform::xeon_e5_2667_quad();
        let shard = p.socket_view(2);
        assert_eq!(shard.sockets, 1);
        assert_eq!(shard.total_cores(), 8);
        assert_eq!(shard.freqs(), p.freqs());
        assert!((shard.dvfs_transition_secs - p.dvfs_transition_secs).abs() < 1e-18);
    }

    #[test]
    fn socket_view_labels_its_socket() {
        let p = Platform::xeon_e5_2667_quad();
        assert_eq!(p.socket_view(0).name, "4x Intel Xeon E5-2667 (socket 0)");
        assert_eq!(p.socket_view(3).name, "4x Intel Xeon E5-2667 (socket 3)");
        assert_ne!(p.socket_view(0).name, p.socket_view(1).name);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn socket_view_out_of_range_rejected() {
        Platform::quad_core().socket_view(1);
    }

    #[test]
    fn big_little_geometry_and_classes() {
        let p = Platform::big_little();
        assert_eq!(p.sockets, 2);
        assert_eq!(p.classes().len(), 2);
        assert_eq!(p.cores_per_socket(), 8);
        assert_eq!(p.total_cores(), 16);
        assert!(p.is_heterogeneous());
        // Socket-major, class-major numbering: cores 0..4 big, 4..8
        // LITTLE, 8..12 big (socket 1), 12..16 LITTLE.
        assert_eq!(p.class_of(0).name, "big");
        assert_eq!(p.class_of(3).name, "big");
        assert_eq!(p.class_of(4).name, "LITTLE");
        assert_eq!(p.class_of(7).name, "LITTLE");
        assert_eq!(p.class_of(8).name, "big");
        assert_eq!(p.class_of(15).name, "LITTLE");
        // Speeds and capacity: 8×1.0 + 8×0.45 = 11.6 reference cores.
        let speeds = p.core_speeds();
        assert_eq!(speeds.len(), 16);
        assert!((speeds[0] - 1.0).abs() < 1e-12);
        assert!((speeds[4] - 0.45).abs() < 1e-12);
        assert!((p.speed_capacity() - 11.6).abs() < 1e-9);
        // Each class runs its own ladder; fmax/fmin span the classes.
        assert!((p.class_of(0).fmax().ghz() - 2.0).abs() < 1e-12);
        assert!((p.class_of(4).fmax().ghz() - 1.4).abs() < 1e-12);
        assert!((p.fmax().ghz() - 2.0).abs() < 1e-12);
        assert!((p.fmin().ghz() - 0.6).abs() < 1e-12);
        // LITTLE cores carry their own power model.
        assert!(p.class_of(4).power().is_some());
        let fmins = p.core_fmins();
        assert_eq!(fmins[0], p.class_of(0).fmin());
        assert_eq!(fmins[4], p.class_of(4).fmin());
    }

    #[test]
    fn socket_view_preserves_heterogeneity() {
        let p = Platform::big_little();
        let shard = p.socket_view(1);
        assert_eq!(shard.name, "big.LITTLE MPSoC (socket 1)");
        assert_eq!(shard.total_cores(), 8);
        assert!(shard.is_heterogeneous());
        assert!((shard.speed_capacity() - 5.8).abs() < 1e-9);
        assert_eq!(shard.class_of(0).name, "big");
        assert_eq!(shard.class_of(4).name, "LITTLE");
    }

    #[test]
    #[should_panic(expected = "socket")]
    fn zero_sockets_rejected() {
        Platform::new("bad", 0, 8, FrequencySet::xeon_e5_2667(), 0.0);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_latency_rejected() {
        Platform::new("bad", 1, 1, FrequencySet::xeon_e5_2667(), -1.0);
    }

    #[test]
    #[should_panic(expected = "speed factor")]
    fn non_positive_speed_rejected() {
        CoreClass::new("bad", 1, FrequencySet::xeon_e5_2667(), 0.0);
    }

    #[test]
    #[should_panic(expected = "core class")]
    fn empty_class_list_rejected() {
        Platform::with_classes("bad", 1, vec![], 0.0);
    }
}
