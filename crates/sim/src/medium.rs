//! The shared-medium network segment (hub/backplane) model.
//!
//! The deployed clusters used repeater hubs: one collision domain per
//! network, so at any instant at most one frame is on the wire. The model
//! is a FIFO server: a frame submitted at `t` starts transmitting when the
//! medium frees up, occupies it for its serialization time
//! (`bytes × 8 / bandwidth`), and arrives `propagation` later. This is
//! what makes probe traffic *cost* bandwidth — the heart of the paper's
//! Figure 1 trade-off.
//!
//! A failed hub (backplane failure, the paper's shared-component fault)
//! silently discards everything submitted to or in flight on it. The
//! segment keeps no liveness of its own: the core's per-segment `hub_up`
//! flag, which the run loop sets from the component schedule, is passed to
//! admission and read again when a frame in flight arrives.

use drs_core::{NetId, SimDuration, SimTime};

/// Traffic class, for overhead accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// ICMP echo probes (the DRS monitoring overhead).
    Probe,
    /// Routing-daemon control messages.
    Control,
    /// Application data and acknowledgements.
    Data,
}

/// Cumulative per-segment statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediumStats {
    /// Frames successfully admitted.
    pub frames: u64,
    /// Total admitted wire bytes.
    pub bytes: u64,
    /// Admitted wire bytes that were ICMP probes.
    pub probe_bytes: u64,
    /// Admitted wire bytes that were control messages.
    pub control_bytes: u64,
    /// Admitted wire bytes that were application data.
    pub data_bytes: u64,
    /// Total time the medium spent transmitting.
    pub busy: SimDuration,
    /// Frames discarded because the hub was down.
    pub dropped_hub_down: u64,
    /// Worst queueing delay any frame experienced before transmission.
    pub max_queue_delay: SimDuration,
}

/// One shared-medium segment.
#[derive(Debug, Clone)]
pub struct SharedMedium {
    net: NetId,
    bandwidth_bps: u64,
    propagation: SimDuration,
    busy_until: SimTime,
    /// The last admitted frame's wire size and serialization time: nearly
    /// every frame is a 74 B probe, so admission divides once per size
    /// change, not once per frame. `(0, 0)` at first, which is exact.
    last_ser: (u32, SimDuration),
    /// Cumulative statistics (reset-free; experiments snapshot and diff).
    pub stats: MediumStats,
}

impl SharedMedium {
    /// A healthy segment with the given data rate and propagation delay.
    ///
    /// # Panics
    /// Panics if `bandwidth_bps` is zero.
    #[must_use]
    pub fn new(net: NetId, bandwidth_bps: u64, propagation: SimDuration) -> Self {
        assert!(bandwidth_bps > 0, "bandwidth must be positive");
        SharedMedium {
            net,
            bandwidth_bps,
            propagation,
            busy_until: SimTime::ZERO,
            last_ser: (0, SimDuration::ZERO),
            stats: MediumStats::default(),
        }
    }

    /// Which network this segment carries.
    #[must_use]
    pub fn net(&self) -> NetId {
        self.net
    }

    /// Serialization time of `wire_bytes` at this segment's data rate.
    #[must_use]
    pub fn serialization(&self, wire_bytes: u32) -> SimDuration {
        // bytes * 8 bits * 1e9 ns/s / bps, in integer ns (rounded up so a
        // frame never serializes in zero time).
        let ns = (wire_bytes as u128 * 8 * 1_000_000_000).div_ceil(self.bandwidth_bps as u128);
        SimDuration(ns as u64)
    }

    /// Admits a frame for transmission at `now` onto a hub that is up at
    /// that instant or not (`hub_up`).
    ///
    /// Returns the arrival instant at the receivers, or `None` if the hub
    /// is down (the frame is lost, not queued, and counted in
    /// [`MediumStats::dropped_hub_down`]).
    pub fn admit(
        &mut self,
        now: SimTime,
        wire_bytes: u32,
        class: TrafficClass,
        hub_up: bool,
    ) -> Option<SimTime> {
        if !hub_up {
            self.stats.dropped_hub_down += 1;
            return None;
        }
        let tx_start = self.busy_until.max(now);
        let queue_delay = tx_start - now;
        if wire_bytes != self.last_ser.0 {
            self.last_ser = (wire_bytes, self.serialization(wire_bytes));
        }
        let ser = self.last_ser.1;
        self.busy_until = tx_start + ser;

        self.stats.frames += 1;
        self.stats.bytes += wire_bytes as u64;
        match class {
            TrafficClass::Probe => self.stats.probe_bytes += wire_bytes as u64,
            TrafficClass::Control => self.stats.control_bytes += wire_bytes as u64,
            TrafficClass::Data => self.stats.data_bytes += wire_bytes as u64,
        }
        self.stats.busy = self.stats.busy + ser;
        if queue_delay > self.stats.max_queue_delay {
            self.stats.max_queue_delay = queue_delay;
        }
        Some(self.busy_until + self.propagation)
    }

    /// Fraction of the interval `[from, to]` the medium spent transmitting,
    /// given a stats snapshot taken at `from`.
    ///
    /// # Panics
    /// Panics if `to <= from`.
    #[must_use]
    pub fn utilization_since(&self, snapshot: &MediumStats, from: SimTime, to: SimTime) -> f64 {
        assert!(to > from, "empty utilization window");
        let busy = self.stats.busy - snapshot.busy;
        busy.as_nanos() as f64 / (to - from).as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn medium() -> SharedMedium {
        // 100 Mb/s, 5 µs propagation: the paper's network.
        SharedMedium::new(NetId::A, 100_000_000, SimDuration::from_micros(5))
    }

    #[test]
    fn serialization_delay_is_exact() {
        let m = medium();
        // 74 bytes at 100 Mb/s = 5.92 µs.
        assert_eq!(m.serialization(74), SimDuration::from_nanos(5_920));
        // 1250 bytes = 100 µs.
        assert_eq!(m.serialization(1250), SimDuration::from_micros(100));
    }

    #[test]
    fn uncontended_frame_arrives_after_ser_plus_prop() {
        let mut m = medium();
        let arrive = m
            .admit(SimTime::ZERO, 1250, TrafficClass::Data, true)
            .unwrap();
        assert_eq!(arrive, SimTime(100_000 + 5_000));
    }

    #[test]
    fn contention_serializes_frames_fifo() {
        let mut m = medium();
        let a = m
            .admit(SimTime::ZERO, 1250, TrafficClass::Data, true)
            .unwrap();
        // Second frame submitted at the same instant queues behind the first.
        let b = m
            .admit(SimTime::ZERO, 1250, TrafficClass::Data, true)
            .unwrap();
        assert_eq!(b - a, SimDuration::from_micros(100));
        assert_eq!(m.stats.max_queue_delay, SimDuration::from_micros(100));
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut m = medium();
        let _ = m.admit(SimTime::ZERO, 1250, TrafficClass::Data, true);
        let later = SimTime(10_000_000); // long after the first frame
        let arrive = m.admit(later, 1250, TrafficClass::Data, true).unwrap();
        assert_eq!(arrive, later + SimDuration::from_micros(105));
    }

    #[test]
    fn down_hub_drops() {
        let mut m = medium();
        assert_eq!(m.admit(SimTime::ZERO, 74, TrafficClass::Probe, false), None);
        assert_eq!(m.stats.dropped_hub_down, 1);
        assert_eq!(m.stats.frames, 0);
        assert!(m
            .admit(SimTime::ZERO, 74, TrafficClass::Probe, true)
            .is_some());
    }

    #[test]
    fn class_accounting() {
        let mut m = medium();
        m.admit(SimTime::ZERO, 74, TrafficClass::Probe, true);
        m.admit(SimTime::ZERO, 96, TrafficClass::Control, true);
        m.admit(SimTime::ZERO, 1000, TrafficClass::Data, true);
        assert_eq!(m.stats.probe_bytes, 74);
        assert_eq!(m.stats.control_bytes, 96);
        assert_eq!(m.stats.data_bytes, 1000);
        assert_eq!(m.stats.bytes, 1170);
        assert_eq!(m.stats.frames, 3);
    }

    #[test]
    fn utilization_matches_offered_load() {
        let mut m = medium();
        let snap = m.stats;
        // Ten 1250-byte frames over 10 ms = 10 x 100 µs busy = 10 %.
        for i in 0..10u64 {
            m.admit(SimTime(i * 1_000_000), 1250, TrafficClass::Data, true);
        }
        let u = m.utilization_since(&snap, SimTime::ZERO, SimTime(10_000_000));
        assert!((u - 0.10).abs() < 1e-9, "{u}");
    }

    /// The memo of the last size answers what a fresh division would, on
    /// repeats, on size changes and on a zero-byte frame first.
    #[test]
    fn admission_serializes_every_size_as_the_division_does() {
        let mut m = SharedMedium::new(NetId::A, 3_000_000_007, SimDuration::ZERO);
        let mut busy = SimDuration::ZERO;
        for (i, bytes) in [0u32, 74, 74, 96, 74, 1, 1250, 0, 74]
            .into_iter()
            .enumerate()
        {
            let at = SimTime(i as u64 * 1_000_000);
            let arrive = m.admit(at, bytes, TrafficClass::Probe, true).unwrap();
            assert_eq!(arrive - at, m.serialization(bytes), "{bytes} B");
            busy = busy + m.serialization(bytes);
        }
        assert_eq!(m.stats.busy, busy);
    }

    #[test]
    fn minimum_one_nanosecond_serialization() {
        let m = SharedMedium::new(NetId::B, u64::MAX, SimDuration::ZERO);
        assert!(m.serialization(1) >= SimDuration::from_nanos(1));
    }
}
