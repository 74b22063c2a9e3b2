//! Client-link transfer models.
//!
//! Tables 1–2 and Figure 22 of the paper report *client-perceived* home-page
//! response times measured over 28.8 kbps modems. At that speed the page
//! transfer dominates: the paper itself notes that "virtually all of the
//! delays ... were caused not by the Web site but by the client and the
//! client connection". We therefore model a link as
//!
//! ```text
//! response = setup + server_time + bytes * 8 / (bandwidth * efficiency / congestion)
//! ```
//!
//! scaled by a log-normal jitter factor: `setup` covers DNS + TCP handshake
//! round trips, `efficiency` the PPP/TCP/IP framing overhead of a modem
//! link, and `congestion ≥ 1` models path congestion *external to the site*
//! (the cause of the US slowdown on days 7–9 in Figure 22).

use crate::rng::{DeterministicRng, LogNormal};
use crate::time::SimDuration;

/// Canonical client link classes for the 1998 Internet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// 28.8 kbps dial-up modem — the measurement configuration in the paper.
    Modem28_8,
    /// 56 kbps dial-up modem.
    Modem56,
    /// 64 kbps ISDN.
    Isdn64,
    /// 1.544 Mbps T1 — "clients communicating via fast links" whose
    /// responses were "nearly instantaneous".
    T1,
    /// Local 10 Mbps LAN (used for server-side micro-measurements).
    Lan,
}

impl LinkClass {
    /// Nominal bandwidth in bits per second.
    pub fn bandwidth_bps(self) -> f64 {
        match self {
            LinkClass::Modem28_8 => 28_800.0,
            LinkClass::Modem56 => 56_000.0,
            LinkClass::Isdn64 => 64_000.0,
            LinkClass::T1 => 1_544_000.0,
            LinkClass::Lan => 10_000_000.0,
        }
    }

    /// Typical one-way latency for the link technology.
    pub fn base_latency(self) -> SimDuration {
        match self {
            LinkClass::Modem28_8 | LinkClass::Modem56 => SimDuration::from_millis(150),
            LinkClass::Isdn64 => SimDuration::from_millis(60),
            LinkClass::T1 => SimDuration::from_millis(25),
            LinkClass::Lan => SimDuration::from_millis(1),
        }
    }

    /// Fraction of nominal bandwidth available to payload after PPP/TCP/IP
    /// framing, ACK traffic, and modem compression/retrain effects.
    pub fn efficiency(self) -> f64 {
        match self {
            LinkClass::Modem28_8 | LinkClass::Modem56 => 0.82,
            LinkClass::Isdn64 => 0.88,
            LinkClass::T1 => 0.92,
            LinkClass::Lan => 0.95,
        }
    }
}

/// A parameterised link between a client and a web site.
#[derive(Debug, Clone)]
pub struct LinkModel {
    class: LinkClass,
    /// Number of network round trips before the first payload byte
    /// (DNS + TCP handshake + HTTP request). HTTP/1.0-era browsers paid
    /// this per connection.
    setup_rtts: f64,
    /// Path congestion multiplier (>= 1.0). 1.0 = uncongested.
    congestion: f64,
    /// Log-space sigma of the per-transfer jitter factor.
    jitter_sigma: f64,
}

/// Deterministic summary of one modelled transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferEstimate {
    /// Total client-perceived response time in seconds.
    pub response_secs: f64,
    /// Effective transmit rate in kilobits/second, computed the way the
    /// paper's tables do: payload bits / total response time.
    pub transmit_kbps: f64,
}

impl LinkModel {
    /// New link of the given class with default setup cost and no
    /// congestion.
    pub fn new(class: LinkClass) -> Self {
        LinkModel {
            class,
            setup_rtts: 3.0,
            congestion: 1.0,
            jitter_sigma: 0.08,
        }
    }

    /// The link class.
    pub fn class(&self) -> LinkClass {
        self.class
    }

    /// Set the congestion multiplier (>= 1).
    pub fn with_congestion(mut self, c: f64) -> Self {
        assert!(c >= 1.0, "congestion factor must be >= 1");
        self.congestion = c;
        self
    }

    /// Set the jitter sigma (0 disables jitter).
    pub fn with_jitter(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0);
        self.jitter_sigma = sigma;
        self
    }

    /// Current congestion multiplier.
    pub fn congestion(&self) -> f64 {
        self.congestion
    }

    /// Deterministic (no-jitter) transfer estimate for `bytes` of payload,
    /// given `server_time` spent at the site before the first byte.
    pub fn estimate(&self, bytes: u64, server_time: SimDuration) -> TransferEstimate {
        let rtt = self.class.base_latency().as_secs_f64() * 2.0 * self.congestion;
        let setup = self.setup_rtts * rtt;
        let goodput = self.class.bandwidth_bps() * self.class.efficiency() / self.congestion;
        let transfer = bytes as f64 * 8.0 / goodput;
        let response = setup + server_time.as_secs_f64() + transfer;
        TransferEstimate {
            response_secs: response,
            transmit_kbps: bytes as f64 * 8.0 / response / 1_000.0,
        }
    }

    /// Sample a jittered transfer.
    pub fn sample(
        &self,
        bytes: u64,
        server_time: SimDuration,
        rng: &mut DeterministicRng,
    ) -> TransferEstimate {
        let base = self.estimate(bytes, server_time);
        if self.jitter_sigma == 0.0 {
            return base;
        }
        let jitter = LogNormal::new(0.0, self.jitter_sigma).sample(rng);
        let response = base.response_secs * jitter;
        TransferEstimate {
            response_secs: response,
            transmit_kbps: bytes as f64 * 8.0 / response / 1_000.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modem_home_page_in_paper_ballpark() {
        // The Olympics home page with inline images was ~55 KB; the paper
        // reports ~16-18 s responses at ~23-26 kbps over 28.8 kbps modems.
        let link = LinkModel::new(LinkClass::Modem28_8);
        let est = link.estimate(55_000, SimDuration::from_millis(30));
        assert!(
            (14.0..25.0).contains(&est.response_secs),
            "response {}",
            est.response_secs
        );
        assert!(
            (17.0..27.0).contains(&est.transmit_kbps),
            "rate {}",
            est.transmit_kbps
        );
    }

    #[test]
    fn congestion_slows_and_lowers_rate() {
        let clean = LinkModel::new(LinkClass::Modem28_8);
        let congested = LinkModel::new(LinkClass::Modem28_8).with_congestion(1.5);
        let a = clean.estimate(50_000, SimDuration::ZERO);
        let b = congested.estimate(50_000, SimDuration::ZERO);
        assert!(b.response_secs > a.response_secs * 1.3);
        assert!(b.transmit_kbps < a.transmit_kbps);
    }

    #[test]
    fn fast_links_are_nearly_instantaneous() {
        // §5: "For clients communicating with the Internet via fast links,
        // response times were nearly instantaneous."
        let t1 = LinkModel::new(LinkClass::T1);
        let est = t1.estimate(55_000, SimDuration::from_millis(30));
        assert!(est.response_secs < 1.0, "response {}", est.response_secs);
    }

    #[test]
    fn server_time_adds_linearly() {
        let link = LinkModel::new(LinkClass::Modem28_8);
        let fast = link.estimate(10_000, SimDuration::from_millis(5));
        let slow = link.estimate(10_000, SimDuration::from_secs(2));
        let diff = slow.response_secs - fast.response_secs;
        assert!((diff - 1.995).abs() < 1e-9);
    }

    #[test]
    fn jitter_centers_on_estimate() {
        let link = LinkModel::new(LinkClass::Modem28_8).with_jitter(0.1);
        let mut rng = DeterministicRng::seed_from_u64(9);
        let det = link.estimate(50_000, SimDuration::ZERO).response_secs;
        let n = 5_000;
        let mean: f64 = (0..n)
            .map(|_| {
                link.sample(50_000, SimDuration::ZERO, &mut rng)
                    .response_secs
            })
            .sum::<f64>()
            / n as f64;
        // Log-normal mean is det * exp(sigma^2/2) ~ det * 1.005.
        assert!((mean / det - 1.0).abs() < 0.03, "ratio {}", mean / det);
    }

    #[test]
    fn zero_jitter_sampling_is_deterministic() {
        let link = LinkModel::new(LinkClass::Lan).with_jitter(0.0);
        let mut rng = DeterministicRng::seed_from_u64(1);
        let a = link.sample(1_000, SimDuration::ZERO, &mut rng);
        let b = link.estimate(1_000, SimDuration::ZERO);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "congestion factor")]
    fn rejects_sub_unity_congestion() {
        let _ = LinkModel::new(LinkClass::T1).with_congestion(0.5);
    }
}
