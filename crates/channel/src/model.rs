//! Channel ensembles and the AWGN uplink model.

use flexcore_numeric::rng::CxRng;
use flexcore_numeric::{CMat, Cx};
use rand::Rng;

/// Converts a per-stream SNR in dB (`Es/σ²`, `Es = 1`) to the complex noise
/// variance `σ²`.
pub fn sigma2_from_snr_db(snr_db: f64) -> f64 {
    10f64.powf(-snr_db / 10.0)
}

/// Parameters of a randomly drawn MIMO uplink ensemble.
///
/// Each draw produces an `Nr × Nt` channel whose entries are unit-variance
/// i.i.d. complex Gaussians (Rayleigh magnitudes), with a bounded per-user
/// gain spread.
#[derive(Clone, Debug)]
pub struct ChannelEnsemble {
    /// Number of AP (receive) antennas.
    pub nr: usize,
    /// Number of single-antenna users (transmit streams).
    pub nt: usize,
    /// Maximum per-user SNR spread in dB. The paper's scheduler keeps the
    /// individual SNRs of scheduled users within 3 dB of each other (§5.1),
    /// which bounds the channel's condition number.
    pub user_snr_spread_db: f64,
}

impl ChannelEnsemble {
    /// An i.i.d. Rayleigh ensemble with the paper's 3 dB user spread.
    pub fn iid(nr: usize, nt: usize) -> Self {
        ChannelEnsemble {
            nr,
            nt,
            user_snr_spread_db: 3.0,
        }
    }

    /// Draws one channel matrix.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> CMat {
        assert!(self.nr >= self.nt, "uplink requires Nr >= Nt");
        let mut h = CMat::from_fn(self.nr, self.nt, |_, _| rng.cx_normal(1.0));
        // Per-user gain spread: users are scheduled so their SNRs differ by
        // at most `user_snr_spread_db`; realise that as a per-column gain
        // drawn uniformly in dB across the allowed window.
        if self.user_snr_spread_db > 0.0 {
            for c in 0..self.nt {
                let gain_db =
                    rng.gen_range(-self.user_snr_spread_db / 2.0..=self.user_snr_spread_db / 2.0);
                let g = 10f64.powf(gain_db / 20.0);
                for r in 0..self.nr {
                    h[(r, c)] = h[(r, c)].scale(g);
                }
            }
        }
        h
    }

    /// Draws `n` channels (a synthetic "trace campaign").
    pub fn draw_many<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<CMat> {
        (0..n).map(|_| self.draw(rng)).collect()
    }
}

/// One concrete channel use: `y = H·s + n` with `n ~ CN(0, σ²·I)`.
#[derive(Clone, Debug)]
pub struct MimoChannel {
    /// Channel matrix (`Nr × Nt`).
    pub h: CMat,
    /// Complex noise variance per receive antenna.
    pub sigma2: f64,
}

impl MimoChannel {
    /// Creates a channel use at the given per-stream SNR.
    pub fn new(h: CMat, snr_db: f64) -> Self {
        MimoChannel {
            h,
            sigma2: sigma2_from_snr_db(snr_db),
        }
    }

    /// Number of transmit streams.
    pub fn nt(&self) -> usize {
        self.h.cols()
    }

    /// Passes a symbol vector through the channel, adding fresh AWGN.
    pub fn transmit<R: Rng + ?Sized>(&self, s: &[Cx], rng: &mut R) -> Vec<Cx> {
        assert_eq!(s.len(), self.nt(), "transmit: symbol count != Nt");
        let mut y = self.h.mul_vec(s);
        for v in &mut y {
            *v += rng.cx_normal(self.sigma2);
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn snr_sigma_roundtrip() {
        for snr in [-3.0, 0.0, 13.5, 21.6, 40.0] {
            let s2 = sigma2_from_snr_db(snr);
            assert!((-10.0 * s2.log10() - snr).abs() < 1e-12);
        }
        assert!((sigma2_from_snr_db(0.0) - 1.0).abs() < 1e-15);
        assert!((sigma2_from_snr_db(10.0) - 0.1).abs() < 1e-15);
    }

    #[test]
    fn iid_entries_unit_variance() {
        let ens = ChannelEnsemble {
            user_snr_spread_db: 0.0,
            ..ChannelEnsemble::iid(8, 8)
        };
        let mut rng = StdRng::seed_from_u64(1);
        let mut acc = 0.0;
        let n = 300;
        for _ in 0..n {
            let h = ens.draw(&mut rng);
            acc += (0..8)
                .flat_map(|r| h.row(r))
                .map(|z| z.norm_sqr())
                .sum::<f64>()
                / 64.0;
        }
        let var = acc / n as f64;
        assert!((var - 1.0).abs() < 0.05, "mean entry variance {var}");
    }

    #[test]
    fn snr_spread_bounds_column_gains() {
        let ens = ChannelEnsemble::iid(12, 12);
        let mut rng = StdRng::seed_from_u64(2);
        // Column energy ratio across many draws stays within the 3 dB window
        // on average (each column's expected energy is scaled by at most
        // ±1.5 dB).
        let n = 400;
        let mut emin: f64 = f64::INFINITY;
        let mut emax: f64 = 0.0;
        let mut sums = vec![0.0f64; 12];
        for _ in 0..n {
            let h = ens.draw(&mut rng);
            for (c, sum) in sums.iter_mut().enumerate() {
                *sum += (0..12).map(|r| h[(r, c)].norm_sqr()).sum::<f64>() / 12.0;
            }
        }
        for s in &sums {
            let e = s / n as f64;
            emin = emin.min(e);
            emax = emax.max(e);
        }
        // All columns share the same distribution → long-run energies close.
        let ratio_db = 10.0 * (emax / emin).log10();
        assert!(ratio_db < 1.5, "per-user long-run spread {ratio_db} dB");
    }

    #[test]
    fn transmit_adds_noise_of_right_power() {
        let mut rng = StdRng::seed_from_u64(5);
        let h = CMat::from_fn(4, 4, |r, c| if r == c { Cx::real(1.0) } else { Cx::ZERO });
        let ch = MimoChannel::new(h, 10.0); // σ² = 0.1
        let s = vec![Cx::real(1.0); 4];
        let n = 4000;
        let mut p = 0.0;
        for _ in 0..n {
            let y = ch.transmit(&s, &mut rng);
            p += y
                .iter()
                .map(|&v| (v - Cx::real(1.0)).norm_sqr())
                .sum::<f64>()
                / 4.0;
        }
        let measured = p / n as f64;
        assert!((measured - 0.1).abs() < 0.01, "noise power {measured}");
    }

    #[test]
    #[should_panic(expected = "Nr >= Nt")]
    fn rejects_overloaded_uplink() {
        let mut rng = StdRng::seed_from_u64(7);
        let _ = ChannelEnsemble::iid(4, 8).draw(&mut rng);
    }
}
