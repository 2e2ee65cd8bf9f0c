//! The Hata empirical propagation model (Hata 1980 — the paper's ref \[7\]).
//!
//! The paper's introduction cites Hata's urban formula as the established
//! tool for cellular planning and argues it does not transfer to sensor
//! networks on natural terrain; we implement it as the contrast baseline
//! for the link-budget examples.

/// Environment class of the Hata model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HataEnvironment {
    /// Small/medium city (the base formula).
    Urban,
    /// Suburban correction.
    Suburban,
    /// Open/rural correction.
    Open,
}

/// Median path loss (dB) by Hata's formulas.
///
/// * `f_mhz` — carrier frequency, valid 150–1500 MHz;
/// * `hb_m` — base-station antenna height, 30–200 m;
/// * `hm_m` — mobile antenna height, 1–10 m;
/// * `d_km` — distance, 1–20 km.
///
/// # Panics
/// Panics outside the model's published validity ranges.
pub fn hata_loss_db(env: HataEnvironment, f_mhz: f64, hb_m: f64, hm_m: f64, d_km: f64) -> f64 {
    assert!((150.0..=1500.0).contains(&f_mhz), "Hata valid for 150-1500 MHz, got {f_mhz}");
    assert!((30.0..=200.0).contains(&hb_m), "Hata valid for hb 30-200 m, got {hb_m}");
    assert!((1.0..=10.0).contains(&hm_m), "Hata valid for hm 1-10 m, got {hm_m}");
    assert!((1.0..=20.0).contains(&d_km), "Hata valid for 1-20 km, got {d_km}");
    let lf = f_mhz.log10();
    // Mobile-antenna correction for a small/medium city.
    let a_hm = (1.1 * lf - 0.7) * hm_m - (1.56 * lf - 0.8);
    let urban = 69.55 + 26.16 * lf - 13.82 * hb_m.log10() - a_hm
        + (44.9 - 6.55 * hb_m.log10()) * d_km.log10();
    match env {
        HataEnvironment::Urban => urban,
        HataEnvironment::Suburban => {
            urban - 2.0 * (f_mhz / 28.0).log10().powi(2) - 5.4
        }
        HataEnvironment::Open => {
            urban - 4.78 * lf * lf + 18.33 * lf - 40.94
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn urban_reference_value() {
        // Classic worked example: f=900 MHz, hb=30 m, hm=1.5 m, d=1 km.
        let l = hata_loss_db(HataEnvironment::Urban, 900.0, 30.0, 1.5, 1.0);
        // Published value ≈ 126.4 dB.
        assert!((l - 126.4).abs() < 1.0, "L = {l}");
    }

    #[test]
    fn environment_ordering() {
        // Urban > suburban > open, always.
        let args = (900.0, 50.0, 1.5, 5.0);
        let u = hata_loss_db(HataEnvironment::Urban, args.0, args.1, args.2, args.3);
        let s = hata_loss_db(HataEnvironment::Suburban, args.0, args.1, args.2, args.3);
        let o = hata_loss_db(HataEnvironment::Open, args.0, args.1, args.2, args.3);
        assert!(u > s && s > o, "u={u} s={s} o={o}");
    }

    #[test]
    fn loss_grows_with_distance_and_frequency() {
        let near = hata_loss_db(HataEnvironment::Urban, 900.0, 30.0, 1.5, 2.0);
        let far = hata_loss_db(HataEnvironment::Urban, 900.0, 30.0, 1.5, 10.0);
        assert!(far > near);
        let lo_f = hata_loss_db(HataEnvironment::Urban, 450.0, 30.0, 1.5, 5.0);
        let hi_f = hata_loss_db(HataEnvironment::Urban, 1400.0, 30.0, 1.5, 5.0);
        assert!(hi_f > lo_f);
    }

    #[test]
    fn taller_base_station_reduces_loss() {
        let low = hata_loss_db(HataEnvironment::Urban, 900.0, 30.0, 1.5, 5.0);
        let high = hata_loss_db(HataEnvironment::Urban, 900.0, 150.0, 1.5, 5.0);
        assert!(high < low);
    }

    #[test]
    #[should_panic(expected = "150-1500 MHz")]
    fn out_of_band_rejected() {
        hata_loss_db(HataEnvironment::Urban, 2400.0, 30.0, 1.5, 5.0);
    }

    #[test]
    #[should_panic(expected = "1-20 km")]
    fn out_of_range_distance_rejected() {
        hata_loss_db(HataEnvironment::Urban, 900.0, 30.0, 1.5, 0.1);
    }
}
