//! Terminal scatter plots for the Pareto figures (Figures 8, 11, 13);
//! front extraction is [`scar_core::pareto_front`].

use scar_core::CandidatePoint;

/// Renders labeled candidate clouds as an ASCII scatter (latency on x,
/// energy on y, log-ish binning), one marker per series.
pub fn ascii_scatter(series: &[(&str, &[CandidatePoint])], width: usize, height: usize) -> String {
    let all: Vec<&CandidatePoint> = series.iter().flat_map(|(_, pts)| pts.iter()).collect();
    if all.is_empty() {
        return String::from("(no candidates)\n");
    }
    let (mut lmin, mut lmax, mut emin, mut emax) = (
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::INFINITY,
        f64::NEG_INFINITY,
    );
    for p in &all {
        lmin = lmin.min(p.latency_s);
        lmax = lmax.max(p.latency_s);
        emin = emin.min(p.energy_j);
        emax = emax.max(p.energy_j);
    }
    let lspan = (lmax - lmin).max(1e-12);
    let espan = (emax - emin).max(1e-12);
    let markers = ['*', 'o', '+', 'x', '#', '@', '%', '&'];
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, pts)) in series.iter().enumerate() {
        let m = markers[si % markers.len()];
        for p in pts.iter() {
            let x = (((p.latency_s - lmin) / lspan) * (width - 1) as f64).round() as usize;
            let y = (((p.energy_j - emin) / espan) * (height - 1) as f64).round() as usize;
            let row = height - 1 - y.min(height - 1);
            grid[row][x.min(width - 1)] = m;
        }
    }
    let mut out = format!(
        "energy [{:.3e} .. {:.3e} J] vs latency [{:.3e} .. {:.3e} s]\n",
        emin, emax, lmin, lmax
    );
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    for (si, (name, _)) in series.iter().enumerate() {
        out.push_str(&format!("  {} {}\n", markers[si % markers.len()], name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(l: f64, e: f64) -> CandidatePoint {
        CandidatePoint {
            latency_s: l,
            energy_j: e,
        }
    }

    #[test]
    fn scatter_renders_marker_legend() {
        let pts = vec![p(1.0, 1.0), p(2.0, 0.5)];
        let s = ascii_scatter(&[("demo", &pts)], 20, 6);
        assert!(s.contains("demo"));
        assert!(s.contains('*'));
    }

    #[test]
    fn scatter_handles_empty() {
        assert_eq!(ascii_scatter(&[], 10, 4), "(no candidates)\n");
    }
}
