//! Table shaping shared by the figure binaries (the driver writes them:
//! [`crate::Cli::emit`]).

use skyloft_metrics::{Series, Table};

/// Renders a latency-vs-load figure as a table: one row per offered rate,
/// one column per series.
pub fn figure_table(
    x_label: &str,
    col: impl Fn(&skyloft_metrics::LoadPoint) -> f64,
    series: &[Series],
) -> Table {
    let mut header = vec![x_label.to_string()];
    header.extend(series.iter().map(|s| s.name.clone()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&header_refs);
    let n = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    for i in 0..n {
        let mut row = Vec::with_capacity(header.len());
        let x = series
            .iter()
            .find_map(|s| s.points.get(i).map(|p| p.offered_rps))
            .unwrap_or(0.0);
        row.push(format!("{:.0}", x / 1000.0));
        for s in series {
            match s.points.get(i) {
                Some(p) => row.push(format!("{:.1}", col(p))),
                None => row.push(String::new()),
            }
        }
        t.row_owned(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyloft_metrics::LoadPoint;

    #[test]
    fn figure_table_shapes() {
        let mut a = Series::new("A");
        a.push(LoadPoint {
            offered_rps: 1000.0,
            achieved_rps: 990.0,
            p50_us: 5.0,
            p99_us: 9.0,
            p999_us: 12.0,
            slowdown_p999: None,
            be_share: None,
        });
        let t = figure_table("kRPS", |p| p.p99_us, &[a]);
        let s = t.render();
        assert!(s.contains("kRPS"));
        assert!(s.contains("9.0"));
    }
}
