//! Coverage: what fraction of an address set a database can answer for,
//! at country and at city level (§5.1, §5.2.1).
//!
//! The tallies consume a pre-resolved [`ResolvedView`] column — never
//! the allocating `GeoDatabase::lookup` (enforced by lint RG009).

use crate::resolve::ResolvedView;
use routergeo_db::GeoDatabase;
use routergeo_geo::stats::ratio;
use routergeo_pool::Pool;
use std::net::Ipv4Addr;

/// Coverage of one database over one address set.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport {
    /// Database display name.
    pub database: String,
    /// Addresses queried.
    pub total: usize,
    /// Addresses with any record.
    pub with_record: usize,
    /// Addresses with a country.
    pub with_country: usize,
    /// Addresses with city-level resolution.
    pub with_city: usize,
}

impl CoverageReport {
    /// Country-level coverage fraction.
    pub fn country_coverage(&self) -> f64 {
        ratio(self.with_country, self.total)
    }

    /// City-level coverage fraction.
    pub fn city_coverage(&self) -> f64 {
        ratio(self.with_city, self.total)
    }
}

/// Measure coverage of `db` over `ips`. Thread count from the
/// environment ([`Pool::from_env`]).
pub fn coverage<D: GeoDatabase + Sync>(db: &D, ips: &[Ipv4Addr]) -> CoverageReport {
    coverage_with(db, ips, &Pool::from_env())
}

/// [`coverage`] on an explicit pool: the addresses are resolved once
/// into a single-database [`ResolvedView`] (sharded, merged in shard
/// order) and tallied from the column, so the report is identical at
/// every thread count.
pub fn coverage_with<D: GeoDatabase + Sync>(
    db: &D,
    ips: &[Ipv4Addr],
    pool: &Pool,
) -> CoverageReport {
    let view = ResolvedView::build_with(std::slice::from_ref(db), ips, pool);
    coverage_from_view(&view, 0)
}

/// Tally coverage of column `db` of a pre-built view — the shared-view
/// entry point the pipeline uses so every analysis reads the same
/// resolve-once answers.
pub fn coverage_from_view(view: &ResolvedView, db: usize) -> CoverageReport {
    let mut span = routergeo_obs::span!(
        "core.coverage",
        database = view.databases()[db],
        addresses = view.len()
    );
    routergeo_obs::counter("coverage.addresses").add(view.len() as u64);
    let mut report = CoverageReport {
        database: view.databases()[db].clone(),
        total: view.len(),
        with_record: 0,
        with_country: 0,
        with_city: 0,
    };
    for rec in view.column(db).iter().flatten().map(|&id| view.answer(id)) {
        report.with_record += 1;
        if rec.has_country() {
            report.with_country += 1;
        }
        if rec.has_city() {
            report.with_city += 1;
        }
    }
    routergeo_obs::counter("coverage.with_record").add(report.with_record as u64);
    span.attr("with_record", report.with_record);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use routergeo_db::inmem::InMemoryDbBuilder;
    use routergeo_db::{Granularity, LocationRecord};
    use routergeo_geo::Coordinate;

    #[test]
    fn counts_resolutions_separately() {
        let mut b = InMemoryDbBuilder::new("t");
        b.push_prefix(
            "6.0.0.0/24".parse().unwrap(),
            LocationRecord {
                country: Some("US".parse().unwrap()),
                region: None,
                city: Some("X".into()),
                coord: Some(Coordinate::new(1.0, 1.0).unwrap()),
                granularity: Granularity::Block24,
            },
        );
        b.push_prefix(
            "6.0.1.0/24".parse().unwrap(),
            LocationRecord::country_level("US".parse().unwrap(), Granularity::Aggregate),
        );
        let db = b.build().unwrap();
        let ips: Vec<Ipv4Addr> = vec![
            "6.0.0.1".parse().unwrap(),
            "6.0.1.1".parse().unwrap(),
            "9.9.9.9".parse().unwrap(),
        ];
        let rep = coverage(&db, &ips);
        assert_eq!(rep.total, 3);
        assert_eq!(rep.with_record, 2);
        assert_eq!(rep.with_country, 2);
        assert_eq!(rep.with_city, 1);
        assert!((rep.country_coverage() - 2.0 / 3.0).abs() < 1e-12);
        assert!((rep.city_coverage() - 1.0 / 3.0).abs() < 1e-12);

        // The shared-view entry point reports identically.
        let view = ResolvedView::build(std::slice::from_ref(&db), &ips);
        assert_eq!(coverage_from_view(&view, 0), rep);
    }

    #[test]
    fn empty_input() {
        let db = InMemoryDbBuilder::new("t").build().unwrap();
        let rep = coverage(&db, &[]);
        assert_eq!(rep.total, 0);
        assert_eq!(rep.country_coverage(), 0.0);
        assert_eq!(rep.city_coverage(), 0.0);
    }
}
