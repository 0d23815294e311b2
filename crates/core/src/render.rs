//! Human-readable rendering of race reports against their program.
//!
//! A [`RaceReport`] speaks in program counters; a triager wants function
//! names and rarity. [`render_report`] joins the two, producing the text
//! the CLI's `run` command and the examples print.

use literace_detector::RaceReport;
use literace_sim::Program;

use crate::tables::Table;

/// Renders a race report as an aligned table, resolving program counters to
/// function names and classifying rarity with the report's own denominator.
///
/// # Examples
///
/// ```
/// use literace::pipeline::{run_literace, RunConfig};
/// use literace::render::render_report;
/// use literace::prelude::*;
///
/// let w = build(WorkloadId::LfList, Scale::Smoke);
/// let out = run_literace(&w.program, SamplerKind::Always, &RunConfig::seeded(1))?;
/// let text = render_report(&out.report, &w.program);
/// assert!(text.contains("hr_lflist_len"));
/// # Ok::<(), SimError>(())
/// ```
pub fn render_report(report: &RaceReport, program: &Program) -> String {
    if report.static_races.is_empty() {
        return "no data races detected\n".to_owned();
    }
    let mut t = Table::new(
        &format!(
            "{} static data races ({} dynamic occurrences)",
            report.static_count(),
            report.dynamic_races
        ),
        &["site A", "site B", "dynamic", "per million", "rarity", "example addr"],
    );
    let (rare, _) = report.split_by_rarity();
    let rare_keys: std::collections::HashSet<_> = rare.iter().map(|s| s.pcs).collect();
    for r in &report.static_races {
        let name = |pc: literace_sim::Pc| {
            format!(
                "{}+{}",
                program.function(pc.func()).name,
                pc.offset()
            )
        };
        let per_million = if report.non_stack_accesses == 0 {
            0.0
        } else {
            r.count as f64 * 1e6 / report.non_stack_accesses as f64
        };
        t.row(vec![
            name(r.pcs.0),
            name(r.pcs.1),
            r.count.to_string(),
            format!("{per_million:.2}"),
            if rare_keys.contains(&r.pcs) {
                "rare"
            } else {
                "frequent"
            }
            .to_owned(),
            r.example_addr.to_string(),
        ]);
    }
    t.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_literace, RunConfig};
    use crate::prelude::*;

    #[test]
    fn renders_sites_and_rarity() {
        let w = build(WorkloadId::Dryad, Scale::Smoke);
        let out = run_literace(&w.program, SamplerKind::Always, &RunConfig::seeded(1)).unwrap();
        let text = render_report(&out.report, &w.program);
        assert!(text.contains("static data races"), "{text}");
        assert!(text.contains("frequent"), "{text}");
        assert!(text.contains("hr_dryad"), "{text}");
        // Site offsets follow the `func+offset` convention used by the
        // disassembler, so reports and listings cross-reference.
        assert!(text.contains('+'), "{text}");
    }

    #[test]
    fn empty_report_is_a_clear_message() {
        let report = RaceReport::default();
        let w = build(WorkloadId::LfList, Scale::Smoke);
        assert_eq!(render_report(&report, &w.program), "no data races detected\n");
    }
}
