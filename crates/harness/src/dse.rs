//! The `dse` subcommand's experiment: a million-point (or `--quick`
//! 16 200-point) design-space sweep over the analytical model, run through
//! the same executor/cache/journal machinery as the paper experiments.
//!
//! Each point is one fixed-size batch of configurations
//! ([`sparten_model::dse::BATCH_SIZE`]); its payload is a byte-stable
//! record of per-architecture partial aggregates, so the content-addressed
//! cache makes re-runs incremental and the write-ahead journal makes an
//! interrupted sweep resumable — exactly like any other experiment.
//! Rendering merges every batch, extracts the throughput/energy Pareto
//! frontier, and writes `results/dse/` artifacts.

use sparten_bench::json::Json;
use sparten_bench::{Capture, ExperimentKind};
use sparten_model::dse::{
    merge_records, objective_points, pareto_frontier, DseAxes, DseGrid, DsePoint,
};

use crate::{Experiment, PointPayload};

/// The design-space-exploration sweep as a schedulable experiment.
pub struct DseExperiment {
    grid: DseGrid,
    name: &'static str,
}

impl DseExperiment {
    /// The `--quick` sweep (16 200 configurations, CI-sized).
    pub fn quick() -> Self {
        DseExperiment {
            grid: DseGrid::new(DseAxes::quick()),
            name: "dse-quick",
        }
    }

    /// The full sweep (1 080 000 configurations).
    pub fn full() -> Self {
        DseExperiment {
            grid: DseGrid::new(DseAxes::full()),
            name: "dse-full",
        }
    }

    /// Total configurations in the sweep.
    pub fn num_configs(&self) -> usize {
        self.grid.axes.num_configs()
    }
}

impl Experiment for DseExperiment {
    fn name(&self) -> &'static str {
        self.name
    }

    fn kind(&self) -> ExperimentKind {
        ExperimentKind::Sweep
    }

    fn deps(&self) -> &'static [&'static str] {
        &[]
    }

    fn num_points(&self) -> usize {
        self.grid.num_batches()
    }

    fn fingerprint(&self) -> String {
        self.grid.axes.fingerprint()
    }

    fn compute_point(&self, point: usize) -> PointPayload {
        PointPayload::Record(self.grid.batch_record(point))
    }

    fn validate(&self, point: usize, payload: &PointPayload) -> bool {
        match payload {
            PointPayload::Record(blob) => self.grid.check_record(point, blob).is_ok(),
            PointPayload::Capture(_) => false,
        }
    }

    fn render(&self, points: &[PointPayload]) -> Capture {
        let records: Vec<String> = points
            .iter()
            .map(|p| match p {
                PointPayload::Record(blob) => blob.clone(),
                PointPayload::Capture(_) => unreachable!("dse points are records"),
            })
            .collect();
        let merged = merge_records(&records).expect("validated records parse");
        let points = objective_points(&merged);
        let frontier = pareto_frontier(&points);
        let total = self.num_configs();

        let mut text = format!(
            "== Design-space exploration ({}) ==\n\n\
             {} configurations, {} architecture points, {} on the Pareto frontier\n\n",
            self.name,
            total,
            points.len(),
            frontier.len()
        );
        text.push_str(&format!(
            "{:<56} {:>12} {:>12} {:>9}\n",
            "architecture", "MACs/cycle", "pJ/MAC", "membound"
        ));
        for p in &frontier {
            text.push_str(&format!(
                "{:<56} {:>12.4} {:>12.3} {:>8.0}%\n",
                p.key,
                p.throughput,
                p.energy_per_mac_pj,
                100.0 * p.mem_bound as f64 / p.n.max(1) as f64
            ));
        }

        let artifacts = vec![
            (
                format!("results/dse/{}_frontier.json", self.name),
                sparten_model::dse::frontier_json(&frontier, total),
            ),
            (
                format!("results/dse/{}_points.json", self.name),
                points_json(&points, total),
            ),
        ];
        Capture { text, artifacts }
    }
}

/// All architecture points (not just the frontier) as a JSON artifact,
/// rendered with the in-repo writer.
fn points_json(points: &[DsePoint], total_configs: usize) -> String {
    let rows: Vec<Json> = points
        .iter()
        .map(|p| {
            Json::Obj(vec![
                ("key".into(), Json::Str(p.key.clone())),
                ("throughput_macs_per_cycle".into(), Json::Float(p.throughput)),
                ("energy_per_mac_pj".into(), Json::Float(p.energy_per_mac_pj)),
                ("configs".into(), Json::UInt(p.n)),
                ("mem_bound".into(), Json::UInt(p.mem_bound)),
            ])
        })
        .collect();
    let mut body = Json::Obj(vec![
        (
            "schema".into(),
            Json::Str(format!(
                "{}/points",
                sparten_model::dse::MODEL_VERSION
            )),
        ),
        ("total_configs".into(), Json::UInt(total_configs as u64)),
        ("points".into(), Json::Arr(rows)),
    ])
    .pretty();
    body.push('\n');
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparten_model::dse::MODEL_VERSION;

    #[test]
    fn quick_experiment_shape() {
        let e = DseExperiment::quick();
        assert_eq!(e.name(), "dse-quick");
        assert!(e.num_configs() >= 10_000);
        assert!(e.num_points() >= 30);
        assert!(e.fingerprint().contains("sparten-model/v1"));
    }

    #[test]
    fn point_roundtrips_through_validate_and_render() {
        let e = DseExperiment::quick();
        let p0 = e.compute_point(0);
        assert!(e.validate(0, &p0));
        // Render on a single batch still produces a frontier.
        let capture = e.render(std::slice::from_ref(&p0));
        assert!(capture.text.contains("Pareto frontier"));
        assert_eq!(capture.artifacts.len(), 2);
        assert!(capture.artifacts[0].0.ends_with("dse-quick_frontier.json"));
    }

    #[test]
    fn validate_rejects_an_empty_batch_7_header_as_any_point() {
        let e = DseExperiment::quick();
        let blob = format!("dse-batch {MODEL_VERSION} batch=7 lo=3584 hi=4096\n");
        assert!(!e.validate(0, &PointPayload::Record(blob.clone())));
        assert!(!e.validate(7, &PointPayload::Record(blob)));
    }

    #[test]
    fn validate_rejects_malformed_lines_under_a_good_header() {
        let e = DseExperiment::quick();
        for line in [
            "key n=512",
            "key n=1 n=2 n=3 n=4 n=5",
            "n=512 cycles=1 macs=2 energy=3 membound=0",
        ] {
            let blob = format!("dse-batch {MODEL_VERSION} batch=0 lo=0 hi=512\n{line}\n");
            assert!(!e.validate(0, &PointPayload::Record(blob)), "{line:?}");
        }
    }

    #[test]
    fn validate_rejects_another_points_record() {
        let e = DseExperiment::quick();
        let p1 = e.compute_point(1);
        assert!(e.validate(1, &p1));
        assert!(!e.validate(0, &p1));
        assert!(!e.validate(2, &p1));
    }

    #[test]
    fn records_are_deterministic() {
        let e = DseExperiment::quick();
        assert_eq!(e.compute_point(3), e.compute_point(3));
    }
}
