//! Design-space exploration over the analytical model.
//!
//! A sweep is a deterministic cross product of axes — chunk size × compute
//! units × cluster count × per-cluster buffer capacity × scheme × layer ×
//! input density × filter density — enumerated in a fixed order and split
//! into fixed-size batches. Each batch is one executor *point*: it
//! evaluates its configurations and returns a small, mergeable partial
//! aggregate keyed by the architecture/scheme tuple (densities and layers
//! aggregate away), serialized as a byte-stable record so the harness's
//! content-addressed cache and crash-only journal apply unchanged.
//!
//! Rendering merges all batch records, computes the two objectives —
//! effective throughput (useful MACs per cycle, averaged over the density
//! grid) and energy per useful MAC — and extracts the Pareto frontier.

use std::collections::BTreeMap;

use sparten_core::{AcceleratorConfig, ClusterConfig};
use sparten_nn::ConvShape;
use sparten_sim::{Scheme, SimConfig};

use crate::accel::ClusterGeometry;
use crate::params::LayerParams;

/// Version tag baked into fingerprints and records: bump when the model's
/// closed forms change, so stale cached sweeps are recomputed.
pub const MODEL_VERSION: &str = "sparten-model/v1";

/// Configurations evaluated per executor point.
pub const BATCH_SIZE: usize = 512;

/// One swept layer shape.
#[derive(Debug, Clone)]
pub struct DseLayer {
    /// Short stable name (part of the aggregate key space and reports).
    pub name: &'static str,
    /// The convolution shape.
    pub shape: ConvShape,
}

/// The sweep axes. The cross product in declaration order (chunk, units,
/// clusters, buffer, scheme, layer, input density, filter density — last
/// axis fastest) defines configuration indices.
#[derive(Debug, Clone)]
pub struct DseAxes {
    /// SparseMap chunk sizes.
    pub chunk_sizes: Vec<usize>,
    /// Compute units per cluster.
    pub compute_units: Vec<usize>,
    /// Cluster counts.
    pub cluster_counts: Vec<usize>,
    /// Per-cluster buffer capacities (KiB) for the energy model.
    pub buffer_kib: Vec<usize>,
    /// Schemes (SparTen-family only; SCNN has no chunk/unit axes).
    pub schemes: Vec<Scheme>,
    /// Layer shapes.
    pub layers: Vec<DseLayer>,
    /// Input densities.
    pub input_densities: Vec<f64>,
    /// Filter densities.
    pub filter_densities: Vec<f64>,
}

impl DseAxes {
    /// The `--quick` grid: 16 200 configurations (3 chunk × 3 units × 3
    /// clusters × 2 buffers × 4 schemes × 3 layers × 5 × 5 densities).
    pub fn quick() -> Self {
        DseAxes {
            chunk_sizes: vec![64, 128, 256],
            compute_units: vec![8, 16, 32],
            cluster_counts: vec![4, 16, 32],
            buffer_kib: vec![20, 31],
            schemes: vec![
                Scheme::OneSided,
                Scheme::SpartenNoGb,
                Scheme::SpartenGbS,
                Scheme::SpartenGbH,
            ],
            layers: vec![
                DseLayer {
                    name: "conv3_64",
                    shape: ConvShape::new(64, 14, 14, 3, 64, 1, 1),
                },
                DseLayer {
                    name: "conv3_256",
                    shape: ConvShape::new(256, 7, 7, 3, 128, 1, 1),
                },
                DseLayer {
                    name: "conv1_192",
                    shape: ConvShape::new(192, 14, 14, 1, 64, 1, 0),
                },
            ],
            input_densities: vec![0.1, 0.25, 0.4, 0.55, 0.7],
            filter_densities: vec![0.15, 0.3, 0.45, 0.6, 0.75],
        }
    }

    /// The full grid: 1 080 000 configurations (6 × 5 × 5 × 4 × 5 arch ×
    /// 5 layers × 8 × 9 densities).
    pub fn full() -> Self {
        DseAxes {
            chunk_sizes: vec![16, 32, 64, 128, 256, 512],
            compute_units: vec![4, 8, 16, 32, 64],
            cluster_counts: vec![1, 4, 8, 16, 32],
            buffer_kib: vec![8, 16, 31, 64],
            schemes: vec![
                Scheme::Dense,
                Scheme::OneSided,
                Scheme::SpartenNoGb,
                Scheme::SpartenGbS,
                Scheme::SpartenGbH,
            ],
            layers: vec![
                DseLayer {
                    name: "conv3_64",
                    shape: ConvShape::new(64, 14, 14, 3, 64, 1, 1),
                },
                DseLayer {
                    name: "conv3_256",
                    shape: ConvShape::new(256, 7, 7, 3, 128, 1, 1),
                },
                DseLayer {
                    name: "conv1_192",
                    shape: ConvShape::new(192, 14, 14, 1, 64, 1, 0),
                },
                DseLayer {
                    name: "conv5_48",
                    shape: ConvShape::new(48, 28, 28, 5, 64, 1, 2),
                },
                DseLayer {
                    name: "conv3s2_64",
                    shape: ConvShape::new(64, 28, 28, 3, 64, 2, 1),
                },
            ],
            input_densities: vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9],
            filter_densities: vec![0.1, 0.2, 0.3, 0.35, 0.4, 0.5, 0.7, 0.9, 1.0],
        }
    }

    /// Total configurations in the cross product.
    pub fn num_configs(&self) -> usize {
        self.chunk_sizes.len()
            * self.compute_units.len()
            * self.cluster_counts.len()
            * self.buffer_kib.len()
            * self.schemes.len()
            * self.layers.len()
            * self.input_densities.len()
            * self.filter_densities.len()
    }

    /// A complete, byte-stable description of the sweep — the cache/journal
    /// fingerprint.
    pub fn fingerprint(&self) -> String {
        let layers: Vec<String> = self
            .layers
            .iter()
            .map(|l| {
                let s = &l.shape;
                format!(
                    "{}:{}x{}x{}k{}n{}s{}p{}",
                    l.name,
                    s.in_channels,
                    s.in_height,
                    s.in_width,
                    s.kernel,
                    s.num_filters,
                    s.stride,
                    s.pad
                )
            })
            .collect();
        let schemes: Vec<&str> = self.schemes.iter().map(|s| s.label()).collect();
        format!(
            "{MODEL_VERSION} dse(chunks={:?} units={:?} clusters={:?} kib={:?} \
             schemes=[{}] layers=[{}] rho_i={:?} rho_f={:?} batch={BATCH_SIZE})",
            self.chunk_sizes,
            self.compute_units,
            self.cluster_counts,
            self.buffer_kib,
            schemes.join(","),
            layers.join(","),
            self.input_densities,
            self.filter_densities,
        )
    }
}

/// One run: a maximal stretch of configuration indices that agree on
/// every axis but the two densities (the fastest axes), so everything
/// that does not depend on the densities is built once for all of them.
struct DseRun<'a> {
    chunk: usize,
    units: usize,
    clusters: usize,
    kib: usize,
    scheme: Scheme,
    layer: &'a DseLayer,
}

/// A sweep ready for batched evaluation.
#[derive(Debug, Clone)]
pub struct DseGrid {
    /// The axes.
    pub axes: DseAxes,
}

impl DseGrid {
    /// Wraps axes into a grid.
    pub fn new(axes: DseAxes) -> Self {
        DseGrid { axes }
    }

    /// Number of executor points (batches).
    pub fn num_batches(&self) -> usize {
        self.axes.num_configs().div_ceil(BATCH_SIZE)
    }

    /// The configuration index range `[lo, hi)` of batch `batch`.
    fn batch_range(&self, batch: usize) -> (usize, usize) {
        let lo = batch * BATCH_SIZE;
        (lo, ((batch + 1) * BATCH_SIZE).min(self.axes.num_configs()))
    }

    /// Checks that `record` is this grid's batch `batch`: it parses
    /// strictly ([`parse_record`]), its header names this batch and its
    /// configuration range, and its aggregates count every configuration
    /// in that range.
    pub fn check_record(&self, batch: usize, record: &str) -> Result<(), String> {
        let aggs = parse_record(record)?;
        let header = parse_header(record.lines().next().unwrap_or_default())?;
        let (lo, hi) = self.batch_range(batch);
        if batch >= self.num_batches() || header != (batch, lo, hi) {
            return Err(format!(
                "dse record header (batch, lo, hi) = {header:?}, want {:?}",
                (batch, lo, hi)
            ));
        }
        let n: u64 = aggs.iter().map(|(_, a)| a.n).sum();
        if n != (hi - lo) as u64 {
            let want = hi - lo;
            return Err(format!("dse record counts {n} configurations, want {want}"));
        }
        Ok(())
    }

    /// Decodes run `run`: configuration index ÷ the density block size.
    fn decode_run(&self, mut run: usize) -> DseRun<'_> {
        let a = &self.axes;
        let mut take = |len: usize| {
            let v = run % len;
            run /= len;
            v
        };
        // Fastest axis last in declaration order: decode in reverse.
        let i_layer = take(a.layers.len());
        let i_scheme = take(a.schemes.len());
        let i_kib = take(a.buffer_kib.len());
        let i_clusters = take(a.cluster_counts.len());
        let i_units = take(a.compute_units.len());
        DseRun {
            chunk: a.chunk_sizes[run],
            units: a.compute_units[i_units],
            clusters: a.cluster_counts[i_clusters],
            kib: a.buffer_kib[i_kib],
            scheme: a.schemes[i_scheme],
            layer: &a.layers[i_layer],
        }
    }

    /// Evaluates one batch and serializes its partial aggregates as a
    /// byte-stable record (the executor point payload).
    ///
    /// The batch is walked run by run. Per run: the decode, the
    /// `SimConfig`, the cluster geometry, the buffer size and the
    /// aggregate key with its map entry. Per configuration, in index
    /// order: the layer parameters, the closed form, the energy model and
    /// one addition into the entry — the same f64 operations in the same
    /// order as evaluating every configuration on its own.
    pub fn batch_record(&self, batch: usize) -> String {
        let axes = &self.axes;
        let (lo, hi) = self.batch_range(batch);
        let n_rf = axes.filter_densities.len();
        let run_len = axes.input_densities.len() * n_rf;
        // Few distinct arch keys per batch (densities are the fast axes):
        // an ordered map keeps the record deterministic.
        let mut aggs: BTreeMap<String, Aggregate> = BTreeMap::new();
        let mut idx = lo;
        while idx < hi {
            let run = idx / run_len;
            let end = ((run + 1) * run_len).min(hi);
            let r = self.decode_run(run);
            let cfg = SimConfig {
                accel: AcceleratorConfig {
                    cluster: ClusterConfig {
                        compute_units: r.units,
                        chunk_size: r.chunk,
                        bisection_limit: 4,
                    },
                    num_clusters: r.clusters,
                },
                ..SimConfig::large()
            };
            let cg = ClusterGeometry::new(&r.layer.shape, r.clusters);
            let bytes_per_mac = r.kib * 1024 / r.units;
            let key = format!(
                "chunk={},units={},clusters={},kib={},scheme={}",
                r.chunk,
                r.units,
                r.clusters,
                r.kib,
                r.scheme.label()
            );
            let agg = aggs.entry(key).or_default();
            for i in idx..end {
                let d = i % run_len;
                let rho_i = axes.input_densities[d / n_rf];
                let rho_f = axes.filter_densities[d % n_rf];
                let params = LayerParams::new(r.layer.shape, rho_i, rho_f);
                let ev = crate::evaluate_on(&params, &cg, &cfg, r.scheme, bytes_per_mac);
                agg.n += 1;
                agg.cycles += ev.cycles() as f64;
                agg.macs += ev.result.breakdown.nonzero as f64;
                agg.energy_pj += ev.energy_pj();
                if ev.result.is_memory_bound() {
                    agg.mem_bound += 1;
                }
            }
            idx = end;
        }
        let mut out = format!("dse-batch {MODEL_VERSION} batch={batch} lo={lo} hi={hi}\n");
        for (key, a) in &aggs {
            out.push_str(&format!(
                "{key} n={} cycles={} macs={} energy={} membound={}\n",
                a.n, a.cycles, a.macs, a.energy_pj, a.mem_bound
            ));
        }
        out
    }
}

/// Mergeable partial aggregate for one architecture/scheme key.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Aggregate {
    /// Configurations aggregated.
    pub n: u64,
    /// Σ total cycles.
    pub cycles: f64,
    /// Σ useful (non-zero) MACs.
    pub macs: f64,
    /// Σ energy (pJ).
    pub energy_pj: f64,
    /// Configurations whose memory system was the bottleneck.
    pub mem_bound: u64,
}

/// The fields of a record line after its key, in the writer's order.
const FIELDS: [&str; 5] = ["n", "cycles", "macs", "energy", "membound"];

/// Parses a record header, `dse-batch <version> batch=<b> lo=<lo> hi=<hi>`,
/// into `(batch, lo, hi)`.
fn parse_header(header: &str) -> Result<(usize, usize, usize), String> {
    let bad = || format!("bad dse record header: {header:?}");
    let mut words = header.split(' ');
    if words.next() != Some("dse-batch") {
        return Err(bad());
    }
    if words.next() != Some(MODEL_VERSION) {
        return Err(format!("dse record from a different model version: {header:?}"));
    }
    let mut number = |name: &str| {
        words
            .next()
            .and_then(|w| w.strip_prefix(name)?.strip_prefix('=')?.parse().ok())
            .ok_or_else(bad)
    };
    let parsed = (number("batch")?, number("lo")?, number("hi")?);
    match words.next() {
        None => Ok(parsed),
        Some(_) => Err(bad()),
    }
}

/// Parses one batch record back into its aggregates. Every line must be a
/// key followed by exactly the five fields, in the order the writer puts
/// them.
pub fn parse_record(record: &str) -> Result<Vec<(String, Aggregate)>, String> {
    let mut lines = record.lines();
    parse_header(lines.next().ok_or("empty dse record")?)?;
    let mut out = Vec::new();
    for line in lines.filter(|l| !l.is_empty()) {
        // The key may hold spaces; the five fields cannot.
        let mut parts = line.rsplitn(FIELDS.len() + 1, ' ');
        let mut values = [""; FIELDS.len()];
        for (value, name) in values.iter_mut().zip(FIELDS).rev() {
            let field = parts.next().unwrap_or_default();
            *value = field
                .strip_prefix(name)
                .and_then(|f| f.strip_prefix('='))
                .ok_or_else(|| {
                    format!("dse record line wants {name}= where {field:?} is: {line:?}")
                })?;
        }
        let key = parts
            .next()
            .filter(|k| !k.is_empty())
            .ok_or_else(|| format!("dse record line has no key: {line:?}"))?;
        let [n, cycles, macs, energy, membound] = values;
        out.push((
            key.to_string(),
            Aggregate {
                n: n.parse().map_err(|e| format!("n: {e}"))?,
                cycles: cycles.parse().map_err(|e| format!("cycles: {e}"))?,
                macs: macs.parse().map_err(|e| format!("macs: {e}"))?,
                energy_pj: energy.parse().map_err(|e| format!("energy: {e}"))?,
                mem_bound: membound.parse().map_err(|e| format!("membound: {e}"))?,
            },
        ));
    }
    Ok(out)
}

/// Merges all batch records into per-key totals.
pub fn merge_records(records: &[String]) -> Result<BTreeMap<String, Aggregate>, String> {
    let mut merged: BTreeMap<String, Aggregate> = BTreeMap::new();
    for record in records {
        for (key, a) in parse_record(record)? {
            let m = merged.entry(key).or_default();
            m.n += a.n;
            m.cycles += a.cycles;
            m.macs += a.macs;
            m.energy_pj += a.energy_pj;
            m.mem_bound += a.mem_bound;
        }
    }
    Ok(merged)
}

/// One aggregated design point with its two objectives.
#[derive(Debug, Clone, PartialEq)]
pub struct DsePoint {
    /// Architecture/scheme key.
    pub key: String,
    /// Useful MACs per cycle, averaged over the density grid and layers.
    pub throughput: f64,
    /// Energy per useful MAC (pJ).
    pub energy_per_mac_pj: f64,
    /// Configurations aggregated into the point.
    pub n: u64,
    /// How many were memory-bound.
    pub mem_bound: u64,
}

/// Converts merged aggregates into objective points (deterministic order:
/// descending throughput, then ascending energy, then key).
pub fn objective_points(merged: &BTreeMap<String, Aggregate>) -> Vec<DsePoint> {
    let mut points: Vec<DsePoint> = merged
        .iter()
        .filter(|(_, a)| a.cycles > 0.0 && a.macs > 0.0)
        .map(|(key, a)| DsePoint {
            key: key.clone(),
            throughput: a.macs / a.cycles,
            energy_per_mac_pj: a.energy_pj / a.macs,
            n: a.n,
            mem_bound: a.mem_bound,
        })
        .collect();
    points.sort_by(|x, y| {
        y.throughput
            .partial_cmp(&x.throughput)
            .unwrap()
            .then(x.energy_per_mac_pj.partial_cmp(&y.energy_per_mac_pj).unwrap())
            .then(x.key.cmp(&y.key))
    });
    points
}

/// Extracts the Pareto frontier: maximize throughput, minimize energy per
/// MAC. Input must be in [`objective_points`] order.
pub fn pareto_frontier(points: &[DsePoint]) -> Vec<DsePoint> {
    let mut frontier: Vec<DsePoint> = Vec::new();
    let mut best_energy = f64::INFINITY;
    for p in points {
        if p.energy_per_mac_pj < best_energy {
            best_energy = p.energy_per_mac_pj;
            frontier.push(p.clone());
        }
    }
    frontier
}

/// Renders the frontier as a small JSON artifact (hand-rolled: the
/// workspace is dependency-free and `sparten-bench`'s writer would be a
/// circular dependency from here).
pub fn frontier_json(frontier: &[DsePoint], total_configs: usize) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"schema\": \"{MODEL_VERSION}/frontier\",\n"));
    s.push_str(&format!("  \"total_configs\": {total_configs},\n"));
    s.push_str("  \"frontier\": [\n");
    for (i, p) in frontier.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"key\": \"{}\", \"throughput_macs_per_cycle\": {}, \
             \"energy_per_mac_pj\": {}, \"configs\": {}, \"mem_bound\": {}}}{}\n",
            p.key,
            p.throughput,
            p.energy_per_mac_pj,
            p.n,
            p.mem_bound,
            if i + 1 < frontier.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_is_at_least_ten_thousand_configs() {
        assert!(DseAxes::quick().num_configs() >= 10_000);
    }

    #[test]
    fn full_grid_is_about_a_million_configs() {
        assert!(DseAxes::full().num_configs() >= 1_000_000);
    }

    #[test]
    fn batch_records_roundtrip_and_are_deterministic() {
        let grid = DseGrid::new(DseAxes::quick());
        let r1 = grid.batch_record(0);
        let r2 = grid.batch_record(0);
        assert_eq!(r1, r2);
        let parsed = parse_record(&r1).unwrap();
        assert!(!parsed.is_empty());
        let total: u64 = parsed.iter().map(|(_, a)| a.n).sum();
        assert_eq!(total, BATCH_SIZE as u64);
        // Writing the parsed aggregates back reproduces the record.
        let mut rewritten = r1.lines().next().unwrap().to_string() + "\n";
        for (key, a) in &parsed {
            rewritten.push_str(&format!(
                "{key} n={} cycles={} macs={} energy={} membound={}\n",
                a.n, a.cycles, a.macs, a.energy_pj, a.mem_bound
            ));
        }
        assert_eq!(rewritten, r1);
    }

    /// A record of batch 0 on the quick grid with `lines` as its body.
    fn record_with(lines: &str) -> String {
        format!("dse-batch {MODEL_VERSION} batch=0 lo=0 hi=512\n{lines}")
    }

    #[test]
    fn a_line_missing_fields_is_rejected() {
        assert!(parse_record(&record_with("key n=512\n")).is_err());
    }

    #[test]
    fn a_repeated_field_is_rejected() {
        assert!(parse_record(&record_with("key n=1 n=2 n=3 n=4 n=5\n")).is_err());
    }

    #[test]
    fn a_line_without_a_key_is_rejected() {
        let line = "n=512 cycles=1 macs=2 energy=3 membound=0\n";
        assert!(parse_record(&record_with(line)).is_err());
    }

    #[test]
    fn fields_out_of_order_or_extra_are_rejected() {
        for line in [
            "key cycles=1 n=512 macs=2 energy=3 membound=0\n",
            "key n=512 cycles=1 macs=2 energy=3 membound=0 extra=1\n",
            "key n=512 cycles=1 macs=2 energy=3 membound=x\n",
        ] {
            assert!(parse_record(&record_with(line)).is_err(), "{line:?}");
        }
    }

    #[test]
    fn check_record_holds_the_header_to_the_grid() {
        let grid = DseGrid::new(DseAxes::quick());
        let r1 = grid.batch_record(1);
        assert_eq!(grid.check_record(1, &r1), Ok(()));
        // Another batch's record, a header for an empty batch 7, a
        // shifted range and a dropped line all parse but are not batch 1.
        assert!(grid.check_record(0, &r1).is_err());
        let empty = format!("dse-batch {MODEL_VERSION} batch=7 lo=3584 hi=4096\n");
        assert!(parse_record(&empty).is_ok());
        assert!(grid.check_record(7, &empty).is_err());
        assert!(grid.check_record(0, &empty).is_err());
        let shifted = r1.replacen("lo=512 hi=1024", "lo=511 hi=1023", 1);
        assert!(grid.check_record(1, &shifted).is_err());
        let dropped: String = r1.lines().take(2).map(|l| format!("{l}\n")).collect();
        assert!(grid.check_record(1, &dropped).is_err());
        let last = grid.num_batches() - 1;
        assert_eq!(grid.check_record(last, &grid.batch_record(last)), Ok(()));
        let past_the_end = grid.batch_record(last + 1);
        assert!(grid.check_record(last + 1, &past_the_end).is_err());
    }

    #[test]
    fn merge_covers_every_config_exactly_once() {
        let grid = DseGrid::new(DseAxes::quick());
        let records: Vec<String> = (0..grid.num_batches())
            .map(|b| grid.batch_record(b))
            .collect();
        let merged = merge_records(&records).unwrap();
        let total: u64 = merged.values().map(|a| a.n).sum();
        assert_eq!(total, grid.axes.num_configs() as u64);
    }

    #[test]
    fn frontier_is_nonempty_and_monotone() {
        let grid = DseGrid::new(DseAxes::quick());
        let records: Vec<String> = (0..grid.num_batches())
            .map(|b| grid.batch_record(b))
            .collect();
        let merged = merge_records(&records).unwrap();
        let points = objective_points(&merged);
        let frontier = pareto_frontier(&points);
        assert!(!frontier.is_empty());
        for w in frontier.windows(2) {
            assert!(w[0].throughput >= w[1].throughput);
            assert!(w[0].energy_per_mac_pj > w[1].energy_per_mac_pj);
        }
    }
}
