//! Greedy balancing (§3.3, Figure 6).
//!
//! Filters inevitably differ in density; because every filter in a cluster
//! multiplies the same broadcast input chunk, the dense-filter units lag the
//! sparse-filter units at every implicit broadcast barrier. SparTen fixes
//! this *offline*, keeping full filter reuse:
//!
//! * **GB-S** sorts a layer's filters by whole-filter density so the filters
//!   working side by side are similar, and *collocates* two filters per
//!   compute unit, pairing the densest with the sparsest. The resulting
//!   output-channel shuffle is undone statically by rearranging the next
//!   layer's weights ([`unshuffle_next_layer`]).
//! * **GB-H** additionally re-sorts *per chunk*, pairing the per-chunk
//!   densest with the per-chunk sparsest within each cluster's group of
//!   2×units filters. The per-chunk shuffle cannot be fixed statically, so
//!   partial sums are routed through the cluster's permutation network
//!   ([`GroupAssignment::chunk_routing`]).

use std::cmp::Reverse;

use sparten_nn::Filter;

use crate::chunking::chunks_per_window;

/// Which greedy-balancing variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BalanceMode {
    /// No balancing: filters in original order, one per compute unit.
    None,
    /// Software-only: whole-filter density sort + whole-filter collocation.
    GbS,
    /// Hybrid: GB-S assignment plus per-chunk sorting and dynamic
    /// unshuffling through the permutation network.
    GbH,
    /// Ablation: GB-S's density sort *without* collocation (one filter per
    /// unit). §5.1 notes this "results in worse performance in most other
    /// benchmarks" — this variant lets that claim be measured.
    GbSNoColloc,
}

/// The filters a cluster works on concurrently: up to `2 × units` filters
/// under collocation, `units` without.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupAssignment {
    /// Global filter ids in *produced order*: the output collector emits
    /// this group's j-th output channel from `produced_order[j]`.
    pub produced_order: Vec<usize>,
    /// `per_cu[u]` = global filter ids (1 or 2) statically held by unit `u`.
    pub per_cu: Vec<Vec<usize>>,
    /// GB-H only: `per_chunk_cu[c][u]` = the filters whose chunk `c` unit
    /// `u` computes. Empty for other modes.
    pub per_chunk_cu: Vec<Vec<Vec<usize>>>,
}

impl GroupAssignment {
    /// Number of filters in the group.
    pub fn num_filters(&self) -> usize {
        self.produced_order.len()
    }

    /// Units that hold at least one filter.
    pub fn busy_units(&self) -> usize {
        self.per_cu.iter().filter(|v| !v.is_empty()).count()
    }

    /// Slot position (index into `produced_order`) that owns filter `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not in this group.
    pub fn owner_slot(&self, f: usize) -> usize {
        self.produced_order
            .iter()
            .position(|&g| g == f)
            .expect("filter not in group")
    }

    /// GB-H routing for chunk `c`: `(source_slot, destination_slot)` pairs
    /// mapping where each partial sum is computed to where its accumulator
    /// lives. Source slots follow the same `s·units + u` layout as produced
    /// order. Identity pairs are included (the network still carries them).
    ///
    /// Returns an empty mapping for non-GB-H groups.
    pub fn chunk_routing(&self, c: usize) -> Vec<(usize, usize)> {
        let Some(chunk) = self.per_chunk_cu.get(c) else {
            return Vec::new();
        };
        let units = self.per_cu.len();
        let mut mapping = Vec::new();
        for (u, filters) in chunk.iter().enumerate() {
            for (s, &f) in filters.iter().enumerate() {
                let src = s * units + u;
                let dst = self.owner_slot(f);
                mapping.push((src, dst));
            }
        }
        mapping
    }
}

/// A full layer's balanced assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerBalance {
    /// The balancing mode that produced this assignment.
    pub mode: BalanceMode,
    /// Groups processed back to back by each cluster.
    pub groups: Vec<GroupAssignment>,
    /// `produced_channels[p]` = logical filter id emitted at produced
    /// output-channel position `p` (concatenation of the groups' produced
    /// orders).
    pub produced_channels: Vec<usize>,
}

impl LayerBalance {
    /// Builds the assignment of `filters` onto clusters of `units` compute
    /// units with the given mode and chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `units == 0` or `filters` is empty.
    pub fn new(filters: &[Filter], units: usize, chunk_size: usize, mode: BalanceMode) -> Self {
        assert!(units > 0, "need at least one compute unit");
        assert!(!filters.is_empty(), "need at least one filter");
        let groups = match mode {
            BalanceMode::None => plain_groups(filters.len(), units),
            BalanceMode::GbS => gb_groups(filters, units, chunk_size, false),
            BalanceMode::GbH => gb_groups(filters, units, chunk_size, true),
            BalanceMode::GbSNoColloc => sorted_plain_groups(filters, units),
        };
        let produced_channels = groups
            .iter()
            .flat_map(|g| g.produced_order.iter().copied())
            .collect();
        LayerBalance {
            mode,
            groups,
            produced_channels,
        }
    }

    /// Greedy balancing with `k`-way collocation (the paper uses `k = 2`).
    /// `per_chunk` selects GB-H-style per-chunk sorting; the reported mode
    /// is the nearest standard one.
    ///
    /// # Panics
    ///
    /// Panics if `units == 0`, `k == 0`, or `filters` is empty.
    pub fn with_collocation(
        filters: &[Filter],
        units: usize,
        chunk_size: usize,
        k: usize,
        per_chunk: bool,
    ) -> Self {
        assert!(units > 0, "need at least one compute unit");
        assert!(k > 0, "collocation depth must be positive");
        assert!(!filters.is_empty(), "need at least one filter");
        let groups = gb_groups_k(filters, units, chunk_size, per_chunk, k);
        let produced_channels = groups
            .iter()
            .flat_map(|g| g.produced_order.iter().copied())
            .collect();
        LayerBalance {
            mode: if per_chunk {
                BalanceMode::GbH
            } else {
                BalanceMode::GbS
            },
            groups,
            produced_channels,
        }
    }

    /// The inverse map: `position_of[logical_filter]` = produced position.
    pub fn position_of_channel(&self) -> Vec<usize> {
        let mut inv = vec![0usize; self.produced_channels.len()];
        for (p, &f) in self.produced_channels.iter().enumerate() {
            inv[f] = p;
        }
        inv
    }

    /// Whether the produced order equals the logical order.
    pub fn is_identity(&self) -> bool {
        self.produced_channels
            .iter()
            .enumerate()
            .all(|(p, &f)| p == f)
    }
}

fn plain_groups(num_filters: usize, units: usize) -> Vec<GroupAssignment> {
    (0..num_filters)
        .collect::<Vec<_>>()
        .chunks(units)
        .map(|ids| GroupAssignment {
            produced_order: ids.to_vec(),
            per_cu: (0..units)
                .map(|u| ids.get(u).map(|&f| vec![f]).unwrap_or_default())
                .collect(),
            per_chunk_cu: Vec::new(),
        })
        .collect()
}

/// GB-S's density sort without collocation: sorted order, one filter per
/// unit, groups of `units`.
fn sorted_plain_groups(filters: &[Filter], units: usize) -> Vec<GroupAssignment> {
    let whole: Vec<f64> = filters.iter().map(Filter::density).collect();
    let mut ids: Vec<usize> = (0..filters.len()).collect();
    sort_by_density(&mut ids, |i| whole[i]);
    ids.chunks(units)
        .map(|group_ids| GroupAssignment {
            produced_order: group_ids.to_vec(),
            per_cu: (0..units)
                .map(|u| group_ids.get(u).map(|&f| vec![f]).unwrap_or_default())
                .collect(),
            per_chunk_cu: Vec::new(),
        })
        .collect()
}

/// Sorts filter ids by density, descending; ties broken by id for
/// determinism.
fn sort_by_density(ids: &mut [usize], density: impl Fn(usize) -> f64) {
    ids.sort_by(|&a, &b| {
        density(b)
            .partial_cmp(&density(a))
            .expect("densities are finite")
            .then(a.cmp(&b))
    });
}

/// K-way collocation: deals the density-sorted filters onto `units` slots
/// in serpentine order so each unit's k filters sum to a near-equal total.
/// `k = 2` is the paper's pairing; `k = 1` disables collocation.
fn collocate_k(sorted: &[usize], units: usize, k: usize) -> Vec<Vec<usize>> {
    let mut per_cu: Vec<Vec<usize>> = vec![Vec::new(); units];
    // Tuples are formed *before* unit assignment, so small filter counts
    // leave units idle — the §5.1 pathology on GoogLeNet's 5x5_reduce.
    let busy = sorted.len().div_ceil(k).min(units);
    if busy == 0 {
        return per_cu;
    }
    for (rank, &f) in sorted.iter().enumerate().take(units * k) {
        let pass = rank / busy;
        let pos = rank % busy;
        let u = if pass.is_multiple_of(2) {
            pos
        } else {
            busy - 1 - pos
        };
        per_cu[u].push(f);
    }
    per_cu
}

/// Produced order for a collocated group: slot-0 filters of all units, then
/// slot-1 filters, and so on (matching the output collector's scan).
fn produced_from_per_cu(per_cu: &[Vec<usize>]) -> Vec<usize> {
    let max_slots = per_cu.iter().map(Vec::len).max().unwrap_or(0);
    let mut order = Vec::new();
    for s in 0..max_slots {
        for slots in per_cu {
            if let Some(&f) = slots.get(s) {
                order.push(f);
            }
        }
    }
    order
}

fn gb_groups(
    filters: &[Filter],
    units: usize,
    chunk_size: usize,
    per_chunk: bool,
) -> Vec<GroupAssignment> {
    gb_groups_k(filters, units, chunk_size, per_chunk, 2)
}

/// Greedy balancing generalized to `k` collocated filters per unit — the
/// paper's scheme is `k = 2`; deeper collocation buys balance with more
/// filter/output buffering (an extension the paper's framework suggests but
/// does not explore).
fn gb_groups_k(
    filters: &[Filter],
    units: usize,
    chunk_size: usize,
    per_chunk: bool,
    k: usize,
) -> Vec<GroupAssignment> {
    // Whole-filter densities and (for GB-H) per-chunk non-zero counts.
    let whole: Vec<f64> = filters.iter().map(Filter::density).collect();
    let (chunk_nnz, chunks) = if per_chunk {
        chunk_nnz_table(filters, chunk_size)
    } else {
        (Vec::new(), 0)
    };

    let mut ids: Vec<usize> = (0..filters.len()).collect();
    sort_by_density(&mut ids, |i| whole[i]);

    ids.chunks(k * units)
        .map(|group_ids| {
            let mut sorted = group_ids.to_vec();
            sort_by_density(&mut sorted, |i| whole[i]);
            let per_cu = collocate_k(&sorted, units, k);
            let produced_order = produced_from_per_cu(&per_cu);
            let per_chunk_cu = (0..chunks)
                .map(|c| {
                    let mut by_chunk = group_ids.to_vec();
                    by_chunk.sort_unstable_by_key(|&i| (Reverse(chunk_nnz[i * chunks + c]), i));
                    collocate_k(&by_chunk, units, k)
                })
                .collect();
            GroupAssignment {
                produced_order,
                per_cu,
                per_chunk_cu,
            }
        })
        .collect()
}

/// Every filter's per-chunk non-zero counts, `table[f · chunks + c]`, with
/// `chunks` per filter in the padded linearization's order: tap-major,
/// each tap's channel fiber cut into `chunk_size` pieces. Padding makes
/// every chunk `chunk_size` long, so ordering chunks by count orders them
/// exactly as by density: the per-chunk key of GB-H and Figure 14.
fn chunk_nnz_table(filters: &[Filter], chunk_size: usize) -> (Vec<u32>, usize) {
    let Some(first) = filters.first() else {
        return (Vec::new(), 0);
    };
    let k = first.kernel();
    let chunks = chunks_per_window(first.channels(), k, chunk_size);
    let table: Vec<u32> = filters
        .iter()
        .flat_map(|f| {
            (0..k * k).flat_map(move |tap| {
                f.weights()
                    .fiber(tap % k, tap / k)
                    .chunks(chunk_size)
                    .map(|piece| piece.iter().filter(|&&v| v != 0.0).count() as u32)
            })
        })
        .collect();
    assert_eq!(
        table.len(),
        filters.len() * chunks,
        "filters differ in shape"
    );
    (table, chunks)
}

/// Statically unshuffles the *next* layer's weights so it consumes a
/// produced-order tensor directly (§3.3): new channel `p` of every next
/// filter takes the weights of old channel `produced_channels[p]`.
///
/// # Panics
///
/// Panics if any next filter's channel count differs from
/// `produced_channels.len()`.
pub fn unshuffle_next_layer(next_filters: &mut [Filter], produced_channels: &[usize]) {
    for f in next_filters {
        assert_eq!(
            f.channels(),
            produced_channels.len(),
            "channel count must match the previous layer's filter count"
        );
        let k = f.kernel();
        let old = f.weights().clone();
        let w = f.weights_mut();
        for (p, &logical) in produced_channels.iter().enumerate() {
            for fy in 0..k {
                for fx in 0..k {
                    w.set(p, fx, fy, old.get(logical, fx, fy));
                }
            }
        }
    }
}

/// Per-pair mean chunk densities after GB-H pairing for one chunk index —
/// the blue curve of Figure 14. Returns one density per collocated pair.
pub fn paired_chunk_densities(
    filters: &[Filter],
    chunk_size: usize,
    chunk_index: usize,
) -> Vec<f64> {
    let (chunk_nnz, chunks) = chunk_nnz_table(filters, chunk_size);
    let density = |f: usize| chunk_nnz[f * chunks + chunk_index] as f64 / chunk_size as f64;
    let mut ids: Vec<usize> = (0..filters.len()).collect();
    sort_by_density(&mut ids, density);
    let m = ids.len();
    (0..m / 2)
        .map(|u| (density(ids[u]) + density(ids[m - 1 - u])) / 2.0)
        .collect()
}

/// Utilization of a set of per-unit, per-barrier work counts: useful cycles
/// over `barrier-max × units` cycles — the shaded fraction of Figure 6.
pub fn utilization(per_barrier_unit_work: &[Vec<usize>]) -> f64 {
    let mut useful = 0usize;
    let mut wall = 0usize;
    let mut units = 0usize;
    for barrier in per_barrier_unit_work {
        useful += barrier.iter().sum::<usize>();
        wall += barrier.iter().copied().max().unwrap_or(0);
        units = units.max(barrier.len());
    }
    if wall == 0 || units == 0 {
        1.0
    } else {
        useful as f64 / (wall * units) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunking::filter_to_chunks;
    use sparten_nn::generate::random_filters;
    use sparten_nn::ConvShape;

    fn filters(n: usize, density: f64, spread: f64, seed: u64) -> Vec<Filter> {
        let shape = ConvShape::new(64, 8, 8, 3, n, 1, 1);
        random_filters(&shape, density, spread, seed)
    }

    #[test]
    fn plain_mode_is_identity() {
        let fs = filters(70, 0.4, 0.5, 1);
        let b = LayerBalance::new(&fs, 32, 128, BalanceMode::None);
        assert!(b.is_identity());
        assert_eq!(b.groups.len(), 3); // 32 + 32 + 6
        assert_eq!(b.groups[2].busy_units(), 6);
    }

    #[test]
    fn gbs_produced_channels_is_permutation() {
        let fs = filters(64, 0.4, 0.5, 2);
        let b = LayerBalance::new(&fs, 32, 128, BalanceMode::GbS);
        let mut seen = [false; 64];
        for &f in &b.produced_channels {
            assert!(!seen[f], "duplicate channel {f}");
            seen[f] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gbs_pairs_dense_with_sparse() {
        let fs = filters(64, 0.35, 0.6, 3);
        let b = LayerBalance::new(&fs, 32, 128, BalanceMode::GbS);
        let g = &b.groups[0];
        // Every unit holds two filters whose mean density is near the group mean.
        let dens: Vec<f64> = fs.iter().map(Filter::density).collect();
        let group_mean: f64 =
            g.produced_order.iter().map(|&f| dens[f]).sum::<f64>() / g.num_filters() as f64;
        for slots in &g.per_cu {
            assert_eq!(slots.len(), 2);
            let pair_mean = (dens[slots[0]] + dens[slots[1]]) / 2.0;
            assert!(
                (pair_mean - group_mean).abs() < 0.08,
                "pair {pair_mean} vs group {group_mean}"
            );
        }
    }

    #[test]
    fn gbs_collocation_halves_units_for_small_layers() {
        // GoogLeNet 5x5red pathology: 16 filters on 16 units → 8 busy.
        let fs = filters(16, 0.35, 0.3, 4);
        let b = LayerBalance::new(&fs, 16, 128, BalanceMode::GbS);
        assert_eq!(b.groups.len(), 1);
        assert_eq!(b.groups[0].busy_units(), 8);
        let plain = LayerBalance::new(&fs, 16, 128, BalanceMode::None);
        assert_eq!(plain.groups[0].busy_units(), 16);
    }

    #[test]
    fn gbs_nocolloc_sorts_without_pairing() {
        let fs = filters(70, 0.35, 0.6, 12);
        let b = LayerBalance::new(&fs, 32, 128, BalanceMode::GbSNoColloc);
        assert_eq!(b.groups.len(), 3); // 32 + 32 + 6, one filter per unit
        for g in &b.groups {
            for slots in &g.per_cu {
                assert!(slots.len() <= 1, "no collocation allowed");
            }
        }
        // Produced order must be density-sorted, descending.
        let dens: Vec<f64> = fs.iter().map(Filter::density).collect();
        let order: Vec<f64> = b.produced_channels.iter().map(|&f| dens[f]).collect();
        assert!(order.windows(2).all(|w| w[0] >= w[1]));
        // And it is a permutation.
        let mut seen = [false; 70];
        for &f in &b.produced_channels {
            assert!(!seen[f]);
            seen[f] = true;
        }
    }

    #[test]
    fn gbh_has_per_chunk_assignments() {
        let fs = filters(64, 0.4, 0.5, 5);
        let b = LayerBalance::new(&fs, 32, 128, BalanceMode::GbH);
        let g = &b.groups[0];
        // 64-channel 3x3 filter → 9 chunks of 128 (64 padded to 128).
        assert_eq!(g.per_chunk_cu.len(), 9);
        for chunk in &g.per_chunk_cu {
            let total: usize = chunk.iter().map(Vec::len).sum();
            assert_eq!(total, 64);
        }
    }

    #[test]
    fn gbh_routing_is_a_bijection_onto_owner_slots() {
        let fs = filters(64, 0.4, 0.5, 6);
        let b = LayerBalance::new(&fs, 32, 128, BalanceMode::GbH);
        let g = &b.groups[0];
        for c in 0..g.per_chunk_cu.len() {
            let mapping = g.chunk_routing(c);
            assert_eq!(mapping.len(), 64);
            let mut dsts: Vec<usize> = mapping.iter().map(|&(_, d)| d).collect();
            dsts.sort_unstable();
            assert_eq!(dsts, (0..64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn k_way_collocation_balances_and_permutes() {
        let fs = filters(64, 0.35, 0.6, 21);
        for k in [1usize, 2, 4] {
            let b = LayerBalance::with_collocation(&fs, 8, 128, k, false);
            // Permutation property.
            let mut seen = [false; 64];
            for &f in &b.produced_channels {
                assert!(!seen[f], "k={k}: duplicate {f}");
                seen[f] = true;
            }
            assert!(seen.iter().all(|&x| x), "k={k}: missing channels");
            // Slot counts.
            for g in &b.groups {
                for slots in &g.per_cu {
                    assert!(slots.len() <= k, "k={k}: too many slots");
                }
            }
        }
    }

    #[test]
    fn deeper_collocation_tightens_per_unit_totals() {
        let fs = filters(64, 0.35, 0.7, 22);
        let dens: Vec<f64> = fs.iter().map(Filter::density).collect();
        let spread_for = |k: usize| {
            let b = LayerBalance::with_collocation(&fs, 8, 128, k, false);
            let g = &b.groups[0];
            let totals: Vec<f64> = g
                .per_cu
                .iter()
                .filter(|s| !s.is_empty())
                .map(|s| s.iter().map(|&f| dens[f]).sum::<f64>() / s.len() as f64)
                .collect();
            let max = totals.iter().cloned().fold(f64::MIN, f64::max);
            let min = totals.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        assert!(
            spread_for(4) < spread_for(1),
            "k=4 must balance better than k=1"
        );
    }

    #[test]
    fn k_way_chunk_routing_is_bijective() {
        let fs = filters(32, 0.4, 0.5, 23);
        let b = LayerBalance::with_collocation(&fs, 8, 128, 4, true);
        let g = &b.groups[0];
        for c in 0..g.per_chunk_cu.len() {
            let mapping = g.chunk_routing(c);
            let mut dsts: Vec<usize> = mapping.iter().map(|&(_, d)| d).collect();
            dsts.sort_unstable();
            assert_eq!(dsts, (0..g.num_filters()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn unshuffle_restores_logical_weights() {
        let fs = filters(8, 0.5, 0.4, 7);
        let b = LayerBalance::new(&fs, 4, 128, BalanceMode::GbS);
        // Next layer: 8-channel filters.
        let next_shape = ConvShape::new(8, 4, 4, 3, 2, 1, 1);
        let original = random_filters(&next_shape, 0.8, 0.0, 8);
        let mut unshuffled = original.clone();
        unshuffle_next_layer(&mut unshuffled, &b.produced_channels);
        // Weight of produced channel p must equal original weight of the
        // logical channel emitted there.
        for (orig, unsh) in original.iter().zip(&unshuffled) {
            for (p, &logical) in b.produced_channels.iter().enumerate() {
                for fy in 0..3 {
                    for fx in 0..3 {
                        assert_eq!(
                            unsh.weights().get(p, fx, fy),
                            orig.weights().get(logical, fx, fy)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn paired_densities_have_less_spread() {
        let fs = filters(128, 0.3, 0.7, 9);
        let singles: Vec<f64> = fs
            .iter()
            .map(|f| filter_to_chunks(f, 128).chunks()[0].density())
            .collect();
        let pairs = paired_chunk_densities(&fs, 128, 0);
        let spread = |v: &[f64]| {
            let max = v.iter().cloned().fold(f64::MIN, f64::max);
            let min = v.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        assert!(
            spread(&pairs) < spread(&singles) * 0.6,
            "pairs {} vs singles {}",
            spread(&pairs),
            spread(&singles)
        );
    }

    #[test]
    fn utilization_of_balanced_work_is_one() {
        assert_eq!(utilization(&[vec![3, 3, 3], vec![2, 2, 2]]), 1.0);
    }

    #[test]
    fn utilization_of_imbalanced_work_drops() {
        let u = utilization(&[vec![4, 1, 1]]);
        assert!((u - 0.5).abs() < 1e-12);
    }
}
