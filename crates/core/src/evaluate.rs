//! Schedule evaluation: the §III-E performance model.
//!
//! Latency of a schedule is hierarchical:
//!
//! * **Layer** — from the MAESTRO-style intra-chiplet cost database.
//! * **Segment** — `Lat(sg) = Σ Lat_comp(l) + Lat_ip_com + Lat_op_com`:
//!   computation plus loading inputs (from the producing chiplet via the
//!   NoP when pipelined, else off-chip DRAM) plus draining the final
//!   output. A segment's output transfer *is* the next segment's input
//!   transfer; it is charged once, on the consuming side.
//! * **Model-in-window** — inter-chiplet pipelining over mini-batches:
//!   `Lat(SG_m) = Σ_k Lat(sg_k|b′) + (b/b′ − 1)·max_k Lat(sg_k|b′)`,
//!   plus the one-time weight load of every segment from DRAM.
//! * **Window** — `max` over concurrently executing models.
//! * **Scenario** — `Σ` over time windows.
//!
//! Energy is always aggregated (computation + NoP + DRAM), per §III-E.
//! The NoP conflict term δ is computed from all of a window's flows with
//! [`LinkLoads`] and folded back into segment latencies.
//!
//! Every batch entry point evaluates its windows in chunks, and each chunk
//! reads the cost database through one dense cost table: the `b′` sweep asks
//! for every (layer, divisor, chiplet) of a window, and a search chunk asks
//! again for every candidate of the same window, so the table answers all
//! repeats of a key from a dense array after one database query. Each
//! window's δ ledger is one byte count per directed NoP link, and its flows
//! walk the routes the package laid out when it was built, so pricing
//! contention neither routes nor hashes per flow.

use crate::parallel::{self, Parallelism};
use crate::problem::{EvalTotals, OptMetric, ScheduleInstance, WindowSchedule};
use scar_maestro::{ChipletClassKey, CostDatabase, CostReader};
use scar_mcm::{ChipletId, LinkLoads, Loc, McmConfig};
use scar_workloads::{DataType, Scenario};
use serde::{Deserialize, Serialize};

/// Evaluation of one model's execution within one window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelWindowEval {
    /// The model's index in the scenario.
    pub model: usize,
    /// Pipelined latency of this model's window work, in seconds.
    pub latency_s: f64,
    /// Energy of this model's window work, in joules.
    pub energy_j: f64,
    /// Chosen mini-batch `b′` (≤ the model's batch).
    pub mini_batch: u64,
    /// Number of pipeline passes `b / b′`.
    pub passes: u64,
    /// Per-segment single-pass latencies (diagnostics; drives Figure 9).
    pub seg_latency_s: Vec<f64>,
}

/// Evaluation of one time window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowEval {
    /// Window latency: the max over concurrently executing models.
    pub latency_s: f64,
    /// Window energy: the sum over models.
    pub energy_j: f64,
    /// Per-model breakdowns (`None` for models idle in the window).
    pub per_model: Vec<Option<ModelWindowEval>>,
}

impl WindowEval {
    /// The window's totals as an [`EvalTotals`].
    pub fn totals(&self) -> EvalTotals {
        EvalTotals {
            latency_s: self.latency_s,
            energy_j: self.energy_j,
        }
    }
}

/// Per-segment cost breakdown used while assembling a window evaluation.
struct SegPlan {
    chiplet: usize,
    comp_time_s: f64,
    comp_energy_j: f64,
    in_src: Loc,
    in_bytes: u64,
    out_dst: Option<Loc>,
    out_bytes: u64,
    weight_bytes: u64,
    /// Weights do not stay resident in L2 across passes: they re-stream
    /// from DRAM every mini-batch pass.
    restream_weights: bool,
}

/// Activation tiling depth: layers stream activations through L2 in at
/// least this many spatial/contraction tiles, so only `peak/8` of the
/// activation footprint competes with weights for residency.
const ACT_TILES: u64 = 8;

/// The schedule evaluator: binds a scenario, an MCM, and a cost database.
///
/// The evaluator is metric-aware: execution knobs the runtime would tune —
/// the mini-batch `b′` — are chosen to optimize the same metric the search
/// targets (a latency search pipelines aggressively at small `b′`; an EDP
/// search balances pipelining against per-pass weight-restreaming energy).
#[derive(Debug)]
pub struct Evaluator<'a> {
    scenario: &'a Scenario,
    mcm: &'a McmConfig,
    db: &'a CostDatabase,
    metric: OptMetric,
    /// Per-model batch divisors (descending), precomputed once at
    /// construction: `plan_model` sweeps this list for every model in
    /// every candidate window, so re-deriving it per call is pure hot-path
    /// overhead.
    divisors: Vec<Vec<u64>>,
    /// Per chiplet: the index of its cost-database class (chiplets with
    /// equal [`ChipletClassKey`]s read the same entries).
    class_of: Vec<usize>,
    /// Number of distinct chiplet classes on the package.
    classes: usize,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator optimizing EDP (the paper's default target).
    pub fn new(scenario: &'a Scenario, mcm: &'a McmConfig, db: &'a CostDatabase) -> Self {
        Self::with_metric(scenario, mcm, db, OptMetric::Edp)
    }

    /// Creates an evaluator whose execution knobs target `metric`.
    pub fn with_metric(
        scenario: &'a Scenario,
        mcm: &'a McmConfig,
        db: &'a CostDatabase,
        metric: OptMetric,
    ) -> Self {
        let divisors = scenario
            .models()
            .iter()
            .map(|sm| divisors_desc(sm.batch))
            .collect();
        let mut keys: Vec<ChipletClassKey> = Vec::new();
        let class_of = mcm
            .chiplets()
            .iter()
            .map(|c| {
                let key = c.cache_key();
                keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                    keys.push(key);
                    keys.len() - 1
                })
            })
            .collect();
        Self {
            scenario,
            mcm,
            db,
            metric,
            divisors,
            class_of,
            classes: keys.len(),
        }
    }

    /// Evaluates a complete schedule: per-window evaluations plus scenario
    /// totals (`Lat(Sc) = Σ_w Lat(tw)`, energy aggregated).
    pub fn evaluate_schedule(&self, s: &ScheduleInstance) -> (EvalTotals, Vec<WindowEval>) {
        self.evaluate_schedule_par(s, Parallelism::Serial)
    }

    /// [`Evaluator::evaluate_schedule`] with windows evaluated across a
    /// worker pool. Windows are independent and totals are accumulated in
    /// window order, so the result is bit-identical for any thread count.
    ///
    /// The shared evaluation context (precomputed batch divisors, one
    /// dense cost table per worker) is hoisted once per schedule rather than
    /// re-derived per window.
    pub fn evaluate_schedule_par(
        &self,
        s: &ScheduleInstance,
        parallelism: Parallelism,
    ) -> (EvalTotals, Vec<WindowEval>) {
        let evals = parallel::par_map_chunks(&s.windows, parallelism.threads(), |chunk| {
            let mut costs = self.cost_table();
            chunk
                .iter()
                .map(|w| self.evaluate_window_with(w, &mut costs))
                .collect()
        });
        let mut totals = EvalTotals::default();
        for e in &evals {
            totals.accumulate(e.totals());
        }
        (totals, evals)
    }

    /// Evaluates one window schedule.
    pub fn evaluate_window(&self, ws: &WindowSchedule) -> WindowEval {
        self.evaluate_window_with(ws, &mut self.cost_table())
    }

    /// Evaluates a slice of candidate window schedules with shared
    /// per-slice setup: one dense cost table serves every candidate in the
    /// slice, so each cost-database key is queried once per slice rather
    /// than once per candidate. Results are bit-identical to calling
    /// [`Evaluator::evaluate_window`] per element, in order.
    pub fn evaluate_windows(&self, windows: &[&WindowSchedule]) -> Vec<WindowEval> {
        let mut costs = self.cost_table();
        windows
            .iter()
            .map(|w| self.evaluate_window_with(w, &mut costs))
            .collect()
    }

    /// An empty cost table for one evaluation chunk.
    fn cost_table(&self) -> CostTable<'_, 'a> {
        CostTable {
            ev: self,
            reader: self.db.reader(),
            spans: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// [`Evaluator::evaluate_window`] against a caller-provided cost table
    /// (the batched hot path).
    fn evaluate_window_with(
        &self,
        ws: &WindowSchedule,
        costs: &mut CostTable<'_, '_>,
    ) -> WindowEval {
        costs.cover(ws);
        let num_models = self.scenario.models().len();
        let mut per_model: Vec<Option<ModelWindowEval>> = vec![None; num_models];

        // pass A: choose mini-batches and build segment plans
        let mut plans: Vec<(usize, u64, u64, Vec<SegPlan>)> = Vec::new(); // (model, b', passes, segs)
        for m in 0..num_models {
            if ws.segments[m].is_empty() {
                continue;
            }
            let batch = self.scenario.models()[m].batch;
            let (bprime, segs) = self.plan_model(ws, m, batch, costs);
            let passes = batch / bprime;
            plans.push((m, bprime, passes, segs));
        }

        // register all window flows for the δ congestion term
        let mut loads = LinkLoads::new(self.mcm);
        for (_, _, passes, segs) in &plans {
            for sp in segs {
                loads.record(sp.in_src, Loc::Chiplet(sp.chiplet), sp.in_bytes * passes);
                if let Some(dst) = sp.out_dst {
                    loads.record(Loc::Chiplet(sp.chiplet), dst, sp.out_bytes * passes);
                }
                let w_flows = if sp.restream_weights { *passes } else { 1 };
                loads.record(
                    Loc::Offchip,
                    Loc::Chiplet(sp.chiplet),
                    sp.weight_bytes * w_flows,
                );
            }
        }

        // pass B: final per-model latency/energy with contention
        let mut window_latency = 0.0f64;
        let mut window_energy = 0.0f64;
        for (m, bprime, passes, segs) in &plans {
            let eval = self.finalize_model(*m, *bprime, *passes, segs, &loads);
            window_latency = window_latency.max(eval.latency_s);
            window_energy += eval.energy_j;
            per_model[*m] = Some(eval);
        }

        WindowEval {
            latency_s: window_latency,
            energy_j: window_energy,
            per_model,
        }
    }

    /// Chooses the mini-batch `b′` for model `m` and builds its segment
    /// plans. Capacity drives the trade-off (the paper's "max number of
    /// samples any chiplet can process at a time"): a segment whose total
    /// weights plus activation tile fit its chiplet's L2 loads weights from
    /// DRAM once per window; otherwise weights re-stream every pass. Among
    /// all batch divisors the one minimizing the evaluator's target metric
    /// (over the model's rough latency/energy) is kept.
    fn plan_model(
        &self,
        ws: &WindowSchedule,
        m: usize,
        batch: u64,
        costs: &mut CostTable<'_, '_>,
    ) -> (u64, Vec<SegPlan>) {
        let mut best: Option<(f64, u64, Vec<SegPlan>)> = None;
        for (d, &bp) in self.divisors[m].iter().enumerate() {
            let segs = self.plan_at(ws, m, d, costs);
            let passes = batch / bp;
            let totals = self.rough_totals(&segs, passes);
            let score = self.metric.score(&totals);
            if best.as_ref().map(|(s, _, _)| score < *s).unwrap_or(true) {
                best = Some((score, bp, segs));
            }
        }
        let (_, bp, segs) = best.expect("divisors always include 1");
        (bp, segs)
    }

    /// Uncontended latency/energy estimate used for the `b′` choice:
    /// computation, boundary transfers, and weight (re)streaming, without δ.
    fn rough_totals(&self, segs: &[SegPlan], passes: u64) -> EvalTotals {
        let mut lats = Vec::with_capacity(segs.len());
        let mut one_time = 0.0f64;
        let mut energy = 0.0f64;
        for sp in segs {
            let dst = Loc::Chiplet(sp.chiplet);
            let in_cost = self.mcm.transfer(sp.in_src, dst, sp.in_bytes);
            let mut lat = sp.comp_time_s + in_cost.time_s;
            let mut pass_energy = sp.comp_energy_j + in_cost.energy_j;
            if let Some(odst) = sp.out_dst {
                let out = self.mcm.transfer(dst, odst, sp.out_bytes);
                lat += out.time_s;
                pass_energy += out.energy_j;
            }
            let w = self.mcm.transfer(Loc::Offchip, dst, sp.weight_bytes);
            if sp.restream_weights {
                lat += w.time_s;
                pass_energy += w.energy_j;
            } else {
                one_time += w.time_s;
                energy += w.energy_j;
            }
            energy += pass_energy * passes as f64;
            lats.push(lat);
        }
        EvalTotals {
            latency_s: pipeline_latency_from(&lats, passes) + one_time,
            energy_j: energy,
        }
    }

    /// Builds segment plans for the mini-batch at position `d` of model
    /// `m`'s divisor list.
    fn plan_at(
        &self,
        ws: &WindowSchedule,
        m: usize,
        d: usize,
        costs: &mut CostTable<'_, '_>,
    ) -> Vec<SegPlan> {
        let bp = self.divisors[m][d];
        let layers = self.scenario.models()[m].model.layers();
        let segs = &ws.segments[m];
        let places = &ws.placement[m];
        let dt = DataType::Int8;
        let mut out = Vec::with_capacity(segs.len());
        for (k, (seg, &chiplet)) in segs.iter().zip(places).enumerate() {
            let class = self.mcm.chiplet(chiplet);
            let mut comp_time = 0.0f64;
            let mut comp_energy = 0.0f64;
            let mut weight_bytes = 0u64;
            let mut act_peak = 0u64;
            for l in seg.layer_range() {
                let (time_s, energy_j) = costs.get(m, l, d, chiplet);
                comp_time += time_s;
                comp_energy += energy_j;
                weight_bytes += layers[l].weight_bytes(dt);
                act_peak =
                    act_peak.max(layers[l].input_bytes(dt) * bp + layers[l].output_bytes(dt) * bp);
            }
            // residency rule: all segment weights + one activation tile
            let restream_weights = weight_bytes + act_peak / ACT_TILES > class.l2_bytes;
            let in_bytes = layers[seg.start].input_bytes(dt) * bp;
            let out_bytes = layers[seg.end - 1].output_bytes(dt) * bp;
            let in_src = if k == 0 {
                Loc::Offchip
            } else {
                Loc::Chiplet(places[k - 1])
            };
            let out_dst = if k + 1 == segs.len() {
                Some(Loc::Offchip)
            } else {
                None // charged as the next segment's input transfer
            };
            out.push(SegPlan {
                chiplet,
                comp_time_s: comp_time,
                comp_energy_j: comp_energy,
                in_src,
                in_bytes,
                out_dst,
                out_bytes,
                weight_bytes,
                restream_weights,
            });
        }
        out
    }

    /// Applies communication and contention costs and the pipeline formula.
    fn finalize_model(
        &self,
        m: usize,
        bprime: u64,
        passes: u64,
        segs: &[SegPlan],
        loads: &LinkLoads<'_>,
    ) -> ModelWindowEval {
        let mut seg_lat = Vec::with_capacity(segs.len());
        let mut energy = 0.0f64;
        let mut weight_time = 0.0f64;
        for sp in segs {
            let dst = Loc::Chiplet(sp.chiplet);
            let delta_in = loads.delta_for(sp.in_src, dst, sp.in_bytes * passes) / passes as f64;
            let in_cost = self
                .mcm
                .transfer_with_delta(sp.in_src, dst, sp.in_bytes, delta_in);
            let (out_time, out_energy) = match sp.out_dst {
                Some(odst) => {
                    let delta_out =
                        loads.delta_for(dst, odst, sp.out_bytes * passes) / passes as f64;
                    let c = self
                        .mcm
                        .transfer_with_delta(dst, odst, sp.out_bytes, delta_out);
                    (c.time_s, c.energy_j)
                }
                None => (0.0, 0.0),
            };
            let w_cost = self.mcm.transfer(Loc::Offchip, dst, sp.weight_bytes);
            let mut lat = sp.comp_time_s + in_cost.time_s + out_time;
            let w_energy = if sp.restream_weights {
                // weights cross the DRAM interface on every pass
                lat += w_cost.time_s;
                w_cost.energy_j * passes as f64
            } else {
                // resident for the window: one up-front load
                weight_time += w_cost.time_s;
                w_cost.energy_j
            };
            seg_lat.push(lat);
            energy += (sp.comp_energy_j + in_cost.energy_j + out_energy) * passes as f64 + w_energy;
        }
        let latency = pipeline_latency_from(&seg_lat, passes) + weight_time;
        ModelWindowEval {
            model: m,
            latency_s: latency,
            energy_j: energy,
            mini_batch: bprime,
            passes,
            seg_latency_s: seg_lat,
        }
    }
}

/// One evaluation chunk's dense view of the cost database: `(latency,
/// energy)` cells indexed by (model, layer, position in the model's
/// batch-divisor list, chiplet class), each filled from the chunk's
/// [`CostReader`] the first time it is read.
///
/// A cell holds exactly what the reader returned, so reading through the
/// table is bit-identical to querying per layer. Keys are first queried in
/// the order the evaluator first needs them, so misses are computed, counted
/// and stamped as the per-query path would. The table covers only the layer
/// span of the windows it serves and is laid out anew when a window leaves
/// that span, so its setup stays proportional to the windows evaluated.
struct CostTable<'e, 'a> {
    ev: &'e Evaluator<'a>,
    reader: CostReader<'a>,
    /// Per model: the layer span the table covers and its first cell.
    spans: Vec<TableSpan>,
    cells: Vec<Option<(f64, f64)>>,
}

/// One model's slice of a [`CostTable`]: layers `first..first + len`, laid
/// out divisor-major, then class, then layer.
#[derive(Debug, Clone, Copy)]
struct TableSpan {
    first: usize,
    len: usize,
    offset: usize,
}

impl CostTable<'_, '_> {
    /// Makes the table cover every segment of `ws`, clearing it when one
    /// falls outside the span laid out so far.
    fn cover(&mut self, ws: &WindowSchedule) {
        let covered = self.spans.len() == ws.segments.len()
            && ws.segments.iter().zip(&self.spans).all(|(segs, span)| {
                segs.iter()
                    .all(|s| s.start >= span.first && s.end <= span.first + span.len)
            });
        if covered {
            return;
        }
        self.spans.clear();
        let mut offset = 0;
        for (segs, divs) in ws.segments.iter().zip(&self.ev.divisors) {
            let first = segs.iter().map(|s| s.start).min().unwrap_or(0);
            let end = segs.iter().map(|s| s.end).max().unwrap_or(first);
            let len = end - first;
            self.spans.push(TableSpan { first, len, offset });
            offset += len * divs.len() * self.ev.classes;
        }
        self.cells.clear();
        self.cells.resize(offset, None);
    }

    /// The `(latency, energy)` of layer `l` of model `m` at divisor
    /// position `d` on `chiplet`'s class.
    fn get(&mut self, m: usize, l: usize, d: usize, chiplet: ChipletId) -> (f64, f64) {
        let ev = self.ev;
        let span = self.spans[m];
        let class = ev.class_of[chiplet];
        let cell =
            &mut self.cells[span.offset + (d * ev.classes + class) * span.len + l - span.first];
        *cell.get_or_insert_with(|| {
            let kind = &ev.scenario.models()[m].model.layers()[l].kind;
            let cost = self
                .reader
                .get(ev.mcm.chiplet(chiplet), kind, ev.divisors[m][d]);
            (cost.time_s, cost.energy_j)
        })
    }
}

/// The §III-E pipelined latency for per-pass segment latencies.
fn pipeline_latency_from(seg_lat: &[f64], passes: u64) -> f64 {
    let sum: f64 = seg_lat.iter().sum();
    let max = seg_lat.iter().cloned().fold(0.0f64, f64::max);
    sum + passes.saturating_sub(1) as f64 * max
}

/// All divisors of `n` in descending order (`n` itself first, 1 last).
fn divisors_desc(n: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (1..=n).filter(|d| n.is_multiple_of(*d)).collect();
    v.reverse();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Segment, TimeWindow};
    use scar_maestro::Dataflow;
    use scar_mcm::templates::{het_sides_3x3, simba_3x3, Profile};

    fn single_window(sc: &Scenario, placement: Vec<Vec<usize>>) -> WindowSchedule {
        let layers: Vec<_> = sc
            .models()
            .iter()
            .map(|sm| 0..sm.model.num_layers())
            .collect();
        let segments = layers
            .iter()
            .enumerate()
            .map(|(m, r)| {
                let chunks = placement[m].len();
                let n = r.len();
                (0..chunks)
                    .map(|i| {
                        Segment::new(m, r.start + n * i / chunks, r.start + n * (i + 1) / chunks)
                    })
                    .collect()
            })
            .collect();
        WindowSchedule {
            window: TimeWindow { index: 0, layers },
            segments,
            placement,
        }
    }

    #[test]
    fn divisors_descend_and_include_extremes() {
        assert_eq!(divisors_desc(12), vec![12, 6, 4, 3, 2, 1]);
        assert_eq!(divisors_desc(1), vec![1]);
        assert_eq!(divisors_desc(7), vec![7, 1]);
    }

    #[test]
    fn pipeline_formula_matches_paper() {
        let lats = [0.3, 0.5, 0.2];
        // Σ = 1.0, max = 0.5, passes = 4 → 1.0 + 3·0.5 = 2.5
        assert!((pipeline_latency_from(&lats, 4) - 2.5).abs() < 1e-12);
        assert!((pipeline_latency_from(&lats, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_latency_is_max_energy_is_sum() {
        let sc = Scenario::datacenter(1);
        let mcm = het_sides_3x3(Profile::Datacenter);
        let session = crate::Session::new();
        let db = session.database();
        let ev = Evaluator::new(&sc, &mcm, db);
        let ws = single_window(&sc, vec![vec![0], vec![2]]);
        let e = ev.evaluate_window(&ws);
        let m0 = e.per_model[0].as_ref().unwrap();
        let m1 = e.per_model[1].as_ref().unwrap();
        assert!((e.latency_s - m0.latency_s.max(m1.latency_s)).abs() < 1e-12);
        assert!((e.energy_j - (m0.energy_j + m1.energy_j)).abs() < 1e-12);
    }

    #[test]
    fn pipelining_across_chiplets_beats_single_chiplet_for_batched_models() {
        // ResNet-50 at batch 32 on 3 chiplets (pipelined) vs 1 chiplet
        let sc = Scenario::datacenter(3);
        let mcm = simba_3x3(Profile::Datacenter, Dataflow::NvdlaLike);
        let session = crate::Session::new();
        let db = session.database();
        let ev = Evaluator::new(&sc, &mcm, db);
        let resnet = 2; // model index in Sc3
        let solo = single_window(&sc, vec![vec![3], vec![4], vec![0]]);
        let piped = single_window(&sc, vec![vec![3], vec![4], vec![0, 1, 2]]);
        let l_solo = ev.evaluate_window(&solo).per_model[resnet]
            .as_ref()
            .unwrap()
            .latency_s;
        let l_piped = ev.evaluate_window(&piped).per_model[resnet]
            .as_ref()
            .unwrap()
            .latency_s;
        assert!(
            l_piped < l_solo,
            "pipelined {l_piped} should beat solo {l_solo}"
        );
    }

    #[test]
    fn idle_models_are_none() {
        let sc = Scenario::datacenter(1);
        let mcm = het_sides_3x3(Profile::Datacenter);
        let session = crate::Session::new();
        let db = session.database();
        let ev = Evaluator::new(&sc, &mcm, db);
        let mut ws = single_window(&sc, vec![vec![0], vec![2]]);
        ws.window.layers[1] = 0..0;
        ws.segments[1].clear();
        ws.placement[1].clear();
        let e = ev.evaluate_window(&ws);
        assert!(e.per_model[1].is_none());
        assert!(e.per_model[0].is_some());
    }

    #[test]
    fn mini_batch_divides_batch() {
        let sc = Scenario::datacenter(3); // ResNet batch 32
        let mcm = simba_3x3(Profile::Datacenter, Dataflow::NvdlaLike);
        let session = crate::Session::new();
        let db = session.database();
        let ev = Evaluator::new(&sc, &mcm, db);
        let ws = single_window(&sc, vec![vec![3], vec![4], vec![0, 1, 2]]);
        let e = ev.evaluate_window(&ws);
        let r = e.per_model[2].as_ref().unwrap();
        assert_eq!(r.mini_batch * r.passes, 32);
    }

    #[test]
    fn schedule_totals_sum_windows() {
        let sc = Scenario::datacenter(1);
        let mcm = het_sides_3x3(Profile::Datacenter);
        let session = crate::Session::new();
        let db = session.database();
        let ev = Evaluator::new(&sc, &mcm, db);
        let n0 = sc.models()[0].model.num_layers();
        let n1 = sc.models()[1].model.num_layers();
        let w0 = WindowSchedule {
            window: TimeWindow {
                index: 0,
                layers: vec![0..n0 / 2, 0..n1 / 2],
            },
            segments: vec![
                vec![Segment::new(0, 0, n0 / 2)],
                vec![Segment::new(1, 0, n1 / 2)],
            ],
            placement: vec![vec![0], vec![2]],
        };
        let w1 = WindowSchedule {
            window: TimeWindow {
                index: 1,
                layers: vec![n0 / 2..n0, n1 / 2..n1],
            },
            segments: vec![
                vec![Segment::new(0, n0 / 2, n0)],
                vec![Segment::new(1, n1 / 2, n1)],
            ],
            placement: vec![vec![0], vec![2]],
        };
        let si = ScheduleInstance {
            windows: vec![w0, w1],
        };
        let (totals, evals) = ev.evaluate_schedule(&si);
        assert_eq!(evals.len(), 2);
        let sum_lat: f64 = evals.iter().map(|e| e.latency_s).sum();
        let sum_en: f64 = evals.iter().map(|e| e.energy_j).sum();
        assert!((totals.latency_s - sum_lat).abs() < 1e-12);
        assert!((totals.energy_j - sum_en).abs() < 1e-12);
    }

    #[test]
    fn contention_penalizes_shared_links() {
        // two models pipelined through overlapping routes vs disjoint ones
        let sc = Scenario::datacenter(3);
        let mcm = simba_3x3(Profile::Datacenter, Dataflow::NvdlaLike);
        let session = crate::Session::new();
        let db = session.database();
        let ev = Evaluator::new(&sc, &mcm, db);
        let disjoint = single_window(&sc, vec![vec![0, 1], vec![6, 7], vec![3, 4, 5]]);
        let e = ev.evaluate_window(&disjoint);
        assert!(e.latency_s > 0.0 && e.energy_j > 0.0);
    }

    /// One chunk's cost table serves every window of a batch: windows of
    /// one span under different placements reuse its cells, and windows
    /// over other spans lay it out anew. Every entry point must agree bit
    /// for bit with evaluating each window on its own.
    #[test]
    fn batched_evaluation_is_bit_identical_to_per_window() {
        let sc = Scenario::datacenter(3); // ResNet at batch 32: six divisors
        let session = crate::Session::new();
        let db = session.database();
        let halves = |sc: &Scenario, second: bool, placement: Vec<Vec<usize>>| {
            let mut ws = single_window(sc, placement);
            for (m, sm) in sc.models().iter().enumerate() {
                let n = sm.model.num_layers();
                let (start, end) = if second { (n / 2, n) } else { (0, n / 2) };
                ws.window.layers[m] = start..end;
                let k = ws.placement[m].len();
                ws.segments[m] = (0..k)
                    .map(|i| {
                        let len = end - start;
                        Segment::new(m, start + len * i / k, start + len * (i + 1) / k)
                    })
                    .collect();
            }
            ws
        };
        for mcm in scar_mcm::templates::all_3x3(Profile::Datacenter) {
            let ev = Evaluator::new(&sc, &mcm, db);
            let windows = vec![
                single_window(&sc, vec![vec![3], vec![4], vec![0, 1, 2]]),
                single_window(&sc, vec![vec![0, 1], vec![6, 7], vec![3, 4, 5]]),
                halves(&sc, false, vec![vec![8], vec![5, 2], vec![6, 3, 0]]),
                single_window(&sc, vec![vec![8], vec![5], vec![6, 3, 0, 1]]),
                halves(&sc, true, vec![vec![1], vec![2], vec![5, 4]]),
                halves(&sc, true, vec![vec![4, 3], vec![0], vec![7, 8, 5]]),
            ];
            let single: Vec<WindowEval> = windows.iter().map(|w| ev.evaluate_window(w)).collect();
            let refs: Vec<&WindowSchedule> = windows.iter().collect();
            let batched = ev.evaluate_windows(&refs);
            assert_eq!(
                format!("{batched:?}"),
                format!("{single:?}"),
                "{}",
                mcm.name()
            );
            let schedule = ScheduleInstance { windows };
            for parallelism in [Parallelism::Serial, Parallelism::Fixed(4)] {
                let (totals, evals) = ev.evaluate_schedule_par(&schedule, parallelism);
                assert_eq!(
                    format!("{evals:?}"),
                    format!("{single:?}"),
                    "{}",
                    mcm.name()
                );
                let mut sum = EvalTotals::default();
                single.iter().for_each(|e| sum.accumulate(e.totals()));
                assert_eq!(format!("{totals:?}"), format!("{sum:?}"));
            }
        }
    }

    #[test]
    fn heavier_batch_means_heavier_window() {
        let sc2 = Scenario::datacenter(2); // ResNet b=1
        let sc3 = Scenario::datacenter(3); // ResNet b=32
        let mcm = simba_3x3(Profile::Datacenter, Dataflow::NvdlaLike);
        let session = crate::Session::new();
        let db = session.database();
        let ev2 = Evaluator::new(&sc2, &mcm, db);
        let ev3 = Evaluator::new(&sc3, &mcm, db);
        let ws2 = single_window(&sc2, vec![vec![3], vec![4], vec![0]]);
        let ws3 = single_window(&sc3, vec![vec![3], vec![4], vec![0]]);
        let r2 = ev2.evaluate_window(&ws2).per_model[2]
            .as_ref()
            .unwrap()
            .energy_j;
        let r3 = ev3.evaluate_window(&ws3).per_model[2]
            .as_ref()
            .unwrap()
            .energy_j;
        assert!(r3 > r2 * 10.0);
    }
}
