//! One driver per table and figure of the paper's evaluation.
//!
//! Each function returns [`Table`]s holding exactly the series the paper
//! plots; the `repro` binary prints them and archives CSVs. Cells whose
//! algorithm exceeds the per-cell time budget are reported as `>budget` —
//! mirroring the paper's "we did not report the running times over 1
//! hour" convention.
//!
//! Scaling note: at [`Scale::Laptop`] the datasets are smaller than the
//! paper's (see `DESIGN.md` §5), so absolute seconds differ; the *shapes*
//! — who wins, how curves respond to each parameter — are the
//! reproduction target (`EXPERIMENTS.md` records both).

use std::sync::Mutex;
use std::time::Duration;

use pfcim_core::{FcpMethod, Miner, MinerConfig, MiningOutcome, Variant};
use utdb::UncertainDatabase;

use crate::datasets::{abs_min_sup, DatasetKind, Scale};
use crate::observe::Observe;
use crate::report::{phase_cells, phase_headers, secs, Table};

/// Default per-cell wall-clock budget.
pub const DEFAULT_CELL_BUDGET: Duration = Duration::from_secs(30);

/// The ε (and δ) sweep grid of Figs. 8, 9 and 11.
pub const EPS_GRID: [f64; 6] = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3];

/// The pfct sweep grid of Fig. 7.
pub const PFCT_GRID: [f64; 5] = [0.5, 0.6, 0.7, 0.8, 0.9];

fn cell(outcome: &MiningOutcome) -> String {
    if outcome.timed_out {
        ">budget".to_owned()
    } else {
        secs(outcome.elapsed)
    }
}

fn budgeted(cfg: MinerConfig, budget: Duration) -> MinerConfig {
    cfg.with_time_budget(budget)
}

/// Fig. 5 — Naive vs MPFCI running time w.r.t. `min_sup`, both datasets,
/// with the MPFCI run's per-phase time breakdown as extra columns.
pub fn fig5(scale: Scale, budget: Duration, obs: &mut Observe) -> Vec<Table> {
    DatasetKind::ALL
        .iter()
        .map(|&kind| {
            let db = kind.uncertain(scale, 42);
            let mut header: Vec<String> = ["min_sup", "Naive", "MPFCI", "PFIs_checked_by_naive"]
                .map(String::from)
                .to_vec();
            header.extend(phase_headers("mpfci"));
            let mut table = Table::new(
                &format!(
                    "Fig 5 ({}) — runtime [s] vs min_sup: Naive vs MPFCI",
                    kind.name()
                ),
                &header.iter().map(String::as_str).collect::<Vec<_>>(),
            );
            for rel in kind.min_sup_grid() {
                let ms = abs_min_sup(&db, rel);
                // Paper-faithful checking: `ApproxFCP` is the only FCP
                // routine in the paper; the exact inclusion–exclusion
                // fallback of this library is disabled for timing runs.
                let cfg = budgeted(
                    MinerConfig::new(ms, 0.8).with_fcp_method(FcpMethod::ApproxOnly),
                    budget,
                );
                let naive = obs.run_naive(&db, &cfg);
                let mpfci = obs.run(&db, &cfg);
                let mut row = vec![
                    format!("{rel}"),
                    cell(&naive),
                    cell(&mpfci),
                    naive.stats.nodes_visited.to_string(),
                ];
                row.extend(phase_cells(&mpfci.timers));
                table.push_row(row);
            }
            table
        })
        .collect()
}

/// Fig. 6 — running time w.r.t. `min_sup` for the five pruning variants.
pub fn fig6(scale: Scale, budget: Duration, obs: &mut Observe) -> Vec<Table> {
    let variants = [
        Variant::Mpfci,
        Variant::NoCh,
        Variant::NoSuper,
        Variant::NoSub,
        Variant::NoBound,
    ];
    sweep_variants(
        scale,
        budget,
        &variants,
        "Fig 6",
        |kind| kind.min_sup_grid().to_vec(),
        |db, kind, value, _| {
            let _ = kind;
            MinerConfig::new(abs_min_sup(db, value), 0.8).with_fcp_method(FcpMethod::ApproxOnly)
        },
        "min_sup",
        obs,
    )
}

/// Fig. 7 — running time w.r.t. `pfct` for the five pruning variants.
pub fn fig7(scale: Scale, budget: Duration, obs: &mut Observe) -> Vec<Table> {
    let variants = [
        Variant::Mpfci,
        Variant::NoCh,
        Variant::NoSuper,
        Variant::NoSub,
        Variant::NoBound,
    ];
    sweep_variants(
        scale,
        budget,
        &variants,
        "Fig 7",
        |_| PFCT_GRID.to_vec(),
        |db, kind, value, _| {
            MinerConfig::new(abs_min_sup(db, kind.default_min_sup_rel()), value)
                .with_fcp_method(FcpMethod::ApproxOnly)
        },
        "pfct",
        obs,
    )
}

/// Fig. 8 — running time w.r.t. `ε`.
///
/// Run at a `min_sup` one notch below the dataset default so that the
/// sampling path actually carries work at laptop scale (the effect the
/// figure isolates: only `MPFCI-NoBound`, which cannot skip `ApproxFCP`,
/// responds to `ε`).
pub fn fig8(scale: Scale, budget: Duration, obs: &mut Observe) -> Vec<Table> {
    sweep_epsilon_delta(scale, budget, "Fig 8", "epsilon", true, obs)
}

/// Fig. 9 — running time w.r.t. `δ`; same setup as Fig. 8.
pub fn fig9(scale: Scale, budget: Duration, obs: &mut Observe) -> Vec<Table> {
    sweep_epsilon_delta(scale, budget, "Fig 9", "delta", false, obs)
}

fn sweep_epsilon_delta(
    scale: Scale,
    budget: Duration,
    fig: &str,
    param: &str,
    vary_epsilon: bool,
    obs: &mut Observe,
) -> Vec<Table> {
    let variants = [
        Variant::Mpfci,
        Variant::NoCh,
        Variant::NoSuper,
        Variant::NoSub,
        Variant::NoBound,
    ];
    sweep_variants(
        scale,
        budget,
        &variants,
        fig,
        |_| EPS_GRID.to_vec(),
        move |db, kind, value, _| {
            let rel = sampling_min_sup_rel(kind);
            let (eps, delta) = if vary_epsilon {
                (value, 0.1)
            } else {
                (0.1, value)
            };
            MinerConfig::new(abs_min_sup(db, rel), 0.8)
                .with_fcp_method(FcpMethod::ApproxOnly)
                .with_approximation(eps, delta)
        },
        param,
        obs,
    )
}

/// `min_sup` one notch below the default, so the checking phase has work.
fn sampling_min_sup_rel(kind: DatasetKind) -> f64 {
    match kind {
        DatasetKind::Mushroom => 0.25,
        DatasetKind::Quest => 0.3,
    }
}

/// Shared sweep driver: one table per dataset, one column per variant,
/// plus a per-phase time breakdown of the *first* (reference) variant.
#[allow(clippy::too_many_arguments)]
fn sweep_variants(
    scale: Scale,
    budget: Duration,
    variants: &[Variant],
    fig: &str,
    grid: impl Fn(DatasetKind) -> Vec<f64>,
    make_cfg: impl Fn(&UncertainDatabase, DatasetKind, f64, Variant) -> MinerConfig,
    param: &str,
    obs: &mut Observe,
) -> Vec<Table> {
    DatasetKind::ALL
        .iter()
        .map(|&kind| {
            let db = kind.uncertain(scale, 42);
            let mut header: Vec<String> = vec![param.to_owned()];
            header.extend(variants.iter().map(|v| v.name().to_owned()));
            header.extend(phase_headers(variants[0].name()));
            let mut table = Table::new(
                &format!("{fig} ({}) — runtime [s] vs {param}", kind.name()),
                &header.iter().map(String::as_str).collect::<Vec<_>>(),
            );
            for &value in &grid(kind) {
                let mut row = vec![format!("{value}")];
                let mut reference_timers = None;
                for &variant in variants {
                    let cfg = budgeted(
                        make_cfg(&db, kind, value, variant).with_variant(variant),
                        budget,
                    );
                    let outcome = obs.run(&db, &cfg);
                    row.push(cell(&outcome));
                    if reference_timers.is_none() {
                        reference_timers = Some(outcome.timers);
                    }
                }
                row.extend(phase_cells(
                    &reference_timers.expect("variants is non-empty"),
                ));
                table.push_row(row);
            }
            table
        })
        .collect()
}

/// Fig. 10 — compression quality: counts of FI, FCI, PFI and PFCI w.r.t.
/// `min_sup` under the two Gaussian configurations of the Mushroom-like
/// dataset.
pub fn fig10(scale: Scale, budget: Duration, obs: &mut Observe) -> Vec<Table> {
    let kind = DatasetKind::Mushroom;
    let certain = kind.certain(scale, 42);
    [(0.8, 0.1), (0.5, 0.5)]
        .iter()
        .map(|&(mean, var)| {
            let db = kind.uncertain_with(scale, 42, mean, var);
            let mut table = Table::new(
                &format!("Fig 10 (Mushroom, mean={mean}, var={var}) — itemset counts vs min_sup"),
                &["min_sup", "FI", "FCI", "PFI", "PFCI", "FCI/FI", "PFCI/PFI"],
            );
            let grid = [0.15, 0.2, 0.25, 0.3];
            let count_certain = |rel: f64| {
                let ms_exact = abs_min_sup(&certain, rel);
                let fi = fim::frequent_itemsets_fpgrowth(&certain, ms_exact).len();
                let fci = fim::frequent_closed_itemsets(&certain, ms_exact).len();
                (fi, fci)
            };
            let mut rows: Vec<(f64, [usize; 4])> = Vec::new();
            if obs.is_active() {
                // Observed runs must hit a single sink in a deterministic
                // order, so trace/progress mode runs the grid serially.
                for &rel in &grid {
                    let (fi, fci) = count_certain(rel);
                    let ms = abs_min_sup(&db, rel);
                    let pfi = pfim::probabilistic_frequent_itemsets(&db, ms, 0.8).len();
                    let pfci = obs
                        .run(&db, &budgeted(MinerConfig::new(ms, 0.8), budget))
                        .results
                        .len();
                    rows.push((rel, [fi, fci, pfi, pfci]));
                }
            } else {
                // Counting runs are timing-insensitive, so the four
                // support levels run concurrently on scoped threads.
                let shared: Mutex<Vec<(f64, [usize; 4])>> = Mutex::new(Vec::new());
                std::thread::scope(|scope| {
                    for &rel in &grid {
                        let count_certain = &count_certain;
                        let db = &db;
                        let shared = &shared;
                        scope.spawn(move || {
                            let (fi, fci) = count_certain(rel);
                            let ms = abs_min_sup(db, rel);
                            let pfi = pfim::probabilistic_frequent_itemsets(db, ms, 0.8).len();
                            let pfci = Miner::new(db)
                                .config(budgeted(MinerConfig::new(ms, 0.8), budget))
                                .run()
                                .results
                                .len();
                            shared
                                .lock()
                                .expect("fig10 row lock")
                                .push((rel, [fi, fci, pfi, pfci]));
                        });
                    }
                });
                rows = shared.into_inner().expect("fig10 rows lock");
            }
            rows.sort_by(|a, b| a.0.total_cmp(&b.0));
            let ratio = |a: usize, b: usize| {
                if b == 0 {
                    "-".to_owned()
                } else {
                    format!("{:.3}", a as f64 / b as f64)
                }
            };
            for (rel, [fi, fci, pfi, pfci]) in rows {
                table.push_row(vec![
                    format!("{rel}"),
                    fi.to_string(),
                    fci.to_string(),
                    pfi.to_string(),
                    pfci.to_string(),
                    ratio(fci, fi),
                    ratio(pfci, pfi),
                ]);
            }
            table
        })
        .collect()
}

/// Fig. 11 — approximation quality: precision and recall of the sampled
/// result set against the exactly-decided truth, w.r.t. `ε` and `δ`.
///
/// Truth: the default MPFCI run, whose decisions at these parameters are
/// made entirely by exact bounds/inclusion–exclusion (asserted via the
/// `fcp_sampled == 0` counter). Measured: `MPFCI-NoBound` with pure
/// `ApproxFCP` checking, the configuration whose output actually depends
/// on `ε`/`δ`.
pub fn fig11(scale: Scale, budget: Duration, obs: &mut Observe) -> Vec<Table> {
    let kind = DatasetKind::Mushroom;
    let db = kind.uncertain(scale, 42);
    let ms = abs_min_sup(&db, sampling_min_sup_rel(kind));
    let truth_cfg = MinerConfig::new(ms, 0.8);
    let truth = obs.run(&db, &truth_cfg);
    assert!(
        truth.stats.fcp_sampled == 0,
        "ground truth must be decided without sampling"
    );
    let truth_set = truth.itemsets();

    let mut tables = Vec::new();
    for vary_epsilon in [true, false] {
        let param = if vary_epsilon { "epsilon" } else { "delta" };
        let mut table = Table::new(
            &format!("Fig 11 (Mushroom) — precision/recall vs {param}"),
            &[param, "precision", "recall", "returned", "true"],
        );
        for &value in &EPS_GRID {
            let (eps, delta) = if vary_epsilon {
                (value, 0.1)
            } else {
                (0.1, value)
            };
            let cfg = budgeted(
                MinerConfig::new(ms, 0.8)
                    .with_variant(Variant::NoBound)
                    .with_fcp_method(FcpMethod::ApproxOnly)
                    .with_approximation(eps, delta)
                    .with_seed(0x000f_1611 ^ (value * 1000.0) as u64),
                budget,
            );
            let outcome = obs.run(&db, &cfg);
            if outcome.timed_out {
                // An aborted run returns a partial set; precision/recall
                // against it would be meaningless.
                table.push_row(vec![
                    format!("{value}"),
                    ">budget".into(),
                    ">budget".into(),
                    "-".into(),
                    truth_set.len().to_string(),
                ]);
                continue;
            }
            let got = outcome.itemsets();
            let inter = got.iter().filter(|x| truth_set.contains(x)).count();
            let precision = if got.is_empty() {
                1.0
            } else {
                inter as f64 / got.len() as f64
            };
            let recall = if truth_set.is_empty() {
                1.0
            } else {
                inter as f64 / truth_set.len() as f64
            };
            table.push_row(vec![
                format!("{value}"),
                format!("{precision:.3}"),
                format!("{recall:.3}"),
                got.len().to_string(),
                truth_set.len().to_string(),
            ]);
        }
        tables.push(table);
    }
    tables
}

/// Fig. 12 — DFS vs BFS running time w.r.t. `min_sup`, both datasets.
pub fn fig12(scale: Scale, budget: Duration, obs: &mut Observe) -> Vec<Table> {
    sweep_variants(
        scale,
        budget,
        &[Variant::Mpfci, Variant::Bfs],
        "Fig 12",
        |kind| kind.min_sup_grid().to_vec(),
        |db, _, value, _| {
            MinerConfig::new(abs_min_sup(db, value), 0.8).with_fcp_method(FcpMethod::ApproxOnly)
        },
        "min_sup",
        obs,
    )
}

/// Table VII — the feature matrix of the algorithm variants.
pub fn table7() -> Table {
    let mut table = Table::new(
        "Table VII — algorithm variants",
        &["Algorithm", "CH", "Super", "Sub", "PB", "Framework"],
    );
    for variant in Variant::ALL {
        let cfg = MinerConfig::new(2, 0.8).with_variant(variant);
        let tick = |b: bool| if b { "yes" } else { "no" }.to_owned();
        table.push_row(vec![
            variant.name().to_owned(),
            tick(cfg.pruning.chernoff_hoeffding),
            tick(cfg.pruning.superset),
            tick(cfg.pruning.subset),
            tick(cfg.pruning.probability_bounds),
            format!("{:?}", cfg.search).to_uppercase(),
        ]);
    }
    table
}

/// Table VIII — dataset characteristics.
pub fn table8(scale: Scale) -> Table {
    let mut table = Table::new(
        "Table VIII — dataset characteristics",
        &[
            "Dataset",
            "Transactions",
            "Items",
            "AvgLen",
            "MaxLen",
            "Gaussian(mean,var)",
        ],
    );
    for kind in DatasetKind::ALL {
        let db = kind.certain(scale, 42);
        let s = db.stats();
        let (mean, var) = kind.default_gaussian();
        table.push_row(vec![
            kind.name().to_owned(),
            s.num_transactions.to_string(),
            s.num_items.to_string(),
            format!("{:.1}", s.avg_length),
            s.max_length.to_string(),
            format!("({mean}, {var})"),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAST: Duration = Duration::from_secs(5);

    #[test]
    fn table7_matches_paper_matrix() {
        let t = table7();
        let text = t.to_text();
        assert_eq!(t.len(), 6);
        assert!(text.contains("MPFCI-NoBound"));
        assert!(text.contains("BFS"));
    }

    #[test]
    fn table8_has_both_datasets() {
        let t = table8(Scale::Tiny);
        assert_eq!(t.len(), 2);
        assert!(t.to_text().contains("T20I10D30KP40"));
    }

    #[test]
    fn fig5_produces_full_grids() {
        let mut obs = Observe::none();
        let tables = fig5(Scale::Tiny, FAST, &mut obs);
        assert_eq!(tables.len(), 2);
        for t in &tables {
            assert_eq!(t.len(), 5, "{}", t.title());
            assert!(t
                .to_csv()
                .lines()
                .next()
                .unwrap()
                .contains("mpfci_freq_dp_s"));
        }
        assert!(obs.runs > 0, "runs are mediated by the observer");
    }

    #[test]
    fn fig10_counts_are_ordered() {
        let tables = fig10(Scale::Tiny, FAST, &mut Observe::none());
        assert_eq!(tables.len(), 2);
        for t in &tables {
            let csv = t.to_csv();
            for line in csv.lines().skip(1) {
                let cells: Vec<&str> = line.split(',').collect();
                let fi: usize = cells[1].parse().unwrap();
                let fci: usize = cells[2].parse().unwrap();
                let pfi: usize = cells[3].parse().unwrap();
                let pfci: usize = cells[4].parse().unwrap();
                assert!(fci <= fi, "closed compresses: {line}");
                assert!(pfci <= pfi, "probabilistic closed compresses: {line}");
            }
        }
    }

    #[test]
    fn fig12_has_dfs_and_bfs_columns() {
        let tables = fig12(Scale::Tiny, FAST, &mut Observe::none());
        for t in &tables {
            assert!(t.to_csv().starts_with("min_sup,MPFCI,MPFCI-BFS"));
            assert!(t
                .to_csv()
                .lines()
                .next()
                .unwrap()
                .contains("MPFCI_fcp_sample_s"));
        }
    }
}
