//! Write a smoke dataset as a plain-text `.dat` file — the inputs
//! `scripts/ci.sh` feeds to `pfcim`.
//!
//! ```text
//! cargo run -p pfcim-bench --example gen_smoke_dat -- [--dense] [PATH]
//! ```
//!
//! By default it writes the high-probability dataset, which exercises
//! the exporters end-to-end. `--dense` writes the tiny T20I10D30KP40
//! cell instead, whose mines spend their time building event tables.

use std::path::Path;

use pfcim_bench::datasets::{BenchDataset, DatasetKind, Scale};

fn main() {
    let mut dataset = BenchDataset::HighProb;
    let mut path = "smoke.dat".to_owned();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--dense" => dataset = BenchDataset::Paper(DatasetKind::Quest),
            _ => path = arg,
        }
    }
    let db = dataset.uncertain(Scale::Tiny, 42);
    utdb::io::write_dat(&db, Path::new(&path)).expect("write dataset");
    eprintln!("wrote {path} ({} transactions, {})", db.len(), db.stats());
}
