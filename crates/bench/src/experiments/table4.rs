//! Table 4: memory used by the approximate algorithm's sketches after
//! processing all interactions, per window length.
//!
//! The paper reports resident MB of its C++ process; we report exact heap
//! bytes held by the vHLL sketches (per-node headers, occupancy bitmaps,
//! packed occupied cells and spilled version pairs), which tracks the same
//! trend without OS-level noise (see DESIGN.md's substitution table). The
//! last column is the dense accounting of a store that holds every one of
//! the `β` cells of every node, `n·β` version lists of 56 bytes: the layout
//! whose memory depends on node count alone.

use crate::support::{build_datasets, TABLE_WINDOWS_PERCENT};
use infprop_core::{ApproxIrs, DEFAULT_PRECISION};
use infprop_hll::VersionList;

const MIB: f64 = 1024.0 * 1024.0;

/// Runs the Table 4 experiment.
pub fn run(seed: u64) {
    println!("Table 4: sketch memory (MB) after processing all interactions");
    let header = format!(
        "{:<10} {:>10} {:>10} {:>10} {:>14} {:>12}",
        "Dataset", "w=1%", "w=10%", "w=20%", "entries(w=20%)", "dense n*b*56"
    );
    println!("{header}");
    crate::support::rule(&header);
    for d in build_datasets(seed) {
        let net = &d.data.network;
        let mut mbs = Vec::new();
        let mut last_entries = 0usize;
        for &pct in &TABLE_WINDOWS_PERCENT {
            let approx = ApproxIrs::compute(net, net.window_from_percent(pct));
            mbs.push(approx.heap_bytes() as f64 / MIB);
            last_entries = approx.total_entries();
        }
        let dense_cells = net.num_nodes() << DEFAULT_PRECISION;
        let dense_mb = (dense_cells * std::mem::size_of::<VersionList>()) as f64 / MIB;
        println!(
            "{:<10} {:>10.1} {:>10.1} {:>10.1} {:>14} {:>12.1}",
            d.data.name, mbs[0], mbs[1], mbs[2], last_entries, dense_mb
        );
    }
    println!();
}
