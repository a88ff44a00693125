//! Golden bytes of a saved layered directory, for each oracle kind.
//!
//! The round-trip tests check answers after reopening a directory; these
//! check the bytes themselves. A fixed 30-interaction history goes through
//! append → refresh → compact → append, the directory is saved, and the
//! FNV-1a hash of every file (`gen-1.arena`, `gen-1.tail`, `gen-1.pending`
//! and `MANIFEST`) must equal a recorded constant. A codec that swapped a
//! field, wrote the wrong layer into a file or named the wrong kind in the
//! manifest changes a hash.

use infprop_core::{LayeredApproxOracle, LayeredExactOracle};
use infprop_temporal_graph::{Interaction, InteractionNetwork, Window};
use std::fs;
use std::path::{Path, PathBuf};

const WINDOW: Window = Window(12);
const PRECISION: u8 = 6;

/// 30 interactions over 9 nodes with timestamp ties: the first 20 build the
/// base, the next 5 are appended before the compaction and the last 5
/// after it.
fn history() -> Vec<Interaction> {
    (0..30u32)
        .map(|i| Interaction::from_raw(i % 9, (i + 1 + i / 9) % 9, i64::from(i / 2 * 3)))
        .collect()
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A fresh directory under the system tmpdir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("infprop-golden-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// `(file name, FNV-1a hash)` of every file in `dir`, sorted by name.
fn file_hashes(dir: &Path) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, fnv1a(&fs::read(e.path()).unwrap()))
        })
        .collect();
    out.sort();
    out
}

fn assert_golden(dir: &Path, want: &[(&str, u64)]) {
    let got = file_hashes(dir);
    let got: Vec<(&str, u64)> = got.iter().map(|(n, h)| (n.as_str(), *h)).collect();
    assert_eq!(got, want, "layered directory bytes changed");
}

#[test]
fn exact_layered_directory_bytes_are_golden() {
    let ints = history();
    let net = InteractionNetwork::from_interactions(ints[..20].to_vec());
    let mut oracle = LayeredExactOracle::from_network(&net, WINDOW);
    for &i in &ints[20..25] {
        oracle.append(i).unwrap();
    }
    oracle.refresh();
    oracle.compact();
    for &i in &ints[25..] {
        oracle.append(i).unwrap();
    }
    let dir = scratch_dir("exact");
    oracle.save_layered(&dir).unwrap();
    assert_golden(
        &dir,
        &[
            ("MANIFEST", 0x1f07_172f_fe56_acd4),
            ("gen-1.arena", 0xcc73_58a4_cf2c_a001),
            ("gen-1.pending", 0x857b_4f08_9031_e121),
            ("gen-1.tail", 0x13cb_b182_dd24_c297),
        ],
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn approx_layered_directory_bytes_are_golden() {
    let ints = history();
    let net = InteractionNetwork::from_interactions(ints[..20].to_vec());
    let mut oracle = LayeredApproxOracle::from_network_with_precision(&net, WINDOW, PRECISION);
    for &i in &ints[20..25] {
        oracle.append(i).unwrap();
    }
    oracle.refresh();
    oracle.compact();
    for &i in &ints[25..] {
        oracle.append(i).unwrap();
    }
    let dir = scratch_dir("approx");
    oracle.save_layered(&dir).unwrap();
    assert_golden(
        &dir,
        &[
            ("MANIFEST", 0x2f75_c74b_6c69_f009),
            ("gen-1.arena", 0x9217_e686_4e7b_419c),
            ("gen-1.pending", 0x857b_4f08_9031_e121),
            ("gen-1.tail", 0x13cb_b182_dd24_c297),
        ],
    );
    let _ = fs::remove_dir_all(&dir);
}
