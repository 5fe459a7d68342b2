//! Release-mode golden digest + semantic gates for the `arms_race` ROC
//! artifact.
//!
//! `arms_race` is excluded from `--id all` (an engineering study, not a
//! paper figure), so `golden_exp_digest` never covers it. This test pins an
//! FNV-1a digest of the experiment's rendered tables — the exact bytes `exp
//! --id arms_race` prints and stores as CSVs — and additionally gates the
//! semantic contract the ROC campaign must keep:
//!
//! * **zero benign false positives**: honest charging never convicts at the
//!   `lax` or `default` detector, fault-injected runs at the default
//!   intensity included;
//! * the `default` detector catches the naive CSA with detection rate
//!   ≥ 0.8 *before* 80 % key-node exhaustion at zero fault noise;
//! * the adaptive (stealth) CSA measurably lowers that detection rate while
//!   paying a nonzero real-energy bill.
//!
//! Regenerate after an *intentional* artifact change with:
//!
//! ```text
//! WRSN_BLESS=1 cargo test --release -p wrsn-bench --test golden_roc_digest
//! ```

use wrsn::sim::obs::NullRecorder;
use wrsn_bench::experiments::arms_race;
use wrsn_bench::table::Table;

const DIGEST_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/golden_roc_digest.txt"
);

/// FNV-1a over the rendered tables (the transcript/CSV bytes).
fn digest(tables: &[Table]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for table in tables {
        for byte in table.render().bytes().chain(table.to_csv().bytes()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Row index into the ROC table: presets outermost, then policies, then
/// fault intensities — the sweep order `arms_race::run` emits.
fn row(preset: &str, policy: &str, intensity: usize) -> usize {
    let p = arms_race::PRESETS
        .iter()
        .position(|&x| x == preset)
        .unwrap();
    let pol = arms_race::POLICIES
        .iter()
        .position(|&x| x == policy)
        .unwrap();
    let i = arms_race::INTENSITIES
        .iter()
        .position(|&x| x == intensity)
        .unwrap();
    (p * arms_race::POLICIES.len() + pol) * arms_race::INTENSITIES.len() + i
}

#[test]
fn arms_race_roc_artifact_matches_golden_digest_and_contract() {
    let tables = arms_race::run(&mut NullRecorder);
    assert_eq!(tables.len(), 2, "ROC grid + summary");
    let roc = &tables[0];
    const DETECT: usize = 3;
    const CONVICTIONS: usize = 5;
    const DELIVERED: usize = 9;

    // Zero benign false positives at lax/default aggressiveness — including
    // fault-injected benign runs at the default intensity (1 per kind).
    for preset in ["lax", "default"] {
        for &intensity in arms_race::INTENSITIES {
            let r = row(preset, "benign", intensity);
            assert_eq!(
                roc.cell_f64(r, CONVICTIONS),
                0.0,
                "benign convictions at {preset}/faults={intensity}"
            );
            assert_eq!(
                roc.cell_f64(r, DETECT),
                0.0,
                "benign detection rate at {preset}/faults={intensity}"
            );
        }
    }

    // The default twin+audit detector flags the naive CSA before 80 %
    // key-node exhaustion at zero fault noise ("detect rate" already
    // encodes the conviction-before-deadline classification).
    let naive = roc.cell_f64(row("default", "naive", 0), DETECT);
    assert!(naive >= 0.8, "naive CSA detection rate {naive} < 0.8");

    // The adaptive CSA measurably lowers detection — at a quantified
    // nonzero real-energy cost (naive full-cancellation delivers 0).
    let adaptive = roc.cell_f64(row("default", "adaptive", 0), DETECT);
    assert!(
        adaptive < naive,
        "stealth did not lower detection: {adaptive} vs {naive}"
    );
    let bill = roc.cell_f64(row("default", "adaptive", 0), DELIVERED);
    assert!(bill > 0.0, "stealth must cost real energy, got {bill} kJ");
    assert_eq!(
        roc.cell_f64(row("default", "naive", 0), DELIVERED),
        0.0,
        "naive CSA delivers nothing"
    );

    let current = format!("arms-race:{:016x}\n", digest(&tables));
    if std::env::var_os("WRSN_BLESS").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data")).unwrap();
        std::fs::write(DIGEST_PATH, &current).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(DIGEST_PATH)
        .expect("golden digest missing; regenerate with WRSN_BLESS=1 (see module docs)");
    assert_eq!(
        current, golden,
        "arms_race ROC artifact drifted from the golden digest; if the \
         change is intentional, regenerate with WRSN_BLESS=1 (see module docs)"
    );
}
