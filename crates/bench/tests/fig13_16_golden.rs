//! Figs 13–16 pinned: the four tables `fig13_16` prints in quick mode must
//! match the committed golden byte for byte. The closing "Paper shape"
//! paragraph is prose and is not pinned.
//!
//! Regenerate after an intentional behaviour change with
//! `EEND_BLESS=1 cargo test -p eend-bench --test fig13_16_golden`.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn quick_tables_match_the_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig13_16")).output().unwrap();
    assert!(out.status.success(), "fig13_16 failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let tables = &stdout[..stdout.find("Paper shape").expect("fig13_16 prints its paper shape")];
    assert_eq!(tables.matches("## Fig 1").count(), 4, "expected four tables:\n{stdout}");

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fig13_16_quick.txt");
    if std::env::var_os("EEND_BLESS").is_some() {
        std::fs::write(&path, tables).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); run with EEND_BLESS=1 to create it", path.display())
    });
    assert!(
        golden == tables,
        "Figs 13–16 drifted from the pinned tables \
         (EEND_BLESS=1 regenerates after an intentional change)\n\
         --- golden ---\n{golden}\n--- actual ---\n{tables}"
    );
}
