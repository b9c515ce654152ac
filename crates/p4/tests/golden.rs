//! Golden-file suite: the three fixture programs must emit
//! byte-identical P4 and manifests to the committed files under
//! `crates/p4/golden/`, pass the structural validator, and recount to
//! exactly the resource counts the analytic model predicts.
//!
//! Regenerate after an intentional emitter change with:
//!
//! ```text
//! SPLIDT_P4_BLESS=1 cargo test -p splidt-p4 --test golden
//! ```

use std::fs;

use splidt_p4::fixtures::{all, golden_dir};
use splidt_p4::recount::{cross_check, recount};
use splidt_p4::validate::validate;

fn blessing() -> bool {
    std::env::var_os("SPLIDT_P4_BLESS").is_some_and(|v| v == "1")
}

fn check_golden(name: &str, file: &str, live: &str) {
    let path = golden_dir().join(file);
    if blessing() {
        fs::write(&path, live).unwrap_or_else(|e| panic!("bless {}: {e}", path.display()));
        return;
    }
    let committed = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden file {} unreadable ({e}); regenerate with \
             SPLIDT_P4_BLESS=1 cargo test -p splidt-p4 --test golden",
            path.display()
        )
    });
    if committed != live {
        // Find the first differing line for a readable failure.
        let mismatch = committed.lines().zip(live.lines()).enumerate().find(|(_, (a, b))| a != b);
        match mismatch {
            Some((i, (want, got))) => panic!(
                "fixture `{name}`: {file} drifted at line {}:\n  committed: {want}\n  emitted:   {got}\n\
                 (bless with SPLIDT_P4_BLESS=1 if the change is intentional)",
                i + 1
            ),
            None => panic!(
                "fixture `{name}`: {file} drifted in length only \
                 (committed {} bytes, emitted {} bytes)",
                committed.len(),
                live.len()
            ),
        }
    }
}

#[test]
fn goldens_are_byte_exact_and_recount_to_the_model() {
    for fixture in all() {
        let p4 = &fixture.emission.p4;
        let manifest = fixture.emission.manifest.to_json();

        // 1. Structural shape.
        validate(p4).unwrap_or_else(|e| panic!("fixture `{}` invalid: {e}", fixture.name));

        // 2. Resource recount from the text equals the analytic model.
        let r = recount(p4).unwrap_or_else(|e| panic!("fixture `{}` recount: {e}", fixture.name));
        cross_check(&r, &fixture.expectation)
            .unwrap_or_else(|e| panic!("fixture `{}`: {e}", fixture.name));

        // 3. Byte-exact against the committed goldens.
        check_golden(fixture.name, &format!("{}.p4", fixture.name), p4);
        check_golden(fixture.name, &format!("{}.manifest.json", fixture.name), &manifest);
    }
}

#[test]
fn manifest_counts_match_programs() {
    for fixture in all() {
        let m = &fixture.emission.manifest;
        assert!(!m.tables.is_empty(), "fixture `{}` emitted no tables", fixture.name);
        assert_eq!(
            m.registers.len(),
            fixture.expectation.salus_per_stage.iter().sum::<usize>(),
            "fixture `{}`: manifest registers vs expected SALU count",
            fixture.name
        );
        for reg in &m.registers {
            assert_eq!(
                reg.slots, fixture.expectation.flow_slots,
                "fixture `{}`: register `{}` depth",
                fixture.name, reg.name
            );
        }
        // Provenance mirrors the engine's compile parameters.
        assert_eq!(m.provenance.flow_slots, fixture.expectation.flow_slots);
        assert_eq!(m.provenance.fixture, fixture.name);
    }
}

#[test]
fn tcp_fixture_differs_from_default_in_lifecycle_only_places() {
    let fixtures = all();
    let default = &fixtures[0];
    let tcp = &fixtures[1];
    assert!(default.emission.p4.contains("claim=true"));
    // The TCP fixture must gate claims on SYN somewhere: at least one
    // probe SALU with claim=false exists alongside the SYN one.
    assert!(tcp.emission.p4.contains("claim=false"));
    assert!(tcp.emission.p4.contains("Unsolicited"));
    // And its decide path must include an in-band release variant.
    assert!(tcp.emission.p4.contains("release=true"));
    assert_eq!(tcp.provenance_policy(), "tcp+pin2");
}

trait FixtureExt {
    fn provenance_policy(&self) -> &str;
}

impl FixtureExt for splidt_p4::fixtures::Fixture {
    fn provenance_policy(&self) -> &str {
        &self.emission.manifest.provenance.policy
    }
}
