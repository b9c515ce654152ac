#!/usr/bin/env bash
# Diffs two bench result files (the flat JSON `hotpath_smoke` /
# `lookup_smoke` / `churn_smoke` emit) and fails when a gated metric
# regressed — the local pre-push twin of CI's bench-smoke gate. Works on
# any bench's output: hotpath files gate pps and pps_scaled, the five
# zero-allocation probes (hot loop, digest ring, burst path, worker
# ring, banked path), the vectorization inversion gate (burst-32 pps
# >= burst-1 pps from the burst sweep) and the flow-state banking floor
# (banked >= 1.05x split at burst 32), lookup files gate the
# indexed-vs-linear speedup floor at 4096
# entries, churn files gate pps, the churn zero-allocation probe, the
# distinct-flows-classified floor (8x flow_slots), lifecycle counter
# reconciliation (pinned evictions and in-band FIN/RST releases
# included), nonzero unsolicited refusals, a pinned-class trace, and the
# presence of the slot-pressure histogram. Ingress files (ingress_smoke)
# gate pps, the ring-consumer zero-allocation probe, exact ingress
# accounting reconciliation, and the classified_floor criterion. Drift
# files (drift_smoke, keyed off the expected_swaps field) gate pps, the
# mid-stream-swap zero-allocation probe, the post-swap recovery floor,
# strict improvement over the degraded phase, the exact swap count and
# zero-flow-state-lost across the flip (lifecycle_carried). P4 files
# (p4_smoke, keyed off the golden_match field) gate byte-exact goldens,
# the emitted-text resource cross-check, and exact equality of every
# structural count (stages / tables / registers / salus /
# manifest_entries) — counts are semantics, not timings, so no drift
# band applies.
#
# Usage:
#   scripts/bench_diff.sh BASELINE.json CANDIDATE.json [max_drop_pct]
#
# Typical flow:
#   cargo run --release -p splidt-bench --bin hotpath_smoke -- --out /tmp/before.json
#   ... hack on the hot path ...
#   cargo run --release -p splidt-bench --bin hotpath_smoke -- --out /tmp/after.json
#   scripts/bench_diff.sh /tmp/before.json /tmp/after.json
#
# (With the real criterion crate installed, `cargo bench --bench hotpath
# -- --save-baseline main` / `-- --baseline main` gives per-benchmark
# statistical comparisons; the in-tree shim has no baseline store, so this
# script compares the smoke bin's JSON instead.)
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 BASELINE.json CANDIDATE.json [max_drop_pct]" >&2
    exit 64
fi

baseline=$1
candidate=$2
max_drop=${3:-15}

metric() { # metric FILE KEY
    awk -v key="\"$2\":" '
        index($0, key) {
            sub(".*" key "[ \t]*", "");
            sub("[,}].*", "");
            print $0; exit
        }' "$1"
}

for f in "$baseline" "$candidate"; do
    [ -r "$f" ] || { echo "cannot read $f" >&2; exit 66; }
    if [ -z "$(metric "$f" pps)" ] && [ -z "$(metric "$f" ternary_4096_speedup)" ] \
        && [ -z "$(metric "$f" golden_match)" ]; then
        echo "no gated metric (pps / ternary_4096_speedup / golden_match) in $f" >&2
        exit 65
    fi
done

printf '%-28s %14s %14s %9s\n' metric baseline candidate delta%
fail=0
for key in pps pps_burst1 pps_burst8 pps_burst32 pps_burst64 \
           pps_scaled pps_scaled_split bank_speedup \
           sweep_frames sweep_slots \
           allocs_per_packet hot_loop_allocs_per_packet \
           digest_ring_allocs_per_packet churn_allocs_per_packet \
           ingress_allocs_per_packet drift_allocs_per_packet \
           worker_allocs_per_packet bank_allocs_per_packet \
           sent received steered dropped_ring_full dropped_malformed \
           consumed socket_loss classified_floor \
           classified_flows flow_slots distinct_flows \
           admitted takeovers evictions_idle evictions_decided \
           evictions_pinned released_fin unsolicited pinned_defended \
           live_collisions post_verdict_pkts \
           pressure_total pressure_peak \
           pre_acc degraded_acc recovered_acc \
           pre_verdicts degraded_verdicts recovered_verdicts \
           tap_fed swaps staged_generation lifecycle_carried \
           ternary_4096_speedup range_4096_speedup \
           ternary_4096_indexed_lps range_4096_indexed_lps \
           exact_4096_indexed_lps \
           fixtures golden_match crosscheck_ok stages tables registers \
           salus manifest_entries; do
    b=$(metric "$baseline" "$key")
    c=$(metric "$candidate" "$key")
    [ -n "$b" ] && [ -n "$c" ] || continue
    delta=$(awk -v b="$b" -v c="$c" 'BEGIN { if (b == 0) print "n/a"; else printf "%+.1f", (c - b) / b * 100 }')
    printf '%-28s %14s %14s %9s\n' "$key" "$b" "$c" "$delta"
done

if [ -n "$(metric "$candidate" pps)" ] && [ -n "$(metric "$baseline" pps)" ]; then
    pps_ok=$(awk -v b="$(metric "$baseline" pps)" -v c="$(metric "$candidate" pps)" -v m="$max_drop" \
        'BEGIN { print (c >= b * (1 - m / 100)) ? 1 : 0 }')
    if [ "$pps_ok" != 1 ]; then
        echo "FAIL: pps dropped more than ${max_drop}% vs baseline" >&2
        fail=1
    fi
fi

for key in hot_loop_allocs_per_packet digest_ring_allocs_per_packet \
           churn_allocs_per_packet ingress_allocs_per_packet \
           drift_allocs_per_packet worker_allocs_per_packet \
           bank_allocs_per_packet; do
    v=$(metric "$candidate" "$key")
    [ -n "$v" ] || continue
    ok=$(awk -v h="$v" 'BEGIN { print (h == 0) ? 1 : 0 }')
    if [ "$ok" != 1 ]; then
        echo "FAIL: $key is nonzero ($v allocs/packet)" >&2
        fail=1
    fi
done

# Churn lifecycle gates: >= 8x flow_slots distinct flows classified, and
# the counters must reconcile (mirrors churn_smoke's own gates).
cf=$(metric "$candidate" classified_flows)
fs=$(metric "$candidate" flow_slots)
if [ -n "$cf" ] && [ -n "$fs" ]; then
    ok=$(awk -v c="$cf" -v s="$fs" 'BEGIN { print (c >= 8 * s) ? 1 : 0 }')
    if [ "$ok" != 1 ]; then
        echo "FAIL: classified_flows $cf is below 8x flow_slots ($fs)" >&2
        fail=1
    fi
fi
rec=$(metric "$candidate" reconciled)
if [ -n "$rec" ] && [ "$rec" != 1 ]; then
    echo "FAIL: lifecycle counters did not reconcile (reconciled=$rec)" >&2
    fail=1
fi

# Ingress gate (ingress candidates carry classified_floor instead of
# flow_slots): the end-to-end loopback run must classify at least the
# same distinct-flows floor the churn smoke enforces in-process.
ifloor=$(metric "$candidate" classified_floor)
if [ -n "$ifloor" ] && [ -n "$cf" ]; then
    ok=$(awk -v c="$cf" -v f="$ifloor" 'BEGIN { print (c >= f) ? 1 : 0 }')
    if [ "$ok" != 1 ]; then
        echo "FAIL: classified_flows $cf is below the ingress floor ($ifloor)" >&2
        fail=1
    fi
fi

# Protocol-aware policy gates (churn candidates only — keyed off the
# flow_slots field like the gates above): the TCP-aware fixture must
# surface unsolicited refusals, leave a pinned-eviction trace that the
# reconciliation above accounts for, release lanes in-band on FIN/RST,
# and publish the slot-pressure histogram.
if [ -n "$fs" ]; then
    uns=$(metric "$candidate" unsolicited)
    if [ -z "$uns" ] || [ "$uns" = 0 ]; then
        echo "FAIL: churn candidate has no unsolicited refusals (unsolicited=${uns:-missing})" >&2
        fail=1
    fi
    rfin=$(metric "$candidate" released_fin)
    if [ -z "$rfin" ] || [ "$rfin" = 0 ]; then
        echo "FAIL: churn candidate released no lanes in-band (released_fin=${rfin:-missing})" >&2
        fail=1
    fi
    epin=$(metric "$candidate" evictions_pinned)
    pdef=$(metric "$candidate" pinned_defended)
    ppen=$(metric "$candidate" pinned_pending)
    pinned_trace=$(awk -v a="${epin:-0}" -v b="${pdef:-0}" -v c="${ppen:-0}" \
        'BEGIN { print (a + b + c > 0) ? 1 : 0 }')
    if [ "$pinned_trace" != 1 ]; then
        echo "FAIL: pinned class left no trace (evictions_pinned/pinned_defended/pinned_pending all 0)" >&2
        fail=1
    fi
    if [ -z "$(metric "$candidate" pressure_hist)" ]; then
        echo "FAIL: churn candidate carries no slot-pressure histogram" >&2
        fail=1
    fi
fi

# Drift gates (drift candidates only — keyed off the expected_swaps
# field): the retrained model must recover classification on the drifted
# distribution, exactly the expected number of live swaps must have
# completed, and no flow state may be lost across the swap instant
# (mirrors drift_smoke's own gates; the reconciled gate above already
# covers drift files too).
esw=$(metric "$candidate" expected_swaps)
if [ -n "$esw" ]; then
    racc=$(metric "$candidate" recovered_acc)
    dacc=$(metric "$candidate" degraded_acc)
    ok=$(awk -v r="${racc:-0}" 'BEGIN { print (r >= 0.35) ? 1 : 0 }')
    if [ "$ok" != 1 ]; then
        echo "FAIL: recovered_acc ${racc:-missing} is below the 0.35 recovery floor" >&2
        fail=1
    fi
    ok=$(awk -v r="${racc:-0}" -v d="${dacc:-0}" 'BEGIN { print (r > d) ? 1 : 0 }')
    if [ "$ok" != 1 ]; then
        echo "FAIL: recovered_acc ${racc:-missing} did not improve on degraded_acc ${dacc:-missing}" >&2
        fail=1
    fi
    sw=$(metric "$candidate" swaps)
    if [ "${sw:-0}" != "$esw" ]; then
        echo "FAIL: $sw swaps completed; expected $esw" >&2
        fail=1
    fi
    lcar=$(metric "$candidate" lifecycle_carried)
    if [ "${lcar:-0}" != 1 ]; then
        echo "FAIL: flow state was not carried across the swap (lifecycle_carried=${lcar:-missing})" >&2
        fail=1
    fi
fi

# Vectorization floor (hotpath candidates carrying the burst sweep): the
# wave executor at burst 32 must not fall behind burst 1 — the inversion
# gate (mirrors hotpath_smoke's own gate; flow-state banking collapsed
# the scalar stall fraction, compressing the observed band from
# 1.13-1.20x to 1.04-1.10x while raising both absolute numbers).
vb1=$(metric "$candidate" pps_burst1)
vb32=$(metric "$candidate" pps_burst32)
if [ -n "$vb1" ] && [ -n "$vb32" ]; then
    ok=$(awk -v a="$vb1" -v b="$vb32" 'BEGIN { print (b >= 1.00 * a) ? 1 : 0 }')
    if [ "$ok" != 1 ]; then
        echo "FAIL: burst-32 pps ($vb32) is below burst-1 pps ($vb1) — inversion" >&2
        fail=1
    fi
fi

# Flow-state banking floor (hotpath candidates carrying the scaled
# fixture's split baseline): the cache-line-coalesced register file must
# beat the split per-stage arrays at burst 32 by >= 1.05x (mirrors
# hotpath_smoke's own gate; observed band 1.07-1.13x, floor below its
# low end like the pps floors), and the absolute scaled-fixture pps
# holds the same max-drop budget as pps.
bsp=$(metric "$candidate" bank_speedup)
if [ -n "$bsp" ]; then
    ok=$(awk -v s="$bsp" 'BEGIN { print (s >= 1.05) ? 1 : 0 }')
    if [ "$ok" != 1 ]; then
        echo "FAIL: bank_speedup is ${bsp}x, below the 1.05x floor" >&2
        fail=1
    fi
fi
psc_b=$(metric "$baseline" pps_scaled)
psc_c=$(metric "$candidate" pps_scaled)
if [ -n "$psc_b" ] && [ -n "$psc_c" ]; then
    ok=$(awk -v b="$psc_b" -v c="$psc_c" -v m="$max_drop" \
        'BEGIN { print (c >= b * (1 - m / 100)) ? 1 : 0 }')
    if [ "$ok" != 1 ]; then
        echo "FAIL: pps_scaled dropped more than ${max_drop}% vs baseline" >&2
        fail=1
    fi
fi

# P4-backend gates (p4 candidates only — keyed off the golden_match
# field): the emitted programs must match the committed goldens byte for
# byte, the resource recount from the emitted text must equal the
# analytic model, and every structural count must equal the baseline
# exactly (mirrors p4_smoke's own gates).
gm=$(metric "$candidate" golden_match)
if [ -n "$gm" ]; then
    if [ "$gm" != 1 ]; then
        echo "FAIL: emitted P4 does not match the committed goldens (golden_match=$gm)" >&2
        fail=1
    fi
    cc=$(metric "$candidate" crosscheck_ok)
    if [ "${cc:-0}" != 1 ]; then
        echo "FAIL: emitted-P4 resource recount disagrees with the analytic model (crosscheck_ok=${cc:-missing})" >&2
        fail=1
    fi
    for key in fixtures stages tables registers salus manifest_entries; do
        b=$(metric "$baseline" "$key")
        c=$(metric "$candidate" "$key")
        [ -n "$b" ] && [ -n "$c" ] || continue
        if [ "$b" != "$c" ]; then
            echo "FAIL: structural count $key drifted: baseline $b, candidate $c" >&2
            fail=1
        fi
    done
fi

# Lookup-bench floor: indexed ternary/range must beat the linear oracle
# by >= 5x at the top of the sweep (mirrors lookup_smoke's own gate).
for key in ternary_4096_speedup range_4096_speedup; do
    v=$(metric "$candidate" "$key")
    [ -n "$v" ] || continue
    ok=$(awk -v s="$v" 'BEGIN { print (s >= 5) ? 1 : 0 }')
    if [ "$ok" != 1 ]; then
        echo "FAIL: $key is ${v}x, below the 5x floor" >&2
        fail=1
    fi
done

exit $fail
