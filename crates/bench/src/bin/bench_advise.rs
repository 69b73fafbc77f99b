//! Machine-readable allocation-advice performance baseline.
//!
//! Three comparisons, written to `results/bench_advise.json`:
//!
//! * the historical buffer-reuse pair — per-candidate construction
//!   (`score_naive`) vs reused CSR/fluid/scratch buffers (`score_reused`);
//! * the shard ladder — the advice sweep's reset-per-candidate shape
//!   (`score_reset`, a serial loop that re-routes every candidate) vs what
//!   `run_advice` runs (`score_delta`: duplicates collapsed, a spec-scoped
//!   route cache, fixed shards through one reused fluid solver each), over
//!   64/128/256/512 candidate sweeps (the `_delta` entry names are kept so
//!   the committed baseline stays comparable);
//! * one end-to-end `run_advice` over the torus-blocks registry entry.
//!
//! Every compared pair is asserted bit-identical before anything is timed;
//! the shard ladder additionally pins its checksum across worker thread
//! caps 1/2/8, so the recorded speedup can never come from reordered or
//! diverging answers.

use netpart_bench::advise_workloads::{
    advise_fabric, candidate_sets, score_delta, score_naive, score_reset, score_reused,
    scores_checksum,
};
use netpart_bench::emit_json_baseline;
use netpart_engine::DimensionOrdered;
use netpart_scenario::{named_advice, run_advice};
use std::time::Instant;

/// Best-of-five wall-clock seconds for `routine`.
fn time_best<O>(mut routine: impl FnMut() -> O) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        std::hint::black_box(routine());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let force = std::env::args().skip(1).any(|a| a == "--force");
    let fabric = advise_fabric();
    let router = DimensionOrdered::default();
    let gigabytes = 0.25;
    let mut entries: Vec<(String, &str, f64)> = Vec::new();

    // Two sweep shapes: many tiny candidates (allocation-dominated) and a
    // realistic medium shape (solve-dominated, reuse ~neutral). The fluid
    // solve itself was already allocation-free within a run after PR 4, so
    // cross-candidate reuse trims the remaining per-candidate setup only.
    for (nodes, count) in [(4usize, 512usize), (12, 96)] {
        let candidates = candidate_sets(&fabric, nodes, count);
        let naive_score = score_naive(&fabric, &router, &candidates, gigabytes);
        let reused_score = score_reused(&fabric, &router, &candidates, gigabytes);
        assert_eq!(
            naive_score.to_bits(),
            reused_score.to_bits(),
            "buffer reuse must not change the scores"
        );
        let naive = time_best(|| score_naive(&fabric, &router, &candidates, gigabytes));
        let reused = time_best(|| score_reused(&fabric, &router, &candidates, gigabytes));
        entries.push((format!("score_{count}x{nodes}_naive"), "seconds", naive));
        entries.push((format!("score_{count}x{nodes}_reused"), "seconds", reused));
        entries.push((
            format!("score_{count}x{nodes}_speedup"),
            "ratio",
            naive / reused,
        ));
    }

    // The shard ladder: reset-per-candidate (a serial loop that re-routes
    // every candidate) vs the production shards, at growing candidate
    // counts. Checksums are pinned bit-identical — including across thread
    // caps 1/2/8 for the shards — before any timing.
    for count in [64usize, 128, 256, 512] {
        let candidates = candidate_sets(&fabric, 4, count);
        let reset_scores = score_reset(&fabric, &router, &candidates, gigabytes);
        let checksum = scores_checksum(&reset_scores);
        for cap in [1usize, 2, 8] {
            let delta_scores = rayon::with_max_threads(cap, || {
                score_delta(&fabric, &router, &candidates, gigabytes)
            });
            assert_eq!(
                scores_checksum(&delta_scores),
                checksum,
                "shard scoring diverged from the reset path at thread cap {cap} ({count} candidates)"
            );
        }
        let reset = time_best(|| score_reset(&fabric, &router, &candidates, gigabytes));
        let delta = time_best(|| score_delta(&fabric, &router, &candidates, gigabytes));
        entries.push((format!("advise_{count}x4_reset"), "seconds", reset));
        entries.push((format!("advise_{count}x4_delta"), "seconds", delta));
        entries.push((format!("advise_{count}x4_speedup"), "ratio", reset / delta));
    }

    let advice_spec = named_advice("advise-torus-blocks").expect("registry entry");
    let end_to_end = time_best(|| run_advice(&advice_spec).expect("advice runs"));
    entries.push((
        "run_advice/advise-torus-blocks".to_string(),
        "seconds",
        end_to_end,
    ));
    let mut json =
        String::from("{\n  \"schema\": \"netpart-bench-advise/v1\",\n  \"entries\": [\n");
    for (i, (name, metric, value)) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"metric\": \"{metric}\", \"value\": {value:.6}}}{}\n",
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    emit_json_baseline("bench_advise", &json, force);
}
