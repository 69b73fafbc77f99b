//! Property-based tests spanning the extension crates (spectral, contention,
//! kernels): randomized torus shapes and kernel configurations must respect
//! the analytic relationships the paper's machinery is built on.

use netpart::contention::{ContentionModel, Kernel};
use netpart::iso::bisection::torus_bisection_links;
use netpart::iso::bound::general_torus_bound;
use netpart::kernels::{FftConfig, NBodyConfig, SummaConfig};
use netpart::mpi::collectives::total_volume;
use netpart::mpi::RankMapping;
use netpart::spectral::{spectral_bisection, torus_combinatorial_spectrum, EigenOptions};
use netpart::topology::Torus;
use proptest::prelude::*;

/// Random torus dimensions of 2 to 4 axes, each 2, 4 or 6 long, at most ~300
/// nodes. Even extents keep the closed-form `2·N/L` slab the true optimal
/// bisection (odd dimensions admit non-slab bisections the formula does not
/// cover), matching the Blue Gene/Q setting the paper analyses.
fn small_torus_dims() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec((1usize..=3).prop_map(|h| 2 * h), 2..=4)
        .prop_filter("keep the node count small", |dims| {
            dims.iter().product::<usize>() <= 300
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// λ₂ reported by the iterative solver matches the closed-form torus
    /// spectrum, and the classical spectral bound `λ₂·N/4` never exceeds the
    /// closed-form bisection; the Fiedler sweep (an actual cut) never drops
    /// below it.
    #[test]
    fn spectral_quantities_are_consistent_on_random_tori(dims in small_torus_dims()) {
        let torus = Torus::new(dims.clone());
        let result = spectral_bisection(&torus, EigenOptions::default());
        let spectrum = torus_combinatorial_spectrum(&dims);
        prop_assert!((result.lambda2 - spectrum[1]).abs() < 1e-4,
            "dims {:?}: solver {} vs closed form {}", dims, result.lambda2, spectrum[1]);
        let closed_form = torus_bisection_links(&dims) as f64;
        prop_assert!(result.lower_bound <= closed_form + 1e-6,
            "dims {:?}: spectral lower bound {} above closed form {}", dims, result.lower_bound, closed_form);
        prop_assert!(result.cut_capacity >= closed_form - 1e-6,
            "dims {:?}: sweep cut {} below the optimum {}", dims, result.cut_capacity, closed_form);
    }

    /// Theorem 3.1's lower bound never exceeds the closed-form bisection, and
    /// the half-size bound is monotone under sorting-preserving stretches of
    /// the longest dimension (Corollary 3.4 in lower-bound form).
    #[test]
    fn theorem_bound_respects_closed_form_on_random_tori(dims in small_torus_dims()) {
        let n: u64 = dims.iter().map(|&a| a as u64).product();
        let bound = general_torus_bound(&dims, n / 2);
        let closed_form = torus_bisection_links(&dims) as f64;
        prop_assert!(bound <= closed_form + 1e-6,
            "dims {:?}: bound {} above attainable bisection {}", dims, bound, closed_form);
    }

    /// The contention lower bound is monotone in the per-processor word count
    /// and never increases when the partition geometry's bisection improves.
    #[test]
    fn contention_bound_monotonicity(
        words in 1e3f64..1e9,
        scale in 1.5f64..4.0,
    ) {
        let worse = [16usize, 4, 4, 4, 2];   // 4x1x1x1 midplanes
        let better = [8usize, 8, 4, 4, 2];   // 2x2x1x1 midplanes
        let small = ContentionModel::bgq(Kernel::Custom { words_per_proc: words, flops_per_proc: 1.0 });
        let large = ContentionModel::bgq(Kernel::Custom { words_per_proc: words * scale, flops_per_proc: 1.0 });
        let b_small = small.contention_bound(&worse);
        let b_large = large.contention_bound(&worse);
        prop_assert!(b_large.words_on_busiest_link >= b_small.words_on_busiest_link);
        let ratio = b_large.words_on_busiest_link / b_small.words_on_busiest_link;
        prop_assert!((ratio - scale).abs() < 1e-9, "bound must scale linearly: {ratio} vs {scale}");
        prop_assert!(small.geometry_speedup(&worse, &better) >= 1.0 - 1e-12);
    }

    /// Kernel traffic generators conserve volume: the phases they emit carry
    /// exactly the volume their configuration formulas promise.
    #[test]
    fn kernel_traffic_volume_is_conserved(
        ranks_exp in 2u32..6,
        payload_exp in 10u32..22,
    ) {
        let ranks = 1usize << ranks_exp;
        let mapping = RankMapping::one_rank_per_node(ranks);

        let nbody = NBodyConfig { bodies: 1u64 << payload_exp, ranks };
        let phase = netpart::kernels::ring_step_phase(&mapping, &nbody);
        let per_step = total_volume(&phase);
        prop_assert!((per_step * nbody.ring_steps() as f64 - nbody.total_volume_gb()).abs() < 1e-9);

        let fft = FftConfig::four_step(1u64 << payload_exp, ranks);
        let transpose = netpart::kernels::transpose_phases(&mapping, &fft);
        prop_assert!((total_volume(&transpose) - fft.transpose_volume_gb()).abs() < 1e-9);

        let side = 1usize << (ranks_exp / 2);
        let summa = SummaConfig::new(1u64 << (payload_exp / 2).max(4), side * side);
        let summa_mapping = RankMapping::one_rank_per_node(side * side);
        let step = netpart::kernels::step_phase(&summa_mapping, &summa, 0);
        prop_assert!((total_volume(&step) * summa.steps() as f64 - summa.total_volume_gb()).abs() < 1e-9);
    }

    /// Antipodal pairing traffic on any small torus saturates the bisection:
    /// the simulated time is at least the volume-over-bisection lower bound.
    /// (Restricted to an even longest dimension so that every antipodal pair
    /// provably crosses the bisection planes.)
    #[test]
    fn pairing_time_is_bounded_by_bisection_capacity(
        dims in small_torus_dims().prop_filter(
            "longest dimension must be even",
            |dims| dims.iter().max().map(|&m| m % 2 == 0).unwrap_or(false),
        ),
    ) {
        use netpart::engine::{pairing_flows, simulate_flows, DimensionOrdered, Fabric};
        let fabric = Fabric::from_torus(Torus::new(dims.clone()), 2.0);
        let gigabytes = 0.1;
        let flows = pairing_flows(&fabric, gigabytes);
        prop_assume!(!flows.is_empty());
        let makespan = simulate_flows(&fabric, &DimensionOrdered::default(), &flows)
            .expect("torus routes every flow")
            .makespan;
        // Every pair is antipodal in the longest dimension, so at least half
        // of the volume must cross the bisection in each direction.
        let bisection_links = torus_bisection_links(&dims) as f64;
        let one_direction_volume = (flows.len() / 2) as f64 * gigabytes;
        let lower = one_direction_volume / (bisection_links * 2.0);
        prop_assert!(makespan >= lower * (1.0 - 1e-9),
            "dims {:?}: makespan {} below bisection bound {}", dims, makespan, lower);
    }
}
