//! Cuboid constructions and cuboid-restricted isoperimetric search.
//!
//! Lemma 3.2 of the paper exhibits, for suitable subset sizes `t`, explicit
//! cuboids `S_r` that attain the Theorem 3.1 bound: `S_r` fully wraps the `r`
//! smallest dimensions and is a cube of side `(t/k)^{1/(D-r)}` in the
//! remaining ones (`k` is the product of the wrapped extents). Lemma 3.3
//! shows these are optimal among all cuboids. This module provides the
//! construction, a complete enumeration of cuboid shapes of a given volume,
//! and the resulting minimal-cut cuboid search used throughout the partition
//! analysis.
//!
//! A question about *every* volume at once — the contention bound maximises
//! over all scales `t ≤ P/2` — is answered by [`min_cut_profile`] instead: one
//! odometer pass over the extent lattice `[1..a_1] × … × [1..a_D]` that
//! records each volume's smallest cut in a dense array. It visits each
//! extent tuple of volume at most `P/2` once with `O(D)` work, so it costs
//! `O(P·D)` time and `O(P)` memory, against one divisor enumeration (and one
//! `Vec` per extent) per volume for repeated [`min_cut_cuboid`] calls.

use netpart_topology::Torus;

/// The Lemma 3.2 construction `S_r` for a torus with the given extents.
///
/// Returns the extents of the cuboid (aligned to `dims` sorted in descending
/// order), or `None` when the construction does not exist for this `(t, r)`
/// pair — i.e. when `t` is not divisible into an integer cube side, or the
/// side would not fit inside the non-wrapped dimensions.
pub fn construction_sr(dims: &[usize], t: u64, r: usize) -> Option<Vec<usize>> {
    assert!(!dims.is_empty() && dims.iter().all(|&a| a >= 1));
    let d = dims.len();
    assert!(r < d, "r = {r} out of range 0..{d}");
    let mut sorted = dims.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let k: u64 = sorted.iter().rev().take(r).map(|&a| a as u64).product();
    if t == 0 || !t.is_multiple_of(k) {
        return None;
    }
    let quotient = t / k;
    let side = integer_root(quotient, (d - r) as u32)?;
    // The side must fit in each of the D-r largest dimensions; since they are
    // sorted descending it suffices to check the smallest of them.
    if side as usize > sorted[d - r - 1] {
        return None;
    }
    let mut extent = vec![side as usize; d - r];
    extent.extend(sorted.iter().rev().take(r).rev().copied());
    Some(extent)
}

/// All cuboid extents (aligned to `dims` in the given order) whose volume is
/// exactly `t` and which fit inside the torus.
///
/// The enumeration is exhaustive over ordered extent tuples, so rotations of
/// the same shape appear once per valid axis assignment; the minimal-cut
/// search below is unaffected. Complexity is `O(prod d(a_i))` where `d(a)` is
/// the divisor count — negligible for the midplane-level and node-level
/// dimensions used in the paper.
pub fn enumerate_cuboid_extents(dims: &[usize], t: u64) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if t == 0 {
        return out;
    }
    let mut current = Vec::with_capacity(dims.len());
    recurse(dims, t, &mut current, &mut out);
    out
}

fn recurse(dims: &[usize], remaining: u64, current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    if current.len() == dims.len() {
        if remaining == 1 {
            out.push(current.clone());
        }
        return;
    }
    let a = dims[current.len()] as u64;
    let max_here = a.min(remaining);
    for c in 1..=max_here {
        if remaining.is_multiple_of(c) {
            current.push(c as usize);
            recurse(dims, remaining / c, current, out);
            current.pop();
        }
    }
}

/// The cuboid of volume `t` with minimal cut inside the torus with the given
/// extents, returned as `(extents, cut_size)`.
///
/// Returns `None` when no cuboid of volume exactly `t` fits (e.g. `t` has a
/// prime factor larger than every dimension).
pub fn min_cut_cuboid(dims: &[usize], t: u64) -> Option<(Vec<usize>, u64)> {
    let torus = Torus::new(dims.to_vec());
    enumerate_cuboid_extents(dims, t)
        .into_iter()
        .map(|extent| {
            let cut = torus.cuboid_cut_size(&extent);
            (extent, cut)
        })
        .min_by_key(|&(_, cut)| cut)
}

/// The smallest cuboid cut of every volume up to half the torus.
///
/// Entry `t` of the returned array (length `P/2 + 1`, `P` the torus volume)
/// is the cut [`min_cut_cuboid`]`(dims, t)` finds, or 0 when no cuboid of
/// volume `t` fits; entry 0 is always 0. A cuboid of at most half the torus
/// leaves some dimension longer than 1 uncovered, so its cut is positive and
/// 0 marks exactly the unachievable volumes.
///
/// One odometer pass over the extent lattice, first dimension fastest,
/// allocating nothing but the array and one extent buffer. A cuboid's cut
/// is [`Torus::cuboid_cut_size`]'s: `2·vol/e_i` for each dimension with
/// `a_i > 1` that the extent `e_i < a_i` leaves uncovered. The pass never
/// steps past volume `P/2`: when raising a digit (all lower digits at 1)
/// would, every larger value of that digit would too, so it carries.
pub fn min_cut_profile(dims: &[usize]) -> Vec<u64> {
    assert!(!dims.is_empty() && dims.iter().all(|&a| a >= 1));
    let half = dims.iter().map(|&a| a as u64).product::<u64>() / 2;
    let mut cuts = vec![0u64; half as usize + 1];
    if half == 0 {
        return cuts;
    }
    let mut extent = vec![1u64; dims.len()];
    let mut volume = 1u64;
    loop {
        let cut: u64 = extent
            .iter()
            .zip(dims)
            .filter(|&(&e, &a)| a > 1 && e < a as u64)
            .map(|(&e, _)| 2 * (volume / e))
            .sum();
        let best = &mut cuts[volume as usize];
        if *best == 0 || cut < *best {
            *best = cut;
        }
        let mut digit = 0;
        loop {
            let Some(&a) = dims.get(digit) else {
                return cuts;
            };
            let e = extent[digit];
            let raised = volume / e * (e + 1);
            if e < a as u64 && raised <= half {
                extent[digit] = e + 1;
                volume = raised;
                break;
            }
            extent[digit] = 1;
            volume /= e;
            digit += 1;
        }
    }
}

/// The cuboid of volume `t` with the *maximal* cut (worst case); useful for
/// quantifying how bad an adversarial allocation can be.
pub fn max_cut_cuboid(dims: &[usize], t: u64) -> Option<(Vec<usize>, u64)> {
    let torus = Torus::new(dims.to_vec());
    enumerate_cuboid_extents(dims, t)
        .into_iter()
        .map(|extent| {
            let cut = torus.cuboid_cut_size(&extent);
            (extent, cut)
        })
        .max_by_key(|&(_, cut)| cut)
}

/// Integer `n`-th root of `x` if `x` is a perfect `n`-th power.
fn integer_root(x: u64, n: u32) -> Option<u64> {
    if n == 0 {
        return None;
    }
    if x == 0 {
        return Some(0);
    }
    let approx = (x as f64).powf(1.0 / n as f64).round() as u64;
    (approx.saturating_sub(1)..=approx + 1).find(|&candidate| candidate.checked_pow(n) == Some(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::{general_torus_bound, term_for_r};

    #[test]
    fn integer_root_detects_perfect_powers() {
        assert_eq!(integer_root(27, 3), Some(3));
        assert_eq!(integer_root(28, 3), None);
        assert_eq!(integer_root(1, 5), Some(1));
        assert_eq!(integer_root(1 << 40, 4), Some(1 << 10));
    }

    #[test]
    fn sr_construction_matches_bound_when_it_exists() {
        // Lemma 3.2: when S_r exists its cut equals the Theorem 3.1 term for r.
        let dims = vec![16, 8, 4, 2];
        let torus = Torus::new(dims.clone());
        let total: u64 = dims.iter().map(|&a| a as u64).product();
        for r in 0..dims.len() {
            for t in 1..=total / 2 {
                if let Some(extent) = construction_sr(&dims, t, r) {
                    assert_eq!(extent.iter().map(|&e| e as u64).product::<u64>(), t);
                    let cut = torus.cuboid_cut_size(&extent) as f64;
                    let term = term_for_r(&dims, t, r);
                    // The Lemma 3.2 counting assumes the cube side is strictly
                    // smaller than each non-wrapped dimension; when the side
                    // accidentally covers a dimension the cut only gets
                    // smaller. Assert equality in the generic case and the
                    // `<=` direction otherwise.
                    let mut sorted = dims.clone();
                    sorted.sort_unstable_by(|a, b| b.cmp(a));
                    let accidental_cover = extent
                        .iter()
                        .take(dims.len() - r)
                        .zip(sorted.iter())
                        .any(|(&e, &a)| e == a);
                    if accidental_cover {
                        assert!(cut <= term + 1e-6, "r={r}, t={t}: cut {cut} > term {term}");
                    } else {
                        assert!(
                            (cut - term).abs() < 1e-6,
                            "r={r}, t={t}: construction cut {cut} != bound term {term}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn enumeration_finds_all_shapes_of_a_small_torus() {
        let shapes = enumerate_cuboid_extents(&[4, 4], 4);
        // Volume-4 cuboids in a 4x4 torus: 1x4, 2x2, 4x1.
        assert_eq!(shapes.len(), 3);
        assert!(shapes.contains(&vec![2, 2]));
        assert!(shapes.contains(&vec![1, 4]));
        assert!(shapes.contains(&vec![4, 1]));
    }

    #[test]
    fn enumeration_respects_dimension_limits() {
        // Volume 8 in a 4x2 torus: only 4x2 fits.
        let shapes = enumerate_cuboid_extents(&[4, 2], 8);
        assert_eq!(shapes, vec![vec![4, 2]]);
        // Volume 7 needs a dimension of length >= 7: impossible here.
        assert!(enumerate_cuboid_extents(&[4, 2], 7).is_empty());
    }

    #[test]
    fn min_cut_prefers_balanced_shapes() {
        // On an 8x8 torus, every volume-16 cuboid (2x8, 4x4, 8x2) has cut 16.
        let (_, cut) = min_cut_cuboid(&[8, 8], 16).unwrap();
        assert_eq!(cut, 16);
        let (_, worst_cut) = max_cut_cuboid(&[8, 8], 16).unwrap();
        assert_eq!(worst_cut, 16);
        // On a 16x4 torus the shapes differ: the 4x4 block that fully wraps
        // the short dimension has cut 8, while the 16x1 slab costs 32.
        let (best, best_cut) = min_cut_cuboid(&[16, 4], 16).unwrap();
        assert_eq!(best, vec![4, 4]);
        assert_eq!(best_cut, 8);
        let (worst, worst_cut) = max_cut_cuboid(&[16, 4], 16).unwrap();
        assert_eq!(worst, vec![16, 1]);
        assert_eq!(worst_cut, 32);
    }

    #[test]
    fn min_cut_cuboid_never_beats_the_bound() {
        let dims = vec![12, 8, 4, 4, 2];
        let total: u64 = dims.iter().map(|&a| a as u64).product();
        for t in [2u64, 16, 64, 256, 512, 1024, total / 2] {
            if let Some((_, cut)) = min_cut_cuboid(&dims, t) {
                let bound = general_torus_bound(&dims, t);
                assert!(
                    bound <= cut as f64 + 1e-6,
                    "t={t}: bound {bound} > cut {cut}"
                );
            }
        }
    }

    #[test]
    fn impossible_volume_returns_none() {
        assert!(min_cut_cuboid(&[4, 4], 13).is_none());
    }

    #[test]
    fn min_cut_profile_matches_the_per_volume_search() {
        for dims in [
            vec![2],
            vec![7],
            vec![4, 4],
            vec![5, 3],
            vec![1, 6, 1],
            vec![6, 4, 2],
            vec![3, 3, 3, 2],
            vec![4, 3, 2, 1, 2],
        ] {
            let total: u64 = dims.iter().map(|&a| a as u64).product();
            let profile = min_cut_profile(&dims);
            assert_eq!(profile.len() as u64, total / 2 + 1, "{dims:?}");
            assert_eq!(profile[0], 0);
            for t in 1..=total / 2 {
                let expected = min_cut_cuboid(&dims, t).map_or(0, |(_, cut)| cut);
                assert_eq!(profile[t as usize], expected, "{dims:?}, t = {t}");
            }
        }
        // 13 is a prime above every extent: no cuboid has that volume.
        assert_eq!(min_cut_profile(&[4, 8])[13], 0);
        assert_eq!(min_cut_profile(&[4, 8])[16], 8);
        assert_eq!(min_cut_profile(&[1, 1]), vec![0]);
    }
}
