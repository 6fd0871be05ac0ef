//! Conflict-free responder subsets.
//!
//! The readers' first round terminates when "∃ Resp1OK ⊆ Resp1 :
//! (|Resp1OK| ≥ S − t) ∧ (∀ i,k ∈ Resp1OK : ¬conflict(i,k))" (Figure 4
//! line 11 / Figure 6 line 11). Conflicts form a graph over responders, and
//! the existential asks for an independent set of size ≥ S − t. Lemma 1
//! guarantees the correct responders are pairwise conflict-free, so such a
//! set always exists eventually; this module decides the existential
//! *exactly* (branch-and-bound over bitmasks, on the stack), which is cheap
//! at realistic object counts (S ≤ 64).

/// Whether a pairwise-conflict-free subset of `members` with at least
/// `need` members exists (the readers' line 11). Allocates nothing.
///
/// `conflict(i, k)` is the (possibly asymmetric) conflict predicate; a pair
/// is incompatible when either direction conflicts, and a self-conflicting
/// member can never be selected (the `∀ i,k` in the paper ranges over `i = k`
/// too).
///
/// # Panics
///
/// Panics if `members` yields more than 64 items (beyond any meaningful
/// deployment size).
pub fn conflict_free_of_size(
    members: impl IntoIterator<Item = usize>,
    mut conflict: impl FnMut(usize, usize) -> bool,
    need: usize,
) -> bool {
    let (mut ids, mut m) = ([0usize; 64], 0);
    for i in members {
        assert!(m < 64, "conflict-free search: at most 64 responders");
        ids[m] = i;
        m += 1;
    }
    let members = &ids[..m];

    // Adjacency bitmasks over member positions; self-loops exclude a vertex.
    let mut adj = [0u64; 64];
    let mut eligible: u64 = 0;
    for (a, &ia) in members.iter().enumerate() {
        if !conflict(ia, ia) {
            eligible |= 1 << a;
        }
        for (b, &ib) in members.iter().enumerate().skip(a + 1) {
            if conflict(ia, ib) || conflict(ib, ia) {
                adj[a] |= 1 << b;
                adj[b] |= 1 << a;
            }
        }
    }

    let mut best: u64 = 0;
    search(eligible, 0, &adj, &mut best);
    best.count_ones() as usize >= need
}

fn search(candidates: u64, chosen: u64, adj: &[u64], best: &mut u64) {
    let chosen_count = chosen.count_ones();
    if chosen_count + candidates.count_ones() <= best.count_ones() {
        return; // cannot beat the incumbent
    }
    if candidates == 0 {
        if chosen_count > best.count_ones() {
            *best = chosen;
        }
        return;
    }

    // Pivot on the candidate with the most remaining neighbours: including or
    // excluding it prunes the search fastest.
    let mut pivot = candidates.trailing_zeros() as usize;
    let mut pivot_deg = 0;
    let mut rest = candidates;
    while rest != 0 {
        let v = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        let deg = (adj[v] & candidates).count_ones();
        if deg > pivot_deg {
            pivot_deg = deg;
            pivot = v;
        }
    }

    if pivot_deg == 0 {
        // No internal edges remain: take everything.
        let final_set = chosen | candidates;
        if final_set.count_ones() > best.count_ones() {
            *best = final_set;
        }
        return;
    }

    let bit = 1u64 << pivot;
    // Branch 1: include the pivot (drops its neighbours).
    search(candidates & !bit & !adj[pivot], chosen | bit, adj, best);
    // Branch 2: exclude the pivot.
    search(candidates & !bit, chosen, adj, best);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The size of a maximum conflict-free subset.
    fn largest(members: &[usize], conflict: impl Fn(usize, usize) -> bool) -> usize {
        let fits = |need| conflict_free_of_size(members.iter().copied(), &conflict, need);
        (0..=members.len())
            .rev()
            .find(|&need| fits(need))
            .unwrap_or(0)
    }

    #[test]
    fn no_conflicts_takes_everyone() {
        assert_eq!(largest(&[3, 1, 4, 1 + 4, 9], |_, _| false), 5);
    }

    #[test]
    fn full_conflicts_take_one() {
        assert_eq!(largest(&[0, 1, 2, 3], |i, k| i != k), 1);
    }

    #[test]
    fn self_conflict_excludes_vertex() {
        assert_eq!(largest(&[0, 1, 2], |i, k| i == 1 && k == 1), 2);
        assert_eq!(largest(&[1], |i, k| i == 1 && k == 1), 0);
    }

    #[test]
    fn asymmetric_conflict_still_separates_pair() {
        // Only conflict(0, 1) holds; the pair {0, 1} must still be split
        // because the paper's condition quantifies over ordered pairs.
        assert_eq!(largest(&[0, 1, 2], |i, k| i == 0 && k == 1), 2);
    }

    #[test]
    fn star_graph_keeps_leaves() {
        // Vertex 0 conflicts with all others: drop it, keep the leaves.
        let members: Vec<usize> = (0..8).collect();
        assert_eq!(largest(&members, |i, k| i == 0 || k == 0), 7);
    }

    #[test]
    fn two_cliques_pick_larger_side_plus_one() {
        // Members 0..3 form a clique, 3..9 form a clique, no cross edges:
        // best = 1 from the small clique + 1 from the big one? No —
        // independent set picks one vertex per clique: size 2.
        let members: Vec<usize> = (0..9).collect();
        let got = largest(&members, |i, k| {
            i != k && ((i < 3 && k < 3) || (i >= 3 && k >= 3))
        });
        assert_eq!(got, 2);
    }

    #[test]
    #[should_panic(expected = "at most 64 responders")]
    fn more_than_64_members_are_refused() {
        conflict_free_of_size(0..65, |_, _| false, 1);
    }

    #[test]
    fn threshold_helper() {
        let members = [0, 1, 2, 3];
        assert!(conflict_free_of_size(members, |_, _| false, 4));
        assert!(!conflict_free_of_size(members, |i, k| i != k, 2));
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        // Deterministic pseudo-random graphs; compare against exhaustive
        // enumeration for n <= 12.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in 2..=12usize {
            for _case in 0..20 {
                let mut edges = vec![false; n * n];
                for i in 0..n {
                    for k in (i + 1)..n {
                        if next() % 100 < 30 {
                            edges[i * n + k] = true;
                            edges[k * n + i] = true;
                        }
                    }
                }
                let members: Vec<usize> = (0..n).collect();
                let fast = largest(&members, |i, k| edges[i * n + k]);
                // Brute force.
                let mut brute = 0usize;
                'mask: for mask in 0u32..(1 << n) {
                    let size = mask.count_ones() as usize;
                    if size <= brute {
                        continue;
                    }
                    for i in 0..n {
                        if mask & (1 << i) == 0 {
                            continue;
                        }
                        for k in (i + 1)..n {
                            if mask & (1 << k) != 0 && edges[i * n + k] {
                                continue 'mask;
                            }
                        }
                    }
                    brute = size;
                }
                assert_eq!(fast, brute, "n={n} disagreement");
            }
        }
    }
}
