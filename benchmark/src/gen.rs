//! Seeded input generation. Everything the program under test receives —
//! the server's set, each client's set, every write batch — is a pure
//! function of `--seed`; the program never sees the seed itself.
//!
//! Elements are drawn from a keyed bijection on the 32-bit universe, so any
//! two distinct indices give two distinct elements and the regions below
//! are disjoint by construction (no rejection sampling, no hash set):
//!
//! * the **ring** — `store_len + RING_SLACK` elements; the server's set is a
//!   window of `store_len` consecutive ring slots. A write batch adds the
//!   slots just past the window and removes the oldest ones, so the window
//!   slides and the store keeps its size while its contents turn over;
//! * the **extras** — elements only a client holds (`A \ B`);
//! * the **toggle** — the one element the open-loop writer adds and removes.

/// Ring slots beyond the window: room for the window to slide without the
/// slot being added ever still being inside it.
pub const RING_SLACK: usize = 1 << 16;

const EXTRA_BASE: u32 = 1 << 30;
const TOGGLE_INDEX: u32 = (1 << 30) + (1 << 29);

/// A keyed bijection on `u32` (multiply-xorshift rounds, each invertible).
fn permute32(index: u32, key: u32) -> u32 {
    let mut x = index ^ key;
    x = x.wrapping_mul(0x9E37_79B1);
    x ^= x >> 15;
    x = x.wrapping_mul(0x85EB_CA6B);
    x ^= x >> 13;
    x = x.wrapping_mul(0xC2B2_AE35);
    x ^= x >> 16;
    x
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The generated inputs of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Offset stream for the per-cycle choice of which elements a client
    /// lacks.
    offsets_seed: u64,
    /// Every ring slot's element.
    ring: Vec<u64>,
    /// The elements only clients hold.
    pub extras: Vec<u64>,
    /// The open-loop writer's element.
    pub toggle: u64,
    store_len: usize,
}

impl Inputs {
    pub fn generate(seed: u64, store_len: usize, extra: usize) -> Inputs {
        let mut state = seed;
        let key = splitmix64(&mut state) as u32;
        let offsets_seed = splitmix64(&mut state);
        // Index u32::MAX is never handed out, so its image stands in for
        // the one index whose image is 0 (elements must be nonzero).
        let element = |index: u32| match permute32(index, key) {
            0 => permute32(u32::MAX, key) as u64,
            e => e as u64,
        };
        let ring = (0..(store_len + RING_SLACK) as u32).map(element).collect();
        let extras = (0..extra as u32).map(|i| element(EXTRA_BASE + i)).collect();
        Inputs {
            offsets_seed,
            ring,
            extras,
            toggle: element(TOGGLE_INDEX),
            store_len,
        }
    }

    /// The server's set when the window starts at ring slot `start`.
    pub fn window(&self, start: usize) -> Vec<u64> {
        let len = self.ring.len();
        let start = start % len;
        let end = start + self.store_len;
        if end <= len {
            self.ring[start..end].to_vec()
        } else {
            let mut out = self.ring[start..].to_vec();
            out.extend_from_slice(&self.ring[..end - len]);
            out
        }
    }

    /// The write batch that slides the window from `start` by `step` slots:
    /// `(added, removed)`.
    pub fn slide(&self, start: usize, step: usize) -> (Vec<u64>, Vec<u64>) {
        let len = self.ring.len();
        let slot = |i: usize| self.ring[i % len];
        let added = (0..step)
            .map(|i| slot(start + self.store_len + i))
            .collect();
        let removed = (0..step).map(|i| slot(start + i)).collect();
        (added, removed)
    }

    /// The full sync of cycle `cycle` with the server's window at `start`:
    /// the client's set and the ground-truth difference `A△B`, sorted.
    pub fn sync_case(&self, start: usize, miss: usize, cycle: u64) -> (Vec<u64>, Vec<u64>) {
        let (client, mut truth) = self.client_set(&self.window(start), miss, cycle);
        truth.extend_from_slice(&self.extras);
        truth.sort_unstable();
        (client, truth)
    }

    /// Client set for sync number `cycle` against the window `server_set`:
    /// the server's set minus `miss` elements, plus every extra. Returns
    /// `(client_set, missing)` — `missing` is what the client lacks, so the
    /// ground-truth difference is `missing ∪ extras`.
    fn client_set(&self, server_set: &[u64], miss: usize, cycle: u64) -> (Vec<u64>, Vec<u64>) {
        let n = server_set.len();
        let mut client = server_set.to_vec();
        let mut missing = Vec::with_capacity(miss);
        // `miss` distinct positions: one per stride, all shifted by a
        // per-cycle pseudo-random offset. Removed from the top down so
        // `swap_remove` never disturbs a position still to be removed.
        if let Some(stride) = n.checked_div(miss) {
            let mut state = self.offsets_seed ^ cycle.wrapping_mul(0xA24B_AED4_963E_E407);
            let offset = (splitmix64(&mut state) % stride as u64) as usize;
            for j in (0..miss).rev() {
                missing.push(client.swap_remove(offset + j * stride));
            }
        }
        client.extend_from_slice(&self.extras);
        (client, missing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn regions_are_disjoint_nonzero_and_seeded() {
        let a = Inputs::generate(7, 5_000, 40);
        let b = Inputs::generate(7, 5_000, 40);
        let c = Inputs::generate(8, 5_000, 40);
        assert_eq!(a.ring, b.ring);
        assert_ne!(a.ring, c.ring);
        let mut all: HashSet<u64> = a.ring.iter().copied().collect();
        all.extend(a.extras.iter().copied());
        all.insert(a.toggle);
        assert_eq!(all.len(), a.ring.len() + 40 + 1);
        assert!(all.iter().all(|&e| e != 0 && e <= u32::MAX as u64));
    }

    #[test]
    fn client_set_differs_by_exactly_miss_plus_extras() {
        let inputs = Inputs::generate(3, 10_000, 50);
        let start = inputs.ring.len() - 17; // window wraps around the ring
        let server = inputs.window(start);
        assert_eq!(server.len(), 10_000);
        let (client, missing) = inputs.client_set(&server, 50, 4);
        assert_eq!(missing.len(), 50);
        let server_set: HashSet<u64> = server.iter().copied().collect();
        let client_set: HashSet<u64> = client.iter().copied().collect();
        assert_eq!(client_set.len(), client.len());
        let mut truth: Vec<u64> = server_set
            .symmetric_difference(&client_set)
            .copied()
            .collect();
        truth.sort_unstable();
        let mut expect: Vec<u64> = missing.iter().chain(&inputs.extras).copied().collect();
        expect.sort_unstable();
        assert_eq!(truth, expect);
        // Another cycle lacks other elements.
        assert_ne!(inputs.client_set(&server, 50, 5).1, missing);
    }

    #[test]
    fn slide_keeps_the_window_consistent() {
        let inputs = Inputs::generate(1, 1_000, 0);
        let (added, removed) = inputs.slide(10, 25);
        let before: HashSet<u64> = inputs.window(10).into_iter().collect();
        let mut after = before.clone();
        assert!(removed.iter().all(|e| after.remove(e)));
        assert!(added.iter().all(|&e| after.insert(e)));
        assert_eq!(
            after,
            inputs.window(35).into_iter().collect::<HashSet<u64>>()
        );
    }
}
