//! Workload inputs: fixed panels of the paper generators' output, the
//! seeded order they are sent in, and input fingerprints.
//!
//! On the paper's distributions, per-item cost spans four orders of
//! magnitude: a default random tree takes 4 ms to over 30 s. A corpus
//! re-drawn per seed therefore moves every timing more than the code
//! under test does. Measured on a 2-vCPU host, even draws from narrow
//! cost bands moved throughput, p50 and total width by 5–25% between
//! seeds. So each workload solves a fixed panel: chosen members of the
//! generators' output at seed 2005, picked by their solve time. `--seed`
//! sets the order the panel is solved or sent in. Every run regenerates
//! the panels and checks their pinned fingerprints, so a change to the
//! `rip_net` generators fails loudly instead of silently changing what
//! is measured.

use rip_net::{
    NetGenerator, RandomNetConfig, RandomTreeConfig, TreeNet, TreeNetGenerator, TwoPinNet,
};

/// Generator seed of every panel (ROADMAP's paper-scale seed).
const PANEL_SEED: u64 = 2005;

/// `tree_paper`'s trees, as indices into the `RandomTreeConfig::default()`
/// stream. Solve times at 1.3× masked `τ_min`, fresh process, 2-vCPU
/// host: tree 2 takes 6.9 s and peaks at 1.3 GB (the 1 GB class); 15,
/// 24, 18 and 19 take 0.36–0.54 s; 10 and 16 take 36 and 8 ms. Trees 0,
/// 6 and 8 of the stream take 10–33 s and up to 5.7 GB, too much for
/// one run.
const TREE_PANEL: [usize; 7] = [2, 10, 15, 16, 18, 19, 24];
const TREE_PANEL_FINGERPRINT: &str = "31baeea99864b0f5";

/// The nets of `chain_table1` and `serve_mixed`, as indices into the
/// `RandomNetConfig::default()` stream. Their 20-target Table 1 sweeps
/// take 0.12–1.4 s (6.0 s in all); nets 3, 4 and 8 take 4.5 s each.
const NET_PANEL: [usize; 7] = [0, 1, 2, 5, 6, 7, 9];
const NET_PANEL_FINGERPRINT: &str = "2659f63fa022ca4a";

/// The compact masked trees of the serve script: the first of the
/// `RandomTreeConfig::compact()` stream (milliseconds per solve).
const COMPACT_TREES: usize = 4;
const COMPACT_FINGERPRINT: &str = "f503aa4bed68aebf";

/// 64-bit FNV-1a, the fingerprint hash (stable across Rust releases,
/// unlike `DefaultHasher`).
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

fn hash_net(h: &mut Fnv, net: &TwoPinNet) {
    h.u64(net.segments().len() as u64);
    for s in net.segments() {
        h.f64(s.length_um());
        h.f64(s.r_per_um());
        h.f64(s.c_per_um());
    }
    h.u64(net.zones().len() as u64);
    for z in net.zones() {
        h.f64(z.start());
        h.f64(z.end());
    }
    h.f64(net.driver_width());
    h.f64(net.receiver_width());
}

fn hash_tree(h: &mut Fnv, tree: &TreeNet) {
    h.u64(tree.len() as u64);
    for n in tree.nodes() {
        h.u64(n.parent.map_or(u64::MAX, |p| p as u64));
        h.f64(n.r_per_um);
        h.f64(n.c_per_um);
        h.f64(n.length_um);
        h.f64(n.sink_width.unwrap_or(-1.0));
        h.u64(u64::from(n.buffer_ok));
    }
    h.f64(tree.driver_width());
}

pub fn nets_fingerprint(nets: &[TwoPinNet]) -> String {
    let mut h = Fnv::default();
    nets.iter().for_each(|n| hash_net(&mut h, n));
    h.hex()
}

pub fn trees_fingerprint(trees: &[TreeNet]) -> String {
    let mut h = Fnv::default();
    trees.iter().for_each(|t| hash_tree(&mut h, t));
    h.hex()
}

fn check(name: &str, actual: String, pinned: &str) -> Result<(), String> {
    if actual == pinned {
        Ok(())
    } else {
        Err(format!(
            "{name} fingerprint changed: generated {actual}, pinned {pinned}. The rip_net \
             generators no longer reproduce the benchmark's inputs; re-select the panel"
        ))
    }
}

fn pick<T: Clone>(stream: &[T], panel: &[usize]) -> Vec<T> {
    panel.iter().map(|&i| stream[i].clone()).collect()
}

fn stream_len(panel: &[usize]) -> usize {
    panel.iter().max().map_or(0, |m| m + 1)
}

/// The `tree_paper` panel, in panel order.
pub fn tree_panel() -> Result<Vec<TreeNet>, String> {
    let stream = TreeNetGenerator::suite(
        RandomTreeConfig::default(),
        PANEL_SEED,
        stream_len(&TREE_PANEL),
    )
    .expect("the default tree distribution is valid");
    let trees = pick(&stream, &TREE_PANEL);
    check(
        "tree panel",
        trees_fingerprint(&trees),
        TREE_PANEL_FINGERPRINT,
    )?;
    Ok(trees)
}

/// The net panel of `chain_table1` and `serve_mixed`, in panel order.
pub fn net_panel() -> Result<Vec<TwoPinNet>, String> {
    let stream = NetGenerator::suite(
        RandomNetConfig::default(),
        PANEL_SEED,
        stream_len(&NET_PANEL),
    )
    .expect("the default net distribution is valid");
    let nets = pick(&stream, &NET_PANEL);
    check("net panel", nets_fingerprint(&nets), NET_PANEL_FINGERPRINT)?;
    Ok(nets)
}

/// The compact masked trees of the serve script.
pub fn compact_trees() -> Result<Vec<TreeNet>, String> {
    let trees = TreeNetGenerator::suite(RandomTreeConfig::compact(), PANEL_SEED, COMPACT_TREES)
        .expect("the compact tree distribution is valid");
    check(
        "compact trees",
        trees_fingerprint(&trees),
        COMPACT_FINGERPRINT,
    )?;
    Ok(trees)
}

/// A permutation of `0..n` drawn from `seed` (Fisher–Yates over
/// SplitMix64, the benchmark's own RNG, so the order does not depend on
/// any crate under test).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}
