//! The seeded request stream, generated against the benchmark's own
//! mirror of the topology so that every mutation is valid when sent and
//! every read can be checked against the links the client knows of.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use selfstab_graph::{Graph, Node};
use std::time::Instant;

/// At most this many nodes are away at once; past it, membership slots
/// re-join a node instead of removing one.
const MAX_AWAY: usize = 64;
/// At most this many base links are down at once; past it, toggles bring
/// a link back up. Links flap around the base topology instead of
/// drifting towards half of it, so the load does not depend on how many
/// requests a run gets through.
const MAX_DOWN: usize = 256;

/// One request line and what its reply will be checked against.
pub struct Req {
    pub line: String,
    /// `Some((node, mirror neighbours, sorted))` for a membership read.
    pub read: Option<(usize, Vec<u32>)>,
    /// The link an edge toggle flips.
    pub edge: Option<(Node, Node)>,
}

/// The composition of one batch of requests (shuffled within the batch).
#[derive(Clone, Copy)]
pub struct Mix {
    pub reads: usize,
    pub toggles: usize,
    pub membership: usize,
}

pub struct Stream {
    base: Graph,
    mirror: Graph,
    away: Vec<bool>,
    away_list: Vec<usize>,
    /// Base links that are down while both endpoints are present.
    down: Vec<(Node, Node)>,
    rng: StdRng,
    /// Time spent in the mirror's topology mutations, and their count.
    pub mutate_secs: f64,
    pub mutations: u64,
}

impl Stream {
    /// A stream over `base`, the topology the service starts from.
    pub fn new(base: &Graph, seed: u64) -> Stream {
        Stream {
            base: base.clone(),
            mirror: base.clone(),
            away: vec![false; base.n()],
            away_list: Vec::new(),
            down: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            mutate_secs: 0.0,
            mutations: 0,
        }
    }

    /// The topology after every request generated so far.
    pub fn mirror(&self) -> &Graph {
        &self.mirror
    }

    pub fn batch(&mut self, mix: Mix) -> Vec<Req> {
        let mut slots: Vec<u8> = std::iter::repeat_n(0u8, mix.reads)
            .chain(std::iter::repeat_n(1u8, mix.toggles))
            .chain(std::iter::repeat_n(2u8, mix.membership))
            .collect();
        slots.shuffle(&mut self.rng);
        slots
            .into_iter()
            .map(|slot| match slot {
                0 => self.read(),
                1 => self.toggle(),
                _ => self.membership(),
            })
            .collect()
    }

    fn present_node(&mut self) -> usize {
        loop {
            let v = self.rng.random_range(0..self.base.n());
            if !self.away[v] {
                return v;
            }
        }
    }

    fn read(&mut self) -> Req {
        let v = self.rng.random_range(0..self.base.n());
        let nbrs = self
            .mirror
            .neighbors(Node(v as u32))
            .iter()
            .map(|w| w.0)
            .collect();
        Req {
            line: format!(r#"{{"op":"query","what":"membership","node":{v}}}"#),
            read: Some((v, nbrs)),
            edge: None,
        }
    }

    /// Take a base link between two present nodes down, or bring a downed
    /// one back up.
    fn toggle(&mut self) -> Req {
        let take_down =
            self.down.is_empty() || (self.down.len() < MAX_DOWN && self.rng.random_bool(0.5));
        if !take_down {
            let (u, w) = self.down[self.rng.random_range(0..self.down.len())];
            return self.flip(u, w);
        }
        loop {
            let u = Node(self.present_node() as u32);
            let nbrs = self.base.neighbors(u);
            if nbrs.is_empty() {
                continue;
            }
            let w = nbrs[self.rng.random_range(0..nbrs.len())];
            if !self.away[w.index()] && self.mirror.has_edge(u, w) {
                return self.flip(u, w);
            }
        }
    }

    /// Flip the link `u–w`: down if the mirror has it, up otherwise.
    pub fn flip(&mut self, u: Node, w: Node) -> Req {
        let t = Instant::now();
        let up = self.mirror.has_edge(u, w);
        if up {
            self.mirror.remove_edge(u, w);
        } else {
            self.mirror.add_edge(u, w);
        }
        self.timed(t);
        let key = (u.min(w), u.max(w));
        if up {
            self.down.push(key);
        } else {
            self.down.retain(|&e| e != key);
        }
        let kind = if up { "edge-down" } else { "edge-up" };
        Req {
            line: format!(
                r#"{{"op":"mutate","kind":"{kind}","a":{},"b":{}}}"#,
                u.index(),
                w.index()
            ),
            read: None,
            edge: Some((u, w)),
        }
    }

    /// A node leaves (all its links drop), or an away node re-joins with
    /// its base links to present nodes.
    fn membership(&mut self) -> Req {
        let leave = self.away_list.is_empty()
            || (self.away_list.len() < MAX_AWAY && self.rng.random_bool(0.5));
        if leave {
            let v = self.present_node();
            let t = Instant::now();
            self.mirror.isolate(Node(v as u32));
            self.timed(t);
            self.away[v] = true;
            self.away_list.push(v);
            // Its links are gone with it; a re-join brings them all back.
            self.down.retain(|&(a, b)| a.index() != v && b.index() != v);
            Req {
                line: format!(r#"{{"op":"mutate","kind":"node-leave","v":{v}}}"#),
                read: None,
                edge: None,
            }
        } else {
            let i = self.rng.random_range(0..self.away_list.len());
            let v = self.away_list.swap_remove(i);
            self.away[v] = false;
            let attach: Vec<Node> = self
                .base
                .neighbors(Node(v as u32))
                .iter()
                .copied()
                .filter(|w| !self.away[w.index()])
                .collect();
            let t = Instant::now();
            self.mirror.attach(Node(v as u32), &attach);
            self.timed(t);
            let list: Vec<String> = attach.iter().map(|w| w.index().to_string()).collect();
            Req {
                line: format!(
                    r#"{{"op":"mutate","kind":"node-join","v":{v},"attach":[{}]}}"#,
                    list.join(",")
                ),
                read: None,
                edge: None,
            }
        }
    }

    fn timed(&mut self, t: Instant) {
        self.mutate_secs += t.elapsed().as_secs_f64();
        self.mutations += 1;
    }
}
