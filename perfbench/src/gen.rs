//! Seeded inputs: the object sets, request sequences and controller op
//! mixes every workload runs. Everything here is a pure function of the
//! seed — the system under test sees only what this module generates.

use cpms_httpd::http::request_head;
use cpms_model::{ContentId, NodeId, UrlPath};
use cpms_store::{fnv64, synthetic_body};
use cpms_workload::ZipfSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Nodes in every benchmark cluster.
pub const NODES: usize = 3;

/// Length of each thread's pre-drawn request sequence; a thread cycles
/// through it, so one measured window never reuses a position.
pub const SEQ_LEN: usize = 1 << 16;

/// Independent random streams of one run, derived from the seed.
#[derive(Clone, Copy)]
pub enum Stream {
    Objects = 1,
    Popularity = 2,
    Requests = 3,
    Ops = 4,
    Loss = 5,
}

/// The RNG of one stream (and lane within it) of a seeded run.
pub fn rng(seed: u64, stream: Stream, lane: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((stream as u64) << 32)
            .wrapping_add(lane),
    )
}

/// One object a client can GET: where it lives, the exact request bytes
/// and the exact body the response must carry.
pub struct Object {
    pub path: UrlPath,
    pub content: ContentId,
    /// Nodes holding a replica; the first is the "owning" origin the
    /// direct-to-origin floor talks to.
    pub nodes: [NodeId; 2],
    pub head: Vec<u8>,
    pub body: Vec<u8>,
    pub checksum: u64,
}

impl Object {
    pub fn new(path: UrlPath, content: ContentId, nodes: [NodeId; 2], size: u64) -> Object {
        let body = synthetic_body(content, size);
        Object {
            head: request_head(&path, None).into_bytes(),
            checksum: fnv64(&body),
            path,
            content,
            nodes,
            body,
        }
    }
}

/// Two distinct nodes out of three, spread evenly by `i`.
pub fn two_of_three(i: usize, rng: &mut StdRng) -> [NodeId; 2] {
    let first = i % NODES;
    let second = (first + 1 + rng.gen_range(0..2) as usize) % NODES;
    [NodeId(first as u16), NodeId(second as u16)]
}

/// `count` objects in a three-level tree (`/<prefix>NN/dNN/oN.html`),
/// sizes uniform in `min..=max` bytes.
pub fn object_tree(seed: u64, prefix: &str, count: usize, min: u64, max: u64) -> Vec<Object> {
    let mut rng = rng(seed, Stream::Objects, 0);
    (0..count)
        .map(|i| {
            let path: UrlPath = format!("/{prefix}{}/d{}/o{i}.html", i % 10, (i / 10) % 30)
                .parse()
                .expect("generated paths are valid");
            let size = min + rng.gen_range(0..(max - min + 1));
            let nodes = two_of_three(i, &mut rng);
            Object::new(path, ContentId(i as u32), nodes, size)
        })
        .collect()
}

/// The request sequence of one load thread: object indices drawn
/// Zipf(`alpha`) over a seeded popularity ranking of `objects` objects.
pub fn request_sequence(seed: u64, lane: u64, objects: usize, alpha: f64) -> Vec<u32> {
    // Popularity rank -> object, so hot objects are spread over the tree
    // and the nodes instead of being the first few indices.
    let mut by_rank: Vec<u32> = (0..objects as u32).collect();
    let mut shuffle = rng(seed, Stream::Popularity, 0);
    for i in (1..by_rank.len()).rev() {
        by_rank.swap(i, shuffle.gen_range(0..(i as u64 + 1)) as usize);
    }
    let zipf = ZipfSampler::new(objects, alpha);
    let mut rng = rng(seed, Stream::Requests, lane);
    (0..SEQ_LEN)
        .map(|_| by_rank[zipf.sample(&mut rng)])
        .collect()
}

/// One controller operation of the publish-churn writer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Publish {
        path: UrlPath,
        content: ContentId,
        nodes: [NodeId; 2],
        body: usize,
    },
    Replicate {
        path: UrlPath,
        target: NodeId,
    },
    Rename {
        from: UrlPath,
        to: UrlPath,
    },
    Delete {
        path: UrlPath,
    },
}

impl Op {
    /// The span name of the controller call this op makes.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Publish { .. } => "mgmt.publish",
            Op::Replicate { .. } => "mgmt.replicate",
            Op::Rename { .. } => "mgmt.rename",
            Op::Delete { .. } => "mgmt.delete",
        }
    }
}

struct LiveObject {
    path: UrlPath,
    nodes: Vec<NodeId>,
}

/// Most objects the writer keeps alive at once.
const WINDOW: usize = 64;

/// Distinct 1 KiB bodies the writer publishes.
pub const CHURN_BODIES: usize = 8;

/// Generates the writer's op sequence: 40 % publish, 20 % replicate,
/// 10 % rename, 30 % delete over a sliding window of the writer's own
/// objects. It tracks what each op does to the window, so every op it
/// emits is valid against a controller that applied all earlier ones —
/// the sequence depends on the seed alone, never on the system's replies.
pub struct OpGen {
    rng: StdRng,
    prefix: String,
    live: VecDeque<LiveObject>,
    next_id: u32,
}

impl OpGen {
    pub fn new(seed: u64, prefix: &str) -> OpGen {
        OpGen {
            rng: rng(seed, Stream::Ops, 0),
            prefix: prefix.to_string(),
            live: VecDeque::new(),
            next_id: 0,
        }
    }

    fn path(&self, id: u32, renamed: bool) -> UrlPath {
        let suffix = if renamed { "r" } else { "" };
        format!("/{}/d{}/o{id}{suffix}.html", self.prefix, id % 16)
            .parse()
            .expect("generated paths are valid")
    }

    fn publish(&mut self) -> Op {
        let id = self.next_id;
        self.next_id += 1;
        let path = self.path(id, false);
        let nodes = two_of_three(id as usize, &mut self.rng);
        self.live.push_back(LiveObject {
            path: path.clone(),
            nodes: nodes.to_vec(),
        });
        Op::Publish {
            path,
            // Clear of every preloaded object's id.
            content: ContentId(1_000_000 + id),
            nodes,
            body: id as usize % CHURN_BODIES,
        }
    }

    fn pick(&mut self) -> usize {
        self.rng.gen_range(0..self.live.len() as u64) as usize
    }

    pub fn next_op(&mut self) -> Op {
        let roll: f64 = self.rng.gen();
        if self.live.len() >= WINDOW {
            let gone = self.live.pop_front().expect("window is full");
            return Op::Delete { path: gone.path };
        }
        if self.live.is_empty() || roll < 0.40 {
            return self.publish();
        }
        if roll < 0.60 {
            let start = self.pick();
            let n = self.live.len();
            let Some(i) = (0..n)
                .map(|k| (start + k) % n)
                .find(|&i| self.live[i].nodes.len() < NODES)
            else {
                return self.publish();
            };
            let target = (0..NODES as u16)
                .map(NodeId)
                .find(|n| !self.live[i].nodes.contains(n))
                .expect("fewer than three replicas");
            self.live[i].nodes.push(target);
            return Op::Replicate {
                path: self.live[i].path.clone(),
                target,
            };
        }
        if roll < 0.70 {
            let i = self.pick();
            let id = self.next_id;
            self.next_id += 1;
            let to = self.path(id, true);
            let from = std::mem::replace(&mut self.live[i].path, to.clone());
            return Op::Rename { from, to };
        }
        let i = self.pick();
        let gone = self.live.remove(i).expect("index in range");
        Op::Delete { path: gone.path }
    }
}

/// The bodies the writer publishes, by `Op::Publish::body`.
pub fn churn_bodies() -> Vec<Vec<u8>> {
    (0..CHURN_BODIES)
        .map(|k| synthetic_body(ContentId(2_000_000 + k as u32), 1024))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        let a = request_sequence(2000, 0, 8_700, 0.7);
        assert_eq!(a, request_sequence(2000, 0, 8_700, 0.7));
        assert_ne!(a, request_sequence(2001, 0, 8_700, 0.7));
        assert_ne!(
            a,
            request_sequence(2000, 1, 8_700, 0.7),
            "lanes are independent"
        );
        let heads = |seed| {
            object_tree(seed, "s", 50, 64, 1024)
                .into_iter()
                .map(|o| (o.head, o.body))
                .collect::<Vec<_>>()
        };
        assert_eq!(heads(7), heads(7));
        assert_ne!(heads(7), heads(8));
    }

    #[test]
    fn same_seed_same_ops_other_seed_other_ops() {
        let ops = |seed| {
            let mut gen = OpGen::new(seed, "w");
            (0..500).map(|_| gen.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(2000), ops(2000));
        assert_ne!(ops(2000), ops(2001));
    }

    #[test]
    fn op_mix_is_valid_and_bounded() {
        let mut gen = OpGen::new(3, "w");
        let mut live: std::collections::HashMap<UrlPath, Vec<NodeId>> = Default::default();
        let mut kinds: std::collections::HashMap<&str, u32> = Default::default();
        for _ in 0..5_000 {
            let op = gen.next_op();
            *kinds.entry(op.kind()).or_default() += 1;
            match op {
                Op::Publish { path, nodes, .. } => {
                    assert_ne!(nodes[0], nodes[1]);
                    assert!(live.insert(path, nodes.to_vec()).is_none());
                }
                Op::Replicate { path, target } => {
                    let nodes = live.get_mut(&path).expect("replicates a live object");
                    assert!(!nodes.contains(&target));
                    nodes.push(target);
                }
                Op::Rename { from, to } => {
                    let nodes = live.remove(&from).expect("renames a live object");
                    assert!(live.insert(to, nodes).is_none());
                }
                Op::Delete { path } => {
                    assert!(live.remove(&path).is_some(), "deletes a live object");
                }
            }
            assert!(live.len() <= WINDOW);
        }
        for kind in [
            "mgmt.publish",
            "mgmt.replicate",
            "mgmt.rename",
            "mgmt.delete",
        ] {
            assert!(kinds[kind] > 250, "{kind} is part of the mix: {kinds:?}");
        }
    }
}
