#![allow(clippy::map_entry)] // model-vs-system checks read then insert deliberately

//! Property tests: the management system's single system image is always
//! consistent with what the brokers actually store, under arbitrary
//! operation sequences.

use cpms_mgmt::{AntiEntropyAuditor, Cluster, Controller};
use cpms_model::{ContentId, ContentKind, NodeId, Priority, UrlPath};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Publish { slot: u8, nodes: Vec<u8>, size: u16 },
    Delete { slot: u8 },
    Replicate { slot: u8, node: u8 },
    Offload { slot: u8, node: u8 },
    Rename { slot: u8, to_slot: u8 },
}

const NODES: usize = 4;
const SLOTS: u8 = 12;

fn slot_path(slot: u8) -> UrlPath {
    format!("/dir{}/file{}.html", slot % 3, slot)
        .parse()
        .unwrap()
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            0..SLOTS,
            prop::collection::vec(0..NODES as u8, 1..3),
            1u16..5_000
        )
            .prop_map(|(slot, nodes, size)| Op::Publish { slot, nodes, size }),
        (0..SLOTS).prop_map(|slot| Op::Delete { slot }),
        (0..SLOTS, 0..NODES as u8).prop_map(|(slot, node)| Op::Replicate { slot, node }),
        (0..SLOTS, 0..NODES as u8).prop_map(|(slot, node)| Op::Offload { slot, node }),
        (0..SLOTS, 0..SLOTS).prop_map(|(slot, to_slot)| Op::Rename { slot, to_slot }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn single_system_image_stays_consistent(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let mut controller = Controller::new(Cluster::start(NODES, 1 << 20));
        // model: slot -> (content id, replica set)
        let mut model: HashMap<u8, (u32, Vec<u8>)> = HashMap::new();
        let mut next_content = 0u32;

        for op in ops {
            match op {
                Op::Publish { slot, nodes, size } => {
                    let path = slot_path(slot);
                    let mut uniq = nodes.clone();
                    uniq.sort_unstable();
                    uniq.dedup();
                    let node_ids: Vec<NodeId> = uniq.iter().map(|&n| NodeId(n as u16)).collect();
                    let r = controller.publish(
                        &path,
                        ContentId(next_content),
                        ContentKind::StaticHtml,
                        size as u64,
                        Priority::Normal,
                        &node_ids,
                    );
                    if let std::collections::hash_map::Entry::Vacant(e) = model.entry(slot) {
                        prop_assert!(r.is_ok(), "publish failed: {:?}", r.err());
                        e.insert((next_content, uniq));
                        next_content += 1;
                    } else {
                        prop_assert!(r.is_err(), "duplicate publish must fail");
                    }
                }
                Op::Delete { slot } => {
                    let r = controller.delete(&slot_path(slot));
                    prop_assert_eq!(r.is_ok(), model.remove(&slot).is_some());
                }
                Op::Replicate { slot, node } => {
                    let r = controller.replicate(&slot_path(slot), NodeId(node as u16));
                    match model.get_mut(&slot) {
                        Some((_, replicas)) if !replicas.contains(&node) => {
                            prop_assert!(r.is_ok());
                            replicas.push(node);
                        }
                        _ => prop_assert!(r.is_err()),
                    }
                }
                Op::Offload { slot, node } => {
                    let r = controller.offload(&slot_path(slot), NodeId(node as u16));
                    match model.get_mut(&slot) {
                        Some((_, replicas))
                            if replicas.contains(&node) && replicas.len() > 1 =>
                        {
                            prop_assert!(r.is_ok());
                            replicas.retain(|&n| n != node);
                        }
                        _ => prop_assert!(r.is_err()),
                    }
                }
                Op::Rename { slot, to_slot } => {
                    let r = controller.rename(&slot_path(slot), &slot_path(to_slot));
                    let ok = slot != to_slot
                        && model.contains_key(&slot)
                        && !model.contains_key(&to_slot);
                    prop_assert_eq!(r.is_ok(), ok, "rename {} -> {}", slot, to_slot);
                    if ok {
                        let v = model.remove(&slot).expect("checked");
                        model.insert(to_slot, v);
                    }
                }
            }
            // Invariant: stores and table agree after every operation.
            let audit = AntiEntropyAuditor::new().audit(&controller);
            prop_assert!(audit.is_clean(), "inconsistent: {audit:?}");
        }

        // Final: the table matches the model exactly.
        let table = controller.table();
        prop_assert_eq!(table.len(), model.len());
        for (path, entry) in table.iter() {
            let slot = model
                .iter()
                .find(|(_, (id, _))| ContentId(*id) == entry.content())
                .map(|(slot, _)| *slot)
                .expect("every table row is in the model");
            prop_assert_eq!(slot_path(slot), path.clone());
            let mut got: Vec<u8> = entry.locations().iter().map(|n| n.0 as u8).collect();
            got.sort_unstable();
            let mut want = model[&slot].1.clone();
            want.sort_unstable();
            prop_assert_eq!(got, want, "replica sets agree for {}", path);
        }
        controller.shutdown();
    }
}
