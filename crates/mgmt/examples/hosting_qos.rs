//! §4's hosting-service scenario: differentiated placement for content of
//! different priorities, plus single-copy placement for mutable documents,
//! managed through the controller/broker/agent stack.
//!
//! Run with: `cargo run --release -p cpms-mgmt --example hosting_qos`

use cpms_mgmt::{AntiEntropyAuditor, Cluster, Controller};
use cpms_model::{ContentId, ContentKind, NodeId, Priority, UrlPath};

fn main() {
    // A five-node hosting cluster: nodes 0-1 are "premium" (fast), 2-4
    // commodity.
    let mut controller = Controller::new(Cluster::start(5, 64 << 20));
    let premium = [NodeId(0), NodeId(1)];
    let commodity = [NodeId(2), NodeId(3), NodeId(4)];

    // Customer A pays for high availability: critical shopping pages go on
    // both premium nodes.
    let cart: UrlPath = "/customer-a/cart.asp".parse().expect("valid");
    controller
        .publish(
            &cart,
            ContentId(0),
            ContentKind::Asp,
            4 * 1024,
            Priority::Critical,
            &premium,
        )
        .expect("publish cart");

    // Customer B's brochure site lives on one commodity node.
    for (i, page) in ["/customer-b/index.html", "/customer-b/contact.html"]
        .iter()
        .enumerate()
    {
        controller
            .publish(
                &page.parse().expect("valid"),
                ContentId(1 + i as u32),
                ContentKind::StaticHtml,
                8 * 1024,
                Priority::Normal,
                &commodity[i % commodity.len()..=i % commodity.len()],
            )
            .expect("publish page");
    }

    // Customer C's news feed is mutable: §4 keeps it single-copy so
    // consistency stays a centralized, trivial problem.
    let feed: UrlPath = "/customer-c/news.html".parse().expect("valid");
    controller
        .publish(
            &feed,
            ContentId(9),
            ContentKind::StaticHtml,
            2 * 1024,
            Priority::Normal,
            &[NodeId(2)],
        )
        .expect("publish feed");
    for edition in 1..=3u64 {
        let version = controller.update_content(&feed).expect("update feed");
        assert_eq!(version, edition);
        println!("published news edition {edition} (single-copy: no fan-out consistency work)");
    }

    // The administrator sees one coherent tree regardless of placement.
    println!("\nsingle system image:");
    let table = controller.table();
    let mut rows: Vec<_> = table.iter().collect();
    rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    for (path, entry) in rows {
        println!(
            "  {:<28} {:>9} {:>8} priority={:<8} on {:?}",
            path.to_string(),
            entry.kind().to_string(),
            format!("{}B", entry.size_bytes()),
            entry.priority().to_string(),
            entry.locations().iter().map(|n| n.0).collect::<Vec<_>>(),
        );
    }

    // Demand spikes on customer B: replicate their index everywhere cheap.
    let b_index: UrlPath = "/customer-b/index.html".parse().expect("valid");
    for node in commodity.iter().skip(1) {
        controller.replicate(&b_index, *node).expect("replicate");
    }
    println!(
        "\nafter replication, {} has {} copies",
        b_index,
        controller
            .table()
            .lookup(&b_index)
            .expect("present")
            .replica_count()
    );

    // The audit proves brokers and the URL table agree.
    let audit = AntiEntropyAuditor::new().audit(&controller);
    assert!(audit.is_clean(), "single system image intact: {audit:?}");
    println!("consistency audit: table and brokers agree on every copy");
    controller.shutdown();
}
