//! Distributed updates over XRPC (paper §2.3): calling XQUF *updating
//! functions* remotely under both isolation levels.
//!
//! * isolation "none"   — rule RFu: each request's pending update list is
//!   applied immediately at the callee;
//! * isolation "repeatable" — rule R'Fu: callees defer their ∆s; the
//!   originator drives WS-AtomicTransaction-style 2PC (Prepare/Commit) at
//!   the end, so the distributed commit is atomic. An incompatible update
//!   pair demonstrates the abort path, and a call *back* into the
//!   originator shows that it is a participant of its own query.
//!
//! ```sh
//! cargo run --example distributed_update
//! ```

use std::sync::Arc;
use xrpc_net::{NetProfile, SimNetwork};
use xrpc_peer::{EngineKind, Peer};

const ACCOUNTS_MODULE: &str = r#"
    module namespace acc = "accounts";
    declare function acc:balance($id as xs:string) as xs:double
    { number(doc("accounts.xml")//account[@id = $id]/balance) };
    declare updating function acc:setBalance($id as xs:string, $v as xs:double)
    { replace value of node doc("accounts.xml")//account[@id = $id]/balance
      with string($v) };
    declare updating function acc:rename($id as xs:string, $n as xs:string)
    { rename node doc("accounts.xml")//account[@id = $id] as $n };
    declare updating function acc:settle($here as xs:string, $there as xs:string,
                                         $v as xs:double)
    { (replace value of node doc("accounts.xml")//account[@id = $here]/balance
       with string($v),
       execute at {"xrpc://bank1"} {acc:setBalance($there, $v)}) };
"#;

fn balance(peer: &Peer, id: &str) -> String {
    let doc = peer.docs.get("accounts.xml").unwrap();
    let mut found = String::new();
    for n in doc.all_ids() {
        if doc
            .node(n)
            .name
            .as_ref()
            .is_some_and(|q| q.local == "account")
            && doc.attr_local(n, "id") == Some(id)
        {
            found = doc.string_value(n).trim().to_string();
        }
    }
    found
}

fn main() {
    let net = Arc::new(SimNetwork::new(NetProfile::lan()));
    let bank1 = Peer::new("xrpc://bank1", EngineKind::Tree);
    let bank2 = Peer::new("xrpc://bank2", EngineKind::Tree);
    for (p, who) in [(&bank1, "alice"), (&bank2, "bob")] {
        p.register_module(ACCOUNTS_MODULE).unwrap();
        p.add_document(
            "accounts.xml",
            &format!(
                r#"<accounts><account id="{who}"><balance>100</balance></account></accounts>"#
            ),
        )
        .unwrap();
        p.set_transport(net.clone());
    }
    net.register("xrpc://bank1", bank1.soap_handler());
    net.register("xrpc://bank2", bank2.soap_handler());

    // The coordinator peer holds no data itself.
    let coordinator = Peer::new("xrpc://coordinator", EngineKind::Tree);
    coordinator.register_module(ACCOUNTS_MODULE).unwrap();
    coordinator.set_transport(net.clone());

    println!(
        "before: alice={} at bank1, bob={} at bank2",
        balance(&bank1, "alice"),
        balance(&bank2, "bob")
    );

    // A distributed transfer, atomically committed via 2PC.
    let transfer = r#"
        declare option xrpc:isolation "repeatable";
        declare option xrpc:timeout "30";
        import module namespace acc = "accounts";
        ( execute at {"xrpc://bank1"} {acc:setBalance("alice", 70)},
          execute at {"xrpc://bank2"} {acc:setBalance("bob", 130)} )"#;
    let out = coordinator.execute_detailed(transfer).expect("transfer");
    println!(
        "transfer committed via 2PC: {:?}",
        out.commit.expect("2PC ran")
    );
    println!(
        "after:  alice={} at bank1, bob={} at bank2",
        balance(&bank1, "alice"),
        balance(&bank2, "bob")
    );
    assert_eq!(balance(&bank1, "alice"), "70");
    assert_eq!(balance(&bank2, "bob"), "130");

    // An incompatible pair of updates (two renames of one node) must abort
    // atomically: neither bank applies anything.
    let broken = r#"
        declare option xrpc:isolation "repeatable";
        import module namespace acc = "accounts";
        ( execute at {"xrpc://bank1"} {acc:rename("alice", "a1")},
          execute at {"xrpc://bank1"} {acc:rename("alice", "a2")},
          execute at {"xrpc://bank2"} {acc:setBalance("bob", 0)} )"#;
    let err = match coordinator.execute_detailed(broken) {
        Err(e) => e,
        Ok(_) => panic!("conflicting transaction must abort"),
    };
    println!("\nconflicting transaction correctly aborted: {err}");
    assert_eq!(balance(&bank2, "bob"), "130", "abort must be atomic");

    // Rule RFu for contrast: isolation "none" applies per request, no 2PC.
    let quick = r#"
        import module namespace acc = "accounts";
        execute at {"xrpc://bank2"} {acc:setBalance("bob", 42)}"#;
    coordinator.execute(quick).expect("rfu update");
    println!(
        "\nisolation none (rule RFu): bob={} immediately, no coordination messages",
        balance(&bank2, "bob")
    );
    assert_eq!(balance(&bank2, "bob"), "42");

    // The call-back case: bank1 originates, bank2's function updates bank2
    // *and* calls an updating function back at bank1. The originator is a
    // participant of its own query — one snapshot per query per peer — so
    // the called-back ∆ is prepared and committed with the rest.
    let settle = r#"
        declare option xrpc:isolation "repeatable";
        import module namespace acc = "accounts";
        execute at {"xrpc://bank2"} {acc:settle("bob", "alice", 7)}"#;
    let out = bank1.execute_detailed(settle).expect("settle");
    println!(
        "\ncall back into the originator: {:?}; alice={} at bank1, bob={} at bank2",
        out.commit.expect("2PC ran"),
        balance(&bank1, "alice"),
        balance(&bank2, "bob")
    );
    assert_eq!(balance(&bank1, "alice"), "7", "the originator's own ∆");
    assert_eq!(balance(&bank2, "bob"), "7");
    println!("call-back case committed on both peers");
}
