//! Plan-cache behavior: hit/miss accounting, invalidation on module and
//! static-context changes, the prepared-query API, the fidelity mode, and
//! a seeded property test that cache keys never collide across distinct
//! queries or distinct static contexts.

use std::collections::HashSet;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use xdm::{Item, Sequence};
use xrpc_peer::{EngineKind, Peer};

fn serialize(seq: &Sequence) -> String {
    seq.iter()
        .map(|i| match i {
            Item::Node(n) => n.to_xml(),
            a => a.string_value(),
        })
        .collect::<Vec<_>>()
        .join("|")
}

fn peer_with_data(engine: EngineKind) -> Arc<Peer> {
    let p = Peer::new("xrpc://solo.example.org", engine);
    p.add_document("data.xml", "<v>root</v>").unwrap();
    p.add_document("app/data.xml", "<v>scoped</v>").unwrap();
    p.add_document(
        "people.xml",
        r#"<site><person id="p0"><name>Ann</name></person>
           <person id="p1"><name>Bob</name></person></site>"#,
    )
    .unwrap();
    p
}

#[test]
fn warm_execution_hits_the_cache() {
    let p = peer_with_data(EngineKind::Tree);
    let q = r#"string(doc("data.xml")/v)"#;
    let first = p.execute(q).unwrap();
    assert_eq!(p.plan_cache.misses.load(Relaxed), 1);
    assert_eq!(p.plan_cache.hits.load(Relaxed), 0);
    for _ in 0..5 {
        assert_eq!(serialize(&p.execute(q).unwrap()), serialize(&first));
    }
    assert_eq!(p.plan_cache.misses.load(Relaxed), 1, "compiled once");
    assert_eq!(p.plan_cache.hits.load(Relaxed), 5);
}

#[test]
fn normalization_tolerates_line_endings_and_padding_only() {
    let p = peer_with_data(EngineKind::Tree);
    p.execute("string(doc(\"data.xml\")/v)").unwrap();
    // CRLF + outer padding: the same query, same plan
    p.execute("  string(doc(\"data.xml\")/v)\r\n").unwrap();
    assert_eq!(p.plan_cache.misses.load(Relaxed), 1);
    assert_eq!(p.plan_cache.hits.load(Relaxed), 1);
    // *internal* whitespace is NOT normalized away (string literals make
    // it significant): a different text is a different key
    p.execute("string( doc(\"data.xml\")/v )").unwrap();
    assert_eq!(p.plan_cache.misses.load(Relaxed), 2);
}

#[test]
fn module_reload_invalidates_cached_plans() {
    let p = peer_with_data(EngineKind::Tree);
    p.register_module(r#"module namespace m = "mod"; declare function m:answer() { "old" };"#)
        .unwrap();
    let q = r#"import module namespace m = "mod"; m:answer()"#;
    assert_eq!(serialize(&p.execute(q).unwrap()), "old");
    let misses_before = p.plan_cache.misses.load(Relaxed);

    // re-registering the module must make the cached plan unreachable…
    p.register_module(r#"module namespace m = "mod"; declare function m:answer() { "new" };"#)
        .unwrap();
    assert!(p.plan_cache.invalidations.load(Relaxed) >= 1);
    assert_eq!(p.plan_cache.len(), 0, "invalidation freed the entries");

    // …and the re-execution recompiles under the new registry generation
    assert_eq!(serialize(&p.execute(q).unwrap()), "new");
    assert_eq!(p.plan_cache.misses.load(Relaxed), misses_before + 1);
}

#[test]
fn peer_base_uri_change_is_a_cache_miss() {
    let p = peer_with_data(EngineKind::Tree);
    let q = r#"string(doc("data.xml")/v)"#;
    assert_eq!(serialize(&p.execute(q).unwrap()), "root");
    p.set_base_uri(Some("app".into()));
    // same text, different ambient static context: must NOT hit the old
    // plan — and must see the base-uri-resolved document
    assert_eq!(serialize(&p.execute(q).unwrap()), "scoped");
    assert_eq!(p.plan_cache.hits.load(Relaxed), 0);
    assert_eq!(p.plan_cache.misses.load(Relaxed), 2);
    // flipping back re-uses the *original* entry (still cached)
    p.set_base_uri(None);
    assert_eq!(serialize(&p.execute(q).unwrap()), "root");
    assert_eq!(p.plan_cache.hits.load(Relaxed), 1);
}

#[test]
fn declared_base_uri_in_prolog_scopes_doc_resolution() {
    let p = peer_with_data(EngineKind::Tree);
    let r = p
        .execute(r#"declare base-uri "app"; string(doc("data.xml")/v)"#)
        .unwrap();
    assert_eq!(serialize(&r), "scoped");
}

#[test]
fn default_collation_change_is_a_cache_miss() {
    let p = peer_with_data(EngineKind::Tree);
    let q = r#"string(doc("data.xml")/v)"#;
    p.execute(q).unwrap();
    p.set_default_collation(Some(
        "http://www.w3.org/2005/xpath-functions/collation/codepoint".into(),
    ));
    p.execute(q).unwrap();
    assert_eq!(p.plan_cache.hits.load(Relaxed), 0);
    assert_eq!(p.plan_cache.misses.load(Relaxed), 2);
}

#[test]
fn prepared_query_binds_external_variables() {
    let p = peer_with_data(EngineKind::Tree);
    let prepared = p
        .prepare(
            r#"declare variable $pid as xs:string external;
               string(doc("people.xml")//person[@id = $pid]/name)"#,
        )
        .unwrap();
    for (pid, name) in [("p0", "Ann"), ("p1", "Bob")] {
        let r = p
            .execute_prepared(
                &prepared,
                vec![("pid".to_string(), Sequence::one(Item::string(pid)))],
            )
            .unwrap();
        assert_eq!(serialize(&r), name);
    }
    // one compile served every execution
    assert_eq!(p.plan_cache.misses.load(Relaxed), 1);
    assert_eq!(p.stats.requests_handled.load(Relaxed), 0);
}

#[test]
fn external_variable_defaults_and_coercion() {
    let p = peer_with_data(EngineKind::Tree);
    let prepared = p
        .prepare(
            r#"declare variable $n as xs:integer external := 7;
               $n * 2"#,
        )
        .unwrap();
    // unbound → the declared default
    let r = p.execute_prepared(&prepared, vec![]).unwrap();
    assert_eq!(serialize(&r), "14");
    // bound with an untyped/string value → function-conversion cast
    let r = p
        .execute_prepared(
            &prepared,
            vec![("n".to_string(), Sequence::one(Item::string("21")))],
        )
        .unwrap();
    assert_eq!(serialize(&r), "42");
}

#[test]
fn unbound_external_without_default_is_xpdy0002() {
    let p = peer_with_data(EngineKind::Tree);
    let prepared = p.prepare(r#"declare variable $x external; $x"#).unwrap();
    let err = p.execute_prepared(&prepared, vec![]).unwrap_err();
    assert_eq!(err.code, "XPDY0002");
}

#[test]
fn fidelity_mode_is_byte_identical_to_cached_path() {
    let cached = peer_with_data(EngineKind::Tree);
    let fresh = peer_with_data(EngineKind::Tree);
    fresh.set_plan_cache_enabled(false);
    let queries = [
        r#"string(doc("data.xml")/v)"#,
        r#"<out>{ doc("people.xml")//person[@id = "p1"]/name }</out>"#,
        r#"for $i in (1 to 5) return $i * $i"#,
        r#"declare base-uri "app"; string(doc("data.xml")/v)"#,
    ];
    for q in queries {
        for _ in 0..3 {
            let a = cached.execute(q).unwrap();
            let b = fresh.execute(q).unwrap();
            assert_eq!(serialize(&a), serialize(&b), "query: {q}");
        }
    }
    assert!(cached.plan_cache.hits.load(Relaxed) >= 8);
    assert_eq!(fresh.plan_cache.hits.load(Relaxed), 0);
    assert_eq!(fresh.plan_cache.len(), 0, "disabled cache stores nothing");
}

#[test]
fn rel_engine_shares_the_same_cache_semantics() {
    let p = peer_with_data(EngineKind::Rel);
    let q = r#"for $x in doc("people.xml")//person return string($x/name)"#;
    let first = p.execute(q).unwrap();
    let second = p.execute(q).unwrap();
    assert_eq!(serialize(&first), "Ann|Bob");
    assert_eq!(serialize(&second), "Ann|Bob");
    assert_eq!(p.plan_cache.hits.load(Relaxed), 1);
}

#[test]
fn lru_eviction_under_capacity_pressure() {
    let p = peer_with_data(EngineKind::Tree);
    p.plan_cache.set_capacity(2);
    for q in ["1 + 1", "2 + 2", "3 + 3"] {
        p.execute(q).unwrap();
    }
    assert!(p.plan_cache.len() <= 2);
    assert!(p.plan_cache.evictions.load(Relaxed) >= 1);
    // the most-recent entry survived
    p.execute("3 + 3").unwrap();
    assert_eq!(p.plan_cache.hits.load(Relaxed), 1);
}

/// Seeded (deterministic) property test: across random combinations of
/// query text and ambient static context, a (text, context) pair seen
/// before is always a hit and a pair never seen is always a miss — i.e.
/// two distinct queries, or one query under two distinct contexts, can
/// never collide on one cache key.
#[test]
fn property_keys_never_collide_across_texts_or_contexts() {
    let p = peer_with_data(EngineKind::Tree);
    p.plan_cache.set_capacity(1024); // no eviction noise

    let texts = [
        "1 + 1",
        "1 + 1 ", // normalizes to the former: SAME logical key
        "1 + 2",
        "string(doc(\"data.xml\")/v)",
        "count((1, 2, 3))",
    ];
    let base_uris: [Option<&str>; 3] = [None, Some("app"), Some("other")];
    let collations: [Option<&str>; 2] = [None, Some("http://example.org/collation")];

    // xorshift64 — deterministic, no dependency on the rand crate
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    let mut seen: HashSet<(String, usize, usize)> = HashSet::new();
    for _ in 0..200 {
        let t = (next() % texts.len() as u64) as usize;
        let b = (next() % base_uris.len() as u64) as usize;
        let c = (next() % collations.len() as u64) as usize;
        p.set_base_uri(base_uris[b].map(String::from));
        p.set_default_collation(collations[c].map(String::from));

        let expected_key = (Peer::normalize_query_text(texts[t]), b, c);
        let hits_before = p.plan_cache.hits.load(Relaxed);
        let misses_before = p.plan_cache.misses.load(Relaxed);
        p.execute(texts[t]).unwrap();
        let was_hit = p.plan_cache.hits.load(Relaxed) == hits_before + 1;
        let was_miss = p.plan_cache.misses.load(Relaxed) == misses_before + 1;
        assert!(was_hit ^ was_miss, "exactly one of hit/miss per lookup");
        if seen.contains(&expected_key) {
            assert!(
                was_hit,
                "previously-compiled pair must hit: {expected_key:?}"
            );
        } else {
            assert!(was_miss, "never-seen pair must miss: {expected_key:?}");
            seen.insert(expected_key);
        }
    }
    // `seen` keys by *normalized* text, so the two texts that normalize
    // identically already share one entry — the cache must agree exactly.
    assert_eq!(p.plan_cache.len(), seen.len());
}

/// The README quick-start flow: a prepared query whose external variable
/// parameterizes a remote `execute at` — one compile at the originator,
/// fresh Bulk RPC values per execution.
#[test]
fn prepared_query_drives_remote_execute_at() {
    use xrpc_net::{NetProfile, SimNetwork};
    let net = Arc::new(SimNetwork::new(NetProfile::instant()));
    let film_module = r#"
        module namespace f = "films";
        declare function f:filmsByActor($actor as xs:string) as node()*
        { doc("filmDB.xml")//name[../actor = $actor] };
    "#;
    let local = Peer::new("xrpc://local.example.org", EngineKind::Rel);
    let y = Peer::new("xrpc://y.example.org", EngineKind::Tree);
    for p in [&local, &y] {
        p.register_module(film_module).unwrap();
        p.set_transport(net.clone());
    }
    y.add_document(
        "filmDB.xml",
        r#"<films>
            <film><name>The Rock</name><actor>Sean Connery</actor></film>
            <film><name>Goldfinger</name><actor>Sean Connery</actor></film>
            <film><name>Victor/Victoria</name><actor>Julie Andrews</actor></film>
        </films>"#,
    )
    .unwrap();
    net.register("xrpc://y.example.org", y.soap_handler());

    let prepared = local
        .prepare(
            r#"import module namespace f = "films";
               declare variable $actor as xs:string external;
               execute at {"xrpc://y.example.org"} {f:filmsByActor($actor)}"#,
        )
        .unwrap();
    for (actor, expected) in [
        ("Julie Andrews", "<name>Victor/Victoria</name>"),
        (
            "Sean Connery",
            "<name>The Rock</name>|<name>Goldfinger</name>",
        ),
    ] {
        let r = local
            .execute_prepared(
                &prepared,
                vec![("actor".to_string(), Sequence::one(Item::string(actor)))],
            )
            .unwrap();
        assert_eq!(serialize(&r), expected);
    }
    assert_eq!(local.plan_cache.misses.load(Relaxed), 1, "one compile");
}

/// `explain` says whether the query's one call commits the transaction on
/// its reply. The effect summary behind it is compiled with the plan, so a
/// cache hit reads it without walking the query again.
#[test]
fn explain_says_whether_the_call_commits_on_its_reply() {
    let p = peer_with_data(EngineKind::Tree);
    let call = r#"execute at {"xrpc://b.example.org"} {t:set("x")}"#;
    let isolated = r#"declare option xrpc:isolation "repeatable";
                      declare namespace t = "test";"#;
    for (query, commits) in [
        (format!("{isolated} {call}"), true),
        (format!("{isolated} let $x := 1 return {call}"), true),
        (format!(r#"{isolated} ({call}, "done")"#), false),
        (format!("{isolated} for $i in (1, 2) return {call}"), false),
        (format!(r#"declare namespace t = "test"; {call}"#), false),
    ] {
        let want = format!("\"commitOnReply\":{commits}");
        let miss = p.explain(&query).unwrap();
        assert!(
            miss.contains(&want) && miss.contains("\"cache\":\"miss\""),
            "{miss}"
        );
        let hit = p.explain(&query).unwrap();
        assert!(
            hit.contains(&want) && hit.contains("\"cache\":\"hit\""),
            "{hit}"
        );
    }
}

/// The slow-query log names a query by the FNV-1a of its normalized text;
/// the value is the one every earlier build logged.
#[test]
fn query_text_hash_is_the_known_fnv1a() {
    let p = peer_with_data(EngineKind::Tree);
    let plan = p.plan_for("  for $x in (1 to 3) return $x\r\n").unwrap();
    assert_eq!(plan.text_hash, 0x2a0e_1da9_5065_585f);
}
