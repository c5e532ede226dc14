//! Loop-lifted engine tests: bulk-RPC generation (one request per
//! destination peer regardless of loop count), order restoration, and
//! result equivalence with the tree engine.

use parking_lot::Mutex;
use relalg::execute_rel;
use std::sync::Arc;
use xdm::{Item, Sequence, XdmError, XdmResult};
use xqeval::context::{FunctionRef, RpcDispatcher};
use xqeval::{evaluate_main, Environment, InMemoryDocs};

const FILM_MODULE: &str = r#"
    module namespace film = "films";
    declare function film:filmsByActor($actor as xs:string) as node()*
    { doc("filmDB.xml")//name[../actor = $actor] };
    declare function film:echo($x) { $x };
"#;

const TEST_MODULE: &str = r#"
    module namespace t = "test";
    declare function t:echoVoid() { () };
    declare function t:double($n as xs:integer) { $n * 2 };
"#;

/// Registered at the remote peers only: the caller cannot know that
/// `u:touch` updates.
const TOUCH_MODULE: &str = r#"
    module namespace u = "touch";
    declare updating function u:touch($n) { delete node doc("filmDB.xml")//nothing };
"#;

fn film_db(peer: &str) -> String {
    // different peers carry different films so multi-destination order is
    // observable
    match peer {
        "y" => r#"<films>
            <film><name>The Rock</name><actor>Sean Connery</actor></film>
            <film><name>Goldfinger</name><actor>Sean Connery</actor></film>
            </films>"#
            .to_string(),
        _ => r#"<films>
            <film><name>Sound Of Music</name><actor>Julie Andrews</actor></film>
            </films>"#
            .to_string(),
    }
}

/// In-process dispatcher evaluating bulk calls against per-peer remote
/// environments, recording (peer, bulk size) per dispatch.
struct RecordingDispatcher {
    remotes: std::collections::HashMap<String, Environment>,
    pub log: Mutex<Vec<(String, usize)>>,
}

impl RecordingDispatcher {
    fn new(peers: &[&str]) -> Self {
        let mut remotes = std::collections::HashMap::new();
        for p in peers {
            let docs = InMemoryDocs::new();
            docs.insert("filmDB.xml", xmldom::parse(&film_db(p)).unwrap());
            let env = Environment::new(Arc::new(docs));
            env.modules.register_source(FILM_MODULE).unwrap();
            env.modules.register_source(TEST_MODULE).unwrap();
            env.modules.register_source(TOUCH_MODULE).unwrap();
            remotes.insert(format!("xrpc://{p}"), env);
        }
        RecordingDispatcher {
            remotes,
            log: Mutex::new(Vec::new()),
        }
    }
}

impl RpcDispatcher for RecordingDispatcher {
    fn dispatch(
        &self,
        dest: &str,
        func: &FunctionRef,
        calls: Vec<Vec<Sequence>>,
    ) -> XdmResult<Vec<Sequence>> {
        self.log.lock().push((dest.to_string(), calls.len()));
        let remote = self
            .remotes
            .get(dest)
            .ok_or_else(|| XdmError::xrpc(format!("unknown peer {dest}")))?;
        let module = remote
            .modules
            .get_or_load(&func.module_ns, func.location_hint.as_deref())?;
        let f = module
            .function(&func.local_name, func.arity)
            .ok_or_else(|| XdmError::unknown_function("remote function missing"))?;
        let ev = xqeval::Evaluator::new(remote, module.sctx.clone());
        let mut out = Vec::new();
        for args in calls {
            let mut st = xqeval::eval::EvalState::new();
            for ((pname, _), v) in f.params.iter().zip(args) {
                st.bind(pname, v);
            }
            out.push(ev.eval(&f.body, &mut st, &xqeval::eval::Ctx::none())?);
        }
        Ok(out)
    }
}

fn local_env(dispatcher: Arc<RecordingDispatcher>) -> Environment {
    let docs = InMemoryDocs::new();
    let mut env = Environment::new(Arc::new(docs));
    env.modules.register_source(FILM_MODULE).unwrap();
    env.modules.register_source(TEST_MODULE).unwrap();
    env.dispatcher = Some(dispatcher);
    env
}

fn serialize(seq: &Sequence) -> String {
    seq.iter()
        .map(|i| match i {
            Item::Node(n) => n.to_xml(),
            a => a.string_value(),
        })
        .collect::<Vec<_>>()
        .join("|")
}

#[test]
fn single_call_q1() {
    let disp = Arc::new(RecordingDispatcher::new(&["y"]));
    let env = local_env(disp.clone());
    let q = r#"
        import module namespace f = "films";
        <films>{ execute at {"xrpc://y"} {f:filmsByActor("Sean Connery")} }</films>"#;
    let (res, _) = execute_rel(q, &env).unwrap();
    assert_eq!(
        serialize(&res),
        "<films><name>The Rock</name><name>Goldfinger</name></films>"
    );
    assert_eq!(*disp.log.lock(), vec![("xrpc://y".to_string(), 1)]);
}

#[test]
fn loop_becomes_single_bulk_request_q2() {
    // Q2: two iterations, one destination → exactly ONE bulk request of 2
    let disp = Arc::new(RecordingDispatcher::new(&["y"]));
    let env = local_env(disp.clone());
    let q = r#"
        import module namespace f = "films";
        for $actor in ("Julie Andrews", "Sean Connery")
        return execute at {"xrpc://y"} {f:filmsByActor($actor)}"#;
    let (res, _) = execute_rel(q, &env).unwrap();
    assert_eq!(
        serialize(&res),
        "<name>The Rock</name>|<name>Goldfinger</name>"
    );
    assert_eq!(*disp.log.lock(), vec![("xrpc://y".to_string(), 2)]);
}

#[test]
fn thousand_iterations_still_one_request() {
    let disp = Arc::new(RecordingDispatcher::new(&["y"]));
    let env = local_env(disp.clone());
    let q = r#"
        import module namespace t = "test";
        for $i in (1 to 1000) return execute at {"xrpc://y"} {t:echoVoid()}"#;
    let (res, _) = execute_rel(q, &env).unwrap();
    assert!(res.is_empty());
    let log = disp.log.lock();
    assert_eq!(log.len(), 1, "expected a single bulk dispatch");
    assert_eq!(log[0].1, 1000);
}

#[test]
fn multi_destination_q3_splits_and_restores_order() {
    // Q3: 2 actors × 2 peers = 4 iterations, 2 peers → 2 bulk requests of
    // 2 calls each, results in the original iteration order.
    let disp = Arc::new(RecordingDispatcher::new(&["y", "z"]));
    let env = local_env(disp.clone());
    let q = r#"
        import module namespace f = "films";
        for $actor in ("Julie Andrews", "Sean Connery")
        for $dst in ("xrpc://y", "xrpc://z")
        return execute at {$dst} {f:filmsByActor($actor)}"#;
    let (res, _) = execute_rel(q, &env).unwrap();
    // iteration order: (JA,y)=∅, (JA,z)=SoundOfMusic, (SC,y)=Rock+Gold, (SC,z)=∅
    assert_eq!(
        serialize(&res),
        "<name>Sound Of Music</name>|<name>The Rock</name>|<name>Goldfinger</name>"
    );
    let log = disp.log.lock();
    assert_eq!(log.len(), 2);
    // each peer got one bulk request with both actors (out-of-order
    // per-peer processing, §3.2)
    let mut sorted: Vec<_> = log.clone();
    sorted.sort();
    assert_eq!(
        sorted,
        vec![("xrpc://y".to_string(), 2), ("xrpc://z".to_string(), 2)]
    );
}

#[test]
fn q6_two_calls_same_peer_sequence_construction() {
    // Q6: sequence construction of two execute-ats inside one loop →
    // two bulk requests to the same peer (one per call site), each
    // carrying both loop iterations.
    let disp = Arc::new(RecordingDispatcher::new(&["y"]));
    let env = local_env(disp.clone());
    let q = r#"
        import module namespace f = "films";
        for $name in ("Julie", "Sean")
        let $connery := concat($name, " ", "Connery")
        let $andrews := concat($name, " ", "Andrews")
        return (
            execute at {"xrpc://y"} {f:filmsByActor($connery)},
            execute at {"xrpc://y"} {f:filmsByActor($andrews)} )"#;
    let (res, _) = execute_rel(q, &env).unwrap();
    // Sean Connery matches two films on y; everything else is empty
    assert_eq!(
        serialize(&res),
        "<name>The Rock</name>|<name>Goldfinger</name>"
    );
    let log = disp.log.lock();
    assert_eq!(log.len(), 2, "one bulk request per call site");
    assert!(log.iter().all(|(p, n)| p == "xrpc://y" && *n == 2));
}

#[test]
fn loop_dependent_parameter_values_transferred() {
    let disp = Arc::new(RecordingDispatcher::new(&["y"]));
    let env = local_env(disp.clone());
    let q = r#"
        import module namespace t = "test";
        for $i in (1 to 5) return execute at {"xrpc://y"} {t:double($i)}"#;
    let (res, _) = execute_rel(q, &env).unwrap();
    assert_eq!(serialize(&res), "2|4|6|8|10");
    assert_eq!(disp.log.lock().len(), 1);
}

#[test]
fn where_clause_restricts_bulk() {
    let disp = Arc::new(RecordingDispatcher::new(&["y"]));
    let env = local_env(disp.clone());
    let q = r#"
        import module namespace t = "test";
        for $i in (1 to 10) where $i mod 2 = 0
        return execute at {"xrpc://y"} {t:double($i)}"#;
    let (res, _) = execute_rel(q, &env).unwrap();
    assert_eq!(serialize(&res), "4|8|12|16|20");
    let log = disp.log.lock();
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].1, 5);
}

#[test]
fn nested_loops_multiply_calls() {
    let disp = Arc::new(RecordingDispatcher::new(&["y"]));
    let env = local_env(disp.clone());
    let q = r#"
        import module namespace t = "test";
        for $i in (1 to 3) for $j in (1 to 4)
        return execute at {"xrpc://y"} {t:double($i * $j)}"#;
    let (res, _) = execute_rel(q, &env).unwrap();
    assert_eq!(res.len(), 12);
    assert_eq!(disp.log.lock()[0].1, 12);
}

#[test]
fn conditional_execute_at() {
    let disp = Arc::new(RecordingDispatcher::new(&["y"]));
    let env = local_env(disp.clone());
    let q = r#"
        import module namespace t = "test";
        for $i in (1 to 4)
        return if ($i > 2) then execute at {"xrpc://y"} {t:double($i)} else ($i)"#;
    let (res, _) = execute_rel(q, &env).unwrap();
    assert_eq!(serialize(&res), "1|2|6|8");
    // only the 2 iterations of the then-branch go remote
    assert_eq!(disp.log.lock()[0].1, 2);
}

#[test]
fn let_bound_rpc_result_used_in_predicate() {
    // semi-join shape: let $r := execute at ... return if(empty($r)) ...
    let disp = Arc::new(RecordingDispatcher::new(&["y"]));
    let env = local_env(disp.clone());
    let q = r#"
        import module namespace f = "films";
        for $actor in ("Julie Andrews", "Sean Connery", "Nobody")
        let $r := execute at {"xrpc://y"} {f:filmsByActor($actor)}
        return if (empty($r)) then () else <hit>{$actor}</hit>"#;
    let (res, _) = execute_rel(q, &env).unwrap();
    assert_eq!(serialize(&res), "<hit>Sean Connery</hit>");
    let log = disp.log.lock();
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].1, 3);
}

/// The constructor functions on the lifted engine: once, and once per
/// iteration of a loop.
#[test]
fn constructor_functions_cast_their_argument() {
    let env = local_env(Arc::new(RecordingDispatcher::new(&["y"])));
    for (q, want) in [
        ("xs:integer('5')", Ok("5")),
        ("xs:string(1)", Ok("1")),
        ("count(xs:integer(()))", Ok("0")),
        ("for $s in ('1', '2') return xs:integer($s) + 1", Ok("2|3")),
        (
            "for $i in (1, 2) return xs:string($i) instance of xs:string",
            Ok("true|true"),
        ),
        ("xs:integer('x')", Err("FORG0001")),
        (
            "for $s in ('1', 'x') return xs:integer($s)",
            Err("FORG0001"),
        ),
        ("xs:frobnicate(1)", Err("XPST0017")),
    ] {
        let got = execute_rel(q, &env).map(|(r, _)| serialize(&r));
        assert_eq!(got.as_deref().map_err(|e| &*e.code), want, "{q}");
    }
}

#[test]
fn rel_and_tree_engines_agree_on_xrpc_free_queries() {
    let disp = Arc::new(RecordingDispatcher::new(&["y"]));
    for q in [
        "for $x in (1 to 10) where $x mod 3 = 0 return $x * $x",
        "let $s := (1, 2, 3) return (count($s), sum($s))",
        "<out>{ for $i in (1 to 3) return <i>{$i}</i> }</out>",
        "string-join(for $x in ('c', 'a', 'b') order by $x return $x, '')",
    ] {
        let env1 = local_env(disp.clone());
        let env2 = local_env(disp.clone());
        let (r1, _) = execute_rel(q, &env1).unwrap();
        let (r2, _) = evaluate_main(q, &env2).unwrap();
        assert_eq!(serialize(&r1), serialize(&r2), "query: {q}");
    }
}

#[test]
fn rpc_error_propagates() {
    let disp = Arc::new(RecordingDispatcher::new(&["y"]));
    let env = local_env(disp.clone());
    let q = r#"
        import module namespace t = "test";
        for $i in (1 to 3) return execute at {"xrpc://nowhere"} {t:echoVoid()}"#;
    let err = execute_rel(q, &env).unwrap_err();
    assert_eq!(err.code, "XRPC0001");
}

#[test]
fn updates_collect_in_pul_through_rel_engine() {
    let disp = Arc::new(RecordingDispatcher::new(&["y"]));
    let env = local_env(disp.clone());
    let docs = InMemoryDocs::new();
    docs.insert("db.xml", xmldom::parse("<db><i/><i/></db>").unwrap());
    let env = Environment {
        docs: Arc::new(docs),
        ..{
            let mut e = Environment::new(env.docs.clone());
            e.dispatcher = Some(disp);
            e
        }
    };
    let (_, pul) = execute_rel(
        r#"for $i in doc("db.xml")//i return insert node <k/> into $i"#,
        &env,
    )
    .unwrap();
    assert_eq!(pul.len(), 2);
}

/// A loop whose body updates here and calls a peer leaves its ∆ in
/// iteration order, as the tree engine does, where XQUF leaves the order
/// open (several inserts into one target).
#[test]
fn a_loop_leaves_its_delta_in_iteration_order() {
    let q = r#"import module namespace t = "test";
        declare updating function local:u($n) {
          (execute at {"xrpc://y"} {t:echoVoid()},
           insert node <e n="{$n}"/> into doc("d.xml")/r,
           insert node <f n="{$n}"/> into doc("d.xml")/r) };
        for $i in (1, 2, 3) return local:u($i)"#;
    let inserted = |lifted: bool| {
        let docs = InMemoryDocs::new();
        docs.insert("d.xml", xmldom::parse("<r/>").unwrap());
        let mut env = Environment::new(Arc::new(docs));
        env.modules.register_source(TEST_MODULE).unwrap();
        env.dispatcher = Some(Arc::new(RecordingDispatcher::new(&["y"])));
        let run = if lifted { execute_rel } else { evaluate_main };
        let (_, pul) = run(q, &env).unwrap();
        (pul.primitives.iter())
            .map(|p| match p {
                xqeval::pul::UpdatePrimitive::InsertInto { content, .. } => content[0].to_xml(),
                other => panic!("{other:?}"),
            })
            .collect::<Vec<_>>()
            .join("")
    };
    let want = r#"<e n="1"/><f n="1"/><e n="2"/><f n="2"/><e n="3"/><f n="3"/>"#;
    assert_eq!(
        (inserted(false), inserted(true)),
        (want.into(), want.into())
    );
}

#[test]
fn rpc_optimize_hoists_invariant_call() {
    // with the optimizer flag on, a loop-invariant call goes out ONCE
    let disp = Arc::new(RecordingDispatcher::new(&["y"]));
    let mut env = local_env(disp.clone());
    env.rpc_optimize = true;
    let q = r#"
        import module namespace f = "films";
        for $i in (1 to 100)
        return count(execute at {"xrpc://y"} {f:filmsByActor("Sean Connery")})"#;
    let (res, _) = execute_rel(q, &env).unwrap();
    assert_eq!(res.len(), 100);
    assert!(res.iter().all(|i| i.string_value() == "2"));
    let log = disp.log.lock();
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].1, 1, "hoisted: one call for 100 iterations");
}

#[test]
fn rpc_optimize_dedupes_repeated_arguments() {
    let disp = Arc::new(RecordingDispatcher::new(&["y"]));
    let mut env = local_env(disp.clone());
    env.rpc_optimize = true;
    let q = r#"
        import module namespace t = "test";
        for $i in (1 to 12) return execute at {"xrpc://y"} {t:double($i mod 3)}"#;
    let (res, _) = execute_rel(q, &env).unwrap();
    // results fan back out per iteration
    assert_eq!(res.len(), 12);
    assert_eq!(res.items()[0].string_value(), "2"); // 1 mod 3 = 1 → 2
    let log = disp.log.lock();
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].1, 3, "only the 3 distinct argument values go out");
}

#[test]
fn rpc_optimize_off_by_default_keeps_figure2_traffic() {
    let disp = Arc::new(RecordingDispatcher::new(&["y"]));
    let env = local_env(disp.clone());
    let q = r#"
        import module namespace t = "test";
        for $i in (1 to 10) return execute at {"xrpc://y"} {t:echoVoid()}"#;
    execute_rel(q, &env).unwrap();
    // Figure 2 literally: all 10 calls on the wire (in one bulk request)
    assert_eq!(*disp.log.lock(), vec![("xrpc://y".to_string(), 10)]);
}

/// An answer, or its error code.
type Answer = Result<String, String>;

/// `q` with the optimizer off and on: the answers, and the (peer, bulk
/// size) of each dispatch the optimized run made — no more dispatches
/// than the plain run's.
fn off_and_on(q: &str) -> (Answer, Answer, Vec<(String, usize)>) {
    let run = |optimize: bool| {
        let disp = Arc::new(RecordingDispatcher::new(&["y"]));
        let mut env = local_env(disp.clone());
        env.rpc_optimize = optimize;
        let r = execute_rel(q, &env).map(|(r, _)| serialize(&r));
        let log = disp.log.lock().clone();
        (r.map_err(|e| e.code), log)
    };
    let ((off, plain), (on, log)) = (run(false), run(true));
    assert!(log.len() <= plain.len(), "{q}\n{log:?}\n{plain:?}");
    (off, on, log)
}

#[test]
fn rpc_optimize_sends_no_call_evaluation_does_not_reach() {
    for (q, want) in [
        (
            r#"import module namespace t = "test";
            for $x in () return execute at {"xrpc://nope"} {t:echoVoid()}"#,
            "",
        ),
        (
            r#"import module namespace t = "test";
            for $x in (1, 2, 3) where $x > 5
            return execute at {"xrpc://nope"} {t:double(7)}"#,
            "",
        ),
        (
            r#"import module namespace t = "test";
            for $x in (1, 2, 3)
            return if ($x > 5) then count(execute at {"xrpc://nope"} {t:double(7)}) else 0"#,
            "0|0|0",
        ),
        // no name the optimizer binds can capture one of the query's
        (
            r#"import module namespace f = "films";
            for $i in (1 to 2) let $hoisted-xrpc-0 := 5
            return count(execute at {"xrpc://y"} {f:filmsByActor("Sean Connery")})"#,
            "2|2",
        ),
    ] {
        let (off, on, log) = off_and_on(q);
        assert_eq!(off.as_deref(), Ok(want), "{q}");
        assert_eq!(on, off, "{q}");
        assert!(log.iter().all(|(peer, _)| peer != "xrpc://nope"), "{q}");
    }
}

#[test]
fn rpc_optimize_never_collapses_a_call_it_cannot_know_is_read_only() {
    // `u:touch` updates at the callee; the caller has no module `touch`
    let (off, on, log) = off_and_on(
        r#"import module namespace u = "touch";
        for $i in (1 to 4) return execute at {"xrpc://y"} {u:touch(1)}"#,
    );
    assert_eq!((on, off), (Ok(String::new()), Ok(String::new())));
    assert_eq!(log, vec![("xrpc://y".to_string(), 4)]);
}

#[test]
fn rpc_optimize_joins_a_remote_build_side_once() {
    // push-down's shape: a closed read-only call as the join's Y
    let q = |x: &str| {
        format!(
            r#"import module namespace f = "films";
            for $n in {x}, $m in execute at {{"xrpc://y"}} {{f:filmsByActor("Sean Connery")}}
            where $n = string($m) return string($m)"#
        )
    };
    let (off, on, log) = off_and_on(&q(r#"("Goldfinger", "Dr. No", "The Rock")"#));
    assert_eq!(off.as_deref(), Ok("Goldfinger|The Rock"));
    assert_eq!(on, off);
    assert_eq!(
        log,
        vec![("xrpc://y".to_string(), 1)],
        "one call, not one per $n"
    );
    // an empty X: Y is never evaluated
    let (off, on, log) = off_and_on(&q("()"));
    assert_eq!((on, off), (Ok(String::new()), Ok(String::new())));
    assert_eq!(log, vec![]);
    // a node argument, which collapsing leaves alone: the join sends it once
    let (off, on, log) = off_and_on(
        r#"import module namespace f = "films";
        let $q := <name>Goldfinger</name>
        for $n in ("Goldfinger", "Dr. No", "Goldfinger"), $m in execute at {"xrpc://y"} {f:echo($q)}
        where $n = string($m) return string($m)"#,
    );
    assert_eq!(off.as_deref(), Ok("Goldfinger|Goldfinger"));
    assert_eq!(on, off);
    assert_eq!(log, vec![("xrpc://y".to_string(), 1)]);
    // a function the caller does not know: one call per $n, as without
    let (_, on, log) = off_and_on(
        r#"import module namespace u = "touch";
        for $n in ("a", "b", "c"), $m in execute at {"xrpc://y"} {u:touch(1)}
        where $n = string($m) return $m"#,
    );
    assert_eq!(on, Ok(String::new()));
    assert_eq!(log, vec![("xrpc://y".to_string(), 3)]);
    // a call inside a function body is one the rule sees: Y once, one call
    let (off, on, log) = off_and_on(
        r#"import module namespace f = "films";
        declare function local:y() { execute at {"xrpc://y"} {f:filmsByActor("Sean Connery")} };
        for $n in ("The Rock", "b", "c"), $m in local:y() where $n = string($m) return string($m)"#,
    );
    assert_eq!(
        (on, off.as_deref()),
        (Ok("The Rock".to_string()), Ok("The Rock"))
    );
    assert_eq!(log, vec![("xrpc://y".to_string(), 1)]);
}

#[test]
fn rpc_optimize_joins_no_y_that_hides_a_call_or_repeats_one() {
    // a declared function may hide an `execute at` (here of an updating
    // function the caller does not know): `u:touch` goes out once per $n,
    // in one Bulk RPC beside the one collapsed call of `f:filmsByActor`
    let (off, on, log) = off_and_on(
        r#"import module namespace f = "films";
        import module namespace u = "touch";
        declare function local:t() { execute at {"xrpc://y"} {u:touch(1)} };
        for $n in ("The Rock", "b", "c"),
            $m in (execute at {"xrpc://y"} {f:filmsByActor("Sean Connery")}, local:t())
        where $n = string($m) return string($m)"#,
    );
    assert_eq!(
        (on, off.as_deref()),
        (Ok("The Rock".to_string()), Ok("The Rock"))
    );
    assert_eq!(
        log,
        vec![("xrpc://y".to_string(), 1), ("xrpc://y".to_string(), 3)]
    );
    // a call under a `for` of Y: evaluating Y once would send it in one
    // request per $k; lifted, both go in one, collapsed across $n
    let (off, on, log) = off_and_on(
        r#"import module namespace f = "films";
        for $n in ("1", "2", "3"),
            $m in (for $k in (1, 2) return execute at {"xrpc://y"} {f:echo($k)})
        where $n = string($m) return string($m)"#,
    );
    assert_eq!((on, off.as_deref()), (Ok("1|2".to_string()), Ok("1|2")));
    assert_eq!(log, vec![("xrpc://y".to_string(), 2)]);
}

#[test]
fn rpc_optimize_keeps_a_join_in_a_loop_in_one_request() {
    // the join rule takes a loop of one iteration; in more, the join stays
    // lifted and collapse sends its closed call once for all of them
    let (off, on, log) = off_and_on(
        r#"import module namespace f = "films";
        for $i in (1 to 3)
        return count(for $n in ("Goldfinger", "Dr. No"),
                         $m in execute at {"xrpc://y"} {f:filmsByActor("Sean Connery")}
                     where $n = string($m) return $m)"#,
    );
    assert_eq!((on, off.as_deref()), (Ok("1|1|1".to_string()), Ok("1|1|1")));
    assert_eq!(log, vec![("xrpc://y".to_string(), 1)]);
}

// ---------------------------------------------------------------------
// Set-at-a-time evaluation of a table of calls, and what the fallback
// evaluates once rather than per iteration.
// ---------------------------------------------------------------------

/// A store that counts `fn:doc` resolutions.
struct CountingDocs {
    inner: InMemoryDocs,
    resolved: std::sync::atomic::AtomicUsize,
}

impl xqeval::DocResolver for CountingDocs {
    fn resolve(&self, uri: &str) -> XdmResult<Arc<xmldom::Document>> {
        self.resolved
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.resolve(uri)
    }
}

fn counting_docs(docs: &[(&str, String)]) -> Arc<CountingDocs> {
    let inner = InMemoryDocs::new();
    for (uri, xml) in docs {
        inner.insert(*uri, xmldom::parse(xml).unwrap());
    }
    Arc::new(CountingDocs {
        inner,
        resolved: std::sync::atomic::AtomicUsize::new(0),
    })
}

fn people(tag: &str) -> String {
    let mut xml = String::from("<site>");
    for i in 0..150 {
        xml.push_str(&format!(
            r#"<person id="p{}"><n>{tag}{i}</n></person>"#,
            i % 100
        ));
    }
    xml.push_str("</site>");
    xml
}

#[test]
fn a_table_of_calls_is_one_join_and_one_doc_per_uri() {
    let docs = counting_docs(&[("a.xml", people("a")), ("b.xml", people("b"))]);
    let env = Environment::new(docs.clone());
    let module = xqast::parse_library_module(
        r#"module namespace m = "m";
           declare function m:get($doc as xs:string, $pid as xs:string) as node()*
           { doc($doc)//person[@id = $pid]/n };"#,
    )
    .unwrap();
    let decl = &module.prolog.functions[0];
    let calls: Vec<Vec<Sequence>> = (0..60)
        .map(|k| {
            vec![
                Sequence::one(Item::string(if k % 3 == 0 { "b.xml" } else { "a.xml" })),
                Sequence::one(Item::string(format!("p{}", k * 2))),
            ]
        })
        .collect();
    let tree = xqeval::Evaluator::new(&env, xqeval::StaticContext::with_defaults());
    let (results, pul) = relalg::eval_calls(&tree, decl, calls.clone()).unwrap();
    assert!(pul.is_empty());
    assert_eq!(results.len(), 60);
    // ids repeat with period 100 over 150 persons: p0..p49 twice
    assert_eq!(serialize(&results[0]), "<n>b0</n>|<n>b100</n>");
    assert_eq!(serialize(&results[1]), "<n>a2</n>|<n>a102</n>");
    assert_eq!(serialize(&results[30]), "<n>b60</n>");
    assert!(results[55].is_empty());
    // two URIs, two resolutions, two index builds, sixty probes
    assert_eq!(docs.resolved.load(std::sync::atomic::Ordering::Relaxed), 2);
    let stats = env.stats();
    assert_eq!((stats.join_index_builds, stats.join_index_probes), (2, 60));

    // a call whose arguments do not convert fails the request — after the
    // calls before it, one of which failing takes precedence
    let mut bad = calls;
    bad[40][1] = Sequence::from_items(vec![Item::string("p1"), Item::string("p2")]);
    assert_eq!(
        relalg::eval_calls(&tree, decl, bad.clone())
            .unwrap_err()
            .code,
        "XPTY0004"
    );
    bad[7][0] = Sequence::one(Item::string("missing.xml"));
    assert_eq!(
        relalg::eval_calls(&tree, decl, bad).unwrap_err().code,
        "FODC0002"
    );
}

#[test]
fn what_does_not_vary_with_the_loop_is_evaluated_once() {
    let disp = Arc::new(RecordingDispatcher::new(&["y"]));
    let docs = counting_docs(&[("cfg.xml", "<cfg><who>Sean Connery</who></cfg>".to_string())]);
    let mut env = Environment::new(docs.clone());
    env.modules.register_source(FILM_MODULE).unwrap();
    env.dispatcher = Some(disp.clone());
    // the argument mentions no loop variable: one evaluation, broadcast
    let q = r#"
        import module namespace f = "films";
        for $i in (1 to 5)
        return execute at {"xrpc://y"} {f:filmsByActor(string(doc("cfg.xml")/cfg/who))}"#;
    let (res, _) = execute_rel(q, &env).unwrap();
    assert_eq!(res.len(), 10);
    assert_eq!(*disp.log.lock(), vec![("xrpc://y".to_string(), 5)]);
    assert_eq!(docs.resolved.load(std::sync::atomic::Ordering::Relaxed), 1);
}

#[test]
fn constructors_are_evaluated_per_iteration() {
    let disp = Arc::new(RecordingDispatcher::new(&["y"]));
    let env = local_env(disp.clone());
    // five echoes of a constructed element are five distinct nodes
    let q = r#"
        import module namespace f = "films";
        let $all := for $i in (1 to 5) return execute at {"xrpc://y"} {f:echo(<a/>)}
        return count($all | $all)"#;
    let (res, _) = execute_rel(q, &env).unwrap();
    assert_eq!(serialize(&res), "5");
}

// ---------------------------------------------------------------------
// Calls of declared functions: lifted, the body runs once over the
// loop's rows, and answers as the tree engine's call does.
// ---------------------------------------------------------------------

/// `q` on the tree engine and on the lifted one, each with a dispatcher
/// of its own: the answer, and the (peer, bulk size) of each dispatch.
fn on_both(q: &str) -> [(Answer, Vec<(String, usize)>); 2] {
    let run = |lifted: bool| {
        let disp = Arc::new(RecordingDispatcher::new(&["y"]));
        let env = local_env(disp.clone());
        let r = if lifted {
            execute_rel(q, &env)
        } else {
            evaluate_main(q, &env)
        };
        let log = disp.log.lock().clone();
        (r.map(|(r, _)| serialize(&r)).map_err(|e| e.code), log)
    };
    [run(false), run(true)]
}

const T: &str = r#"import module namespace t = "test";"#;

#[test]
fn a_call_in_a_declared_function_goes_out_in_one_bulk_rpc() {
    let [(tree, tree_log), (lifted, lifted_log)] = on_both(&format!(
        r#"{T} declare function local:d($n) {{ execute at {{"xrpc://y"}} {{t:double($n)}} }};
        for $i in (1 to 3) return local:d($i)"#
    ));
    assert_eq!(
        (tree.as_deref(), lifted.as_deref()),
        (Ok("2|4|6"), Ok("2|4|6"))
    );
    assert_eq!(tree_log, vec![("xrpc://y".to_string(), 1); 3]);
    assert_eq!(lifted_log, vec![("xrpc://y".to_string(), 3)]);
    // a Y that calls a peer in a declared function: the hash join leaves
    // it to the nested loop, one call per $n
    let [(tree, tree_log), (lifted, lifted_log)] = on_both(
        r#"import module namespace f = "films";
        declare function local:y() { execute at {"xrpc://y"} {f:filmsByActor("Sean Connery")} };
        for $n in ("The Rock", "b", "c"), $m in local:y() where $n = string($m) return string($m)"#,
    );
    assert_eq!(
        (tree, lifted),
        (Ok("The Rock".into()), Ok("The Rock".into()))
    );
    assert_eq!(tree_log.len(), 3);
    assert_eq!(lifted_log, vec![("xrpc://y".to_string(), 3)]);
}

#[test]
fn an_inlined_call_answers_as_the_tree_engines_call_does() {
    const G: &str = r#"execute at {"xrpc://y"} {t:double(1)}"#;
    let rows = [
        // a node built in Y is one node per X item
        (
            r#"declare function local:mk() { <b v="1"/> };
            count((for $a in ("1", "1"), $b in local:mk() where $a = string($b/@v) return $b) | ())"#
                .to_string(),
            Ok("2"),
        ),
        // the parameter's and the declared return type
        (
            format!("declare function local:g($x as xs:string) {{ ($x, {G}) }}; local:g({G})"),
            Err("XPTY0004"),
        ),
        (
            format!("declare function local:g($x) as xs:string {{ ($x, {G}) }}; local:g({G})"),
            Err("XPTY0004"),
        ),
        // function conversion: numeric promotion of a parameter and of a
        // return value; an untyped node cast to the parameter's type, with
        // the cast's own code when it fails
        (
            format!("declare function local:d($x as xs:double) {{ ($x instance of xs:double, {G}) }}; local:d(1)"),
            Ok("true|2"),
        ),
        (
            format!("declare function local:r() as xs:double+ {{ (1, {G}) }};
            for $i in (1, 2) let $r := local:r() return $r instance of xs:double+"),
            Ok("true|true"),
        ),
        (
            format!("declare function local:i($x as xs:integer) {{ ($x + 1, {G}) }}; local:i(<n>5</n>)"),
            Ok("6|2"),
        ),
        (
            format!("declare function local:i($x as xs:integer) {{ ($x + 1, {G}) }}; local:i(<n>five</n>)"),
            Err("FORG0001"),
        ),
        // a body sees its parameters and the prolog, not its caller's
        // variables
        (
            r#"declare function local:g($x) { ($x, $i) };
            for $i in (1, 2) return local:g(execute at {"xrpc://y"} {t:double($i)})"#
                .to_string(),
            Err("XPST0008"),
        ),
        (
            r#"declare variable $v := 10; declare function local:g($x) { $x + $v };
            for $i in (1, 2) return local:g(execute at {"xrpc://y"} {t:double($i)})"#
                .to_string(),
            Ok("12|14"),
        ),
        // no row: the body is not evaluated, nor the callee looked up
        (
            format!("declare function local:g($x) {{ ({G}, error()) }}; for $i in () return (local:g($i), local:nope($i))"),
            Ok(""),
        ),
        // recursion counts down, one Bulk RPC a level; unbounded, it
        // stops at the limit
        (
            r#"declare function local:f($n) {
                if ($n = 0) then () else (execute at {"xrpc://y"} {t:double($n)}, local:f($n - 1)) };
            for $k in (1, 2) return local:f(2 * $k)"#
                .to_string(),
            Ok("4|2|8|6|4|2"),
        ),
        (
            r#"declare function local:f($n) { (execute at {"xrpc://y"} {t:double($n)}, local:f($n + 1)) };
            for $k in (1, 2) return local:f($k)"#
                .to_string(),
            Err("XQDY0054"),
        ),
    ];
    // debug-build frames are large; so is the recursion limit's depth
    let run = std::thread::Builder::new().stack_size(64 << 20).spawn(move || {
        for (q, want) in rows {
            let q = format!("{T} {q}");
            let [(tree, _), (lifted, _)] = on_both(&q);
            let want = want.map(str::to_string).map_err(str::to_string);
            assert_eq!((&tree, &lifted), (&want, &want), "{q}");
        }
        let [(_, tree_log), (_, lifted_log)] = on_both(&format!(
            r#"{T} declare function local:f($n) {{
                if ($n = 0) then () else (execute at {{"xrpc://y"}} {{t:double($n)}}, local:f($n - 1)) }};
            for $k in (1, 2) return local:f(2 * $k)"#
        ));
        let sizes = |log: Vec<(String, usize)>| log.into_iter().map(|(_, n)| n).collect::<Vec<_>>();
        assert_eq!(sizes(tree_log), vec![1; 6]);
        assert_eq!(sizes(lifted_log), vec![2, 2, 1, 1]);
    });
    run.unwrap().join().unwrap();
}

#[test]
fn a_constructor_binds_no_name_a_query_can_write() {
    for (q, want) in [
        (
            r#"let $xrpc-enc-0 := 5 return <a>{execute at {"xrpc://y"} {t:double(1)}}{$xrpc-enc-0}</a>"#,
            "<a>25</a>",
        ),
        (
            r#"for $xrpc-enc-0 in (5, 6) return <a>{execute at {"xrpc://y"} {t:double(1)}}{$xrpc-enc-0}</a>"#,
            "<a>25</a>|<a>26</a>",
        ),
        (
            r#"let $xrpc-enc-comp := "n" return element {$xrpc-enc-comp} {execute at {"xrpc://y"} {t:double(1)}}"#,
            "<n>2</n>",
        ),
    ] {
        let q = format!("{T} {q}");
        let [(tree, _), (lifted, _)] = on_both(&q);
        assert_eq!(
            (tree.as_deref(), lifted.as_deref()),
            (Ok(want), Ok(want)),
            "{q}"
        );
    }
}
