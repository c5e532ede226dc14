//! The four Q7 strategies of §5 as query generators.
//!
//! Q7 (run at peer A, which stores `persons.xml`; peer B stores
//! `auctions.xml`):
//!
//! ```xquery
//! for $p in doc("persons.xml")//person,
//!     $ca in doc("xrpc://B/auctions.xml")//closed_auction
//! where $p/@id = $ca/buyer/@person
//! return <result>{$p, $ca/annotation}</result>
//! ```

/// The helper module installed at peer B (`functions_b` in the paper, with
/// `Q_B1` for predicate push-down, `Q_B2` for execution relocation and
/// `Q_B3` for the distributed semi-join).
pub const MODULE_B: &str = r#"
module namespace b = "functions_b";

declare function b:Q_B1() as node()*
{ doc("auctions.xml")//closed_auction };

declare function b:Q_B2($personsPeer as xs:string) as node()*
{ for $p in doc(concat($personsPeer, "/persons.xml"))//person,
      $ca in doc("auctions.xml")//closed_auction
  where $p/@id = $ca/buyer/@person
  return <result>{$p, $ca/annotation}</result>
};

declare function b:Q_B3($pid as xs:string) as node()*
{ doc("auctions.xml")//closed_auction[./buyer/@person = $pid] };
"#;

/// One of the §5 execution strategies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// Plain Q7: ship the whole remote document to A (`fn:doc` data
    /// shipping), join locally.
    DataShipping,
    /// Q7_1: push the `//closed_auction` selection to B, join at A.
    PredicatePushdown,
    /// Q7_2: relocate the whole join to B (B data-ships A's persons).
    ExecutionRelocation,
    /// Q7_3: classical distributed semi-join — ship each person id to B,
    /// get back only matching auctions.
    DistributedSemijoin,
}

impl Strategy {
    pub const ALL: [Strategy; 4] = [
        Strategy::DataShipping,
        Strategy::PredicatePushdown,
        Strategy::ExecutionRelocation,
        Strategy::DistributedSemijoin,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Strategy::DataShipping => "data shipping",
            Strategy::PredicatePushdown => "predicate push-down",
            Strategy::ExecutionRelocation => "execution relocation",
            Strategy::DistributedSemijoin => "distributed semi-join",
        }
    }

    /// Generate the query text for this strategy, to be run at peer A.
    /// `b_uri` is B's destination (e.g. `xrpc://b.example.org`); `a_uri`
    /// is A's own URI (needed by execution relocation so B can data-ship
    /// A's persons document).
    pub fn query(self, b_uri: &str, a_uri: &str) -> String {
        match self {
            Strategy::DataShipping => format!(
                r#"for $p in doc("persons.xml")//person,
    $ca in doc("{b_uri}/auctions.xml")//closed_auction
where $p/@id = $ca/buyer/@person
return <result>{{$p, $ca/annotation}}</result>"#
            ),
            Strategy::PredicatePushdown => format!(
                r#"import module namespace b = "functions_b";
for $p in doc("persons.xml")//person,
    $ca in execute at {{"{b_uri}"}} {{b:Q_B1()}}
where $p/@id = $ca/buyer/@person
return <result>{{$p, $ca/annotation}}</result>"#
            ),
            Strategy::ExecutionRelocation => format!(
                r#"import module namespace b = "functions_b";
execute at {{"{b_uri}"}} {{b:Q_B2("{a_uri}")}}"#
            ),
            Strategy::DistributedSemijoin => format!(
                r#"import module namespace b = "functions_b";
for $p in doc("persons.xml")//person
let $ca := execute at {{"{b_uri}"}} {{b:Q_B3(string($p/@id))}}
return if (empty($ca)) then ()
       else <result>{{$p, $ca/annotation}}</result>"#
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_b_parses() {
        let m = xqast::parse_library_module(MODULE_B).unwrap();
        assert_eq!(m.ns_uri, "functions_b");
        assert_eq!(m.prolog.functions.len(), 3);
    }

    #[test]
    fn all_strategy_queries_parse() {
        for s in Strategy::ALL {
            let q = s.query("xrpc://b.example.org", "xrpc://a.example.org");
            xqast::parse_main_module(&q).unwrap_or_else(|e| panic!("{}: {e}\n{q}", s.label()));
        }
    }

    #[test]
    fn xrpc_usage_per_strategy() {
        let b = "xrpc://b";
        let a = "xrpc://a";
        // data shipping has no execute at; the others do
        let calls = |s: Strategy| {
            let body = xqast::parse_main_module(&s.query(b, a)).unwrap().body;
            let mut found = false;
            body.walk(&mut |x| found |= matches!(x, xqast::Expr::ExecuteAt { .. }));
            found
        };
        assert!(!calls(Strategy::DataShipping));
        for s in [
            Strategy::PredicatePushdown,
            Strategy::ExecutionRelocation,
            Strategy::DistributedSemijoin,
        ] {
            assert!(calls(s));
        }
    }
}
