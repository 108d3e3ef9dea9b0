//! Fixture tests for the workspace-aware determinism rules TF009–TF014,
//! the dead-module rule TF015, the uncalled-`pub fn` rule TF016, the
//! allow audit (ALW001/ALW002), the
//! cross-file index, and the JSON report. Each rule gets a positive
//! (fires, pinned count), an allowed (suppressed by a reasoned allow),
//! and a negative (must stay silent) fixture, mirroring the TF001–TF008
//! suite in `rules.rs`.

use tflint::{
    audit_sources, audit_workspace_sources, check_source, check_sources, check_workspace_sources,
    index_sources, render,
};

fn rules_of(diags: &[tflint::Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

// ----------------------------------------------------------------- TF009

#[test]
fn tf009_flags_hashmap_iteration_methods() {
    let src = "\
use std::collections::HashMap;
pub struct Engine { inflight: HashMap<u64, u32> }
impl Engine {
    pub fn drain_all(&mut self) -> u32 {
        self.inflight.values().count() as u32
    }
    pub fn sweep(&mut self) {
        self.inflight.retain(|_, v| *v > 0);
    }
}
";
    let diags = check_source("core", "src/engine.rs", src);
    assert_eq!(rules_of(&diags), ["TF009", "TF009"], "\n{}", render(&diags));
    assert_eq!(diags[0].line, 5);
    assert_eq!(diags[1].line, 8);
}

#[test]
fn tf009_flags_for_loop_over_hash_field() {
    let src = "\
use std::collections::HashSet;
pub struct Tracker { seen: HashSet<u64> }
impl Tracker {
    pub fn dump(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for v in &self.seen {
            out.push(*v);
        }
        out
    }
}
";
    let diags = check_source("netsim", "src/t.rs", src);
    assert_eq!(rules_of(&diags), ["TF009"], "\n{}", render(&diags));
    assert_eq!(diags[0].line, 6);
}

#[test]
fn tf009_sees_hashmap_through_use_alias() {
    let src = "\
use std::collections::HashMap as Map;
pub struct S { routes: Map<u32, u32> }
impl S {
    pub fn all(&self) -> usize { self.routes.iter().count() }
}
";
    let diags = check_source("routing", "src/r.rs", src);
    assert_eq!(rules_of(&diags), ["TF009"], "\n{}", render(&diags));
}

#[test]
fn tf009_keeps_topology_route_tables_ordered() {
    // The routing crate's topology module is route-identity ground
    // truth: link enumeration feeds named chaos targets, partition
    // cuts and the parity suites. A hash-ordered table there would
    // make all three scheduling-dependent, so the module must stay in
    // TF009 scope.
    let src = "\
use std::collections::HashMap;
pub struct Mesh { links: HashMap<String, u32> }
impl Mesh {
    pub fn names(&self) -> Vec<String> { self.links.keys().cloned().collect() }
}
";
    let diags = check_source("routing", "src/topology.rs", src);
    assert_eq!(rules_of(&diags), ["TF009"], "\n{}", render(&diags));
}

#[test]
fn tf009_cross_file_index_catches_remote_declaration() {
    // The map is declared in engine.rs; the iteration lives in rack.rs.
    // A per-file scanner cannot connect the two — the workspace index can.
    let engine = "\
use std::collections::HashMap;
pub struct Engine { pub inflight: HashMap<u64, u32> }
";
    let rack = "\
use crate::engine::Engine;
pub fn quiesced(e: &Engine) -> bool {
    e.inflight.values().all(|v| *v == 0)
}
";
    let diags = check_sources(&[
        ("core", "src/engine.rs", engine),
        ("core", "src/rack.rs", rack),
    ]);
    assert_eq!(rules_of(&diags), ["TF009"], "\n{}", render(&diags));
    assert_eq!(diags[0].file, "src/rack.rs");
    assert_eq!(diags[0].line, 3);
}

#[test]
fn tf009_reasoned_allow_suppresses_and_audit_is_clean() {
    let src = "\
use std::collections::HashMap;
pub struct S { m: HashMap<u64, u32> }
impl S {
    pub fn count(&self) -> usize {
        // tflint::allow(TF009): count() is order-insensitive.
        self.m.values().count()
    }
}
";
    let files = [("core", "src/s.rs", src)];
    assert!(check_sources(&files).is_empty());
    assert!(audit_sources(&files).is_empty());
}

#[test]
fn tf009_keyed_lookup_and_btreemap_stay_allowed() {
    let src = "\
use std::collections::{BTreeMap, HashMap};
pub struct S { fast: HashMap<u64, u32>, ordered: BTreeMap<u64, u32> }
impl S {
    pub fn lookup(&self, k: u64) -> Option<u32> { self.fast.get(&k).copied() }
    pub fn store(&mut self, k: u64, v: u32) { self.fast.insert(k, v); }
    pub fn walk(&self) -> usize { self.ordered.iter().count() }
}
";
    let diags = check_source("core", "src/s.rs", src);
    assert!(diags.is_empty(), "\n{}", render(&diags));
}

#[test]
fn tf009_silent_outside_sim_crates_and_in_tests() {
    let src = "\
use std::collections::HashMap;
pub struct S { m: HashMap<u64, u32> }
impl S {
    pub fn all(&self) -> usize { self.m.iter().count() }
}
";
    assert!(check_source("tflint", "src/s.rs", src).is_empty());
    let test_src = "\
use std::collections::HashMap;
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let mut m = HashMap::new();
        m.insert(1u64, 2u32);
        assert_eq!(m.iter().count(), 1);
    }
}
";
    let diags = check_source("core", "src/s.rs", test_src);
    assert!(diags.is_empty(), "\n{}", render(&diags));
}

// ----------------------------------------------------------------- TF010

#[test]
fn tf010_flags_static_mut_thread_local_and_cells() {
    let src = "\
static mut COUNTER: u64 = 0;
thread_local! {
    static SCRATCH: u64 = 0;
}
use std::cell::RefCell;
pub struct S { inner: RefCell<u64> }
";
    let diags = check_source("netsim", "src/s.rs", src);
    assert_eq!(
        rules_of(&diags),
        ["TF010", "TF010", "TF010", "TF010"],
        "\n{}",
        render(&diags)
    );
    // static mut, thread_local!, `use ... RefCell`, field type.
    assert_eq!(diags[0].line, 1);
    assert_eq!(diags[1].line, 2);
}

#[test]
fn tf010_blessed_in_simkit_sweep_and_reasoned_allow_elsewhere() {
    let src = "\
use std::cell::RefCell;
pub struct Harness { scratch: RefCell<u64> }
";
    assert!(check_source("simkit", "src/sweep.rs", src).is_empty());
    let allowed = "\
pub struct S {
    // tflint::allow(TF010): memoization cache, rebuilt deterministically.
    inner: std::cell::RefCell<u64>,
}
";
    let files = [("core", "src/s.rs", allowed)];
    assert!(check_sources(&files).is_empty());
    assert!(audit_sources(&files).is_empty());
}

#[test]
fn tf010_silent_on_plain_statics_and_test_code() {
    let src = "\
static LIMIT: u64 = 8;
pub fn limit() -> u64 { LIMIT }
#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    #[test]
    fn t() { let c = RefCell::new(1u32); assert_eq!(*c.borrow(), 1); }
}
";
    let diags = check_source("core", "src/s.rs", src);
    assert!(diags.is_empty(), "\n{}", render(&diags));
}

// ----------------------------------------------------------------- TF011

#[test]
fn tf011_flags_sync_primitives_and_atomics() {
    let src = "\
use std::sync::{Mutex, RwLock};
use std::sync::atomic::AtomicU64;
pub struct S { m: Mutex<u64>, r: RwLock<u64>, a: AtomicU64 }
";
    let diags = check_source("core", "src/s.rs", src);
    // Each name fires at both its `use` and its field type.
    assert_eq!(
        rules_of(&diags),
        ["TF011"; 6].to_vec(),
        "\n{}",
        render(&diags)
    );
}

#[test]
fn tf011_blessed_in_sweep_arc_stays_legal() {
    let sweep = "\
use std::sync::Mutex;
pub struct Pool { results: Mutex<Vec<u64>> }
";
    assert!(check_source("simkit", "src/sweep.rs", sweep).is_empty());
    let arc = "\
use std::sync::Arc;
pub struct S { shared: Arc<[u8]> }
";
    let diags = check_source("llc", "src/frame.rs", arc);
    assert!(diags.is_empty(), "\n{}", render(&diags));
}

#[test]
fn tf010_tf011_blessed_in_simkit_partition() {
    // The conservative partition runner legitimately owns barriers,
    // atomics and mailbox mutexes — its whole contract is that they
    // never leak scheduling order into simulation state.
    let partition = "\
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
pub struct Round {
    mins: Vec<AtomicU64>,
    mail: Vec<Mutex<Vec<u64>>>,
    gate: Barrier,
}
";
    assert!(check_source("simkit", "src/partition.rs", partition).is_empty());
    let cells = "\
use std::cell::RefCell;
pub struct Scratch { pool: RefCell<Vec<u64>> }
";
    assert!(check_source("simkit", "src/partition.rs", cells).is_empty());
}

#[test]
fn tf011_partition_blessing_is_simkit_only() {
    // A partition.rs in any other crate gets no dispensation: the
    // blessing keys on (crate, file), not the file name alone.
    let src = "\
use std::sync::Mutex;
pub struct Shard { mail: Mutex<Vec<u64>> }
";
    let diags = check_source("core", "src/fabric/partition.rs", src);
    assert_eq!(
        rules_of(&diags),
        ["TF011", "TF011"],
        "\n{}",
        render(&diags)
    );
}

// ----------------------------------------------------------------- TF012

#[test]
fn tf012_flags_float_sum_over_hash_iteration() {
    let src = "\
use std::collections::HashMap;
pub struct Stats { samples: HashMap<u64, f64> }
impl Stats {
    pub fn total(&self) -> f64 {
        let total: f64 = self.samples.values().sum();
        total
    }
}
";
    let diags = check_source("dcsim", "src/s.rs", src);
    // The iteration itself is TF009; the accumulation adds TF012.
    assert_eq!(rules_of(&diags), ["TF009", "TF012"], "\n{}", render(&diags));
    assert_eq!(diags[1].line, 5);
}

#[test]
fn tf012_flags_turbofish_sum_form() {
    let src = "\
use std::collections::HashMap;
pub struct S { m: HashMap<u32, f64> }
impl S {
    pub fn t(&self) -> f64 { self.m.values().sum::<f64>() }
}
";
    let diags = check_source("workloads", "src/s.rs", src);
    assert_eq!(rules_of(&diags), ["TF009", "TF012"], "\n{}", render(&diags));
}

#[test]
fn tf012_silent_on_integer_accumulation_and_ordered_maps() {
    let int_sum = "\
use std::collections::HashMap;
pub struct S { m: HashMap<u32, u64> }
impl S {
    pub fn t(&self) -> u64 {
        // tflint::allow(TF009): sum of u64 is order-insensitive.
        self.m.values().sum()
    }
}
";
    let files = [("core", "src/s.rs", int_sum)];
    let diags = check_sources(&files);
    assert!(diags.is_empty(), "\n{}", render(&diags));
    let ordered = "\
use std::collections::BTreeMap;
pub struct S { m: BTreeMap<u32, f64> }
impl S {
    pub fn t(&self) -> f64 { self.m.values().sum::<f64>() }
}
";
    let diags = check_source("dcsim", "src/o.rs", ordered);
    assert!(diags.is_empty(), "\n{}", render(&diags));
}

// ----------------------------------------------------------------- TF013

#[test]
fn tf013_flags_bool_and_option_unit_mutators_when_typed_error_exists() {
    let src = "\
pub struct FlowError;
pub struct S { armed: bool }
impl S {
    pub fn arm(&mut self) -> bool { self.armed = true; true }
    pub fn disarm(&mut self) -> Option<()> { self.armed = false; Some(()) }
}
";
    let diags = check_source("rmmu", "src/s.rs", src);
    assert_eq!(rules_of(&diags), ["TF013", "TF013"], "\n{}", render(&diags));
    assert_eq!(diags[0].line, 4);
    assert_eq!(diags[1].line, 5);
    assert!(diags[0].message.contains("FlowError"));
}

#[test]
fn tf013_silent_without_typed_error_or_mutation_or_for_queries() {
    // No *Error type in the crate: the rule has nothing to suggest.
    let no_error = "\
pub struct S { armed: bool }
impl S {
    pub fn arm(&mut self) -> bool { self.armed = true; true }
}
";
    assert!(check_source("workloads", "src/s.rs", no_error).is_empty());
    // Queries, &self receivers, value-carrying Options, and random
    // samplers (the bool is the draw, not a success flag) are fine.
    let fine = "\
pub struct QueryError;
pub struct S { armed: bool }
impl S {
    pub fn is_armed(&self) -> bool { self.armed }
    pub fn contains_state(&mut self) -> bool { self.armed }
    pub fn peek(&self) -> Option<()> { None }
    pub fn take_slot(&mut self) -> Option<u32> { None }
    pub fn chance(&mut self, p: f64) -> bool { p > 0.5 }
    pub fn flip(&mut self) -> bool { self.armed }
}
";
    let diags = check_source("rmmu", "src/f.rs", fine);
    assert!(diags.is_empty(), "\n{}", render(&diags));
}

#[test]
fn tf013_reasoned_allow_suppresses() {
    let src = "\
pub struct CreditError;
pub struct S { n: u32 }
impl S {
    // tflint::allow(TF013): denial is backpressure, not an error.
    pub fn try_take(&mut self) -> bool { self.n > 0 }
}
";
    let files = [("llc", "src/s.rs", src)];
    assert!(check_sources(&files).is_empty());
    assert!(audit_sources(&files).is_empty());
}

// ----------------------------------------------------------------- TF014

#[test]
fn tf014_flags_console_macros_in_sim_library_code() {
    let src = "\
pub fn tick(now: u64) {
    println!(\"tick {now}\");
    eprintln!(\"warn {now}\");
    print!(\"raw\");
    eprint!(\"raw-err\");
}
";
    let diags = check_source("simkit", "src/engine.rs", src);
    assert_eq!(
        rules_of(&diags),
        ["TF014", "TF014", "TF014", "TF014"],
        "\n{}",
        render(&diags)
    );
    assert_eq!(diags[0].line, 2);
    assert!(diags[0].message.contains("telemetry registry"));
}

#[test]
fn tf014_silent_in_tests_non_sim_crates_and_for_string_formatting() {
    // #[cfg(test)] code may print freely (test output is the console's
    // job), non-sim crates (the linter itself, the bench harness) own
    // their stdout, and `format!`/`writeln!`-to-a-String are not
    // console writes.
    let test_code = "\
pub fn quiet() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { println!(\"debugging a trajectory\"); }
}
";
    assert!(check_source("core", "src/fabric/engine.rs", test_code).is_empty());
    let cli = "pub fn report() { println!(\"workspace clean\"); }\n";
    assert!(check_source("tflint", "src/main.rs", cli).is_empty());
    assert!(check_source("bench", "src/lib.rs", cli).is_empty());
    let formatting = "\
use std::fmt::Write;
pub fn render(out: &mut String) {
    let _ = writeln!(out, \"row\");
    let s = format!(\"row\");
    let _ = s;
}
";
    let diags = check_source("routing", "src/topology.rs", formatting);
    assert!(diags.is_empty(), "\n{}", render(&diags));
}

#[test]
fn tf014_reasoned_allow_suppresses() {
    let src = "\
pub fn panic_hook() {
    // tflint::allow(TF014): last-ditch diagnostics on abort, past the registry's lifetime.
    eprintln!(\"fabric aborted\");
}
";
    let files = [("netsim", "src/switch.rs", src)];
    assert!(check_sources(&files).is_empty());
    assert!(audit_sources(&files).is_empty());
}

// ----------------------------------------------------------------- TF015

/// Crate `c` (root `root`, module `m` holding `X`, module `used`) and
/// crate `d`, which calls `c::used`; `extra` files are added or replace
/// a same-path file.
type File<'a> = (&'a str, &'a str, &'a str);

fn tf015<'a>(root: &'a str, extra: &[File<'a>]) -> Vec<File<'a>> {
    let mut files = vec![
        ("c", "src/lib.rs", root),
        ("c", "src/m.rs", "pub struct X;\n"),
        ("c", "src/used.rs", "pub fn f() {}\n"),
        ("d", "src/lib.rs", "fn g() { c::used::f() }\n"),
    ];
    files.retain(|f| extra.iter().all(|e| (e.0, e.1) != (f.0, f.1)));
    files.extend_from_slice(extra);
    files
}

const C_ROOT: &str = "//! Crate c.\npub mod m;\npub mod used;\n";

#[test]
fn tf015_flags_a_module_nothing_names() {
    let files = tf015(C_ROOT, &[]);
    let diags = check_workspace_sources(&files, &[]);
    assert_eq!(rules_of(&diags), ["TF015"], "\n{}", render(&diags));
    assert_eq!((diags[0].file.as_str(), diags[0].line), ("src/lib.rs", 2));
    assert!(diags[0].message.contains("`c::m`"));
    // The per-crate entry points cannot see other crates: no TF015.
    assert!(check_sources(&files).is_empty());
}

#[test]
fn tf015_flags_a_module_named_only_by_its_own_tests() {
    let m = "pub struct X;\n#[cfg(test)]\nmod tests { use crate::m::X; fn t() { c::m::X; } }\n";
    let extra = [("c", "src/m/mod.rs", m), ("c", "src/m/more.rs", "use super::X;\n")];
    let mut files = tf015(C_ROOT, &extra);
    files.retain(|f| f.1 != "src/m.rs");
    let diags = check_workspace_sources(&files, &[]);
    assert_eq!(rules_of(&diags), ["TF015"], "\n{}", render(&diags));
}

#[test]
fn tf015_counts_grouped_imports_sibling_paths_and_crate_renames() {
    for user in [
        ("d", "src/lib.rs", "use c::{used::f, m::X};\n"),
        ("d", "src/lib.rs", "use c::{self, used, m};\nfn g() { used::f(); }\n"),
        ("c", "src/used.rs", "pub fn f(_: crate::m::X) {}\n"),
        ("c", "src/used.rs", "use super::m;\npub fn f() {}\n"),
        ("e", "src/lib.rs", "pub use c as core;\nuse crate::core::{used::f, m::X};\n"),
    ] {
        let diags = check_workspace_sources(&tf015(C_ROOT, &[user]), &[]);
        assert!(diags.is_empty(), "{user:?}\n{}", render(&diags));
    }
}

#[test]
fn tf015_counts_references_from_tests_benches_and_examples() {
    for path in ["tests/t.rs", "benches/b.rs", "examples/e.rs"] {
        let refs = [("c", path, "use c::m::X;\nfn main() { let _ = X; }\n")];
        let diags = check_workspace_sources(&tf015(C_ROOT, &[]), &refs);
        assert!(diags.is_empty(), "{path}\n{}", render(&diags));
    }
}

#[test]
fn tf015_counts_use_through_a_root_reexport_but_not_the_reexport_itself() {
    let files = tf015("pub mod m;\npub mod used;\npub use m::X;\n", &[]);
    let diags = check_workspace_sources(&files, &[]);
    assert_eq!(rules_of(&diags), ["TF015"], "\n{}", render(&diags));
    let diags = check_workspace_sources(&files, &[("d", "tests/t.rs", "use c::X;\n")]);
    assert!(diags.is_empty(), "\n{}", render(&diags));
}

#[test]
fn tf015_ignores_inline_and_private_modules_and_honours_allows() {
    let root = "\
pub mod inline { pub fn f() {} }
mod private;
pub(crate) mod scoped;
pub mod used;
// tflint::allow(TF015): kept for the next release's public API.
pub mod m;
";
    let extra = [("c", "src/private.rs", ""), ("c", "src/scoped.rs", "")];
    let files = tf015(root, &extra);
    let diags = check_workspace_sources(&files, &[]);
    assert!(diags.is_empty(), "\n{}", render(&diags));
    // The gate never runs TF015, so it does not call that allow stale.
    assert!(audit_sources(&files).is_empty());
}

// ----------------------------------------------------------------- TF016

/// Crate `c` with `used` (called by crate `d`) and `lonely` (called only
/// inside `c`, by `pub(crate) fn inner`).
const C_LIB: &str = "\
pub fn used() {}
pub fn lonely() {}
pub const fn lonely_const() -> u8 { 0 }
pub(crate) fn inner() { lonely(); let _ = lonely_const(); }
pub struct S;
impl S {
    pub fn method(&self) {}
}
#[cfg(test)]
mod tests {
    pub fn helper() {}
}
";

fn tf016<'a>(extra: &[File<'a>]) -> Vec<File<'a>> {
    let mut files = vec![
        ("c", "src/lib.rs", C_LIB),
        ("c", "src/main.rs", "fn main() {}\n"),
        ("d", "src/lib.rs", "fn g() { c::used(); }\n"),
    ];
    files.retain(|f| extra.iter().all(|e| (e.0, e.1) != (f.0, f.1)));
    files.extend_from_slice(extra);
    files
}

#[test]
fn tf016_flags_a_function_named_only_inside_its_own_crate() {
    let diags = check_workspace_sources(&tf016(&[]), &[]);
    let named: Vec<(&str, u32)> = diags.iter().map(|d| (d.rule, d.line)).collect();
    // `lonely`, `lonely_const` and the method; not `used`, not `inner`,
    // not the test module's helper.
    assert_eq!(named, [("TF016", 2), ("TF016", 3), ("TF016", 7)], "\n{}", render(&diags));
    assert!(diags[0].message.contains("`pub fn lonely`") && diags[0].message.contains("pub(crate)"));
    // The per-crate entry points cannot see other crates: no TF016.
    assert!(check_sources(&tf016(&[])).is_empty());
}

#[test]
fn tf016_counts_other_crates_tests_examples_perfbench_and_the_crates_binary() {
    let call = "fn main() { c::lonely(); c::lonely_const(); c::S.method(); }\n";
    for (krate, path, refs) in [
        ("d", "src/lib.rs", false),
        ("c", "src/main.rs", false),
        ("c", "tests/t.rs", true),
        ("c", "examples/e.rs", true),
        ("perfbench", "perfbench/src/main.rs", true),
    ] {
        let user = [(krate, path, call)];
        let (files, refs) = if refs {
            (tf016(&[]), &user[..])
        } else {
            (tf016(&user), &[][..])
        };
        let diags = check_workspace_sources(&files, refs);
        let rest: Vec<_> = diags.iter().filter(|d| d.message.contains("lonely")).collect();
        assert!(rest.is_empty(), "{path}\n{}", render(&diags));
        assert!(diags.iter().all(|d| !d.message.contains("method")), "{path}");
    }
}

#[test]
fn tf016_counts_doc_examples_but_not_the_example_of_the_function_itself() {
    let lib = "\
/// ```
/// c::lonely();
/// let _ = c::lonely_const();
/// ```
pub fn used() {}
/// ```
/// c::lonely();
/// ```
pub fn lonely() {}
/// ```text
/// c::method();
/// ```
pub fn lonely_const() {}
pub struct S;
impl S {
    pub fn method(&self) {}
}
";
    let diags = check_workspace_sources(&tf016(&[("c", "src/lib.rs", lib)]), &[]);
    let named: Vec<u32> = diags.iter().map(|d| d.line).collect();
    // `used`'s example calls `lonely` and `lonely_const`; `lonely`'s
    // example of itself calls nothing else; a `text` block is prose.
    assert_eq!(named, [16], "\n{}", render(&diags));
}

#[test]
fn tf016_allow_suppresses_and_goes_stale_once_an_outside_caller_appears() {
    let lib = "\
pub fn used() {}
// tflint::allow(TF016): the only model of the paper's lonely mechanism.
pub fn lonely() {}
pub(crate) fn lonely_const() {}
";
    let files = tf016(&[("c", "src/lib.rs", lib)]);
    let diags = check_workspace_sources(&files, &[]);
    assert!(diags.is_empty(), "\n{}", render(&diags));
    // The gate never runs TF016, so it does not call that allow stale.
    assert!(audit_sources(&files).is_empty());
    // With an outside caller the allow suppresses nothing: ALW001.
    let refs = [("c", "tests/t.rs", "fn t() { c::lonely(); }\n")];
    let audit = audit_workspace_sources(&files, &refs);
    assert_eq!(rules_of(&audit), ["ALW001"], "\n{}", render(&audit));
    assert!(audit[0].message.contains("TF016"));
}

// ------------------------------------------------------------ allow audit

#[test]
fn audit_flags_stale_allow_per_rule() {
    // TF004 genuinely fires; TF001 in the same allow is stale.
    let src = "\
pub fn f(x: Option<u8>) -> u8 {
    // tflint::allow(TF001, TF004): legacy comment kept one rule too many.
    x.unwrap()
}
";
    let files = [("llc", "src/s.rs", src)];
    assert!(check_sources(&files).is_empty(), "TF004 should be suppressed");
    let audit = audit_sources(&files);
    assert_eq!(rules_of(&audit), ["ALW001"], "\n{}", render(&audit));
    assert!(audit[0].message.contains("TF001"));
}

#[test]
fn audit_flags_reasonless_allow_even_when_it_suppresses() {
    let src = "\
pub fn f(x: Option<u8>) -> u8 {
    // tflint::allow(TF004)
    x.unwrap()
}
";
    let files = [("llc", "src/s.rs", src)];
    assert!(check_sources(&files).is_empty());
    let audit = audit_sources(&files);
    assert_eq!(rules_of(&audit), ["ALW002"], "\n{}", render(&audit));
}

#[test]
fn audit_ignores_prose_that_mentions_the_allow_syntax() {
    let src = "\
//! Suppress findings with a `// tflint::allow(TF004): reason` comment.
pub fn f() {}
";
    let files = [("llc", "src/s.rs", src)];
    assert!(audit_sources(&files).is_empty());
}

// ------------------------------------------------------- index inspection

#[test]
fn index_exposes_items_and_error_types_across_files() {
    let a = "\
pub mod wire;
pub struct WireError;
pub fn encode() {}
";
    let b = "\
use std::collections::HashMap;
pub struct Table { slots: HashMap<u32, u32> }
";
    let idx = index_sources(&[("llc", "src/lib.rs", a), ("llc", "src/wire.rs", b)]);
    let items = idx.items("llc", "src/lib.rs").expect("indexed");
    assert_eq!(items.len(), 3);
    assert!(items.iter().all(|i| i.is_pub));
    assert!(idx.error_types("llc").any(|e| e == "WireError"));
    assert!(idx.hash_named("llc").any(|n| n == "slots"));
}

// ------------------------------------------------------------ JSON report

#[test]
fn json_report_round_trips_through_value_tree() {
    let src = "\
use std::collections::HashMap;
pub struct S { m: HashMap<u64, u32> }
impl S {
    pub fn all(&self) -> usize { self.m.iter().count() }
}
";
    let diags = check_source("core", "src/s.rs", src);
    assert_eq!(rules_of(&diags), ["TF009"]);
    let json = tflint::render_json(&diags);
    let parsed: serde::Value = serde_json::from_str(&json).expect("valid JSON");
    assert_eq!(parsed, tflint::diagnostics_value(&diags));
    // Schema-stable shape: top-level keys and per-diagnostic keys.
    let serde::Value::Map(top) = &parsed else {
        panic!("top level must be a map")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["schema", "count", "diagnostics"]);
    assert_eq!(top[0].1, serde::Value::UInt(tflint::JSON_SCHEMA_VERSION));
    assert_eq!(top[1].1, serde::Value::UInt(1));
    let serde::Value::Seq(list) = &top[2].1 else {
        panic!("diagnostics must be a sequence")
    };
    let serde::Value::Map(entry) = &list[0] else {
        panic!("each diagnostic must be a map")
    };
    let entry_keys: Vec<&str> = entry.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(entry_keys, ["rule", "file", "line", "col", "message"]);
}

#[test]
fn json_report_for_clean_run_is_empty_but_well_formed() {
    let json = tflint::render_json(&[]);
    let parsed: serde::Value = serde_json::from_str(&json).expect("valid JSON");
    let serde::Value::Map(top) = &parsed else {
        panic!("top level must be a map")
    };
    assert_eq!(top[1], ("count".to_string(), serde::Value::UInt(0)));
}
