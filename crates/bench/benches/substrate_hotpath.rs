//! Substrate hot-path overhaul: old vs new, same machine, same process.
//!
//! `publish_routing/*` — repeated publishes to a small set of hot topics
//! over a 512-subscription trie, run against the frozen pre-overhaul trie
//! (`digibox_bench::baseline`) and the live one: the broker workload the
//! interned trie + route cache targets.
//!
//! `scripts/bench_smoke.sh` (and the `bench_smoke` bin) run the same
//! comparison headlessly and write `BENCH_substrate.json`.

use std::collections::HashMap;
use std::rc::Rc;

use digibox_bench::BenchGroup;
use digibox_bench::baseline::OldTopicTrie;
use digibox_broker::TopicTrie;

/// The broker's subscription shape: per-digi status filters plus a few
/// wildcard observers, as `build_deployment` produces.
fn filters(n: usize) -> Vec<String> {
    let mut f: Vec<String> = (0..n)
        .map(|i| format!("digibox/mock/O{i}/status"))
        .collect();
    f.push("digibox/mock/+/status".into());
    f.push("digibox/#".into());
    f
}

fn hot_topics() -> Vec<String> {
    (0..8).map(|i| format!("digibox/mock/O{i}/status")).collect()
}

/// Old path: every publish re-walks the string trie (allocating the level
/// vector) and re-sorts/dedups the route list.
fn routing_old(trie: &OldTopicTrie<u32>, topics: &[String], publishes: usize) -> usize {
    let mut routed = 0;
    for i in 0..publishes {
        let topic = &topics[i % topics.len()];
        let mut routes: Vec<u32> = trie.lookup(topic).into_iter().copied().collect();
        routes.sort_unstable();
        routes.dedup();
        routed += routes.len();
    }
    routed
}

/// New path: interned trie plus the broker's per-topic route cache
/// (epoch-checked `Rc` route lists) — replicated here because the broker
/// itself only exposes it behind the MQTT session machinery.
fn routing_new(trie: &TopicTrie<u32>, topics: &[String], publishes: usize) -> usize {
    let mut cache: HashMap<String, Rc<[u32]>> = HashMap::new();
    let epoch = trie.epoch();
    let mut routed = 0;
    for i in 0..publishes {
        let topic = &topics[i % topics.len()];
        let routes = match cache.get(topic) {
            Some(r) => Rc::clone(r),
            None => {
                let mut r: Vec<u32> = trie.lookup(topic).into_iter().copied().collect();
                r.sort_unstable();
                r.dedup();
                let r: Rc<[u32]> = r.into();
                cache.insert(topic.clone(), Rc::clone(&r));
                r
            }
        };
        debug_assert_eq!(epoch, trie.epoch());
        routed += routes.len();
    }
    routed
}

fn main() {
    let fs = filters(512);
    let mut old_trie = OldTopicTrie::new();
    let mut new_trie = TopicTrie::new();
    for (i, f) in fs.iter().enumerate() {
        old_trie.insert(f, i as u32);
        new_trie.insert(f, i as u32);
    }
    let topics = hot_topics();
    // Sanity: both paths route identically before we time them.
    assert_eq!(
        routing_old(&old_trie, &topics, topics.len()),
        routing_new(&new_trie, &topics, topics.len())
    );

    let mut group = BenchGroup::new("publish_routing");
    group.bench_function("old_uncached_trie", |b| {
        b.iter(|| std::hint::black_box(routing_old(&old_trie, &topics, 4096)))
    });
    group.bench_function("new_cached_interned", |b| {
        b.iter(|| std::hint::black_box(routing_new(&new_trie, &topics, 4096)))
    });
}
