//! Frozen pre-overhaul implementation of the broker's subscription trie,
//! kept verbatim so `substrate_hotpath` and `bench_smoke` can measure
//! old-vs-new on the same machine in the same process.
//!
//! [`OldTopicTrie`] — the broker's original subscription trie:
//! `BTreeMap<String, Node>` children keyed by owned level strings, and a
//! `lookup` that collects `topic.split('/')` into a fresh `Vec<&str>` per
//! publish. The replacement interns levels to `u32` symbols and walks the
//! split iterator directly; the broker additionally caches resolved routes
//! per topic behind a trie epoch.
//!
//! Nothing outside the bench crate should use this type.

use std::collections::BTreeMap;

/// The broker's original subscription trie (string-keyed, allocating
/// lookup), copied from the pre-overhaul `digibox_broker::topic`.
#[derive(Debug, Clone)]
pub struct OldTopicTrie<T> {
    root: Node<T>,
    len: usize,
}

#[derive(Debug, Clone)]
struct Node<T> {
    children: BTreeMap<String, Node<T>>,
    values: Vec<T>,
}

impl<T> Default for Node<T> {
    fn default() -> Self {
        Node { children: BTreeMap::new(), values: Vec::new() }
    }
}

impl<T> Default for OldTopicTrie<T> {
    fn default() -> Self {
        OldTopicTrie::new()
    }
}

impl<T> OldTopicTrie<T> {
    pub fn new() -> OldTopicTrie<T> {
        OldTopicTrie { root: Node::default(), len: 0 }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn insert(&mut self, filter: &str, value: T) {
        let mut node = &mut self.root;
        for level in filter.split('/') {
            node = node.children.entry(level.to_string()).or_default();
        }
        node.values.push(value);
        self.len += 1;
    }

    pub fn remove_where(&mut self, filter: &str, mut pred: impl FnMut(&T) -> bool) -> usize {
        let mut node = &mut self.root;
        for level in filter.split('/') {
            match node.children.get_mut(level) {
                Some(n) => node = n,
                None => return 0,
            }
        }
        let before = node.values.len();
        node.values.retain(|v| !pred(v));
        let removed = before - node.values.len();
        self.len -= removed;
        removed
    }

    pub fn lookup(&self, topic: &str) -> Vec<&T> {
        let levels: Vec<&str> = topic.split('/').collect();
        let mut out = Vec::new();
        let skip_wildcards_at_root = topic.starts_with('$');
        Self::walk(&self.root, &levels, 0, skip_wildcards_at_root, &mut out);
        out
    }

    fn walk<'a>(
        node: &'a Node<T>,
        levels: &[&str],
        depth: usize,
        dollar_guard: bool,
        out: &mut Vec<&'a T>,
    ) {
        if let Some(hash) = node.children.get("#") {
            if !(dollar_guard && depth == 0) {
                out.extend(hash.values.iter());
            }
        }
        if depth == levels.len() {
            out.extend(node.values.iter());
            return;
        }
        let level = levels[depth];
        if let Some(child) = node.children.get(level) {
            Self::walk(child, levels, depth + 1, dollar_guard, out);
        }
        if let Some(plus) = node.children.get("+") {
            if !(dollar_guard && depth == 0) {
                Self::walk(plus, levels, depth + 1, dollar_guard, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digibox_broker::TopicTrie;

    /// The frozen baseline must agree with the live trie — otherwise
    /// old-vs-new bench numbers compare different semantics.
    #[test]
    fn old_trie_agrees_with_interned_trie() {
        let filters = ["a/+/c", "a/#", "a/b/c", "+/b/+", "#", "$SYS/#", "x/y"];
        let topics = ["a/b/c", "a/x/c", "a/b", "x/y", "$SYS/stats", "q"];
        let mut old = OldTopicTrie::new();
        let mut new = TopicTrie::new();
        for (i, f) in filters.iter().enumerate() {
            old.insert(f, i);
            new.insert(f, i);
        }
        for t in topics {
            let mut a: Vec<usize> = old.lookup(t).into_iter().copied().collect();
            let mut b: Vec<usize> = new.lookup(t).into_iter().copied().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "route mismatch for {t}");
        }
    }
}
