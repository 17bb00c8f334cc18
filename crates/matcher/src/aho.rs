//! Aho-Corasick multi-pattern string matching (the IDS signature matcher).
//!
//! Built in the "standard approach" the paper cites: a trie with BFS failure
//! links, then converted into a dense DFA (goto + failure collapsed into one
//! transition table) so the scan loop is one table load per input byte — the
//! form both the CPU and the GPU kernels consume.
//!
//! The table is *byte-class compacted*: every byte that occurs in some
//! pattern has a class of its own, all other bytes share one (they all lead
//! where the failure links lead), and a row holds one entry per class
//! instead of 256. State ids are premultiplied into row offsets, and match
//! states are numbered last, so a step is `delta[state + class_of[byte]]`
//! and "did a pattern end here" is one compare against [`AhoCorasick`]'s
//! first match state. [`AhoCorasick::first_match_each`] scans a batch of
//! haystacks [`LANES`] at a time, in lockstep, so that the four table loads
//! of a step do not wait for one another.

/// A match of one pattern in a haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Index of the matched pattern in the pattern set.
    pub pattern: usize,
    /// Byte offset one past the last matched byte.
    pub end: usize,
}

/// Haystacks [`AhoCorasick::first_match_each`] advances together. A scan
/// is a chain of dependent loads; four independent chains fill the load
/// pipeline, eight were no faster on an IMIX batch (more lanes end early).
pub const LANES: usize = 4;

/// A compiled Aho-Corasick automaton in dense, class-compacted DFA form.
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    /// Byte → column of a transition row.
    class_of: [u8; 256],
    /// Row width: distinct pattern bytes, plus one shared column for the
    /// rest unless the patterns use all 256 values.
    classes: usize,
    /// `delta[state + class]` = next state; a state id is its row offset.
    delta: Vec<u32>,
    /// States `>= first_match` have at least one pattern ending in them.
    first_match: usize,
    /// Pattern indices ending at each match state (flattened), indexed by
    /// the state's rank among the match states.
    out_start: Vec<u32>,
    out_flat: Vec<u32>,
}

impl AhoCorasick {
    /// Compiles a pattern set.
    ///
    /// Empty patterns are rejected; duplicates are allowed (each reports its
    /// own index).
    ///
    /// # Panics
    ///
    /// Panics if `patterns` is empty or contains an empty pattern, or if the
    /// table would outgrow `u32` row offsets.
    pub fn new<P: AsRef<[u8]>>(patterns: &[P]) -> AhoCorasick {
        assert!(!patterns.is_empty(), "pattern set must not be empty");
        const NONE: u32 = u32::MAX;
        // 1. Byte classes. Column 0 is the shared one, so with all 256
        //    values in use the ids shift down and still fit a `u8`.
        let mut used = [false; 256];
        for (pi, pat) in patterns.iter().enumerate() {
            let pat = pat.as_ref();
            assert!(!pat.is_empty(), "pattern {pi} is empty");
            for &b in pat {
                used[usize::from(b)] = true;
            }
        }
        let distinct = used.iter().filter(|&&u| u).count();
        let shared = usize::from(distinct < 256);
        let classes = distinct + shared;
        let mut class_of = [0u8; 256];
        let in_use = (0..256).filter(|&b| used[b]);
        for (class, b) in (shared..).zip(in_use) {
            class_of[b] = class as u8;
        }
        // 2. The trie, one `classes`-wide row per node; `ends` lists
        //    (node, pattern) in pattern order.
        let mut goto = vec![NONE; classes];
        let mut ends = Vec::with_capacity(patterns.len());
        for (pi, pat) in patterns.iter().enumerate() {
            let mut cur = 0usize;
            for &b in pat.as_ref() {
                let at = cur * classes + usize::from(class_of[usize::from(b)]);
                if goto[at] == NONE {
                    // Row offsets, one past the last row included, stay
                    // below the NONE marker.
                    let rows_end = goto.len() + classes;
                    assert!(
                        u32::try_from(rows_end).is_ok_and(|end| end != NONE),
                        "automaton too large for u32 row offsets"
                    );
                    goto[at] = (goto.len() / classes) as u32;
                    goto.resize(rows_end, NONE);
                }
                cur = goto[at] as usize;
            }
            ends.push((cur as u32, pi as u32));
        }
        let nodes = goto.len() / classes;
        // 3. BFS failure links, collapsing goto+fail into a dense DFA.
        //    `order` is the visit order: a node's failure target is always
        //    earlier in it.
        let mut fail = vec![0u32; nodes];
        let mut order = Vec::with_capacity(nodes);
        order.push(0u32);
        for child in &mut goto[..classes] {
            match *child {
                NONE => *child = 0,
                child => order.push(child),
            }
        }
        let mut head = 1;
        while head < order.len() {
            let u = order[head] as usize;
            head += 1;
            let f = fail[u] as usize;
            for c in 0..classes {
                let via_fail = goto[f * classes + c];
                match goto[u * classes + c] {
                    NONE => goto[u * classes + c] = via_fail,
                    child => {
                        fail[child as usize] = via_fail;
                        order.push(child);
                    }
                }
            }
        }
        // 4. Outputs: a node's own patterns in index order, then those of
        //    its failure target (the suffix matches). Match states are
        //    renumbered after all others, both groups in BFS order.
        ends.sort_by_key(|&(node, _)| node); // stable: keeps pattern order
        let own = |n: usize| {
            let from = ends.partition_point(|&(node, _)| (node as usize) < n);
            let len = ends[from..].partition_point(|&(node, _)| node as usize == n);
            &ends[from..from + len]
        };
        let mut rank = vec![NONE; nodes]; // among match states
        let mut out_start = vec![0u32];
        let mut out_flat: Vec<u32> = Vec::with_capacity(ends.len());
        for &u in &order {
            let u = u as usize;
            let (own, inherited) = (own(u), rank[fail[u] as usize]);
            if own.is_empty() && inherited == NONE {
                continue;
            }
            out_flat.extend(own.iter().map(|&(_, pi)| pi));
            if inherited != NONE {
                let r = inherited as usize;
                out_flat.extend_from_within(out_start[r] as usize..out_start[r + 1] as usize);
            }
            rank[u] = (out_start.len() - 1) as u32;
            out_start.push(out_flat.len() as u32);
        }
        let plain = nodes - (out_start.len() - 1);
        let mut renumbered = vec![0u32; nodes];
        let mut next_plain = 0;
        for &u in &order {
            let row = match rank[u as usize] {
                NONE => {
                    let row = next_plain;
                    next_plain += 1;
                    row
                }
                r => plain + r as usize,
            };
            renumbered[u as usize] = (row * classes) as u32;
        }
        // 5. The table in its final numbering.
        let mut delta = vec![0u32; goto.len()];
        for (u, row) in goto.chunks_exact(classes).enumerate() {
            let at = renumbered[u] as usize;
            for (slot, &next) in delta[at..at + classes].iter_mut().zip(row) {
                *slot = renumbered[next as usize];
            }
        }
        AhoCorasick {
            class_of,
            classes,
            delta,
            first_match: plain * classes,
            out_start,
            out_flat,
        }
    }

    /// Number of DFA states.
    pub fn state_count(&self) -> usize {
        self.delta.len() / self.classes
    }

    /// Size of the transition table in bytes.
    pub fn table_bytes(&self) -> usize {
        std::mem::size_of_val(&self.delta[..])
    }

    /// Advances one DFA step (exposed so the GPU kernel can run the same
    /// automaton byte-by-byte). The start state is 0; other state ids are
    /// opaque and only come out of this function.
    #[inline]
    pub fn step(&self, state: u32, byte: u8) -> u32 {
        self.next(state as usize, byte) as u32
    }

    /// `true` if any pattern ends in `state`.
    #[inline]
    pub fn is_match_state(&self, state: u32) -> bool {
        state as usize >= self.first_match
    }

    /// [`step`](Self::step) on index-width states, as the scan loops carry
    /// them: a `u32` state would be widened again on every byte, one more
    /// link in the chain the scan's speed is set by.
    #[inline]
    fn next(&self, state: usize, byte: u8) -> usize {
        self.delta[state + usize::from(self.class_of[usize::from(byte)])] as usize
    }

    /// Patterns ending in match state `state`, the state's own first.
    fn outputs(&self, state: usize) -> &[u32] {
        let r = (state - self.first_match) / self.classes;
        &self.out_flat[self.out_start[r] as usize..self.out_start[r + 1] as usize]
    }

    /// Finds all matches (including overlapping) in `haystack`.
    pub fn find_all(&self, haystack: &[u8]) -> Vec<Match> {
        let mut matches = Vec::new();
        let mut state = 0;
        for (i, &b) in haystack.iter().enumerate() {
            state = self.next(state, b);
            if state >= self.first_match {
                matches.extend(self.outputs(state).iter().map(|&pi| Match {
                    pattern: pi as usize,
                    end: i + 1,
                }));
            }
        }
        matches
    }

    /// Returns the first match, scanning left to right.
    pub fn first_match(&self, haystack: &[u8]) -> Option<Match> {
        self.scan_from(haystack, 0, 0)
    }

    /// Continues a first-match scan of `haystack` at byte `pos` in `state`.
    fn scan_from(&self, haystack: &[u8], pos: usize, mut state: usize) -> Option<Match> {
        for (i, &b) in haystack.iter().enumerate().skip(pos) {
            state = self.next(state, b);
            if state >= self.first_match {
                return Some(self.hit(state, i + 1));
            }
        }
        None
    }

    fn hit(&self, state: usize, end: usize) -> Match {
        Match {
            pattern: self.outputs(state)[0] as usize,
            end,
        }
    }

    /// [`first_match`](Self::first_match) of every haystack, written to the
    /// slot of `out` with the same index.
    ///
    /// [`LANES`] haystacks advance one byte per step together, for as many
    /// steps as the shortest of them has left; a lane that hits or runs out
    /// takes the next haystack of the queue. Once the queue is empty the
    /// lanes still open finish one after another.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length.
    pub fn first_match_each(&self, haystacks: &[&[u8]], out: &mut [Option<Match>]) {
        assert_eq!(haystacks.len(), out.len(), "one result slot per haystack");
        // Lanes `0..open` each hold an unfinished haystack: which one, how
        // far into it, in which state.
        let (mut idx, mut pos, mut state) = ([0usize; LANES], [0usize; LANES], [0usize; LANES]);
        let mut queue = 0..haystacks.len();
        let mut open = 0;
        for i in queue.by_ref().take(LANES) {
            idx[open] = i;
            open += 1;
        }
        while open == LANES {
            let left = |l: usize| haystacks[idx[l]].len() - pos[l];
            let run = (0..LANES).map(left).min().unwrap_or(0);
            let lanes: [&[u8]; LANES] =
                std::array::from_fn(|l| &haystacks[idx[l]][pos[l]..pos[l] + run]);
            let mut taken = run;
            for k in 0..run {
                for (s, lane) in state.iter_mut().zip(&lanes) {
                    *s = self.next(*s, lane[k]);
                }
                if state.iter().fold(0, |m, &s| m.max(s)) >= self.first_match {
                    taken = k + 1;
                    break;
                }
            }
            // Downwards, so the lane swapped into a closed slot has already
            // been looked at.
            for l in (0..LANES).rev() {
                pos[l] += taken;
                let hit = state[l] >= self.first_match;
                if !hit && pos[l] < haystacks[idx[l]].len() {
                    continue;
                }
                out[idx[l]] = hit.then(|| self.hit(state[l], pos[l]));
                if let Some(i) = queue.next() {
                    (idx[l], pos[l], state[l]) = (i, 0, 0);
                } else {
                    open -= 1;
                    idx.swap(l, open);
                    pos.swap(l, open);
                    state.swap(l, open);
                }
            }
        }
        for l in 0..open {
            out[idx[l]] = self.scan_from(haystacks[idx[l]], pos[l], state[l]);
        }
    }

    /// `true` if any pattern occurs in `haystack`.
    pub fn is_match(&self, haystack: &[u8]) -> bool {
        self.first_match(haystack).is_some()
    }
}

/// A naive multi-pattern scan used as a test oracle.
#[cfg(any(test, feature = "test-oracles"))]
pub fn naive_find_all<P: AsRef<[u8]>>(patterns: &[P], haystack: &[u8]) -> Vec<Match> {
    let mut out = Vec::new();
    for i in 0..haystack.len() {
        for (pi, p) in patterns.iter().enumerate() {
            let p = p.as_ref();
            if haystack[i..].starts_with(p) {
                out.push(Match {
                    pattern: pi,
                    end: i + p.len(),
                });
            }
        }
    }
    out.sort_by_key(|m| (m.end, m.pattern));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_he_she_his_hers() {
        let ac = AhoCorasick::new(&["he", "she", "his", "hers"]);
        let mut ms = ac.find_all(b"ushers");
        ms.sort_by_key(|m| (m.end, m.pattern));
        assert_eq!(
            ms,
            vec![
                Match { pattern: 0, end: 4 }, // "he"
                Match { pattern: 1, end: 4 }, // "she"
                Match { pattern: 3, end: 6 }, // "hers"
            ]
        );
    }

    #[test]
    fn matches_agree_with_naive_oracle() {
        let patterns: Vec<&[u8]> = vec![b"abc", b"bca", b"c", b"aa", b"abcabc"];
        let hay = b"aabcabcabca";
        let mut fast = AhoCorasick::new(&patterns).find_all(hay);
        fast.sort_by_key(|m| (m.end, m.pattern));
        assert_eq!(fast, naive_find_all(&patterns, hay));
    }

    #[test]
    fn overlapping_and_nested_patterns() {
        let ac = AhoCorasick::new(&["aaa", "aa", "a"]);
        let ms = ac.find_all(b"aaaa");
        // "a" x4, "aa" x3, "aaa" x2.
        assert_eq!(ms.len(), 9);
    }

    #[test]
    fn binary_patterns() {
        let ac = AhoCorasick::new(&[&[0x00u8, 0xff, 0x00][..], &[0xffu8, 0xff][..]]);
        assert!(ac.is_match(&[1, 2, 0x00, 0xff, 0x00, 3]));
        assert!(ac.is_match(&[0xff, 0xff]));
        assert!(!ac.is_match(&[0x00, 0xfe, 0x00]));
    }

    #[test]
    fn no_match_returns_none() {
        let ac = AhoCorasick::new(&["needle"]);
        assert_eq!(ac.first_match(b"haystack without it"), None);
        assert!(!ac.is_match(b""));
    }

    #[test]
    fn first_match_is_leftmost_by_end() {
        let ac = AhoCorasick::new(&["late", "ate"]);
        let m = ac.first_match(b"plates").unwrap();
        assert_eq!(m.end, 5);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_pattern_set_rejected() {
        let _ = AhoCorasick::new(&Vec::<Vec<u8>>::new());
    }

    #[test]
    #[should_panic(expected = "is empty")]
    fn empty_pattern_rejected() {
        let _ = AhoCorasick::new(&["ok", ""]);
    }

    #[test]
    fn state_count_reflects_shared_prefixes() {
        let shared = AhoCorasick::new(&["abcd", "abce"]);
        let disjoint = AhoCorasick::new(&["abcd", "wxyz"]);
        assert!(shared.state_count() < disjoint.state_count());
    }

    #[test]
    fn all_byte_values_leave_no_shared_class() {
        // 256 distinct pattern bytes: no spare column, ids still fit a u8.
        let patterns: Vec<[u8; 2]> = (0..=255u8).map(|b| [b, b.wrapping_add(1)]).collect();
        let ac = AhoCorasick::new(&patterns);
        assert_eq!(ac.classes, 256);
        for b in 0..=255u8 {
            let hay = [b.wrapping_add(7), b, b.wrapping_add(1)];
            let got = ac.first_match(&hay).unwrap();
            assert_eq!((got.pattern, got.end), (usize::from(b), 3), "byte {b}");
        }
        // One value short of all: the unused byte takes the shared column.
        let ac = AhoCorasick::new(&patterns[..255]);
        assert_eq!(ac.classes, 256);
        assert!(!ac.is_match(&[0xff, 0xff, 0xff]));
        assert!(ac.is_match(&[0xff, 0xfe, 0xff]));
    }

    #[test]
    fn duplicate_patterns_report_lower_index_first() {
        let ac = AhoCorasick::new(&["xab", "ab", "ab", "b"]);
        assert_eq!(ac.first_match(b"..ab").unwrap().pattern, 1);
        // A state's own patterns come before the suffixes it inherits.
        assert_eq!(ac.first_match(b".xab").unwrap().pattern, 0);
        let at_end: Vec<usize> = ac.find_all(b"xab").iter().map(|m| m.pattern).collect();
        assert_eq!(at_end, vec![0, 1, 2, 3]);
    }

    #[test]
    fn match_states_are_numbered_last() {
        let ac = AhoCorasick::new(&["he", "she", "his", "hers"]);
        // h, s, he*, hi, sh, her, his*, she*, hers* + root: 4 match states.
        assert_eq!(ac.state_count(), 10);
        assert_eq!(ac.first_match, 6 * ac.classes);
        assert_eq!(ac.table_bytes(), 10 * ac.classes * 4);
    }

    #[test]
    fn lockstep_scan_equals_one_at_a_time() {
        let ac = AhoCorasick::new(&["needle", "dle", "hay"]);
        let hays: Vec<&[u8]> = vec![
            b"",
            b"a long stretch of nothing, then a needle",
            b"hay",
            b"ha",
            b"xxxxxxxxxxxxxxxdle",
            b"no hit in this one either",
            b"",
            b"needle",
            b"y",
        ];
        for n in 0..=hays.len() {
            let mut got = vec![Some(Match { pattern: 9, end: 9 }); n];
            ac.first_match_each(&hays[..n], &mut got);
            let want: Vec<_> = hays[..n].iter().map(|h| ac.first_match(h)).collect();
            assert_eq!(got, want, "{n} haystacks");
        }
    }

    #[test]
    fn step_interface_matches_find_all() {
        let ac = AhoCorasick::new(&["ring"]);
        let hay = b"monitoring";
        let mut state = 0u32;
        let mut hit_at = None;
        for (i, &b) in hay.iter().enumerate() {
            state = ac.step(state, b);
            if ac.is_match_state(state) {
                hit_at = Some(i + 1);
            }
        }
        assert_eq!(hit_at, Some(10));
        assert_eq!(ac.find_all(hay).len(), 1);
    }
}
