//! Property tests: automata vs. naive oracles, parser robustness.

use proptest::prelude::*;

use nba_matcher::{AhoCorasick, Regex};

/// Naive multi-pattern scan.
fn naive_matches(patterns: &[Vec<u8>], hay: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..hay.len() {
        for (pi, p) in patterns.iter().enumerate() {
            if hay[i..].starts_with(p) {
                out.push((pi, i + p.len()));
            }
        }
    }
    out.sort_unstable();
    out
}

fn small_alphabet_bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(proptest::sample::select(vec![b'a', b'b', b'c']), 1..max_len)
}

proptest! {
    /// Aho-Corasick finds exactly the matches the naive scan finds, on a
    /// small alphabet where overlaps are common.
    #[test]
    fn ac_agrees_with_naive(
        patterns in proptest::collection::vec(small_alphabet_bytes(5), 1..6),
        hay in proptest::collection::vec(
            proptest::sample::select(vec![b'a', b'b', b'c', b'd']), 0..60),
    ) {
        let ac = AhoCorasick::new(&patterns);
        let mut got: Vec<(usize, usize)> =
            ac.find_all(&hay).into_iter().map(|m| (m.pattern, m.end)).collect();
        got.sort_unstable();
        prop_assert_eq!(got, naive_matches(&patterns, &hay));
    }

    /// The lockstep batch scan, the single scan and the naive oracle agree
    /// on every haystack: the earliest-ending match, and of the patterns
    /// ending there the longest, the lowest index among equals.
    #[test]
    fn ac_lockstep_agrees_with_single_and_naive(
        patterns in proptest::collection::vec(small_alphabet_bytes(5), 1..6),
        hays in proptest::collection::vec(
            proptest::collection::vec(
                proptest::sample::select(vec![b'a', b'b', b'c', b'd']), 0..=1600),
            0..=70),
    ) {
        let ac = AhoCorasick::new(&patterns);
        let refs: Vec<&[u8]> = hays.iter().map(Vec::as_slice).collect();
        let mut got = vec![None; refs.len()];
        ac.first_match_each(&refs, &mut got);
        for (hay, got) in hays.iter().zip(&got) {
            let naive = naive_matches(&patterns, hay);
            let want = naive
                .iter()
                .map(|&(pi, end)| (end, std::cmp::Reverse(patterns[pi].len()), pi))
                .min()
                .map(|(end, _, pi)| (pi, end));
            prop_assert_eq!(ac.first_match(hay).map(|m| (m.pattern, m.end)), want);
            prop_assert_eq!(got.map(|m| (m.pattern, m.end)), want);
        }
    }

    /// is_match equals "any pattern is a substring".
    #[test]
    fn ac_is_match_equals_contains(
        patterns in proptest::collection::vec(small_alphabet_bytes(4), 1..5),
        hay in proptest::collection::vec(any::<u8>(), 0..80),
    ) {
        let ac = AhoCorasick::new(&patterns);
        let expect = patterns.iter().any(|p| hay.windows(p.len()).any(|w| w == &p[..]));
        prop_assert_eq!(ac.is_match(&hay), expect);
    }

    /// A literal regex (escaped) matches exactly when the literal occurs.
    #[test]
    fn regex_literal_equals_contains(
        lit in "[a-z]{1,8}",
        hay in "[a-z]{0,40}",
    ) {
        let re = Regex::new(&regex_escape(&lit)).unwrap();
        prop_assert_eq!(re.is_match(hay.as_bytes()), hay.contains(&lit));
    }

    /// An alternation of two literals matches iff either occurs.
    #[test]
    fn regex_alternation(
        a in "[a-z]{1,5}",
        b in "[a-z]{1,5}",
        hay in "[a-z]{0,30}",
    ) {
        let re = Regex::new(&format!("({})|({})", regex_escape(&a), regex_escape(&b))).unwrap();
        prop_assert_eq!(re.is_match(hay.as_bytes()), hay.contains(&a) || hay.contains(&b));
    }

    /// Anchored literals behave like starts_with / ends_with.
    #[test]
    fn regex_anchors(lit in "[a-z]{1,6}", hay in "[a-z]{0,20}") {
        let start = Regex::new(&format!("^{}", regex_escape(&lit))).unwrap();
        prop_assert_eq!(start.is_match(hay.as_bytes()), hay.starts_with(&lit));
        let end = Regex::new(&format!("{}$", regex_escape(&lit))).unwrap();
        prop_assert_eq!(end.is_match(hay.as_bytes()), hay.ends_with(&lit));
    }

    /// The parser never panics on arbitrary input: it returns Ok or Err.
    #[test]
    fn regex_parser_total(pattern in "\\PC{0,40}") {
        let _ = Regex::new(&pattern);
    }

    /// `a{m,n}` counts repetitions correctly.
    #[test]
    fn regex_bounded_repeat_counts(m in 0u32..5, extra in 0u32..4, reps in 0usize..10) {
        let n = m + extra;
        let re = Regex::new(&format!("^a{{{m},{n}}}$")).unwrap();
        let hay = "a".repeat(reps);
        let expect = reps >= m as usize && reps <= n as usize;
        prop_assert_eq!(re.is_match(hay.as_bytes()), expect, "a^{} vs {{{},{}}}", reps, m, n);
    }
}

/// Escapes regex metacharacters in a literal.
fn regex_escape(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        if "\\^$.|?*+()[]{}".contains(c) {
            out.push('\\');
        }
        out.push(c);
    }
    out
}
