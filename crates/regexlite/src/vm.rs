//! Pike-style NFA virtual machine.
//!
//! Executes the compiled program with a breadth-first thread set per input
//! position, which guarantees linear time in `|program| * |input|` per
//! starting offset and therefore immunity to catastrophic backtracking.
//!
//! A program whose entry instruction is `AssertStart` can only match at
//! offset 0, so it is run there alone. The thread lists are allocated
//! once per search: a generation stamp per instruction says which list
//! the instruction is on, so starting a new list is one increment rather
//! than a pass over the program.

use crate::compile::{Inst, Program};

/// Finds the leftmost-longest match of `program` in `input`.
///
/// Returns byte offsets `(start, end)` into `input`.
pub(crate) fn search(program: &Program, input: &str) -> Option<(usize, usize)> {
    let mut threads = Threads::new(program.insts.len());
    if program.insts.first() == Some(&Inst::AssertStart) {
        return threads.longest_at(program, input, 0).map(|end| (0, end));
    }
    let starts = input
        .char_indices()
        .map(|(i, _)| i)
        .chain(std::iter::once(input.len()));
    for start in starts {
        if let Some(end) = threads.longest_at(program, input, start) {
            return Some((start, end));
        }
    }
    None
}

/// The working memory of one search: the thread lists for the current
/// and the next input position, and one generation stamp per
/// instruction.
struct Threads {
    current: Vec<usize>,
    next: Vec<usize>,
    /// `stamps[pc] == generation` iff `pc` is on the list being built.
    stamps: Vec<u64>,
    generation: u64,
}

impl Threads {
    fn new(program_len: usize) -> Self {
        Threads {
            current: Vec::with_capacity(program_len),
            next: Vec::with_capacity(program_len),
            stamps: vec![0; program_len],
            generation: 0,
        }
    }

    /// Runs the program anchored at byte offset `start`, returning the
    /// byte offset one past the *longest* match, or `None`.
    fn longest_at(&mut self, program: &Program, input: &str, start: usize) -> Option<usize> {
        let Threads {
            current,
            next,
            stamps,
            generation,
        } = self;
        let mut best_end: Option<usize> = None;
        current.clear();
        *generation += 1;
        add_thread(
            program,
            0,
            start,
            input.len(),
            current,
            stamps,
            *generation,
            &mut best_end,
        );
        for (offset, c) in input[start..].char_indices() {
            if current.is_empty() {
                break;
            }
            let after = start + offset + c.len_utf8();
            next.clear();
            *generation += 1;
            for &pc in current.iter() {
                if let Inst::Char(pred) = &program.insts[pc] {
                    if pred.matches(c) {
                        add_thread(
                            program,
                            pc + 1,
                            after,
                            input.len(),
                            next,
                            stamps,
                            *generation,
                            &mut best_end,
                        );
                    }
                }
            }
            std::mem::swap(current, next);
        }
        best_end
    }
}

/// Adds `pc` (following epsilon transitions) to the thread list for the
/// byte position `pos`, recording any `Match` reached into `best_end`.
#[allow(clippy::too_many_arguments)]
fn add_thread(
    program: &Program,
    pc: usize,
    pos: usize,
    input_len: usize,
    list: &mut Vec<usize>,
    stamps: &mut [u64],
    generation: u64,
    best_end: &mut Option<usize>,
) {
    if stamps[pc] == generation {
        return;
    }
    stamps[pc] = generation;
    let mut follow = |target: usize, best_end: &mut Option<usize>| {
        add_thread(
            program, target, pos, input_len, list, stamps, generation, best_end,
        )
    };
    match &program.insts[pc] {
        Inst::Jmp(t) => follow(*t, best_end),
        Inst::Split(a, b) => {
            follow(*a, best_end);
            follow(*b, best_end);
        }
        // A position is only ever at or after its thread's start, so
        // `pos == 0` means the run started at the beginning of input.
        Inst::AssertStart if pos == 0 => follow(pc + 1, best_end),
        Inst::AssertEnd if pos == input_len => follow(pc + 1, best_end),
        Inst::AssertStart | Inst::AssertEnd => {}
        Inst::Match => {
            // Longest-match: keep the furthest end seen for this start.
            if best_end.is_none_or(|e| pos > e) {
                *best_end = Some(pos);
            }
        }
        Inst::Char(_) => list.push(pc),
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use crate::compile::{compile, Inst, Program};
    use crate::parse::parse;

    fn program(pattern: &str) -> Program {
        compile(&parse(pattern).unwrap())
    }

    fn search(pattern: &str, input: &str) -> Option<(usize, usize)> {
        super::search(&program(pattern), input)
    }

    #[test]
    fn longest_match_at_start() {
        assert_eq!(search("a+", "aaab"), Some((0, 3)));
    }

    #[test]
    fn leftmost_preferred_over_longer_later() {
        // A later, longer match must not beat an earlier one.
        assert_eq!(search("ab?", "a abb"), Some((0, 1)));
    }

    #[test]
    fn start_anchor_only_matches_offset_zero() {
        assert_eq!(search("^b", "ab"), None);
        assert_eq!(search("^a", "ab"), Some((0, 1)));
    }

    #[test]
    fn end_anchor_requires_input_end() {
        assert_eq!(search("b$", "ba"), None);
        assert_eq!(search("a$", "ba"), Some((1, 2)));
    }

    #[test]
    fn empty_match_positions() {
        assert_eq!(search("x*", "yyy"), Some((0, 0)));
    }

    #[test]
    fn anchored_entry_is_tried_at_offset_zero_only() {
        assert_eq!(program("^abc").insts[0], Inst::AssertStart);
        assert_eq!(search("^abc", "xabc"), None);
        assert_eq!(search("^abc", "abcx"), Some((0, 3)));
    }

    #[test]
    fn alternation_beside_an_anchor_still_restarts() {
        // Alternation compiles to a leading Split, so the `b` branch
        // is tried at every offset.
        assert!(matches!(program("^a|b").insts[0], Inst::Split(..)));
        assert_eq!(search("^a|b", "xb"), Some((1, 2)));
        assert_eq!(search("^a|b", "ab"), Some((0, 1)));
    }

    #[test]
    fn bare_start_anchor_matches_empty_input() {
        assert_eq!(search("^", ""), Some((0, 0)));
        assert_eq!(search("^", "abc"), Some((0, 0)));
        assert_eq!(search("^$", ""), Some((0, 0)));
        assert_eq!(search("^$", "a"), None);
    }

    /// The reference search: no anchored shortcut and no generation
    /// stamps; every char offset restarts the program with fresh thread
    /// lists, reset per character.
    fn restarting_search(program: &Program, input: &str) -> Option<(usize, usize)> {
        let offsets: Vec<usize> = input
            .char_indices()
            .map(|(i, _)| i)
            .chain(std::iter::once(input.len()))
            .collect();
        let chars: Vec<char> = input.chars().collect();
        for (start_idx, &start_byte) in offsets.iter().enumerate() {
            if let Some(end_idx) = restarting_match_at(program, &chars, start_idx) {
                return Some((start_byte, offsets[end_idx]));
            }
        }
        None
    }

    fn restarting_match_at(program: &Program, chars: &[char], start: usize) -> Option<usize> {
        let n = program.insts.len();
        let mut current: Vec<usize> = Vec::with_capacity(n);
        let mut next: Vec<usize> = Vec::with_capacity(n);
        let mut on_current = vec![false; n];
        let mut on_next = vec![false; n];
        let mut best_end: Option<usize> = None;
        restarting_add_thread(
            program,
            0,
            start,
            chars.len(),
            &mut current,
            &mut on_current,
            &mut best_end,
            start,
        );
        let mut pos = start;
        while pos < chars.len() && !current.is_empty() {
            let c = chars[pos];
            next.clear();
            on_next.iter_mut().for_each(|b| *b = false);
            for &pc in &current {
                if let Inst::Char(pred) = &program.insts[pc] {
                    if pred.matches(c) {
                        restarting_add_thread(
                            program,
                            pc + 1,
                            pos + 1,
                            chars.len(),
                            &mut next,
                            &mut on_next,
                            &mut best_end,
                            start,
                        );
                    }
                }
            }
            std::mem::swap(&mut current, &mut next);
            std::mem::swap(&mut on_current, &mut on_next);
            pos += 1;
        }
        best_end
    }

    #[allow(clippy::too_many_arguments)]
    fn restarting_add_thread(
        program: &Program,
        pc: usize,
        pos: usize,
        input_len: usize,
        list: &mut Vec<usize>,
        on_list: &mut [bool],
        best_end: &mut Option<usize>,
        start: usize,
    ) {
        if on_list[pc] {
            return;
        }
        on_list[pc] = true;
        let mut follow = |target: usize, best_end: &mut Option<usize>| {
            restarting_add_thread(
                program, target, pos, input_len, list, on_list, best_end, start,
            )
        };
        match &program.insts[pc] {
            Inst::Jmp(t) => follow(*t, best_end),
            Inst::Split(a, b) => {
                follow(*a, best_end);
                follow(*b, best_end);
            }
            Inst::AssertStart if pos == 0 && start == 0 => follow(pc + 1, best_end),
            Inst::AssertEnd if pos == input_len => follow(pc + 1, best_end),
            Inst::AssertStart | Inst::AssertEnd => {}
            Inst::Match => {
                if best_end.is_none_or(|e| pos > e) {
                    *best_end = Some(pos);
                }
            }
            Inst::Char(_) => list.push(pc),
        }
    }

    /// The footnote 2 builtin filter and the Table I patterns as
    /// regular expressions: the references `libspector`'s attribution
    /// tests hold the literal prefix match to, and `spector_vtcat`'s
    /// tokenizer tests hold the token table to.
    const PATTERNS: &[&str] = &[
        r"^(android\.|dalvik\.|java\.|javax\.|junit\.|org\.apache\.http\.|org\.json\.|org\.w3c\.dom\.|org\.xml\.sax\.|org\.xmlpull\.v1\.|com\.android\.internal\.)",
        "adult|sex|obscene|personals|dating|porn|violence|lingerie|marijuana|alcohol|gambling",
        "ads|advert|marketing|exposure",
        "analytics",
        "busines|financ|shop|bank|trading|estate|auctions|professional",
        "proxy|dns|content|delivery",
        "(^|[^a-z])im([^a-z]|$)|chat|mail|(^|[^a-z])text([^a-z]|$)|radio|(^|[^a-z])tv([^a-z]|$)|forum|telephony|portal|(^|[^a-z])file([^a-z]|$)",
        "education|reference",
        "entertainment|sport|videos|streaming|pay-to-surf",
        "game",
        "health|medication|nutrition",
        "information|technology|computersandsoftware|dynamic content",
        "hosting|url-shortening|search|download|collaboration|parked|online|infrastructure|storage|security|surveillance|government",
        "blog|hobbies|lifestyle|travel|cultur|religi|politic|restaurant|vehicles|philanthropic|event|advice",
        "malicious|infected|(^|[^a-z])bot([^a-z]|$)|not recommended|illegal|hack|compromised|suspicious content",
        "news|tabloids|journals",
        "social",
    ];

    /// Inputs assembled from pieces the patterns care about, separators
    /// and multi-byte characters, so matches, near misses and anchors at
    /// every offset all occur.
    fn input() -> impl Strategy<Value = String> {
        let piece = prop_oneof![
            prop::sample::select(vec![
                "android.",
                "java.",
                "javax",
                "org.json.",
                "com.android.internal.",
                "com.",
                "unity3d",
                "ads",
                "advert",
                "im",
                "tv",
                "bot",
                "game",
                "online",
                "mail",
                "dynamic content",
                "pay-to-surf",
                "a",
                "x",
                ".",
                " ",
                "-",
                "é",
                "中",
                "☃",
                "ß",
                "日本",
            ])
            .prop_map(str::to_owned),
            ".{0,3}",
        ];
        proptest::collection::vec(piece, 0..10).prop_map(|pieces| pieces.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn search_equals_the_restarting_search(
            pattern in prop::sample::select(PATTERNS.to_vec()),
            input in input(),
        ) {
            let program = program(pattern);
            prop_assert_eq!(
                super::search(&program, &input),
                restarting_search(&program, &input),
                "pattern={} input={:?}", pattern, input
            );
        }
    }
}
