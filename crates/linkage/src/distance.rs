//! String and numeric distance measures for feature comparison.
//!
//! The paper's family-link classifier thresholds "some distance between the
//! feature values … (e.g., Levenshtein distance between two strings 'name'
//! of person)". Two tiers live here:
//!
//! * **Kernels** (the public functions): allocation-free fast paths for
//!   ASCII inputs — Myers' bit-parallel Levenshtein (the whole DP row
//!   lives in one `u64`, ~15 bit ops per text byte), a fixed-width `u32`
//!   blocked row for longer strings, and a stack-bitmask Jaro — all
//!   operating on byte slices over contiguous memory. Pair scoring
//!   (`crate::score`, the Fig. 4a hot path) runs these in parallel
//!   blocks.
//! * **[`reference`]**: the original per-code-point scalar
//!   implementations. Non-ASCII inputs fall back to them (accented
//!   Italian names are still handled per code point), and the
//!   differential tests pin the kernels to them exactly — same `usize`
//!   distances, bit-identical `f64` similarities.

/// Scalar per-code-point reference implementations. The public kernels
/// must agree with these exactly on every input; differential tests
/// enforce it over random ASCII and multibyte strings.
pub mod reference {
    /// Levenshtein edit distance (insert/delete/substitute, unit costs).
    pub fn levenshtein(a: &str, b: &str) -> usize {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() {
            return b.len();
        }
        if b.is_empty() {
            return a.len();
        }
        let mut prev: Vec<usize> = (0..=b.len()).collect();
        let mut cur = vec![0usize; b.len() + 1];
        for (i, ca) in a.iter().enumerate() {
            cur[0] = i + 1;
            for (j, cb) in b.iter().enumerate() {
                let cost = usize::from(ca != cb);
                cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[b.len()]
    }

    /// Levenshtein scaled into `[0, 1]` by the longer string length
    /// (0 = identical, 1 = completely different). Empty vs empty is 0.
    pub fn normalized_levenshtein(a: &str, b: &str) -> f64 {
        let max = a.chars().count().max(b.chars().count());
        if max == 0 {
            return 0.0;
        }
        levenshtein(a, b) as f64 / max as f64
    }

    /// Jaro similarity in `[0, 1]`.
    pub fn jaro(a: &str, b: &str) -> f64 {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        let mut b_used = vec![false; b.len()];
        let mut matches = 0usize;
        let mut a_match = Vec::new();
        for (i, ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for j in lo..hi {
                if !b_used[j] && b[j] == *ca {
                    b_used[j] = true;
                    matches += 1;
                    a_match.push((i, j));
                    break;
                }
            }
        }
        if matches == 0 {
            return 0.0;
        }
        // Transpositions: matched characters out of order.
        let mut transpositions = 0usize;
        let b_order: Vec<usize> = {
            let mut order: Vec<(usize, usize)> = a_match.clone();
            order.sort_by_key(|&(i, _)| i);
            order.into_iter().map(|(_, j)| j).collect()
        };
        for w in b_order.windows(2) {
            if w[0] > w[1] {
                transpositions += 1;
            }
        }
        let m = matches as f64;
        let t = transpositions as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
    }

    /// Jaro-Winkler similarity: Jaro boosted by a shared prefix
    /// (length ≤ 4, scaling 0.1).
    pub fn jaro_winkler(a: &str, b: &str) -> f64 {
        let j = jaro(a, b);
        let prefix = a
            .chars()
            .zip(b.chars())
            .take(4)
            .take_while(|(x, y)| x == y)
            .count();
        j + prefix as f64 * 0.1 * (1.0 - j)
    }
}

/// Myers' bit-parallel Levenshtein (1999): the current DP column lives in
/// two `u64` delta vectors, so each text byte costs a constant ~15
/// word-wide bit operations — SIMD-within-a-register, no allocation, no
/// data-dependent branches in the loop body. Requires
/// `1 <= pattern.len() <= 64`.
fn myers64(pattern: &[u8], text: &[u8]) -> usize {
    debug_assert!(!pattern.is_empty() && pattern.len() <= 64);
    // Bitmask per alphabet symbol: bit i set ⇔ pattern[i] == symbol.
    let mut peq = [0u64; 256];
    for (i, &c) in pattern.iter().enumerate() {
        peq[c as usize] |= 1u64 << i;
    }
    let m = pattern.len();
    let hibit = 1u64 << (m - 1);
    let mut pv = !0u64;
    let mut mv = 0u64;
    let mut score = m;
    for &c in text {
        let eq = peq[c as usize];
        let xv = eq | mv;
        let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
        let ph = mv | !(xh | pv);
        let mh = pv & xh;
        if ph & hibit != 0 {
            score += 1;
        }
        if mh & hibit != 0 {
            score -= 1;
        }
        let ph = (ph << 1) | 1;
        let mh = mh << 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
    }
    score
}

/// Two-row byte DP with `u32` cells for ASCII strings longer than one
/// machine word: the same recurrence as the reference, but over
/// contiguous byte strips with fixed-width arithmetic. Used only when
/// both sides exceed the bit-parallel width.
fn byte_dp(a: &[u8], b: &[u8]) -> usize {
    debug_assert!(!a.is_empty() && !b.is_empty());
    let mut prev: Vec<u32> = (0..=b.len() as u32).collect();
    let mut cur = vec![0u32; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i as u32 + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = u32::from(ca != cb);
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()] as usize
}

/// Levenshtein edit distance (insert/delete/substitute, unit costs).
///
/// ASCII pairs run the bit-parallel kernel (shorter side ≤ 64 bytes) or
/// the blocked `u32` row; anything else takes the per-code-point
/// [`reference`] path. The result is identical in all cases.
pub fn levenshtein(a: &str, b: &str) -> usize {
    if a.is_ascii() && b.is_ascii() {
        let (p, t) = if a.len() <= b.len() {
            (a.as_bytes(), b.as_bytes())
        } else {
            (b.as_bytes(), a.as_bytes())
        };
        if p.is_empty() {
            return t.len();
        }
        if p.len() <= 64 {
            return myers64(p, t);
        }
        return byte_dp(p, t);
    }
    reference::levenshtein(a, b)
}

/// Levenshtein scaled into `[0, 1]` by the longer string length
/// (0 = identical, 1 = completely different). Empty vs empty is 0.
pub fn normalized_levenshtein(a: &str, b: &str) -> f64 {
    if a.is_ascii() && b.is_ascii() {
        // Byte length == code-point count for ASCII.
        let max = a.len().max(b.len());
        if max == 0 {
            return 0.0;
        }
        return levenshtein(a, b) as f64 / max as f64;
    }
    reference::normalized_levenshtein(a, b)
}

/// Damerau-Levenshtein distance (adds adjacent transpositions), restricted
/// variant (optimal string alignment).
pub fn damerau_levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let (n, m) = (a.len(), b.len());
    if n == 0 {
        return m;
    }
    if m == 0 {
        return n;
    }
    let mut d = vec![vec![0usize; m + 1]; n + 1];
    for (i, row) in d.iter_mut().enumerate() {
        row[0] = i;
    }
    for (j, slot) in d[0].iter_mut().enumerate() {
        *slot = j;
    }
    for i in 1..=n {
        for j in 1..=m {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            let mut best = (d[i - 1][j] + 1)
                .min(d[i][j - 1] + 1)
                .min(d[i - 1][j - 1] + cost);
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                best = best.min(d[i - 2][j - 2] + 1);
            }
            d[i][j] = best;
        }
    }
    d[n][m]
}

/// Longest side (in bytes) the stack-bitmask Jaro kernel handles; longer
/// ASCII inputs fall back to the reference (names never get near this).
const JARO_MAX: usize = 256;

/// Chunked-load padding past the live bytes of the Jaro window buffer:
/// one full SWAR word.
const JARO_PAD: usize = 8;

/// First index in `avail[lo..hi]` whose byte equals `needle` (ASCII, so
/// never the `0xFF` burn/padding marker), found SWAR-style: eight
/// window bytes per `u64` load, XOR against the broadcast needle, and
/// the zero-byte trick `(x - 0x01…) & !x & 0x80…` — borrows only ever
/// propagate *upward* from a genuine zero byte, so the lowest set high
/// bit is always a real match and `trailing_zeros` finds it exactly.
#[inline]
fn window_find(
    avail: &[u8; JARO_MAX + JARO_PAD],
    lo: usize,
    hi: usize,
    needle: u8,
) -> Option<usize> {
    const LO7: u64 = 0x0101_0101_0101_0101;
    const HI8: u64 = 0x8080_8080_8080_8080;
    let bcast = needle as u64 * LO7;
    let mut p = lo;
    while p < hi {
        let w = u64::from_le_bytes(avail[p..p + 8].try_into().expect("8-byte chunk"));
        let x = w ^ bcast;
        let mut z = x.wrapping_sub(LO7) & !x & HI8;
        let valid = hi - p;
        if valid < 8 {
            z &= (1u64 << (valid * 8)) - 1;
        }
        if z != 0 {
            return Some(p + (z.trailing_zeros() as usize >> 3));
        }
        p += 8;
    }
    None
}

/// Jaro similarity in `[0, 1]`.
///
/// ASCII pairs up to [`JARO_MAX`] bytes run allocation-free: the second
/// string lives in a stack buffer whose matched positions are burned to
/// `0xFF` (never an ASCII byte), so the match-window scan is a pure
/// first-equal-byte search that [`window_find`] runs eight bytes (one
/// SWAR word) at a time.
/// Transpositions are counted streaming (the reference's match list,
/// sorted by `i`, is exactly the discovery order, so adjacent descents
/// can be counted on the fly). Result is bit-identical to
/// [`reference::jaro`].
pub fn jaro(a: &str, b: &str) -> f64 {
    if !(a.is_ascii() && b.is_ascii()) || a.len() > JARO_MAX || b.len() > JARO_MAX {
        return reference::jaro(a, b);
    }
    let a = a.as_bytes();
    let b = b.as_bytes();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut avail = [0xFFu8; JARO_MAX + JARO_PAD];
    avail[..b.len()].copy_from_slice(b);
    let mut matches = 0usize;
    let mut transpositions = 0usize;
    let mut prev_j = usize::MAX;
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        if let Some(j) = window_find(&avail, lo, hi, ca) {
            avail[j] = 0xFF;
            matches += 1;
            if prev_j != usize::MAX && prev_j > j {
                transpositions += 1;
            }
            prev_j = j;
        }
    }
    if matches == 0 {
        return 0.0;
    }
    let m = matches as f64;
    let t = transpositions as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Jaro-Winkler similarity: Jaro boosted by a shared prefix (length ≤ 4,
/// scaling 0.1) — the standard choice for person names.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// American Soundex code (letter + 3 digits) for phonetic blocking of
/// surnames. Non-ASCII-alphabetic characters are skipped; empty input
/// yields `"0000"`.
pub fn soundex(s: &str) -> String {
    fn code(c: char) -> u8 {
        match c.to_ascii_lowercase() {
            'b' | 'f' | 'p' | 'v' => b'1',
            'c' | 'g' | 'j' | 'k' | 'q' | 's' | 'x' | 'z' => b'2',
            'd' | 't' => b'3',
            'l' => b'4',
            'm' | 'n' => b'5',
            'r' => b'6',
            _ => b'0', // vowels and h/w/y
        }
    }
    let letters: Vec<char> = s.chars().filter(|c| c.is_ascii_alphabetic()).collect();
    let Some(&first) = letters.first() else {
        return "0000".to_owned();
    };
    let mut out = String::new();
    out.push(first.to_ascii_uppercase());
    let mut prev = code(first);
    for &c in &letters[1..] {
        let k = code(c);
        let lower = c.to_ascii_lowercase();
        if k != b'0' && k != prev {
            out.push(k as char);
            if out.len() == 4 {
                break;
            }
        }
        // h and w do not reset the previous code; vowels do.
        if lower != 'h' && lower != 'w' {
            prev = k;
        }
    }
    while out.len() < 4 {
        out.push('0');
    }
    out
}

/// Absolute numeric distance scaled by `scale` (e.g. days for dates),
/// saturating at 1.0. `scale <= 0` yields 1.0 for unequal values.
pub fn numeric_distance(a: f64, b: f64, scale: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    if scale <= 0.0 {
        return 1.0;
    }
    ((a - b).abs() / scale).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("rossi", "rossi"), 0);
        assert_eq!(levenshtein("rossi", "rosso"), 1);
    }

    #[test]
    fn levenshtein_unicode() {
        assert_eq!(levenshtein("nicolò", "nicolo"), 1);
        assert_eq!(levenshtein("è", "e"), 1);
    }

    #[test]
    fn normalized_levenshtein_range() {
        assert_eq!(normalized_levenshtein("", ""), 0.0);
        assert_eq!(normalized_levenshtein("abc", "abc"), 0.0);
        assert_eq!(normalized_levenshtein("abc", "xyz"), 1.0);
        let d = normalized_levenshtein("rossi", "rosso");
        assert!((d - 0.2).abs() < 1e-12);
    }

    #[test]
    fn damerau_counts_transpositions() {
        assert_eq!(levenshtein("ab", "ba"), 2);
        assert_eq!(damerau_levenshtein("ab", "ba"), 1);
        assert_eq!(damerau_levenshtein("ca", "abc"), 3);
        assert_eq!(damerau_levenshtein("mario", "maroi"), 1);
    }

    #[test]
    fn jaro_known_values() {
        assert!((jaro("martha", "marhta") - 0.944444).abs() < 1e-4);
        assert!((jaro("dixon", "dicksonx") - 0.766667).abs() < 1e-4);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_boosts_prefix() {
        let jw = jaro_winkler("martha", "marhta");
        assert!((jw - 0.961111).abs() < 1e-4);
        assert!(jaro_winkler("rossi", "rossini") > jaro("rossi", "rossini"));
        assert_eq!(jaro_winkler("same", "same"), 1.0);
    }

    #[test]
    fn soundex_known_codes() {
        assert_eq!(soundex("Robert"), "R163");
        assert_eq!(soundex("Rupert"), "R163");
        assert_eq!(soundex("Ashcraft"), "A261");
        assert_eq!(soundex("Tymczak"), "T522");
        assert_eq!(soundex("Pfister"), "P236");
        assert_eq!(soundex(""), "0000");
        assert_eq!(soundex("Rossi"), soundex("Rosi"));
    }

    #[test]
    fn numeric_distance_scales() {
        assert_eq!(numeric_distance(10.0, 10.0, 5.0), 0.0);
        assert_eq!(numeric_distance(0.0, 10.0, 5.0), 1.0);
        assert!((numeric_distance(0.0, 2.5, 5.0) - 0.5).abs() < 1e-12);
        assert_eq!(numeric_distance(1.0, 2.0, 0.0), 1.0);
    }

    /// Tiny deterministic PRNG (SplitMix64) so the differential corpus
    /// is reproducible without external crates.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn range(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
        fn ascii_string(&mut self, len: usize, alphabet: &[u8]) -> String {
            (0..len)
                .map(|_| alphabet[self.range(alphabet.len())] as char)
                .collect()
        }
        fn multibyte_string(&mut self, len: usize) -> String {
            const CHARS: &[char] = &['a', 'b', 'è', 'ò', 'ù', 'ß', 'n', '€', '字'];
            (0..len).map(|_| CHARS[self.range(CHARS.len())]).collect()
        }
    }

    /// Exact-equality differential: kernels vs reference over random
    /// ASCII pairs, including empty and length-1 edges. Distances must be
    /// equal as integers, similarities bit-identical as floats.
    #[test]
    fn kernels_match_reference_on_random_ascii() {
        let mut rng = Rng(0xEDB7_2020);
        // Small alphabet forces matches, transpositions and repeats.
        let alphabet = b"abcde";
        for round in 0..4000 {
            // Sweep lengths 0..=12 with emphasis on the small edges.
            let la = if round % 7 == 0 {
                round % 2
            } else {
                rng.range(13)
            };
            let lb = if round % 11 == 0 {
                round % 2
            } else {
                rng.range(13)
            };
            let a = rng.ascii_string(la, alphabet);
            let b = rng.ascii_string(lb, alphabet);
            assert_eq!(
                levenshtein(&a, &b),
                reference::levenshtein(&a, &b),
                "levenshtein({a:?}, {b:?})"
            );
            assert_eq!(
                normalized_levenshtein(&a, &b).to_bits(),
                reference::normalized_levenshtein(&a, &b).to_bits(),
                "normalized_levenshtein({a:?}, {b:?})"
            );
            assert_eq!(
                jaro(&a, &b).to_bits(),
                reference::jaro(&a, &b).to_bits(),
                "jaro({a:?}, {b:?})"
            );
            assert_eq!(
                jaro_winkler(&a, &b).to_bits(),
                reference::jaro_winkler(&a, &b).to_bits(),
                "jaro_winkler({a:?}, {b:?})"
            );
        }
    }

    /// The blocked `u32` row (both sides > 64 bytes) and the asymmetric
    /// Myers case (one side > 64) agree with the reference too.
    #[test]
    fn kernels_match_reference_on_long_ascii() {
        let mut rng = Rng(0x51AB_0001);
        let alphabet = b"abcdefgh";
        for _ in 0..40 {
            let (la, lb, lc) = (65 + rng.range(40), 65 + rng.range(40), rng.range(30));
            let a = rng.ascii_string(la, alphabet);
            let b = rng.ascii_string(lb, alphabet);
            assert_eq!(levenshtein(&a, &b), reference::levenshtein(&a, &b));
            let c = rng.ascii_string(lc, alphabet);
            assert_eq!(levenshtein(&a, &c), reference::levenshtein(&a, &c));
            assert_eq!(levenshtein(&c, &a), reference::levenshtein(&c, &a));
        }
    }

    /// Multibyte inputs route through the reference path — the public
    /// functions must still agree with it exactly (and with the ASCII
    /// kernels on mixed pairs, where one side is ASCII).
    #[test]
    fn kernels_match_reference_on_multibyte() {
        let mut rng = Rng(0xACCE_17ED);
        for _ in 0..600 {
            let (la, lb) = (rng.range(9), rng.range(9));
            let a = rng.multibyte_string(la);
            let b = if rng.range(2) == 0 {
                rng.multibyte_string(lb)
            } else {
                rng.ascii_string(lb, b"abc")
            };
            assert_eq!(
                levenshtein(&a, &b),
                reference::levenshtein(&a, &b),
                "levenshtein({a:?}, {b:?})"
            );
            assert_eq!(
                normalized_levenshtein(&a, &b).to_bits(),
                reference::normalized_levenshtein(&a, &b).to_bits(),
                "normalized_levenshtein({a:?}, {b:?})"
            );
            assert_eq!(
                jaro(&a, &b).to_bits(),
                reference::jaro(&a, &b).to_bits(),
                "jaro({a:?}, {b:?})"
            );
            assert_eq!(
                jaro_winkler(&a, &b).to_bits(),
                reference::jaro_winkler(&a, &b).to_bits(),
                "jaro_winkler({a:?}, {b:?})"
            );
        }
    }

    /// Degenerate shapes the window/bit tricks must not break: empty,
    /// length-1, equal strings, maximal mismatch, and the 64/65-byte
    /// kernel boundary.
    #[test]
    fn kernel_edge_cases() {
        let edge = [
            "",
            "a",
            "b",
            "ab",
            "ba",
            "aaaa",
            "aaab",
            &"x".repeat(63),
            &"x".repeat(64),
            &"x".repeat(65),
            &"xy".repeat(40),
        ];
        for a in edge {
            for b in edge {
                assert_eq!(levenshtein(a, b), reference::levenshtein(a, b));
                assert_eq!(
                    jaro(a, b).to_bits(),
                    reference::jaro(a, b).to_bits(),
                    "jaro({a:?}, {b:?})"
                );
                assert_eq!(
                    jaro_winkler(a, b).to_bits(),
                    reference::jaro_winkler(a, b).to_bits()
                );
                assert_eq!(
                    normalized_levenshtein(a, b).to_bits(),
                    reference::normalized_levenshtein(a, b).to_bits()
                );
            }
        }
    }
}
