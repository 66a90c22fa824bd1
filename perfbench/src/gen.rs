//! Seeded input generators. The benchmark owns them, so a change to the
//! library cannot change the inputs it is measured on: the same seed
//! always gives the same inputs, and the program only ever sees the
//! generated sets and sequences.

/// SplitMix64: small, fast and fully specified, so inputs are stable
/// across toolchains and library changes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Bernoulli indicator matrix: `n` samples over `m` rows, each entry
/// present with probability `density`. Sorted row sets, drawn by
/// geometric gaps (O(nnz), not O(m·n)).
pub fn bernoulli_sets(m: u64, n: usize, density: f64, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = Rng::new(seed, 1);
    let log_q = (1.0 - density).ln();
    (0..n)
        .map(|_| {
            let mut rows = Vec::with_capacity((m as f64 * density * 1.05) as usize + 16);
            let mut r = 0u64;
            loop {
                let u = rng.unit().max(f64::MIN_POSITIVE);
                r += (u.ln() / log_q).floor() as u64;
                if r >= m {
                    break;
                }
                rows.push(r);
                r += 1;
            }
            rows
        })
        .collect()
}

const BASES: [u8; 4] = *b"ACGT";

/// Genome families: per family a random ancestor of `genome_len` bases
/// plus one descendant per substitution rate in `rates`, written
/// family-major into `out` (`families × (1 + rates.len())` sequences).
/// `out`'s buffers are reused, so regenerating into them allocates and
/// page-faults nothing.
pub fn genome_families_into(
    out: &mut Vec<Vec<u8>>,
    families: usize,
    genome_len: usize,
    rates: &[f64],
    seed: u64,
) {
    let per_family = 1 + rates.len();
    out.resize_with(families * per_family, Vec::new);
    for (f, family) in out.chunks_mut(per_family).enumerate() {
        let mut rng = Rng::new(seed, 100 + f as u64);
        let (ancestor, children) = family.split_first_mut().expect("a family has its ancestor");
        ancestor.clear();
        ancestor.extend((0..genome_len).map(|_| BASES[rng.below(4) as usize]));
        for (child, &rate) in children.iter_mut().zip(rates) {
            child.clear();
            child.extend(ancestor.iter().map(|&b| {
                if rng.unit() < rate {
                    let cur = BASES.iter().position(|&x| x == b).expect("ACGT base");
                    BASES[(cur + 1 + rng.below(3) as usize) % 4]
                } else {
                    b
                }
            }));
        }
    }
}

/// Shape of a clustered corpus: families of near-duplicate sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusShape {
    /// Number of families.
    pub families: usize,
    /// Members per family.
    pub members: usize,
    /// Values every member of a family shares.
    pub core: usize,
    /// Values private to each member.
    pub private: usize,
}

/// A clustered corpus, sample id `f·members + j` is member `j` of
/// family `f`. Values are drawn from a 2^40 universe, so distinct draws
/// collide with negligible probability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corpus {
    /// Per-family core values.
    pub cores: Vec<Vec<u64>>,
    /// Sorted member sets, family-major.
    pub sets: Vec<Vec<u64>>,
}

fn draw_values(rng: &mut Rng, count: usize, into: &mut Vec<u64>) {
    into.extend((0..count).map(|_| rng.below(1 << 40)));
}

/// A member of family `core`: the core plus `private` fresh values.
pub fn member(core: &[u64], private: usize, rng: &mut Rng) -> Vec<u64> {
    let mut set = core.to_vec();
    draw_values(rng, private, &mut set);
    set.sort_unstable();
    set.dedup();
    set
}

/// Draw a clustered corpus.
pub fn corpus(shape: CorpusShape, seed: u64) -> Corpus {
    let mut rng = Rng::new(seed, 2);
    let mut cores = Vec::with_capacity(shape.families);
    let mut sets = Vec::with_capacity(shape.families * shape.members);
    for _ in 0..shape.families {
        let mut core = Vec::with_capacity(shape.core);
        draw_values(&mut rng, shape.core, &mut core);
        for _ in 0..shape.members {
            sets.push(member(&core, shape.private, &mut rng));
        }
        cores.push(core);
    }
    Corpus { cores, sets }
}

/// One query in the workloads' shape, drawn from a uniformly chosen
/// sample of `sets`: 90% of its values, chosen uniformly, plus 45 fresh
/// noise values. Returns the source id and the sorted query set.
pub fn query<'a>(n: usize, sets: impl Fn(usize) -> &'a [u64], rng: &mut Rng) -> (usize, Vec<u64>) {
    let id = rng.below(n as u64) as usize;
    let mut values = sets(id).to_vec();
    let kept = ((values.len() as f64) * 0.9).round() as usize;
    for i in 0..kept {
        let j = i + rng.below((values.len() - i) as u64) as usize;
        values.swap(i, j);
    }
    values.truncate(kept);
    draw_values(rng, 45, &mut values);
    values.sort_unstable();
    values.dedup();
    (id, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: CorpusShape = CorpusShape { families: 8, members: 4, core: 90, private: 12 };

    #[test]
    fn bernoulli_sets_are_deterministic_and_seed_dependent() {
        let a = bernoulli_sets(20_000, 6, 0.01, 7);
        assert_eq!(a, bernoulli_sets(20_000, 6, 0.01, 7));
        let b = bernoulli_sets(20_000, 6, 0.01, 8);
        assert_ne!(a, b);
        assert_eq!(a.len(), b.len());
        for set in a.iter().chain(&b) {
            assert!(set.windows(2).all(|w| w[0] < w[1]) && set.iter().all(|&r| r < 20_000));
            assert!((100..300).contains(&set.len()), "density 1% of 20k rows: {}", set.len());
        }
    }

    #[test]
    fn genome_families_are_deterministic_and_seed_dependent() {
        let rates = [0.01, 0.02];
        let families = |seed| {
            let mut out = Vec::new();
            genome_families_into(&mut out, 3, 500, &rates, seed);
            out
        };
        let a = families(1);
        let mut reused = families(2);
        genome_families_into(&mut reused, 3, 500, &rates, 1);
        assert_eq!(a, reused, "regenerating into used buffers gives the same genomes");
        let b = families(2);
        assert_ne!(a, b);
        assert_eq!(a.len(), 9);
        assert!(a.iter().chain(&b).all(|g| g.len() == 500 && g.iter().all(|c| BASES.contains(c))));
        let diff = |x: &[u8], y: &[u8]| x.iter().zip(y).filter(|(p, q)| p != q).count();
        assert_eq!(diff(&a[0], &a[0]), 0);
        assert!(diff(&a[0], &a[2]) > 0 && diff(&a[0], &a[2]) < 40, "descendant near its ancestor");
        assert!(diff(&a[0], &a[3]) > 250, "another family is unrelated");
    }

    #[test]
    fn corpus_and_queries_are_deterministic_and_seed_dependent() {
        let a = corpus(SHAPE, 11);
        assert_eq!(a, corpus(SHAPE, 11));
        let b = corpus(SHAPE, 12);
        assert_ne!(a, b);
        assert_eq!(a.sets.len(), 32);
        assert_eq!(a.sets.len(), b.sets.len());
        assert!(a.sets.iter().all(|s| s.len() == 102 && s.windows(2).all(|w| w[0] < w[1])));
        let stream = |seed| {
            let mut rng = Rng::new(seed, 3);
            (0..16).map(|_| query(a.sets.len(), |i| &a.sets[i], &mut rng)).collect::<Vec<_>>()
        };
        let qa = stream(5);
        assert_eq!(qa, stream(5));
        let qb = stream(6);
        assert_ne!(qa, qb);
        for (id, q) in qa.iter().chain(&qb) {
            let kept = q.iter().filter(|v| a.sets[*id].binary_search(v).is_ok()).count();
            assert_eq!(kept, 92, "90% of 102 values kept");
            assert_eq!(q.len(), 92 + 45);
        }
    }
}
