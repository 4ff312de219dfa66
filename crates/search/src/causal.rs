//! Unicorn-style causal-inference search (§2.3, Fig. 7).
//!
//! Unicorn [Iqbal et al., EuroSys'22] reasons about configuration
//! performance through a causal graph recomputed from the observation
//! history. This module implements that algorithm class: a PC-style
//! skeleton discovery over the configuration features plus the outcome
//! variable, using partial-correlation conditional-independence tests
//! (Fisher z), followed by interventions on the outcome's neighbors.
//!
//! The cost profile the paper holds against this class (Fig. 7) is
//! reproduced verbatim by [`CausalSearch::with_scratch_stats`], which
//! recomputes every column statistic over all `n` observations on each
//! rebuild and re-discovers the skeleton by full conditioning-set
//! enumeration — that variant drives the Fig. 7 regeneration. The
//! default maintains the intervention ranking *incrementally* along two
//! axes:
//!
//! * **statistics** — ingesting an observation folds the new row into
//!   running raw-moment sums (O(vars²)), so a rebuild assembles the
//!   correlation matrix from the sums instead of rescanning the history.
//!   A from-scratch rescan folds the rows in exactly the same order, so
//!   the two statistics modes are bit-identical;
//! * **skeleton** — the adjacency and the separating set that removed
//!   each edge persist across waves. On a rebuild, a previously separated
//!   edge re-tests its stored sepset *first*: while the new wave's
//!   sufficient statistics still support the separation (the common case
//!   once an edge has stabilized), the edge is re-confirmed with one
//!   conditional-independence test instead of a full conditioning-set
//!   enumeration. A failed re-test falls back to the full enumeration, so
//!   the edge decision — "does *some* candidate set separate the pair?" —
//!   is evaluated over exactly the sets the from-scratch sweep
//!   ([`CausalSearch::with_scratch_skeleton`]) would consider, and the
//!   resulting skeleton is **bit-identical** (proven by the
//!   `refit_equivalence` proptests at the workspace root and the doctest
//!   below).
//!
//! Both skeleton modes walk one in-place conditioning-set enumeration;
//! they differ only in the stored-sepset hint the default tries first and
//! in the scratch profile's test cache.
//!
//! What still grows: as data accumulates, more edges become statistically
//! significant, so node degrees grow and the number of conditional tests
//! grows superlinearly (sepset reuse blunts this). In the scratch
//! profile, test results are additionally cached across iterations keyed
//! by sample count (recomputation is the algorithm, caching is the
//! memory), so memory grows with every iteration — the Fig. 7 blow-up.
//! The default skips that cache — recomputing a Fisher z is cheaper than
//! hashing its key — and persists only the sepset map, bounded by the
//! number of edges ever separated.
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use wf_configspace::{ConfigSpace, Encoder, ParamKind, ParamSpec, Stage};
//! use wf_jobfile::Direction;
//! use wf_search::api::{Observation, SamplePolicy, SearchAlgorithm, SearchContext};
//! use wf_search::CausalSearch;
//!
//! let mut space = ConfigSpace::new();
//! for i in 0..6 {
//!     space.add(ParamSpec::new(
//!         format!("p{i}"),
//!         ParamKind::int(0, 100),
//!         Stage::Runtime,
//!     ));
//! }
//! let encoder = Encoder::new(&space);
//! let policy = SamplePolicy::Uniform;
//! let mut incremental = CausalSearch::new(); // persisted skeleton (default)
//! let mut scratch = CausalSearch::new().with_scratch_stats(true); // published profile
//! let mut history = Vec::new();
//! let mut rng = StdRng::seed_from_u64(5);
//! for i in 0..24 {
//!     let ctx = SearchContext {
//!         space: &space,
//!         encoder: &encoder,
//!         direction: Direction::Maximize,
//!         policy: &policy,
//!         history: &history,
//!         iteration: i,
//!     };
//!     let c = policy.sample(&space, &mut rng);
//!     let y = c.by_name(&space, "p0").unwrap().as_f64();
//!     let obs = Observation::ok(c, y, 1.0);
//!     incremental.observe(&ctx, &obs);
//!     scratch.observe(&ctx, &obs);
//!     history.push(obs);
//! }
//! let ctx = SearchContext {
//!     space: &space,
//!     encoder: &encoder,
//!     direction: Direction::Maximize,
//!     policy: &policy,
//!     history: &history,
//!     iteration: 24,
//! };
//! let (mut r1, mut r2) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
//! assert_eq!(
//!     incremental.propose_batch(3, &ctx, &mut r1),
//!     scratch.propose_batch(3, &ctx, &mut r2),
//! );
//! ```

use crate::api::{fill_distinct, AlgoStats, Observation, SearchAlgorithm, SearchContext};
use crate::memtrack::{bytes_of_f64s, MemTracker};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use wf_configspace::Configuration;

/// PC-style causal search over configuration features.
#[derive(Debug)]
pub struct CausalSearch {
    /// Significance threshold for Fisher-z tests.
    z_threshold: f64,
    /// Random proposals before the first graph is built.
    n_init: usize,
    /// Candidate pool size per proposal.
    pool: usize,
    /// Recompute the column statistics from the full history on every
    /// rebuild (the published Unicorn cost profile; used by Fig. 7).
    scratch_stats: bool,
    /// Re-discover the skeleton by full conditioning-set enumeration on
    /// every rebuild, with the sample-count-keyed test cache (the
    /// published profile; implied by `scratch_stats`).
    scratch_skeleton: bool,

    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    /// Running per-variable sums Σv (features then outcome), folded in at
    /// ingest so rebuilds need no history rescan.
    sums: Vec<f64>,
    /// Running raw cross-moment sums Σ vᵢ·vⱼ, lower triangle of a
    /// `vars × vars` matrix in packed row order.
    cross: Vec<f64>,
    /// Adjacency of the last skeleton; index `f == n_features` is the
    /// outcome variable.
    adjacency: Vec<Vec<usize>>,
    /// Correlation of each feature with the outcome (last recompute).
    outcome_corr: Vec<f64>,
    /// Accumulated test cache: (i, j, conditioning-set hash, n) → p-ish
    /// statistic. Never evicted. Scratch-skeleton mode only.
    test_cache: HashMap<(u32, u32, u64, u32), f64>,
    /// Persisted incremental-skeleton state: for each edge `(i, j)`
    /// (`i > j`) currently separated, the conditioning set that last
    /// separated it. Re-tested first on the next rebuild.
    sepsets: HashMap<(u32, u32), Vec<usize>>,
    /// Running byte estimate of `sepsets` (wf-lint: hash maps are not
    /// iterated for accounting).
    sepset_bytes: usize,
    /// Fisher-z statistics actually computed (cache hits excluded).
    tests_run: usize,
    mem: MemTracker,
}

impl Default for CausalSearch {
    fn default() -> Self {
        Self::new()
    }
}

impl CausalSearch {
    /// Creates a causal search with Unicorn-like settings.
    pub fn new() -> Self {
        CausalSearch {
            z_threshold: 1.96,
            n_init: 10,
            pool: 100,
            scratch_stats: false,
            scratch_skeleton: false,
            xs: Vec::new(),
            ys: Vec::new(),
            sums: Vec::new(),
            cross: Vec::new(),
            adjacency: Vec::new(),
            outcome_corr: Vec::new(),
            test_cache: HashMap::new(),
            sepsets: HashMap::new(),
            sepset_bytes: 0,
            tests_run: 0,
            mem: MemTracker::new(),
        }
    }

    /// Number of conditional-independence test statistics actually
    /// computed so far (scratch-mode cache hits are not re-counted).
    pub fn tests_performed(&self) -> usize {
        self.tests_run
    }

    /// Recomputes everything from scratch on every rebuild — the
    /// published Unicorn cost profile, O(n·vars²) statistics plus a full
    /// conditioning-set enumeration per rebuild (Fig. 7 regenerates with
    /// this variant; it implies [`CausalSearch::with_scratch_skeleton`]).
    /// The default (false) maintains the same sums incrementally at
    /// ingest and the skeleton incrementally across waves; both axes are
    /// bit-identical to the scratch recomputation.
    pub fn with_scratch_stats(mut self, scratch: bool) -> Self {
        self.scratch_stats = scratch;
        self.scratch_skeleton = scratch;
        self
    }

    /// Re-discovers the skeleton by full conditioning-set enumeration on
    /// every rebuild, with the sample-count-keyed test cache — the
    /// published sweep, without also rescanning the column statistics.
    /// Bit-identical to the default sepset-reusing sweep (see the module
    /// docs); the equivalence proptests drive this toggle to isolate the
    /// skeleton axis.
    pub fn with_scratch_skeleton(mut self, scratch: bool) -> Self {
        self.scratch_skeleton = scratch;
        self
    }

    /// Bookkeeping for the persisted sepset map (hash maps are never
    /// iterated for accounting, so bytes are tracked at mutation).
    fn sepset_insert(&mut self, key: (u32, u32), s: Vec<usize>) {
        let added = SEPSET_ENTRY_BYTES + s.len() * 8;
        if let Some(old) = self.sepsets.insert(key, s) {
            self.sepset_bytes -= SEPSET_ENTRY_BYTES + old.len() * 8;
        }
        self.sepset_bytes += added;
    }

    fn sepset_remove(&mut self, key: &(u32, u32)) -> Option<Vec<usize>> {
        let old = self.sepsets.remove(key)?;
        self.sepset_bytes -= SEPSET_ENTRY_BYTES + old.len() * 8;
        Some(old)
    }

    /// Takes the edge's stored sepset out of the map if it is one of this
    /// order's candidate sets, to be re-tested first. Any other stored set
    /// stays put: re-testing it could make the edge decision diverge from
    /// the scratch sweep. The scratch sweep stores no sepsets, so it never
    /// has a hint.
    fn take_hint(
        &mut self,
        key: (u32, u32),
        order: usize,
        neighbors: &[usize],
    ) -> Option<Vec<usize>> {
        let h = self.sepsets.get(&key)?;
        if h.len() == order && h.iter().all(|k| neighbors.binary_search(k).is_ok()) {
            self.sepset_remove(&key)
        } else {
            None
        }
    }

    /// The first set of `order` elements of `neighbors` (sorted and
    /// deduped) that separates `i` and `j`, walking `[k]`, or `[k, l]`
    /// with `k < l`, in lexicographic order. Only the separating set is
    /// allocated.
    #[allow(clippy::too_many_arguments)]
    fn first_separating_set(
        &mut self,
        corr: &[f64],
        vars: usize,
        i: usize,
        j: usize,
        neighbors: &[usize],
        order: usize,
        n: usize,
    ) -> Option<Vec<usize>> {
        debug_assert!((1..=MAX_ORDER).contains(&order));
        if order == 1 {
            for &k in neighbors {
                if !self.fisher_dependent(corr, vars, i, j, &[k], n) {
                    return Some(vec![k]);
                }
            }
        } else {
            for (a, &k) in neighbors.iter().enumerate() {
                for &l in &neighbors[a + 1..] {
                    if !self.fisher_dependent(corr, vars, i, j, &[k, l], n) {
                        return Some(vec![k, l]);
                    }
                }
            }
        }
        None
    }

    /// Folds one (features, outcome) row into the running raw-moment
    /// sums, sizing them on first use. Both statistics modes funnel
    /// through this function, which is what makes them bit-identical.
    fn fold_row(sums: &mut Vec<f64>, cross: &mut Vec<f64>, x: &[f64], y: f64) {
        let f = x.len();
        let vars = f + 1;
        if sums.is_empty() {
            sums.resize(vars, 0.0);
            cross.resize(vars * (vars + 1) / 2, 0.0);
        }
        debug_assert_eq!(sums.len(), vars, "feature width changed mid-run");
        let col = |v: usize| if v < f { x[v] } else { y };
        for i in 0..vars {
            let vi = col(i);
            sums[i] += vi;
            let row = i * (i + 1) / 2;
            for (j, slot) in cross[row..row + i + 1].iter_mut().enumerate() {
                *slot += vi * col(j);
            }
        }
    }

    /// Rebuilds the intervention ranking: correlation matrix from the
    /// (incrementally maintained or rescanned) raw-moment sums, then the
    /// PC-style skeleton.
    fn rebuild(&mut self) {
        let n = self.xs.len();
        if n < 4 {
            return;
        }
        let f = self.xs[0].len();
        let vars = f + 1; // features + outcome

        if self.scratch_stats {
            // The published algorithm: rescan all n observations.
            let mut sums = Vec::new();
            let mut cross = Vec::new();
            for (x, &y) in self.xs.iter().zip(self.ys.iter()) {
                Self::fold_row(&mut sums, &mut cross, x, y);
            }
            self.sums = sums;
            self.cross = cross;
        }

        // Means, stds, and the correlation matrix from the raw moments:
        // cov(i, j) = Σvᵢvⱼ/n − mean(i)·mean(j).
        let nf = n as f64;
        let at = |i: usize, j: usize| i * (i + 1) / 2 + j; // i >= j
        let mean: Vec<f64> = (0..vars).map(|v| self.sums[v] / nf).collect();
        let std: Vec<f64> = (0..vars)
            .map(|v| {
                (self.cross[at(v, v)] / nf - mean[v] * mean[v])
                    .max(0.0)
                    .sqrt()
            })
            .collect();
        let mut corr = vec![0.0; vars * vars];
        for i in 0..vars {
            for j in 0..=i {
                let c = if std[i] < 1e-12 || std[j] < 1e-12 {
                    0.0
                } else {
                    ((self.cross[at(i, j)] / nf - mean[i] * mean[j]) / (std[i] * std[j]))
                        .clamp(-1.0, 1.0)
                };
                corr[i * vars + j] = c;
                corr[j * vars + i] = c;
            }
        }

        // Level-0 skeleton: edges where marginal dependence is significant.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); vars];
        for i in 0..vars {
            for j in 0..i {
                if self.fisher_dependent(&corr, vars, i, j, &[], n) {
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }

        // Levels 1..=MAX_ORDER: try to separate each edge by conditioning
        // on common neighbors (PC algorithm). Degrees grow with data, so
        // this is the superlinear part. Both skeleton modes run the same
        // enumeration; the incremental sweep only re-tests a previously
        // separated edge's stored sepset first (one test while the
        // statistics keep supporting the separation). The edge decision is
        // the same "does some candidate set separate the pair?" either way,
        // so the skeleton matches the scratch sweep bit for bit.
        let mut neighbors: Vec<usize> = Vec::new();
        for order in 1..=MAX_ORDER {
            let edges: Vec<(usize, usize)> = (0..vars)
                .flat_map(|i| adj[i].iter().filter(move |&&j| j < i).map(move |&j| (i, j)))
                .collect();
            for (i, j) in edges {
                let key = (i as u32, j as u32);
                neighbors.clear();
                neighbors.extend(
                    adj[i]
                        .iter()
                        .chain(adj[j].iter())
                        .filter(|&&k| k != i && k != j),
                );
                neighbors.sort_unstable();
                neighbors.dedup();
                // A stored sepset that fails its re-test stays out of the
                // map: the evidence no longer supports that separation.
                let separated = self
                    .take_hint(key, order, &neighbors)
                    .filter(|h| !self.fisher_dependent(&corr, vars, i, j, h, n))
                    .or_else(|| self.first_separating_set(&corr, vars, i, j, &neighbors, order, n));
                if let Some(s) = separated {
                    adj[i].retain(|&k| k != j);
                    adj[j].retain(|&k| k != i);
                    if !self.scratch_skeleton {
                        self.sepset_insert(key, s);
                    }
                } else if order == MAX_ORDER {
                    // A complete enumeration at the final order disproves
                    // a stored separation. (A sweep at a lower order must
                    // not evict a higher-order sepset it never re-tested.)
                    self.sepset_remove(&key);
                }
            }
        }

        self.outcome_corr = (0..f).map(|i| corr[f * vars + i]).collect();
        self.adjacency = adj;

        // Account memory: raw data + correlation matrix + running moment
        // sums + adjacency + the persisted sepsets + (scratch profile
        // only) the ever-growing test cache (3 u32 + u64 key ≈ 24 B +
        // 8 B value).
        let data = self
            .xs
            .iter()
            .map(|x| bytes_of_f64s(x.len()))
            .sum::<usize>()
            + bytes_of_f64s(self.ys.len());
        let matrices = bytes_of_f64s(vars * vars)
            + bytes_of_f64s(vars * 2)
            + bytes_of_f64s(self.sums.len() + self.cross.len());
        let graph: usize = self.adjacency.iter().map(|a| a.len() * 8).sum();
        let cache = self.test_cache.len() * 48;
        self.mem
            .set_live(data + matrices + graph + cache + self.sepset_bytes);
    }

    /// Stores one observation without rebuilding the skeleton, folding it
    /// into the running moment sums. Crashes are imputed with the worst
    /// observed value (no crash concept).
    fn ingest(&mut self, ctx: &SearchContext<'_>, obs: &Observation) {
        let x = ctx.encoder.encode(ctx.space, &obs.config);
        let y = match obs.value {
            Some(v) => ctx.goodness(v),
            None => self
                .ys
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min)
                .min(0.0),
        };
        Self::fold_row(&mut self.sums, &mut self.cross, &x, y);
        self.xs.push(x);
        self.ys.push(y);
    }

    /// The linear causal estimate of the outcome for an encoded candidate:
    /// correlation-weighted sum over the outcome's causal neighbors (or
    /// all features while the skeleton has none).
    fn causal_score(&self, x: &[f64]) -> f64 {
        let f = self.outcome_corr.len();
        let outcome = f; // outcome variable index in the skeleton
        let causal_features: Vec<usize> = self
            .adjacency
            .get(outcome)
            .map(|adj| adj.iter().copied().filter(|&k| k < f).collect())
            .unwrap_or_default();
        if causal_features.is_empty() {
            self.outcome_corr
                .iter()
                .zip(x.iter())
                .map(|(r, v)| r * v)
                .sum()
        } else {
            causal_features
                .iter()
                .map(|&k| self.outcome_corr[k] * x[k])
                .sum()
        }
    }

    /// Draws `pool_n` candidates (half fresh samples, half mutations of
    /// the incumbent) and scores each by the causal estimate.
    fn scored_pool(
        &self,
        ctx: &SearchContext<'_>,
        rng: &mut StdRng,
        pool_n: usize,
    ) -> Vec<(f64, Configuration)> {
        (0..pool_n)
            .map(|_| {
                let c = if rng.random::<f64>() < 0.5 {
                    ctx.policy.sample(ctx.space, rng)
                } else if let Some(b) = ctx.best() {
                    ctx.policy.mutate(ctx.space, &b.config, 2, rng)
                } else {
                    ctx.policy.sample(ctx.space, rng)
                };
                let x = ctx.encoder.encode(ctx.space, &c);
                (self.causal_score(&x), c)
            })
            .collect()
    }

    /// The Fisher z statistic for correlation `r` with a conditioning set
    /// of `s_len` variables over `n` samples. Both skeleton modes funnel
    /// through this function, which is what makes their decisions
    /// identical.
    fn z_stat(r: f64, s_len: usize, n: usize) -> f64 {
        let df = n as f64 - s_len as f64 - 3.0;
        if df <= 0.0 {
            return 0.0;
        }
        let r = r.clamp(-0.999_999, 0.999_999);
        df.sqrt() * 0.5 * ((1.0 + r) / (1.0 - r)).ln()
    }

    /// Fisher-z test of whether `i` and `j` stay dependent given `s`, over
    /// the `vars × vars` correlation matrix `corr` of `n` samples. The
    /// scratch profile caches every statistic forever, keyed by the sample
    /// count — so every iteration adds fresh entries (the Fig. 7 memory
    /// story). The incremental profile recomputes: the statistic is a
    /// handful of flops, cheaper than hashing its key.
    fn fisher_dependent(
        &mut self,
        corr: &[f64],
        vars: usize,
        i: usize,
        j: usize,
        s: &[usize],
        n: usize,
    ) -> bool {
        let z = if self.scratch_skeleton {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &v in s {
                h ^= v as u64 + 1;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            let key = (i as u32, j as u32, h, n as u32);
            match self.test_cache.get(&key) {
                Some(&z) => z,
                None => {
                    let r = partial_corr(corr, vars, i, j, s);
                    let z = Self::z_stat(r, s.len(), n);
                    self.tests_run += 1;
                    self.test_cache.insert(key, z);
                    z
                }
            }
        } else {
            self.tests_run += 1;
            Self::z_stat(partial_corr(corr, vars, i, j, s), s.len(), n)
        };
        z.abs() > self.z_threshold
    }
}

/// Estimated bytes per sepset map entry beyond the set itself: the edge
/// key, the `Vec` header, and hash-table slot overhead.
const SEPSET_ENTRY_BYTES: usize = 40;

/// Highest conditioning-set order the PC sweep tests (Unicorn uses small
/// orders).
const MAX_ORDER: usize = 2;

/// Partial correlation of (i, j) given S, by recursion on S's last
/// element `l`: r(i,j|S) = (r(i,j|S′) − r(i,l|S′)·r(j,l|S′)) /
/// √((1 − r(i,l|S′)²)(1 − r(j,l|S′)²)) with S = S′ ∪ {l}.
fn partial_corr(corr: &[f64], vars: usize, i: usize, j: usize, s: &[usize]) -> f64 {
    let Some((&l, rest)) = s.split_last() else {
        return corr[i * vars + j];
    };
    let rij = partial_corr(corr, vars, i, j, rest);
    let ril = partial_corr(corr, vars, i, l, rest);
    let rjl = partial_corr(corr, vars, j, l, rest);
    let den = ((1.0 - ril * ril) * (1.0 - rjl * rjl)).sqrt();
    if den < 1e-12 {
        0.0
    } else {
        (rij - ril * rjl) / den
    }
}

impl SearchAlgorithm for CausalSearch {
    fn name(&self) -> &'static str {
        "causal"
    }

    fn propose_batch(
        &mut self,
        n: usize,
        ctx: &SearchContext<'_>,
        rng: &mut StdRng,
    ) -> Vec<Configuration> {
        if self.xs.len() < self.n_init || self.outcome_corr.is_empty() {
            (0..n).map(|_| ctx.policy.sample(ctx.space, rng)).collect()
        } else {
            // Score one shared candidate pool by the causal estimate, then
            // take the top `n` distinct configurations: the wave walks the
            // ranked interventions instead of re-testing the single best.
            let scored = self.scored_pool(ctx, rng, (self.pool).max(4 * n));
            let mut ranked: Vec<usize> = (0..scored.len()).collect();
            ranked.sort_by(|&a, &b| {
                scored[b]
                    .0
                    .partial_cmp(&scored[a].0)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut picked: Vec<Configuration> = Vec::with_capacity(n);
            let mut fps = std::collections::HashSet::new();
            for i in ranked {
                if picked.len() == n {
                    break;
                }
                if fps.insert(scored[i].1.fingerprint()) {
                    picked.push(scored[i].1.clone());
                }
            }
            // Pool held fewer than n distinct fingerprints (tiny spaces):
            // top up with fresh distinct policy samples.
            fill_distinct(&mut picked, n, ctx, rng, &mut fps);
            picked
        }
    }

    fn observe_batch(&mut self, ctx: &SearchContext<'_>, batch: &[Observation]) {
        // The skeleton is recomputed from scratch anyway, so one rebuild
        // over the whole wave reaches the same graph as per-observation
        // rebuilds while skipping the intermediate recomputes.
        for obs in batch {
            self.ingest(ctx, obs);
        }
        self.rebuild();
    }

    fn begin_epoch(&mut self, _transfer: bool) {
        // The causal graph is estimated from per-epoch observations; a
        // workload shift invalidates the correlations it encodes, so both
        // modes restart from scratch. The conditional-independence test
        // cache is keyed by (i, j, conditioning-set hash, n), so stale
        // entries would be re-hit once the new epoch reaches the same
        // sample counts; dropping it (and the persisted sepsets,
        // which encode the invalidated graph) keeps memory honest.
        self.xs.clear();
        self.ys.clear();
        self.sums.clear();
        self.cross.clear();
        self.adjacency.clear();
        self.outcome_corr.clear();
        self.test_cache.clear();
        self.sepsets.clear();
        self.sepset_bytes = 0;
        self.tests_run = 0;
        self.mem.set_live(0);
    }

    fn stats(&self) -> AlgoStats {
        AlgoStats {
            memory_bytes: self.mem.live(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SamplePolicy;
    use rand::SeedableRng;
    use wf_configspace::{ConfigSpace, Encoder, ParamKind, ParamSpec, Stage};
    use wf_jobfile::Direction;

    fn space(dims: usize) -> ConfigSpace {
        let mut s = ConfigSpace::new();
        for i in 0..dims {
            s.add(ParamSpec::new(
                format!("p{i}"),
                ParamKind::int(0, 100),
                Stage::Runtime,
            ));
        }
        s
    }

    #[test]
    fn partial_correlation_chain_rule() {
        // X -> Z -> Y: r_xy should vanish conditioned on Z.
        // Construct correlations of a linear chain with unit coefficients.
        let vars = 3;
        let r_xz = 0.8;
        let r_zy = 0.7;
        let r_xy = r_xz * r_zy;
        let corr = vec![
            1.0, r_xz, r_xy, //
            r_xz, 1.0, r_zy, //
            r_xy, r_zy, 1.0,
        ];
        let pc = partial_corr(&corr, vars, 0, 2, &[1]);
        assert!(pc.abs() < 1e-9, "pc={pc}");
    }

    /// Drives the search on a linear ground truth and returns per-iteration
    /// stats.
    fn drive(dims: usize, iters: usize) -> Vec<AlgoStats> {
        let space = space(dims);
        let encoder = Encoder::new(&space);
        let policy = SamplePolicy::Uniform;
        let mut alg = CausalSearch::new();
        let mut rng = StdRng::seed_from_u64(7);
        let mut history: Vec<Observation> = Vec::new();
        let mut out = Vec::new();
        for i in 0..iters {
            let ctx = SearchContext {
                space: &space,
                encoder: &encoder,
                direction: Direction::Maximize,
                policy: &policy,
                history: &history,
                iteration: i,
            };
            let c = alg.propose(&ctx, &mut rng);
            // Outcome depends on p0 and p1 only.
            let y = c.by_name(&space, "p0").unwrap().as_f64()
                + 0.5 * c.by_name(&space, "p1").unwrap().as_f64();
            let obs = Observation::ok(c, y, 1.0);
            let ctx = SearchContext {
                space: &space,
                encoder: &encoder,
                direction: Direction::Maximize,
                policy: &policy,
                history: &history,
                iteration: i,
            };
            alg.observe(&ctx, &obs);
            history.push(obs);
            out.push(alg.stats());
        }
        out
    }

    #[test]
    fn incremental_sums_match_a_scratch_rescan_bit_for_bit() {
        // Two searches over the same stream, one folding rows at ingest,
        // one rescanning the history per rebuild: identical correlations,
        // skeletons, and therefore identical intervention rankings.
        let space = space(12);
        let encoder = Encoder::new(&space);
        let policy = SamplePolicy::Uniform;
        let mut incremental = CausalSearch::new();
        let mut scratch = CausalSearch::new().with_scratch_stats(true);
        let mut rng = StdRng::seed_from_u64(33);
        let mut history: Vec<Observation> = Vec::new();
        for i in 0..40 {
            let ctx = SearchContext {
                space: &space,
                encoder: &encoder,
                direction: Direction::Maximize,
                policy: &policy,
                history: &history,
                iteration: i,
            };
            let c = ctx.policy.sample(ctx.space, &mut rng);
            let y = c.by_name(&space, "p0").unwrap().as_f64()
                - 0.3 * c.by_name(&space, "p3").unwrap().as_f64();
            let obs = Observation::ok(c, y, 1.0);
            incremental.observe(&ctx, &obs);
            scratch.observe(&ctx, &obs);
            history.push(obs);
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&incremental.sums), bits(&scratch.sums));
        assert_eq!(bits(&incremental.cross), bits(&scratch.cross));
        assert_eq!(bits(&incremental.outcome_corr), bits(&scratch.outcome_corr));
        assert_eq!(incremental.adjacency, scratch.adjacency);
        // Same model ⇒ same proposals from the same RNG state.
        let ctx = SearchContext {
            space: &space,
            encoder: &encoder,
            direction: Direction::Maximize,
            policy: &policy,
            history: &history,
            iteration: 40,
        };
        let mut rng_a = StdRng::seed_from_u64(99);
        let mut rng_b = StdRng::seed_from_u64(99);
        assert_eq!(
            incremental.propose_batch(4, &ctx, &mut rng_a),
            scratch.propose_batch(4, &ctx, &mut rng_b)
        );
    }

    /// Feeds the same observation stream to two searches and asserts they
    /// agree on skeleton, ranking, and proposals bit for bit.
    fn assert_equivalent(mut a: CausalSearch, mut b: CausalSearch, seed: u64) {
        let space = space(12);
        let encoder = Encoder::new(&space);
        let policy = SamplePolicy::Uniform;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut history: Vec<Observation> = Vec::new();
        for i in 0..48 {
            let ctx = SearchContext {
                space: &space,
                encoder: &encoder,
                direction: Direction::Maximize,
                policy: &policy,
                history: &history,
                iteration: i,
            };
            let c = ctx.policy.sample(ctx.space, &mut rng);
            let y = c.by_name(&space, "p0").unwrap().as_f64()
                - 0.3 * c.by_name(&space, "p3").unwrap().as_f64();
            let obs = Observation::ok(c, y, 1.0);
            // Alternate single observes and wave boundaries so rebuilds
            // happen at several history lengths.
            if i % 5 == 4 {
                let wave = [obs.clone()];
                a.observe_batch(&ctx, &wave);
                b.observe_batch(&ctx, &wave);
            } else {
                a.observe(&ctx, &obs);
                b.observe(&ctx, &obs);
            }
            history.push(obs);
            assert_eq!(a.adjacency, b.adjacency, "skeletons diverged at i={i}");
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.outcome_corr), bits(&b.outcome_corr));
        let ctx = SearchContext {
            space: &space,
            encoder: &encoder,
            direction: Direction::Maximize,
            policy: &policy,
            history: &history,
            iteration: 48,
        };
        let mut rng_a = StdRng::seed_from_u64(99);
        let mut rng_b = StdRng::seed_from_u64(99);
        assert_eq!(
            a.propose_batch(4, &ctx, &mut rng_a),
            b.propose_batch(4, &ctx, &mut rng_b)
        );
    }

    #[test]
    fn incremental_skeleton_matches_scratch_sweep_bit_for_bit() {
        // Isolates the skeleton axis: both sides fold statistics
        // incrementally; only the sweep differs.
        assert_equivalent(
            CausalSearch::new(),
            CausalSearch::new().with_scratch_skeleton(true),
            41,
        );
    }

    #[test]
    fn incremental_everything_matches_full_scratch_profile() {
        // Both axes at once: the published Fig. 7 profile.
        assert_equivalent(
            CausalSearch::new(),
            CausalSearch::new().with_scratch_stats(true),
            42,
        );
    }

    #[test]
    fn sepset_reuse_cuts_conditional_tests() {
        // Same stream, with and without the persisted skeleton: the
        // sepset-reusing sweep must compute strictly fewer statistics.
        let space = space(12);
        let encoder = Encoder::new(&space);
        let policy = SamplePolicy::Uniform;
        let mut incremental = CausalSearch::new();
        let mut scratch = CausalSearch::new().with_scratch_skeleton(true);
        let mut rng = StdRng::seed_from_u64(13);
        let history: Vec<Observation> = Vec::new();
        for i in 0..60 {
            let ctx = SearchContext {
                space: &space,
                encoder: &encoder,
                direction: Direction::Maximize,
                policy: &policy,
                history: &history,
                iteration: i,
            };
            let c = ctx.policy.sample(ctx.space, &mut rng);
            let y = c.by_name(&space, "p0").unwrap().as_f64()
                + 0.5 * c.by_name(&space, "p1").unwrap().as_f64();
            let obs = Observation::ok(c, y, 1.0);
            incremental.observe(&ctx, &obs);
            scratch.observe(&ctx, &obs);
        }
        assert_eq!(incremental.adjacency, scratch.adjacency);
        // The scratch count excludes cache hits, so this compares unique
        // statistics against the incremental sweep's total work.
        assert!(
            incremental.tests_performed() < scratch.tests_performed(),
            "incremental {} vs scratch {}",
            incremental.tests_performed(),
            scratch.tests_performed()
        );
    }

    /// Feeds `iters` single observations of outcome `y(p0..p11)` over 12
    /// uniform parameters to an incremental and a scratch-skeleton search; returns
    /// both test counts and the (shared) skeleton.
    fn sweep_counts(
        seed: u64,
        iters: usize,
        y: fn(&[f64]) -> f64,
    ) -> (usize, usize, Vec<Vec<usize>>) {
        let space = space(12);
        let encoder = Encoder::new(&space);
        let policy = SamplePolicy::Uniform;
        let mut incremental = CausalSearch::new();
        let mut scratch = CausalSearch::new().with_scratch_skeleton(true);
        let mut rng = StdRng::seed_from_u64(seed);
        let history: Vec<Observation> = Vec::new();
        for i in 0..iters {
            let ctx = SearchContext {
                space: &space,
                encoder: &encoder,
                direction: Direction::Maximize,
                policy: &policy,
                history: &history,
                iteration: i,
            };
            let c = ctx.policy.sample(ctx.space, &mut rng);
            let p: Vec<f64> = c.values().iter().map(|v| v.as_f64()).collect();
            let obs = Observation::ok(c, y(&p), 1.0);
            incremental.observe(&ctx, &obs);
            scratch.observe(&ctx, &obs);
        }
        assert_eq!(scratch.adjacency, incremental.adjacency);
        (
            incremental.tests_performed(),
            scratch.tests_performed(),
            incremental.adjacency,
        )
    }

    #[test]
    fn sweep_test_counts_are_pinned_on_fixed_streams() {
        // Both skeleton modes share one conditioning-set enumeration, so
        // the equivalence tests above cannot see a change in its order.
        // The number of statistics each mode computes on a fixed stream
        // can: a reordering moves the first separating set and the count.
        // The second stream separates edges at order 2, so it also sees a
        // change in the order of the `[k, l]` pairs.
        let (incremental, scratch, adjacency) = sweep_counts(41, 48, |p| p[0] - 0.3 * p[3]);
        assert_eq!((incremental, scratch), (3638, 3647));
        assert_eq!(adjacency[12], vec![0]);
        let (incremental, scratch, _) = sweep_counts(41, 60, |p| p[0] + p[1] + p[2] + p[3]);
        assert_eq!((incremental, scratch), (5574, 5580));
    }

    #[test]
    fn memory_grows_across_iterations() {
        let stats = drive(20, 40);
        assert!(stats[39].memory_bytes > stats[10].memory_bytes);
        // Growth continues: the default mode keeps every observation and
        // the sepset of each separated edge.
        assert!(stats[39].memory_bytes > stats[25].memory_bytes);
    }

    #[test]
    fn finds_the_influential_parameter() {
        let space = space(10);
        let encoder = Encoder::new(&space);
        let policy = SamplePolicy::Uniform;
        let mut alg = CausalSearch::new();
        let mut rng = StdRng::seed_from_u64(11);
        let mut history: Vec<Observation> = Vec::new();
        for i in 0..60 {
            let ctx = SearchContext {
                space: &space,
                encoder: &encoder,
                direction: Direction::Maximize,
                policy: &policy,
                history: &history,
                iteration: i,
            };
            let c = alg.propose(&ctx, &mut rng);
            let y = c.by_name(&space, "p0").unwrap().as_f64();
            let obs = Observation::ok(c, y, 1.0);
            let ctx = SearchContext {
                space: &space,
                encoder: &encoder,
                direction: Direction::Maximize,
                policy: &policy,
                history: &history,
                iteration: i,
            };
            alg.observe(&ctx, &obs);
            history.push(obs);
        }
        // The last third of proposals should push p0 high.
        let late: Vec<f64> = history[40..]
            .iter()
            .map(|o| o.config.by_name(&space, "p0").unwrap().as_f64())
            .collect();
        let mean = late.iter().sum::<f64>() / late.len() as f64;
        assert!(mean > 65.0, "late p0 mean {mean} (random would be ~50)");
    }
}
